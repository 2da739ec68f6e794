//! The sentiment lexicon: polarity definitions of individual terms.
//!
//! Entries follow the paper's form `<lexical_entry> <POS> <sent_category>`,
//! e.g. `"excellent" JJ +`. The paper's lexicon was collected from the
//! General Inquirer, the Dictionary of Affect in Language and WordNet, then
//! manually validated; ours is an embedded curated equivalent
//! (`data/sentiment.tsv`) with the same lookup semantics, extensible via
//! [`SentimentLexicon::parse`].

use crate::PosClass;
use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;
use wf_types::{Error, Polarity, Result};

const SENTIMENT_TSV: &str = include_str!("../data/sentiment.tsv");

/// A single lexicon entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexiconEntry {
    /// Lower-cased lexical entry; may be multi-word ("high quality").
    pub term: String,
    /// Required POS class of the entry.
    pub pos: PosClass,
    /// Sentiment category: positive or negative.
    pub polarity: Polarity,
}

/// Term → polarity lookup table: each lower-cased term maps to one
/// polarity slot per POS class, so a lookup borrows its `&str` key and
/// allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct SentimentLexicon {
    map: HashMap<String, [Option<Polarity>; 4]>,
    /// First words of the multi-word entries: an n-gram that starts with
    /// any other word cannot match, so phrase scorers skip it.
    starts: HashSet<String>,
    /// Number of (term, POS class) entries.
    len: usize,
    /// Maximum number of space-separated words over all entries, so phrase
    /// scorers know how long an n-gram window to try.
    max_words: usize,
}

impl SentimentLexicon {
    /// Parses a lexicon from TSV text: `term<TAB>POS<TAB>polarity`, `#`
    /// comments and blank lines ignored.
    pub fn parse(source_name: &str, tsv: &str) -> Result<Self> {
        let mut lex = SentimentLexicon::default();
        for (idx, line) in tsv.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut fields = line.split('\t');
            let (term, pos, pol) = match (fields.next(), fields.next(), fields.next()) {
                (Some(t), Some(p), Some(s)) => (t, p, s),
                _ => {
                    return Err(Error::parse(
                        source_name,
                        idx + 1,
                        "expected term<TAB>POS<TAB>polarity",
                    ))
                }
            };
            let pos = PosClass::parse(pos)
                .ok_or_else(|| Error::parse(source_name, idx + 1, format!("bad POS {pos:?}")))?;
            let polarity = Polarity::parse(pol).ok_or_else(|| {
                Error::parse(source_name, idx + 1, format!("bad polarity {pol:?}"))
            })?;
            lex.insert(LexiconEntry {
                term: term.to_lowercase(),
                pos,
                polarity,
            });
        }
        Ok(lex)
    }

    /// The embedded default lexicon.
    pub fn default_lexicon() -> &'static SentimentLexicon {
        static LEX: OnceLock<SentimentLexicon> = OnceLock::new();
        LEX.get_or_init(|| {
            SentimentLexicon::parse("sentiment.tsv", SENTIMENT_TSV)
                .expect("embedded sentiment lexicon must parse")
        })
    }

    /// Adds or replaces an entry.
    pub fn insert(&mut self, entry: LexiconEntry) {
        let mut words = entry.term.split(' ');
        let first = words.next().unwrap_or_default();
        let words = 1 + words.count();
        self.max_words = self.max_words.max(words);
        if words > 1 {
            self.starts.insert(first.to_string());
        }
        let slot = &mut self.map.entry(entry.term).or_default()[entry.pos.index()];
        self.len += usize::from(slot.is_none());
        *slot = Some(entry.polarity);
    }

    /// Looks up the polarity of a lower-cased term under a POS class.
    pub fn polarity(&self, term: &str, pos: PosClass) -> Option<Polarity> {
        self.map.get(term)?[pos.index()]
    }

    /// Looks up a term under any POS class, in [`PosClass::ALL`] order
    /// (used by baselines that ignore POS constraints, like the
    /// collocation algorithm).
    pub fn polarity_any_pos(&self, term: &str) -> Option<Polarity> {
        self.map.get(term)?.iter().find_map(|p| *p)
    }

    /// True when `word` is the first word of a multi-word entry.
    pub fn starts_multiword(&self, word: &str) -> bool {
        self.starts.contains(word)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Longest entry in words (≥1 for a non-empty lexicon).
    pub fn max_entry_words(&self) -> usize {
        self.max_words
    }

    /// Iterates over all (term, pos, polarity) triples.
    pub fn iter(&self) -> impl Iterator<Item = (&str, PosClass, Polarity)> {
        self.map.iter().flat_map(|(term, slots)| {
            PosClass::ALL
                .iter()
                .zip(slots)
                .filter_map(move |(pos, p)| p.map(|p| (term.as_str(), *pos, p)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_lexicon_loads_and_is_sizable() {
        let lex = SentimentLexicon::default_lexicon();
        assert!(lex.len() > 300, "lexicon too small: {}", lex.len());
    }

    #[test]
    fn paper_example_entry() {
        let lex = SentimentLexicon::default_lexicon();
        assert_eq!(
            lex.polarity("excellent", PosClass::Adjective),
            Some(Polarity::Positive)
        );
        assert_eq!(
            lex.polarity("mediocre", PosClass::Adjective),
            Some(Polarity::Negative)
        );
    }

    #[test]
    fn pos_class_distinguishes_entries() {
        let lex = SentimentLexicon::default_lexicon();
        // "excellent" is an adjective entry only
        assert_eq!(lex.polarity("excellent", PosClass::Noun), None);
    }

    #[test]
    fn any_pos_lookup() {
        let lex = SentimentLexicon::default_lexicon();
        assert_eq!(lex.polarity_any_pos("excellent"), Some(Polarity::Positive));
        assert_eq!(lex.polarity_any_pos("the"), None);
    }

    #[test]
    fn verbs_and_nouns_present() {
        let lex = SentimentLexicon::default_lexicon();
        assert_eq!(
            lex.polarity("impress", PosClass::Verb),
            Some(Polarity::Positive)
        );
        assert_eq!(
            lex.polarity("flaw", PosClass::Noun),
            Some(Polarity::Negative)
        );
        assert_eq!(
            lex.polarity("beautifully", PosClass::Adverb),
            Some(Polarity::Positive)
        );
    }

    #[test]
    fn multiword_entries_tracked() {
        let lex = SentimentLexicon::default_lexicon();
        assert!(lex.max_entry_words() >= 2);
        assert_eq!(
            lex.polarity("high quality", PosClass::Adjective),
            Some(Polarity::Positive)
        );
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(SentimentLexicon::parse("t", "one-field-only").is_err());
        assert!(SentimentLexicon::parse("t", "term\tXX\t+").is_err());
        assert!(SentimentLexicon::parse("t", "term\tJJ\t?").is_err());
    }

    #[test]
    fn parse_accepts_comments_and_blanks() {
        let lex = SentimentLexicon::parse("t", "# comment\n\nnice\tJJ\t+\n").unwrap();
        assert_eq!(lex.len(), 1);
        assert_eq!(
            lex.polarity("nice", PosClass::Adjective),
            Some(Polarity::Positive)
        );
    }

    #[test]
    fn insert_replaces() {
        let mut lex = SentimentLexicon::default();
        lex.insert(LexiconEntry {
            term: "sick".into(),
            pos: PosClass::Adjective,
            polarity: Polarity::Negative,
        });
        lex.insert(LexiconEntry {
            term: "sick".into(),
            pos: PosClass::Adjective,
            polarity: Polarity::Positive, // slang flip
        });
        assert_eq!(lex.len(), 1);
        assert_eq!(
            lex.polarity("sick", PosClass::Adjective),
            Some(Polarity::Positive)
        );
    }
}
