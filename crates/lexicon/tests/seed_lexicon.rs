//! The sentiment lexicon against the seed's table.
//!
//! The seed keyed a `HashMap<(String, PosClass), Polarity>` and built a
//! `String` key for every lookup. [`SentimentLexicon`] now maps each term to
//! one slot per POS class and is read by `&str`. This test rebuilds the
//! seed table from `data/sentiment.tsv` and checks that the two give the
//! same answer on every entry, under every class, and on random terms that
//! are not entries.

use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;
use wf_lexicon::{PosClass, SentimentLexicon};
use wf_types::Polarity;

/// The seed lexicon: the table and the seed's lookups over it.
struct SeedLexicon {
    map: HashMap<(String, PosClass), Polarity>,
    max_words: usize,
}

impl SeedLexicon {
    fn parse(tsv: &str) -> Self {
        let mut lex = SeedLexicon {
            map: HashMap::new(),
            max_words: 0,
        };
        for line in tsv.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split('\t').collect();
            let term = fields[0].to_lowercase();
            let pos = PosClass::parse(fields[1]).expect("seed POS");
            let polarity = Polarity::parse(fields[2]).expect("seed polarity");
            lex.max_words = lex.max_words.max(term.split(' ').count());
            lex.map.insert((term, pos), polarity);
        }
        lex
    }

    fn polarity(&self, term: &str, pos: PosClass) -> Option<Polarity> {
        self.map.get(&(term.to_string(), pos)).copied()
    }

    fn polarity_any_pos(&self, term: &str) -> Option<Polarity> {
        PosClass::ALL
            .iter()
            .find_map(|pos| self.polarity(term, *pos))
    }

    /// Whether some multi-word entry begins with `word`.
    fn starts_multiword(&self, word: &str) -> bool {
        self.map.keys().any(|(term, _)| {
            let mut words = term.split(' ');
            words.next() == Some(word) && words.next().is_some()
        })
    }
}

fn seed() -> &'static SeedLexicon {
    static SEED: OnceLock<SeedLexicon> = OnceLock::new();
    SEED.get_or_init(|| SeedLexicon::parse(include_str!("../data/sentiment.tsv")))
}

fn lexicon() -> &'static SentimentLexicon {
    SentimentLexicon::default_lexicon()
}

/// Seed entry terms, sorted so a drawn index picks the same term on every
/// run.
fn terms() -> &'static [String] {
    static TERMS: OnceLock<Vec<String>> = OnceLock::new();
    TERMS.get_or_init(|| {
        let mut terms: Vec<String> = seed().map.keys().map(|(t, _)| t.clone()).collect();
        terms.sort();
        terms.dedup();
        terms
    })
}

/// Both lexicons give the same answer for `term`, under every class and
/// under any class, and agree on whether it starts a multi-word entry.
fn assert_same(term: &str) -> Result<(), TestCaseError> {
    for pos in PosClass::ALL {
        let (ours, theirs) = (lexicon().polarity(term, *pos), seed().polarity(term, *pos));
        prop_assert!(
            ours == theirs,
            "{term:?} under {pos:?}: {ours:?} != {theirs:?}"
        );
    }
    let (ours, theirs) = (
        lexicon().polarity_any_pos(term),
        seed().polarity_any_pos(term),
    );
    prop_assert!(
        ours == theirs,
        "{term:?} under any class: {ours:?} != {theirs:?}"
    );
    let (ours, theirs) = (
        lexicon().starts_multiword(term),
        seed().starts_multiword(term),
    );
    prop_assert!(
        ours == theirs,
        "{term:?} as a start word: {ours} != {theirs}"
    );
    Ok(())
}

#[test]
fn lexicon_matches_seed_map_on_every_entry() {
    assert_eq!(lexicon().len(), seed().map.len());
    assert_eq!(lexicon().max_entry_words(), seed().max_words);
    let ours: HashSet<(String, PosClass, Polarity)> = lexicon()
        .iter()
        .map(|(term, pos, p)| (term.to_string(), pos, p))
        .collect();
    let theirs: HashSet<(String, PosClass, Polarity)> = seed()
        .map
        .iter()
        .map(|((term, pos), p)| (term.clone(), *pos, *p))
        .collect();
    assert_eq!(
        lexicon().iter().count(),
        ours.len(),
        "iter repeats a triple"
    );
    assert_eq!(ours, theirs);
    for term in terms() {
        assert_same(term).unwrap_or_else(|e| panic!("{e}"));
    }
    assert!(
        terms().iter().any(|t| t.contains(' ')),
        "the lexicon has multi-word entries"
    );
}

proptest! {
    /// Random non-entries: an entry uppercased, with a non-ASCII letter,
    /// extended to a longer phrase or cut to a prefix of its words, and
    /// arbitrary printable text.
    #[test]
    fn lexicon_matches_seed_map_on_random_terms(
        pick in 0usize..10_000,
        noise in "\\PC{0,12}",
        word in "[a-zé]{1,8}"
    ) {
        let term = &terms()[pick % terms().len()];
        let words: Vec<&str> = term.split(' ').collect();
        let mut probes = vec![
            term.to_uppercase(),
            format!("{term}é"),
            format!("é{term}"),
            format!("{term} {word}"),
            format!("{word} {term}"),
            format!("{term}  {word}"),
            noise.clone(),
            noise.to_lowercase(),
            word.clone(),
            format!("{word} {word}"),
        ];
        for n in 1..words.len() {
            probes.push(words[..n].join(" "));
            probes.push(format!("{} ", words[..n].join(" ")));
        }
        for probe in &probes {
            assert_same(probe)?;
        }
    }
}
