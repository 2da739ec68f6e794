//! Linguistic resources for sentiment analysis: the sentiment lexicon and
//! the sentiment pattern database.
//!
//! The paper names these as "the two major linguistic resources used for
//! sentiment analysis": the lexicon defines term polarities
//! (`"excellent" JJ +`), the pattern database defines per-predicate
//! sentiment assignment rules (`impress + PP(by;with)`, `be CP SP`).
//! Both ship as embedded data files and can be extended or replaced by
//! parsing user-supplied text in the same formats.
//!
//! Both are read by borrowed keys and allocate nothing per lookup:
//!
//! - [`SentimentLexicon`] maps each lower-cased term to one polarity slot
//!   per [`PosClass`], so `polarity(term, pos)` is one hash probe on the
//!   `&str` and one array index. It also keeps the set of words that begin
//!   a multi-word entry ("high" of "high quality"), so a phrase scorer
//!   tries an n-gram only at a word in that set.
//! - [`PatternDatabase`] keeps each predicate's patterns in file order
//!   ([`PatternDatabase::patterns_for`]) and ranks them by specificity
//!   once, when a pattern is inserted
//!   ([`PatternDatabase::patterns_by_specificity`]).

pub mod patterns;
pub mod sentiment;

pub use patterns::{Assignment, PatternDatabase, SentimentPattern};
pub use sentiment::{LexiconEntry, SentimentLexicon};

/// Coarse POS class used by lexicon entries. Lexicon entries constrain the
/// POS of a match ("excellent" only counts as sentiment when used as an
/// adjective).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PosClass {
    Adjective,
    Noun,
    Verb,
    Adverb,
}

impl PosClass {
    /// All classes, for any-POS lookups.
    pub const ALL: &'static [PosClass] = &[
        PosClass::Adjective,
        PosClass::Noun,
        PosClass::Verb,
        PosClass::Adverb,
    ];

    /// Position of the class in [`PosClass::ALL`] (the lexicon's slot).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Parses the Penn-tag-style class names used in the lexicon file.
    pub fn parse(s: &str) -> Option<PosClass> {
        match s {
            "JJ" | "JJR" | "JJS" => Some(PosClass::Adjective),
            "NN" | "NNS" => Some(PosClass::Noun),
            "VB" | "VBD" | "VBG" | "VBN" | "VBP" | "VBZ" => Some(PosClass::Verb),
            "RB" | "RBR" | "RBS" => Some(PosClass::Adverb),
            _ => None,
        }
    }
}

/// Sentence components referenced by sentiment patterns, per the paper:
/// "SP, OP, CP, and PP represent subject, object, complement (or adjective),
/// and prepositional phrases". MP (manner) extends the scheme to sentiment
/// adverbs inside the verb group ("performs beautifully").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Component {
    /// Subject phrase.
    SP,
    /// Object phrase.
    OP,
    /// Complement (predicative adjective or predicate nominal).
    CP,
    /// Prepositional phrase.
    PP,
    /// Manner: adverbs inside the verb group.
    MP,
}

impl std::fmt::Display for Component {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Component::SP => "SP",
            Component::OP => "OP",
            Component::CP => "CP",
            Component::PP => "PP",
            Component::MP => "MP",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pos_class_parse_covers_penn_tags() {
        assert_eq!(PosClass::parse("JJ"), Some(PosClass::Adjective));
        assert_eq!(PosClass::parse("JJR"), Some(PosClass::Adjective));
        assert_eq!(PosClass::parse("NN"), Some(PosClass::Noun));
        assert_eq!(PosClass::parse("VBZ"), Some(PosClass::Verb));
        assert_eq!(PosClass::parse("RB"), Some(PosClass::Adverb));
        assert_eq!(PosClass::parse("DT"), None);
    }

    #[test]
    fn pos_class_index_is_its_place_in_all() {
        for (i, class) in PosClass::ALL.iter().enumerate() {
            assert_eq!(class.index(), i);
        }
    }

    #[test]
    fn component_display() {
        assert_eq!(Component::SP.to_string(), "SP");
        assert_eq!(Component::MP.to_string(), "MP");
    }
}
