//! The sentiment pattern database: per-predicate sentiment assignment rules.
//!
//! Each entry follows the paper's form `<predicate> <sent_category>
//! <target>` where `sent_category` is `+`, `-`, or `[~]source` (the
//! sentiment of another sentence component, optionally inverted), and
//! `target` is the component the sentiment is directed to. PP slots may
//! carry preposition constraints: `impress + PP(by;with)`.

use crate::Component;
use std::collections::HashMap;
use std::sync::OnceLock;
use wf_types::{Error, Polarity, Result};

const PATTERNS_TXT: &str = include_str!("../data/patterns.txt");

/// How a pattern decides the sentiment it assigns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Assignment {
    /// The pattern itself carries the polarity (`impress + PP(by;with)`).
    Fixed(Polarity),
    /// The polarity is transferred from another sentence component
    /// (`be CP SP`), optionally inverted (`prevent ~OP SP`).
    Transfer {
        source: Component,
        /// Preposition constraint when `source` is [`Component::PP`].
        source_preps: Option<Vec<String>>,
        invert: bool,
    },
}

/// One sentiment extraction pattern for a predicate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SentimentPattern {
    /// Verb lemma this pattern applies to.
    pub predicate: String,
    /// Where the assigned polarity comes from.
    pub assignment: Assignment,
    /// The component the sentiment is directed to.
    pub target: Component,
    /// Preposition constraint when `target` is [`Component::PP`].
    pub target_preps: Option<Vec<String>>,
}

impl SentimentPattern {
    /// Specificity used to rank candidate patterns for one clause: patterns
    /// with preposition constraints are most specific, then fixed-polarity
    /// patterns, then transfers.
    pub fn specificity(&self) -> u32 {
        let mut s = 0;
        if self.target_preps.is_some() {
            s += 4;
        }
        match &self.assignment {
            Assignment::Fixed(_) => s += 2,
            Assignment::Transfer { source_preps, .. } => {
                if source_preps.is_some() {
                    s += 3;
                }
                s += 1;
            }
        }
        s
    }
}

/// The pattern database: predicate lemma → patterns, in file order.
#[derive(Debug, Clone, Default)]
pub struct PatternDatabase {
    by_predicate: HashMap<String, PredicatePatterns>,
    count: usize,
}

/// One predicate's patterns in file order, plus their indices ranked by
/// descending specificity (file order among equals).
#[derive(Debug, Clone, Default)]
struct PredicatePatterns {
    patterns: Vec<SentimentPattern>,
    ranked: Vec<usize>,
}

impl PatternDatabase {
    /// Parses a database from the text format described in the module docs.
    pub fn parse(source_name: &str, text: &str) -> Result<Self> {
        let mut db = PatternDatabase::default();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let line_no = idx + 1;
            let fields: Vec<&str> = line.split_whitespace().collect();
            if fields.len() != 3 {
                return Err(Error::parse(
                    source_name,
                    line_no,
                    format!("expected 3 fields, got {}", fields.len()),
                ));
            }
            let predicate = fields[0].to_lowercase();
            let assignment = parse_assignment(source_name, line_no, fields[1])?;
            let (target, target_preps) = parse_component(source_name, line_no, fields[2])?;
            if !matches!(target, Component::SP | Component::OP | Component::PP) {
                return Err(Error::parse(
                    source_name,
                    line_no,
                    format!("target must be SP, OP or PP, got {target:?}"),
                ));
            }
            db.insert(SentimentPattern {
                predicate,
                assignment,
                target,
                target_preps,
            });
        }
        Ok(db)
    }

    /// The embedded default pattern database.
    pub fn default_database() -> &'static PatternDatabase {
        static DB: OnceLock<PatternDatabase> = OnceLock::new();
        DB.get_or_init(|| {
            PatternDatabase::parse("patterns.txt", PATTERNS_TXT)
                .expect("embedded pattern database must parse")
        })
    }

    /// Adds a pattern (appended after existing patterns of the predicate)
    /// and ranks it among them.
    pub fn insert(&mut self, pattern: SentimentPattern) {
        self.count += 1;
        let entry = self
            .by_predicate
            .entry(pattern.predicate.clone())
            .or_default();
        let specificity = pattern.specificity();
        let at = entry
            .ranked
            .partition_point(|&i| entry.patterns[i].specificity() >= specificity);
        entry.ranked.insert(at, entry.patterns.len());
        entry.patterns.push(pattern);
    }

    /// All patterns registered for a predicate lemma, in file order.
    pub fn patterns_for(&self, predicate_lemma: &str) -> &[SentimentPattern] {
        self.by_predicate
            .get(predicate_lemma)
            .map(|e| e.patterns.as_slice())
            .unwrap_or(&[])
    }

    /// The patterns of a predicate lemma, most specific first (see
    /// [`SentimentPattern::specificity`]); equally specific patterns keep
    /// file order. Ranked when the patterns are inserted, not per call.
    pub fn patterns_by_specificity<'a>(
        &'a self,
        predicate_lemma: &str,
    ) -> impl Iterator<Item = &'a SentimentPattern> {
        self.by_predicate
            .get(predicate_lemma)
            .into_iter()
            .flat_map(|e| e.ranked.iter().map(|&i| &e.patterns[i]))
    }

    /// True when the predicate has at least one pattern.
    pub fn knows_predicate(&self, predicate_lemma: &str) -> bool {
        self.by_predicate.contains_key(predicate_lemma)
    }

    /// Total number of patterns.
    pub fn len(&self) -> usize {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Number of distinct predicates.
    pub fn predicate_count(&self) -> usize {
        self.by_predicate.len()
    }
}

fn parse_assignment(source: &str, line: usize, field: &str) -> Result<Assignment> {
    match field {
        "+" => return Ok(Assignment::Fixed(Polarity::Positive)),
        "-" => return Ok(Assignment::Fixed(Polarity::Negative)),
        _ => {}
    }
    let (invert, comp_str) = match field.strip_prefix('~') {
        Some(rest) => (true, rest),
        None => (false, field),
    };
    let (component, preps) = parse_component(source, line, comp_str)?;
    Ok(Assignment::Transfer {
        source: component,
        source_preps: preps,
        invert,
    })
}

/// Parses `SP`, `OP`, `CP`, `MP`, `PP` or `PP(by;with)`.
fn parse_component(
    source: &str,
    line: usize,
    field: &str,
) -> Result<(Component, Option<Vec<String>>)> {
    if let Some(rest) = field.strip_prefix("PP(") {
        let inner = rest.strip_suffix(')').ok_or_else(|| {
            Error::parse(
                source,
                line,
                format!("unclosed preposition list in {field:?}"),
            )
        })?;
        let preps: Vec<String> = inner
            .split(';')
            .map(|p| p.trim().to_lowercase())
            .filter(|p| !p.is_empty())
            .collect();
        if preps.is_empty() {
            return Err(Error::parse(source, line, "empty preposition list"));
        }
        return Ok((Component::PP, Some(preps)));
    }
    let comp = match field {
        "SP" => Component::SP,
        "OP" => Component::OP,
        "CP" => Component::CP,
        "PP" => Component::PP,
        "MP" => Component::MP,
        other => {
            return Err(Error::parse(
                source,
                line,
                format!("unknown component {other:?}"),
            ))
        }
    };
    Ok((comp, None))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_database_loads() {
        let db = PatternDatabase::default_database();
        assert!(db.len() > 100, "too few patterns: {}", db.len());
        assert!(db.predicate_count() > 80);
    }

    #[test]
    fn paper_pattern_impress() {
        let db = PatternDatabase::default_database();
        let ps = db.patterns_for("impress");
        let pp_pattern = ps
            .iter()
            .find(|p| p.target == Component::PP)
            .expect("impress + PP(by;with)");
        assert_eq!(pp_pattern.assignment, Assignment::Fixed(Polarity::Positive));
        assert_eq!(
            pp_pattern.target_preps,
            Some(vec!["by".to_string(), "with".to_string()])
        );
    }

    #[test]
    fn paper_pattern_be_and_offer() {
        let db = PatternDatabase::default_database();
        let be = db.patterns_for("be");
        assert!(be.iter().any(|p| matches!(
            &p.assignment,
            Assignment::Transfer {
                source: Component::CP,
                invert: false,
                ..
            }
        ) && p.target == Component::SP));
        let offer = db.patterns_for("offer");
        assert!(offer.iter().any(|p| matches!(
            &p.assignment,
            Assignment::Transfer {
                source: Component::OP,
                invert: false,
                ..
            }
        ) && p.target == Component::SP));
    }

    #[test]
    fn inverted_transfer() {
        let db = PatternDatabase::default_database();
        let prevent = db.patterns_for("prevent");
        assert!(prevent.iter().any(|p| matches!(
            &p.assignment,
            Assignment::Transfer {
                source: Component::OP,
                invert: true,
                ..
            }
        )));
    }

    #[test]
    fn unknown_predicate_is_empty() {
        let db = PatternDatabase::default_database();
        assert!(db.patterns_for("zorp").is_empty());
        assert!(!db.knows_predicate("zorp"));
        assert!(db.knows_predicate("be"));
    }

    #[test]
    fn parse_errors_are_located() {
        let err = PatternDatabase::parse("p.txt", "badline").unwrap_err();
        assert!(err.to_string().contains("p.txt:1"));
        assert!(PatternDatabase::parse("p", "verb + XX").is_err());
        assert!(PatternDatabase::parse("p", "verb ? SP").is_err());
        assert!(PatternDatabase::parse("p", "verb + PP(").is_err());
        assert!(PatternDatabase::parse("p", "verb + PP()").is_err());
    }

    #[test]
    fn target_must_be_assignable() {
        // CP cannot be a target per the paper (<target> is SP|OP|PP)
        assert!(PatternDatabase::parse("p", "verb + CP").is_err());
        assert!(PatternDatabase::parse("p", "verb + SP").is_ok());
    }

    #[test]
    fn specificity_ordering() {
        let db = PatternDatabase::default_database();
        let impress_pp = db
            .patterns_for("impress")
            .iter()
            .find(|p| p.target == Component::PP)
            .unwrap();
        let impress_sp = db
            .patterns_for("impress")
            .iter()
            .find(|p| p.target == Component::SP)
            .unwrap();
        assert!(impress_pp.specificity() > impress_sp.specificity());
    }

    #[test]
    fn ranked_order_is_a_stable_sort_of_file_order() {
        let db = PatternDatabase::parse(
            "p",
            "be CP SP\nbe + SP\nbe OP SP\nbe - PP(of)\nbe PP(by) SP\nbe ~CP SP\n",
        )
        .unwrap();
        let mut expected: Vec<&SentimentPattern> = db.patterns_for("be").iter().collect();
        expected.sort_by_key(|p| std::cmp::Reverse(p.specificity()));
        let ranked: Vec<&SentimentPattern> = db.patterns_by_specificity("be").collect();
        assert_eq!(ranked, expected);
        assert_eq!(db.patterns_by_specificity("zorp").count(), 0);
        // the default database too, predicate by predicate
        let db = PatternDatabase::default_database();
        for predicate in db.by_predicate.keys() {
            let mut expected: Vec<&SentimentPattern> = db.patterns_for(predicate).iter().collect();
            expected.sort_by_key(|p| std::cmp::Reverse(p.specificity()));
            let ranked: Vec<&SentimentPattern> = db.patterns_by_specificity(predicate).collect();
            assert_eq!(ranked, expected, "{predicate}");
        }
    }

    #[test]
    fn multiline_parse_and_counts() {
        let db = PatternDatabase::parse("p", "# comment\nlove + OP\nbe CP SP\nbe OP SP\n").unwrap();
        assert_eq!(db.len(), 3);
        assert_eq!(db.predicate_count(), 2);
        assert_eq!(db.patterns_for("be").len(), 2);
    }
}
