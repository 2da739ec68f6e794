//! Per-construction diagnostics: where the miner's errors live.
//!
//! The paper's discussion attributes the miner's misses to specific
//! construction classes (statistical-only phrasing, ambiguity, I-class
//! cases). Because the corpus carries gold case classes, we can report
//! accuracy per class directly — the error analysis behind the headline
//! numbers.

use crate::experiments::{ExperimentScale, Report};
use crate::harness::run_sentiment_miner;
use crate::metrics::Prediction;
use crate::report::render_table;
use std::collections::BTreeMap;
use wf_corpus::{camera_reviews, CaseClass};

/// Accuracy per case class.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseBreakdown {
    /// (class, correct, total), ordered by class name.
    pub rows: Vec<(CaseClass, usize, usize)>,
}

impl CaseBreakdown {
    /// Accuracy of a class, if present.
    pub fn accuracy(&self, case: CaseClass) -> Option<f64> {
        self.rows
            .iter()
            .find(|(c, _, _)| *c == case)
            .map(|(_, correct, total)| {
                if *total == 0 {
                    0.0
                } else {
                    *correct as f64 / *total as f64
                }
            })
    }
}

fn class_name(case: CaseClass) -> &'static str {
    match case {
        CaseClass::Clear => "clear",
        CaseClass::LexicalOnly => "lexical-only",
        CaseClass::Exotic => "exotic",
        CaseClass::Sarcasm => "sarcasm",
        CaseClass::Contrast => "contrast",
        CaseClass::NeutralPlain => "neutral-plain",
        CaseClass::NeutralDistractor => "neutral-distractor",
        CaseClass::CaseI => "case-i",
        CaseClass::CaseII => "case-ii",
        CaseClass::CaseIII => "case-iii",
    }
}

/// Breaks predictions down by gold case class.
pub fn case_breakdown(predictions: &[Prediction]) -> CaseBreakdown {
    let mut counts: BTreeMap<&'static str, (CaseClass, usize, usize)> = BTreeMap::new();
    for p in predictions {
        let entry = counts.entry(class_name(p.case)).or_insert((p.case, 0, 0));
        entry.2 += 1;
        if p.predicted == p.gold {
            entry.1 += 1;
        }
    }
    CaseBreakdown {
        rows: counts.into_values().collect(),
    }
}

/// Renders the breakdown as table rows (class, accuracy, n).
pub fn breakdown_rows(breakdown: &CaseBreakdown) -> Vec<Vec<String>> {
    breakdown
        .rows
        .iter()
        .map(|(case, correct, total)| {
            let acc = if *total == 0 {
                0.0
            } else {
                *correct as f64 / *total as f64
            };
            vec![
                class_name(*case).to_string(),
                crate::metrics::pct(acc),
                total.to_string(),
            ]
        })
        .collect()
}

/// The error-analysis report: the miner's accuracy per construction
/// class on the camera reviews, the breakdown behind Table 4.
pub(crate) fn diagnostics_report(scale: &ExperimentScale) -> Report {
    let corpus = camera_reviews(scale.seed, &scale.camera);
    let breakdown = case_breakdown(&run_sentiment_miner(&corpus));
    let mut out = render_table(
        "Sentiment miner accuracy per construction class (camera reviews)",
        &["class", "accuracy", "n"],
        &breakdown_rows(&breakdown),
    );
    outln!(
        out,
        "\nreading: sarcasm (gold-opposite surface) and exotic (no lexicon\n\
         words) are the systematic misses the paper attributes to\n\
         statistical/structural blind spots; neutral-distractor accuracy is\n\
         what separates the miner from the collocation baseline."
    );
    Report::without_json(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wf_types::Polarity;

    fn p(gold: Polarity, predicted: Polarity, case: CaseClass) -> Prediction {
        Prediction {
            gold,
            predicted,
            case,
        }
    }

    #[test]
    fn groups_by_class() {
        let preds = vec![
            p(Polarity::Positive, Polarity::Positive, CaseClass::Clear),
            p(Polarity::Positive, Polarity::Neutral, CaseClass::Clear),
            p(Polarity::Negative, Polarity::Positive, CaseClass::Sarcasm),
        ];
        let b = case_breakdown(&preds);
        assert_eq!(b.accuracy(CaseClass::Clear), Some(0.5));
        assert_eq!(b.accuracy(CaseClass::Sarcasm), Some(0.0));
        assert_eq!(b.accuracy(CaseClass::Exotic), None);
    }

    #[test]
    fn rendered_rows_are_complete() {
        let preds = vec![p(
            Polarity::Neutral,
            Polarity::Neutral,
            CaseClass::NeutralPlain,
        )];
        let rows = breakdown_rows(&case_breakdown(&preds));
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0], "neutral-plain");
        assert_eq!(rows[0][1], "100.0%");
        assert_eq!(rows[0][2], "1");
    }

    #[test]
    fn miner_diagnostics_match_expectations() {
        // full-system behaviour per class on the review corpus: clear and
        // contrast are strong, sarcasm is systematically wrong, exotic is
        // missed (predicted neutral on gold sentiment)
        use wf_corpus::ReviewConfig;
        let corpus = camera_reviews(
            20050405,
            &ReviewConfig {
                n_plus: 120,
                n_minus: 0,
                ..ReviewConfig::camera()
            },
        );
        let preds = run_sentiment_miner(&corpus);
        let b = case_breakdown(&preds);
        assert!(b.accuracy(CaseClass::Clear).unwrap() > 0.85);
        assert!(b.accuracy(CaseClass::Contrast).unwrap() > 0.8);
        assert!(b.accuracy(CaseClass::Sarcasm).unwrap() < 0.3);
        assert!(b.accuracy(CaseClass::Exotic).unwrap() < 0.3);
        assert!(b.accuracy(CaseClass::NeutralDistractor).unwrap() > 0.9);
    }
}
