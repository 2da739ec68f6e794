//! Evaluation metrics, following the paper's definitions.
//!
//! Predictions are 3-class (+/−/neutral) per (sentence, subject) mention.
//! Precision and recall score the sentiment-bearing predictions; accuracy
//! includes the neutral cases, "as ReviewSeer did".

use serde::Serialize;
use wf_corpus::CaseClass;
use wf_types::Polarity;

/// One scored prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prediction {
    pub gold: Polarity,
    pub predicted: Polarity,
    pub case: CaseClass,
}

/// Aggregate scores.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Scores {
    /// correct sentiment predictions / all sentiment predictions.
    pub precision: f64,
    /// correct sentiment predictions / all gold sentiment cases.
    pub recall: f64,
    /// exact 3-class agreement over all cases.
    pub accuracy: f64,
    pub total: usize,
    pub gold_sentiment: usize,
    pub predicted_sentiment: usize,
    pub correct_sentiment: usize,
}

/// Scores a prediction set.
pub fn score(predictions: &[Prediction]) -> Scores {
    let total = predictions.len();
    let mut gold_sentiment = 0usize;
    let mut predicted_sentiment = 0usize;
    let mut correct_sentiment = 0usize;
    let mut exact = 0usize;
    for p in predictions {
        if p.gold.is_sentiment() {
            gold_sentiment += 1;
        }
        if p.predicted.is_sentiment() {
            predicted_sentiment += 1;
        }
        if p.predicted.is_sentiment() && p.predicted == p.gold {
            correct_sentiment += 1;
        }
        if p.predicted == p.gold {
            exact += 1;
        }
    }
    Scores {
        precision: ratio(correct_sentiment, predicted_sentiment),
        recall: ratio(correct_sentiment, gold_sentiment),
        accuracy: ratio(exact, total),
        total,
        gold_sentiment,
        predicted_sentiment,
        correct_sentiment,
    }
}

/// Scores with the paper's I-class removal: "using only clearly positive
/// or negative sentences about the given subject".
pub fn score_without_i_class(predictions: &[Prediction]) -> Scores {
    let filtered: Vec<Prediction> = predictions
        .iter()
        .copied()
        .filter(|p| !p.case.is_i_class() && p.gold.is_sentiment())
        .collect();
    score(&filtered)
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(gold: Polarity, predicted: Polarity) -> Prediction {
        Prediction {
            gold,
            predicted,
            case: CaseClass::Clear,
        }
    }

    #[test]
    fn perfect_predictions() {
        let preds = vec![
            p(Polarity::Positive, Polarity::Positive),
            p(Polarity::Negative, Polarity::Negative),
            p(Polarity::Neutral, Polarity::Neutral),
        ];
        let s = score(&preds);
        assert_eq!(s.precision, 1.0);
        assert_eq!(s.recall, 1.0);
        assert_eq!(s.accuracy, 1.0);
    }

    #[test]
    fn false_positive_on_neutral_hurts_precision_not_recall() {
        let preds = vec![
            p(Polarity::Positive, Polarity::Positive),
            p(Polarity::Neutral, Polarity::Positive),
        ];
        let s = score(&preds);
        assert_eq!(s.precision, 0.5);
        assert_eq!(s.recall, 1.0);
        assert_eq!(s.accuracy, 0.5);
    }

    #[test]
    fn missed_sentiment_hurts_recall_not_precision() {
        let preds = vec![
            p(Polarity::Positive, Polarity::Positive),
            p(Polarity::Negative, Polarity::Neutral),
        ];
        let s = score(&preds);
        assert_eq!(s.precision, 1.0);
        assert_eq!(s.recall, 0.5);
    }

    #[test]
    fn wrong_sign_hurts_both() {
        let preds = vec![p(Polarity::Positive, Polarity::Negative)];
        let s = score(&preds);
        assert_eq!(s.precision, 0.0);
        assert_eq!(s.recall, 0.0);
        assert_eq!(s.accuracy, 0.0);
    }

    #[test]
    fn empty_prediction_set() {
        let s = score(&[]);
        assert_eq!(s.precision, 0.0);
        assert_eq!(s.recall, 0.0);
        assert_eq!(s.accuracy, 0.0);
        assert_eq!(s.total, 0);
    }

    #[test]
    fn i_class_removal_keeps_clear_sentiment_only() {
        let preds = vec![
            Prediction {
                gold: Polarity::Positive,
                predicted: Polarity::Positive,
                case: CaseClass::Clear,
            },
            Prediction {
                gold: Polarity::Negative,
                predicted: Polarity::Positive,
                case: CaseClass::CaseI,
            },
            Prediction {
                gold: Polarity::Neutral,
                predicted: Polarity::Positive,
                case: CaseClass::CaseIII,
            },
            Prediction {
                gold: Polarity::Neutral,
                predicted: Polarity::Positive,
                case: CaseClass::Clear,
            },
        ];
        let s = score_without_i_class(&preds);
        // only the first survives (clear + gold sentiment)
        assert_eq!(s.total, 1);
        assert_eq!(s.accuracy, 1.0);
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(pct(0.856), "85.6%");
        assert_eq!(pct(1.0), "100.0%");
    }
}
