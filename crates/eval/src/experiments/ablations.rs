//! Ablation experiments: quantify the contribution of each relationship
//! rule of the sentiment analyzer, and compare the feature-extraction
//! design choices (candidate heuristic × selection rule) the paper's
//! companion work evaluated.

use super::scale::ExperimentScale;
use super::Report;
use crate::harness;
use crate::metrics::{pct, score, Scores};
use crate::report::render_table;
use wf_corpus::{camera_reviews, music_reviews};
use wf_features::{CandidateHeuristic, FeatureExtractor, SelectionMetric};
use wf_sentiment::AnalyzerConfig;

/// One analyzer ablation row.
#[derive(Debug, Clone)]
pub struct AblationRow {
    pub label: String,
    pub scores: Scores,
}

/// Result of the rule-ablation study.
#[derive(Debug, Clone)]
pub struct AblationResult {
    pub rows: Vec<AblationRow>,
}

/// Runs the sentiment miner on the review corpora with each relationship
/// rule disabled in turn (plus the full system and a patterns-only
/// variant).
pub fn analyzer_ablations(scale: &ExperimentScale) -> AblationResult {
    let camera = camera_reviews(scale.seed, &scale.camera);
    let music = music_reviews(scale.seed + 1, &scale.music);
    let variants: Vec<(&str, AnalyzerConfig)> = vec![
        ("full system", AnalyzerConfig::default()),
        (
            "- negation",
            AnalyzerConfig {
                negation: false,
                ..AnalyzerConfig::default()
            },
        ),
        (
            "- contrast",
            AnalyzerConfig {
                contrast: false,
                ..AnalyzerConfig::default()
            },
        ),
        (
            "- attributive",
            AnalyzerConfig {
                attributive: false,
                ..AnalyzerConfig::default()
            },
        ),
        (
            "- existential",
            AnalyzerConfig {
                existential: false,
                ..AnalyzerConfig::default()
            },
        ),
        (
            "patterns only",
            AnalyzerConfig {
                negation: true,
                contrast: false,
                attributive: false,
                existential: false,
            },
        ),
    ];
    let rows = variants
        .into_iter()
        .map(|(label, config)| {
            let mut preds = harness::run_sentiment_miner_with(&camera, config);
            preds.extend(harness::run_sentiment_miner_with(&music, config));
            AblationRow {
                label: label.to_string(),
                scores: score(&preds),
            }
        })
        .collect();
    AblationResult { rows }
}

/// One feature-extraction design-point row.
#[derive(Debug, Clone)]
pub struct FeatureAblationRow {
    pub heuristic: CandidateHeuristic,
    pub metric: SelectionMetric,
    /// Top-20 precision against the gold feature vocabulary.
    pub precision_at_20: f64,
    /// Candidate vocabulary size.
    pub candidates: usize,
}

/// Compares the feature-extraction design space on the camera corpus:
/// {BNP, dBNP, bBNP} × {frequency, likelihood ratio}. The paper's
/// companion work found bBNP + likelihood ratio ("bBNP-L") the best.
pub fn feature_extraction_ablations(scale: &ExperimentScale) -> Vec<FeatureAblationRow> {
    let camera = camera_reviews(scale.seed, &scale.camera);
    let d_plus = camera.d_plus_texts();
    let d_minus = camera.d_minus_texts();
    let fx = FeatureExtractor::new();
    let mut rows = Vec::new();
    for heuristic in [
        CandidateHeuristic::BNP,
        CandidateHeuristic::DBNP,
        CandidateHeuristic::BBNP,
    ] {
        for metric in [SelectionMetric::Frequency, SelectionMetric::LikelihoodRatio] {
            let ranked = fx.rank_with(&d_plus, &d_minus, heuristic, metric);
            let top20: Vec<&str> = ranked.iter().take(20).map(|f| f.term.as_str()).collect();
            let good = top20
                .iter()
                .filter(|t| wf_corpus::vocab::CAMERA_FEATURES.contains(t))
                .count();
            rows.push(FeatureAblationRow {
                heuristic,
                metric,
                precision_at_20: if top20.is_empty() {
                    0.0
                } else {
                    good as f64 / top20.len() as f64
                },
                candidates: ranked.len(),
            });
        }
    }
    rows
}

/// The ablations' report: the analyzer rule table, then the
/// feature-extraction design-space table.
pub(crate) fn ablations_report(scale: &ExperimentScale) -> Report {
    let rows: Vec<Vec<String>> = analyzer_ablations(scale)
        .rows
        .iter()
        .map(|row| {
            let s = &row.scores;
            vec![
                row.label.clone(),
                pct(s.precision),
                pct(s.recall),
                pct(s.accuracy),
            ]
        })
        .collect();
    let mut out = render_table(
        "Ablation: relationship-analysis rules (product review datasets)",
        &["Variant", "Precision", "Recall", "Accuracy"],
        &rows,
    );
    let fx_rows: Vec<Vec<String>> = feature_extraction_ablations(scale)
        .iter()
        .map(|r| {
            vec![
                r.heuristic.as_str().to_string(),
                format!("{:?}", r.metric),
                pct(r.precision_at_20),
                r.candidates.to_string(),
            ]
        })
        .collect();
    outln!(out);
    out += &render_table(
        "Ablation: feature extraction design space (camera corpus)",
        &["Heuristic", "Metric", "P@20", "Candidates"],
        &fx_rows,
    );
    outln!(out);
    Report::without_json(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::ExperimentScale;

    fn find<'a>(r: &'a AblationResult, label: &str) -> &'a Scores {
        &r.rows.iter().find(|row| row.label == label).unwrap().scores
    }

    #[test]
    fn each_rule_contributes() {
        let r = analyzer_ablations(&ExperimentScale::quick());
        let full = find(&r, "full system");
        // disabling negation must hurt precision (wrong signs on negated
        // clauses)
        let no_neg = find(&r, "- negation");
        assert!(
            no_neg.precision < full.precision,
            "negation: {} vs {}",
            no_neg.precision,
            full.precision
        );
        // disabling contrast must hurt recall (contrast mentions missed)
        let no_contrast = find(&r, "- contrast");
        assert!(
            no_contrast.recall < full.recall,
            "contrast: {} vs {}",
            no_contrast.recall,
            full.recall
        );
        // the stripped-down variant cannot beat the full system on recall
        let patterns_only = find(&r, "patterns only");
        assert!(patterns_only.recall <= full.recall);
    }

    #[test]
    fn bbnp_l_is_the_best_design_point() {
        let rows = feature_extraction_ablations(&ExperimentScale::quick());
        assert_eq!(rows.len(), 6);
        let best = rows
            .iter()
            .max_by(|a, b| a.precision_at_20.partial_cmp(&b.precision_at_20).unwrap())
            .unwrap();
        assert_eq!(best.heuristic, CandidateHeuristic::BBNP);
        assert_eq!(best.metric, SelectionMetric::LikelihoodRatio);
        // looser heuristics admit more candidates
        let bnp = rows
            .iter()
            .find(|r| r.heuristic == CandidateHeuristic::BNP)
            .unwrap();
        let bbnp = rows
            .iter()
            .find(|r| r.heuristic == CandidateHeuristic::BBNP)
            .unwrap();
        assert!(bnp.candidates >= bbnp.candidates);
    }

    #[test]
    fn all_variants_score_validly() {
        let r = analyzer_ablations(&ExperimentScale::quick());
        assert_eq!(r.rows.len(), 6);
        for row in &r.rows {
            assert!(row.scores.total > 0);
            assert!((0.0..=1.0).contains(&row.scores.precision));
            assert!((0.0..=1.0).contains(&row.scores.accuracy));
        }
    }
}
