//! Runners for the paper's tables (2–5).

use super::scale::ExperimentScale;
use crate::harness;
use crate::metrics::{score, score_without_i_class, Scores};
use serde::Serialize;
use wf_corpus::{camera_reviews, music_reviews, petroleum_news, petroleum_web, pharma_web, Corpus};
use wf_features::{FeatureExtractor, ScoredFeature, Selection, CHI2_99};
use wf_spotter::{Spotter, SubjectList};

/// Table 2: top feature terms per domain by bBNP + likelihood ratio.
#[derive(Debug, Clone)]
pub struct Table2Result {
    pub camera_top: Vec<ScoredFeature>,
    pub music_top: Vec<ScoredFeature>,
    /// Fraction of extracted terms that are genuine domain feature terms
    /// (the generator's vocabulary is the gold list), mirroring the
    /// paper's human-judged precision (97% / 100%).
    pub camera_precision: f64,
    pub music_precision: f64,
}

/// Runs Table 2.
pub fn table2(scale: &ExperimentScale) -> Table2Result {
    let fx = FeatureExtractor::new();
    let camera = camera_reviews(scale.seed, &scale.camera);
    let music = music_reviews(scale.seed + 1, &scale.music);
    let camera_top = fx.select(
        &camera.d_plus_texts(),
        &camera.d_minus_texts(),
        Selection::TopN(20),
    );
    let music_top = fx.select(
        &music.d_plus_texts(),
        &music.d_minus_texts(),
        Selection::TopN(20),
    );
    let camera_precision = vocabulary_precision(&camera_top, wf_corpus::vocab::CAMERA_FEATURES);
    let music_precision = vocabulary_precision(&music_top, wf_corpus::vocab::MUSIC_FEATURES);
    Table2Result {
        camera_top,
        music_top,
        camera_precision,
        music_precision,
    }
}

fn vocabulary_precision(extracted: &[ScoredFeature], gold: &[&str]) -> f64 {
    if extracted.is_empty() {
        return 0.0;
    }
    let good = extracted
        .iter()
        .filter(|f| gold.contains(&f.term.as_str()))
        .count();
    good as f64 / extracted.len() as f64
}

/// Table 3: product-name vs feature-term reference counts in camera D+.
#[derive(Debug, Clone)]
pub struct Table3Result {
    /// (product, reference count), descending; top rows of the table.
    pub products: Vec<(String, usize)>,
    pub product_total: usize,
    /// (feature, reference count), descending.
    pub features: Vec<(String, usize)>,
    pub feature_total: usize,
    /// Number of distinct feature terms counted (paper: 55).
    pub feature_count: usize,
}

impl Table3Result {
    /// features-to-products reference ratio (paper: ≈ 12.4×).
    pub fn ratio(&self) -> f64 {
        if self.product_total == 0 {
            0.0
        } else {
            self.feature_total as f64 / self.product_total as f64
        }
    }
}

/// Runs Table 3.
pub fn table3(scale: &ExperimentScale) -> Table3Result {
    let camera = camera_reviews(scale.seed, &scale.camera);
    // the paper selected 55 feature terms; our generator vocabulary is the
    // selected set
    let features: Vec<&str> = wf_corpus::vocab::CAMERA_FEATURES.to_vec();
    let products: Vec<&str> = wf_corpus::vocab::CAMERA_PRODUCTS.to_vec();
    let product_counts = count_references(&camera, &products);
    let feature_counts = count_references(&camera, &features);
    Table3Result {
        product_total: product_counts.iter().map(|(_, c)| c).sum(),
        feature_total: feature_counts.iter().map(|(_, c)| c).sum(),
        feature_count: features.len(),
        products: product_counts,
        features: feature_counts,
    }
}

fn count_references(corpus: &Corpus, terms: &[&str]) -> Vec<(String, usize)> {
    let mut builder = SubjectList::builder();
    for t in terms {
        // count singular and plural surface forms together, like the
        // spotter's synonym sets do in production
        builder = builder.subject(t, [t.to_string(), format!("{t}s")]);
    }
    let subjects = builder.build();
    let spotter = Spotter::new(&subjects);
    let mut counts: Vec<(String, usize)> = terms.iter().map(|t| (t.to_string(), 0)).collect();
    for doc in &corpus.d_plus {
        for spot in spotter.spot(&doc.text()) {
            counts[spot.synset.as_u32() as usize].1 += 1;
        }
    }
    counts.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    counts
}

/// Table 4: SM vs collocation vs ReviewSeer on the product review
/// datasets.
#[derive(Debug, Clone, Serialize)]
pub struct Table4Result {
    pub sm: Scores,
    pub collocation: Scores,
    /// ReviewSeer's document-level review classification accuracy.
    pub reviewseer_doc_accuracy: f64,
}

/// Runs Table 4 over the combined camera + music review corpora.
pub fn table4(scale: &ExperimentScale) -> Table4Result {
    let camera = camera_reviews(scale.seed, &scale.camera);
    let music = music_reviews(scale.seed + 1, &scale.music);

    let mut sm_preds = harness::run_sentiment_miner(&camera);
    sm_preds.extend(harness::run_sentiment_miner(&music));
    let mut colloc_preds = harness::run_collocation(&camera);
    colloc_preds.extend(harness::run_collocation(&music));

    let clf = harness::train_reviewseer(&[&camera, &music], scale.holdout);
    let acc_camera = harness::reviewseer_document_accuracy(&clf, &camera, scale.holdout);
    let acc_music = harness::reviewseer_document_accuracy(&clf, &music, scale.holdout);
    let n_camera = camera.d_plus.len() - harness::train_cut(camera.d_plus.len(), scale.holdout);
    let n_music = music.d_plus.len() - harness::train_cut(music.d_plus.len(), scale.holdout);
    let reviewseer_doc_accuracy = if n_camera + n_music == 0 {
        0.0
    } else {
        (acc_camera * n_camera as f64 + acc_music * n_music as f64) / (n_camera + n_music) as f64
    };

    Table4Result {
        sm: score(&sm_preds),
        collocation: score(&colloc_preds),
        reviewseer_doc_accuracy,
    }
}

/// One Table 5 row.
#[derive(Debug, Clone, Serialize)]
pub struct Table5Row {
    pub label: String,
    pub sm: Scores,
    pub reviewseer: Scores,
    pub reviewseer_without_i: Scores,
}

/// Table 5: SM and ReviewSeer on general web documents and news articles.
#[derive(Debug, Clone, Serialize)]
pub struct Table5Result {
    pub rows: Vec<Table5Row>,
}

/// Runs Table 5 (petroleum web, pharma web, petroleum news).
pub fn table5(scale: &ExperimentScale) -> Table5Result {
    // ReviewSeer trains on reviews, as in the paper
    let camera = camera_reviews(scale.seed, &scale.camera);
    let music = music_reviews(scale.seed + 1, &scale.music);
    let clf = harness::train_reviewseer(&[&camera, &music], scale.holdout);

    let domains: Vec<(String, Corpus)> = vec![
        (
            "Petroleum, Web".to_string(),
            petroleum_web(scale.seed + 2, &scale.web),
        ),
        (
            "Pharmaceutical, Web".to_string(),
            pharma_web(scale.seed + 3, &scale.web),
        ),
        (
            "Petroleum, News".to_string(),
            petroleum_news(scale.seed + 4, &scale.web),
        ),
    ];
    let rows = domains
        .into_iter()
        .map(|(label, corpus)| {
            let sm = score(&harness::run_sentiment_miner(&corpus));
            let rs_preds = harness::run_reviewseer_sentences(&clf, &corpus);
            Table5Row {
                label,
                sm,
                reviewseer: score(&rs_preds),
                reviewseer_without_i: score_without_i_class(&rs_preds),
            }
        })
        .collect();
    Table5Result { rows }
}

/// Confidence-threshold feature selection used in ablations.
pub fn table2_confidence(scale: &ExperimentScale) -> Vec<ScoredFeature> {
    let fx = FeatureExtractor::new();
    let camera = camera_reviews(scale.seed, &scale.camera);
    fx.select(
        &camera.d_plus_texts(),
        &camera.d_minus_texts(),
        Selection::Confidence(CHI2_99),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ExperimentScale {
        ExperimentScale::quick()
    }

    #[test]
    fn table2_extracts_domain_features() {
        let r = table2(&quick());
        assert!(!r.camera_top.is_empty());
        assert!(!r.music_top.is_empty());
        let camera_terms: Vec<&str> = r.camera_top.iter().map(|f| f.term.as_str()).collect();
        assert!(camera_terms.contains(&"camera"), "{camera_terms:?}");
        assert!(r.camera_precision > 0.9, "{}", r.camera_precision);
        assert!(r.music_precision > 0.9, "{}", r.music_precision);
    }

    #[test]
    fn table3_feature_dominance() {
        let r = table3(&quick());
        assert!(r.ratio() > 4.0, "ratio {}", r.ratio());
        assert_eq!(r.features[0].0, "camera");
        assert!(r.product_total > 0);
    }

    #[test]
    fn table4_shape_holds_at_quick_scale() {
        let r = table4(&quick());
        assert!(
            r.sm.precision > 2.0 * r.collocation.precision,
            "SM {} vs colloc {}",
            r.sm.precision,
            r.collocation.precision
        );
        assert!(
            r.collocation.recall > r.sm.recall,
            "colloc recall {} vs SM {}",
            r.collocation.recall,
            r.sm.recall
        );
        // only ~25 held-out documents at quick scale — keep the bound loose
        assert!(r.reviewseer_doc_accuracy > 0.65);
        assert!(r.sm.accuracy > 0.7);
    }

    #[test]
    fn table5_shape_holds_at_quick_scale() {
        let r = table5(&quick());
        assert_eq!(r.rows.len(), 3);
        for row in &r.rows {
            assert!(
                row.sm.accuracy > row.reviewseer.accuracy + 0.2,
                "{}: SM {} vs RS {}",
                row.label,
                row.sm.accuracy,
                row.reviewseer.accuracy
            );
            assert!(
                row.reviewseer_without_i.accuracy > row.reviewseer.accuracy,
                "{}: I-class removal must help ReviewSeer",
                row.label
            );
        }
    }
}
