//! Runners for the paper's tables (2–5).

use super::scale::ExperimentScale;
use super::Report;
use crate::harness;
use crate::metrics::{pct, score, score_without_i_class, Scores};
use crate::report::render_table;
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

/// Table 2's report: the top 20 feature terms of both domains and the
/// extraction precision (paper: 97% camera, 100% music).
pub(crate) fn table2_report(scale: &ExperimentScale) -> Report {
    let r = table2(scale);
    let terms = |top: &[ScoredFeature]| top.iter().map(|f| f.term.clone()).collect::<Vec<_>>();
    let (camera, music) = (terms(&r.camera_top), terms(&r.music_top));
    let rows: Vec<Vec<String>> = (0..20)
        .map(|i| {
            let term = |list: &[String]| list.get(i).cloned().unwrap_or_default();
            vec![(i + 1).to_string(), term(&camera), term(&music)]
        })
        .collect();
    let mut out = render_table(
        "Table 2. Top 20 feature terms extracted by bBNP-L (rank order)",
        &["#", "Digital Camera", "Music Albums"],
        &rows,
    );
    outln!(
        out,
        "\nfeature extraction precision: camera {} (paper 97%), music {} (paper 100%)",
        pct(r.camera_precision),
        pct(r.music_precision)
    );
    let json = serde_json::json!({
        "camera_precision": r.camera_precision,
        "music_precision": r.music_precision,
        "camera_top": camera,
        "music_top": music,
    });
    Report::with_json(out, "table2", json)
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

/// Table 3's report: the seven most-referenced products and features,
/// the totals, and the ratio (paper: features referenced ≈13× more).
pub(crate) fn table3_report(scale: &ExperimentScale) -> Report {
    let r = table3(scale);
    let mut rows: Vec<Vec<String>> = (0..7)
        .map(|i| {
            let (product, feature) = (r.products.get(i), r.features.get(i));
            let name = |c: Option<&(String, usize)>| c.map(|(n, _)| n.clone()).unwrap_or_default();
            let refs =
                |c: Option<&(String, usize)>| c.map(|(_, n)| n.to_string()).unwrap_or_default();
            vec![name(product), refs(product), name(feature), refs(feature)]
        })
        .collect();
    rows.push(vec![
        format!("{} Products", r.products.len()),
        r.product_total.to_string(),
        format!("{} Features", r.feature_count),
        r.feature_total.to_string(),
    ]);
    let mut out = render_table(
        "Table 3. Product name vs feature term references (digital camera D+)",
        &["Product", "# refs", "Feature", "# refs"],
        &rows,
    );
    outln!(
        out,
        "\nfeature/product reference ratio: {:.1}x (paper: 12.4x)",
        r.ratio()
    );
    let json = serde_json::json!({
        "product_total": r.product_total,
        "feature_total": r.feature_total,
        "ratio": r.ratio(),
    });
    Report::with_json(out, "table3", json)
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

/// Table 4's report: each system's measured row beside the paper's
/// (paper: SM 87 P / 56 R / 85.6 A; collocation 18 P / 70 R; ReviewSeer
/// 88.4 A at document level).
pub(crate) fn table4_report(scale: &ExperimentScale) -> Report {
    let r = table4(scale);
    let (sm, colloc) = (&r.sm, &r.collocation);
    let na = || "N/A".to_string();
    let rows = vec![
        vec![
            "SM (measured)".into(),
            pct(sm.precision),
            pct(sm.recall),
            pct(sm.accuracy),
        ],
        text_row(["SM (paper)", "87%", "56%", "85.6%"]),
        vec![
            "Collocation (measured)".into(),
            pct(colloc.precision),
            pct(colloc.recall),
            na(),
        ],
        text_row(["Collocation (paper)", "18%", "70%", "N/A"]),
        vec![
            "ReviewSeer (measured)".into(),
            na(),
            na(),
            pct(r.reviewseer_doc_accuracy),
        ],
        text_row(["ReviewSeer (paper)", "N/A", "N/A", "88.4%"]),
    ];
    let mut out = render_table(
        "Table 4. Performance comparison on the product review datasets",
        &["Algorithm", "Precision", "Recall", "Accuracy"],
        &rows,
    );
    outln!(
        out,
        "\n(mentions evaluated: {}, gold sentiment cases: {})",
        sm.total,
        sm.gold_sentiment
    );
    let json = serde_json::json!({
        "sm": {"precision": sm.precision, "recall": sm.recall, "accuracy": sm.accuracy},
        "collocation": {"precision": colloc.precision, "recall": colloc.recall},
        "reviewseer_doc_accuracy": r.reviewseer_doc_accuracy,
    });
    Report::with_json(out, "table4", json)
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

/// Table 5's report: SM per domain and ReviewSeer on the web row, beside
/// the paper's ranges (paper: SM 86–91 P / 90–93 A; ReviewSeer 38 A, 68 A
/// without the I class).
pub(crate) fn table5_report(scale: &ExperimentScale) -> Report {
    let r = table5(scale);
    let na = || "N/A".to_string();
    let mut rows: Vec<Vec<String>> = r
        .rows
        .iter()
        .map(|row| {
            let label = format!("SM ({})", row.label);
            vec![label, pct(row.sm.precision), pct(row.sm.accuracy), na()]
        })
        .collect();
    // ReviewSeer row: the paper reports one web-document number
    if let Some(web) = r.rows.first() {
        rows.push(vec![
            "ReviewSeer (Web, measured)".into(),
            na(),
            pct(web.reviewseer.accuracy),
            pct(web.reviewseer_without_i.accuracy),
        ]);
    }
    rows.push(text_row(["SM (paper)", "86-91%", "90-93%", "N/A"]));
    rows.push(text_row(["ReviewSeer (paper)", "N/A", "38%", "68%"]));
    let out = render_table(
        "Table 5. General web documents and news articles",
        &[
            "System (domain)",
            "Precision",
            "Accuracy",
            "Acc. w/o I class",
        ],
        &rows,
    ) + "\n";
    let json = r.rows.iter().map(|row| {
        serde_json::json!({
            "domain": row.label,
            "sm_precision": row.sm.precision,
            "sm_accuracy": row.sm.accuracy,
            "reviewseer_accuracy": row.reviewseer.accuracy,
            "reviewseer_accuracy_without_i": row.reviewseer_without_i.accuracy,
        })
    });
    Report::with_json(out, "table5", serde_json::Value::Array(json.collect()))
}

/// A report table row of fixed cells.
fn text_row(cells: [&str; 4]) -> Vec<String> {
    cells.map(String::from).to_vec()
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
