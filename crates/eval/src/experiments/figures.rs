//! Runners for the paper's figures (1–5).

use super::scale::ExperimentScale;
use super::Report;
use crate::report::{render_bar_chart, render_table};
use std::time::Instant;
use wf_corpus::{camera_reviews, pharma_web, GeneratedDoc};
use wf_platform::{Cluster, ClusterReport, Ingestor, MinerPipeline, RawDocument, SourceKind};
use wf_sentiment::{
    form_context, mention_polarities, AdhocSentimentMiner, ContextWindowRule, SentimentEntityMiner,
    SentimentMiner, SentimentQueryService, SpotterMiner, SubjectList,
};
use wf_types::Polarity;

/// Figure 1: the platform dataflow — ingest → mine → index → query — with
/// throughput and balance statistics on the simulated cluster.
#[derive(Debug, Clone)]
pub struct Fig1Result {
    pub report: ClusterReport,
    pub ingested_docs: usize,
    pub ingested_bytes: usize,
    pub ingest_secs: f64,
    pub mining_secs: f64,
    pub indexing_secs: f64,
}

/// Runs Figure 1 on the camera corpus.
pub fn fig1(scale: &ExperimentScale) -> Fig1Result {
    let corpus = camera_reviews(scale.seed, &scale.camera);
    let cluster = Cluster::new(scale.cluster_nodes).expect("nonzero cluster");
    let t0 = Instant::now();
    let (docs, bytes) = {
        let mut ing = Ingestor::new(cluster.store());
        for (i, doc) in corpus.d_plus.iter().enumerate() {
            ing.ingest(
                RawDocument::new(format!("web://review/{i}"), SourceKind::Web, doc.text())
                    .with_metadata("domain", doc.domain.as_str()),
            );
        }
        (ing.stats().documents, ing.stats().bytes)
    };
    let ingest_secs = t0.elapsed().as_secs_f64();

    let subjects = camera_subjects();
    let t1 = Instant::now();
    let pipeline = MinerPipeline::new()
        .add(Box::new(SpotterMiner::new(subjects.clone())))
        .add(Box::new(SentimentEntityMiner::new(subjects)));
    cluster.run_pipeline(&pipeline);
    let mining_secs = t1.elapsed().as_secs_f64();

    let t2 = Instant::now();
    cluster.rebuild_index();
    let indexing_secs = t2.elapsed().as_secs_f64();

    Fig1Result {
        report: cluster.report(),
        ingested_docs: docs,
        ingested_bytes: bytes,
        ingest_secs,
        mining_secs,
        indexing_secs,
    }
}

/// Figure 1's report: stage throughput and the per-node entity balance.
/// The stage times are wall-clock, so they vary from run to run.
pub(crate) fn fig1_report(scale: &ExperimentScale) -> Report {
    let r = fig1(scale);
    let (docs, cluster) = (r.ingested_docs, &r.report);
    let per_sec = |secs: f64| docs as f64 / secs.max(1e-9);
    let mut out = String::new();
    outln!(
        out,
        "Figure 1. WebFountain platform dataflow (simulated cluster)\n"
    );
    outln!(
        out,
        "ingest:   {docs} docs, {} bytes in {:.3}s ({:.0} docs/s)",
        r.ingested_bytes,
        r.ingest_secs,
        per_sec(r.ingest_secs)
    );
    outln!(
        out,
        "mining:   spotter + sentiment miner over {} nodes in {:.3}s ({:.0} docs/s)",
        cluster.nodes,
        r.mining_secs,
        per_sec(r.mining_secs)
    );
    outln!(
        out,
        "indexing: {} docs, {} terms, {} concepts in {:.3}s\n",
        cluster.indexed_docs,
        cluster.distinct_terms,
        cluster.distinct_concepts,
        r.indexing_secs
    );
    let rows: Vec<Vec<String>> = cluster
        .per_node_entities
        .iter()
        .enumerate()
        .map(|(i, n)| vec![format!("node:{i}"), n.to_string()])
        .collect();
    out += &render_table("Per-node entity balance", &["Node", "Entities"], &rows);
    outln!(out);
    let json = serde_json::json!({
        "docs": docs, "nodes": cluster.nodes, "concepts": cluster.distinct_concepts,
    });
    Report::with_json(out, "fig1", json)
}

fn camera_subjects() -> SubjectList {
    let mut b = SubjectList::builder();
    for p in wf_corpus::vocab::CAMERA_PRODUCTS {
        b = b.subject(p, [p.to_string()]);
    }
    b.build()
}

/// Figure 2 (inset chart): digital camera customer satisfaction — % of a
/// product's pages with positive sentiment for each tracked feature.
#[derive(Debug, Clone)]
pub struct Fig2Result {
    /// Tracked features (chart series).
    pub features: Vec<String>,
    /// (product, per-feature positive-page percentage).
    pub products: Vec<(String, Vec<f64>)>,
}

/// Runs Figure 2: the paper's chart tracks picture quality, battery and
/// flash across products.
pub fn fig2(scale: &ExperimentScale) -> Fig2Result {
    let corpus = camera_reviews(scale.seed, &scale.camera);
    let features = vec![
        "picture quality".to_string(),
        "battery".to_string(),
        "flash".to_string(),
    ];
    let mut fsubjects = SubjectList::builder();
    for f in &features {
        fsubjects = fsubjects.subject(f, [f.clone()]);
    }
    let fsubjects = fsubjects.build();
    let spotter = wf_spotter::Spotter::new(&fsubjects);
    let miner = SentimentMiner::with_default_resources();

    // page → (product, per-feature positive flags)
    let mut stats: std::collections::BTreeMap<String, (usize, Vec<usize>)> =
        std::collections::BTreeMap::new();
    for doc in &corpus.d_plus {
        let Some(product) = page_product(doc) else {
            continue;
        };
        let records = miner.analyze_with_spotter(&doc.text(), &fsubjects, &spotter);
        let mentions = mention_polarities(&records);
        let entry = stats
            .entry(product)
            .or_insert_with(|| (0, vec![0; features.len()]));
        entry.0 += 1;
        for (i, feature) in features.iter().enumerate() {
            if mentions
                .iter()
                .any(|(s, _, p)| s == feature && *p == Polarity::Positive)
            {
                entry.1[i] += 1;
            }
        }
    }
    let mut products: Vec<(String, Vec<f64>)> = stats
        .into_iter()
        .filter(|(_, (pages, _))| *pages >= 3)
        .map(|(product, (pages, positives))| {
            let pct: Vec<f64> = positives
                .iter()
                .map(|&p| 100.0 * p as f64 / pages as f64)
                .collect();
            (product, pct)
        })
        .collect();
    products.sort_by(|a, b| a.0.cmp(&b.0));
    Fig2Result { features, products }
}

/// Figure 2's report: one text bar chart per tracked feature.
pub(crate) fn fig2_report(scale: &ExperimentScale) -> Report {
    let r = fig2(scale);
    let mut out = String::new();
    outln!(
        out,
        "Figure 2 (inset). Digital Camera Customer Satisfaction"
    );
    outln!(out, "% of pages with positive sentiment\n");
    for (fi, feature) in r.features.iter().enumerate() {
        let series: Vec<(String, f64)> = r
            .products
            .iter()
            .map(|(p, pcts)| (p.clone(), pcts[fi]))
            .collect();
        out += &render_bar_chart(&format!("[{feature}]"), &series, 40);
        outln!(out);
    }
    let json = serde_json::json!({"products": r.products.len(), "features": r.features});
    Report::with_json(out, "fig2", json)
}

/// The product a review page is about: its most-mentioned subject.
fn page_product(doc: &GeneratedDoc) -> Option<String> {
    let mut counts: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    for m in &doc.mentions {
        *counts.entry(m.subject.as_str()).or_insert(0) += 1;
    }
    counts
        .into_iter()
        .max_by_key(|&(_, c)| c)
        .map(|(s, _)| s.to_string())
}

/// Figure 3: mode B — offline ad-hoc sentiment indexing, then real-time
/// subject queries, each timed against running the analysis at query
/// time instead (the paper's case for indexing offline).
#[derive(Debug, Clone)]
pub struct Fig3Result {
    pub indexed_docs: usize,
    pub offline_secs: f64,
    pub queries: Vec<Fig3Query>,
}

/// One subject's positive and negative sentiment queries in Figure 3.
#[derive(Debug, Clone)]
pub struct Fig3Query {
    pub subject: String,
    /// Positive hits from the sentiment index.
    pub positive: usize,
    /// Negative hits from the sentiment index.
    pub negative: usize,
    /// Both queries against the index, in seconds.
    pub indexed_secs: f64,
    /// Both queries by run-time analysis of every stored page, in seconds.
    pub runtime_secs: f64,
}

/// Runs Figure 3 on the pharmaceutical web corpus.
pub fn fig3(scale: &ExperimentScale) -> Fig3Result {
    let corpus = pharma_web(scale.seed + 3, &scale.web);
    let cluster = Cluster::new(scale.cluster_nodes).expect("nonzero cluster");
    {
        let mut ing = Ingestor::new(cluster.store());
        for (i, doc) in corpus.d_plus.iter().enumerate() {
            ing.ingest(RawDocument::new(
                format!("web://pharma/{i}"),
                SourceKind::Web,
                doc.text(),
            ));
        }
    }
    let t0 = Instant::now();
    let pipeline = MinerPipeline::new().add(Box::new(AdhocSentimentMiner::new()));
    cluster.run_pipeline(&pipeline);
    cluster.rebuild_index();
    let offline_secs = t0.elapsed().as_secs_f64();

    let polarities = [Polarity::Positive, Polarity::Negative];
    let queries = wf_corpus::vocab::PHARMA_PRODUCTS
        .iter()
        .take(4)
        .map(|subject| {
            let t = Instant::now();
            let [positive, negative] = polarities.map(|p| {
                SentimentQueryService::query(cluster.indexer(), cluster.store(), subject, Some(p))
                    .map(|h| h.len())
                    .unwrap_or(0)
            });
            let indexed_secs = t.elapsed().as_secs_f64();
            let t = Instant::now();
            for p in polarities {
                SentimentQueryService::query_runtime(cluster.store(), subject, Some(p))
                    .expect("run-time analysis never fails");
            }
            Fig3Query {
                subject: subject.to_string(),
                positive,
                negative,
                indexed_secs,
                runtime_secs: t.elapsed().as_secs_f64(),
            }
        })
        .collect();

    Fig3Result {
        indexed_docs: cluster.indexer().doc_count(),
        offline_secs,
        queries,
    }
}

/// Figure 3's report: each subject's hits and both query paths' times.
/// The times are wall-clock, so they vary from run to run.
pub(crate) fn fig3_report(scale: &ExperimentScale) -> Report {
    let r = fig3(scale);
    let mut out = String::new();
    outln!(
        out,
        "Figure 3. Sentiment mining without a predefined subject list\n"
    );
    outln!(
        out,
        "offline pass: {} docs analyzed and indexed in {:.3}s\n",
        r.indexed_docs,
        r.offline_secs
    );
    let rows: Vec<Vec<String>> = r
        .queries
        .iter()
        .map(|q| {
            vec![
                q.subject.clone(),
                q.positive.to_string(),
                q.negative.to_string(),
                format!("{:.1}", q.indexed_secs * 1e6),
                format!("{:.1}", q.runtime_secs * 1e6),
                format!("{:.0}x", q.runtime_secs / q.indexed_secs),
            ]
        })
        .collect();
    out += &render_table(
        "Real-time sentiment queries: the index vs run-time analysis (+ and - query each)",
        &[
            "Subject",
            "+ hits",
            "- hits",
            "indexed (us)",
            "run-time (us)",
            "ratio",
        ],
        &rows,
    );
    outln!(out);
    let json = r.queries.iter().map(|q| {
        serde_json::json!({
            "subject": q.subject, "positive": q.positive, "negative": q.negative,
            "latency_us": q.indexed_secs * 1e6, "runtime_latency_us": q.runtime_secs * 1e6,
        })
    });
    Report::with_json(out, "fig3", serde_json::Value::Array(json.collect()))
}

/// Figure 4: the GUI's product × sentiment matrix, with product names
/// masked ("Product A", "Product B", ...) as the paper does.
#[derive(Debug, Clone)]
pub struct Fig4Result {
    /// (masked name, positive mentions, negative mentions, neutral).
    pub rows: Vec<(String, usize, usize, usize)>,
}

/// Runs Figure 4 on the pharmaceutical web corpus.
pub fn fig4(scale: &ExperimentScale) -> Fig4Result {
    let corpus = pharma_web(scale.seed + 3, &scale.web);
    let subjects = pharma_subjects();
    let spotter = wf_spotter::Spotter::new(&subjects);
    let miner = SentimentMiner::with_default_resources();
    let mut counts: std::collections::BTreeMap<String, (usize, usize, usize)> =
        std::collections::BTreeMap::new();
    for doc in &corpus.d_plus {
        let records = miner.analyze_with_spotter(&doc.text(), &subjects, &spotter);
        for (subject, _, polarity) in mention_polarities(&records) {
            let c = counts.entry(subject).or_insert((0, 0, 0));
            match polarity {
                Polarity::Positive => c.0 += 1,
                Polarity::Negative => c.1 += 1,
                Polarity::Neutral => c.2 += 1,
            }
        }
    }
    let rows = counts
        .into_iter()
        .enumerate()
        .map(|(i, (_, (pos, neg, neu)))| {
            let masked = format!("Product {}", (b'A' + (i as u8 % 26)) as char);
            (masked, pos, neg, neu)
        })
        .collect();
    Fig4Result { rows }
}

/// Figure 4's report: the masked product × polarity matrix.
pub(crate) fn fig4_report(scale: &ExperimentScale) -> Report {
    let r = fig4(scale);
    let rows: Vec<Vec<String>> = r
        .rows
        .iter()
        .map(|(name, pos, neg, neu)| {
            vec![
                name.clone(),
                pos.to_string(),
                neg.to_string(),
                neu.to_string(),
            ]
        })
        .collect();
    let out = render_table(
        "Figure 4. Sentiment mining result matrix (pharmaceutical web, names masked)",
        &["Product", "positive", "negative", "neutral"],
        &rows,
    ) + "\n";
    Report::with_json(out, "fig4_rows", serde_json::json!(r.rows.len()))
}

fn pharma_subjects() -> SubjectList {
    let mut b = SubjectList::builder();
    for p in wf_corpus::vocab::PHARMA_PRODUCTS {
        b = b.subject(p, [p.to_string()]);
    }
    b.build()
}

/// Figure 5: sentiment-bearing sentences for a given product, with the
/// subject spot marked by XML tags (the Web interface listing).
#[derive(Debug, Clone)]
pub struct Fig5Result {
    pub subject: String,
    /// (polarity, marked sentence).
    pub sentences: Vec<(Polarity, String)>,
}

/// Runs Figure 5 for the first pharmaceutical product.
pub fn fig5(scale: &ExperimentScale) -> Fig5Result {
    let corpus = pharma_web(scale.seed + 3, &scale.web);
    let subject = wf_corpus::vocab::PHARMA_PRODUCTS[0].to_string();
    let subjects = SubjectList::builder()
        .subject(&subject, [subject.clone()])
        .build();
    let spotter = wf_spotter::Spotter::new(&subjects);
    let miner = SentimentMiner::with_default_resources();
    let mut sentences = Vec::new();
    for doc in &corpus.d_plus {
        let text = doc.text();
        let records = miner.analyze_with_spotter(&text, &subjects, &spotter);
        for record in records {
            if !record.is_sentiment() {
                continue;
            }
            let ctx = form_context(
                &text,
                &[record.sentence_span],
                record.spot_span,
                ContextWindowRule::default(),
            );
            if let Some(ctx) = ctx {
                sentences.push((record.polarity, ctx.marked_text));
            }
        }
    }
    Fig5Result { subject, sentences }
}

/// Figure 5's report: the first 20 marked sentences, under a header that
/// gives how many there are in all.
pub(crate) fn fig5_report(scale: &ExperimentScale) -> Report {
    let r = fig5(scale);
    let (total, shown) = (r.sentences.len(), r.sentences.len().min(20));
    let mut out = String::new();
    outln!(
        out,
        "Figure 5. Sentiment-bearing sentences for {} ({shown} of {total} shown)\n",
        r.subject
    );
    for (polarity, text) in r.sentences.iter().take(20) {
        outln!(out, "[{polarity}] {text}");
    }
    Report::with_json(out, "fig5_sentences", serde_json::json!(total))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ExperimentScale {
        ExperimentScale::quick()
    }

    #[test]
    fn fig1_pipeline_end_to_end() {
        let r = fig1(&quick());
        assert_eq!(r.ingested_docs, quick().camera.n_plus);
        assert_eq!(r.report.entities, r.ingested_docs);
        assert_eq!(r.report.indexed_docs, r.ingested_docs);
        assert!(r.report.distinct_concepts > 0, "miners must annotate");
        assert_eq!(r.report.nodes, quick().cluster_nodes);
    }

    #[test]
    fn fig2_produces_percentages() {
        let r = fig2(&quick());
        assert_eq!(r.features.len(), 3);
        assert!(!r.products.is_empty());
        for (_, pcts) in &r.products {
            for &p in pcts {
                assert!((0.0..=100.0).contains(&p));
            }
        }
    }

    #[test]
    fn fig3_queries_return_hits() {
        let r = fig3(&quick());
        assert!(r.indexed_docs > 0);
        let total_hits: usize = r.queries.iter().map(|q| q.positive + q.negative).sum();
        assert!(total_hits > 0, "sentiment index must serve hits");
    }

    #[test]
    fn fig4_masks_product_names() {
        let r = fig4(&quick());
        assert!(!r.rows.is_empty());
        for (name, _, _, _) in &r.rows {
            assert!(name.starts_with("Product "), "{name}");
        }
    }

    #[test]
    fn fig5_lists_marked_sentences() {
        let r = fig5(&quick());
        assert!(!r.sentences.is_empty());
        for (pol, text) in &r.sentences {
            assert!(pol.is_sentiment());
            assert!(text.contains("<subject>"), "{text}");
        }
    }
}
