//! NLP hot-path benchmark: the zero-copy batched pipeline vs the frozen
//! naive (seed) path over a seeded review corpus, plus compressed-postings
//! AND pruning vs the naive exhaustive index. Exports
//! `artifacts/BENCH_nlp.json`.
//!
//! The deterministic keys (doc/sentence/token/entity counts, postings
//! scanned, compressed bytes) are regression sentinels for
//! `tools/bench_gate.py` and must match the checked-in baseline exactly.
//! The `*_wall_us` keys get a tolerance, and the gate additionally enforces
//! the speedup floor: `batch_wall_us * speedup_floor_milli <=
//! naive_wall_us * 1000` (i.e. the batched path must stay at least 2x the
//! seed path's throughput at equal output).
//!
//! Run with `cargo bench -p wf-bench --bench nlp`.

use std::time::Instant;
use wf_corpus::{camera_reviews, music_reviews, ReviewConfig};
use wf_nlp::{naive, DocAnnotations, Pipeline};
use wf_platform::{Entity, Indexer, Query, SourceKind};
use wf_types::DocId;

const SEED: u64 = 20050405;
const REPEATS: usize = 3;
/// Timed passes per path; the minimum wall time is reported, which filters
/// scheduler noise out of the speedup ratio.
const TIMING_ROUNDS: usize = 5;
/// Minimum batched-path throughput relative to the seed path, in milli-x.
const SPEEDUP_FLOOR_MILLI: u64 = 2000;

/// Both review domains at test scale, repeated to a stable working set.
fn corpus() -> Vec<String> {
    let cfg = ReviewConfig::small();
    let mut base = Vec::new();
    for c in [camera_reviews(SEED, &cfg), music_reviews(SEED ^ 1, &cfg)] {
        base.extend(c.d_plus_texts());
        base.extend(c.d_minus_texts());
    }
    let mut texts = Vec::with_capacity(base.len() * REPEATS);
    for _ in 0..REPEATS {
        texts.extend(base.iter().cloned());
    }
    texts
}

/// The seed path, doc by doc: two tokenizations per document (entity
/// spotting + sentence analysis), per-token owned strings throughout —
/// exactly what `analyze_named_entities` did before the batch API.
fn run_naive(texts: &[String]) -> Vec<DocAnnotations> {
    texts
        .iter()
        .map(|t| {
            let sentences = naive::analyze(t);
            DocAnnotations {
                entities: naive::named_entities(t),
                tokens: sentences.iter().map(|s| s.tokens.len()).sum(),
                sentences,
            }
        })
        .collect()
}

fn build_index(texts: &[String], naive_exec: bool) -> Indexer {
    let idx = if naive_exec {
        Indexer::naive()
    } else {
        Indexer::new()
    };
    for (i, text) in texts.iter().enumerate() {
        let mut e = Entity::new(format!("bench://nlp/{i}"), SourceKind::Web, text.clone());
        e.id = DocId(i as u64);
        idx.index_entity(&e);
    }
    idx
}

/// AND / phrase probes over words every review template contains.
fn and_workload() -> Vec<Query> {
    vec![
        Query::And(vec![
            Query::Term("the".into()),
            Query::Term("camera".into()),
        ]),
        Query::And(vec![
            Query::Term("excellent".into()),
            Query::Term("the".into()),
            Query::Term("pictures".into()),
        ]),
        Query::And(vec![
            Query::Term("battery".into()),
            Query::Term("zzzabsent".into()),
        ]),
        Query::Phrase(vec!["battery".into(), "life".into()]),
        Query::And(vec![
            Query::Phrase(vec!["the".into(), "camera".into()]),
            Query::Term("is".into()),
        ]),
    ]
}

fn scanned_sum(idx: &Indexer, queries: &[Query]) -> u64 {
    for q in queries {
        idx.query(q).unwrap();
    }
    idx.telemetry()
        .snapshot()
        .histograms
        .get("index.postings_scanned")
        .map(|h| h.sum)
        .unwrap_or(0)
}

fn main() {
    let texts = corpus();
    let pipeline = Pipeline::new();

    // Warm both paths once: dictionary/lexicon loads should not be timed.
    let warm_batch = pipeline.annotate_batch(&texts[..4.min(texts.len())]);
    let warm_naive = run_naive(&texts[..4.min(texts.len())]);
    assert_eq!(warm_batch, warm_naive, "paths diverged during warmup");

    let mut naive_us = u64::MAX;
    let mut batch_us = u64::MAX;
    let mut naive_out = Vec::new();
    let mut batch_out = Vec::new();
    for _ in 0..TIMING_ROUNDS {
        // Free the previous round's annotations before starting the clock:
        // dropping thousands of owned tokens is allocator work that belongs
        // to neither path.
        naive_out.clear();
        batch_out.clear();

        let t = Instant::now();
        naive_out = run_naive(&texts);
        naive_us = naive_us.min(t.elapsed().as_micros() as u64);

        let t = Instant::now();
        batch_out = pipeline.annotate_batch(&texts);
        batch_us = batch_us.min(t.elapsed().as_micros() as u64);

        assert_eq!(
            batch_out, naive_out,
            "batched output must equal seed output"
        );
    }

    let sentences: u64 = batch_out.iter().map(|d| d.sentences.len() as u64).sum();
    let tokens: u64 = batch_out
        .iter()
        .flat_map(|d| &d.sentences)
        .map(|s| s.tokens.len() as u64)
        .sum();
    let entities: u64 = batch_out.iter().map(|d| d.entities.len() as u64).sum();

    let compressed = build_index(&texts, false);
    let naive_idx = build_index(&texts, true);
    let queries = and_workload();
    let and_scanned_compressed = scanned_sum(&compressed, &queries);
    let and_scanned_naive = scanned_sum(&naive_idx, &queries);
    for q in &queries {
        assert_eq!(
            compressed.query(q).unwrap(),
            naive_idx.query(q).unwrap(),
            "index results diverged"
        );
    }
    let postings_bytes = compressed.postings_bytes();

    let mut out = std::collections::BTreeMap::new();
    out.insert("bench".to_string(), serde_json::Value::from("nlp"));
    out.insert("seed".to_string(), serde_json::Value::from(SEED));
    out.insert(
        "docs".to_string(),
        serde_json::Value::from(texts.len() as u64),
    );
    out.insert("sentences".to_string(), serde_json::Value::from(sentences));
    out.insert("tokens".to_string(), serde_json::Value::from(tokens));
    out.insert("entities".to_string(), serde_json::Value::from(entities));
    out.insert(
        "and_scanned_naive".to_string(),
        serde_json::Value::from(and_scanned_naive),
    );
    out.insert(
        "and_scanned_compressed".to_string(),
        serde_json::Value::from(and_scanned_compressed),
    );
    out.insert(
        "postings_bytes_compressed".to_string(),
        serde_json::Value::from(postings_bytes),
    );
    out.insert(
        "speedup_floor_milli".to_string(),
        serde_json::Value::from(SPEEDUP_FLOOR_MILLI),
    );
    out.insert(
        "naive_wall_us".to_string(),
        serde_json::Value::from(naive_us),
    );
    out.insert(
        "batch_wall_us".to_string(),
        serde_json::Value::from(batch_us),
    );
    let rendered = serde_json::to_string_pretty(&serde_json::Value::Object(out))
        .expect("report renders infallibly");

    let artifacts = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../artifacts");
    std::fs::create_dir_all(&artifacts).expect("create artifacts dir");
    let path = artifacts.join("BENCH_nlp.json");
    std::fs::write(&path, rendered + "\n").expect("write bench artifact");

    let speedup_milli = naive_us.saturating_mul(1000) / batch_us.max(1);
    println!(
        "nlp bench: {} docs, {} tokens; naive {naive_us} us, batch {batch_us} us \
         ({speedup_milli} milli-x); AND scanned {and_scanned_naive} -> \
         {and_scanned_compressed}; postings {postings_bytes} bytes; wrote {}",
        texts.len(),
        tokens,
        path.display()
    );
}
