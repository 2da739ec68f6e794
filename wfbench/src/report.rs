//! Metric names, units and the run's output.
//!
//! Every run prints each metric as `name value unit`, the input and output
//! digests and the error rate, and ends with one JSON line: `correct`,
//! `attempted`, `failed` and `metrics`. An untraced run reports the
//! end-to-end metrics, a traced run the per-layer ones; `BENCHMARK.json`
//! lists the same names and units.

use crate::inputs::QUERY_KINDS;
use crate::stats::percentile;
use crate::trace::Summary;
use serde_json::Value;
use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 2] = [("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 62] = [
    ("throughput_per_s", "1/s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("ingest.busy_ms", "ms"),
    ("miner.busy_ms", "ms"),
    ("miner.docs_failed", "count"),
    ("miner.speedup_2v1", "ratio"),
    ("miner.decomposition_ratio", "ratio"),
    ("nlp.tokenize.busy_ms", "ms"),
    ("nlp.split.busy_ms", "ms"),
    ("nlp.pos.busy_ms", "ms"),
    ("nlp.chunk.busy_ms", "ms"),
    ("nlp.clause.busy_ms", "ms"),
    ("nlp.ner.busy_ms", "ms"),
    ("nlp.tokens", "count"),
    ("nlp.sentences", "count"),
    ("nlp.useful_ratio", "ratio"),
    ("nlp.tokenize.ns_per_unit", "ns"),
    ("nlp.pos.ns_per_unit", "ns"),
    ("nlp.chunk.ns_per_unit", "ns"),
    ("nlp.clause.ns_per_unit", "ns"),
    ("nlp.ner.ns_per_unit", "ns"),
    ("spotter.busy_ms", "ms"),
    ("spotter.spots", "count"),
    ("sentiment.analyze.busy_ms", "ms"),
    ("sentiment.sentences_analyzed", "count"),
    ("sentiment.mentions", "count"),
    ("store.get.busy_ms", "ms"),
    ("store.update.busy_ms", "ms"),
    ("index.build.busy_ms", "ms"),
    ("index.postings_bytes", "bytes"),
    ("index.terms", "count"),
    ("index.query.busy_ms", "ms"),
    ("index.postings_scanned", "count"),
    ("index.query.term.p50_us", "us"),
    ("index.query.and.p50_us", "us"),
    ("index.query.or.p50_us", "us"),
    ("index.query.not.p50_us", "us"),
    ("index.query.phrase.p50_us", "us"),
    ("index.query.meta.p50_us", "us"),
    ("index.query.concept.p50_us", "us"),
    ("index.query.regex.p50_us", "us"),
    ("query_parser.busy_us", "us"),
    ("sindex.build.busy_ms", "ms"),
    ("sindex.postings", "count"),
    ("sindex.subjects", "count"),
    ("serve.execute.busy_ms", "ms"),
    ("serve.execute.p50_us", "us"),
    ("serve.execute.p99_us", "us"),
    ("serve.postings_scanned", "count"),
    ("serve.body_bytes", "bytes"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("cache.busy_ms", "ms"),
    ("loadgen.open_p50_us", "us"),
    ("loadgen.open_p99_us", "us"),
    ("loadgen.late_p99_us", "us"),
    ("loadgen.backlog_max", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage", "ratio"),
];

/// Counts a traced run gathers besides its spans. Work counts are totals
/// over the traced repetitions (passes or segments), which [`per_layer`]
/// divides by `units`; sizes (`postings_bytes`, `terms`, `sindex_*`) are
/// those of one built index.
#[derive(Debug, Clone, Default)]
pub struct LayerCounts {
    /// Traced repetitions: passes for the mine workloads, segments for
    /// the serve workloads.
    pub units: u64,
    pub docs_failed: u64,
    pub speedup_2v1: f64,
    pub decomposition_ratio: f64,
    pub overhead_ratio: f64,
    /// The whole loop's throughput and query latencies, from the untraced
    /// passes or segments of a traced run.
    pub throughput_per_s: f64,
    pub query_p50_us: f64,
    pub query_p99_us: f64,
    pub tokens: u64,
    pub sentences: u64,
    pub useful_sentences: u64,
    /// `wf_nlp::StageCosts` units: tokenize, pos, chunk, clause, ner.
    pub stage_units: [u64; 5],
    pub spots: u64,
    pub sentences_analyzed: u64,
    pub mentions: u64,
    pub postings_bytes: u64,
    pub terms: u64,
    pub postings_scanned: u64,
    pub sindex_postings: u64,
    pub sindex_subjects: u64,
    pub serve_postings_scanned: u64,
    pub serve_body_bytes: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub open_p50_us: f64,
    pub open_p99_us: f64,
    pub late_p99_us: f64,
    pub backlog_max: u64,
}

/// The end-to-end metrics of an untraced run: its set-up time and this
/// process's peak RSS.
pub fn end_to_end(setup_s: f64) -> Metrics {
    named([
        ("setup_s", setup_s),
        ("peak_rss_mb", crate::stats::peak_rss_mb()),
    ])
}

/// Per-layer metrics from a traced run's spans and counts: busy times and
/// work counts per repetition (ingest, mining and builds: per call), sizes
/// of one built index, ratios and percentiles over the whole traced run.
pub fn per_layer(summary: &Summary, c: &LayerCounts) -> Metrics {
    let units = c.units.max(1) as f64;
    let busy = |name: &str| summary.self_ms(name) / units;
    let per_call = |name: &str| summary.self_ms(name) / summary.calls(name).max(1) as f64;
    let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
    let query_ms: f64 = QUERY_KINDS
        .iter()
        .map(|kind| summary.self_ms(&format!("index.query.{kind}")))
        .sum();
    let execute = summary.durations_us("serve.execute");
    let mut m = named([
        ("throughput_per_s", c.throughput_per_s),
        ("query_p50_us", c.query_p50_us),
        ("query_p99_us", c.query_p99_us),
        ("ingest.busy_ms", per_call("ingest")),
        ("miner.busy_ms", per_call("miner")),
        ("miner.docs_failed", c.docs_failed as f64 / units),
        ("miner.speedup_2v1", c.speedup_2v1),
        ("miner.decomposition_ratio", c.decomposition_ratio),
        ("nlp.tokens", c.tokens as f64 / units),
        ("nlp.sentences", c.sentences as f64 / units),
        (
            "nlp.useful_ratio",
            ratio(c.useful_sentences as f64, c.sentences as f64),
        ),
        ("spotter.busy_ms", busy("spotter")),
        ("spotter.spots", c.spots as f64 / units),
        ("sentiment.analyze.busy_ms", busy("sentiment.analyze")),
        (
            "sentiment.sentences_analyzed",
            c.sentences_analyzed as f64 / units,
        ),
        ("sentiment.mentions", c.mentions as f64 / units),
        ("store.get.busy_ms", busy("store.get")),
        ("store.update.busy_ms", busy("store.update")),
        ("index.build.busy_ms", per_call("index.build")),
        ("index.postings_bytes", c.postings_bytes as f64),
        ("index.terms", c.terms as f64),
        ("index.query.busy_ms", query_ms / units),
        ("index.postings_scanned", c.postings_scanned as f64 / units),
        ("query_parser.busy_us", busy("query_parser") * 1e3),
        ("sindex.build.busy_ms", per_call("sindex.build")),
        ("sindex.postings", c.sindex_postings as f64),
        ("sindex.subjects", c.sindex_subjects as f64),
        ("serve.execute.busy_ms", busy("serve.execute")),
        ("serve.execute.p50_us", percentile(&execute, 50.0)),
        ("serve.execute.p99_us", percentile(&execute, 99.0)),
        (
            "serve.postings_scanned",
            c.serve_postings_scanned as f64 / units,
        ),
        ("serve.body_bytes", c.serve_body_bytes as f64 / units),
        ("cache.hits", c.cache_hits as f64 / units),
        ("cache.misses", c.cache_misses as f64 / units),
        (
            "cache.hit_ratio",
            ratio(c.cache_hits as f64, (c.cache_hits + c.cache_misses) as f64),
        ),
        ("cache.evictions", c.cache_evictions as f64 / units),
        ("cache.busy_ms", busy("cache.get") + busy("cache.insert")),
        ("loadgen.open_p50_us", c.open_p50_us),
        ("loadgen.open_p99_us", c.open_p99_us),
        ("loadgen.late_p99_us", c.late_p99_us),
        ("loadgen.backlog_max", c.backlog_max as f64),
        ("trace.overhead_ratio", c.overhead_ratio),
        ("trace.coverage", summary.coverage),
    ]);
    for stage in ["tokenize", "split", "pos", "chunk", "clause", "ner"] {
        m.insert(
            format!("nlp.{stage}.busy_ms"),
            busy(&format!("nlp.{stage}")),
        );
    }
    let stages = ["tokenize", "pos", "chunk", "clause", "ner"];
    for (stage, stage_units) in stages.into_iter().zip(c.stage_units) {
        let ns = summary.self_ms(&format!("nlp.{stage}")) * 1e6;
        m.insert(
            format!("nlp.{stage}.ns_per_unit"),
            ratio(ns, stage_units as f64),
        );
    }
    for kind in QUERY_KINDS {
        let samples = summary.durations_us(&format!("index.query.{kind}"));
        m.insert(
            format!("index.query.{kind}.p50_us"),
            percentile(&samples, 50.0),
        );
    }
    m
}

/// Metric values by name.
pub type Metrics = BTreeMap<String, f64>;

fn named<const N: usize>(pairs: [(&str, f64); N]) -> Metrics {
    pairs
        .into_iter()
        .map(|(name, value)| (name.to_string(), value))
        .collect()
}

/// What one run measured and checked.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub input_digest: u64,
    pub output_digest: u64,
}

impl Outcome {
    /// Prints the metric lines, digests and error rate, then the JSON
    /// result line; `names` are the metrics the result line carries.
    /// Returns the result line's JSON.
    pub fn print(&self, names: &[(&'static str, &'static str)]) -> Value {
        let mut metrics = BTreeMap::new();
        for &(name, unit) in names {
            let value = *self
                .metrics
                .get(name)
                .unwrap_or_else(|| panic!("workload did not produce metric {name}"));
            println!("{name} {value} {unit}");
            let mut entry = BTreeMap::new();
            entry.insert("value".to_string(), Value::from(value));
            entry.insert("unit".to_string(), Value::from(unit));
            metrics.insert(name.to_string(), Value::Object(entry));
        }
        println!("input_digest {:016x}", self.input_digest);
        println!("output_digest {:016x}", self.output_digest);
        println!(
            "error_rate {}",
            self.failed as f64 / self.attempted.max(1) as f64
        );
        let mut result = BTreeMap::new();
        result.insert("correct".to_string(), Value::from(self.failed == 0));
        result.insert("attempted".to_string(), Value::from(self.attempted));
        result.insert("failed".to_string(), Value::from(self.failed));
        result.insert("metrics".to_string(), Value::Object(metrics));
        let result = Value::Object(result);
        println!("{result}");
        result
    }
}
