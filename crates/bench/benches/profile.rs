//! Observability-overhead benchmark: runs the serving-tier workload
//! with timeline scraping off and on, then folds the recorded spans
//! into a profile, exporting `artifacts/BENCH_profile.json`.
//!
//! The deterministic keys (scrape/sample counts, folded span count,
//! collapsed line count, attribution) are regression sentinels for
//! `tools/bench_gate.py`; the `*_wall_us` keys get a tolerance and
//! bound the real cost of leaving the observability tier enabled.
//!
//! Run with `cargo bench -p wf-bench --bench profile`.

use std::sync::Arc;
use std::time::Instant;
use wf_bench::{serving_config, serving_setup, DOCS, NODES, SEED};
use wf_platform::{
    Profile, ServeLoop, Telemetry, TimeSeriesStore, DEFAULT_SCRAPE_INTERVAL_MS,
    DEFAULT_TIMELINE_CAPACITY,
};
use wf_sentiment::SentimentServingBackend;

/// One serving run against a fresh telemetry, optionally scraping a
/// timeline; returns (telemetry, timeline, wall us).
fn serve_once(
    backend: &SentimentServingBackend,
    scrape: bool,
) -> (Arc<Telemetry>, Option<Arc<TimeSeriesStore>>, u64) {
    let telemetry = Telemetry::with_trace_capacity(1 << 15);
    let timeline = scrape.then(|| {
        Arc::new(TimeSeriesStore::new(
            DEFAULT_TIMELINE_CAPACITY,
            DEFAULT_SCRAPE_INTERVAL_MS,
        ))
    });
    let mut serve_loop = ServeLoop::new(
        backend,
        Arc::clone(&telemetry),
        serving_config(),
        wf_corpus::serving_requests(),
    );
    if let Some(timeline) = &timeline {
        serve_loop = serve_loop.with_timeline(Arc::clone(timeline));
    }
    let t = Instant::now();
    serve_loop.run().unwrap();
    (telemetry, timeline, t.elapsed().as_micros() as u64)
}

fn main() {
    let backend = serving_setup().backend;

    // warm up once, then measure scrape-off vs scrape-on
    serve_once(&backend, false);
    let (_, _, serve_off_us) = serve_once(&backend, false);
    let (telemetry, timeline, serve_on_us) = serve_once(&backend, true);
    let timeline = timeline.expect("scrape enabled");

    let t = Instant::now();
    let profile = Profile::from_recorder(telemetry.recorder(), usize::MAX);
    let fold_us = t.elapsed().as_micros() as u64;

    let t = Instant::now();
    let collapsed = profile.to_collapsed();
    let collapsed_us = t.elapsed().as_micros() as u64;

    let rolled = timeline.timeline();

    let mut out = std::collections::BTreeMap::new();
    out.insert("bench".to_string(), serde_json::Value::from("profile"));
    out.insert("docs".to_string(), serde_json::Value::from(DOCS as u64));
    out.insert("nodes".to_string(), serde_json::Value::from(NODES as u64));
    out.insert("seed".to_string(), serde_json::Value::from(SEED));
    out.insert(
        "requests".to_string(),
        serde_json::Value::from(serving_config().requests),
    );
    out.insert(
        "scrapes".to_string(),
        serde_json::Value::from(timeline.scrapes()),
    );
    out.insert(
        "samples".to_string(),
        serde_json::Value::from(timeline.len() as u64),
    );
    out.insert(
        "timeline_dropped".to_string(),
        serde_json::Value::from(timeline.dropped()),
    );
    out.insert(
        "timeline_counters".to_string(),
        serde_json::Value::from(rolled.counters.len() as u64),
    );
    out.insert(
        "spans_recorded".to_string(),
        serde_json::Value::from(telemetry.recorder().recorded()),
    );
    out.insert(
        "spans_folded".to_string(),
        serde_json::Value::from(profile.spans),
    );
    out.insert(
        "profile_total_sim_ms".to_string(),
        serde_json::Value::from(profile.total_ms),
    );
    out.insert(
        "attributed_milli".to_string(),
        serde_json::Value::from(profile.attributed_milli()),
    );
    out.insert(
        "collapsed_lines".to_string(),
        serde_json::Value::from(collapsed.lines().count() as u64),
    );
    out.insert(
        "serve_scrape_off_wall_us".to_string(),
        serde_json::Value::from(serve_off_us),
    );
    out.insert(
        "serve_scrape_on_wall_us".to_string(),
        serde_json::Value::from(serve_on_us),
    );
    out.insert(
        "profile_fold_wall_us".to_string(),
        serde_json::Value::from(fold_us),
    );
    out.insert(
        "collapsed_export_wall_us".to_string(),
        serde_json::Value::from(collapsed_us),
    );
    let rendered = serde_json::to_string_pretty(&serde_json::Value::Object(out))
        .expect("report renders infallibly");

    let artifacts = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../artifacts");
    std::fs::create_dir_all(&artifacts).expect("create artifacts dir");
    let path = artifacts.join("BENCH_profile.json");
    std::fs::write(&path, rendered + "\n").expect("write bench artifact");

    println!(
        "profile bench: {} spans folded ({} sim-ms, {} milli attributed), \
         {} scrapes; serve off {serve_off_us} us vs on {serve_on_us} us, \
         fold {fold_us} us, collapse {collapsed_us} us; wrote {}",
        profile.spans,
        profile.total_ms,
        profile.attributed_milli(),
        timeline.scrapes(),
        path.display()
    );
}
