//! Event-log-overhead benchmark: runs the serving-tier chaos workload
//! with the structured event log disabled (capacity 0) and enabled,
//! exporting `artifacts/BENCH_evlog.json`.
//!
//! The deterministic keys (emitted/kept/sampled/dropped counters, the
//! canonical record count) are regression sentinels for
//! `tools/bench_gate.py` — same seed ⇒ same values; the `*_wall_us`
//! keys get a tolerance and bound the real cost of leaving structured
//! logging on along the serving hot path.
//!
//! Run with `cargo bench -p wf-bench --bench evlog`.

use std::sync::Arc;
use std::time::Instant;
use wf_bench::{serving_config, serving_setup, DOCS, NODES, SEED};
use wf_platform::{FaultPlan, ServeLoop, Telemetry, DEFAULT_EVLOG_CAPACITY};
use wf_sentiment::SentimentServingBackend;

const FAIL_RATE: f64 = 0.1;

/// One chaos serving run against a fresh telemetry whose event log has
/// the given capacity (0 = disabled); returns (telemetry, wall us).
fn serve_once(backend: &SentimentServingBackend, evlog_capacity: usize) -> (Arc<Telemetry>, u64) {
    let telemetry = Telemetry::with_capacities(1 << 15, evlog_capacity);
    let serve_loop = ServeLoop::new(
        backend,
        Arc::clone(&telemetry),
        serving_config(),
        wf_corpus::serving_requests(),
    )
    .with_fault_plan(FaultPlan::uniform(SEED, FAIL_RATE));
    let t = Instant::now();
    serve_loop.run().unwrap();
    (telemetry, t.elapsed().as_micros() as u64)
}

fn main() {
    let backend = serving_setup().backend;

    // warm up once, then measure log-off vs log-on
    serve_once(&backend, 0);
    let (off_telemetry, serve_off_us) = serve_once(&backend, 0);
    let (telemetry, serve_on_us) = serve_once(&backend, DEFAULT_EVLOG_CAPACITY);

    assert_eq!(
        off_telemetry.evlog().emitted(),
        0,
        "log-off arm must stay silent"
    );
    let log = telemetry.evlog();
    assert_eq!(
        log.emitted(),
        log.kept() + log.sampled() + log.dropped(),
        "conservation law"
    );

    let t = Instant::now();
    let snapshot = log.snapshot();
    let json = snapshot.to_json_string();
    let export_us = t.elapsed().as_micros() as u64;

    let mut out = std::collections::BTreeMap::new();
    out.insert("bench".to_string(), serde_json::Value::from("evlog"));
    out.insert("docs".to_string(), serde_json::Value::from(DOCS as u64));
    out.insert("nodes".to_string(), serde_json::Value::from(NODES as u64));
    out.insert("seed".to_string(), serde_json::Value::from(SEED));
    out.insert(
        "requests".to_string(),
        serde_json::Value::from(serving_config().requests),
    );
    out.insert(
        "evlog_emitted".to_string(),
        serde_json::Value::from(log.emitted()),
    );
    out.insert(
        "evlog_kept".to_string(),
        serde_json::Value::from(log.kept()),
    );
    out.insert(
        "evlog_sampled".to_string(),
        serde_json::Value::from(log.sampled()),
    );
    out.insert(
        "evlog_dropped".to_string(),
        serde_json::Value::from(log.dropped()),
    );
    out.insert(
        "evlog_records".to_string(),
        serde_json::Value::from(snapshot.records.len() as u64),
    );
    out.insert(
        "evlog_json_bytes".to_string(),
        serde_json::Value::from(json.len() as u64),
    );
    out.insert(
        "serve_log_off_wall_us".to_string(),
        serde_json::Value::from(serve_off_us),
    );
    out.insert(
        "serve_log_on_wall_us".to_string(),
        serde_json::Value::from(serve_on_us),
    );
    out.insert(
        "evlog_export_wall_us".to_string(),
        serde_json::Value::from(export_us),
    );
    let rendered = serde_json::to_string_pretty(&serde_json::Value::Object(out))
        .expect("report renders infallibly");

    let artifacts = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../artifacts");
    std::fs::create_dir_all(&artifacts).expect("create artifacts dir");
    let path = artifacts.join("BENCH_evlog.json");
    std::fs::write(&path, rendered + "\n").expect("write bench artifact");

    println!(
        "evlog bench: {} emitted ({} kept, {} sampled, {} dropped), \
         {} canonical records, {} json bytes; serve off {serve_off_us} us \
         vs on {serve_on_us} us, export {export_us} us; wrote {}",
        log.emitted(),
        log.kept(),
        log.sampled(),
        log.dropped(),
        snapshot.records.len(),
        json.len(),
        path.display()
    );
}
