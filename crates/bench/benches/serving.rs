//! Serving-tier benchmark: mines a synthetic multi-brand corpus, builds
//! the sharded sentiment index, and drives the deterministic many-client
//! serve loop against it, exporting `artifacts/BENCH_serving.json`.
//!
//! The deterministic keys (request/outcome counts, cache hit rate,
//! latency percentiles, sustained simulated QPS) double as regression
//! sentinels for `tools/bench_gate.py`: they must match the checked-in
//! baseline exactly, while the `*_wall_us` keys get a tolerance.
//!
//! Run with `cargo bench -p wf-bench --bench serving`.

use std::sync::Arc;
use std::time::Instant;
use wf_bench::{serving_config, serving_setup, ServingSetup, DOCS, NODES, SEED};
use wf_platform::ServeLoop;

fn main() {
    let ServingSetup {
        cluster,
        backend,
        mine_us,
        index_us,
    } = serving_setup();
    let postings = backend.index().posting_count() as u64;
    let subjects = backend.index().subjects().len() as u64;
    let config = serving_config();
    let (clients, qps) = (config.clients, config.qps);

    let t = Instant::now();
    let report = ServeLoop::new(
        &backend,
        Arc::clone(cluster.telemetry()),
        config,
        wf_corpus::serving_requests(),
    )
    .run()
    .unwrap();
    let serve_us = t.elapsed().as_micros() as u64;

    let mut out = std::collections::BTreeMap::new();
    out.insert("bench".to_string(), serde_json::Value::from("serving"));
    out.insert("docs".to_string(), serde_json::Value::from(DOCS as u64));
    out.insert("nodes".to_string(), serde_json::Value::from(NODES as u64));
    out.insert("seed".to_string(), serde_json::Value::from(SEED));
    out.insert(
        "clients".to_string(),
        serde_json::Value::from(u64::from(clients)),
    );
    out.insert("target_qps".to_string(), serde_json::Value::from(qps));
    out.insert("postings".to_string(), serde_json::Value::from(postings));
    out.insert("subjects".to_string(), serde_json::Value::from(subjects));
    out.insert(
        "requests".to_string(),
        serde_json::Value::from(report.requests),
    );
    out.insert("ok".to_string(), serde_json::Value::from(report.ok));
    out.insert("shed".to_string(), serde_json::Value::from(report.shed));
    out.insert("errors".to_string(), serde_json::Value::from(report.errors));
    out.insert(
        "cache_hits".to_string(),
        serde_json::Value::from(report.cache_hits),
    );
    out.insert(
        "cache_misses".to_string(),
        serde_json::Value::from(report.cache_misses),
    );
    out.insert(
        "cache_hit_rate_milli".to_string(),
        serde_json::Value::from(report.cache_hit_rate_milli),
    );
    out.insert(
        "latency_p50_ms".to_string(),
        serde_json::Value::from(report.latency_p50_ms),
    );
    out.insert(
        "latency_p95_ms".to_string(),
        serde_json::Value::from(report.latency_p95_ms),
    );
    out.insert(
        "latency_p99_ms".to_string(),
        serde_json::Value::from(report.latency_p99_ms),
    );
    out.insert(
        "queue_peak".to_string(),
        serde_json::Value::from(report.queue_peak),
    );
    out.insert("sim_ms".to_string(), serde_json::Value::from(report.sim_ms));
    out.insert(
        "sustained_qps_milli".to_string(),
        serde_json::Value::from(report.sustained_qps_milli),
    );
    out.insert("mine_wall_us".to_string(), serde_json::Value::from(mine_us));
    out.insert(
        "index_build_wall_us".to_string(),
        serde_json::Value::from(index_us),
    );
    out.insert(
        "serve_wall_us".to_string(),
        serde_json::Value::from(serve_us),
    );
    let rendered = serde_json::to_string_pretty(&serde_json::Value::Object(out))
        .expect("report renders infallibly");

    let artifacts = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../artifacts");
    std::fs::create_dir_all(&artifacts).expect("create artifacts dir");
    let path = artifacts.join("BENCH_serving.json");
    std::fs::write(&path, rendered + "\n").expect("write bench artifact");

    println!(
        "serving bench: {} requests in {} sim-ms ({} milli-qps, {} hit-rate-milli); \
         mine {mine_us} us, index {index_us} us, serve {serve_us} us; wrote {}",
        report.requests,
        report.sim_ms,
        report.sustained_qps_milli,
        report.cache_hit_rate_milli,
        path.display()
    );
}
