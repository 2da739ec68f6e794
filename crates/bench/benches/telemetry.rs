//! Instrumented benchmark run: measures the overhead of the telemetry
//! layer and exports the run's metric snapshot as a `BENCH_*.json`
//! artifact, so perf numbers ship with the instrument readings that
//! explain them (retries, faults, postings scanned, simulated time).
//!
//! Run with `cargo bench -p wf-bench --bench telemetry`; writes
//! `artifacts/BENCH_telemetry.json` under the workspace root.

use std::time::Instant;
use wf_platform::{ChaosCluster, EntityEdit, EntityMiner, MinerPipeline, Query};
use wf_types::{NodeId, Result, RetryPolicy};

struct TouchMiner;
impl EntityMiner for TouchMiner {
    fn name(&self) -> &str {
        "touch"
    }
    fn process(&self, entity: &mut EntityEdit<'_>) -> Result<()> {
        entity.metadata.insert("touched".into(), "1".into());
        Ok(())
    }
}

const DOCS: usize = 2_000;
const NODES: usize = 4;
const SEED: u64 = 20050405;

fn main() {
    // Fault-free baseline vs instrumented chaos run over the same corpus.
    let baseline = ChaosCluster::new(NODES, DOCS).build().unwrap();
    let pipeline = MinerPipeline::new().add(Box::new(TouchMiner));
    let t0 = Instant::now();
    let base_stats = baseline.run_pipeline(&pipeline);
    let baseline_us = t0.elapsed().as_micros() as u64;

    let chaos = ChaosCluster::new(NODES, DOCS)
        .chaos(SEED, 0.10)
        .retry(RetryPolicy {
            max_retries: 4,
            base_backoff_ms: 5,
            max_backoff_ms: 80,
            timeout_budget_ms: 50_000,
        })
        .degrade(NodeId(1))
        .build()
        .unwrap();
    let t1 = Instant::now();
    let chaos_stats = chaos.run_pipeline(&pipeline);
    let chaos_us = t1.elapsed().as_micros() as u64;
    chaos.rebuild_index();
    for term in ["cameras", "synthetic", "document"] {
        let _ = chaos.indexer().query(&Query::Term(term.into()));
    }
    let snapshot = chaos.metrics_snapshot();

    let mut report = std::collections::BTreeMap::new();
    report.insert("bench".to_string(), serde_json::Value::from("telemetry"));
    report.insert("docs".to_string(), serde_json::Value::from(DOCS as u64));
    report.insert("nodes".to_string(), serde_json::Value::from(NODES as u64));
    report.insert("seed".to_string(), serde_json::Value::from(SEED));
    report.insert(
        "baseline_wall_us".to_string(),
        serde_json::Value::from(baseline_us),
    );
    report.insert(
        "chaos_wall_us".to_string(),
        serde_json::Value::from(chaos_us),
    );
    report.insert(
        "baseline_processed".to_string(),
        serde_json::Value::from(base_stats.processed as u64),
    );
    report.insert(
        "chaos_processed".to_string(),
        serde_json::Value::from(chaos_stats.processed as u64),
    );
    report.insert(
        "chaos_retries".to_string(),
        serde_json::Value::from(chaos_stats.retries),
    );
    report.insert("metrics".to_string(), serde_json::json!(snapshot));
    let json = serde_json::to_string_pretty(&serde_json::Value::Object(report))
        .expect("report renders infallibly");

    let artifacts = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../artifacts");
    std::fs::create_dir_all(&artifacts).expect("create artifacts dir");
    let path = artifacts.join("BENCH_telemetry.json");
    std::fs::write(&path, json + "\n").expect("write bench artifact");

    println!(
        "telemetry bench: {DOCS} docs x {NODES} nodes; baseline {baseline_us} us, \
         chaos {chaos_us} us ({} retries); wrote {}",
        chaos_stats.retries,
        path.display()
    );
}
