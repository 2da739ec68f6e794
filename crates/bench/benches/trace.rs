//! Trace-overhead benchmark: the same pipeline workload run under three
//! tracing configurations — recorder disabled (capacity 0), the default
//! flight-recorder ring, and ring plus a full three-format export per
//! run — so the cost of causal tracing is measured, not guessed.
//!
//! Run with `cargo bench -p wf-bench --bench trace`; writes
//! `artifacts/BENCH_trace.json` under the workspace root.

use std::sync::Arc;
use std::time::Instant;
use wf_platform::{
    DataStore, Entity, EntityEdit, EntityMiner, FaultContext, FaultPlan, MinerPipeline, RunOpts,
    SourceKind, Telemetry, DEFAULT_TRACE_CAPACITY,
};
use wf_types::{Result, RetryPolicy};

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
const SHARDS: usize = 4;
const RUNS: usize = 5;
const SEED: u64 = 20050405;

/// Runs the pipeline `RUNS` times against a fresh store whose recorder
/// holds `capacity` spans; when `export` is set, every run also renders
/// the JSON, Chrome and waterfall exports. Returns (wall_us, spans,
/// evicted, exported_bytes).
fn workload(capacity: usize, export: bool) -> (u64, u64, u64, u64) {
    let telemetry = Telemetry::with_trace_capacity(capacity);
    let store = DataStore::with_telemetry(SHARDS, Arc::clone(&telemetry)).unwrap();
    for i in 0..DOCS {
        store.insert(Entity::new(
            format!("doc://{i}"),
            SourceKind::Web,
            format!("synthetic review {i} with excellent pictures"),
        ));
    }
    let plan = FaultPlan::new(SEED);
    let opts = RunOpts {
        batch: 1,
        faults: FaultContext {
            plan: Some(&plan),
            retry: RetryPolicy::default(),
            health: &[],
        },
    };
    let pipeline = MinerPipeline::new().add(Box::new(TouchMiner));
    let mut exported_bytes = 0u64;
    let t0 = Instant::now();
    for _ in 0..RUNS {
        pipeline.run(&store, opts, None);
        if export {
            let rec = telemetry.recorder();
            exported_bytes += rec.export_json_string(8).len() as u64;
            exported_bytes += rec.export_chrome_string(8).len() as u64;
            exported_bytes += rec.export_text(8).len() as u64;
        }
    }
    let wall_us = t0.elapsed().as_micros() as u64;
    let rec = telemetry.recorder();
    (wall_us, rec.recorded(), rec.evicted(), exported_bytes)
}

fn main() {
    let (off_us, off_spans, _, _) = workload(0, false);
    let (ring_us, ring_spans, ring_evicted, _) = workload(DEFAULT_TRACE_CAPACITY, false);
    let (export_us, export_spans, export_evicted, export_bytes) =
        workload(DEFAULT_TRACE_CAPACITY, true);

    let mut report = std::collections::BTreeMap::new();
    report.insert("bench".to_string(), serde_json::Value::from("trace"));
    report.insert("docs".to_string(), serde_json::Value::from(DOCS as u64));
    report.insert("shards".to_string(), serde_json::Value::from(SHARDS as u64));
    report.insert("runs".to_string(), serde_json::Value::from(RUNS as u64));
    report.insert("seed".to_string(), serde_json::Value::from(SEED));
    report.insert(
        "ring_capacity".to_string(),
        serde_json::Value::from(DEFAULT_TRACE_CAPACITY as u64),
    );
    report.insert("off_wall_us".to_string(), serde_json::Value::from(off_us));
    report.insert(
        "off_spans_recorded".to_string(),
        serde_json::Value::from(off_spans),
    );
    report.insert("ring_wall_us".to_string(), serde_json::Value::from(ring_us));
    report.insert(
        "ring_spans_recorded".to_string(),
        serde_json::Value::from(ring_spans),
    );
    report.insert(
        "ring_spans_evicted".to_string(),
        serde_json::Value::from(ring_evicted),
    );
    report.insert(
        "export_wall_us".to_string(),
        serde_json::Value::from(export_us),
    );
    report.insert(
        "export_spans_recorded".to_string(),
        serde_json::Value::from(export_spans),
    );
    report.insert(
        "export_spans_evicted".to_string(),
        serde_json::Value::from(export_evicted),
    );
    report.insert(
        "export_bytes_rendered".to_string(),
        serde_json::Value::from(export_bytes),
    );
    let json = serde_json::to_string_pretty(&serde_json::Value::Object(report))
        .expect("report renders infallibly");

    let artifacts = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../artifacts");
    std::fs::create_dir_all(&artifacts).expect("create artifacts dir");
    let path = artifacts.join("BENCH_trace.json");
    std::fs::write(&path, json + "\n").expect("write bench artifact");

    println!(
        "trace bench: {DOCS} docs x {SHARDS} shards x {RUNS} runs; \
         off {off_us} us, ring {ring_us} us, ring+export {export_us} us \
         ({export_bytes} bytes rendered); wrote {}",
        path.display()
    );
}
