//! Health-engine benchmark: measures the cost of SLO evaluation
//! (`HealthEngine::observe`) over a growing snapshot history and of
//! assembling the doctor report, and exports the run as
//! `artifacts/BENCH_health.json`. The deterministic keys (alert counts,
//! exemplar counts, simulated time, report size) double as regression
//! sentinels for `tools/bench_gate.py`: they must match the checked-in
//! baseline exactly, while `*_wall_us` keys get a tolerance.
//!
//! Run with `cargo bench -p wf-bench --bench health`.

use std::sync::Arc;
use std::time::Instant;
use wf_platform::{
    default_slos, ChaosCluster, DoctorReport, EntityEdit, EntityMiner, HealthEngine, MinerPipeline,
};
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

// Sized so the full run stays inside the flight recorder's span ring
// (DEFAULT_TRACE_CAPACITY): exemplar traces must stay live, making the
// exported `exemplars_live` count a real regression sentinel.
const DOCS: usize = 120;
const NODES: usize = 4;
const ROUNDS: usize = 6;
const SEED: u64 = 20050405;

fn main() {
    let cluster = ChaosCluster::new(NODES, DOCS)
        .chaos(SEED, 0.10)
        .retry(RetryPolicy {
            max_retries: 4,
            base_backoff_ms: 5,
            max_backoff_ms: 80,
            timeout_budget_ms: 50_000,
        })
        .degrade(NodeId(1))
        .down(NodeId(2))
        .build()
        .unwrap();
    cluster
        .bus()
        .register("annotate", Arc::new(|v: &serde_json::Value| Ok(v.clone())));
    let mut engine = HealthEngine::with_telemetry(default_slos(), Arc::clone(cluster.telemetry()));
    let pipeline = MinerPipeline::new().add(Box::new(TouchMiner));

    let mut observe_us = 0u64;
    for round in 0..ROUNDS {
        let telemetry = Arc::clone(cluster.telemetry());
        let mut root = telemetry.trace_root(format!("probe#{round}"));
        for i in 0..25 {
            let _ = cluster
                .bus()
                .call_detailed("annotate", &serde_json::json!(i), Some(&mut root));
        }
        root.finish();
        cluster.run_pipeline(&pipeline);
        let snapshot = cluster.metrics_snapshot();
        let t = Instant::now();
        let _ = engine.observe(cluster.sim_now(), &snapshot);
        observe_us += t.elapsed().as_micros() as u64;
    }

    let t = Instant::now();
    let report = DoctorReport::build(&cluster, &engine);
    let json = report.to_json_string();
    let report_us = t.elapsed().as_micros() as u64;

    let fired = report.alerts.iter().filter(|a| a.firing).count() as u64;
    let resolved = report.alerts.len() as u64 - fired;
    let live = report.exemplars.iter().filter(|e| e.live).count() as u64;

    let mut out = std::collections::BTreeMap::new();
    out.insert("bench".to_string(), serde_json::Value::from("health"));
    out.insert("docs".to_string(), serde_json::Value::from(DOCS as u64));
    out.insert("nodes".to_string(), serde_json::Value::from(NODES as u64));
    out.insert("rounds".to_string(), serde_json::Value::from(ROUNDS as u64));
    out.insert("seed".to_string(), serde_json::Value::from(SEED));
    out.insert(
        "observe_wall_us".to_string(),
        serde_json::Value::from(observe_us),
    );
    out.insert(
        "report_wall_us".to_string(),
        serde_json::Value::from(report_us),
    );
    out.insert(
        "sim_ms".to_string(),
        serde_json::Value::from(report.at_sim_ms),
    );
    out.insert("alerts_fired".to_string(), serde_json::Value::from(fired));
    out.insert(
        "alerts_resolved".to_string(),
        serde_json::Value::from(resolved),
    );
    out.insert(
        "exemplars".to_string(),
        serde_json::Value::from(report.exemplars.len() as u64),
    );
    out.insert("exemplars_live".to_string(), serde_json::Value::from(live));
    out.insert(
        "doctor_json_bytes".to_string(),
        serde_json::Value::from(json.len() as u64),
    );
    let rendered = serde_json::to_string_pretty(&serde_json::Value::Object(out))
        .expect("report renders infallibly");

    let artifacts = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../artifacts");
    std::fs::create_dir_all(&artifacts).expect("create artifacts dir");
    let path = artifacts.join("BENCH_health.json");
    std::fs::write(&path, rendered + "\n").expect("write bench artifact");

    println!(
        "health bench: {ROUNDS} rounds x {DOCS} docs; observe {observe_us} us, \
         report {report_us} us ({fired} fired / {resolved} resolved, {live} live exemplars); \
         wrote {}",
        path.display()
    );
}
