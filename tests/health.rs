//! Acceptance suite for the deterministic health engine
//! (`wf_platform::health`).
//!
//! Locks down the PR's guarantees end to end:
//!
//! 1. **Deterministic alerting** — under a pinned chaos seed, injected
//!    slow responses breach the bus-latency SLO and the multi-window
//!    burn-rate alert fires at the exact same simulated instant on every
//!    run.
//! 2. **Exemplar liveness** — every exemplar the doctor report surfaces
//!    resolves to a trace the flight recorder still retains, so `wfsm
//!    trace` can dump the causal tree behind any SLO breach.
//! 3. **Report stability** — `DoctorReport::to_json_string` is
//!    byte-identical across same-seed runs and matches a golden file.

use std::sync::Arc;
use wf_platform::{
    default_slos, AlertEvent, ChaosCluster, Cluster, DoctorReport, EntityEdit, EntityMiner,
    HealthEngine, MinerPipeline, NodeHealth, TraceId,
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

/// The standard chaos fixture of the observability suites, plus a health
/// engine attached to the cluster's registry.
fn chaos_fixture(seed: u64) -> (Cluster, HealthEngine) {
    let cluster = ChaosCluster::new(4, 60)
        .chaos(seed, 0.15)
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
    let engine = HealthEngine::with_telemetry(default_slos(), Arc::clone(cluster.telemetry()));
    (cluster, engine)
}

/// Drives `rounds` rounds of traced bus probes → pipeline → rebuild,
/// observing the SLOs on the cluster's simulated clock after each phase.
/// Returns every alert transition in firing order.
fn drive(cluster: &Cluster, engine: &mut HealthEngine, rounds: usize) -> Vec<AlertEvent> {
    let mut transitions = Vec::new();
    let mut observe = |cluster: &Cluster, engine: &mut HealthEngine| {
        let snapshot = cluster.metrics_snapshot();
        transitions.extend(engine.observe(cluster.sim_now(), &snapshot));
    };
    for round in 0..rounds {
        let telemetry = Arc::clone(cluster.telemetry());
        let mut root = telemetry.trace_root(format!("probe#{round}"));
        for i in 0..25 {
            let _ = cluster
                .bus()
                .call_detailed("annotate", &serde_json::json!(i), Some(&mut root));
        }
        root.finish();
        observe(cluster, engine);
        cluster.run_pipeline(&MinerPipeline::new().add(Box::new(TouchMiner)));
        observe(cluster, engine);
        cluster.rebuild_index();
        observe(cluster, engine);
    }
    transitions
}

/// Guarantee 1: the pinned seed's slow responses (250 sim-ms against a
/// 64 sim-ms p99 bound) fire the latency burn-rate alert, at the same
/// simulated instant on every run.
#[test]
fn pinned_chaos_seed_fires_latency_alert_deterministically() {
    let run = || {
        let (cluster, mut engine) = chaos_fixture(20050405);
        drive(&cluster, &mut engine, 2)
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same seed must produce the same alert transitions");
    let latency_fire = a
        .iter()
        .find(|e| e.slo == "bus-call-p99" && e.firing)
        .expect("chaos slow-responses must breach the bus latency SLO");
    assert!(
        latency_fire.fast_burn_milli >= 2_000 && latency_fire.slow_burn_milli >= 2_000,
        "both windows must burn past the threshold: {latency_fire:?}"
    );
}

/// Alert transitions are mirrored into the shared registry, so the
/// `health.alerts.*` counters are part of the deterministic snapshot.
#[test]
fn alert_transitions_land_in_the_telemetry_snapshot() {
    let (cluster, mut engine) = chaos_fixture(20050405);
    let transitions = drive(&cluster, &mut engine, 2);
    let fired = transitions.iter().filter(|e| e.firing).count() as u64;
    let resolved = transitions.iter().filter(|e| !e.firing).count() as u64;
    assert!(fired > 0, "the chaos run must fire at least one alert");
    let snap = cluster.metrics_snapshot();
    assert_eq!(snap.counter("health.alerts.fired"), fired);
    assert_eq!(snap.counter("health.alerts.resolved"), resolved);
}

/// Guarantee 2: every exemplar in the doctor report — not just the worst
/// — resolves to a trace the flight recorder still retains.
#[test]
fn every_exemplar_resolves_to_a_live_trace() {
    let (cluster, mut engine) = chaos_fixture(20050405);
    drive(&cluster, &mut engine, 2);
    let report = DoctorReport::build(&cluster, &engine);
    assert!(
        !report.exemplars.is_empty(),
        "traced bus calls and pipeline shards must pin exemplars"
    );
    assert!(
        report.exemplars.iter().all(|e| e.live),
        "every exemplar must be dumpable via `wfsm trace`: {:?}",
        report.exemplars
    );
    // the liveness flag agrees with the recorder itself, bucket by bucket
    let recorder = cluster.telemetry().recorder();
    let snapshot = cluster.metrics_snapshot();
    for (name, hist) in &snapshot.histograms {
        for (_, exemplar) in &hist.exemplars {
            assert!(
                recorder.contains_trace(TraceId(exemplar.trace)),
                "{name} exemplar trace {} evicted",
                exemplar.trace
            );
        }
    }
}

/// Guarantee 3a: the doctor JSON is byte-identical across same-seed runs.
#[test]
fn doctor_json_is_byte_identical_across_runs() {
    let render = || {
        let (cluster, mut engine) = chaos_fixture(20050405);
        drive(&cluster, &mut engine, 2);
        DoctorReport::build(&cluster, &engine).to_json_string()
    };
    assert_eq!(render(), render());
}

/// Guarantee 3b: the format matches the golden file. Regenerate with
/// `UPDATE_GOLDEN=1 cargo test --test health -- golden`.
#[test]
fn golden_doctor_report() {
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/doctor_report.json"
    );
    let (cluster, mut engine) = chaos_fixture(20050405);
    drive(&cluster, &mut engine, 2);
    let rendered = DoctorReport::build(&cluster, &engine).to_json_string() + "\n";
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(golden_path)
        .expect("golden file missing; run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        rendered, golden,
        "doctor JSON drifted from tests/golden/doctor_report.json; \
         if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

/// The per-node scoreboard accumulates across rounds and reflects the
/// fixture's topology: node 2 is Down, its shards fail over, and the
/// degraded node burns the most simulated time per run.
#[test]
fn scoreboard_tracks_chaos_topology() {
    let (cluster, mut engine) = chaos_fixture(20050405);
    drive(&cluster, &mut engine, 2);
    let board = cluster.scoreboard();
    assert_eq!(board.len(), 4);
    for score in &board {
        assert_eq!(score.runs, 2, "every shard sees both pipeline runs");
    }
    let down = &board[2];
    assert_eq!(down.health, NodeHealth::Down);
    assert!(
        down.failovers >= 2,
        "down node's shard fails over in pipeline and rebuild: {down:?}"
    );
    let degraded = &board[1];
    assert_eq!(degraded.health, NodeHealth::Degraded);
    assert!(
        degraded.faults > board[0].faults,
        "degraded node amplifies faults: {} vs {}",
        degraded.faults,
        board[0].faults
    );
    // text renderings share the scoreboard
    let report = DoctorReport::build(&cluster, &engine);
    let table = report.to_table();
    assert!(table.contains("NODES"), "{table}");
    assert!(table.contains("Down"), "{table}");
    assert!(table.contains("Degraded"), "{table}");
}
