//! Regression suite for the deterministic causal-tracing layer
//! (`wf_platform::trace`).
//!
//! Locks down the guarantees DESIGN.md §9 promises:
//!
//! 1. **Determinism** — the same chaos seed yields byte-identical trace
//!    exports (JSON tree, Chrome `trace_event`, ASCII waterfall), because
//!    every span duration derives from the seeded simulated clock and
//!    raw span ids are renumbered canonically at export time.
//! 2. **Crash safety** — a shard worker that panics mid-entity still
//!    lands its span (with the time accrued so far and a `panicked`
//!    event) in the flight recorder.
//! 3. **Bounded retention** — the flight recorder is a fixed-capacity
//!    ring: oldest spans evict first and the `trace.evicted` counter in
//!    the telemetry snapshot accounts for every overwrite.
//! 4. **Format stability** — the Chrome and JSON exports of a pinned
//!    chaos run match golden files, so `wfsm trace --format chrome|json`
//!    output cannot drift silently.

use std::sync::Arc;
use wf_platform::{
    ChaosCluster, DataStore, Entity, EntityEdit, EntityMiner, FaultContext, FaultPlan,
    MinerPipeline, NodeHealth, RunOpts, SourceKind, Telemetry,
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

/// Panics on any entity whose text contains the poison marker.
struct PoisonMiner;
impl EntityMiner for PoisonMiner {
    fn name(&self) -> &str {
        "poison"
    }
    fn process(&self, entity: &mut EntityEdit<'_>) -> Result<()> {
        if entity.text.contains("poison") {
            panic!("poisoned entity {}", entity.id.0);
        }
        Ok(())
    }
}

/// A full chaos run (same shape as the telemetry suite) followed by a
/// traced query pass, returning the cluster so tests can export traces.
fn chaos_run(seed: u64) -> wf_platform::Cluster {
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
    for i in 0..20 {
        let _ = cluster.bus().call("annotate", &serde_json::json!(i));
    }
    cluster.run_pipeline(&MinerPipeline::new().add(Box::new(TouchMiner)));
    cluster.rebuild_index();
    let mut search = cluster.telemetry().trace_root("search");
    for query in ["cameras", "synthetic", "absent"] {
        let _ = cluster
            .indexer()
            .query_explained(&wf_platform::Query::Term(query.into()), Some(&mut search));
    }
    search.finish();
    cluster
}

/// Guarantee 1: byte-identical exports in every format from identical
/// seeds, across fully concurrent runs.
#[test]
fn same_seed_gives_byte_identical_exports() {
    let a = chaos_run(20050405);
    let b = chaos_run(20050405);
    let (ra, rb) = (a.telemetry().recorder(), b.telemetry().recorder());
    assert_eq!(ra.export_json_string(50), rb.export_json_string(50));
    assert_eq!(ra.export_chrome_string(50), rb.export_chrome_string(50));
    assert_eq!(ra.export_text(50), rb.export_text(50));
    // exporting twice from the same recorder is also stable
    assert_eq!(ra.export_json_string(50), ra.export_json_string(50));
}

/// Different seeds must perturb the trace trees (retry/fault events and
/// span durations come from the fault stream).
#[test]
fn different_seeds_diverge() {
    let a = chaos_run(1);
    let b = chaos_run(2);
    assert_ne!(
        a.telemetry().recorder().export_json_string(50),
        b.telemetry().recorder().export_json_string(50),
        "different fault seeds should perturb the traces"
    );
}

/// The export covers every top-level operation of the run.
#[test]
fn exports_cover_all_cluster_operations() {
    let cluster = chaos_run(7);
    let text = cluster.telemetry().recorder().export_text(50);
    for root in ["cluster.run_pipeline", "cluster.rebuild_index", "search"] {
        assert!(text.contains(root), "waterfall missing {root:?}:\n{text}");
    }
    assert!(text.contains("shard:"), "no shard spans in:\n{text}");
    assert!(text.contains("q:term"), "no query plan spans in:\n{text}");
}

/// Guarantee 2: a panicking shard worker still records its span, with
/// the simulated time accrued before the crash and a `panicked` event.
#[test]
fn panicked_shard_keeps_its_span_in_the_recorder() {
    let store = DataStore::new(2).unwrap();
    for i in 0..6 {
        let text = if i == 3 { "poison pill" } else { "fine review" };
        store.insert(Entity::new(format!("doc://{i}"), SourceKind::Web, text));
    }
    let plan = FaultPlan::new(11); // default rates: fault-free, 1 sim-ms per op
    let opts = RunOpts {
        batch: 1,
        faults: FaultContext {
            plan: Some(&plan),
            retry: RetryPolicy::none(),
            health: &[NodeHealth::Up, NodeHealth::Up],
        },
    };
    let stats = MinerPipeline::new()
        .add(Box::new(PoisonMiner))
        .run(&store, opts, None);
    assert_eq!(stats.failed, 3, "whole poisoned shard counts as failed");

    let traces = store.telemetry().recorder().last_traces(1);
    let root = &traces[0].1[0];
    assert_eq!(root.name, "pipeline.run");
    let poisoned = root
        .children
        .iter()
        .find(|s| s.events.iter().any(|e| e.label == "panicked"))
        .expect("one shard span must carry the panicked event");
    assert!(
        poisoned.duration_sim_ms > 0,
        "span must keep the sim-time accrued before the crash"
    );
    let healthy = root
        .children
        .iter()
        .find(|s| !s.events.iter().any(|e| e.label == "panicked"))
        .expect("the healthy shard span");
    assert!(healthy.events.iter().all(|e| e.label != "panicked"));
}

/// Guarantee 3: the ring retains only the newest spans, evicts oldest
/// first, and the snapshot's `trace.evicted` counter reconciles.
#[test]
fn flight_recorder_is_bounded_and_evicts_oldest_first() {
    let tele = Telemetry::with_trace_capacity(3);
    let mut first_ids = Vec::new();
    for i in 0..7 {
        let mut span = tele.trace_root(format!("op:{i}"));
        span.advance(1);
        first_ids.push(span.trace_id());
        span.finish();
    }
    let rec = tele.recorder();
    assert_eq!(rec.recorded(), 7);
    assert_eq!(rec.evicted(), 4);
    assert_eq!(rec.records().len(), 3);
    let retained = rec.trace_ids();
    for old in &first_ids[..4] {
        assert!(!retained.contains(old), "oldest spans must evict first");
    }
    for new in &first_ids[4..] {
        assert!(retained.contains(new), "newest spans must be retained");
    }
    let snap = tele.snapshot();
    assert_eq!(snap.counter("trace.spans"), 7);
    assert_eq!(snap.counter("trace.evicted"), 4);
}

/// Capacity 0 disables tracing entirely — no records, no overhead state.
#[test]
fn zero_capacity_disables_tracing() {
    let tele = Telemetry::with_trace_capacity(0);
    let store = DataStore::with_telemetry(1, Arc::clone(&tele)).unwrap();
    store.insert(Entity::new("doc://0", SourceKind::Web, "fine"));
    MinerPipeline::new()
        .add(Box::new(TouchMiner))
        .run(&store, RunOpts::default(), None);
    let rec = tele.recorder();
    assert_eq!(rec.records().len(), 0);
    assert!(rec.trace_ids().is_empty());
    assert_eq!(rec.export_json_string(10), "{\n  \"traces\": []\n}");
}

/// Guarantee 4: the Chrome export of the pinned chaos run matches the
/// golden file. Regenerate with
/// `UPDATE_GOLDEN=1 cargo test --test trace -- golden`.
#[test]
fn golden_chrome_export() {
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/trace_chrome.json"
    );
    let rendered = chaos_run(20050405)
        .telemetry()
        .recorder()
        .export_chrome_string(50)
        + "\n";
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(golden_path)
        .expect("golden file missing; run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        rendered, golden,
        "Chrome trace export drifted from tests/golden/trace_chrome.json; \
         if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

/// Traces the JSON golden keeps: the index rebuild (with a failover
/// event) and the search pass.
const TRACES: usize = 2;

/// Guarantee 4 for the JSON tree export (`wfsm trace --format json`):
/// the last traces of the pinned chaos run match the golden file.
/// Regenerate with `UPDATE_GOLDEN=1 cargo test --test trace -- golden`.
#[test]
fn golden_json_export() {
    let rendered = chaos_run(20050405)
        .telemetry()
        .recorder()
        .export_json_string(TRACES)
        + "\n";
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/trace.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(golden_path)
        .expect("golden file missing; run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        rendered, golden,
        "trace JSON export drifted from tests/golden/trace.json; \
         if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}
