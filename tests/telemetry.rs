//! Regression suite for the deterministic observability layer
//! (`wf_platform::telemetry`).
//!
//! Locks down the three guarantees DESIGN.md §8 promises:
//!
//! 1. **Determinism** — the same chaos seed produces a bit-identical
//!    [`TelemetrySnapshot`] (and byte-identical JSON export) no matter how
//!    the shard workers interleave, because every recorded value derives
//!    from the seeded simulation, never from wall time.
//! 2. **Conservation** — counters reconcile: every entity entering a
//!    pipeline run leaves as processed or failed, every bus call is ok or
//!    error, and histogram bucket counts sum to the observation count.
//! 3. **Format stability** — the canonical JSON export matches a golden
//!    file (sorted keys, stable field set), so the `wfsm metrics` output
//!    format cannot drift silently.

use std::sync::Arc;
use wf_platform::{
    ChaosCluster, EntityEdit, EntityMiner, MinerPipeline, NodeHealth, TelemetrySnapshot,
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

fn touch_pipeline() -> MinerPipeline {
    MinerPipeline::new().add(Box::new(TouchMiner))
}

/// A full chaos run: ingest-seeded store, degraded and down nodes, bus
/// traffic, a pipeline pass, an index rebuild, and some queries — then
/// one cluster-wide snapshot.
fn chaos_snapshot(seed: u64) -> TelemetrySnapshot {
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
    cluster.run_pipeline(&touch_pipeline());
    cluster.rebuild_index();
    for query in ["cameras", "synthetic", "absent"] {
        let _ = cluster
            .indexer()
            .query(&wf_platform::Query::Term(query.into()));
    }
    cluster.metrics_snapshot()
}

/// Guarantee 1: bit-identical snapshots from identical seeds, across
/// fully concurrent runs touching every instrumented component.
#[test]
fn same_seed_gives_identical_snapshots() {
    let a = chaos_snapshot(20050405);
    let b = chaos_snapshot(20050405);
    assert_eq!(a, b, "same seed must reproduce the exact snapshot");
    assert_eq!(
        a.to_json_string(),
        b.to_json_string(),
        "JSON export must be byte-identical"
    );
}

/// Different seeds must actually change something (the layer is not
/// accidentally constant).
#[test]
fn different_seeds_diverge() {
    let a = chaos_snapshot(1);
    let b = chaos_snapshot(2);
    assert_ne!(a, b, "different fault seeds should perturb the metrics");
}

/// Guarantee 2 on the bus: calls partition into ok + errors.
#[test]
fn bus_counters_conserve_calls() {
    let snap = chaos_snapshot(0xBEEF);
    assert!(snap.counter("bus.calls") > 0);
    assert_eq!(
        snap.counter("bus.calls"),
        snap.counter("bus.ok") + snap.counter("bus.errors")
    );
    // flushed per-service stats agree with the bus-wide totals
    assert_eq!(
        snap.counter("bus.service.annotate.calls"),
        snap.counter("bus.calls")
    );
}

/// The JSON export round-trips exactly through the parser.
#[test]
fn snapshot_export_round_trips() {
    let snap = chaos_snapshot(7);
    let text = snap.to_json_string();
    let back = TelemetrySnapshot::from_json_str(&text).unwrap();
    assert_eq!(snap, back);
}

/// Guarantee 3: the export format matches the golden file. Regenerate
/// with `UPDATE_GOLDEN=1 cargo test --test telemetry -- golden`.
#[test]
fn golden_json_snapshot() {
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/metrics_snapshot.json"
    );
    let rendered = chaos_snapshot(20050405).to_json_string() + "\n";
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(golden_path)
        .expect("golden file missing; run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        rendered, golden,
        "metrics JSON drifted from tests/golden/metrics_snapshot.json; \
         if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

/// Parse-error paths of the snapshot format: every malformed input is a
/// descriptive `Err`, never a panic or a silently-wrong snapshot.
#[test]
fn snapshot_parse_rejects_malformed_input() {
    // not JSON at all
    let err = TelemetrySnapshot::from_json_str("counters: 1").unwrap_err();
    assert!(!err.is_empty());
    // truncated file (cut mid-object, as a partial download would be)
    let full = chaos_snapshot(5).to_json_string();
    let truncated = &full[..full.len() / 2];
    assert!(TelemetrySnapshot::from_json_str(truncated).is_err());
    // root must be an object
    let err = TelemetrySnapshot::from_json_str("[1, 2]").unwrap_err();
    assert!(err.contains("must be an object"), "{err}");
    // sections must be objects
    let err = TelemetrySnapshot::from_json_str(r#"{"counters": 7}"#).unwrap_err();
    assert!(err.contains("counters must be an object"), "{err}");
    // counters must be non-negative integers, and the message names the key
    let err = TelemetrySnapshot::from_json_str(r#"{"counters": {"x": -1}}"#).unwrap_err();
    assert!(err.contains("counter x"), "{err}");
    let err = TelemetrySnapshot::from_json_str(r#"{"counters": {"x": "many"}}"#).unwrap_err();
    assert!(err.contains("counter x"), "{err}");
    // gauges must be integers
    let err = TelemetrySnapshot::from_json_str(r#"{"gauges": {"g": true}}"#).unwrap_err();
    assert!(err.contains("gauge g"), "{err}");
    // histogram fields and buckets are validated too
    let err =
        TelemetrySnapshot::from_json_str(r#"{"histograms": {"h": {"count": "x"}}}"#).unwrap_err();
    assert!(err.contains("count"), "{err}");
    let err = TelemetrySnapshot::from_json_str(
        r#"{"histograms": {"h": {"count": 1, "sum": 1, "min": 1, "max": 1,
            "buckets": [{"le": "wide", "count": 1}]}}}"#,
    )
    .unwrap_err();
    assert!(err.contains("bucket le"), "{err}");
    let err = TelemetrySnapshot::from_json_str(
        r#"{"histograms": {"h": {"count": 1, "sum": 1, "min": 1, "max": 1,
            "buckets": [{"le": 8, "count": 1, "exemplar": {"value": null, "trace": 1}}]}}}"#,
    )
    .unwrap_err();
    assert!(err.contains("exemplar value"), "{err}");
    // buckets must be an array; the message names the histogram and field
    let err = TelemetrySnapshot::from_json_str(
        r#"{"histograms": {"h": {"count": 3, "sum": 3, "min": 1, "max": 1,
            "buckets": "lots"}}}"#,
    )
    .unwrap_err();
    assert!(err.contains("histogram h buckets"), "{err}");
    // bucket counts must sum to the histogram's count
    let err = TelemetrySnapshot::from_json_str(
        r#"{"histograms": {"h": {"count": 3, "sum": 3, "min": 1, "max": 1,
            "buckets": [{"le": 1, "count": 2}]}}}"#,
    )
    .unwrap_err();
    assert!(err.contains("histogram h buckets"), "{err}");
    assert!(err.contains("count 3"), "{err}");
    let err = TelemetrySnapshot::from_json_str(
        r#"{"histograms": {"h": {"count": 1, "sum": 1, "min": 1, "max": 1}}}"#,
    )
    .unwrap_err();
    assert!(err.contains("histogram h buckets"), "{err}");
    let err = TelemetrySnapshot::from_json_str(
        r#"{"histograms": {"h": {"count": 1, "sum": 1, "min": 1, "max": 1,
            "buckets": [{"le": 1, "count": 18446744073709551615},
                        {"le": null, "count": 2}]}}}"#,
    )
    .unwrap_err();
    assert!(err.contains("histogram h buckets"), "{err}");
}

/// Unknown keys are ignored (old readers accept newer exports), and
/// missing sections default to empty.
#[test]
fn snapshot_parse_tolerates_unknown_keys_and_missing_sections() {
    let snap = TelemetrySnapshot::from_json_str(
        r#"{"counters": {"a": 1}, "future_section": {"x": [1, 2]}, "schema_version": 9}"#,
    )
    .unwrap();
    assert_eq!(snap.counter("a"), 1);
    assert!(snap.gauges.is_empty());
    assert!(snap.histograms.is_empty());
    // an empty object parses as the default snapshot
    assert_eq!(
        TelemetrySnapshot::from_json_str("{}").unwrap(),
        TelemetrySnapshot::default()
    );
}

/// A fully-down cluster still snapshots deterministically, with every
/// entity accounted as failed.
#[test]
fn fully_down_cluster_accounts_everything_failed() {
    let cluster = ChaosCluster::new(2, 10)
        .chaos(3, 0.1)
        .down(NodeId(0))
        .down(NodeId(1))
        .build()
        .unwrap();
    cluster.run_pipeline(&touch_pipeline());
    let snap = cluster.metrics_snapshot();
    assert_eq!(snap.counter("pipeline.entities_in"), 10);
    assert_eq!(snap.counter("pipeline.processed"), 0);
    assert_eq!(snap.counter("pipeline.failed"), 10);
    assert_eq!(snap.counter("pipeline.skipped_shards"), 2);
}

/// Percentiles (p50/p95/p99) are derived from the bucket counts at
/// export time and shown in both renderings.
#[test]
fn percentiles_render_in_table_and_json() {
    let snap = chaos_snapshot(20050405);
    let table = snap.to_table();
    for col in ["p50", "p95", "p99"] {
        assert!(table.contains(col), "missing {col} column in:\n{table}");
    }
    let json = snap.to_json_string();
    for key in ["\"p50\"", "\"p95\"", "\"p99\""] {
        assert!(json.contains(key), "missing {key} in JSON export");
    }
    // spot-check one histogram: the JSON p95 equals the recomputed value
    let (name, hs) = snap
        .histograms
        .iter()
        .find(|(_, h)| h.count > 0)
        .expect("chaos run records histograms");
    let needle = format!("\"p95\": {}", hs.percentile(95.0));
    assert!(
        json.contains(&needle),
        "histogram {name} should export {needle}"
    );
}

/// The chaos run's traces land in the flight recorder, and the recorder's
/// activity shows up in the same snapshot as `trace.*` counters.
#[test]
fn trace_counters_join_the_snapshot() {
    let snap = chaos_snapshot(20050405);
    assert!(
        snap.counter("trace.spans") > 0,
        "pipeline + rebuild runs must record spans"
    );
}

/// Health changes and store churn show up in gauges.
#[test]
fn store_gauge_tracks_mutations() {
    let cluster = ChaosCluster::new(2, 5).build().unwrap();
    cluster.set_health(NodeId(1), NodeHealth::Down);
    let id = cluster.store().ids()[0];
    cluster.store().delete(id);
    let snap = cluster.metrics_snapshot();
    assert_eq!(snap.gauge("store.entities"), 4);
    assert_eq!(snap.counter("store.delete.ok"), 1);
    assert_eq!(snap.gauge("store.entities"), cluster.store().len() as i64);
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Counter conservation under arbitrary chaos: everything that
        /// goes into a pipeline run comes out processed or failed, and
        /// the registry's counters agree with the returned stats.
        #[test]
        fn entities_in_equals_processed_plus_failed(
            seed in 0u64..10_000,
            nodes in 1usize..5,
            docs in 0usize..60,
            rate_pct in 0u32..50,
        ) {
            let cluster = ChaosCluster::new(nodes, docs)
                .chaos(seed, rate_pct as f64 / 100.0)
                .build()
                .unwrap();
            let stats = cluster.run_pipeline(&touch_pipeline());
            let snap = cluster.metrics_snapshot();
            prop_assert_eq!(snap.counter("pipeline.entities_in"), docs as u64);
            prop_assert_eq!(
                snap.counter("pipeline.entities_in"),
                snap.counter("pipeline.processed") + snap.counter("pipeline.failed")
            );
            prop_assert_eq!(snap.counter("pipeline.processed"), stats.processed as u64);
            prop_assert_eq!(snap.counter("pipeline.failed"), stats.failed as u64);
            prop_assert_eq!(snap.counter("pipeline.retries"), stats.retries);
        }

        /// Histogram bucket invariants for arbitrary observation sets:
        /// bucket counts sum to the observation count, min ≤ max, and
        /// the sum matches exactly.
        #[test]
        fn histogram_invariants_hold(values in prop::collection::vec(0u64..200_000, 0..50)) {
            let tele = wf_platform::Telemetry::new();
            let h = tele.histogram("prop");
            for &v in &values {
                h.record(v);
            }
            let snap = tele.snapshot();
            let hs = snap.histogram("prop").unwrap();
            prop_assert_eq!(hs.count as usize, values.len());
            prop_assert_eq!(hs.sum, values.iter().sum::<u64>());
            // bucket counts must partition the observations
            prop_assert_eq!(hs.buckets.iter().map(|(_, c)| c).sum::<u64>(), hs.count);
            if values.is_empty() {
                prop_assert_eq!(hs.min, 0);
                prop_assert_eq!(hs.max, 0);
                prop_assert!(hs.buckets.is_empty());
            } else {
                prop_assert_eq!(hs.min, *values.iter().min().unwrap());
                prop_assert_eq!(hs.max, *values.iter().max().unwrap());
                prop_assert!(hs.min <= hs.max);
            }
            // bucket bounds strictly ascend, overflow (None) last if present
            for pair in hs.buckets.windows(2) {
                match (pair[0].0, pair[1].0) {
                    (Some(a), Some(b)) => prop_assert!(a < b),
                    (Some(_), None) => {}
                    (None, _) => prop_assert!(false, "overflow bucket must be last"),
                }
            }
        }

        /// The JSON export is a fixpoint: export → parse → export
        /// reproduces the exact bytes, for arbitrary snapshots including
        /// empty histograms and zero-count buckets. (The derived
        /// percentile keys are recomputed, not stored, so they must come
        /// out identical on re-export.)
        #[test]
        fn snapshot_json_export_is_a_fixpoint(
            counters in prop::collection::vec(0u64..1_000_000, 0..5),
            gauges in prop::collection::vec(-500i64..500, 0..4),
            steps in prop::collection::vec(1u64..50, 0..6),  // ascending bound increments
            bucket_counts in prop::collection::vec(0u64..4, 0..6), // may be zero
            overflow in 0u64..4,                             // 0 = no overflow bucket
            sum in 0u64..100_000,
        ) {
            let mut snap = TelemetrySnapshot::default();
            for (i, v) in counters.into_iter().enumerate() {
                snap.counters.insert(format!("c.{i}"), v);
            }
            for (i, v) in gauges.into_iter().enumerate() {
                snap.gauges.insert(format!("g.{i}"), v);
            }
            let mut bound = 0u64;
            let mut buckets: Vec<(Option<u64>, u64)> = Vec::new();
            let mut count = 0u64;
            for (step, c) in steps.iter().zip(bucket_counts.iter()) {
                bound += step; // strictly ascending bounds, counts may be 0
                buckets.push((Some(bound), *c));
                count += c;
            }
            if overflow > 0 {
                buckets.push((None, overflow - 1)); // possibly zero-count overflow
                count += overflow - 1;
            }
            snap.histograms.insert(
                "h.main".to_string(),
                wf_platform::HistogramSnapshot {
                    count,
                    sum,
                    min: 0,
                    max: bound,
                    buckets,
                    exemplars: Vec::new(),
                },
            );
            // an explicitly empty histogram in every case
            snap.histograms.insert(
                "h.empty".to_string(),
                wf_platform::HistogramSnapshot {
                    count: 0,
                    sum: 0,
                    min: 0,
                    max: 0,
                    buckets: Vec::new(),
                    exemplars: Vec::new(),
                },
            );
            let text = snap.to_json_string();
            let back = TelemetrySnapshot::from_json_str(&text).unwrap();
            // parse must reconstruct the snapshot, and re-export must
            // reproduce the exact bytes (the derived p50/p95/p99 keys are
            // recomputed from the buckets, never stored)
            prop_assert_eq!(&back, &snap);
            prop_assert_eq!(back.to_json_string(), text);
        }
    }
}
