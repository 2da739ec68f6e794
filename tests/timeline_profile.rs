//! Acceptance suite for the observability tier added by this PR:
//! `wf_platform::timeseries` (deterministic metrics-over-time) and
//! `wf_platform::profile` (continuous span profiling), fed by the
//! per-stage spans threaded through the serving and mining hot paths.
//!
//! Locks down the PR's guarantees end to end:
//!
//! 1. **Counter conservation** (property) — the summed `increase` over
//!    every timeline window equals the counter's final snapshot value,
//!    even when the scrape ring drops samples.
//! 2. **Profile root-sum** (property + panic scenario) — a profile's
//!    `total_ms` equals the sum of its root spans' durations, including
//!    a panicked shard's accrued time (recorded on unwind via Drop).
//! 3. **Eviction determinism** — same-seed serving runs export
//!    byte-identical collapsed stacks even when the flight recorder
//!    evicted spans (`evicted > 0`).
//! 4. **Attribution** — over the bench serving workload, named leaf
//!    stages account for ≥ 95% of total simulated time (no
//!    "unattributed" bucket above 5%).
//! 5. **Goldens** — the pinned chaos scenario's collapsed profile,
//!    JSON profile and timeline JSON, and the diff of two seeds'
//!    profiles, match checked-in goldens byte for byte
//!    (`UPDATE_GOLDEN=1` regens), and double runs are byte-identical.

mod common;

use common::{assert_golden, chaos_backend, chaos_serve_loop, CHAOS_SEED};
use proptest::prelude::*;
use std::sync::Arc;
use wf_platform::{
    Cluster, DataStore, Entity, EntityEdit, EntityMiner, FaultContext, FaultPlan, Ingestor,
    MinerPipeline, Profile, RawDocument, RunDiff, RunOpts, ServeLoop, ServingConfig, SourceKind,
    Telemetry, TimeSeriesStore,
};
use wf_sentiment::{AdhocSentimentMiner, SentimentServingBackend, ShardedSentimentIndex};
use wf_types::{Result, RetryPolicy};

// ---------------------------------------------------------------------
// 1. counter conservation through the scrape ring (property)
// ---------------------------------------------------------------------

proptest! {
    /// Conservation law: summing a counter's `increase` over every
    /// retained window telescopes to exactly its final snapshot value —
    /// monotonicity makes this hold even when the ring drops samples,
    /// because the oldest retained window measures against the implicit
    /// zero baseline.
    #[test]
    fn counter_increase_conserves_final_value(
        deltas in prop::collection::vec(0u64..50, 1..40),
        capacity in 1usize..6,
        step in 1u64..20,
    ) {
        let telemetry = Telemetry::new();
        let series = TimeSeriesStore::new(capacity, 1);
        let counter = telemetry.counter("prop.ops");
        let mut now = 0u64;
        for delta in &deltas {
            counter.add(*delta);
            now += step;
            series.scrape_at(now, telemetry.snapshot());
        }
        let timeline = series.timeline();
        let expected: u64 = deltas.iter().sum();
        prop_assert_eq!(timeline.total_increase("prop.ops"), expected);
        prop_assert_eq!(
            timeline.total_increase("prop.ops"),
            telemetry.snapshot().counter("prop.ops")
        );
        // the ring really did drop samples when it was supposed to
        prop_assert_eq!(
            timeline.dropped,
            (deltas.len() as u64).saturating_sub(capacity as u64)
        );
    }

    /// A profile's `total_ms` is exactly the sum of its root spans'
    /// durations, whatever tree shape the workload produced. (Stage
    /// costs are dealt round-robin onto the roots: the shim's proptest
    /// has no tuple strategies, so the tree is decoded from flat vecs.)
    #[test]
    fn profile_total_is_the_sum_of_root_span_durations(
        owns in prop::collection::vec(0u64..30, 1..8),
        stage_costs in prop::collection::vec(1u64..12, 0..20),
    ) {
        let telemetry = Telemetry::new();
        let mut expected = 0u64;
        for (i, own) in owns.iter().enumerate() {
            let mut root = telemetry.trace_root(format!("job{}", i % 3));
            root.advance(*own);
            for (j, cost) in stage_costs
                .iter()
                .enumerate()
                .filter(|(j, _)| j % owns.len() == i)
            {
                let mut stage = root.child(format!("stage{}", j % 2));
                stage.advance(*cost);
                stage.finish();
                root.advance(*cost);
            }
            expected += root.elapsed_sim_ms();
            root.finish();
        }
        let profile = Profile::from_records(&telemetry.recorder().records());
        prop_assert_eq!(profile.total_ms, expected);
        prop_assert!(profile.attributed_ms() <= profile.total_ms);
    }
}

// ---------------------------------------------------------------------
// 2. panicked shards keep their accrued time in the profile
// ---------------------------------------------------------------------

struct PanicMiner;
impl EntityMiner for PanicMiner {
    fn name(&self) -> &str {
        "panic-miner"
    }
    fn process(&self, entity: &mut EntityEdit<'_>) -> Result<()> {
        if entity.text.contains("poison") {
            panic!("injected miner crash");
        }
        Ok(())
    }
}

/// The root-sum law survives a shard panic: the crashed shard's span
/// records its accrued simulated time on unwind (via Drop), and the
/// profile counts it — crash time is attributed, not lost.
#[test]
fn profile_total_includes_panicked_shards_accrued_time() {
    let store = DataStore::new(2).unwrap();
    store.insert(Entity::new("a", SourceKind::Web, "fine")); // doc 0, shard 0
    store.insert(Entity::new("b", SourceKind::Web, "fine")); // doc 1, shard 1
    store.insert(Entity::new("c", SourceKind::Web, "fine")); // doc 2, shard 0
    store.insert(Entity::new("d", SourceKind::Web, "poison pill")); // doc 3, shard 1
    let plan = FaultPlan::new(7); // zero fault rates, 1 sim-ms per op
    let opts = RunOpts {
        batch: 1,
        faults: FaultContext {
            plan: Some(&plan),
            retry: RetryPolicy::default(),
            health: &[],
        },
    };
    let stats = MinerPipeline::new()
        .add(Box::new(PanicMiner))
        .run(&store, opts, None);
    assert_eq!(stats.skipped_shards, 1);
    assert_eq!(stats.shard_sim_ms, vec![2, 2]);

    let records = store.telemetry().recorder().records();
    let root_sum: u64 = records
        .iter()
        .filter(|r| !r.path.contains('/'))
        .map(|r| r.duration_sim_ms)
        .sum();
    let profile = Profile::from_records(&records);
    assert_eq!(profile.total_ms, root_sum, "root-sum law holds under panic");
    let run = &profile.roots["pipeline.run"];
    assert_eq!(
        run.children["shard:1"].total_ms, 2,
        "crashed shard keeps the 2 sim-ms it accrued before the panic"
    );
}

// ---------------------------------------------------------------------
// 3. eviction does not break collapsed-stack determinism
// ---------------------------------------------------------------------

fn evicting_chaos_collapsed() -> (u64, String) {
    let backend = chaos_backend();
    // tiny ring: the 240-request scenario must overflow it
    let telemetry = Telemetry::with_trace_capacity(64);
    chaos_serve_loop(&backend, Arc::clone(&telemetry), CHAOS_SEED)
        .run()
        .unwrap();
    let profile = Profile::from_recorder(telemetry.recorder(), usize::MAX);
    (telemetry.recorder().evicted(), profile.to_collapsed())
}

/// Same-seed runs export byte-identical collapsed stacks even when the
/// flight recorder evicted spans: the serving loop is single-threaded,
/// so the retained span *set* is identical, and the fold keys on paths.
#[test]
fn eviction_preserves_collapsed_stack_determinism() {
    let (evicted_a, collapsed_a) = evicting_chaos_collapsed();
    let (evicted_b, collapsed_b) = evicting_chaos_collapsed();
    assert!(
        evicted_a > 0,
        "scenario must actually overflow the 64-span ring"
    );
    assert_eq!(evicted_a, evicted_b);
    assert_eq!(
        collapsed_a, collapsed_b,
        "collapsed stacks must not drift under eviction"
    );
    assert!(
        collapsed_a.contains("serve.query;"),
        "stages survive: {collapsed_a}"
    );
}

// ---------------------------------------------------------------------
// 4. attribution over the bench serving workload
// ---------------------------------------------------------------------

/// ≥ 95% of the bench serving workload's simulated time (the serving
/// corpus and request mix of `crates/bench/benches/serving.rs`, rebuilt
/// here so `cargo test` enforces it) lands in named leaf stages (queue_wait / cache_lookup / shard_fanout / ...): the
/// per-stage spans threaded through the miss path leave no
/// "unattributed" bucket above 5%.
#[test]
fn bench_serving_workload_attribution_exceeds_95_percent() {
    let cluster = Cluster::new(4).unwrap();
    let raw: Vec<RawDocument> = wf_corpus::serving_corpus(96)
        .into_iter()
        .enumerate()
        .map(|(i, text)| RawDocument::new(format!("bench://serving/{i}"), SourceKind::Web, text))
        .collect();
    Ingestor::new(cluster.store()).ingest_batch(raw);
    let pipeline = MinerPipeline::new().add(Box::new(AdhocSentimentMiner::new()));
    cluster.run_pipeline(&pipeline);
    let backend =
        SentimentServingBackend::new(ShardedSentimentIndex::build_from_store(cluster.store()));

    // fresh telemetry, sized so 1200 requests' spans all fit: eviction
    // would silently shrink the denominator
    let telemetry = Telemetry::with_trace_capacity(1 << 15);
    let config = ServingConfig {
        seed: CHAOS_SEED,
        clients: 16,
        qps: 500,
        requests: 1200,
        cache_capacity: 32,
        queue_capacity: 24,
        ..ServingConfig::default()
    };
    ServeLoop::new(
        &backend,
        Arc::clone(&telemetry),
        config,
        wf_corpus::serving_requests(),
    )
    .run()
    .unwrap();
    assert_eq!(telemetry.recorder().evicted(), 0, "grow the ring");

    let profile = Profile::from_recorder(telemetry.recorder(), usize::MAX);
    assert!(profile.total_ms > 0);
    let milli = profile.attributed_milli();
    assert!(
        milli >= 950,
        "only {milli}‰ of {} sim-ms attributed to named stages:\n{}",
        profile.total_ms,
        profile.to_text()
    );
}

// ---------------------------------------------------------------------
// 5. pinned chaos run: goldens + byte-identical double export
// ---------------------------------------------------------------------

/// Chaos serving run with a timeline attached: returns the collapsed
/// profile and the timeline JSON export.
fn observed_chaos_run() -> (String, String) {
    let backend = chaos_backend();
    let telemetry = Telemetry::new();
    let timeline = Arc::new(TimeSeriesStore::new(64, 20));
    chaos_serve_loop(&backend, Arc::clone(&telemetry), CHAOS_SEED)
        .with_timeline(Arc::clone(&timeline))
        .run()
        .unwrap();
    let collapsed = Profile::from_recorder(telemetry.recorder(), usize::MAX).to_collapsed();
    let timeline_json = timeline.timeline().to_json_string() + "\n";
    (collapsed, timeline_json)
}

/// Same seed, same bytes, for both exports — and the timeline actually
/// sampled the run rather than just the final flush.
#[test]
fn observed_run_exports_are_byte_identical() {
    let (collapsed_a, timeline_a) = observed_chaos_run();
    let (collapsed_b, timeline_b) = observed_chaos_run();
    assert_eq!(collapsed_a, collapsed_b, "collapsed stacks drifted");
    assert_eq!(timeline_a, timeline_b, "timeline JSON drifted");
    assert!(timeline_a.contains("\"serving.requests\""));
    assert!(collapsed_a.contains("serve.query;shard_fanout"));
}

/// The pinned scenario's collapsed profile matches the checked-in
/// golden byte for byte. `UPDATE_GOLDEN=1` regenerates.
#[test]
fn collapsed_profile_matches_golden() {
    let (collapsed, _) = observed_chaos_run();
    assert_golden("profile_collapsed.txt", &collapsed);
}

/// The pinned scenario's timeline JSON matches the checked-in golden
/// byte for byte. `UPDATE_GOLDEN=1` regenerates.
#[test]
fn timeline_json_matches_golden() {
    let (_, timeline_json) = observed_chaos_run();
    assert_golden("timeline.json", &timeline_json);
}

/// The pinned scenario's folded profile under `seed`.
fn chaos_profile(seed: u64) -> Profile {
    let backend = chaos_backend();
    let telemetry = Telemetry::new();
    chaos_serve_loop(&backend, Arc::clone(&telemetry), seed)
        .run()
        .unwrap();
    Profile::from_recorder(telemetry.recorder(), usize::MAX)
}

/// The pinned scenario's JSON profile (`wfsm profile --format json`)
/// matches the checked-in golden byte for byte. `UPDATE_GOLDEN=1`
/// regenerates.
#[test]
fn json_profile_matches_golden() {
    assert_golden("profile.json", &chaos_profile(CHAOS_SEED).to_json_string());
}

/// The diff of two seeds' JSON profiles (`wfsm diff --format json` over
/// two profile exports) matches the checked-in golden byte for byte.
/// `UPDATE_GOLDEN=1` regenerates.
#[test]
fn profile_diff_matches_golden() {
    let a = chaos_profile(CHAOS_SEED).to_json_string();
    let b = chaos_profile(CHAOS_SEED + 1).to_json_string();
    let diff = RunDiff::between_texts(&a, &b).unwrap();
    assert!(!diff.stages.is_empty(), "the seeds must diverge");
    assert_golden("profile_diff.json", &diff.to_json_string());
}
