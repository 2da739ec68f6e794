//! Robustness suite: the simulated cluster under deterministic fault
//! injection.
//!
//! Every scenario drives real platform components (service bus, sharded
//! store, miner pipeline, cluster manager) through a seeded [`FaultPlan`]
//! and asserts the invariants that make chaos testing trustworthy:
//! conservation (`processed + failed == store.len()`), retry idempotence
//! (entity versions never double-increment), bounded monotone backoff,
//! and bit-for-bit reproducibility from the seed — all on a simulated
//! clock, with no wall-clock sleeps anywhere.

use std::sync::Arc;
use wf_platform::{
    ChaosCluster, Cluster, Entity, EntityEdit, EntityMiner, FaultContext, FaultKind, FaultPlan,
    FaultRates, MinerPipeline, NodeHealth, PipelineStats, RunOpts, ServiceBus, SourceKind,
};
use wf_sentiment::AdhocSentimentMiner;
use wf_types::{Error, NodeId, Result, RetryPolicy};

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

struct PanicOnMarker;
impl EntityMiner for PanicOnMarker {
    fn name(&self) -> &str {
        "panic-on-marker"
    }
    fn process(&self, entity: &mut EntityEdit<'_>) -> Result<()> {
        assert!(
            !entity.text.contains("KABOOM"),
            "injected mid-pipeline crash"
        );
        Ok(())
    }
}

fn touch_pipeline() -> MinerPipeline {
    MinerPipeline::new().add(Box::new(TouchMiner))
}

/// Scenario 1: conservation holds under a moderate uniform fault plan.
#[test]
fn conservation_under_uniform_chaos() {
    let cluster = ChaosCluster::new(4, 200)
        .chaos(0xBAD5EED, 0.15)
        .build()
        .unwrap();
    let stats = cluster.run_pipeline(&touch_pipeline());
    assert_eq!(
        stats.processed + stats.failed,
        cluster.store().len(),
        "every entity is accounted for exactly once: {stats:?}"
    );
    assert!(stats.retries > 0, "15% fault rate must provoke retries");
    assert_eq!(stats.shard_sim_ms.len(), 4, "one sim-time entry per shard");
}

/// Scenario 2: every node Degraded — amplified fault rates, still
/// conservative, still making progress.
#[test]
fn all_nodes_degraded_still_makes_progress() {
    let cluster = ChaosCluster::new(4, 120)
        .chaos(0xD16E57, 0.05)
        .degrade_all()
        .build()
        .unwrap();
    assert!(cluster.healths().iter().all(|h| *h == NodeHealth::Degraded));
    let stats = cluster.run_pipeline(&touch_pipeline());
    assert_eq!(stats.processed + stats.failed, 120, "{stats:?}");
    assert!(
        stats.processed > 60,
        "a degraded cluster limps, it does not halt: {stats:?}"
    );
    assert!(stats.retries > 0, "degradation amplifies transient faults");
}

/// Scenario 3: a shard worker panicking mid-pipeline is contained — the
/// crashed shard converts to counted failures, other shards finish.
#[test]
fn worker_panic_mid_pipeline_is_contained() {
    let cluster = ChaosCluster::new(4, 40).build().unwrap();
    // plant a poison document; DocId 40 lands on shard 40 % 4 == 0
    let poison = cluster
        .store()
        .insert(Entity::new("chaos://poison", SourceKind::Web, "KABOOM"));
    let poisoned_shard = NodeId((poison.as_u64() % 4) as u32);
    let pipeline = MinerPipeline::new().add(Box::new(PanicOnMarker));
    let stats = cluster.run_pipeline(&pipeline);
    assert_eq!(stats.skipped_shards, 1, "{stats:?}");
    assert_eq!(stats.processed + stats.failed, 41, "{stats:?}");
    let shard_size = cluster.store().shard_ids(poisoned_shard).len();
    assert_eq!(
        stats.failed, shard_size,
        "whole crashed shard counted failed"
    );
}

/// Scenario 4: a Down node's shard fails over to a healthy node; with
/// the whole cluster down, shards are skipped instead of panicking.
#[test]
fn down_nodes_fail_over_then_skip() {
    let cluster = ChaosCluster::new(4, 80).down(NodeId(3)).build().unwrap();
    let stats = cluster.run_pipeline(&touch_pipeline());
    assert_eq!(stats.processed, 80, "failover loses nothing: {stats:?}");
    assert_eq!(stats.failed_over, 1);
    assert_eq!(stats.skipped_shards, 0);

    for n in 0..4 {
        cluster.set_health(NodeId(n), NodeHealth::Down);
    }
    let stats = cluster.run_pipeline(&touch_pipeline());
    assert_eq!(stats.processed, 0);
    assert_eq!(stats.failed, 80);
    assert_eq!(stats.skipped_shards, 4, "nowhere to fail over: {stats:?}");
    let idx = cluster.rebuild_index();
    assert_eq!(idx.skipped_shards, 4);
    assert_eq!(idx.indexed, 0);
}

/// Scenario 5: retry idempotence — conflicts are injected before the
/// store mutation, so a retried entity's version increments exactly once.
#[test]
fn retries_never_double_increment_versions() {
    let cluster = ChaosCluster::new(2, 60)
        .plan(FaultPlan::new(0x1D3).with_rates(FaultRates {
            store_conflict: 0.5,
            ..FaultRates::default()
        }))
        .retry(RetryPolicy {
            max_retries: 20,
            base_backoff_ms: 1,
            max_backoff_ms: 16,
            timeout_budget_ms: u64::MAX,
        })
        .build()
        .unwrap();
    let stats = cluster.run_pipeline(&touch_pipeline());
    assert_eq!(
        stats.processed, 60,
        "20 retries absorb 50% conflicts: {stats:?}"
    );
    assert!(stats.retries >= 20, "conflicts must actually have fired");
    for id in cluster.store().ids() {
        let e = cluster.store().get(id).unwrap();
        assert_eq!(
            e.version, 2,
            "insert(v1) + exactly one successful update(v2), got v{} for {id}",
            e.version
        );
    }
}

/// Scenario 6: identical chaos seeds produce byte-identical PipelineStats
/// (and different seeds diverge).
#[test]
fn identical_seeds_give_byte_identical_stats() {
    let run = |seed: u64| {
        let cluster = ChaosCluster::new(4, 150)
            .chaos(seed, 0.2)
            .degrade(NodeId(1))
            .down(NodeId(2))
            .build()
            .unwrap();
        cluster.run_pipeline(&touch_pipeline())
    };
    let a = run(0xA11CE);
    let b = run(0xA11CE);
    assert_eq!(a, b);
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "Debug rendering must match byte for byte"
    );
    let c = run(0xB0B);
    assert_ne!(a, c, "different seeds must explore different fault paths");
}

/// Scenario 7: the service bus retries injected outages with bounded,
/// monotone backoff and enforces its simulated timeout budget.
#[test]
fn service_bus_backoff_is_bounded_and_monotone() {
    let bus = ServiceBus::new();
    bus.register(
        "search",
        Arc::new(|_: &serde_json::Value| Ok(serde_json::json!("hit"))),
    );
    bus.set_fault_plan(Some(FaultPlan::new(0xFEED).with_rates(FaultRates {
        node_down: 0.6,
        ..FaultRates::default()
    })));
    let policy = RetryPolicy {
        max_retries: 12,
        base_backoff_ms: 4,
        max_backoff_ms: 64,
        timeout_budget_ms: u64::MAX,
    };
    bus.set_retry_policy(policy);
    let mut total_retries = 0;
    for _ in 0..80 {
        let (_, outcome) = bus.call_detailed("search", &serde_json::json!({}), None);
        for (i, backoff) in outcome.backoffs_ms.iter().enumerate() {
            assert_eq!(*backoff, policy.backoff_for(i as u32 + 1));
            assert!(*backoff <= policy.max_backoff_ms);
            if i > 0 {
                assert!(outcome.backoffs_ms[i] >= outcome.backoffs_ms[i - 1]);
            }
        }
        assert_eq!(outcome.backoffs_ms.len(), outcome.retries as usize);
        total_retries += outcome.retries;
    }
    assert!(total_retries > 0, "60% outage rate must trigger backoff");
}

/// Scenario 8: unregistering a service makes calls fail without retry
/// (application error, not transient) while keeping its statistics.
#[test]
fn unregistered_service_fails_fast_keeps_stats() {
    let bus = ServiceBus::new();
    bus.register(
        "index",
        Arc::new(|_: &serde_json::Value| Ok(serde_json::json!(1))),
    );
    bus.set_retry_policy(RetryPolicy::default());
    assert!(bus.call("index", &serde_json::json!({})).is_ok());
    assert!(bus.unregister("index"));
    let (result, outcome) = bus.call_detailed("index", &serde_json::json!({}), None);
    assert!(matches!(result, Err(Error::Service(_))), "{result:?}");
    assert_eq!(
        outcome.attempts, 1,
        "unregistered is terminal, never retried"
    );
    assert_eq!(bus.stats("index"), Some((2, 1)));
}

/// Scenario 9: timeouts come from the simulated clock, not wall time —
/// a call that "waits" minutes of simulated backoff returns instantly.
#[test]
fn timeouts_are_simulated_not_slept() {
    let bus = ServiceBus::new();
    bus.register(
        "slow",
        Arc::new(|_: &serde_json::Value| Ok(serde_json::json!("zzz"))),
    );
    bus.set_fault_plan(Some(FaultPlan::new(0x51EE9).with_rates(FaultRates {
        node_down: 1.0,
        slow_latency_ms: 10_000,
        ..FaultRates::default()
    })));
    bus.set_retry_policy(RetryPolicy {
        max_retries: 1_000,
        base_backoff_ms: 1_000,
        max_backoff_ms: 60_000,
        timeout_budget_ms: 120_000, // two simulated minutes
    });
    let wall = std::time::Instant::now();
    let (result, outcome) = bus.call_detailed("slow", &serde_json::json!({}), None);
    assert!(matches!(result, Err(Error::Timeout(_))), "{result:?}");
    assert!(
        outcome.sim_elapsed_ms > 120_000,
        "simulated clock ran past the budget: {outcome:?}"
    );
    assert!(
        wall.elapsed() < std::time::Duration::from_secs(2),
        "two simulated minutes must cost near-zero wall time"
    );
}

/// Scenario 10: a zero-rate plan is transparent — the seed is irrelevant
/// when no fault can fire, and every entity processes exactly once.
#[test]
fn zero_rate_plan_is_transparent() {
    let with_plan = ChaosCluster::new(3, 50).chaos(9, 0.0).build().unwrap();
    let stats_plan = with_plan.run_pipeline(&touch_pipeline());
    let other_seed = ChaosCluster::new(3, 50).chaos(77, 0.0).build().unwrap();
    let stats_other = other_seed.run_pipeline(&touch_pipeline());
    assert_eq!(stats_plan, stats_other, "seeds cannot matter at rate zero");
    assert_eq!(stats_plan.processed, 50);
    assert_eq!(stats_plan.failed, 0);
    assert_eq!(stats_plan.retries, 0);
    assert_eq!(stats_plan.skipped_shards, 0);
    for id in with_plan.store().ids() {
        assert_eq!(with_plan.store().get(id).unwrap().version, 2);
    }
}

/// Regression: `PipelineStats` totals must equal the telemetry
/// registry's `pipeline.*` counters exactly, under the same three pinned
/// chaos seeds CI's fault suite runs: the stats struct and the metrics
/// layer are two views of one run and may never disagree.
#[test]
fn pipeline_stats_reconcile_with_telemetry_counters() {
    for seed in [20050405u64, 3405691582, 3735928559] {
        let cluster = ChaosCluster::new(4, 80)
            .chaos(seed, 0.15)
            .degrade(NodeId(0))
            .down(NodeId(3))
            .build()
            .unwrap();
        let stats = cluster.run_pipeline(&touch_pipeline());
        let snap = cluster.metrics_snapshot();
        assert_eq!(
            snap.counter("pipeline.entities_in"),
            80,
            "seed {seed}: every stored entity enters the run"
        );
        assert_eq!(
            snap.counter("pipeline.processed"),
            stats.processed as u64,
            "seed {seed}"
        );
        assert_eq!(
            snap.counter("pipeline.failed"),
            stats.failed as u64,
            "seed {seed}"
        );
        assert_eq!(
            snap.counter("pipeline.retries"),
            stats.retries,
            "seed {seed}"
        );
        assert_eq!(
            snap.counter("pipeline.skipped_shards"),
            stats.skipped_shards as u64,
            "seed {seed}"
        );
        assert_eq!(
            snap.counter("pipeline.failed_over"),
            stats.failed_over as u64,
            "seed {seed}"
        );
        let spans = snap
            .histogram("span.pipeline.shard.sim_ms")
            .expect("per-shard spans recorded");
        assert_eq!(
            spans.count as usize,
            stats.shard_sim_ms.len(),
            "seed {seed}"
        );
        assert_eq!(
            spans.sum,
            stats.shard_sim_ms.iter().sum::<u64>(),
            "seed {seed}: span histogram carries the exact shard sim-ms"
        );
    }
}

/// Accumulation across runs: a second pipeline pass adds onto the same
/// registry counters rather than resetting them.
#[test]
fn telemetry_accumulates_across_pipeline_runs() {
    let cluster = ChaosCluster::new(2, 30).chaos(42, 0.1).build().unwrap();
    let first = cluster.run_pipeline(&touch_pipeline());
    let second = cluster.run_pipeline(&touch_pipeline());
    let snap = cluster.metrics_snapshot();
    assert_eq!(snap.counter("pipeline.runs"), 2);
    assert_eq!(snap.counter("pipeline.entities_in"), 60);
    assert_eq!(
        snap.counter("pipeline.processed"),
        (first.processed + second.processed) as u64
    );
    assert_eq!(
        snap.counter("pipeline.failed"),
        (first.failed + second.failed) as u64
    );
}

/// A 4-node cluster of 80 news pages naming companies, under a uniform
/// 15% fault plan from `seed`, with node 1 Degraded and node 2 Down.
fn chaos_news_cluster(seed: u64) -> Cluster {
    const COMPANIES: [&str; 5] = ["Petrocorp", "Medicore", "Acme", "Globex", "Initech"];
    let cluster = Cluster::new(4).unwrap();
    for i in 0..80 {
        let (a, b) = (COMPANIES[i % 5], COMPANIES[(i / 5) % 5]);
        cluster.store().insert(Entity::new(
            format!("news://{i}"),
            SourceKind::News,
            format!(
                "{a} delivered excellent results in quarter {i}. \
                 Critics said {b} polluted the river. Nothing else happened."
            ),
        ));
    }
    cluster.set_fault_plan(Some(FaultPlan::uniform(seed, 0.15)));
    cluster.set_health(NodeId(1), NodeHealth::Degraded);
    cluster.set_health(NodeId(2), NodeHealth::Down);
    cluster
}

/// Every stored entity, in id order.
fn stored_entities(cluster: &Cluster) -> Vec<Entity> {
    let store = cluster.store();
    store
        .ids()
        .into_iter()
        .map(|id| store.get(id).unwrap())
        .collect()
}

/// Differential: batched + chaos ≡ per-entity + chaos. Under the pinned
/// seeds, every batch size gives the stats of the cluster's per-entity
/// run — every field, per-shard outcomes and simulated time included —
/// and the same stored entities, both for a zero-cost miner and for the
/// sentiment miner that charges its NLP stages to the shard span.
#[test]
fn batch_size_never_changes_a_chaos_run() {
    let miners: [fn() -> Box<dyn EntityMiner>; 2] = [
        || Box::new(TouchMiner),
        || Box::new(AdhocSentimentMiner::new()),
    ];
    for seed in [20050405u64, 3405691582, 3735928559] {
        for make in miners {
            let pipeline = MinerPipeline::new().add(make());
            let per_entity = chaos_news_cluster(seed);
            let expected = per_entity.run_pipeline(&pipeline);
            assert!(
                expected.failed > 0 && expected.retries > 0 && expected.failed_over == 1,
                "seed {seed}: the chaos must bite: {expected:?}"
            );
            let expected_entities = stored_entities(&per_entity);
            for batch in [1, 2, 7, 64] {
                let cluster = chaos_news_cluster(seed);
                let plan = FaultPlan::uniform(seed, 0.15);
                let health = cluster.healths();
                let opts = RunOpts {
                    batch,
                    faults: FaultContext {
                        plan: Some(&plan),
                        retry: cluster.retry_policy(),
                        health: &health,
                    },
                };
                let stats: PipelineStats = pipeline.run(cluster.store(), opts, None);
                let name = pipeline.miner_names()[0];
                assert_eq!(stats, expected, "seed {seed}, {name}, batch {batch}");
                assert!(
                    stored_entities(&cluster) == expected_entities,
                    "seed {seed}, {name}, batch {batch}: stored entities diverged"
                );
            }
        }
    }
}

/// Scenario 11: each fault-path event is written once, to its span and
/// its log record together. One chaos scenario runs through the bus
/// (traced), a faulted ingestor, the miner and two index rebuilds (one
/// Down node, then none up). Every `fault:`, `retry:`, `timeout`,
/// `unplaced` and `failover:` span event has exactly one record with its
/// trace, span and time on the clock (the trace's opening time plus the
/// event's offset), and every record those paths write
/// stands at a span event: a `retries exhausted` record at its final
/// fault, a bus `call failed` at the call's `error:` event.
#[test]
fn every_fault_event_has_exactly_one_log_record() {
    use std::collections::BTreeMap;
    use wf_platform::{Ingestor, RawDocument};
    let mut exhausted = 0;
    for seed in [20050405, 3405691582, 3735928559] {
        let plan = FaultPlan::uniform(seed, 0.2);
        // a budget one slow response and a backoff can spend
        let retry = RetryPolicy {
            max_retries: 2,
            base_backoff_ms: 10,
            max_backoff_ms: 80,
            timeout_budget_ms: 260,
        };
        let cluster = ChaosCluster::new(4, 40)
            .plan(plan.clone())
            .retry(retry)
            .down(NodeId(2))
            .build()
            .unwrap();
        let tele = Arc::clone(cluster.telemetry());
        cluster.bus().register(
            "svc",
            Arc::new(|_: &serde_json::Value| Ok(serde_json::json!(1))),
        );
        let mut root = tele.trace_root("scenario");
        for _ in 0..12 {
            let _ = cluster
                .bus()
                .call_detailed("svc", &serde_json::json!({}), Some(&mut root));
        }
        let _ = cluster
            .bus()
            .call_detailed("missing", &serde_json::json!({}), Some(&mut root));
        let docs = (0..16).map(|i| RawDocument::new(format!("u{i}"), SourceKind::Web, "text"));
        Ingestor::new(cluster.store())
            .with_faults(&plan, retry)
            .ingest_batch_traced(docs, &mut root);
        root.finish();
        cluster.run_pipeline(&touch_pipeline());
        cluster.rebuild_index();
        for n in 0..4 {
            cluster.set_health(NodeId(n), NodeHealth::Down);
        }
        cluster.rebuild_index();

        let log = tele.evlog();
        assert_eq!((log.sampled(), log.dropped()), (0, 0), "seed {seed}");
        // each event label prefix and the message of its record
        let kinds = [
            ("fault:", "fault injected"),
            ("retry:", "retrying transient failure"),
            ("timeout", "timeout"),
            ("unplaced", "shard unplaced: no healthy node"),
            ("failover:", "shard failed over"),
        ];
        let message_of = |label: &str| {
            kinds
                .iter()
                .find(|(prefix, _)| label.starts_with(prefix))
                .map(|(_, message)| message.to_string())
        };
        // (trace, span, clock ms, message) → how many events / records;
        // an event stands on the clock at its trace's opening time plus
        // its offset in the trace
        let mut events: BTreeMap<_, usize> = BTreeMap::new();
        let mut instants = std::collections::BTreeSet::new();
        for span in tele.recorder().records() {
            for e in &span.events {
                let at = span.opened_ms + e.at_sim_ms;
                instants.insert((span.trace, span.id, at));
                if let Some(message) = message_of(&e.label) {
                    *events
                        .entry((span.trace, span.id, at, message))
                        .or_default() += 1;
                }
            }
        }
        let mut records: BTreeMap<_, usize> = BTreeMap::new();
        let fault_paths = ["bus.svc:", "ingest", "miner.shard:", "index.shard:"];
        for r in log.records() {
            if !fault_paths.iter().any(|t| r.target.starts_with(t)) {
                continue;
            }
            let (trace, span) = (r.trace.expect("traced"), r.span.expect("traced"));
            assert!(
                instants.contains(&(trace, span, r.sim_ms)),
                "seed {seed}: {r:?} stands at no span event"
            );
            if kinds.iter().any(|(_, message)| r.message == *message) {
                *records
                    .entry((trace, span, r.sim_ms, r.message.clone()))
                    .or_default() += 1;
            }
        }
        assert!(events.values().all(|&n| n == 1), "seed {seed}");
        assert_eq!(events, records, "seed {seed}");
        let written = |what: &str| events.keys().filter(|k| k.3 == what).count();
        for what in [
            "fault injected",
            "retrying transient failure",
            "timeout",
            "shard failed over",
            "shard unplaced: no healthy node",
        ] {
            assert!(written(what) > 0, "seed {seed}: no {what:?}");
        }
        let targets: Vec<String> = log.records().into_iter().map(|r| r.target).collect();
        for target in ["ingest", "index.shard:2", "index.shard:0", "bus.svc:svc"] {
            assert!(targets.iter().any(|t| t == target), "seed {seed}: {target}");
        }
        let records = log.records();
        exhausted += records
            .iter()
            .filter(|r| r.message == "retries exhausted")
            .count();
    }
    assert!(exhausted > 0, "no operation ran out of retries");
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Conservation under arbitrary fault plans, shard counts and
        /// corpus sizes: processed + failed == store.len(), always.
        #[test]
        fn stats_conserve_entities(
            seed in 0u64..10_000,
            nodes in 1usize..6,
            docs in 0usize..80,
            rate_pct in 0u32..60,
        ) {
            let cluster = ChaosCluster::new(nodes, docs)
                .chaos(seed, rate_pct as f64 / 100.0)
                .build()
                .unwrap();
            let stats = cluster.run_pipeline(&touch_pipeline());
            prop_assert_eq!(stats.processed + stats.failed, docs);
            prop_assert_eq!(stats.shard_sim_ms.len(), nodes);
        }

        /// Backoff is monotone non-decreasing and bounded by the cap for
        /// any policy.
        #[test]
        fn backoff_monotone_and_bounded(
            base in 0u64..5_000,
            cap_extra in 0u64..100_000,
            retries in 1u32..64,
        ) {
            let policy = RetryPolicy {
                max_retries: retries,
                base_backoff_ms: base,
                max_backoff_ms: base + cap_extra,
                timeout_budget_ms: u64::MAX,
            };
            let mut prev = 0u64;
            for r in 1..=retries {
                let b = policy.backoff_for(r);
                prop_assert!(b >= prev, "shrank at retry {}: {} < {}", r, b, prev);
                prop_assert!(b <= policy.max_backoff_ms);
                prev = b;
            }
        }

        /// Same seed ⇒ identical CallOutcome sequence from the bus;
        /// sequences are compared field by field via Debug.
        #[test]
        fn call_outcome_sequence_is_deterministic(
            seed in 0u64..100_000,
            calls in 1usize..30,
            rate_pct in 0u32..80,
        ) {
            let run = || {
                let bus = ServiceBus::new();
                bus.register("svc", Arc::new(|_: &serde_json::Value| {
                    Ok(serde_json::json!("ok"))
                }));
                bus.set_fault_plan(Some(FaultPlan::uniform(seed, rate_pct as f64 / 100.0)));
                bus.set_retry_policy(RetryPolicy {
                    max_retries: 4,
                    base_backoff_ms: 2,
                    max_backoff_ms: 32,
                    timeout_budget_ms: 5_000,
                });
                (0..calls)
                    .map(|i| {
                        let (_, outcome) = bus.call_detailed("svc", &serde_json::json!(i), None);
                        format!("{outcome:?}")
                    })
                    .collect::<Vec<_>>()
            };
            prop_assert_eq!(run(), run());
        }

        /// The per-site stream decouples sites: interleaving traffic on
        /// one site never changes another site's draw sequence.
        #[test]
        fn fault_streams_are_site_independent(
            seed in 0u64..100_000,
            burst in 1usize..8,
        ) {
            let plan = FaultPlan::uniform(seed, 0.5);
            let mut solo = plan.stream("site-a");
            let expected: Vec<Option<FaultKind>> = (0..20).map(|_| solo.draw()).collect();
            let mut a = plan.stream("site-a");
            let mut b = plan.stream("site-b");
            let mut seen = Vec::new();
            for _ in 0..20 {
                for _ in 0..burst {
                    let _ = b.draw(); // site-b traffic between site-a draws
                }
                seen.push(a.draw());
            }
            prop_assert_eq!(seen, expected);
        }
    }
}
