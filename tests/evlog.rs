//! Acceptance suite for the structured event log (`wf_platform::evlog`)
//! added by this PR — the third observability pillar next to metrics
//! (`timeseries`) and traces (`trace`/`profile`).
//!
//! Locks down the PR's guarantees end to end:
//!
//! 1. **Conservation law** (property) — `emitted = kept + sampled +
//!    dropped` holds under random emission plans across arbitrary
//!    capacities and sampling budgets, and a zero-capacity log stays
//!    silent (`emitted == 0`).
//! 2. **Sampling determinism** (property) — replaying the same emission
//!    plan yields the identical canonical snapshot, byte for byte.
//! 3. **Chaos goldens** — the pinned chaos serving scenario's event log
//!    matches `tests/golden/evlog_snapshot.json` byte for byte
//!    (`UPDATE_GOLDEN=1` regens), double runs are byte-identical in
//!    both text and JSON, and the JSON export round-trips through
//!    `from_json_str` to the same bytes (parse ↔ export fixpoint).
//! 4. **Trace correlation** — every `error`-level record emitted from a
//!    traced path carries a trace ID that resolves in the flight
//!    recorder (`wfsm trace` can dump the owning trace).
//! 5. **One clock** — records are stamped on the registry's simulated
//!    clock: untraced calls stamp in emission order across the whole
//!    run (so the sampler refills), and a failure caused by a chaos
//!    trigger is never stamped before the trigger.

mod common;

use common::{assert_golden, chaos_backend, chaos_serve_loop, CHAOS_SEED};
use proptest::prelude::*;
use std::sync::Arc;
use wf_platform::{
    EvLog, EvLogSnapshot, FaultPlan, FaultRates, Level, LogFilter, ServiceBus, Telemetry,
    TimeSeriesStore, DEFAULT_SAMPLE_BURST,
};
use wf_types::RetryPolicy;

/// Chaos serving run: returns the telemetry registry whose event log
/// observed the shed / fault / shard-loss decisions.
fn observed_chaos_run() -> Arc<Telemetry> {
    let backend = chaos_backend();
    let telemetry = Telemetry::new();
    let timeline = Arc::new(TimeSeriesStore::new(64, 20));
    chaos_serve_loop(&backend, Arc::clone(&telemetry), CHAOS_SEED)
        .with_timeline(Arc::clone(&timeline))
        .run()
        .unwrap();
    telemetry
}

// ---------------------------------------------------------------------
// 1 + 2. conservation law and replay determinism (properties)
// ---------------------------------------------------------------------

/// One random emission plan entry: (level pick, target pick, sim-ms
/// step). Levels and targets cycle through fixed pools so token-bucket
/// state is exercised per (target, level) pair.
type PlanEntry = (u8, u8, u64);

const PLAN_LEVELS: [Level; 4] = [Level::Error, Level::Warn, Level::Info, Level::Debug];
const PLAN_TARGETS: [&str; 3] = ["bus.svc:probe", "miner.shard:0", "serving.loop"];

fn replay(plan: &[PlanEntry], capacity: usize, burst: u64, refill_ms: u64) -> EvLog {
    let log = EvLog::with_capacity(capacity).with_sampling(burst, refill_ms);
    let mut now = 0u64;
    for (i, &(level, target, step)) in plan.iter().enumerate() {
        now += step;
        log.event(
            PLAN_LEVELS[level as usize % PLAN_LEVELS.len()],
            PLAN_TARGETS[target as usize % PLAN_TARGETS.len()],
            now,
            format!("event {i}"),
            &[("seq", i.to_string())],
        );
    }
    log
}

proptest! {
    /// Every emission is accounted for exactly once: kept in the ring,
    /// suppressed by the sampler, or displaced by capacity.
    #[test]
    fn emission_counters_obey_conservation(
        plan in prop::collection::vec((0u8..8, 0u8..8, 0u64..16), 1..120),
        capacity in 1usize..48,
        burst in 1u64..12,
        refill_ms in 1u64..10,
    ) {
        let log = replay(&plan, capacity, burst, refill_ms);
        prop_assert_eq!(log.emitted(), plan.len() as u64);
        prop_assert_eq!(log.emitted(), log.kept() + log.sampled() + log.dropped());
        prop_assert!(log.kept() <= capacity as u64, "ring can keep at most capacity");
        let snapshot = log.snapshot();
        prop_assert!(snapshot.conserved(), "snapshot must carry the conservation law");
        prop_assert_eq!(snapshot.records.len() as u64, log.kept());
    }

    /// Same plan, same budgets ⇒ the same canonical snapshot. The
    /// token-bucket sampler keys off the simulated clock only, so a
    /// replay cannot diverge.
    #[test]
    fn same_plan_replays_to_identical_snapshot(
        plan in prop::collection::vec((0u8..8, 0u8..8, 0u64..16), 1..80),
        capacity in 1usize..32,
        burst in 1u64..8,
        refill_ms in 1u64..10,
    ) {
        let a = replay(&plan, capacity, burst, refill_ms).snapshot();
        let b = replay(&plan, capacity, burst, refill_ms).snapshot();
        prop_assert_eq!(a.to_json_string(), b.to_json_string());
    }

    /// Capacity zero disables the log entirely — the bench "log-off"
    /// arm: no records, no counters, no overhead accounting.
    #[test]
    fn zero_capacity_log_stays_silent(
        plan in prop::collection::vec((0u8..8, 0u8..8, 0u64..16), 1..40),
    ) {
        let log = replay(&plan, 0, 4, 8);
        prop_assert!(!log.enabled());
        prop_assert_eq!(log.emitted(), 0);
        prop_assert_eq!(log.snapshot().records.len(), 0);
    }
}

// ---------------------------------------------------------------------
// 3. pinned chaos run: golden + byte-identical double export + fixpoint
// ---------------------------------------------------------------------

/// Same seed, same bytes, for both export formats.
#[test]
fn chaos_evlog_exports_are_byte_identical() {
    let a = observed_chaos_run().evlog().snapshot();
    let b = observed_chaos_run().evlog().snapshot();
    assert_eq!(a.to_text(), b.to_text(), "text export drifted");
    assert_eq!(
        a.to_json_string(),
        b.to_json_string(),
        "json export drifted"
    );
    assert!(a.counters.emitted > 0, "chaos run must emit events");
    assert!(a.conserved(), "emitted != kept + sampled + dropped");
    assert!(
        a.records.iter().any(|r| r.target == "serving.loop"),
        "serving loop must log its shed/fault/error decisions"
    );
}

/// The pinned scenario's event log matches the checked-in golden byte
/// for byte. `UPDATE_GOLDEN=1` regenerates.
#[test]
fn chaos_evlog_matches_golden() {
    let json = observed_chaos_run().evlog().snapshot().to_json_string();
    assert_golden("evlog_snapshot.json", &json);
}

/// parse ↔ export fixpoint: the JSON export re-parses to an equal
/// snapshot whose re-export is byte-identical.
#[test]
fn evlog_json_round_trips_byte_identically() {
    let snapshot = observed_chaos_run().evlog().snapshot();
    let json = snapshot.to_json_string();
    let parsed = EvLogSnapshot::from_json_str(&json).expect("export must re-parse");
    assert_eq!(parsed, snapshot, "parsed snapshot differs");
    assert_eq!(parsed.to_json_string(), json, "re-export differs");
}

/// Filtering is a view, not a re-run: counters still describe the full
/// log, and a filtered export stays within the filter.
#[test]
fn filtered_view_keeps_conservation_header() {
    let snapshot = observed_chaos_run().evlog().snapshot();
    let mut filter = LogFilter {
        max_level: Some(Level::Warn),
        ..LogFilter::default()
    };
    filter.add_term("kind=node_down").unwrap();
    let view = snapshot.filtered(&filter);
    assert_eq!(view.counters, snapshot.counters, "counters must not shrink");
    assert!(view.records.len() < snapshot.records.len());
    for r in &view.records {
        assert!(r.level.rank() <= Level::Warn.rank(), "level leaked: {r:?}");
        assert_eq!(r.fields.get("kind").map(String::as_str), Some("node_down"));
    }
}

// ---------------------------------------------------------------------
// 4. trace correlation: error records resolve in the flight recorder
// ---------------------------------------------------------------------

/// Every error-level record from a traced path carries a trace ID the
/// flight recorder can resolve — `wfsm logs` lines point at dumpable
/// `wfsm trace` waterfalls.
#[test]
fn error_records_resolve_in_flight_recorder() {
    let telemetry = observed_chaos_run();
    let recorder = telemetry.recorder();
    let records = telemetry.evlog().records();
    let errors_with_trace = records
        .iter()
        .filter(|r| r.level == Level::Error && r.trace.is_some())
        .count();
    assert!(errors_with_trace > 0, "chaos run must log traced errors");
    for record in &records {
        if record.level == Level::Error {
            let trace = record
                .trace
                .expect("serving-path errors are emitted inside spans");
            assert!(
                recorder.contains_trace(trace),
                "trace {trace:?} of {:?} not resolvable in recorder",
                record.message
            );
        }
    }
}

// ---------------------------------------------------------------------
// 5. one clock: records land on the registry's simulated clock
// ---------------------------------------------------------------------

/// Untraced bus calls are root operations: each opens at the registry's
/// clock and moves it to its end. 400 of them at a 30% node-down rate
/// stamp their records in emission order across the whole run, not in
/// the first milliseconds of each call, so the token bucket refills and
/// a busy `(target, level)` key keeps more than one burst.
#[test]
fn untraced_calls_stamp_records_in_order_on_the_clock() {
    let telemetry = Telemetry::new();
    let bus = ServiceBus::with_telemetry(Arc::clone(&telemetry));
    bus.register(
        "svc",
        Arc::new(|_: &serde_json::Value| Ok(serde_json::json!(1))),
    );
    bus.set_fault_plan(Some(FaultPlan::new(CHAOS_SEED).with_rates(FaultRates {
        node_down: 0.3,
        ..FaultRates::default()
    })));
    bus.set_retry_policy(RetryPolicy::default());
    let mut spent = 0;
    for _ in 0..400 {
        spent += bus
            .call_detailed("svc", &serde_json::json!({}), None)
            .1
            .sim_elapsed_ms;
    }
    assert_eq!(telemetry.clock().now(), spent, "each call moved the clock");
    let records = telemetry.evlog().records();
    let stamps: Vec<u64> = records.iter().map(|r| r.sim_ms).collect();
    assert!(
        stamps.windows(2).all(|w| w[0] <= w[1]),
        "stamps decrease in emission order"
    );
    let last = *stamps.last().expect("faults were logged");
    assert!(last > 80, "the last record is stamped at {last} ms");
    let mut kept_per_key = std::collections::BTreeMap::new();
    for r in &records {
        *kept_per_key.entry((&r.target, r.level)).or_insert(0u64) += 1;
    }
    let busiest = kept_per_key.values().copied().max().unwrap_or(0);
    assert!(
        busiest > DEFAULT_SAMPLE_BURST,
        "no key kept more than one burst: {kept_per_key:?}"
    );
}

/// In the pinned chaos scenario every query that fails because a shard
/// is down is stamped at or after the `chaos trigger fired` record that
/// precedes it, so `wfsm logs` prints the cause before its effects.
#[test]
fn shard_loss_failures_are_stamped_after_their_trigger() {
    let telemetry = observed_chaos_run();
    let mut trigger_at = None;
    let mut failures = 0;
    for r in telemetry.evlog().records() {
        if r.message == "chaos trigger fired" {
            trigger_at = Some(r.sim_ms);
        }
        let shard_down = r
            .fields
            .get("error")
            .is_some_and(|e| e.contains("shard(s) down"));
        if r.message == "query failed" && shard_down {
            let at = trigger_at.expect("a shard goes down only at a trigger");
            assert!(
                r.sim_ms >= at,
                "failure at {} ms precedes its trigger at {at} ms: {r:?}",
                r.sim_ms
            );
            failures += 1;
        }
    }
    assert!(failures > 0, "the node loss must fail some queries");
}
