//! Deterministic fault injection for the simulated cluster.
//!
//! The real WebFountain deployment is "a loosely coupled, shared-nothing
//! parallel cluster" of hundreds of commodity Linux servers — at that
//! scale nodes die, services hang and updates collide as a matter of
//! course, and every platform component has to keep mining through it.
//! This module reproduces that failure surface at laptop scale: a
//! [`FaultPlan`] drives seed-reproducible fault draws (node down, service
//! error, slow response, store update conflict) that the service bus,
//! miner pipeline and cluster manager consult before every operation.
//!
//! Two properties make the subsystem testable:
//!
//! - **Determinism.** Every site (a service name, a shard) draws from its
//!   own [`FaultStream`] seeded by `plan seed ⊕ fnv(site)`. Streams are
//!   owned by the worker that consumes them, so thread interleaving can
//!   never change which operation sees which fault: identical seeds give
//!   byte-identical statistics.
//! - **Simulated time.** Latency and backoff advance a virtual
//!   millisecond clock instead of sleeping, so timeout budgets are
//!   honored exactly and chaos suites run in real milliseconds.

use crate::cluster::Cluster;
use crate::entity::{Entity, SourceKind};
use crate::evlog::{EvLog, Level};
use crate::telemetry::{SimClock, Telemetry};
use crate::trace::TraceSpan;
use serde::Serialize;
use std::fmt::Display;
use wf_types::{DocId, Error, NodeId, Result, RetryPolicy};

/// How much a `Degraded` node amplifies every fault probability.
const DEGRADED_FACTOR: f64 = 4.0;

/// The four injectable fault classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The node owning the target is unreachable (transient).
    NodeDown,
    /// The service handler itself fails (application error, terminal).
    ServiceError,
    /// The operation completes, but slowly (adds simulated latency).
    SlowResponse,
    /// A store update loses a race with a concurrent writer (transient).
    StoreConflict,
}

impl FaultKind {
    /// Stable snake_case label, matching the `bus.faults.*` counter
    /// names and trace span-event labels.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::NodeDown => "node_down",
            FaultKind::ServiceError => "service_error",
            FaultKind::SlowResponse => "slow_response",
            FaultKind::StoreConflict => "store_conflict",
        }
    }
}

/// Per-operation probabilities and latency parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRates {
    pub node_down: f64,
    pub service_error: f64,
    pub slow_response: f64,
    pub store_conflict: f64,
    /// Simulated latency added by one `SlowResponse` fault.
    pub slow_latency_ms: u64,
    /// Simulated latency of any fault-free operation.
    pub base_latency_ms: u64,
}

impl Default for FaultRates {
    fn default() -> Self {
        FaultRates {
            node_down: 0.0,
            service_error: 0.0,
            slow_response: 0.0,
            store_conflict: 0.0,
            slow_latency_ms: 250,
            base_latency_ms: 1,
        }
    }
}

impl FaultRates {
    /// All four fault classes at the same probability `p`.
    pub fn uniform(p: f64) -> Self {
        FaultRates {
            node_down: p,
            service_error: p,
            slow_response: p,
            store_conflict: p,
            ..FaultRates::default()
        }
    }
}

/// A seeded, site-keyed source of fault decisions.
///
/// The plan itself is immutable and cheap to share; mutable draw state
/// lives in the [`FaultStream`]s it hands out, one per site.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    rates: FaultRates,
}

impl FaultPlan {
    /// A plan with the given seed and no faults (rates all zero).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rates: FaultRates::default(),
        }
    }

    /// A plan injecting every fault class at probability `p`.
    pub fn uniform(seed: u64, p: f64) -> Self {
        FaultPlan::new(seed).with_rates(FaultRates::uniform(p))
    }

    pub fn with_rates(mut self, rates: FaultRates) -> Self {
        self.rates = rates;
        self
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    pub fn rates(&self) -> &FaultRates {
        &self.rates
    }

    /// The per-site stream of fault decisions. Same plan + same site ⇒
    /// the same decision sequence, regardless of what other sites do.
    pub fn stream(&self, site: &str) -> FaultStream {
        FaultStream {
            state: self.seed ^ fnv1a(site.as_bytes()),
            rates: self.rates,
            amplify: 1.0,
        }
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf29ce484222325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

/// One site's deterministic fault sequence (SplitMix64 underneath).
#[derive(Debug, Clone)]
pub struct FaultStream {
    state: u64,
    rates: FaultRates,
    amplify: f64,
}

impl FaultStream {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A deterministic draw in `0..n` (`0` when `n == 0`) — the durable
    /// layer's corruption injector uses this to pick record indices and
    /// byte offsets reproducibly from the same per-site streams the
    /// fault draws come from.
    pub fn next_in(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }

    /// Amplifies subsequent draws as if running on a `Degraded` node.
    pub fn degrade(&mut self) {
        self.amplify = DEGRADED_FACTOR;
    }

    fn chance(&mut self, p: f64) -> bool {
        let p = (p * self.amplify).clamp(0.0, 1.0);
        p > 0.0 && self.unit() < p
    }

    /// Draws the fault (if any) for the next operation. Classes are
    /// checked in a fixed order so the consumed randomness per draw is
    /// constant: one uniform sample per class.
    pub fn draw(&mut self) -> Option<FaultKind> {
        // every draw consumes exactly four samples so the stream stays
        // aligned no matter which class fires
        let node_down = self.chance(self.rates.node_down);
        let service_error = self.chance(self.rates.service_error);
        let slow = self.chance(self.rates.slow_response);
        let conflict = self.chance(self.rates.store_conflict);
        if node_down {
            Some(FaultKind::NodeDown)
        } else if service_error {
            Some(FaultKind::ServiceError)
        } else if slow {
            Some(FaultKind::SlowResponse)
        } else if conflict {
            Some(FaultKind::StoreConflict)
        } else {
            None
        }
    }

    /// Simulated latency of one operation given its fault draw.
    pub fn latency_ms(&self, fault: Option<FaultKind>) -> u64 {
        match fault {
            Some(FaultKind::SlowResponse) => self.rates.slow_latency_ms,
            _ => self.rates.base_latency_ms,
        }
    }
}

/// Health of one simulated node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub enum NodeHealth {
    #[default]
    Up,
    /// Alive but failure-prone: fault probabilities are amplified.
    Degraded,
    /// Unreachable: its shard must fail over or be skipped.
    Down,
}

/// The node that executes `shard` given per-node `health` (missing
/// entries count as `Up`): its owner unless the owner is Down, in which
/// case the first Up node stands in, else the first Degraded one. `None`
/// when every node is Down.
fn executor_for(shard: usize, shard_count: usize, health: &[NodeHealth]) -> Option<usize> {
    let health_of = |n: usize| health.get(n).copied().unwrap_or_default();
    match health_of(shard) {
        NodeHealth::Up | NodeHealth::Degraded => Some(shard),
        NodeHealth::Down => {
            let first = |wanted| (0..shard_count).find(|&n| health_of(n) == wanted);
            first(NodeHealth::Up).or_else(|| first(NodeHealth::Degraded))
        }
    }
}

/// Places `shard` (holding `docs` entities) by [`executor_for`] and
/// writes the outcome through `narrator`: `unplaced` when no node can
/// take it, `failover:node:N` when a stand-in does. Miner runs and index
/// rebuilds both place their shards here.
pub(crate) fn place(
    shard: usize,
    shard_count: usize,
    health: &[NodeHealth],
    docs: usize,
    narrator: &mut Narrator<'_>,
) -> Option<usize> {
    let executor = executor_for(shard, shard_count, health);
    match executor {
        None => narrator.note(
            Level::Error,
            Some("unplaced".to_string()),
            "shard unplaced: no healthy node",
            &[("docs", &docs)],
            &[],
        ),
        Some(node) if node != shard => narrator.note(
            Level::Warn,
            Some(format!("failover:node:{node}")),
            "shard failed over",
            &[("executor", &node)],
            &[],
        ),
        Some(_) => {}
    }
    executor
}

/// Where a faulted operation writes its events: each one is a point
/// event on the operation's span and a record in the event log, written
/// together by [`EvLog::note`]. An untraced operation is a root of its
/// own: it writes only the record, stamped at the clock's now plus the
/// time it has spent, and moves the clock by that time when it drops.
pub(crate) struct Narrator<'a> {
    log: &'a EvLog,
    clock: &'a SimClock,
    target: &'a str,
    span: Option<&'a mut TraceSpan>,
    /// The document the operation is for (a miner's entity): its labels
    /// gain ` doc=N` and its records a `doc` field, in place of the
    /// attempt number and elapsed time an operation without one records.
    doc: Option<DocId>,
    /// Simulated milliseconds the operation has spent.
    elapsed_ms: u64,
}

impl<'a> Narrator<'a> {
    pub(crate) fn new(
        tele: &'a Telemetry,
        target: &'a str,
        span: Option<&'a mut TraceSpan>,
        doc: Option<DocId>,
    ) -> Self {
        Narrator {
            log: tele.evlog(),
            clock: tele.clock(),
            target,
            span,
            doc,
            elapsed_ms: 0,
        }
    }

    /// A point event on the operation's span alone (untraced: nothing).
    pub(crate) fn mark(&mut self, label: String) {
        if let Some(span) = self.span.as_deref_mut() {
            span.event(label);
        }
    }

    fn advance(&mut self, sim_ms: u64) {
        self.elapsed_ms += sim_ms;
        if let Some(span) = self.span.as_deref_mut() {
            span.advance(sim_ms);
        }
    }

    /// Writes one event: `label` on the span (when traced and given) and
    /// a record carrying `fields`, then the `doc` field when there is a
    /// doc, else `undocumented`.
    pub(crate) fn note(
        &mut self,
        level: Level,
        label: Option<String>,
        message: &str,
        fields: &[(&str, &dyn Display)],
        undocumented: &[(&str, &dyn Display)],
    ) {
        let doc = self.doc.map(|d| d.0);
        let mut all = fields.to_vec();
        match &doc {
            Some(doc) => all.push(("doc", doc)),
            None => all.extend_from_slice(undocumented),
        }
        match self.span.as_deref_mut() {
            Some(span) => {
                self.log
                    .note(span, level, self.target, label, message, &all);
            }
            None if self.log.enabled() => {
                let owned: Vec<(&str, String)> =
                    all.iter().map(|(k, v)| (*k, v.to_string())).collect();
                let at = self.clock.now() + self.elapsed_ms;
                self.log.event(level, self.target, at, message, &owned);
            }
            None => {}
        }
    }

    /// `head`, then ` doc=N` when there is a doc, then `tail`.
    fn label(&self, head: &str, tail: &str) -> Option<String> {
        Some(match self.doc {
            Some(doc) => format!("{head} doc={}{tail}", doc.0),
            None => format!("{head}{tail}"),
        })
    }

    /// Attempt number `attempt` drew `kind`: a `fault:KIND` event.
    fn fault(&mut self, kind: FaultKind, attempt: u32) {
        let label = self.label(&format!("fault:{}", kind.label()), "");
        let kind = kind.label();
        self.note(
            Level::Warn,
            label,
            "fault injected",
            &[("kind", &kind)],
            &[("attempt", &attempt)],
        );
    }

    /// Retry number `retry` waits `backoff_ms` first: a `retry:N` event.
    fn retry(&mut self, retry: u32, backoff_ms: u64) {
        let label = self.label(
            &format!("retry:{retry}"),
            &format!(" backoff:{backoff_ms}ms"),
        );
        self.note(
            Level::Info,
            label,
            "retrying transient failure",
            &[("backoff_ms", &backoff_ms), ("retry", &retry)],
            &[],
        );
    }

    /// The budget ran out: a `timeout` event.
    fn timeout(&mut self, budget_ms: u64) {
        let label = self.label("timeout", "");
        let elapsed_ms = self.elapsed_ms;
        self.note(
            Level::Error,
            label,
            "timeout",
            &[("budget_ms", &budget_ms)],
            &[("elapsed_ms", &elapsed_ms)],
        );
    }

    /// A transient failure with no retry left: a record with no span
    /// event (the failure already shows as its attempt's `fault:` event).
    fn exhausted(&mut self, fault: Option<FaultKind>, attempt: u32) {
        let kind = fault.map(FaultKind::label);
        let kind = kind.as_ref().map(|k| ("kind", k as &dyn Display));
        self.note(
            Level::Error,
            None,
            "retries exhausted",
            kind.as_slice(),
            &[("attempt", &attempt)],
        );
    }
}

impl Drop for Narrator<'_> {
    fn drop(&mut self) {
        if self.span.is_none() {
            self.clock.advance_to(self.clock.now() + self.elapsed_ms);
        }
    }
}

/// One step of [`drive`], reported to its caller as it happens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// An attempt drew `fault` and paid `latency_ms`.
    Attempt {
        fault: Option<FaultKind>,
        latency_ms: u64,
    },
    /// Retry number `retry` (1-based) first waits `backoff_ms`.
    Backoff { retry: u32, backoff_ms: u64 },
}

/// Why [`drive`] gave up.
#[derive(Debug)]
pub(crate) enum Halt {
    /// The operation failed terminally, or transiently with no retries left.
    Failed(Error),
    /// The budget was spent, by an attempt's latency or (`backing_off`)
    /// by a backoff.
    Timeout { backing_off: bool },
}

/// An attempt's outcome when the caller words its own errors: a node
/// blip or store conflict fails transiently, a service error terminally,
/// and a slow or fault-free attempt goes through.
pub(crate) fn admit(fault: Option<FaultKind>) -> Result<()> {
    match fault {
        Some(kind @ FaultKind::NodeDown) => Err(Error::Unavailable(kind.label().into())),
        Some(kind @ FaultKind::StoreConflict) => Err(Error::Conflict(kind.label().into())),
        Some(kind @ FaultKind::ServiceError) => Err(Error::Service(kind.label().into())),
        Some(FaultKind::SlowResponse) | None => Ok(()),
    }
}

/// The retry loop every faulted operation runs through: each attempt
/// draws a fault from `stream` (none without one) and pays its latency;
/// within the budget, `op` runs with the draw. A transient error backs
/// off per `policy` and tries again while retries remain, unless the
/// backoff spent the budget.
///
/// `narrator` keeps the operation's elapsed time and writes every drawn
/// fault, backoff, timeout and exhausted retry, so no caller records a
/// step itself; `step` then sees every attempt and backoff in order for
/// the caller's own counts.
pub(crate) fn drive<T>(
    mut stream: Option<&mut FaultStream>,
    policy: &RetryPolicy,
    narrator: &mut Narrator<'_>,
    mut step: impl FnMut(Step),
    mut op: impl FnMut(Option<FaultKind>) -> Result<T>,
) -> std::result::Result<T, Halt> {
    let mut retries = 0;
    loop {
        let (fault, latency_ms) = match stream.as_deref_mut() {
            Some(s) => {
                let fault = s.draw();
                (fault, s.latency_ms(fault))
            }
            None => (None, 0),
        };
        narrator.advance(latency_ms);
        if let Some(kind) = fault {
            narrator.fault(kind, retries + 1);
        }
        step(Step::Attempt { fault, latency_ms });
        if narrator.elapsed_ms > policy.timeout_budget_ms {
            narrator.timeout(policy.timeout_budget_ms);
            return Err(Halt::Timeout { backing_off: false });
        }
        match op(fault) {
            Ok(value) => return Ok(value),
            Err(err) if err.is_transient() && retries < policy.max_retries => {
                retries += 1;
                let backoff_ms = policy.backoff_for(retries);
                narrator.advance(backoff_ms);
                narrator.retry(retries, backoff_ms);
                step(Step::Backoff {
                    retry: retries,
                    backoff_ms,
                });
                if narrator.elapsed_ms > policy.timeout_budget_ms {
                    narrator.timeout(policy.timeout_budget_ms);
                    return Err(Halt::Timeout { backing_off: true });
                }
            }
            Err(err) => {
                if err.is_transient() {
                    narrator.exhausted(fault, retries + 1);
                }
                return Err(Halt::Failed(err));
            }
        }
    }
}

/// Record of one logical service call, attempts and all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallOutcome {
    pub service: String,
    /// Handler/fault attempts made (≥ 1 once the service exists).
    pub attempts: u32,
    /// Retries after transient failures (`attempts - 1` when retried).
    pub retries: u32,
    /// Backoff applied before each retry, in simulated ms.
    pub backoffs_ms: Vec<u64>,
    /// Faults injected across all attempts, in order.
    pub injected: Vec<FaultKind>,
    /// Total simulated time consumed: latency + backoff.
    pub sim_elapsed_ms: u64,
    /// Whether the logical call finally succeeded.
    pub ok: bool,
}

impl CallOutcome {
    pub(crate) fn start(service: &str) -> Self {
        CallOutcome {
            service: service.to_string(),
            attempts: 0,
            retries: 0,
            backoffs_ms: Vec::new(),
            injected: Vec::new(),
            sim_elapsed_ms: 0,
            ok: false,
        }
    }
}

/// Test-support builder: a cluster preloaded with documents, a fault
/// plan, a retry policy and per-node health, ready for chaos suites and
/// degraded-mode benchmarks.
#[derive(Debug, Clone)]
pub struct ChaosCluster {
    nodes: usize,
    docs: usize,
    plan: FaultPlan,
    retry: RetryPolicy,
    degraded: Vec<NodeId>,
    down: Vec<NodeId>,
}

impl ChaosCluster {
    /// `nodes` shards, `docs` synthetic documents, no faults yet.
    pub fn new(nodes: usize, docs: usize) -> Self {
        ChaosCluster {
            nodes,
            docs,
            plan: FaultPlan::new(0),
            retry: RetryPolicy::default(),
            degraded: Vec::new(),
            down: Vec::new(),
        }
    }

    pub fn plan(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Shorthand: uniform fault probability `p` under `seed`.
    pub fn chaos(mut self, seed: u64, p: f64) -> Self {
        self.plan = FaultPlan::uniform(seed, p);
        self
    }

    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    pub fn degrade(mut self, node: NodeId) -> Self {
        self.degraded.push(node);
        self
    }

    pub fn degrade_all(mut self) -> Self {
        self.degraded = (0..self.nodes).map(|i| NodeId(i as u32)).collect();
        self
    }

    pub fn down(mut self, node: NodeId) -> Self {
        self.down.push(node);
        self
    }

    /// Boots the cluster: seeds documents, installs the plan/policy on
    /// both the cluster and its service bus, applies node healths.
    pub fn build(self) -> Result<Cluster> {
        let cluster = Cluster::new(self.nodes)?;
        for i in 0..self.docs {
            cluster.store().insert(Entity::new(
                format!("chaos://doc/{i}"),
                SourceKind::Web,
                format!("synthetic chaos document number {i} about cameras"),
            ));
        }
        cluster.set_retry_policy(self.retry);
        cluster.bus().set_retry_policy(self.retry);
        cluster.bus().set_fault_plan(Some(self.plan.clone()));
        cluster.set_fault_plan(Some(self.plan));
        for node in self.degraded {
            cluster.set_health(node, NodeHealth::Degraded);
        }
        for node in self.down {
            cluster.set_health(node, NodeHealth::Down);
        }
        Ok(cluster)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_site_same_sequence() {
        let plan = FaultPlan::uniform(7, 0.3);
        let mut a = plan.stream("svc:index");
        let mut b = plan.stream("svc:index");
        for _ in 0..200 {
            assert_eq!(a.draw(), b.draw());
        }
    }

    #[test]
    fn different_sites_diverge() {
        let plan = FaultPlan::uniform(7, 0.5);
        let mut a = plan.stream("svc:index");
        let mut b = plan.stream("svc:store");
        let seq_a: Vec<_> = (0..64).map(|_| a.draw()).collect();
        let seq_b: Vec<_> = (0..64).map(|_| b.draw()).collect();
        assert_ne!(seq_a, seq_b);
    }

    #[test]
    fn zero_rates_never_fault() {
        let plan = FaultPlan::new(123);
        let mut s = plan.stream("anything");
        assert!((0..1000).all(|_| s.draw().is_none()));
    }

    #[test]
    fn rate_one_always_faults() {
        let plan = FaultPlan::new(5).with_rates(FaultRates {
            node_down: 1.0,
            ..FaultRates::default()
        });
        let mut s = plan.stream("x");
        assert!((0..100).all(|_| s.draw() == Some(FaultKind::NodeDown)));
    }

    #[test]
    fn degraded_amplifies() {
        let plan = FaultPlan::new(11).with_rates(FaultRates {
            service_error: 0.1,
            ..FaultRates::default()
        });
        let count = |degraded: bool| {
            let mut s = plan.stream("svc");
            if degraded {
                s.degrade();
            }
            (0..2000).filter(|_| s.draw().is_some()).count()
        };
        let normal = count(false);
        let amplified = count(true);
        assert!(
            amplified > normal * 2,
            "degraded {amplified} vs normal {normal}"
        );
    }

    #[test]
    fn placement_prefers_up_over_degraded() {
        use NodeHealth::{Degraded, Down, Up};
        assert_eq!(executor_for(1, 3, &[Up, Degraded, Up]), Some(1));
        assert_eq!(executor_for(0, 3, &[Down, Degraded, Up]), Some(2));
        assert_eq!(executor_for(0, 3, &[Down, Degraded, Down]), Some(1));
        assert_eq!(executor_for(1, 2, &[Down, Down]), None);
        // nodes missing from the health list count as Up
        assert_eq!(executor_for(0, 3, &[Down]), Some(1));
    }

    #[test]
    fn drive_reports_every_step_and_stops_at_the_budget() {
        let plan = FaultPlan::new(3).with_rates(FaultRates {
            node_down: 1.0,
            ..FaultRates::default()
        });
        let mut stream = plan.stream("x");
        let policy = RetryPolicy {
            max_retries: 5,
            base_backoff_ms: 10,
            max_backoff_ms: 100,
            timeout_budget_ms: 25,
        };
        let mut steps = Vec::new();
        let mut ops = 0;
        let tele = Telemetry::new();
        tele.clock().advance_to(100);
        let result = drive(
            Some(&mut stream),
            &policy,
            &mut Narrator::new(&tele, "t", None, None),
            |s| steps.push(s),
            |_| {
                ops += 1;
                Err::<(), _>(Error::Unavailable("down".into()))
            },
        );
        assert!(matches!(result, Err(Halt::Timeout { backing_off: true })));
        let attempt = Step::Attempt {
            fault: Some(FaultKind::NodeDown),
            latency_ms: 1,
        };
        let backoff = |retry, backoff_ms| Step::Backoff { retry, backoff_ms };
        // 1 + 10 + 1 + 20 = 32 > 25: the second backoff ends the loop
        assert_eq!(steps, [attempt, backoff(1, 10), attempt, backoff(2, 20)]);
        assert_eq!(ops, 2);
        // untraced, each record is stamped with the time the operation
        // opened at plus the time spent so far, and the operation moved
        // the clock to its end
        assert_eq!(tele.clock().now(), 132);
        let records: Vec<(u64, String)> = tele
            .evlog()
            .records()
            .into_iter()
            .map(|r| (r.sim_ms, r.message))
            .collect();
        let at = |ms, message: &str| (ms, message.to_string());
        assert_eq!(
            records,
            [
                at(101, "fault injected"),
                at(111, "retrying transient failure"),
                at(112, "fault injected"),
                at(132, "retrying transient failure"),
                at(132, "timeout"),
            ]
        );
    }

    #[test]
    fn place_writes_each_failover_and_unplaced_shard_once() {
        use NodeHealth::{Down, Up};
        let tele = Telemetry::with_capacities(8, 8);
        let mut span = tele.trace_root("op");
        let mut place_on = |shard, health: &[NodeHealth]| {
            place(
                shard,
                2,
                health,
                5,
                &mut Narrator::new(&tele, "t", Some(&mut span), None),
            )
        };
        assert_eq!(place_on(0, &[Up, Up]), Some(0));
        assert_eq!(place_on(0, &[Down, Up]), Some(1));
        assert_eq!(place_on(0, &[Down, Down]), None);
        let trace = span.trace_id();
        span.finish();
        let labels: Vec<String> = tele.recorder().trace(trace)[0]
            .events
            .iter()
            .map(|e| e.label.clone())
            .collect();
        assert_eq!(labels, ["failover:node:1", "unplaced"]);
        let records = tele.evlog().records();
        let fields: Vec<_> = records.iter().map(|r| (r.level, &r.fields)).collect();
        assert_eq!(fields.len(), 2);
        assert_eq!(fields[0].0, Level::Warn);
        assert_eq!(fields[0].1.get("executor").map(String::as_str), Some("1"));
        assert_eq!(fields[1].0, Level::Error);
        assert_eq!(fields[1].1.get("docs").map(String::as_str), Some("5"));
    }

    #[test]
    fn latency_depends_on_fault() {
        let plan = FaultPlan::new(1);
        let s = plan.stream("svc");
        assert_eq!(s.latency_ms(Some(FaultKind::SlowResponse)), 250);
        assert_eq!(s.latency_ms(None), 1);
        assert_eq!(s.latency_ms(Some(FaultKind::NodeDown)), 1);
    }
}
