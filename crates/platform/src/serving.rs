//! The query-time serving tier: a deterministic many-client request loop
//! over a precomputed backend (DESIGN.md §11).
//!
//! The paper's Mode B precomputes sentiment offline so queries answer "in
//! real time"; this module supplies the traffic side of that promise. A
//! [`ServeLoop`] drives a seeded open-loop arrival process — N simulated
//! clients issuing requests on the simulated-ms clock — against any
//! [`ServingBackend`], through:
//!
//! - an [`LruCache`] of results keyed by the request string (the backend
//!   is immutable during a run, so a hit is byte-identical to
//!   recomputation — the cache-coherence property test in
//!   `tests/serving.rs` locks this down);
//! - admission control: a bounded FIFO queue in front of a single
//!   simulated server; arrivals past capacity are **shed** with
//!   [`Error::Unavailable`] semantics and the shedding client backs off
//!   (backpressure) before its next request;
//! - chaos: an optional [`FaultPlan`] injects slow/failing backend calls
//!   on the serving path, and scripted triggers fire callbacks at exact
//!   arrival counts (e.g. downing a shard mid-stream).
//!
//! Everything is instrumented through the shared [`Telemetry`] registry:
//! one trace root per dispatched query (queue wait + execution, with
//! attrs), `serving.*` counters obeying the conservation law
//! `serving.requests == serving.ok + serving.shed + serving.errors`, and
//! the `serving.latency.sim_ms` histogram with exemplars linking back to
//! the flight recorder. Same seed ⇒ byte-identical snapshots and
//! [`ServingReport`]s.

use crate::evlog::Level;
use crate::faults::{FaultKind, FaultPlan, FaultStream};
use crate::telemetry::Telemetry;
use crate::timeseries::TimeSeriesStore;
use crate::trace::TraceSpan;
use serde::Serialize;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::fmt::Write as _;
use std::sync::Arc;
use wf_types::{Error, Result};

/// Simulated cost of serving a result straight from the LRU cache.
pub const CACHE_HIT_COST_MS: u64 = 1;
/// Simulated dispatch overhead added to every backend execution.
pub const DISPATCH_COST_MS: u64 = 1;
/// Completions between observer calls (SLO evaluation, timeline scrapes).
const OBSERVE_EVERY: u64 = 64;

/// A query-answering backend the serve loop can drive.
///
/// Implementations must be pure during a run: the same request string
/// returns the same answer bytes until the backend is explicitly mutated
/// (e.g. by a chaos trigger). The serving cache relies on this.
pub trait ServingBackend: Send + Sync {
    /// Executes one request, returning the canonical answer plus its
    /// simulated cost.
    fn execute(&self, request: &str) -> Result<ServedAnswer>;

    /// Like [`ServingBackend::execute`], with a query span to hang stage
    /// child spans on (shard fanout, postings merge, ...). A backend that
    /// opens children must also advance `span` by the time they consume,
    /// so later stages start at the right simulated instant. The default
    /// records no stages.
    fn execute_traced(&self, request: &str, span: &mut TraceSpan) -> Result<ServedAnswer> {
        let _ = span;
        self.execute(request)
    }
}

/// One backend answer: the canonical body and what it cost to compute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServedAnswer {
    /// Canonical answer bytes (same index state ⇒ same bytes).
    pub body: String,
    /// Simulated milliseconds the backend spent computing the answer.
    pub cost_sim_ms: u64,
}

/// Deterministic LRU result cache (BTreeMap-backed, no hashing, so
/// iteration and eviction order are platform-stable).
pub struct LruCache {
    capacity: usize,
    tick: u64,
    entries: BTreeMap<String, (u64, String)>,
    recency: BTreeMap<u64, String>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl LruCache {
    /// A cache holding at most `capacity` results; 0 disables caching
    /// (every lookup misses, nothing is stored).
    pub fn new(capacity: usize) -> Self {
        LruCache {
            capacity,
            tick: 0,
            entries: BTreeMap::new(),
            recency: BTreeMap::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn hits(&self) -> u64 {
        self.hits
    }

    pub fn misses(&self) -> u64 {
        self.misses
    }

    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Looks up a request, refreshing its recency on a hit.
    pub fn get(&mut self, key: &str) -> Option<String> {
        match self.entries.get_mut(key) {
            Some((used, value)) => {
                self.hits += 1;
                self.recency.remove(used);
                self.tick += 1;
                *used = self.tick;
                let value = value.clone();
                self.recency.insert(self.tick, key.to_string());
                Some(value)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Stores a result, evicting the least-recently-used entry at
    /// capacity. No-op when capacity is 0.
    pub fn insert(&mut self, key: String, value: String) {
        if self.capacity == 0 {
            return;
        }
        if let Some((used, _)) = self.entries.remove(&key) {
            self.recency.remove(&used);
        } else if self.entries.len() >= self.capacity {
            // BTreeMap front = smallest tick = least recently used
            if let Some((&oldest, _)) = self.recency.iter().next() {
                if let Some(victim) = self.recency.remove(&oldest) {
                    self.entries.remove(&victim);
                    self.evictions += 1;
                }
            }
        }
        self.tick += 1;
        self.entries.insert(key.clone(), (self.tick, value));
        self.recency.insert(self.tick, key);
    }
}

/// SplitMix64, seeded per site like [`FaultPlan::stream`], for the
/// clients' arrival processes and request choices.
struct SimRng {
    state: u64,
}

impl SimRng {
    fn new(seed: u64, site: &str) -> Self {
        SimRng {
            state: seed ^ fnv1a(site.as_bytes()),
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, n)`; `n` must be non-zero.
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
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

/// Tuning for one serving run.
#[derive(Debug, Clone)]
pub struct ServingConfig {
    /// Seed for every client stream (per-client sub-streams are derived
    /// per site, so adding clients never perturbs existing ones).
    pub seed: u64,
    /// Number of simulated clients issuing requests.
    pub clients: u32,
    /// Target aggregate arrival rate, queries per simulated second.
    pub qps: u64,
    /// Total requests to issue before the loop drains and stops.
    pub requests: u64,
    /// LRU result-cache capacity (0 disables the cache).
    pub cache_capacity: usize,
    /// Admission-control bound: arrivals finding this many requests
    /// already waiting are shed.
    pub queue_capacity: usize,
    /// Extra think time a client waits after being shed (backpressure).
    pub shed_backoff_ms: u64,
    /// Record per-query answers in the report (tests only; answers are
    /// excluded from the canonical JSON).
    pub record_answers: bool,
}

impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig {
            seed: 20050405,
            clients: 8,
            qps: 200,
            requests: 400,
            cache_capacity: 64,
            queue_capacity: 32,
            shed_backoff_ms: 50,
            record_answers: false,
        }
    }
}

/// How one dispatched query ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryOutcome {
    Ok,
    Error,
}

/// One served query, captured when [`ServingConfig::record_answers`] is
/// set — the raw material of the cache-coherence property test.
#[derive(Debug, Clone)]
pub struct ServedQuery {
    /// Dispatch sequence number (0-based).
    pub seq: u64,
    pub client: u32,
    pub request: String,
    pub outcome: QueryOutcome,
    /// Answer body (ok) or error rendering (error).
    pub body: String,
    /// True when the body came from the LRU cache.
    pub cached: bool,
    /// End-to-end simulated latency: queue wait + execution.
    pub latency_sim_ms: u64,
}

/// The deterministic result of one serving run. Its JSON (sorted keys,
/// no `answers`) is the `wfsm serve --format json` output.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ServingReport {
    pub requests: u64,
    pub ok: u64,
    pub shed: u64,
    pub errors: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    /// Cache hit rate in milli-units (1000 ≡ every lookup hit).
    pub cache_hit_rate_milli: u64,
    pub latency_p50_ms: u64,
    pub latency_p95_ms: u64,
    pub latency_p99_ms: u64,
    /// Deepest the admission queue ever got.
    pub queue_peak: u64,
    /// Simulated duration of the whole run.
    pub sim_ms: u64,
    /// Completed (ok + error) queries per simulated second, in
    /// milli-units: 1000 ≡ 1 query/s.
    pub sustained_qps_milli: u64,
    /// Per-query capture, only with [`ServingConfig::record_answers`].
    #[serde(skip)]
    pub answers: Vec<ServedQuery>,
}

impl ServingReport {
    /// Pretty-printed canonical JSON (the `wfsm serve --format json`
    /// output; same seed ⇒ byte-identical).
    pub fn to_json_string(&self) -> String {
        serde_json::to_string_pretty(self).expect("Value renders infallibly")
    }

    /// Human-readable summary table.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "SERVING @ {} sim-ms", self.sim_ms);
        let _ = writeln!(
            out,
            "  requests {}  ok {}  shed {}  errors {}",
            self.requests, self.ok, self.shed, self.errors
        );
        let _ = writeln!(
            out,
            "  sustained {}.{:03} q/s (sim)",
            self.sustained_qps_milli / 1000,
            self.sustained_qps_milli % 1000
        );
        let _ = writeln!(
            out,
            "  latency p50/p95/p99: {}/{}/{} sim-ms",
            self.latency_p50_ms, self.latency_p95_ms, self.latency_p99_ms
        );
        let _ = writeln!(
            out,
            "  cache: {} hits, {} misses, {} evictions ({}.{:01}% hit rate)",
            self.cache_hits,
            self.cache_misses,
            self.cache_evictions,
            self.cache_hit_rate_milli / 10,
            self.cache_hit_rate_milli % 10
        );
        let _ = writeln!(out, "  queue peak: {}", self.queue_peak);
        out
    }
}

/// A request admitted to the bounded queue, waiting for the server.
struct PendingRequest {
    arrival_ms: u64,
    client: u32,
    request: String,
}

type Trigger<'a> = Box<dyn FnMut() + 'a>;

/// The deterministic many-client request loop.
///
/// Single-threaded discrete-event simulation: client arrivals and server
/// completions interleave on the simulated-ms clock, so the whole run —
/// shed decisions, cache state, latencies, trace ids — is a pure function
/// of (seed, config, workload, backend state).
pub struct ServeLoop<'a> {
    backend: &'a dyn ServingBackend,
    telemetry: Arc<Telemetry>,
    config: ServingConfig,
    workload: Vec<String>,
    plan: Option<FaultPlan>,
    triggers: Vec<(u64, Trigger<'a>)>,
    timeline: Option<Arc<TimeSeriesStore>>,
}

impl<'a> ServeLoop<'a> {
    /// A loop issuing requests drawn uniformly from `workload` (repeat an
    /// entry to skew popularity toward it, which is what makes the cache
    /// earn its keep).
    pub fn new(
        backend: &'a dyn ServingBackend,
        telemetry: Arc<Telemetry>,
        config: ServingConfig,
        workload: Vec<String>,
    ) -> Self {
        ServeLoop {
            backend,
            telemetry,
            config,
            workload,
            plan: None,
            triggers: Vec::new(),
            timeline: None,
        }
    }

    /// Attaches a time-series store scraped at every observation point
    /// (every 64 completions and once at the end), so a serving run
    /// produces a metrics timeline for free.
    pub fn with_timeline(mut self, timeline: Arc<TimeSeriesStore>) -> Self {
        self.timeline = Some(timeline);
        self
    }

    /// Injects faults on the backend path (cache hits bypass chaos, as a
    /// real result cache would).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Runs `action` just before arrival number `at_request` (1-based) is
    /// admitted — e.g. downing a backend shard mid-query-stream.
    pub fn with_trigger(mut self, at_request: u64, action: impl FnMut() + 'a) -> Self {
        self.triggers.push((at_request, Box::new(action)));
        self.triggers.sort_by_key(|(at, _)| *at);
        self
    }

    /// Runs to completion on the registry's clock (the report counts from
    /// the start); `observer` reads it every 64 completions and at the end.
    pub fn run_observed(mut self, observer: &mut dyn FnMut()) -> Result<ServingReport> {
        if self.workload.is_empty() {
            return Err(Error::Config("serving workload is empty".into()));
        }
        if self.config.clients == 0 {
            return Err(Error::Config("serving needs at least one client".into()));
        }
        if self.config.qps == 0 {
            return Err(Error::Config("serving qps must be positive".into()));
        }
        let requests_total = self.config.requests;
        let mean_think_ms = (u64::from(self.config.clients) * 1000 / self.config.qps.max(1)).max(1);

        let counter_requests = self.telemetry.counter("serving.requests");
        let counter_ok = self.telemetry.counter("serving.ok");
        let counter_shed = self.telemetry.counter("serving.shed");
        let counter_errors = self.telemetry.counter("serving.errors");
        let counter_hits = self.telemetry.counter("serving.cache.hits");
        let counter_misses = self.telemetry.counter("serving.cache.misses");
        let counter_evictions = self.telemetry.counter("serving.cache.evictions");
        let gauge_depth = self.telemetry.gauge("serving.queue.depth");
        let gauge_peak = self.telemetry.gauge("serving.queue.peak");
        let latency_hist = self.telemetry.histogram("serving.latency.sim_ms");
        let evlog = Arc::clone(self.telemetry.evlog());
        let clock = Arc::clone(self.telemetry.clock());
        let t0 = clock.now();

        let mut cache = LruCache::new(self.config.cache_capacity);
        let mut fault_stream: Option<FaultStream> =
            self.plan.as_ref().map(|p| p.stream("serving.backend"));

        // one RNG per client: arrivals and request choices are
        // independent streams, keyed like FaultPlan sites
        let mut client_rngs: Vec<SimRng> = (0..self.config.clients)
            .map(|c| SimRng::new(self.config.seed, &format!("serving.client:{c}")))
            .collect();
        // min-heap of the next arrival per client, tie-broken by client id
        let mut arrivals: BinaryHeap<std::cmp::Reverse<(u64, u32)>> = (0..self.config.clients)
            .map(|c| {
                let stagger = client_rngs[c as usize].below(mean_think_ms);
                std::cmp::Reverse((t0 + stagger, c))
            })
            .collect();

        let mut pending: VecDeque<PendingRequest> = VecDeque::new();
        let mut report = ServingReport::default();
        let mut issued: u64 = 0;
        let mut dispatched: u64 = 0;
        let mut completed: u64 = 0;
        let mut free_at = t0;
        let mut end_ms = t0;
        let mut trigger_idx = 0;

        while issued < requests_total || !pending.is_empty() {
            let next_arrival = if issued < requests_total {
                arrivals.peek().map(|std::cmp::Reverse((t, _))| *t)
            } else {
                None
            };
            // dispatch the queue head if the server reaches it before the
            // next arrival lands
            if let Some(front) = pending.front() {
                let start = front.arrival_ms.max(free_at);
                if next_arrival.is_none_or(|t| start <= t) {
                    let req = pending.pop_front().expect("front exists");
                    gauge_depth.set(pending.len() as i64);
                    let service_ms = self.dispatch_one(
                        &req,
                        start,
                        dispatched,
                        &mut cache,
                        &mut fault_stream,
                        &mut report,
                        &latency_hist,
                        &counter_ok,
                        &counter_errors,
                    );
                    dispatched += 1;
                    completed += 1;
                    free_at = start + service_ms;
                    end_ms = end_ms.max(free_at);
                    if completed.is_multiple_of(OBSERVE_EVERY) {
                        if let Some(timeline) = &self.timeline {
                            timeline.tick(clock.now(), || self.telemetry.snapshot());
                        }
                        observer();
                    }
                    continue;
                }
            }
            // otherwise the next event is a client arrival
            let std::cmp::Reverse((now, client)) = arrivals.pop().expect("issued < total");
            issued += 1;
            end_ms = end_ms.max(now);
            clock.advance_to(now); // what a trigger opens follows its arrival
            while trigger_idx < self.triggers.len() && self.triggers[trigger_idx].0 <= issued {
                (self.triggers[trigger_idx].1)();
                evlog.event(
                    Level::Warn,
                    "serving.loop",
                    now,
                    "chaos trigger fired",
                    &[("at_request", issued.to_string())],
                );
                trigger_idx += 1;
            }
            counter_requests.inc();
            report.requests += 1;
            let rng = &mut client_rngs[client as usize];
            let request = self.workload[rng.below(self.workload.len() as u64) as usize].clone();
            let mut think = 1 + rng.below(2 * mean_think_ms);
            if pending.len() >= self.config.queue_capacity {
                counter_shed.inc();
                report.shed += 1;
                think += self.config.shed_backoff_ms;
                evlog.event(
                    Level::Warn,
                    "serving.loop",
                    now,
                    "request shed: queue full",
                    &[
                        ("client", client.to_string()),
                        ("queue", pending.len().to_string()),
                    ],
                );
            } else {
                pending.push_back(PendingRequest {
                    arrival_ms: now,
                    client,
                    request,
                });
                gauge_depth.set(pending.len() as i64);
                report.queue_peak = report.queue_peak.max(pending.len() as u64);
            }
            if issued < requests_total {
                arrivals.push(std::cmp::Reverse((now + think, client)));
            }
        }

        gauge_peak.set(report.queue_peak as i64);
        counter_hits.add(cache.hits());
        counter_misses.add(cache.misses());
        counter_evictions.add(cache.evictions());
        report.cache_hits = cache.hits();
        report.cache_misses = cache.misses();
        report.cache_evictions = cache.evictions();
        report.cache_hit_rate_milli = (report.cache_hits * 1000)
            .checked_div(report.cache_hits + report.cache_misses)
            .unwrap_or(0);
        report.sim_ms = end_ms - t0;
        let completed_total = report.ok + report.errors;
        report.sustained_qps_milli = (completed_total * 1_000_000)
            .checked_div(report.sim_ms)
            .unwrap_or(0);
        {
            let snapshot = self.telemetry.snapshot();
            if let Some(h) = snapshot.histogram("serving.latency.sim_ms") {
                report.latency_p50_ms = h.percentile(50.0);
                report.latency_p95_ms = h.percentile(95.0);
                report.latency_p99_ms = h.percentile(99.0);
            }
        }
        if let Some(timeline) = &self.timeline {
            timeline.scrape_at(clock.now(), self.telemetry.snapshot());
        }
        observer();
        Ok(report)
    }

    /// Runs to completion without an observer.
    pub fn run(self) -> Result<ServingReport> {
        self.run_observed(&mut || {})
    }

    /// Executes one dequeued request at simulated `start`; returns its
    /// service time.
    #[allow(clippy::too_many_arguments)]
    fn dispatch_one(
        &self,
        req: &PendingRequest,
        start: u64,
        seq: u64,
        cache: &mut LruCache,
        fault_stream: &mut Option<FaultStream>,
        report: &mut ServingReport,
        latency_hist: &Arc<crate::telemetry::Histogram>,
        counter_ok: &Arc<crate::telemetry::Counter>,
        counter_errors: &Arc<crate::telemetry::Counter>,
    ) -> u64 {
        // constant root name: the profiler folds every request into one
        // serve.query tree; the sequence number lives in an attr
        let recorder = self.telemetry.recorder();
        let mut span = recorder.root("serve.query", req.arrival_ms);
        span.attr("seq", seq.to_string());
        span.attr("client", req.client.to_string());
        span.attr("request", req.request.clone());
        let queue_wait = start - req.arrival_ms;
        if queue_wait > 0 {
            let mut wait = span.child("queue_wait");
            wait.advance(queue_wait);
            wait.finish();
            span.advance(queue_wait);
            span.event("dequeued");
        }
        // absolute simulated instant service begins; every stage below is
        // a child span partitioning the same service_ms as before
        let service_start = span.end_sim_ms();
        let (outcome, body, cached, service_ms) = if let Some(body) = cache.get(&req.request) {
            span.event("cache_hit");
            let mut lookup = span.child("cache_lookup");
            lookup.attr("hit", "1");
            lookup.advance(CACHE_HIT_COST_MS);
            lookup.finish();
            (QueryOutcome::Ok, body, true, CACHE_HIT_COST_MS)
        } else {
            let mut lookup = span.child("cache_lookup");
            lookup.attr("hit", "0");
            lookup.advance(DISPATCH_COST_MS);
            lookup.finish();
            span.advance(DISPATCH_COST_MS);
            // chaos only touches real backend work, as a result cache
            // in front of the shards would
            let fault = fault_stream.as_mut().and_then(|s| s.draw());
            let slow_ms = match fault {
                Some(FaultKind::SlowResponse) => {
                    span.event("fault:slow_response");
                    fault_stream
                        .as_ref()
                        .map(|s| s.latency_ms(fault))
                        .unwrap_or(0)
                }
                _ => 0,
            };
            let executed = match fault {
                Some(kind) if kind != FaultKind::SlowResponse => {
                    self.telemetry.evlog().note(
                        &mut span,
                        Level::Warn,
                        "serving.loop",
                        Some(format!("fault:{}", kind.label())),
                        "fault injected",
                        &[("kind", &kind.label()), ("seq", &seq)],
                    );
                    let err = Error::Unavailable(format!("injected {}", kind.label()));
                    (
                        QueryOutcome::Error,
                        err.to_string(),
                        false,
                        DISPATCH_COST_MS,
                    )
                }
                _ => match self.backend.execute_traced(&req.request, &mut span) {
                    Ok(answer) => {
                        cache.insert(req.request.clone(), answer.body.clone());
                        (
                            QueryOutcome::Ok,
                            answer.body,
                            false,
                            DISPATCH_COST_MS + answer.cost_sim_ms + slow_ms,
                        )
                    }
                    Err(err) => (
                        QueryOutcome::Error,
                        err.to_string(),
                        false,
                        DISPATCH_COST_MS + slow_ms,
                    ),
                },
            };
            if slow_ms > 0 {
                // the injected delay lands after whatever the backend did
                span.advance_to(service_start + executed.3 - slow_ms);
                let mut delay = span.child("fault_delay");
                delay.advance(slow_ms);
                delay.finish();
            }
            executed
        };
        span.advance_to(service_start + service_ms);
        let latency = queue_wait + service_ms;
        match outcome {
            QueryOutcome::Ok => {
                counter_ok.inc();
                report.ok += 1;
                span.attr("outcome", "ok");
            }
            QueryOutcome::Error => {
                counter_errors.inc();
                report.errors += 1;
                span.attr("outcome", "error");
                self.telemetry.evlog().note(
                    &mut span,
                    Level::Error,
                    "serving.loop",
                    None,
                    "query failed",
                    &[("client", &req.client), ("error", &body), ("seq", &seq)],
                );
            }
        }
        span.attr("cached", if cached { "1" } else { "0" });
        latency_hist.record_exemplar(latency, span.trace_id());
        if self.config.record_answers {
            report.answers.push(ServedQuery {
                seq,
                client: req.client,
                request: req.request.clone(),
                outcome,
                body,
                cached,
                latency_sim_ms: latency,
            });
        }
        span.finish();
        service_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct EchoBackend;
    impl ServingBackend for EchoBackend {
        fn execute(&self, request: &str) -> Result<ServedAnswer> {
            if request == "boom" {
                return Err(Error::NotFound("boom".into()));
            }
            Ok(ServedAnswer {
                body: format!("echo:{request}"),
                cost_sim_ms: 4,
            })
        }
    }

    fn config(requests: u64) -> ServingConfig {
        ServingConfig {
            requests,
            ..ServingConfig::default()
        }
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut cache = LruCache::new(2);
        cache.insert("a".into(), "1".into());
        cache.insert("b".into(), "2".into());
        assert_eq!(cache.get("a"), Some("1".into())); // refresh a
        cache.insert("c".into(), "3".into()); // evicts b
        assert_eq!(cache.get("b"), None);
        assert_eq!(cache.get("a"), Some("1".into()));
        assert_eq!(cache.get("c"), Some("3".into()));
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn zero_capacity_cache_never_stores() {
        let mut cache = LruCache::new(0);
        cache.insert("a".into(), "1".into());
        assert_eq!(cache.get("a"), None);
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn conservation_law_holds() {
        let telemetry = Telemetry::new();
        let report = ServeLoop::new(
            &EchoBackend,
            Arc::clone(&telemetry),
            config(200),
            vec!["q1".into(), "q2".into(), "boom".into()],
        )
        .run()
        .unwrap();
        assert_eq!(report.requests, 200);
        assert_eq!(report.requests, report.ok + report.shed + report.errors);
        let snap = telemetry.snapshot();
        assert_eq!(
            snap.counter("serving.requests"),
            snap.counter("serving.ok")
                + snap.counter("serving.shed")
                + snap.counter("serving.errors")
        );
    }

    #[test]
    fn same_seed_is_byte_identical() {
        let run = || {
            let telemetry = Telemetry::new();
            let report = ServeLoop::new(
                &EchoBackend,
                Arc::clone(&telemetry),
                config(300),
                vec!["q1".into(), "q1".into(), "q2".into(), "boom".into()],
            )
            .run()
            .unwrap();
            (
                report.to_json_string(),
                telemetry.snapshot().to_json_string(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn the_loop_runs_on_the_registry_clock() {
        let run = |t0: u64| {
            let telemetry = Telemetry::new();
            telemetry.clock().advance_to(t0);
            let mut seen = Vec::new();
            let report = ServeLoop::new(
                &EchoBackend,
                Arc::clone(&telemetry),
                config(150),
                vec!["q1".into(), "boom".into()],
            )
            .run_observed(&mut || seen.push(telemetry.clock().now()))
            .unwrap();
            (report, seen, telemetry)
        };
        let (at_zero, seen_at_zero, _) = run(0);
        let (later, seen_later, telemetry) = run(1000);
        // the report counts from the loop's start; the clock moves on
        assert_eq!(later.to_json_string(), at_zero.to_json_string());
        assert_eq!(telemetry.clock().now(), 1000 + later.sim_ms);
        let shifted: Vec<u64> = seen_at_zero.iter().map(|t| t + 1000).collect();
        assert_eq!(seen_later, shifted, "observers read the clock");
        // query roots open at T0 plus their arrival
        let records = telemetry.evlog().records();
        assert!(!records.is_empty());
        assert!(records.iter().all(|r| r.sim_ms >= 1000), "{records:?}");
    }

    #[test]
    fn tiny_queue_sheds_under_load() {
        let telemetry = Telemetry::new();
        let report = ServeLoop::new(
            &EchoBackend,
            Arc::clone(&telemetry),
            ServingConfig {
                requests: 300,
                qps: 4000,
                queue_capacity: 2,
                cache_capacity: 0,
                ..ServingConfig::default()
            },
            vec!["q1".into(), "q2".into(), "q3".into()],
        )
        .run()
        .unwrap();
        assert!(report.shed > 0, "overload must shed: {report:?}");
        assert_eq!(report.requests, report.ok + report.shed + report.errors);
        assert!(report.queue_peak <= 2);
    }

    #[test]
    fn cache_hits_repeat_answers() {
        let telemetry = Telemetry::new();
        let report = ServeLoop::new(
            &EchoBackend,
            Arc::clone(&telemetry),
            ServingConfig {
                requests: 100,
                record_answers: true,
                ..ServingConfig::default()
            },
            vec!["q1".into()],
        )
        .run()
        .unwrap();
        assert!(report.cache_hits > 0);
        for q in &report.answers {
            assert_eq!(q.body, "echo:q1");
        }
    }

    #[test]
    fn triggers_fire_in_arrival_order() {
        let telemetry = Telemetry::new();
        let fired = std::cell::Cell::new(0u64);
        let report = ServeLoop::new(
            &EchoBackend,
            Arc::clone(&telemetry),
            config(50),
            vec!["q1".into()],
        )
        .with_trigger(10, || fired.set(fired.get() + 1))
        .with_trigger(20, || fired.set(fired.get() + 1))
        .run()
        .unwrap();
        assert_eq!(fired.get(), 2);
        assert_eq!(report.requests, 50);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let telemetry = Telemetry::new();
        let empty: Vec<String> = Vec::new();
        let err = ServeLoop::new(&EchoBackend, Arc::clone(&telemetry), config(10), empty)
            .run()
            .unwrap_err();
        assert!(matches!(err, Error::Config(_)));
        let err = ServeLoop::new(
            &EchoBackend,
            Arc::clone(&telemetry),
            ServingConfig {
                clients: 0,
                ..config(10)
            },
            vec!["q".into()],
        )
        .run()
        .unwrap_err();
        assert!(matches!(err, Error::Config(_)));
        let err = ServeLoop::new(
            &EchoBackend,
            Arc::clone(&telemetry),
            ServingConfig {
                qps: 0,
                ..config(10)
            },
            vec!["q".into()],
        )
        .run()
        .unwrap_err();
        assert!(matches!(err, Error::Config(_)));
    }
}
