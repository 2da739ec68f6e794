//! Vinci: the lightweight service bus.
//!
//! "The nodes in the cluster communicate using a Web-service style,
//! lightweight, high-speed communication protocol called Vinci, a
//! derivative of SOAP." Our in-process equivalent keeps the essential
//! property — components are loosely coupled behind named services
//! exchanging structured documents — using `serde_json::Value` envelopes
//! and a registry, with per-service call statistics.
//!
//! Calls are fault-aware: under a [`FaultPlan`], each logical call draws
//! from the service's own deterministic fault stream, retries transient
//! failures with exponential backoff, and enforces a per-call simulated
//! timeout budget. [`ServiceBus::call_detailed`] exposes the full
//! [`CallOutcome`] (attempts, backoffs, injected faults, simulated time).

use crate::evlog::Level;
use crate::faults::{self, CallOutcome, FaultKind, FaultPlan, FaultStream, Halt, Narrator, Step};
use crate::telemetry::{Counter, Histogram, Telemetry};
use crate::trace::TraceSpan;
use parking_lot::{Mutex, RwLock};
use serde_json::Value;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use wf_types::{Error, Result, RetryPolicy};

/// A service: handles structured requests.
pub trait Service: Send + Sync {
    fn handle(&self, request: &Value) -> Result<Value>;
}

/// Blanket impl so plain closures can register as services.
impl<F> Service for F
where
    F: Fn(&Value) -> Result<Value> + Send + Sync,
{
    fn handle(&self, request: &Value) -> Result<Value> {
        self(request)
    }
}

struct ServiceEntry {
    /// The handler; `None` after [`ServiceBus::unregister`] — the entry
    /// (and its statistics) outlives the handler.
    service: RwLock<Option<Arc<dyn Service>>>,
    calls: AtomicU64,
    errors: AtomicU64,
    /// How much of `calls`/`errors` has already been flushed into the
    /// telemetry registry, so repeated flushes only add the delta.
    flushed_calls: AtomicU64,
    flushed_errors: AtomicU64,
    /// Per-service simulated-latency histogram (`bus.service.<name>.sim_ms`).
    latency: Arc<Histogram>,
    /// The service's event-log target, `bus.svc:<name>`.
    target: String,
    /// Persistent per-service fault stream so consecutive calls advance
    /// one deterministic sequence instead of replaying the same draws.
    fault_stream: Mutex<Option<FaultStream>>,
}

impl ServiceEntry {
    fn new(telemetry: &Telemetry, name: &str) -> Self {
        ServiceEntry {
            service: RwLock::new(None),
            calls: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            flushed_calls: AtomicU64::new(0),
            flushed_errors: AtomicU64::new(0),
            latency: telemetry.histogram(&format!("bus.service.{name}.sim_ms")),
            target: format!("bus.svc:{name}"),
            fault_stream: Mutex::new(None),
        }
    }
}

/// Bus-wide instruments (DESIGN.md §8). Conservation: `bus.calls` ==
/// `bus.ok` + `bus.errors`; every injected fault is counted by kind.
struct BusMetrics {
    calls: Arc<Counter>,
    ok: Arc<Counter>,
    errors: Arc<Counter>,
    retries: Arc<Counter>,
    timeouts: Arc<Counter>,
    /// Slots follow [`FaultKind`]'s variant order.
    faults: [Arc<Counter>; 4],
    call_sim_ms: Arc<Histogram>,
}

impl BusMetrics {
    fn resolve(tele: &Telemetry) -> Self {
        BusMetrics {
            calls: tele.counter("bus.calls"),
            ok: tele.counter("bus.ok"),
            errors: tele.counter("bus.errors"),
            retries: tele.counter("bus.retries"),
            timeouts: tele.counter("bus.timeouts"),
            faults: [
                tele.counter("bus.faults.node_down"),
                tele.counter("bus.faults.service_error"),
                tele.counter("bus.faults.slow_response"),
                tele.counter("bus.faults.store_conflict"),
            ],
            call_sim_ms: tele.histogram("bus.call.sim_ms"),
        }
    }

    fn count_fault(&self, kind: FaultKind) {
        let slot = match kind {
            FaultKind::NodeDown => 0,
            FaultKind::ServiceError => 1,
            FaultKind::SlowResponse => 2,
            FaultKind::StoreConflict => 3,
        };
        self.faults[slot].inc();
    }
}

/// The service registry / bus.
pub struct ServiceBus {
    services: RwLock<HashMap<String, Arc<ServiceEntry>>>,
    fault_plan: RwLock<Option<FaultPlan>>,
    retry_policy: RwLock<RetryPolicy>,
    telemetry: Arc<Telemetry>,
    metrics: BusMetrics,
}

impl Default for ServiceBus {
    fn default() -> Self {
        Self::new()
    }
}

impl ServiceBus {
    pub fn new() -> Self {
        Self::with_telemetry(Telemetry::new())
    }

    /// A bus recording its instruments into a shared registry.
    pub fn with_telemetry(telemetry: Arc<Telemetry>) -> Self {
        ServiceBus {
            services: RwLock::new(HashMap::new()),
            fault_plan: RwLock::new(None),
            retry_policy: RwLock::new(RetryPolicy::none()),
            metrics: BusMetrics::resolve(&telemetry),
            telemetry,
        }
    }

    /// The registry this bus records into.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Installs (or clears) the fault plan; resets every service's fault
    /// stream so the new plan starts from its seed.
    pub fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        *self.fault_plan.write() = plan;
        for entry in self.services.read().values() {
            *entry.fault_stream.lock() = None;
        }
    }

    /// The retry policy applied to transient call failures.
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        *self.retry_policy.write() = policy;
    }

    pub fn retry_policy(&self) -> RetryPolicy {
        *self.retry_policy.read()
    }

    /// Registers (or replaces) a service under a name.
    pub fn register(&self, name: impl Into<String>, service: Arc<dyn Service>) {
        let name = name.into();
        let mut services = self.services.write();
        if let Some(entry) = services.get(&name) {
            // replacing keeps stats and the fault stream position
            *entry.service.write() = Some(service);
        } else {
            let entry = Arc::new(ServiceEntry::new(&self.telemetry, &name));
            *entry.service.write() = Some(service);
            services.insert(name, entry);
        }
    }

    /// Unregisters a service's handler, keeping its statistics entry.
    /// Subsequent calls fail with "service ... unregistered". The entry's
    /// call/error counters are flushed into the telemetry registry
    /// (`bus.service.<name>.calls` / `.errors`) so the accounting survives
    /// even if the entry is later dropped. Returns whether a handler was
    /// actually removed.
    pub fn unregister(&self, name: &str) -> bool {
        let services = self.services.read();
        let Some(entry) = services.get(name) else {
            return false;
        };
        let removed = entry.service.write().take().is_some();
        if removed {
            self.flush_entry(name, entry);
        }
        removed
    }

    /// Flushes every service's call/error counters into the registry.
    /// Idempotent: repeated flushes only add what accrued since the last
    /// one, so snapshots taken after a flush are complete and exact.
    pub fn flush_stats(&self) {
        let services = self.services.read();
        let mut names: Vec<&String> = services.keys().collect();
        names.sort();
        for name in names {
            self.flush_entry(name, &services[name]);
        }
    }

    fn flush_entry(&self, name: &str, entry: &ServiceEntry) {
        let calls = entry.calls.load(Ordering::Relaxed);
        let prev = entry.flushed_calls.swap(calls, Ordering::Relaxed);
        self.telemetry
            .counter(&format!("bus.service.{name}.calls"))
            .add(calls.saturating_sub(prev));
        let errors = entry.errors.load(Ordering::Relaxed);
        let prev = entry.flushed_errors.swap(errors, Ordering::Relaxed);
        self.telemetry
            .counter(&format!("bus.service.{name}.errors"))
            .add(errors.saturating_sub(prev));
    }

    /// Calls a service by name (retrying per the installed policy when a
    /// fault plan is active).
    pub fn call(&self, name: &str, request: &Value) -> Result<Value> {
        self.call_detailed(name, request, None).0
    }

    /// Calls a service and returns the full per-call record alongside the
    /// result. One logical call may span several attempts.
    ///
    /// With a `parent` span the call is traced: it opens a
    /// `bus:<name>#<seq>` child span (seq is the per-service call number,
    /// so sequential calls to one service sort deterministically),
    /// attaches the span's [`TraceContext`](crate::trace::TraceContext)
    /// to object-shaped requests under `__trace__` (handlers may continue
    /// the trace via `TraceContext::from_request`), records injected
    /// faults, retries and timeouts as span events at their exact
    /// simulated offsets, and advances `parent` by the call's simulated
    /// duration; without one the call is a root operation on the clock.
    pub fn call_detailed(
        &self,
        name: &str,
        request: &Value,
        parent: Option<&mut TraceSpan>,
    ) -> (Result<Value>, CallOutcome) {
        let mut outcome = CallOutcome::start(name);
        self.metrics.calls.inc();
        let tele = &self.telemetry;
        let Some(entry) = self.services.read().get(name).cloned() else {
            let mut span = parent.map(|p| p.child(format!("bus:{name}#0")));
            let label = Some("error: no such service".to_string());
            let target = format!("bus.svc:{name}");
            Narrator::new(tele, &target, span.as_mut(), None).note(
                Level::Error,
                label,
                "no such service",
                &[],
                &[],
            );
            if let Some(span) = span {
                span.finish();
            }
            self.metrics.errors.inc();
            return (
                Err(Error::Service(format!("no such service: {name}"))),
                outcome,
            );
        };
        let seq = entry.calls.fetch_add(1, Ordering::Relaxed) + 1;
        let mut span = parent
            .as_deref()
            .map(|p| p.child(format!("bus:{name}#{seq}")));
        let enveloped;
        let request = match &span {
            Some(s) => {
                enveloped = s.context().attach(request);
                &enveloped
            }
            None => request,
        };
        let mut narrator = Narrator::new(tele, &entry.target, span.as_mut(), None);
        let result = self.drive_call(name, &entry, request, &mut outcome, &mut narrator);
        if let Err(err) = &result {
            entry.errors.fetch_add(1, Ordering::Relaxed);
            let label = format!("error: {err}");
            // the retry loop already recorded timeouts and exhausted retries
            if err.is_transient() || matches!(err, Error::Timeout(_)) {
                narrator.mark(label);
            } else {
                narrator.note(
                    Level::Error,
                    Some(label),
                    "call failed",
                    &[("attempts", &outcome.attempts), ("error", err)],
                    &[],
                );
            }
        }
        drop(narrator); // an untraced call moves the clock to its end
        outcome.ok = result.is_ok();
        self.metrics.retries.add(outcome.retries as u64);
        for &kind in &outcome.injected {
            self.metrics.count_fault(kind);
        }
        if matches!(result, Err(Error::Timeout(_))) {
            self.metrics.timeouts.inc();
        }
        if result.is_ok() {
            self.metrics.ok.inc();
        } else {
            self.metrics.errors.inc();
        }
        match &span {
            // traced calls pin the call's trace as the latency bucket's
            // exemplar, linking SLO breaches back to the flight recorder
            Some(s) => {
                let trace = s.trace_id();
                self.metrics
                    .call_sim_ms
                    .record_exemplar(outcome.sim_elapsed_ms, trace);
                entry.latency.record_exemplar(outcome.sim_elapsed_ms, trace);
            }
            None => {
                self.metrics.call_sim_ms.record(outcome.sim_elapsed_ms);
                entry.latency.record(outcome.sim_elapsed_ms);
            }
        }
        if let Some(mut s) = span {
            s.attr("attempts", outcome.attempts.to_string());
            s.attr("ok", outcome.ok.to_string());
            s.finish();
        }
        if let Some(parent) = parent {
            parent.advance(outcome.sim_elapsed_ms);
        }
        (result, outcome)
    }

    /// One logical call through [`faults::drive`]: each attempt's fault
    /// and latency, then the handler, with transient failures retried
    /// after a backoff. `narrator` advances the call's span (when traced)
    /// in lockstep with `outcome.sim_elapsed_ms` and writes every step.
    fn drive_call(
        &self,
        name: &str,
        entry: &ServiceEntry,
        request: &Value,
        outcome: &mut CallOutcome,
        narrator: &mut Narrator<'_>,
    ) -> Result<Value> {
        let mut stream = entry.fault_stream.lock();
        if stream.is_none() {
            if let Some(plan) = self.fault_plan.read().as_ref() {
                *stream = Some(plan.stream(&format!("svc:{name}")));
            }
        }
        let step = |step| match step {
            Step::Attempt { fault, latency_ms } => {
                outcome.attempts += 1;
                outcome.injected.extend(fault);
                outcome.sim_elapsed_ms += latency_ms;
            }
            Step::Backoff { retry, backoff_ms } => {
                outcome.retries = retry;
                outcome.backoffs_ms.push(backoff_ms);
                outcome.sim_elapsed_ms += backoff_ms;
            }
        };
        let attempt = |fault| match fault {
            Some(FaultKind::NodeDown) => Err(Error::Unavailable(format!(
                "injected outage calling {name}"
            ))),
            Some(FaultKind::ServiceError) => {
                Err(Error::Service(format!("injected handler error in {name}")))
            }
            Some(FaultKind::StoreConflict) => Err(Error::Conflict(format!(
                "injected update conflict in {name}"
            ))),
            // a slow response still reaches the handler
            Some(FaultKind::SlowResponse) | None => match entry.service.read().as_ref() {
                Some(service) => service.handle(request),
                None => Err(Error::Service(format!("service {name} unregistered"))),
            },
        };
        let policy = self.retry_policy();
        match faults::drive(stream.as_mut(), &policy, narrator, step, attempt) {
            Ok(value) => Ok(value),
            Err(Halt::Failed(err)) => Err(err),
            Err(Halt::Timeout { backing_off }) => {
                let during = if backing_off {
                    " while backing off"
                } else {
                    ""
                };
                Err(Error::Timeout(format!(
                    "call to {name} exceeded {} sim ms{during}",
                    policy.timeout_budget_ms
                )))
            }
        }
    }

    /// True when a service is registered (handler present).
    pub fn has(&self, name: &str) -> bool {
        self.services
            .read()
            .get(name)
            .is_some_and(|e| e.service.read().is_some())
    }

    /// Registered service names, sorted (handlerless entries included, so
    /// stats remain discoverable after unregistration).
    pub fn service_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.services.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// (calls, errors) counters for a service.
    pub fn stats(&self, name: &str) -> Option<(u64, u64)> {
        self.services.read().get(name).map(|e| {
            (
                e.calls.load(Ordering::Relaxed),
                e.errors.load(Ordering::Relaxed),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultRates;
    use serde_json::json;

    #[test]
    fn register_and_call() {
        let bus = ServiceBus::new();
        bus.register(
            "echo",
            Arc::new(|req: &Value| Ok(json!({ "echo": req.clone() }))),
        );
        let reply = bus.call("echo", &json!({"msg": "hi"})).unwrap();
        assert_eq!(reply["echo"]["msg"], "hi");
    }

    #[test]
    fn unknown_service_errors() {
        let bus = ServiceBus::new();
        let err = bus.call("nope", &json!({})).unwrap_err();
        assert!(err.to_string().contains("no such service"));
    }

    #[test]
    fn stats_count_calls_and_errors() {
        let bus = ServiceBus::new();
        bus.register(
            "flaky",
            Arc::new(|req: &Value| {
                if req["fail"].as_bool().unwrap_or(false) {
                    Err(Error::Service("boom".into()))
                } else {
                    Ok(json!("ok"))
                }
            }),
        );
        let _ = bus.call("flaky", &json!({"fail": false}));
        let _ = bus.call("flaky", &json!({"fail": true}));
        let _ = bus.call("flaky", &json!({"fail": true}));
        assert_eq!(bus.stats("flaky"), Some((3, 2)));
        assert_eq!(bus.stats("missing"), None);
    }

    #[test]
    fn replace_service() {
        let bus = ServiceBus::new();
        bus.register("svc", Arc::new(|_: &Value| Ok(json!(1))));
        bus.register("svc", Arc::new(|_: &Value| Ok(json!(2))));
        assert_eq!(bus.call("svc", &json!({})).unwrap(), json!(2));
        assert_eq!(bus.service_names(), vec!["svc"]);
    }

    #[test]
    fn unregister_makes_calls_fail_but_keeps_stats() {
        let bus = ServiceBus::new();
        bus.register("svc", Arc::new(|_: &Value| Ok(json!("up"))));
        assert!(bus.call("svc", &json!({})).is_ok());
        assert!(bus.unregister("svc"));
        assert!(!bus.unregister("svc"), "second unregister is a no-op");
        assert!(!bus.has("svc"));
        let err = bus.call("svc", &json!({})).unwrap_err();
        assert_eq!(err.to_string(), "service error: service svc unregistered");
        // entry survives: both calls counted, the second as an error
        assert_eq!(bus.stats("svc"), Some((2, 1)));
        assert_eq!(bus.service_names(), vec!["svc"]);
    }

    #[test]
    fn unregister_unknown_service_is_false() {
        let bus = ServiceBus::new();
        assert!(!bus.unregister("ghost"));
    }

    #[test]
    fn reregister_after_unregister_restores_service() {
        let bus = ServiceBus::new();
        bus.register("svc", Arc::new(|_: &Value| Ok(json!(1))));
        bus.unregister("svc");
        bus.register("svc", Arc::new(|_: &Value| Ok(json!(2))));
        assert_eq!(bus.call("svc", &json!({})).unwrap(), json!(2));
    }

    #[test]
    fn concurrent_calls() {
        let bus = Arc::new(ServiceBus::new());
        bus.register(
            "inc",
            Arc::new(|v: &Value| Ok(json!(v.as_i64().unwrap_or(0) + 1))),
        );
        let mut handles = Vec::new();
        for _ in 0..8 {
            let bus = Arc::clone(&bus);
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    let r = bus.call("inc", &json!(i)).unwrap();
                    assert_eq!(r, json!(i + 1));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(bus.stats("inc").unwrap().0, 800);
    }

    #[test]
    fn injected_outages_are_retried() {
        let bus = ServiceBus::new();
        bus.register("svc", Arc::new(|_: &Value| Ok(json!("ok"))));
        // 0.3^9 ≈ 2e-5: exhausting 8 retries is effectively impossible
        bus.set_fault_plan(Some(FaultPlan::new(99).with_rates(FaultRates {
            node_down: 0.3,
            ..FaultRates::default()
        })));
        bus.set_retry_policy(RetryPolicy {
            max_retries: 8,
            base_backoff_ms: 5,
            max_backoff_ms: 100,
            timeout_budget_ms: 100_000,
        });
        let mut saw_retry = false;
        for _ in 0..50 {
            let (result, outcome) = bus.call_detailed("svc", &json!({}), None);
            assert!(result.is_ok(), "retries should absorb 30% outages");
            saw_retry |= outcome.retries > 0;
            assert_eq!(outcome.attempts, outcome.retries + 1);
        }
        assert!(saw_retry, "a 30% outage rate must trigger retries");
    }

    #[test]
    fn calls_are_instrumented() {
        let bus = ServiceBus::new();
        bus.register(
            "flaky",
            Arc::new(|req: &Value| {
                if req["fail"].as_bool().unwrap_or(false) {
                    Err(Error::Service("boom".into()))
                } else {
                    Ok(json!("ok"))
                }
            }),
        );
        let _ = bus.call("flaky", &json!({"fail": false}));
        let _ = bus.call("flaky", &json!({"fail": true}));
        let _ = bus.call("missing", &json!({}));
        let snap = bus.telemetry().snapshot();
        assert_eq!(snap.counter("bus.calls"), 3);
        assert_eq!(snap.counter("bus.ok"), 1);
        assert_eq!(snap.counter("bus.errors"), 2);
        assert_eq!(
            snap.counter("bus.calls"),
            snap.counter("bus.ok") + snap.counter("bus.errors"),
            "conservation: every call is ok or error"
        );
        let per_service = snap.histogram("bus.service.flaky.sim_ms").unwrap();
        assert_eq!(per_service.count, 2, "only resolved calls hit the service");
    }

    #[test]
    fn unregister_flushes_stats_into_registry() {
        let bus = ServiceBus::new();
        bus.register("svc", Arc::new(|_: &Value| Ok(json!("up"))));
        let _ = bus.call("svc", &json!({}));
        let _ = bus.call("svc", &json!({}));
        bus.unregister("svc");
        let snap = bus.telemetry().snapshot();
        assert_eq!(snap.counter("bus.service.svc.calls"), 2);
        assert_eq!(snap.counter("bus.service.svc.errors"), 0);
        // entry semantics unchanged: stats still queryable on the bus
        assert_eq!(bus.stats("svc"), Some((2, 0)));

        // a register → call → unregister cycle only flushes the delta
        bus.register(
            "svc",
            Arc::new(|_: &Value| Err(Error::Service("down".into()))),
        );
        let _ = bus.call("svc", &json!({}));
        bus.unregister("svc");
        let snap = bus.telemetry().snapshot();
        assert_eq!(snap.counter("bus.service.svc.calls"), 3);
        assert_eq!(snap.counter("bus.service.svc.errors"), 1);
    }

    #[test]
    fn flush_stats_is_idempotent() {
        let bus = ServiceBus::new();
        bus.register("a", Arc::new(|_: &Value| Ok(json!(1))));
        let _ = bus.call("a", &json!({}));
        bus.flush_stats();
        bus.flush_stats();
        let snap = bus.telemetry().snapshot();
        assert_eq!(snap.counter("bus.service.a.calls"), 1);
    }

    #[test]
    fn injected_faults_are_counted_by_kind() {
        let bus = ServiceBus::new();
        bus.register("svc", Arc::new(|_: &Value| Ok(json!("ok"))));
        bus.set_fault_plan(Some(FaultPlan::new(7).with_rates(FaultRates {
            node_down: 0.5,
            ..FaultRates::default()
        })));
        bus.set_retry_policy(RetryPolicy {
            max_retries: 8,
            base_backoff_ms: 1,
            max_backoff_ms: 10,
            timeout_budget_ms: 100_000,
        });
        let mut retries = 0;
        for _ in 0..40 {
            let (_, outcome) = bus.call_detailed("svc", &json!({}), None);
            retries += outcome.retries as u64;
        }
        let snap = bus.telemetry().snapshot();
        assert!(snap.counter("bus.faults.node_down") > 0);
        assert_eq!(snap.counter("bus.retries"), retries);
        assert_eq!(snap.histogram("bus.call.sim_ms").unwrap().count, 40);
    }

    #[test]
    fn traced_calls_record_retry_events() {
        let bus = ServiceBus::new();
        bus.register("svc", Arc::new(|_: &Value| Ok(json!("ok"))));
        bus.set_fault_plan(Some(FaultPlan::new(99).with_rates(FaultRates {
            node_down: 0.3,
            ..FaultRates::default()
        })));
        bus.set_retry_policy(RetryPolicy {
            max_retries: 8,
            base_backoff_ms: 5,
            max_backoff_ms: 100,
            timeout_budget_ms: 100_000,
        });
        let tele = Arc::clone(bus.telemetry());
        let mut root = tele.trace_root("op");
        let mut total_retries = 0u32;
        let mut total_sim = 0u64;
        for _ in 0..50 {
            let (result, outcome) = bus.call_detailed("svc", &json!({}), Some(&mut root));
            assert!(result.is_ok());
            total_retries += outcome.retries;
            total_sim += outcome.sim_elapsed_ms;
        }
        assert!(total_retries > 0, "30% outage must retry");
        assert_eq!(root.elapsed_sim_ms(), total_sim, "parent tracks call time");
        root.finish();
        let traces = tele.recorder().last_traces(1);
        let roots = &traces[0].1;
        assert_eq!(roots[0].children.len(), 50, "one span per call");
        let retry_events: usize = roots[0]
            .children
            .iter()
            .flat_map(|c| &c.events)
            .filter(|e| e.label.starts_with("retry:"))
            .count();
        assert_eq!(retry_events as u32, total_retries);
        let fault_events: usize = roots[0]
            .children
            .iter()
            .flat_map(|c| &c.events)
            .filter(|e| e.label.starts_with("fault:"))
            .count();
        assert!(fault_events >= retry_events);
        // sequential calls tile the parent's simulated timeline
        for pair in roots[0].children.windows(2) {
            assert_eq!(pair[1].start_sim_ms, pair[0].end_sim_ms());
        }
    }

    #[test]
    fn trace_context_propagates_through_envelope() {
        use crate::trace::TraceContext;
        let bus = Arc::new(ServiceBus::new());
        let tele = Arc::clone(bus.telemetry());
        let recorder = Arc::clone(tele.recorder());
        bus.register(
            "outer",
            Arc::new(move |req: &Value| {
                let ctx = TraceContext::from_request(req).expect("trace context attached");
                let mut span = ctx.child_in(&recorder, "handler");
                span.advance(3);
                span.finish();
                Ok(json!("done"))
            }),
        );
        let mut root = tele.trace_root("op");
        let (result, _) = bus.call_detailed("outer", &json!({"payload": 1}), Some(&mut root));
        assert!(result.is_ok());
        root.finish();
        let traces = tele.recorder().last_traces(1);
        let handler = traces[0].1[0].find("op/bus:outer#1/handler").unwrap();
        assert_eq!(handler.duration_sim_ms, 3);
    }

    #[test]
    fn untraced_calls_carry_no_envelope() {
        use crate::trace::TRACE_ENVELOPE_KEY;
        let bus = ServiceBus::new();
        bus.register(
            "echo",
            Arc::new(|req: &Value| {
                assert!(
                    req.get(TRACE_ENVELOPE_KEY).is_none(),
                    "plain calls must not grow a trace envelope"
                );
                Ok(req.clone())
            }),
        );
        assert!(bus.call("echo", &json!({"a": 1})).is_ok());
    }

    #[test]
    fn timeout_budget_is_enforced() {
        let bus = ServiceBus::new();
        bus.register("svc", Arc::new(|_: &Value| Ok(json!("ok"))));
        bus.set_fault_plan(Some(FaultPlan::new(3).with_rates(FaultRates {
            node_down: 1.0, // every attempt fails
            ..FaultRates::default()
        })));
        bus.set_retry_policy(RetryPolicy {
            max_retries: 100,
            base_backoff_ms: 10,
            max_backoff_ms: 1_000,
            timeout_budget_ms: 50,
        });
        let (result, outcome) = bus.call_detailed("svc", &json!({}), None);
        assert!(matches!(result, Err(Error::Timeout(_))), "{result:?}");
        assert!(outcome.sim_elapsed_ms > 50);
        assert!(outcome.attempts < 100, "budget cut retries short");
    }
}
