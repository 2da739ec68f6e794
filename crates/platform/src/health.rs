//! The deterministic health engine: SLOs, burn-rate alerts, and the
//! operator report behind `wfsm doctor` / `wfsm top`.
//!
//! The paper's miners ran as long-lived services on a 500-node cluster;
//! operators needed to know *which* node or service was degrading, not
//! just that latency histograms existed. This module interprets the
//! telemetry substrate of DESIGN.md §8–9:
//!
//! - [`SloSpec`] declares an objective over the metric taxonomy
//!   (`bus.call p99 < X sim-ms`, `pipeline error-rate < Y%`, `ingest
//!   throughput > Z docs/s`);
//! - [`HealthEngine`] evaluates objectives over **sliding windows of the
//!   simulated clock** using classic multi-window burn rates: an alert
//!   fires when both the fast and the slow window burn their error
//!   budget faster than the threshold, and resolves when the fast
//!   window recovers. Every transition is an [`AlertEvent`] and bumps
//!   the `health.alerts.fired` / `health.alerts.resolved` counters, so
//!   alerts are part of the deterministic telemetry snapshot;
//! - [`DoctorReport`] assembles SLO status, the alert log, the worst
//!   histogram [`Exemplar`](crate::telemetry::Exemplar)s (each checked against the flight recorder:
//!   `live == true` means `wfsm trace` can still dump the causal tree),
//!   and the cluster's per-node scoreboard into canonical JSON or a
//!   text report — same seed ⇒ byte-identical output.
//!
//! All burn arithmetic is **integer-only** (milli-units: 1000 ≡ 1.0×
//! budget burn), so reports are bit-stable across platforms; values are
//! clamped to [`BURN_CLAMP_MILLI`].

use crate::cluster::{Cluster, NodeScore};
use crate::telemetry::{Telemetry, TelemetrySnapshot};
use crate::trace::TraceId;
use serde::Serialize;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::Arc;

/// Burn rates saturate here: 1000× the error budget. Keeps division-free
/// blowups (zero allowed budget, zero observed throughput) finite and
/// serializable.
pub const BURN_CLAMP_MILLI: u64 = 1_000_000;

/// A declarative objective over the metric taxonomy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Objective {
    /// The `percentile`-th percentile of `histogram` must stay at or
    /// below `max_sim_ms`. Budget burn counts the fraction of windowed
    /// observations in buckets whose upper bound exceeds `max_sim_ms`
    /// (bucket granularity: an observation is "bad" when its whole
    /// bucket is) against the allowed `1 - percentile/100`.
    LatencyBelow {
        histogram: String,
        percentile: u64,
        max_sim_ms: u64,
    },
    /// `errors / total` (two counters) must stay below
    /// `max_ratio_milli / 1000`.
    ErrorRateBelow {
        errors: String,
        total: String,
        max_ratio_milli: u64,
    },
    /// `counter` must grow by at least `min_per_sec_milli / 1000` units
    /// per simulated second over the window.
    ThroughputAbove {
        counter: String,
        min_per_sec_milli: u64,
    },
}

impl Objective {
    /// Human-readable form for reports.
    pub fn describe(&self) -> String {
        match self {
            Objective::LatencyBelow {
                histogram,
                percentile,
                max_sim_ms,
            } => format!("{histogram} p{percentile} <= {max_sim_ms} sim-ms"),
            Objective::ErrorRateBelow {
                errors,
                total,
                max_ratio_milli,
            } => format!("{errors}/{total} < {max_ratio_milli}/1000"),
            Objective::ThroughputAbove {
                counter,
                min_per_sec_milli,
            } => format!("{counter} > {min_per_sec_milli}/1000 per sim-s"),
        }
    }
}

/// One service-level objective with its alerting windows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloSpec {
    /// Stable name, used in alerts and reports.
    pub name: String,
    pub objective: Objective,
    /// Fast window (simulated ms): detects the breach and gates
    /// resolution.
    pub fast_window_ms: u64,
    /// Slow window (simulated ms): guards against flapping on blips.
    pub slow_window_ms: u64,
    /// Both windows must burn at or above this rate (milli-units,
    /// 1000 ≡ consuming exactly the error budget) to fire.
    pub burn_threshold_milli: u64,
}

/// The default objectives for a simulated cluster, sized for the chaos
/// fixtures used across the test suite (hundreds of sim-ms per phase).
pub fn default_slos() -> Vec<SloSpec> {
    vec![
        SloSpec {
            name: "bus-call-p99".to_string(),
            objective: Objective::LatencyBelow {
                histogram: "bus.call.sim_ms".to_string(),
                percentile: 99,
                max_sim_ms: 64,
            },
            fast_window_ms: 2_000,
            slow_window_ms: 10_000,
            burn_threshold_milli: 2_000,
        },
        SloSpec {
            name: "pipeline-error-rate".to_string(),
            objective: Objective::ErrorRateBelow {
                errors: "pipeline.failed".to_string(),
                total: "pipeline.entities_in".to_string(),
                max_ratio_milli: 100,
            },
            fast_window_ms: 2_000,
            slow_window_ms: 10_000,
            burn_threshold_milli: 1_000,
        },
        SloSpec {
            name: "ingest-throughput".to_string(),
            objective: Objective::ThroughputAbove {
                counter: "ingest.documents".to_string(),
                min_per_sec_milli: 1_000,
            },
            fast_window_ms: 5_000,
            slow_window_ms: 20_000,
            burn_threshold_milli: 1_000,
        },
        SloSpec {
            name: "serving-latency-p95".to_string(),
            objective: Objective::LatencyBelow {
                histogram: "serving.latency.sim_ms".to_string(),
                percentile: 95,
                max_sim_ms: 64,
            },
            fast_window_ms: 2_000,
            slow_window_ms: 10_000,
            burn_threshold_milli: 2_000,
        },
        SloSpec {
            name: "serving-error-rate".to_string(),
            objective: Objective::ErrorRateBelow {
                errors: "serving.errors".to_string(),
                total: "serving.requests".to_string(),
                max_ratio_milli: 100,
            },
            fast_window_ms: 2_000,
            slow_window_ms: 10_000,
            burn_threshold_milli: 1_000,
        },
    ]
}

/// One firing→resolved transition of an SLO's burn-rate alert.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct AlertEvent {
    /// Simulated time of the evaluation that transitioned the alert.
    pub at_sim_ms: u64,
    /// [`SloSpec::name`] of the objective.
    pub slo: String,
    /// `true` when the alert fired, `false` when it resolved.
    pub firing: bool,
    pub fast_burn_milli: u64,
    pub slow_burn_milli: u64,
}

/// Current state of one SLO after the latest evaluation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SloStatus {
    pub name: String,
    /// [`Objective::describe`] of the objective.
    pub objective: String,
    pub firing: bool,
    pub fast_burn_milli: u64,
    pub slow_burn_milli: u64,
    /// The measured value over the fast window, in the objective's unit:
    /// sim-ms for latency, milli-ratio for error rate, milli-units/s for
    /// throughput.
    pub measured: u64,
    /// The objective's bound, in the same unit as `measured`.
    pub target: u64,
}

/// Evaluates [`SloSpec`]s over a history of telemetry snapshots taken on
/// the simulated clock. Feed it with [`HealthEngine::observe`] after
/// each top-level operation; it retains just enough history to cover the
/// largest slow window.
#[derive(Debug)]
pub struct HealthEngine {
    slos: Vec<SloSpec>,
    telemetry: Option<Arc<Telemetry>>,
    history: VecDeque<(u64, TelemetrySnapshot)>,
    firing: Vec<bool>,
    alerts: Vec<AlertEvent>,
    status: Vec<SloStatus>,
    last_observed_ms: u64,
}

impl HealthEngine {
    /// An engine evaluating `slos`, not attached to any registry.
    pub fn new(slos: Vec<SloSpec>) -> Self {
        let status = slos
            .iter()
            .map(|s| SloStatus {
                name: s.name.clone(),
                objective: s.objective.describe(),
                firing: false,
                fast_burn_milli: 0,
                slow_burn_milli: 0,
                measured: 0,
                target: target_of(&s.objective),
            })
            .collect();
        HealthEngine {
            firing: vec![false; slos.len()],
            slos,
            telemetry: None,
            history: VecDeque::new(),
            alerts: Vec::new(),
            status,
            last_observed_ms: 0,
        }
    }

    /// An engine that additionally bumps `health.alerts.fired` /
    /// `health.alerts.resolved` counters in `telemetry` on transitions,
    /// so alerts become part of the deterministic snapshot.
    pub fn with_telemetry(slos: Vec<SloSpec>, telemetry: Arc<Telemetry>) -> Self {
        let mut engine = HealthEngine::new(slos);
        engine.telemetry = Some(telemetry);
        engine
    }

    /// The configured objectives.
    pub fn slos(&self) -> &[SloSpec] {
        &self.slos
    }

    /// Every alert transition so far, in evaluation order.
    pub fn alerts(&self) -> &[AlertEvent] {
        &self.alerts
    }

    /// Per-SLO state as of the latest [`HealthEngine::observe`].
    pub fn status(&self) -> &[SloStatus] {
        &self.status
    }

    /// Feeds one snapshot taken at simulated time `now_sim_ms`,
    /// re-evaluates every SLO, and returns the alert transitions this
    /// evaluation produced. Observations must arrive in non-decreasing
    /// simulated-time order.
    pub fn observe(&mut self, now_sim_ms: u64, snapshot: &TelemetrySnapshot) -> Vec<AlertEvent> {
        debug_assert!(now_sim_ms >= self.last_observed_ms, "sim time is monotone");
        self.last_observed_ms = now_sim_ms;
        self.history.push_back((now_sim_ms, snapshot.clone()));
        self.prune(now_sim_ms);
        let mut transitions = Vec::new();
        for i in 0..self.slos.len() {
            let slo = &self.slos[i];
            let (fast_burn, measured) =
                self.window_burn(&slo.objective, now_sim_ms, slo.fast_window_ms);
            let (slow_burn, _) = self.window_burn(&slo.objective, now_sim_ms, slo.slow_window_ms);
            let was_firing = self.firing[i];
            let now_firing = if was_firing {
                // resolution is gated on the fast window only: the slow
                // window keeps burning long after the incident ends
                fast_burn >= slo.burn_threshold_milli
            } else {
                fast_burn >= slo.burn_threshold_milli && slow_burn >= slo.burn_threshold_milli
            };
            if now_firing != was_firing {
                let event = AlertEvent {
                    at_sim_ms: now_sim_ms,
                    slo: slo.name.clone(),
                    firing: now_firing,
                    fast_burn_milli: fast_burn,
                    slow_burn_milli: slow_burn,
                };
                if let Some(tele) = &self.telemetry {
                    let counter = if now_firing {
                        "health.alerts.fired"
                    } else {
                        "health.alerts.resolved"
                    };
                    tele.counter(counter).inc();
                }
                self.alerts.push(event.clone());
                transitions.push(event);
                self.firing[i] = now_firing;
            }
            self.status[i] = SloStatus {
                name: slo.name.clone(),
                objective: slo.objective.describe(),
                firing: self.firing[i],
                fast_burn_milli: fast_burn,
                slow_burn_milli: slow_burn,
                measured,
                target: target_of(&slo.objective),
            };
        }
        transitions
    }

    /// Drops history entries no window can reach anymore, always keeping
    /// one entry at or before `now - max_window` as the delta base.
    fn prune(&mut self, now_sim_ms: u64) {
        let max_window = self
            .slos
            .iter()
            .map(|s| s.fast_window_ms.max(s.slow_window_ms))
            .max()
            .unwrap_or(0);
        let horizon = now_sim_ms.saturating_sub(max_window);
        while self.history.len() > 1 && self.history[1].0 <= horizon {
            self.history.pop_front();
        }
    }

    /// The snapshot to diff against for a window ending now: the newest
    /// history entry at or before `now - window`, else the empty
    /// snapshot at t=0 (windows longer than the engine's life measure
    /// "since start").
    fn window_base(&self, now_sim_ms: u64, window_ms: u64) -> (u64, TelemetrySnapshot) {
        let cutoff = now_sim_ms.saturating_sub(window_ms);
        self.history
            .iter()
            .rev()
            .find(|(t, _)| *t <= cutoff)
            .map(|(t, s)| (*t, s.clone()))
            .unwrap_or((0, TelemetrySnapshot::default()))
    }

    /// `(burn_milli, measured)` of one objective over the window ending
    /// at `now_sim_ms`. See [`SloStatus::measured`] for units.
    fn window_burn(&self, objective: &Objective, now_sim_ms: u64, window_ms: u64) -> (u64, u64) {
        let Some((_, current)) = self.history.back() else {
            return (0, 0);
        };
        let (base_t, base) = self.window_base(now_sim_ms, window_ms);
        match objective {
            Objective::LatencyBelow {
                histogram,
                percentile,
                max_sim_ms,
            } => {
                let delta = current
                    .histogram(histogram)
                    .map(|h| h.delta_since(base.histogram(histogram)))
                    .unwrap_or_default();
                let total = delta.count;
                let bad: u64 = delta
                    .buckets
                    .iter()
                    .filter(|(le, _)| le.is_none_or(|b| b > *max_sim_ms))
                    .map(|(_, c)| c)
                    .sum();
                let measured = delta.percentile(*percentile as f64);
                if total == 0 {
                    return (0, measured);
                }
                // burn = (bad/total) / ((100-p)/100), in milli-units
                let allowed_pct = 100u64.saturating_sub(*percentile);
                let denom = total as u128 * allowed_pct as u128;
                // denom == 0 means p == 100: any bad observation is an
                // instant full burn
                let burn = (bad as u128 * 100_000)
                    .checked_div(denom)
                    .unwrap_or(if bad > 0 { BURN_CLAMP_MILLI as u128 } else { 0 });
                (clamp_milli(burn), measured)
            }
            Objective::ErrorRateBelow {
                errors,
                total,
                max_ratio_milli,
            } => {
                let err = current.counter(errors).saturating_sub(base.counter(errors));
                let tot = current.counter(total).saturating_sub(base.counter(total));
                if tot == 0 {
                    return (0, 0);
                }
                let ratio_milli = (err as u128 * 1_000 / tot as u128) as u64;
                let burn = if *max_ratio_milli == 0 {
                    if err > 0 {
                        BURN_CLAMP_MILLI as u128
                    } else {
                        0
                    }
                } else {
                    err as u128 * 1_000_000 / (tot as u128 * *max_ratio_milli as u128)
                };
                (clamp_milli(burn), ratio_milli)
            }
            Objective::ThroughputAbove {
                counter,
                min_per_sec_milli,
            } => {
                let grew = current
                    .counter(counter)
                    .saturating_sub(base.counter(counter));
                let elapsed_ms = now_sim_ms.saturating_sub(base_t);
                if elapsed_ms == 0 {
                    return (0, 0);
                }
                // units/sim-s in milli: grew / (elapsed/1000) * 1000
                let observed_milli = (grew as u128 * 1_000_000 / elapsed_ms as u128) as u64;
                let burn = if observed_milli == 0 {
                    if *min_per_sec_milli > 0 {
                        BURN_CLAMP_MILLI as u128
                    } else {
                        0
                    }
                } else {
                    *min_per_sec_milli as u128 * 1_000 / observed_milli as u128
                };
                (clamp_milli(burn), observed_milli)
            }
        }
    }
}

fn clamp_milli(burn: u128) -> u64 {
    burn.min(BURN_CLAMP_MILLI as u128) as u64
}

fn target_of(objective: &Objective) -> u64 {
    match objective {
        Objective::LatencyBelow { max_sim_ms, .. } => *max_sim_ms,
        Objective::ErrorRateBelow {
            max_ratio_milli, ..
        } => *max_ratio_milli,
        Objective::ThroughputAbove {
            min_per_sec_milli, ..
        } => *min_per_sec_milli,
    }
}

/// One worst-exemplar reference in a [`DoctorReport`], resolved against
/// the flight recorder.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ExemplarRef {
    /// The histogram the exemplar came from.
    pub histogram: String,
    /// Observed value (the histogram's unit, typically sim-ms).
    pub value: u64,
    /// Raw trace id; dump with `wfsm trace` while `live`.
    pub trace: u64,
    /// Whether the flight recorder still retains spans of this trace.
    pub live: bool,
}

/// The full operator report behind `wfsm doctor`: SLO status, the alert
/// log, worst exemplars, and the per-node scoreboard. Same seed ⇒
/// byte-identical [`DoctorReport::to_json_string`] output.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DoctorReport {
    pub at_sim_ms: u64,
    pub slos: Vec<SloStatus>,
    pub alerts: Vec<AlertEvent>,
    pub exemplars: Vec<ExemplarRef>,
    pub nodes: Vec<NodeScore>,
}

impl DoctorReport {
    /// Assembles the report from a cluster and its health engine at
    /// simulated time `at_sim_ms`: snapshots the metrics, picks each
    /// histogram's worst exemplar, and resolves it against the flight
    /// recorder.
    pub fn build(cluster: &Cluster, engine: &HealthEngine, at_sim_ms: u64) -> DoctorReport {
        let snapshot = cluster.metrics_snapshot();
        let recorder = cluster.telemetry().recorder();
        let mut exemplars = Vec::new();
        for (name, hist) in &snapshot.histograms {
            if let Some(worst) = hist.worst_exemplar() {
                exemplars.push(ExemplarRef {
                    histogram: name.clone(),
                    value: worst.value,
                    trace: worst.trace,
                    live: recorder.contains_trace(TraceId(worst.trace)),
                });
            }
        }
        DoctorReport {
            at_sim_ms,
            slos: engine.status().to_vec(),
            alerts: engine.alerts().to_vec(),
            exemplars,
            nodes: cluster.scoreboard(),
        }
    }

    /// Pretty-printed canonical JSON (the `wfsm doctor --format json`
    /// output): the derived `Serialize`, so keys are the field names,
    /// sorted, and arrays keep report order.
    pub fn to_json_string(&self) -> String {
        serde_json::to_string_pretty(self).expect("Value renders infallibly")
    }

    /// The human-readable report (the `wfsm doctor` default output).
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "DOCTOR REPORT @ {} sim-ms", self.at_sim_ms);
        out.push_str("SLOS\n");
        let _ = writeln!(
            out,
            "  {:<22} {:<8} {:>10} {:>10} {:>9} {:>9}  objective",
            "name", "state", "fast-burn", "slow-burn", "measured", "target"
        );
        for s in &self.slos {
            let _ = writeln!(
                out,
                "  {:<22} {:<8} {:>10} {:>10} {:>9} {:>9}  {}",
                s.name,
                if s.firing { "FIRING" } else { "ok" },
                s.fast_burn_milli,
                s.slow_burn_milli,
                s.measured,
                s.target,
                s.objective
            );
        }
        out.push_str("ALERTS\n");
        if self.alerts.is_empty() {
            out.push_str("  (none)\n");
        }
        for a in &self.alerts {
            let _ = writeln!(
                out,
                "  @{:<8} {:<22} {:<8} fast={} slow={}",
                a.at_sim_ms,
                a.slo,
                if a.firing { "FIRED" } else { "RESOLVED" },
                a.fast_burn_milli,
                a.slow_burn_milli
            );
        }
        out.push_str("EXEMPLARS (worst per histogram)\n");
        if self.exemplars.is_empty() {
            out.push_str("  (none)\n");
        }
        for e in &self.exemplars {
            let _ = writeln!(
                out,
                "  {:<44} value={:<8} trace={:<6} {}",
                e.histogram,
                e.value,
                e.trace,
                if e.live { "live" } else { "evicted" }
            );
        }
        out.push_str(&render_scoreboard(&self.nodes));
        out
    }
}

/// The per-node scoreboard table shared by `wfsm doctor` and `wfsm top`.
pub fn render_scoreboard(nodes: &[NodeScore]) -> String {
    let mut out = String::new();
    out.push_str("NODES\n");
    let _ = writeln!(
        out,
        "  {:<5} {:<6} {:<9} {:>5} {:>9} {:>7} {:>8} {:>7} {:>9} {:>8} {:>9}  last-error",
        "node",
        "model",
        "health",
        "runs",
        "processed",
        "failed",
        "retries",
        "faults",
        "failovers",
        "skipped",
        "avg-ms"
    );
    for n in nodes {
        let avg_ms = n.sim_ms / n.runs.max(1);
        let _ = writeln!(
            out,
            "  {:<5} {:<6} {:<9} {:>5} {:>9} {:>7} {:>8} {:>7} {:>9} {:>8} {:>9}  {}",
            n.node,
            n.model,
            format!("{:?}", n.health),
            n.runs,
            n.processed,
            n.failed,
            n.retries,
            n.faults,
            n.failovers,
            n.skipped,
            avg_ms,
            n.last_error.as_deref().unwrap_or("-")
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::HistogramSnapshot;

    fn snap(counters: &[(&str, u64)]) -> TelemetrySnapshot {
        let mut s = TelemetrySnapshot::default();
        for (k, v) in counters {
            s.counters.insert((*k).to_string(), *v);
        }
        s
    }

    fn error_rate_slo(fast: u64, slow: u64, threshold: u64) -> SloSpec {
        SloSpec {
            name: "errors".to_string(),
            objective: Objective::ErrorRateBelow {
                errors: "failed".to_string(),
                total: "total".to_string(),
                max_ratio_milli: 100, // 10%
            },
            fast_window_ms: fast,
            slow_window_ms: slow,
            burn_threshold_milli: threshold,
        }
    }

    #[test]
    fn alert_fires_and_resolves_on_fast_window_recovery() {
        let mut engine = HealthEngine::new(vec![error_rate_slo(1_000, 4_000, 1_000)]);
        // 50% errors from the start: both windows burn 5x the 10% budget
        let dirty = snap(&[("failed", 50), ("total", 100)]);
        let events = engine.observe(500, &dirty);
        assert_eq!(events.len(), 1);
        assert!(events[0].firing);
        assert_eq!(events[0].fast_burn_milli, 5_000);
        assert!(engine.status()[0].firing);
        // still dirty inside the fast window: no new transition
        assert!(engine.observe(1_000, &dirty).is_empty());
        // errors stop: once the fast window only sees clean deltas, the
        // alert resolves (even though the slow window still burns)
        let events = engine.observe(2_200, &snap(&[("failed", 50), ("total", 1_100)]));
        assert_eq!(events.len(), 1, "{events:?}");
        assert!(!events[0].firing, "fast-window recovery resolves");
        assert_eq!(engine.alerts().len(), 2);
    }

    #[test]
    fn slow_window_guards_against_blips() {
        // a burst that is loud in the fast window but quiet in the slow
        // one must not fire
        let mut engine = HealthEngine::new(vec![error_rate_slo(500, 10_000, 1_000)]);
        let _ = engine.observe(0, &snap(&[("failed", 0), ("total", 10_000)]));
        let _ = engine.observe(9_000, &snap(&[("failed", 0), ("total", 20_000)]));
        // burst: 30 of 60 new entities fail inside the fast window, but
        // over the slow window that is 30/20_060 ≈ 0.15% << 10%
        let events = engine.observe(9_500, &snap(&[("failed", 30), ("total", 20_060)]));
        assert!(events.is_empty(), "slow window vetoes the blip: {events:?}");
        assert!(!engine.status()[0].firing);
        assert!(engine.status()[0].fast_burn_milli >= 1_000);
        assert!(engine.status()[0].slow_burn_milli < 1_000);
    }

    #[test]
    fn latency_burn_counts_bad_buckets() {
        let hist = HistogramSnapshot {
            count: 100,
            sum: 10_000,
            min: 1,
            max: 500,
            buckets: vec![(Some(64), 90), (Some(512), 10)],
            exemplars: Vec::new(),
        };
        let mut s = TelemetrySnapshot::default();
        s.histograms.insert("lat".to_string(), hist.clone());
        let slo = SloSpec {
            name: "p99".to_string(),
            objective: Objective::LatencyBelow {
                histogram: "lat".to_string(),
                percentile: 99,
                max_sim_ms: 64,
            },
            fast_window_ms: 1_000,
            slow_window_ms: 1_000,
            burn_threshold_milli: 2_000,
        };
        let mut engine = HealthEngine::new(vec![slo]);
        let events = engine.observe(100, &s);
        // 10% over the 64ms bound against a 1% budget: burn 10x
        assert_eq!(engine.status()[0].fast_burn_milli, 10_000);
        assert_eq!(events.len(), 1);
        assert!(events[0].firing);
        assert_eq!(engine.status()[0].measured, 500, "p99 in the 512 bucket");
        // an identical later snapshot means zero windowed observations
        // once the window slides past the burst: the alert resolves
        let events = engine.observe(1_200, &s);
        assert_eq!(events.len(), 1);
        assert!(!events[0].firing, "quiet window resolves the alert");
    }

    #[test]
    fn throughput_burn_clamps_when_stalled() {
        let slo = SloSpec {
            name: "ingest".to_string(),
            objective: Objective::ThroughputAbove {
                counter: "docs".to_string(),
                min_per_sec_milli: 1_000,
            },
            fast_window_ms: 1_000,
            slow_window_ms: 2_000,
            burn_threshold_milli: 1_000,
        };
        let mut engine = HealthEngine::new(vec![slo]);
        let _ = engine.observe(1_000, &snap(&[("docs", 10)]));
        // healthy: 10 docs over the first second => 10x the floor
        assert_eq!(engine.status()[0].measured, 10_000);
        assert!(!engine.status()[0].firing);
        // stalled: no growth at all => clamped burn, fires
        let _ = engine.observe(4_000, &snap(&[("docs", 10)]));
        let events_burn = engine.status()[0].fast_burn_milli;
        assert_eq!(events_burn, BURN_CLAMP_MILLI);
        assert!(engine.status()[0].firing);
    }

    #[test]
    fn attached_telemetry_counts_transitions() {
        let tele = Telemetry::new();
        let mut engine = HealthEngine::with_telemetry(
            vec![error_rate_slo(1_000, 2_000, 1_000)],
            Arc::clone(&tele),
        );
        let _ = engine.observe(100, &snap(&[("failed", 50), ("total", 100)]));
        let clean = snap(&[("failed", 50), ("total", 2_000)]);
        let _ = engine.observe(1_000, &clean);
        let _ = engine.observe(2_500, &clean);
        let s = tele.snapshot();
        assert_eq!(s.counter("health.alerts.fired"), 1);
        assert_eq!(s.counter("health.alerts.resolved"), 1);
    }

    #[test]
    fn doctor_json_renders_a_missing_last_error_as_null() {
        let node = |node: u32, last_error: Option<&str>| NodeScore {
            node,
            model: "x335".to_string(),
            health: crate::faults::NodeHealth::Degraded,
            runs: 1,
            processed: 2,
            failed: 0,
            retries: 0,
            faults: 0,
            failovers: 0,
            skipped: 0,
            sim_ms: 7,
            last_error: last_error.map(str::to_string),
        };
        let report = DoctorReport {
            at_sim_ms: 9,
            slos: Vec::new(),
            alerts: Vec::new(),
            exemplars: Vec::new(),
            nodes: vec![node(0, None), node(1, Some("fault:timeout doc=3"))],
        };
        let json = report.to_json_string();
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        let nodes = parsed.get("nodes").and_then(|n| n.as_array()).unwrap();
        assert!(nodes[0].get("last_error").unwrap().is_null(), "{json}");
        assert_eq!(
            nodes[1].get("last_error").and_then(|e| e.as_str()),
            Some("fault:timeout doc=3")
        );
        assert!(json.contains("\"last_error\": null,"), "{json}");
        assert!(json.contains("\"health\": \"Degraded\","), "{json}");
        assert!(json.contains("\"alerts\": [],"), "{json}");
    }

    #[test]
    fn history_is_pruned_to_the_slow_window() {
        let mut engine = HealthEngine::new(vec![error_rate_slo(1_000, 2_000, 1_000)]);
        for t in 0..50u64 {
            let _ = engine.observe(t * 500, &snap(&[("failed", t), ("total", t * 10)]));
        }
        assert!(
            engine.history.len() <= 7,
            "history bounded by the slow window: {}",
            engine.history.len()
        );
    }
}
