//! Deterministic observability: metrics and span tracing for the
//! simulated platform.
//!
//! The paper's cluster lives or dies by per-stage throughput (§5 budgets
//! ~10 docs/sec/node for the shallow-parser path), and the next round of
//! performance work needs a measurement substrate that can *prove* a
//! change moved a number. This module supplies it at laptop scale:
//!
//! - a [`Telemetry`] registry of named atomic [`Counter`]s, [`Gauge`]s and
//!   fixed-bucket [`Histogram`]s, shared by every platform component of a
//!   [`Cluster`](crate::cluster::Cluster);
//! - histograms of **simulated** milliseconds (on one [`SimClock`]),
//!   fed by [`TraceSpan`] durations — there is no wall-clock read
//!   anywhere, so identical seeds give byte-identical
//!   [`TelemetrySnapshot`]s;
//! - deterministic snapshot export: a human-readable table
//!   ([`TelemetrySnapshot::to_table`]) and canonical JSON with stable
//!   field ordering ([`TelemetrySnapshot::to_json_string`], backed by the
//!   `BTreeMap`-ordered `serde_json` shim), plus a parser
//!   ([`TelemetrySnapshot::from_json_str`]) so exported files round-trip.
//!
//! Metric names form a dotted taxonomy (`store.update.ok`,
//! `index.query.term`, `bus.faults.node_down`, `pipeline.processed`,
//! `span.pipeline.shard.sim_ms`); see DESIGN.md §8 for the full list.
//! Counters and histogram cells are plain relaxed atomics: hot paths pay
//! one `fetch_add`, and because every recorded value is itself
//! deterministic, concurrent merging cannot perturb a snapshot.

use crate::evlog::{EvLog, DEFAULT_EVLOG_CAPACITY};
use crate::trace::{FlightRecorder, TraceId, TraceSpan, DEFAULT_TRACE_CAPACITY};
use parking_lot::{Mutex, RwLock};
use serde::Serialize;
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Increments by one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down (entity counts, live nodes).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the gauge to an absolute value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds a (possibly negative) delta.
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Default exponential bucket ladder: upper bounds 1, 2, 4, … 65536, plus
/// an implicit overflow bucket. Suits both simulated-ms durations and
/// postings-scanned counts.
pub const DEFAULT_BUCKETS: [u64; 17] = [
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536,
];

/// A bucket's representative observation: the trace it belongs to plus
/// the observed value, linking a latency histogram back to the flight
/// recorder (`wfsm trace` can dump the full causal tree).
///
/// Selection is deterministic: the **largest** value recorded into the
/// bucket wins, ties broken by the **smallest** trace id. Both rules are
/// commutative, so concurrent shard workers converge on the same exemplar
/// regardless of interleaving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Exemplar {
    /// The observed value (simulated ms for latency histograms).
    pub value: u64,
    /// Raw [`TraceId`] of the trace the observation belongs to.
    pub trace: u64,
}

/// A fixed-bucket histogram over `u64` observations.
///
/// Bucket `i` counts observations `<= bounds[i]` (and greater than the
/// previous bound); one extra overflow bucket catches the rest. Bounds are
/// fixed at construction, so merging concurrent observations is pure
/// atomic addition and snapshots are deterministic. Observations recorded
/// via [`Histogram::record_exemplar`] additionally pin a per-bucket
/// [`Exemplar`] pointing at their trace.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    exemplars: Vec<Mutex<Option<Exemplar>>>,
}

impl Histogram {
    fn new(bounds: &[u64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds ascending");
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            exemplars: (0..=bounds.len()).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        let idx = self.bounds.partition_point(|&b| b < value);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records one observation and offers it as the bucket's exemplar.
    /// The bucket keeps whichever observation is worst (max value; ties
    /// go to the smaller trace id), so an SLO breach always links to a
    /// representative trace of the slow path.
    pub fn record_exemplar(&self, value: u64, trace: TraceId) {
        self.record(value);
        let idx = self.bounds.partition_point(|&b| b < value);
        let mut slot = self.exemplars[idx].lock();
        let replace = match *slot {
            None => true,
            Some(e) => value > e.value || (value == e.value && trace.0 < e.trace),
        };
        if replace {
            *slot = Some(Exemplar {
                value,
                trace: trace.0,
            });
        }
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Estimates the `p`-th percentile (0..=100) from the bucket counts:
    /// the upper bound of the bucket containing the rank-`⌈p·count⌉`
    /// observation, clamped to the observed max (so single-value and
    /// overflow-heavy histograms report exact extremes). 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        self.snapshot().percentile(p)
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count();
        HistogramSnapshot {
            count,
            sum: self.sum(),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, c)| {
                    let c = c.load(Ordering::Relaxed);
                    (c > 0).then(|| (self.bounds.get(i).copied(), c))
                })
                .collect(),
            exemplars: self
                .exemplars
                .iter()
                .enumerate()
                .filter_map(|(i, slot)| {
                    let e = *slot.lock();
                    e.map(|e| (self.bounds.get(i).copied(), e))
                })
                .collect(),
        }
    }
}

/// A [`Telemetry`] registry's simulated time, in ms. Root operations (a
/// trace root, an untraced bus call or ingest) open at its now and move
/// it to their end; spans with a parent never touch it. Roots open on
/// one thread, so same-seed runs replay every stamp taken from it.
#[derive(Debug, Default)]
pub struct SimClock(AtomicU64);

impl SimClock {
    /// The current simulated time.
    pub fn now(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Moves the clock forward to `at_ms` (no-op when already past it).
    pub fn advance_to(&self, at_ms: u64) {
        self.0.fetch_max(at_ms, Ordering::Relaxed);
    }
}

/// The metric registry: one per cluster (or per component under test).
///
/// Handles are get-or-create by name and cheap to clone; components
/// resolve them once at construction so hot paths touch only atomics.
/// Also owns the cluster's trace [`FlightRecorder`] (which keeps the
/// [`SimClock`]); the snapshot merges its `trace.spans` /
/// `trace.evicted` totals into the counter section.
#[derive(Debug)]
pub struct Telemetry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
    recorder: Arc<FlightRecorder>,
    evlog: Arc<EvLog>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry {
            counters: RwLock::default(),
            gauges: RwLock::default(),
            histograms: RwLock::default(),
            recorder: FlightRecorder::with_capacity(DEFAULT_TRACE_CAPACITY),
            evlog: Arc::new(EvLog::with_capacity(DEFAULT_EVLOG_CAPACITY)),
        }
    }
}

impl Telemetry {
    /// A fresh, empty, shareable registry with the default trace
    /// capacity ([`DEFAULT_TRACE_CAPACITY`] retained spans).
    pub fn new() -> Arc<Telemetry> {
        Arc::new(Telemetry::default())
    }

    /// A registry whose flight recorder retains up to `capacity`
    /// completed spans (0 disables tracing entirely).
    pub fn with_trace_capacity(capacity: usize) -> Arc<Telemetry> {
        Telemetry::with_capacities(capacity, DEFAULT_EVLOG_CAPACITY)
    }

    /// A registry with explicit trace and event-log capacities (0
    /// disables the respective subsystem — the bench harness uses an
    /// evlog capacity of 0 for its log-off arm).
    pub fn with_capacities(trace_capacity: usize, evlog_capacity: usize) -> Arc<Telemetry> {
        Arc::new(Telemetry {
            counters: RwLock::default(),
            gauges: RwLock::default(),
            histograms: RwLock::default(),
            recorder: FlightRecorder::with_capacity(trace_capacity),
            evlog: Arc::new(EvLog::with_capacity(evlog_capacity)),
        })
    }

    /// The trace flight recorder owned by this registry.
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// The structured event log owned by this registry.
    pub fn evlog(&self) -> &Arc<EvLog> {
        &self.evlog
    }

    /// The registry's simulated clock.
    pub fn clock(&self) -> &Arc<SimClock> {
        &self.recorder.clock
    }

    /// Opens a new trace rooted at `name` (one per top-level operation).
    pub fn trace_root(&self, name: impl Into<String>) -> TraceSpan {
        self.recorder.root(name, self.clock().now())
    }

    /// The counter registered under `name` (created on first use).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = self.counters.read().get(name) {
            return Arc::clone(c);
        }
        Arc::clone(
            self.counters
                .write()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::default())),
        )
    }

    /// The gauge registered under `name` (created on first use).
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(g) = self.gauges.read().get(name) {
            return Arc::clone(g);
        }
        Arc::clone(
            self.gauges
                .write()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Gauge::default())),
        )
    }

    /// The histogram registered under `name` with the default exponential
    /// buckets (created on first use).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with(name, &DEFAULT_BUCKETS)
    }

    /// The histogram registered under `name`; `bounds` applies only on
    /// first creation (an existing histogram keeps its buckets).
    pub fn histogram_with(&self, name: &str, bounds: &[u64]) -> Arc<Histogram> {
        if let Some(h) = self.histograms.read().get(name) {
            return Arc::clone(h);
        }
        Arc::clone(
            self.histograms
                .write()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new(bounds))),
        )
    }

    /// A point-in-time copy of every metric. Deterministic: names are
    /// ordered, and every recorded value traces back to the seeded
    /// simulation, never to wall time. Once any span has been recorded,
    /// the flight recorder's totals appear as `trace.spans` /
    /// `trace.evicted` counters.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut counters: BTreeMap<String, u64> = self
            .counters
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let recorded = self.recorder.recorded();
        let evicted = self.recorder.evicted();
        if recorded > 0 || evicted > 0 {
            counters.insert("trace.spans".to_string(), recorded);
            counters.insert("trace.evicted".to_string(), evicted);
        }
        if self.evlog.emitted() > 0 {
            counters.insert("evlog.emitted".to_string(), self.evlog.emitted());
            counters.insert("evlog.kept".to_string(), self.evlog.kept());
            counters.insert("evlog.sampled".to_string(), self.evlog.sampled());
            counters.insert("evlog.dropped".to_string(), self.evlog.dropped());
        }
        TelemetrySnapshot {
            counters,
            gauges: self
                .gauges
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .read()
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// Frozen state of one histogram.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation (0 when empty).
    pub max: u64,
    /// Non-empty buckets as `(upper_bound, count)`; `None` is the
    /// overflow bucket.
    pub buckets: Vec<(Option<u64>, u64)>,
    /// Per-bucket exemplars as `(upper_bound, exemplar)`, ascending like
    /// `buckets`; only buckets that received a
    /// [`Histogram::record_exemplar`] observation appear.
    pub exemplars: Vec<(Option<u64>, Exemplar)>,
}

impl HistogramSnapshot {
    /// Estimates the `p`-th percentile (0..=100) from the bucket counts:
    /// the upper bound of the bucket containing the rank-`⌈p·count⌉`
    /// observation, clamped to the observed max; the overflow bucket
    /// reports the max. Returns 0 for an empty histogram.
    ///
    /// Derived purely from `(count, max, buckets)`, so it needs no extra
    /// serialized state: exports compute it on the fly and re-exports of
    /// parsed snapshots reproduce it bit-for-bit.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (((p.clamp(0.0, 100.0) / 100.0) * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (bound, bucket_count) in &self.buckets {
            cumulative += bucket_count;
            if cumulative >= rank {
                return match bound {
                    Some(b) => (*b).min(self.max),
                    None => self.max,
                };
            }
        }
        self.max
    }

    /// The observations recorded since the cumulative snapshot `base`
    /// (none: since t = 0): count, sum and buckets subtracted bucket by
    /// bucket, saturating. `min`/`max` keep the cumulative extremes, which
    /// are not windowable, so windowed percentiles clamp against the
    /// whole-run max. Exemplars are dropped.
    pub fn delta_since(&self, base: Option<&HistogramSnapshot>) -> HistogramSnapshot {
        let base_buckets: BTreeMap<Option<u64>, u64> = base
            .map(|b| b.buckets.iter().copied().collect())
            .unwrap_or_default();
        let (base_count, base_sum) = base.map_or((0, 0), |b| (b.count, b.sum));
        HistogramSnapshot {
            count: self.count.saturating_sub(base_count),
            sum: self.sum.saturating_sub(base_sum),
            min: self.min,
            max: self.max,
            buckets: self
                .buckets
                .iter()
                .filter_map(|(le, c)| {
                    let d = c.saturating_sub(base_buckets.get(le).copied().unwrap_or(0));
                    (d > 0).then_some((*le, d))
                })
                .collect(),
            exemplars: Vec::new(),
        }
    }

    /// The worst retained exemplar: max value, ties broken by the smaller
    /// trace id (the same total order the buckets use internally).
    pub fn worst_exemplar(&self) -> Option<Exemplar> {
        self.exemplars
            .iter()
            .map(|(_, e)| *e)
            .max_by(|a, b| a.value.cmp(&b.value).then(b.trace.cmp(&a.trace)))
    }
}

/// One exported histogram bucket: its bound (`null` for the overflow
/// bucket), its count, and its exemplar when it holds one.
#[derive(Serialize)]
struct BucketJson {
    le: Option<u64>,
    count: u64,
    #[serde(skip_serializing_if = "Option::is_none")]
    exemplar: Option<Exemplar>,
}

/// Exports the computed p50/p95/p99 beside the stored fields, and each
/// exemplar inside its bucket; the reader recomputes the percentiles.
impl Serialize for HistogramSnapshot {
    fn to_value(&self) -> Value {
        let buckets: Vec<BucketJson> = self
            .buckets
            .iter()
            .map(|&(le, count)| BucketJson {
                le,
                count,
                exemplar: self
                    .exemplars
                    .iter()
                    .find(|(bound, _)| *bound == le)
                    .map(|&(_, e)| e),
            })
            .collect();
        json!({
            "buckets": buckets,
            "count": self.count,
            "max": self.max,
            "min": self.min,
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
            "p99": self.percentile(99.0),
            "sum": self.sum,
        })
    }
}

/// Frozen state of a whole registry; compares bit-for-bit. Its JSON is
/// the `wfsm metrics` export: sorted keys, ascending histogram buckets.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct TelemetrySnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, i64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl TelemetrySnapshot {
    /// One counter's value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// One gauge's value (0 when absent).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// One histogram's frozen state, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Renders the snapshot as an aligned human-readable table.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("COUNTERS\n");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "  {name:<44} {value:>12}");
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("GAUGES\n");
            for (name, value) in &self.gauges {
                let _ = writeln!(out, "  {name:<44} {value:>12}");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("HISTOGRAMS\n");
            let _ = writeln!(
                out,
                "  {:<44} {:>8} {:>10} {:>8} {:>8} {:>8} {:>8} {:>8}",
                "name", "count", "sum", "min", "max", "p50", "p95", "p99"
            );
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {name:<44} {:>8} {:>10} {:>8} {:>8} {:>8} {:>8} {:>8}",
                    h.count,
                    h.sum,
                    h.min,
                    h.max,
                    h.percentile(50.0),
                    h.percentile(95.0),
                    h.percentile(99.0)
                );
            }
        }
        if out.is_empty() {
            out.push_str("(no metrics recorded)\n");
        }
        out
    }

    /// Pretty-printed canonical JSON (the `wfsm metrics` export format).
    pub fn to_json_string(&self) -> String {
        serde_json::to_string_pretty(self).expect("Value renders infallibly")
    }

    /// Parses a snapshot back from its JSON export.
    pub fn from_json(value: &Value) -> Result<TelemetrySnapshot, String> {
        let obj = value
            .as_object()
            .ok_or_else(|| format!("snapshot must be an object, got {}", value.kind()))?;
        let mut snap = TelemetrySnapshot::default();
        if let Some(counters) = obj.get("counters") {
            for (k, v) in need_object(counters, "counters")? {
                snap.counters
                    .insert(k.clone(), need_u64(v, &format!("counter {k}"))?);
            }
        }
        if let Some(gauges) = obj.get("gauges") {
            for (k, v) in need_object(gauges, "gauges")? {
                let n = v
                    .as_i64()
                    .ok_or_else(|| format!("gauge {k} must be an integer"))?;
                snap.gauges.insert(k.clone(), n);
            }
        }
        if let Some(histograms) = obj.get("histograms") {
            for (k, v) in need_object(histograms, "histograms")? {
                let h = need_object(v, &format!("histogram {k}"))?;
                let mut hs = HistogramSnapshot {
                    count: need_u64(h.get("count").unwrap_or(&Value::Null), "count")?,
                    sum: need_u64(h.get("sum").unwrap_or(&Value::Null), "sum")?,
                    min: need_u64(h.get("min").unwrap_or(&Value::Null), "min")?,
                    max: need_u64(h.get("max").unwrap_or(&Value::Null), "max")?,
                    buckets: Vec::new(),
                    exemplars: Vec::new(),
                };
                let buckets: &[Value] = match h.get("buckets") {
                    Some(v) => v.as_array().ok_or_else(|| {
                        format!("histogram {k} buckets must be an array, got {}", v.kind())
                    })?,
                    None => &[],
                };
                for b in buckets {
                    let b = need_object(b, "bucket")?;
                    let le = match b.get("le") {
                        None | Some(Value::Null) => None,
                        Some(v) => Some(need_u64(v, "bucket le")?),
                    };
                    let count = need_u64(b.get("count").unwrap_or(&Value::Null), "bucket")?;
                    hs.buckets.push((le, count));
                    if let Some(ev) = b.get("exemplar") {
                        let eo = need_object(ev, "exemplar")?;
                        hs.exemplars.push((
                            le,
                            Exemplar {
                                value: need_u64(
                                    eo.get("value").unwrap_or(&Value::Null),
                                    "exemplar value",
                                )?,
                                trace: need_u64(
                                    eo.get("trace").unwrap_or(&Value::Null),
                                    "exemplar trace",
                                )?,
                            },
                        ));
                    }
                }
                let total = hs
                    .buckets
                    .iter()
                    .try_fold(0u64, |t, &(_, c)| t.checked_add(c));
                if total != Some(hs.count) {
                    return Err(format!(
                        "histogram {k} buckets must sum to its count {}",
                        hs.count
                    ));
                }
                snap.histograms.insert(k.clone(), hs);
            }
        }
        Ok(snap)
    }

    /// Parses a snapshot from JSON text.
    pub fn from_json_str(text: &str) -> Result<TelemetrySnapshot, String> {
        let value: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        TelemetrySnapshot::from_json(&value)
    }
}

fn need_object<'v>(value: &'v Value, what: &str) -> Result<&'v BTreeMap<String, Value>, String> {
    value
        .as_object()
        .ok_or_else(|| format!("{what} must be an object, got {}", value.kind()))
}

fn need_u64(value: &Value, what: &str) -> Result<u64, String> {
    value.as_u64().ok_or_else(|| {
        format!(
            "{what} must be a non-negative integer, got {}",
            value.kind()
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let tele = Telemetry::new();
        let c = tele.counter("a.b");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // same name resolves to the same counter
        tele.counter("a.b").inc();
        assert_eq!(tele.snapshot().counter("a.b"), 6);
        assert_eq!(tele.snapshot().counter("missing"), 0);
    }

    #[test]
    fn gauges_go_both_ways() {
        let tele = Telemetry::new();
        let g = tele.gauge("nodes.up");
        g.set(4);
        g.add(-1);
        assert_eq!(tele.snapshot().gauge("nodes.up"), 3);
    }

    #[test]
    fn histogram_buckets_partition_observations() {
        let tele = Telemetry::new();
        let h = tele.histogram_with("lat", &[10, 100]);
        for v in [0, 1, 10, 11, 100, 101, 5000] {
            h.record(v);
        }
        let snap = tele.snapshot();
        let hs = snap.histogram("lat").unwrap();
        assert_eq!(hs.count, 7);
        assert_eq!(hs.sum, 5223);
        assert_eq!(hs.min, 0);
        assert_eq!(hs.max, 5000);
        assert_eq!(
            hs.buckets,
            vec![(Some(10), 3), (Some(100), 2), (None, 2)],
            "le-10, le-100 and overflow buckets"
        );
        assert_eq!(hs.buckets.iter().map(|(_, c)| c).sum::<u64>(), hs.count);
    }

    #[test]
    fn empty_histogram_snapshot_is_zeroed() {
        let tele = Telemetry::new();
        tele.histogram("quiet");
        let snap = tele.snapshot();
        let hs = snap.histogram("quiet").unwrap();
        assert_eq!((hs.count, hs.sum, hs.min, hs.max), (0, 0, 0, 0));
        assert!(hs.buckets.is_empty());
    }

    #[test]
    fn percentiles_follow_bucket_bounds() {
        let tele = Telemetry::new();
        let h = tele.histogram_with("lat", &[10, 100, 1000]);
        for v in 1..=100u64 {
            h.record(v);
        }
        // ranks 50/95/99 land in the le-10 / le-100 buckets
        assert_eq!(h.percentile(50.0), 100);
        assert_eq!(h.percentile(95.0), 100);
        assert_eq!(h.percentile(99.0), 100);
        assert_eq!(h.percentile(0.0), 10, "rank clamps to the first bucket");
        let snap = tele.snapshot();
        let hs = snap.histogram("lat").unwrap();
        assert_eq!(hs.percentile(5.0), 10);
        assert_eq!(hs.percentile(100.0), 100);
    }

    #[test]
    fn percentile_clamps_to_observed_extremes() {
        let tele = Telemetry::new();
        let h = tele.histogram("one");
        h.record(5); // lands in the le-8 bucket
        assert_eq!(h.percentile(50.0), 5, "clamped to max, not the bound");
        let overflow = tele.histogram_with("over", &[4]);
        overflow.record(1_000_000);
        assert_eq!(
            overflow.percentile(99.0),
            1_000_000,
            "overflow bucket reports the max"
        );
        let empty = tele.histogram("empty");
        assert_eq!(empty.percentile(50.0), 0);
    }

    /// Satellite contract: `percentile` on an empty histogram is 0 for
    /// every `p`, through both the live handle and the snapshot.
    #[test]
    fn empty_histogram_percentile_is_zero() {
        let tele = Telemetry::new();
        let h = tele.histogram("never.recorded");
        for p in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), 0, "empty histogram p{p} must be 0");
        }
        let snap = tele.snapshot();
        let hs = snap.histogram("never.recorded").unwrap();
        for p in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(hs.percentile(p), 0);
        }
        assert_eq!(hs.worst_exemplar(), None, "no observations, no exemplar");
    }

    #[test]
    fn exemplars_keep_the_worst_observation_per_bucket() {
        let tele = Telemetry::new();
        let h = tele.histogram_with("lat", &[10, 100]);
        h.record_exemplar(5, TraceId(9));
        h.record_exemplar(8, TraceId(4)); // larger value wins the le-10 bucket
        h.record_exemplar(8, TraceId(2)); // tie: smaller trace id wins
        h.record_exemplar(8, TraceId(3)); // tie with larger id: loses
        h.record_exemplar(50, TraceId(7));
        h.record(70); // plain record never displaces an exemplar
        let snap = tele.snapshot();
        let hs = snap.histogram("lat").unwrap();
        assert_eq!(
            hs.exemplars,
            vec![
                (Some(10), Exemplar { value: 8, trace: 2 }),
                (
                    Some(100),
                    Exemplar {
                        value: 50,
                        trace: 7
                    }
                ),
            ]
        );
        assert_eq!(
            hs.worst_exemplar(),
            Some(Exemplar {
                value: 50,
                trace: 7
            })
        );
        assert_eq!(hs.count, 6, "record_exemplar still counts observations");
    }

    #[test]
    fn exemplars_round_trip_through_json() {
        let tele = Telemetry::new();
        let h = tele.histogram_with("lat", &[10]);
        h.record_exemplar(7, TraceId(3));
        h.record_exemplar(900, TraceId(12)); // overflow bucket
        h.record(2); // le-10 count without touching the exemplar
        let snap = tele.snapshot();
        let text = snap.to_json_string();
        assert!(text.contains("\"exemplar\""), "{text}");
        let back = TelemetrySnapshot::from_json_str(&text).unwrap();
        assert_eq!(back, snap, "exemplars survive export → parse");
        assert_eq!(back.to_json_string(), text, "re-export is a fixpoint");
        assert_eq!(
            back.histogram("lat").unwrap().worst_exemplar(),
            Some(Exemplar {
                value: 900,
                trace: 12
            })
        );
    }

    #[test]
    fn trace_counters_merge_into_snapshot() {
        let tele = Telemetry::with_trace_capacity(2);
        assert_eq!(
            tele.snapshot().counter("trace.spans"),
            0,
            "quiet recorder stays out of the snapshot"
        );
        assert!(!tele.snapshot().counters.contains_key("trace.spans"));
        for i in 0..3 {
            tele.trace_root(format!("op:{i}")).finish();
        }
        let snap = tele.snapshot();
        assert_eq!(snap.counter("trace.spans"), 3);
        assert_eq!(snap.counter("trace.evicted"), 1);
    }

    #[test]
    fn snapshot_json_round_trips() {
        let tele = Telemetry::new();
        tele.counter("z.last").add(3);
        tele.counter("a.first").inc();
        tele.gauge("g").set(-2);
        let h = tele.histogram_with("h", &[8]);
        h.record(5);
        h.record(500);
        let snap = tele.snapshot();
        let text = snap.to_json_string();
        let back = TelemetrySnapshot::from_json_str(&text).unwrap();
        assert_eq!(snap, back);
        // canonical ordering: keys sorted, so a.first precedes z.last
        let a = text.find("a.first").unwrap();
        let z = text.find("z.last").unwrap();
        assert!(a < z, "JSON keys must be sorted");
    }

    #[test]
    fn concurrent_recording_is_exact() {
        let tele = Telemetry::new();
        let c = tele.counter("hits");
        let h = tele.histogram("vals");
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for v in 0..100u64 {
                        c.inc();
                        h.record(v);
                    }
                });
            }
        });
        let snap = tele.snapshot();
        assert_eq!(snap.counter("hits"), 800);
        let hs = snap.histogram("vals").unwrap();
        assert_eq!(hs.count, 800);
        assert_eq!(hs.sum, 8 * (0..100).sum::<u64>());
        assert_eq!(hs.min, 0);
        assert_eq!(hs.max, 99);
    }

    #[test]
    fn table_lists_every_section() {
        let tele = Telemetry::new();
        tele.counter("c").inc();
        tele.gauge("g").set(1);
        tele.histogram("h").record(9);
        let table = tele.snapshot().to_table();
        assert!(table.contains("COUNTERS"), "{table}");
        assert!(table.contains("GAUGES"), "{table}");
        assert!(table.contains("HISTOGRAMS"), "{table}");
        assert_eq!(
            TelemetrySnapshot::default().to_table(),
            "(no metrics recorded)\n"
        );
    }
}
