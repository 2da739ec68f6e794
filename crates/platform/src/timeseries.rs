//! Deterministic metrics-over-time: a fixed-capacity ring buffer of
//! [`TelemetrySnapshot`] scrapes on the simulated-ms clock.
//!
//! Point-in-time snapshots (PR 2) answer *what* a run cost; this module
//! answers *when* the cost accrued. A [`TimeSeriesStore`] is scraped
//! periodically — [`TimeSeriesStore::tick`] takes the current simulated
//! time and a snapshot closure, and scrapes only when a full interval has
//! elapsed, so wiring it into a hot loop is free between scrapes. The
//! ring keeps the most recent `capacity` samples (oldest evicted first,
//! evictions counted).
//!
//! [`TimeSeriesStore::timeline`] rolls the retained samples into
//! per-metric windows:
//!
//! - **counters**: `increase` (saturating delta) and `rate_milli`
//!   (events per simulated second, milli-units) per window. The first
//!   window is measured against an implicit all-zero baseline, so the
//!   summed increase over all windows telescopes to exactly the final
//!   counter value — a conservation law the property suite checks.
//! - **gauges**: `last`/`min`/`max` over the window's endpoints.
//! - **histograms**: per-window bucket deltas folded back into a
//!   synthetic [`HistogramSnapshot`](crate::telemetry::HistogramSnapshot),
//!   so `p50/p95/p99` are computed over only the observations that landed
//!   in that window.
//!
//! Everything is integer arithmetic over `BTreeMap`s; the table and JSON
//! exports are byte-identical for identical sample sequences.

use crate::telemetry::TelemetrySnapshot;
use serde::Serialize;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::Mutex;

/// Default number of retained scrape samples.
pub const DEFAULT_TIMELINE_CAPACITY: usize = 256;

/// Default scrape interval in simulated milliseconds.
pub const DEFAULT_SCRAPE_INTERVAL_MS: u64 = 50;

/// A fixed-capacity ring of `(scrape_sim_ms, snapshot)` samples.
pub struct TimeSeriesStore {
    capacity: usize,
    interval_ms: u64,
    inner: Mutex<Inner>,
}

#[derive(Default)]
struct Inner {
    samples: VecDeque<(u64, TelemetrySnapshot)>,
    scrapes: u64,
    dropped: u64,
    last_scrape_ms: Option<u64>,
}

impl TimeSeriesStore {
    /// A store retaining up to `capacity` samples, scraping at most once
    /// per `interval_ms` of simulated time. Capacity 0 disables sampling
    /// entirely; interval 0 scrapes on every distinct tick time.
    pub fn new(capacity: usize, interval_ms: u64) -> Self {
        TimeSeriesStore {
            capacity,
            interval_ms,
            inner: Mutex::new(Inner::default()),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn interval_ms(&self) -> u64 {
        self.interval_ms
    }

    /// Scrapes `make()` at simulated time `now_ms` if at least one full
    /// interval has passed since the last scrape (the first tick always
    /// scrapes). Returns whether a scrape happened; `make` is not called
    /// otherwise.
    pub fn tick(&self, now_ms: u64, make: impl FnOnce() -> TelemetrySnapshot) -> bool {
        if self.capacity == 0 {
            return false;
        }
        {
            let inner = self.inner.lock().expect("timeseries lock");
            if let Some(last) = inner.last_scrape_ms {
                if now_ms < last.saturating_add(self.interval_ms.max(1)) {
                    return false;
                }
            }
        }
        // snapshot outside the lock: `make` may itself touch telemetry
        self.scrape_at(now_ms, make());
        true
    }

    /// Unconditionally records one sample at `now_ms` (ticks and direct
    /// scrapes share the ring). Out-of-order times are clamped to be
    /// monotonic so windows never run backwards.
    pub fn scrape_at(&self, now_ms: u64, snapshot: TelemetrySnapshot) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock().expect("timeseries lock");
        let at = match inner.samples.back() {
            Some((last, _)) => now_ms.max(*last),
            None => now_ms,
        };
        inner.samples.push_back((at, snapshot));
        inner.scrapes += 1;
        inner.last_scrape_ms = Some(at);
        while inner.samples.len() > self.capacity {
            inner.samples.pop_front();
            inner.dropped += 1;
        }
    }

    /// Retained samples, oldest first.
    pub fn samples(&self) -> Vec<(u64, TelemetrySnapshot)> {
        self.inner
            .lock()
            .expect("timeseries lock")
            .samples
            .iter()
            .cloned()
            .collect()
    }

    /// Total scrapes ever taken (including dropped ones).
    pub fn scrapes(&self) -> u64 {
        self.inner.lock().expect("timeseries lock").scrapes
    }

    /// Samples evicted by the ring.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("timeseries lock").dropped
    }

    pub fn len(&self) -> usize {
        self.inner.lock().expect("timeseries lock").samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rolls the retained samples into a [`Timeline`].
    pub fn timeline(&self) -> Timeline {
        let inner = self.inner.lock().expect("timeseries lock");
        Timeline::from_samples(
            inner.samples.iter().cloned().collect::<Vec<_>>().as_slice(),
            inner.scrapes,
            inner.dropped,
        )
    }
}

/// One counter window: what the counter did between two scrapes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct CounterWindow {
    pub start_ms: u64,
    pub end_ms: u64,
    /// Saturating delta over the window.
    pub increase: u64,
    /// Events per simulated second, milli-units
    /// (`increase * 1_000_000 / window_ms`).
    pub rate_milli: u64,
}

/// One gauge window: endpoint values between two scrapes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct GaugeWindow {
    pub start_ms: u64,
    pub end_ms: u64,
    pub last: i64,
    pub min: i64,
    pub max: i64,
}

/// One histogram window: percentiles over only that window's
/// observations (bucket deltas).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct HistogramWindow {
    pub start_ms: u64,
    pub end_ms: u64,
    /// Observations that landed in this window.
    pub count: u64,
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
}

/// The rolled-up view of a scrape ring: per-metric window series.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct Timeline {
    /// Simulated time of the first retained sample.
    pub start_ms: u64,
    /// Simulated time of the last retained sample.
    pub end_ms: u64,
    /// Total scrapes taken (including evicted).
    pub scrapes: u64,
    /// Samples evicted by the ring.
    pub dropped: u64,
    pub counters: BTreeMap<String, Vec<CounterWindow>>,
    pub gauges: BTreeMap<String, Vec<GaugeWindow>>,
    pub histograms: BTreeMap<String, Vec<HistogramWindow>>,
}

impl Timeline {
    /// Folds an ordered sample sequence into windows. The first window is
    /// measured against an implicit empty snapshot at time 0, so counter
    /// increases telescope to the final value.
    pub fn from_samples(samples: &[(u64, TelemetrySnapshot)], scrapes: u64, dropped: u64) -> Self {
        let mut timeline = Timeline {
            start_ms: samples.first().map(|(t, _)| *t).unwrap_or(0),
            end_ms: samples.last().map(|(t, _)| *t).unwrap_or(0),
            scrapes,
            dropped,
            ..Timeline::default()
        };
        let baseline = TelemetrySnapshot::default();
        let mut prev_ms = 0u64;
        let mut prev = &baseline;
        for (at, snap) in samples {
            let window_ms = at.saturating_sub(prev_ms).max(1);
            for (name, end) in &snap.counters {
                let start = prev.counter(name);
                let increase = end.saturating_sub(start);
                timeline
                    .counters
                    .entry(name.clone())
                    .or_default()
                    .push(CounterWindow {
                        start_ms: prev_ms,
                        end_ms: *at,
                        increase,
                        rate_milli: increase.saturating_mul(1_000_000) / window_ms,
                    });
            }
            for (name, end) in &snap.gauges {
                // a gauge absent from the previous sample contributes
                // only its endpoint (no phantom zero)
                let endpoints = match prev.gauges.get(name) {
                    Some(start) => (*start.min(end), *start.max(end)),
                    None => (*end, *end),
                };
                timeline
                    .gauges
                    .entry(name.clone())
                    .or_default()
                    .push(GaugeWindow {
                        start_ms: prev_ms,
                        end_ms: *at,
                        last: *end,
                        min: endpoints.0,
                        max: endpoints.1,
                    });
            }
            for (name, end) in &snap.histograms {
                let delta = end.delta_since(prev.histogram(name));
                timeline
                    .histograms
                    .entry(name.clone())
                    .or_default()
                    .push(HistogramWindow {
                        start_ms: prev_ms,
                        end_ms: *at,
                        count: delta.count,
                        p50: delta.percentile(50.0),
                        p95: delta.percentile(95.0),
                        p99: delta.percentile(99.0),
                    });
            }
            prev_ms = *at;
            prev = snap;
        }
        timeline
    }

    /// Windows of one counter (empty when never scraped).
    pub fn counter(&self, name: &str) -> &[CounterWindow] {
        self.counters.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Summed `increase` over every window of one counter.
    pub fn total_increase(&self, name: &str) -> u64 {
        self.counter(name).iter().map(|w| w.increase).sum()
    }

    /// Canonical JSON export through the derived `Serialize`: stable
    /// key order, integers only.
    pub fn to_json_string(&self) -> String {
        serde_json::to_string_pretty(self).expect("Value renders infallibly")
    }

    /// Aligned human-readable table: one line per metric window.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "TIMELINE  span {}..{} sim-ms  scrapes {}  dropped {}",
            self.start_ms, self.end_ms, self.scrapes, self.dropped
        );
        if !self.counters.is_empty() {
            out.push_str("COUNTERS\n");
            for (name, windows) in &self.counters {
                for w in windows {
                    let _ = writeln!(
                        out,
                        "  {name:<44} [{:>6}..{:>6}] +{:<10} {:>10} milli/s",
                        w.start_ms, w.end_ms, w.increase, w.rate_milli
                    );
                }
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("GAUGES\n");
            for (name, windows) in &self.gauges {
                for w in windows {
                    let _ = writeln!(
                        out,
                        "  {name:<44} [{:>6}..{:>6}] last {:<8} min {:<8} max {}",
                        w.start_ms, w.end_ms, w.last, w.min, w.max
                    );
                }
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("HISTOGRAMS\n");
            for (name, windows) in &self.histograms {
                for w in windows {
                    let _ = writeln!(
                        out,
                        "  {name:<44} [{:>6}..{:>6}] n {:<8} p50 {:<6} p95 {:<6} p99 {}",
                        w.start_ms, w.end_ms, w.count, w.p50, w.p95, w.p99
                    );
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::HistogramSnapshot;

    fn snap(counters: &[(&str, u64)], gauges: &[(&str, i64)]) -> TelemetrySnapshot {
        TelemetrySnapshot {
            counters: counters.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            gauges: gauges.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            histograms: BTreeMap::new(),
        }
    }

    #[test]
    fn tick_scrapes_on_the_interval() {
        let store = TimeSeriesStore::new(16, 50);
        assert!(store.tick(0, || snap(&[("a", 1)], &[])));
        assert!(!store.tick(10, || unreachable!("not due yet")));
        assert!(!store.tick(49, || unreachable!("not due yet")));
        assert!(store.tick(50, || snap(&[("a", 3)], &[])));
        assert!(store.tick(230, || snap(&[("a", 7)], &[])));
        assert_eq!(store.len(), 3);
        assert_eq!(store.scrapes(), 3);
        assert_eq!(store.dropped(), 0);
    }

    #[test]
    fn ring_drops_oldest() {
        let store = TimeSeriesStore::new(2, 1);
        for i in 0..5u64 {
            store.scrape_at(i * 10, snap(&[("a", i + 1)], &[]));
        }
        assert_eq!(store.len(), 2);
        assert_eq!(store.dropped(), 3);
        let samples = store.samples();
        assert_eq!(samples[0].0, 30);
        assert_eq!(samples[1].0, 40);
    }

    #[test]
    fn counter_increase_telescopes_to_final_value_even_with_drops() {
        let store = TimeSeriesStore::new(2, 1);
        for i in 0..6u64 {
            store.scrape_at(i * 10, snap(&[("a", i * i)], &[]));
        }
        let timeline = store.timeline();
        // windows: baseline(0)→16 then 16→25: telescopes to 25
        assert_eq!(timeline.total_increase("a"), 25);
    }

    #[test]
    fn gauge_windows_track_endpoints() {
        let store = TimeSeriesStore::new(8, 1);
        store.scrape_at(10, snap(&[], &[("q", 5)]));
        store.scrape_at(20, snap(&[], &[("q", -3)]));
        let timeline = store.timeline();
        let windows = &timeline.gauges["q"];
        assert_eq!(
            windows[0],
            GaugeWindow {
                start_ms: 0,
                end_ms: 10,
                last: 5,
                min: 5,
                max: 5
            }
        );
        assert_eq!(
            windows[1],
            GaugeWindow {
                start_ms: 10,
                end_ms: 20,
                last: -3,
                min: -3,
                max: 5
            }
        );
    }

    #[test]
    fn histogram_windows_use_bucket_deltas() {
        let first = HistogramSnapshot {
            count: 2,
            sum: 6,
            min: 2,
            max: 4,
            buckets: vec![(Some(2), 1), (Some(4), 1)],
            exemplars: Vec::new(),
        };
        let second = HistogramSnapshot {
            count: 5,
            sum: 100,
            min: 2,
            max: 64,
            buckets: vec![(Some(2), 1), (Some(4), 1), (Some(64), 3)],
            exemplars: Vec::new(),
        };
        let make = |h: HistogramSnapshot| TelemetrySnapshot {
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: [("lat".to_string(), h)].into_iter().collect(),
        };
        let store = TimeSeriesStore::new(8, 1);
        store.scrape_at(10, make(first));
        store.scrape_at(20, make(second));
        let timeline = store.timeline();
        let windows = &timeline.histograms["lat"];
        assert_eq!(windows[0].count, 2);
        assert_eq!(windows[1].count, 3);
        // second window saw only the three 64-bucket observations
        assert_eq!(windows[1].p50, 64);
        assert_eq!(windows[1].p99, 64);
    }

    #[test]
    fn exports_are_deterministic() {
        let build = || {
            let store = TimeSeriesStore::new(8, 1);
            store.scrape_at(5, snap(&[("a", 1), ("b", 2)], &[("g", 7)]));
            store.scrape_at(25, snap(&[("a", 4), ("b", 2)], &[("g", -1)]));
            store.timeline()
        };
        let a = build();
        let b = build();
        assert_eq!(a.to_json_string(), b.to_json_string());
        assert_eq!(a.to_table(), b.to_table());
        assert!(a.to_json_string().contains("\"rate_milli\""));
    }

    #[test]
    fn capacity_zero_disables() {
        let store = TimeSeriesStore::new(0, 1);
        assert!(!store.tick(0, || unreachable!("disabled store never scrapes")));
        assert!(store.is_empty());
    }
}
