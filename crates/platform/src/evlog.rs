//! Deterministic structured event log — the third observability pillar.
//!
//! Metrics (PR 2) say *how much*, traces (PR 3) say *where the time
//! went*; this module adds the *narrative*: leveled records with a
//! stable `target` path, `key=value` fields, and trace/span correlation
//! ids, accumulated in a fixed-capacity ring with full drop accounting.
//!
//! **Conservation law.** Every emission is accounted for exactly once:
//! `emitted == kept + sampled + dropped`, where `sampled` counts
//! records suppressed by the per-`(target, level)` token bucket before
//! they reach the ring, `dropped` counts records evicted by capacity
//! pressure (or refused by a zero-capacity ring), and `kept` is what
//! the ring still holds.
//!
//! **Determinism.** Records are stamped on the registry's
//! [`SimClock`](crate::telemetry::SimClock), never wall time: a traced
//! one at [`TraceSpan::clock_ms`], an untraced one where its operation
//! opened plus what it has spent. The token-bucket sampler refills on
//! that clock, so sampling replays exactly while each `(target, level)`
//! key is emitted from one logical timeline — targets are scoped per
//! shard (`miner.shard:3`, `store.shard:0`, `durable.shard:1`) or per
//! single-threaded loop (`serving.loop`, `bus.svc:search`). Raw trace
//! ids come from atomics, so exports never print them: [`EvLog::snapshot`]
//! renumbers traces canonically (ascending raw id — root allocation
//! order, deterministic because top-level operations open on one
//! thread) and sorts records by `(sim_ms, target, level, message, fields)`.
//! Same seed ⇒ byte-identical text and JSON exports.

use crate::trace::{SpanId, TraceId, TraceSpan};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt::{Display, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};

/// Default ring capacity (matches the flight recorder's scale).
pub const DEFAULT_EVLOG_CAPACITY: usize = 4096;
/// Default token-bucket burst per `(target, level)` key.
pub const DEFAULT_SAMPLE_BURST: u64 = 64;
/// Default simulated ms per token refill (0 disables sampling).
pub const DEFAULT_SAMPLE_REFILL_MS: u64 = 8;

/// Record severity, most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    Error,
    Warn,
    Info,
    Debug,
}

impl Level {
    pub const ALL: [Level; 4] = [Level::Error, Level::Warn, Level::Info, Level::Debug];

    /// Stable lowercase label used in exports and the filter grammar.
    pub fn label(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }

    /// Parses a label back to a level (filter grammar, JSON import).
    pub fn parse(s: &str) -> Result<Level, String> {
        match s {
            "error" => Ok(Level::Error),
            "warn" => Ok(Level::Warn),
            "info" => Ok(Level::Info),
            "debug" => Ok(Level::Debug),
            other => Err(format!("unknown level {other:?} (error|warn|info|debug)")),
        }
    }

    /// Severity rank: error=0 … debug=3 (filters keep `rank <= max`).
    pub fn rank(self) -> u8 {
        match self {
            Level::Error => 0,
            Level::Warn => 1,
            Level::Info => 2,
            Level::Debug => 3,
        }
    }
}

/// Written as its lowercase [`Level::label`], not the variant name the
/// derive would write.
impl Serialize for Level {
    fn to_value(&self) -> Value {
        Value::from(self.label())
    }
}

impl Deserialize for Level {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let label = v
            .as_str()
            .ok_or_else(|| serde::Error::custom("level is not a string"))?;
        Level::parse(label).map_err(serde::Error::custom)
    }
}

/// One structured log record as emitted (raw correlation ids retained;
/// exports go through the canonicalizing [`EvLogSnapshot`] instead).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvRecord {
    /// Simulated-clock timestamp.
    pub sim_ms: u64,
    pub level: Level,
    /// Stable dotted emission-site path (`bus.svc:search`,
    /// `miner.shard:2`); scoped so one logical timeline owns each key.
    pub target: String,
    pub message: String,
    /// Sorted `key=value` context fields.
    pub fields: BTreeMap<String, String>,
    /// Owning trace, when emitted from a traced path.
    pub trace: Option<TraceId>,
    /// Emitting span within the trace.
    pub span: Option<SpanId>,
}

/// Per-`(target, level)` token bucket, refilled on the simulated clock.
#[derive(Debug)]
struct SampleBucket {
    tokens: u64,
    last_refill_ms: u64,
}

/// The fixed-capacity event-log ring with drop accounting and
/// deterministic sampling. Owned by [`crate::telemetry::Telemetry`];
/// hot paths resolve the `Arc` once and emit lock-cheaply.
#[derive(Debug)]
pub struct EvLog {
    /// `seq % capacity` indexes a slot; eviction is oldest-first.
    slots: Vec<Mutex<Option<(u64, EvRecord)>>>,
    next_seq: AtomicU64,
    emitted: AtomicU64,
    sampled: AtomicU64,
    dropped: AtomicU64,
    burst: u64,
    refill_every_ms: u64,
    buckets: Mutex<BTreeMap<(String, Level), SampleBucket>>,
    /// Capacity 0 disables the log entirely (emit becomes a no-op, no
    /// accounting) — the "log-off" arm of the overhead bench.
    enabled: bool,
}

impl Default for EvLog {
    fn default() -> Self {
        EvLog::with_capacity(DEFAULT_EVLOG_CAPACITY)
    }
}

impl EvLog {
    /// A ring holding up to `capacity` records (0 disables logging
    /// entirely), with default sampling.
    pub fn with_capacity(capacity: usize) -> EvLog {
        EvLog {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            next_seq: AtomicU64::new(0),
            emitted: AtomicU64::new(0),
            sampled: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            burst: DEFAULT_SAMPLE_BURST,
            refill_every_ms: DEFAULT_SAMPLE_REFILL_MS,
            buckets: Mutex::new(BTreeMap::new()),
            enabled: capacity > 0,
        }
    }

    /// Overrides the sampler: each `(target, level)` key starts with
    /// `burst` tokens and regains one every `refill_every_ms` simulated
    /// ms. `refill_every_ms == 0` disables sampling (everything admitted).
    pub fn with_sampling(mut self, burst: u64, refill_every_ms: u64) -> EvLog {
        self.burst = burst;
        self.refill_every_ms = refill_every_ms;
        self
    }

    /// Whether emissions are recorded at all.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total emissions offered (before sampling and eviction).
    pub fn emitted(&self) -> u64 {
        self.emitted.load(Ordering::Relaxed)
    }

    /// Emissions suppressed by the token-bucket sampler.
    pub fn sampled(&self) -> u64 {
        self.sampled.load(Ordering::Relaxed)
    }

    /// Admitted records later evicted by capacity pressure.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Records still retained: `emitted - sampled - dropped`.
    pub fn kept(&self) -> u64 {
        self.emitted() - self.sampled() - self.dropped()
    }

    /// Token-bucket admission for one `(target, level)` arrival.
    fn admit(&self, target: &str, level: Level, sim_ms: u64) -> bool {
        if self.refill_every_ms == 0 {
            return true;
        }
        let mut buckets = self.buckets.lock();
        let bucket = buckets
            .entry((target.to_string(), level))
            .or_insert(SampleBucket {
                tokens: self.burst,
                last_refill_ms: 0,
            });
        if sim_ms > bucket.last_refill_ms {
            let refilled = (sim_ms - bucket.last_refill_ms) / self.refill_every_ms;
            if refilled > 0 {
                bucket.tokens = (bucket.tokens + refilled).min(self.burst);
                bucket.last_refill_ms += refilled * self.refill_every_ms;
            }
        }
        if bucket.tokens > 0 {
            bucket.tokens -= 1;
            true
        } else {
            false
        }
    }

    /// Counts one arrival and asks the sampler whether it is kept
    /// (`false`, uncounted, when the log is disabled).
    fn offer(&self, target: &str, level: Level, sim_ms: u64) -> bool {
        if !self.enabled {
            return false;
        }
        self.emitted.fetch_add(1, Ordering::Relaxed);
        let admitted = self.admit(target, level, sim_ms);
        if !admitted {
            self.sampled.fetch_add(1, Ordering::Relaxed);
        }
        admitted
    }

    /// Stores an admitted record; a full ring evicts its oldest record
    /// (counted as `dropped`).
    fn push(&self, rec: EvRecord) {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let evicted = self.slots[(seq as usize) % self.slots.len()]
            .lock()
            .replace((seq, rec))
            .is_some();
        if evicted {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Offers one record; returns whether it was admitted to the ring.
    pub fn emit(&self, rec: EvRecord) -> bool {
        let admitted = self.offer(&rec.target, rec.level, rec.sim_ms);
        if admitted {
            self.push(rec);
        }
        admitted
    }

    /// Emission without trace context: events that belong to no span.
    pub fn event(
        &self,
        level: Level,
        target: &str,
        sim_ms: u64,
        message: impl Into<String>,
        fields: &[(&str, String)],
    ) -> bool {
        if !self.enabled {
            return false;
        }
        self.emit(EvRecord {
            sim_ms,
            level,
            target: target.to_string(),
            message: message.into(),
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
            trace: None,
            span: None,
        })
    }

    /// Writes one event on a traced path: `label` (when given) becomes a
    /// point event on `span`, and the record carries the span's trace
    /// and span ids and its time on the clock, so `wfsm trace` and
    /// `wfsm logs` tell the same story. The record's message and fields
    /// are built only once the sampler has admitted it. Returns whether
    /// the record was admitted.
    pub fn note(
        &self,
        span: &mut TraceSpan,
        level: Level,
        target: &str,
        label: Option<String>,
        message: &str,
        fields: &[(&str, &dyn Display)],
    ) -> bool {
        if let Some(label) = label {
            span.event(label);
        }
        let sim_ms = span.clock_ms();
        if !self.offer(target, level, sim_ms) {
            return false;
        }
        self.push(EvRecord {
            sim_ms,
            level,
            target: target.to_string(),
            message: message.to_string(),
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            trace: Some(span.trace_id()),
            span: Some(span.span_id()),
        });
        true
    }

    /// Retained records in emission-sequence order (raw ids intact —
    /// in-process joins against the flight recorder use these).
    pub fn records(&self) -> Vec<EvRecord> {
        let mut out: Vec<(u64, EvRecord)> = self
            .slots
            .iter()
            .filter_map(|slot| slot.lock().clone())
            .collect();
        out.sort_by_key(|(seq, _)| *seq);
        out.into_iter().map(|(_, r)| r).collect()
    }

    /// Canonicalized point-in-time copy: counters plus records with
    /// renumbered trace ids, in deterministic order. The exportable
    /// view behind `wfsm logs`.
    pub fn snapshot(&self) -> EvLogSnapshot {
        let records = self.records();
        // canonical trace numbering: ascending raw id == the order the
        // top-level operations opened, which same-seed runs replay
        let mut traces: Vec<u64> = records
            .iter()
            .filter_map(|r| r.trace.map(|t| t.0))
            .collect();
        traces.sort_unstable();
        traces.dedup();
        let canonical =
            |t: Option<TraceId>| t.map(|t| traces.binary_search(&t.0).expect("present") as u64 + 1);
        let mut views: Vec<EvView> = records
            .iter()
            .map(|r| EvView {
                sim_ms: r.sim_ms,
                level: r.level,
                target: r.target.clone(),
                message: r.message.clone(),
                fields: r.fields.clone(),
                trace: canonical(r.trace),
            })
            .collect();
        views.sort();
        EvLogSnapshot {
            counters: EvCounters {
                emitted: self.emitted(),
                kept: self.kept(),
                sampled: self.sampled(),
                dropped: self.dropped(),
            },
            records: views,
        }
    }
}

/// One canonicalized record: raw span ids gone (interleaving-dependent),
/// trace renumbered 1..N in deterministic order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EvView {
    pub sim_ms: u64,
    pub level: Level,
    pub target: String,
    pub message: String,
    pub fields: BTreeMap<String, String>,
    /// Canonical 1-based trace number (shared with the snapshot's other
    /// records; `wfsm logs --trace N` filters on it).
    pub trace: Option<u64>,
}

impl Ord for EvView {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (
            self.sim_ms,
            &self.target,
            self.level.rank(),
            &self.message,
            &self.fields,
            self.trace,
        )
            .cmp(&(
                other.sim_ms,
                &other.target,
                other.level.rank(),
                &other.message,
                &other.fields,
                other.trace,
            ))
    }
}

impl PartialOrd for EvView {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The conservation counters of one log: `emitted == kept + sampled +
/// dropped`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EvCounters {
    pub emitted: u64,
    pub kept: u64,
    pub sampled: u64,
    pub dropped: u64,
}

/// Point-in-time, canonicalized event-log export with conservation
/// counters. Its JSON is derived, and round-trips byte-identically
/// (`to_json_string` ↔ `from_json_str`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EvLogSnapshot {
    pub counters: EvCounters,
    pub records: Vec<EvView>,
}

impl EvLogSnapshot {
    /// The conservation law every snapshot obeys.
    pub fn conserved(&self) -> bool {
        let c = self.counters;
        c.emitted == c.kept + c.sampled + c.dropped
    }

    /// A copy retaining only records matching `filter` (counters keep
    /// describing the full log — filtering is a view, not a re-run).
    pub fn filtered(&self, filter: &LogFilter) -> EvLogSnapshot {
        EvLogSnapshot {
            counters: self.counters,
            records: self
                .records
                .iter()
                .filter(|r| filter.matches(r))
                .cloned()
                .collect(),
        }
    }

    /// Fixed-layout text export: a counter header, then one line per
    /// record — `[  sim ms] LEVEL target message k=v … trace=N`.
    pub fn to_text(&self) -> String {
        let c = self.counters;
        let mut out = format!(
            "evlog: emitted={} kept={} sampled={} dropped={} shown={}\n",
            c.emitted,
            c.kept,
            c.sampled,
            c.dropped,
            self.records.len()
        );
        for r in &self.records {
            let _ = write!(
                out,
                "[{:>7}ms] {:<5} {} {}",
                r.sim_ms,
                r.level.label().to_uppercase(),
                r.target,
                r.message
            );
            for (k, v) in &r.fields {
                let _ = write!(out, " {k}={v}");
            }
            if let Some(t) = r.trace {
                let _ = write!(out, " trace={t}");
            }
            out.push('\n');
        }
        out
    }

    /// Pretty canonical JSON, newline-terminated: the `wfsm logs
    /// --format json` payload, byte-identical for same-seed runs.
    pub fn to_json_string(&self) -> String {
        let mut out = serde_json::to_string_pretty(self).expect("Value renders infallibly");
        out.push('\n');
        out
    }

    /// Parses [`EvLogSnapshot::to_json_string`] output back; the pair
    /// forms a fixpoint (`parse(export(s)) == s`).
    pub fn from_json_str(text: &str) -> Result<EvLogSnapshot, String> {
        serde_json::from_str(text).map_err(|e| format!("invalid evlog JSON: {e}"))
    }
}

/// The `wfsm logs` filter grammar, applied to canonicalized records:
/// `--level` caps verbosity (keep `rank <= level`), `--target` is a
/// prefix match, `--trace` matches the canonical trace number,
/// `--since`/`--until` bound `sim_ms` inclusively, and bare `key=value`
/// terms must all appear among a record's fields.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LogFilter {
    pub max_level: Option<Level>,
    pub target_prefix: Option<String>,
    pub trace: Option<u64>,
    pub since: Option<u64>,
    pub until: Option<u64>,
    pub fields: BTreeMap<String, String>,
}

impl LogFilter {
    pub fn matches(&self, r: &EvView) -> bool {
        if let Some(max) = self.max_level {
            if r.level.rank() > max.rank() {
                return false;
            }
        }
        if let Some(prefix) = &self.target_prefix {
            if !r.target.starts_with(prefix.as_str()) {
                return false;
            }
        }
        if let Some(trace) = self.trace {
            if r.trace != Some(trace) {
                return false;
            }
        }
        if let Some(since) = self.since {
            if r.sim_ms < since {
                return false;
            }
        }
        if let Some(until) = self.until {
            if r.sim_ms > until {
                return false;
            }
        }
        self.fields.iter().all(|(k, v)| r.fields.get(k) == Some(v))
    }

    /// Adds one bare `key=value` filter term (the grammar's positional
    /// form); anything without `=` is malformed.
    pub fn add_term(&mut self, term: &str) -> Result<(), String> {
        match term.split_once('=') {
            Some((k, v)) if !k.is_empty() => {
                self.fields.insert(k.to_string(), v.to_string());
                Ok(())
            }
            _ => Err(format!("malformed filter {term:?} (expected key=value)")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::FlightRecorder;

    fn rec(sim_ms: u64, level: Level, target: &str, message: &str) -> EvRecord {
        EvRecord {
            sim_ms,
            level,
            target: target.to_string(),
            message: message.to_string(),
            fields: BTreeMap::new(),
            trace: None,
            span: None,
        }
    }

    #[test]
    fn conservation_holds_through_sampling_and_eviction() {
        let log = EvLog::with_capacity(4).with_sampling(8, 2);
        for i in 0..64 {
            log.emit(rec(i / 4, Level::Info, "t", "m"));
        }
        assert_eq!(log.emitted(), 64);
        assert_eq!(
            log.emitted(),
            log.kept() + log.sampled() + log.dropped(),
            "emitted == kept + sampled + dropped"
        );
        assert_eq!(log.kept() as usize, log.records().len());
        assert!(log.sampled() > 0, "bucket must have suppressed some");
        assert!(log.dropped() > 0, "ring must have evicted some");
        assert!(log.snapshot().conserved());
    }

    #[test]
    fn token_bucket_refills_on_the_simulated_clock() {
        let log = EvLog::with_capacity(64).with_sampling(2, 10);
        assert!(log.emit(rec(0, Level::Info, "t", "a")));
        assert!(log.emit(rec(0, Level::Info, "t", "b")));
        assert!(!log.emit(rec(5, Level::Info, "t", "c")), "burst exhausted");
        assert!(log.emit(rec(10, Level::Info, "t", "d")), "one token back");
        assert!(!log.emit(rec(11, Level::Info, "t", "e")));
        // independent keys have independent buckets
        assert!(log.emit(rec(11, Level::Error, "t", "f")));
        assert!(log.emit(rec(11, Level::Info, "u", "g")));
        assert_eq!(log.sampled(), 2);
    }

    #[test]
    fn zero_capacity_disables_logging_entirely() {
        let log = EvLog::with_capacity(0);
        assert!(!log.enabled());
        assert!(!log.emit(rec(0, Level::Error, "t", "m")));
        assert!(!log.event(Level::Error, "t", 0, "m", &[]));
        assert_eq!(log.emitted(), 0);
        assert!(log.records().is_empty());
    }

    #[test]
    fn sampling_can_be_disabled() {
        let log = EvLog::with_capacity(64).with_sampling(1, 0);
        for i in 0..32 {
            let message = format!("m{i}");
            assert!(log.emit(rec(0, Level::Debug, "hot", &message)));
        }
        assert_eq!(log.sampled(), 0);
        assert_eq!(log.kept(), 32);
    }

    #[test]
    fn snapshot_renumbers_traces_and_sorts_records() {
        let log = EvLog::with_capacity(16);
        let mut a = rec(5, Level::Warn, "b.t", "later");
        a.trace = Some(TraceId(901));
        let mut b = rec(1, Level::Error, "a.t", "earlier");
        b.trace = Some(TraceId(77));
        log.emit(a);
        log.emit(b);
        let snap = log.snapshot();
        assert_eq!(snap.records[0].message, "earlier");
        assert_eq!(snap.records[0].trace, Some(1), "raw 77 → canonical 1");
        assert_eq!(snap.records[1].trace, Some(2), "raw 901 → canonical 2");
        assert!(!snap.to_text().contains("901"), "raw ids never exported");
    }

    #[test]
    fn note_writes_the_span_event_and_its_correlated_record() {
        let recorder = FlightRecorder::with_capacity(8);
        let log = EvLog::with_capacity(8);
        let mut span = recorder.root("op", 0);
        span.advance(3);
        let label = Some("boom:1".to_string());
        log.note(&mut span, Level::Error, "t", label, "boom", &[("k", &"v")]);
        let id = span.span_id();
        span.finish();
        let records = log.records();
        assert_eq!(records.len(), 1);
        let trace = records[0].trace.expect("correlated");
        assert!(recorder.contains_trace(trace));
        assert_eq!(records[0].span, Some(id));
        assert_eq!(records[0].sim_ms, 3);
        assert_eq!(records[0].fields.get("k").map(String::as_str), Some("v"));
        let event = &recorder.trace(trace)[0].events[0];
        assert_eq!((event.at_sim_ms, event.label.as_str()), (3, "boom:1"));
    }

    #[test]
    fn note_builds_no_record_the_sampler_refuses() {
        struct Counted<'a>(&'a std::cell::Cell<u32>);
        impl std::fmt::Display for Counted<'_> {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                self.0.set(self.0.get() + 1);
                f.write_str("v")
            }
        }
        let recorder = FlightRecorder::with_capacity(8);
        let log = EvLog::with_capacity(8).with_sampling(1, 1_000);
        let mut span = recorder.root("op", 0);
        let built = std::cell::Cell::new(0);
        for _ in 0..3 {
            log.note(
                &mut span,
                Level::Info,
                "t",
                None,
                "m",
                &[("k", &Counted(&built))],
            );
        }
        assert_eq!((log.emitted(), log.sampled(), built.get()), (3, 2, 1));
        let off = EvLog::with_capacity(0);
        off.note(
            &mut span,
            Level::Info,
            "t",
            None,
            "m",
            &[("k", &Counted(&built))],
        );
        assert_eq!((off.emitted(), built.get()), (0, 1));
    }

    #[test]
    fn json_export_parse_is_a_fixpoint() {
        let log = EvLog::with_capacity(8);
        log.event(
            Level::Warn,
            "store.shard:0",
            7,
            "get miss",
            &[("doc", "42".to_string())],
        );
        let mut traced = rec(9, Level::Error, "bus.svc:q", "timeout");
        traced.trace = Some(TraceId(3));
        log.emit(traced);
        let snap = log.snapshot();
        let text = snap.to_json_string();
        let back = EvLogSnapshot::from_json_str(&text).expect("parses");
        assert_eq!(back, snap);
        assert_eq!(back.to_json_string(), text, "byte-identical re-export");
    }

    #[test]
    fn from_json_rejects_malformed_documents() {
        assert!(EvLogSnapshot::from_json_str("not json").is_err());
        assert!(EvLogSnapshot::from_json_str("{}").is_err());
        let no_records = r#"{"counters": {"dropped":0,"emitted":0,"kept":0,"sampled":0}}"#;
        assert!(EvLogSnapshot::from_json_str(no_records).is_err());
    }

    #[test]
    fn filter_grammar_matches_each_dimension() {
        let log = EvLog::with_capacity(16);
        log.event(
            Level::Error,
            "bus.svc:q",
            5,
            "boom",
            &[("doc", "1".to_string())],
        );
        log.event(
            Level::Info,
            "serving.loop",
            9,
            "shed",
            &[("doc", "2".to_string())],
        );
        let snap = log.snapshot();
        let level = LogFilter {
            max_level: Some(Level::Error),
            ..LogFilter::default()
        };
        assert_eq!(snap.filtered(&level).records.len(), 1);
        let target = LogFilter {
            target_prefix: Some("bus.".into()),
            ..LogFilter::default()
        };
        assert_eq!(snap.filtered(&target).records.len(), 1);
        let window = LogFilter {
            since: Some(6),
            until: Some(9),
            ..LogFilter::default()
        };
        assert_eq!(snap.filtered(&window).records.len(), 1);
        let mut field = LogFilter::default();
        field.add_term("doc=2").unwrap();
        assert_eq!(snap.filtered(&field).records.len(), 1);
        assert_eq!(snap.filtered(&field).records[0].message, "shed");
        assert!(field.add_term("nonsense").is_err());
        assert!(field.add_term("=value").is_err());
    }

    #[test]
    fn text_export_is_stable_and_human_readable() {
        let log = EvLog::with_capacity(8);
        log.event(
            Level::Warn,
            "durable.shard:1",
            12,
            "snapshot truncated",
            &[("declared", "8".to_string()), ("readable", "5".to_string())],
        );
        let text = log.snapshot().to_text();
        assert!(text.starts_with("evlog: emitted=1 kept=1 sampled=0 dropped=0 shown=1\n"));
        assert!(
            text.contains(
                "[     12ms] WARN  durable.shard:1 snapshot truncated declared=8 readable=5"
            ),
            "{text}"
        );
    }

    #[test]
    fn level_parse_round_trips() {
        for level in Level::ALL {
            assert_eq!(Level::parse(level.label()).unwrap(), level);
        }
        assert!(Level::parse("silly").is_err());
    }
}
