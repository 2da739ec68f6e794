//! Deterministic causal tracing on the simulated-ms clock.
//!
//! Flat counters (see [`telemetry`](crate::telemetry)) say *how much*; a
//! trace says *why*. A [`TraceSpan`] context is created at every
//! top-level operation (CLI `mine`, `Cluster::run_pipeline`,
//! `rebuild_index`, an ingest batch) and propagated through the service
//! bus (carried in the request envelope, so retries and timeouts become
//! child-span events), the miner pipeline (one child span per shard,
//! per-entity retry events), index query execution (one span per
//! query-plan node) and store CRUD. Completed spans land in a
//! fixed-capacity [`FlightRecorder`] ring buffer owned by the shared
//! [`Telemetry`](crate::telemetry::Telemetry) registry; eviction is
//! oldest-first and counted.
//!
//! **Determinism.** Spans accumulate **simulated** milliseconds as
//! offsets inside their trace, which opens at the [`SimClock`], and never
//! read wall time. Raw trace/span ids are allocated from atomics (and
//! therefore interleaving-dependent), so no raw id ever appears in an
//! export: exporters rebuild each trace as a tree, sort children by
//! `(start_sim_ms, path)`, and assign canonical ids in depth-first
//! order. Sibling spans are given unique names (`shard:3`,
//! `store.update:17`, `bus:search#2`) so the sort is total. Consequence:
//! the same chaos seed yields byte-identical JSON, Chrome
//! `trace_event`, and ASCII-waterfall exports no matter how worker
//! threads interleaved.

use crate::telemetry::SimClock;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Identifies one causal tree of spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TraceId(pub u64);

/// Identifies one span within the recorder. Raw values are allocation
/// order and never exported; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SpanId(pub u64);

/// A point event inside a span (a retry, an injected fault, a panic),
/// stamped with the absolute simulated time within its trace.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct SpanEvent {
    #[serde(rename = "at_ms")]
    pub at_sim_ms: u64,
    pub label: String,
}

/// A completed span as stored in the flight recorder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    pub trace: TraceId,
    pub id: SpanId,
    pub parent: Option<SpanId>,
    /// Last path component, unique among siblings (`shard:2`).
    pub name: String,
    /// Stable `/`-joined path from the trace root.
    pub path: String,
    /// Where the trace opened on the clock (exports keep offsets).
    pub opened_ms: u64,
    /// Absolute simulated start within the trace.
    pub start_sim_ms: u64,
    pub duration_sim_ms: u64,
    pub events: Vec<SpanEvent>,
    pub attrs: BTreeMap<String, String>,
}

/// Default flight-recorder capacity (completed spans retained).
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// The flight recorder: a fixed-capacity ring buffer of completed spans.
///
/// Pushes claim a slot with one `fetch_add` and overwrite the oldest
/// record once the ring wraps (eviction is oldest-first and counted).
/// Capacity 0 disables recording entirely (spans become cheap no-ops on
/// finish). It keeps the registry's [`SimClock`].
#[derive(Debug)]
pub struct FlightRecorder {
    slots: Vec<Mutex<Option<(u64, SpanRecord)>>>,
    pub(crate) clock: Arc<SimClock>,
    seq: AtomicU64,
    next_trace: AtomicU64,
    next_span: AtomicU64,
    recorded: AtomicU64,
    evicted: AtomicU64,
}

impl FlightRecorder {
    /// A recorder retaining up to `capacity` completed spans.
    pub fn with_capacity(capacity: usize) -> Arc<FlightRecorder> {
        Arc::new(FlightRecorder {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            clock: Arc::default(),
            seq: AtomicU64::new(0),
            next_trace: AtomicU64::new(0),
            next_span: AtomicU64::new(0),
            recorded: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        })
    }

    /// Maximum number of retained spans.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Completed spans ever recorded (including since-evicted ones).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Spans overwritten by newer ones after the ring wrapped.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Opens a new trace rooted at `name` at `opened_ms` on the clock
    /// (`Telemetry::trace_root` opens one at the clock's now).
    pub fn root(self: &Arc<Self>, name: impl Into<String>, opened_ms: u64) -> TraceSpan {
        let trace = TraceId(self.next_trace.fetch_add(1, Ordering::Relaxed) + 1);
        self.open(trace, None, name.into(), opened_ms, 0)
    }

    /// A new span of `trace` starting at offset `start_sim_ms`, under
    /// `parent` (its id and path; none for a root).
    fn open(
        self: &Arc<Self>,
        trace: TraceId,
        parent: Option<(SpanId, &str)>,
        name: String,
        opened_ms: u64,
        start_sim_ms: u64,
    ) -> TraceSpan {
        TraceSpan {
            rec: Arc::clone(self),
            trace,
            id: SpanId(self.next_span.fetch_add(1, Ordering::Relaxed) + 1),
            parent: parent.map(|(id, _)| id),
            path: parent.map_or_else(|| name.clone(), |(_, path)| format!("{path}/{name}")),
            name,
            opened_ms,
            start_sim_ms,
            elapsed_sim_ms: 0,
            events: Vec::new(),
            attrs: BTreeMap::new(),
            finished: false,
        }
    }

    fn push(&self, record: SpanRecord) {
        if self.slots.is_empty() {
            return;
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let mut slot = self.slots[(seq as usize) % self.slots.len()].lock();
        if slot.is_some() {
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        *slot = Some((seq, record));
        self.recorded.fetch_add(1, Ordering::Relaxed);
    }

    /// Retained spans in completion order (oldest surviving first).
    pub fn records(&self) -> Vec<SpanRecord> {
        let mut out: Vec<(u64, SpanRecord)> = self
            .slots
            .iter()
            .filter_map(|slot| slot.lock().clone())
            .collect();
        out.sort_by_key(|(seq, _)| *seq);
        out.into_iter().map(|(_, r)| r).collect()
    }

    /// Distinct trace ids with at least one retained span, ascending
    /// (trace ids are allocated in top-level-operation order).
    pub fn trace_ids(&self) -> Vec<TraceId> {
        let mut ids: Vec<TraceId> = self.records().iter().map(|r| r.trace).collect();
        ids.sort();
        ids.dedup();
        ids
    }

    /// Whether at least one retained span belongs to `trace` — i.e. an
    /// exemplar pointing at this id still resolves to a dumpable trace
    /// (the ring may have evicted it).
    pub fn contains_trace(&self, trace: TraceId) -> bool {
        self.slots
            .iter()
            .any(|slot| slot.lock().as_ref().is_some_and(|(_, r)| r.trace == trace))
    }

    /// The canonical tree(s) of one trace: children sorted by
    /// `(start_sim_ms, path)`, orphans (evicted parents) promoted to
    /// roots. Usually exactly one root.
    pub fn trace(&self, trace: TraceId) -> Vec<TraceNode> {
        let records: Vec<SpanRecord> = self
            .records()
            .into_iter()
            .filter(|r| r.trace == trace)
            .collect();
        build_trace_tree(records)
    }

    /// The last `n` traces (by trace id), oldest first.
    pub fn last_traces(&self, n: usize) -> Vec<(TraceId, Vec<TraceNode>)> {
        let ids = self.trace_ids();
        let skip = ids.len().saturating_sub(n);
        ids[skip..].iter().map(|&id| (id, self.trace(id))).collect()
    }

    /// Canonical JSON export of the last `n` traces, pretty-printed:
    /// stable key order, canonical ids in depth-first order.
    pub fn export_json_string(&self, n: usize) -> String {
        let traces: Vec<_> = self
            .last_traces(n)
            .into_iter()
            .enumerate()
            .map(|(i, (_, spans))| json!({"spans": spans, "trace": i as u64 + 1}))
            .collect();
        serde_json::to_string_pretty(&json!({ "traces": traces }))
            .expect("Value renders infallibly")
    }

    /// Chrome `trace_event` export (load in `about:tracing` / Perfetto),
    /// pretty-printed: one complete (`ph:"X"`) event per span, one
    /// instant (`ph:"i"`) event per span event; `pid` is the canonical
    /// trace index, `tid` the canonical span id, timestamps in
    /// microseconds of simulated time.
    pub fn export_chrome_string(&self, n: usize) -> String {
        let mut events = Vec::new();
        for (i, (_, roots)) in self.last_traces(n).into_iter().enumerate() {
            for root in &roots {
                node_to_chrome(root, i as u64 + 1, &mut events);
            }
        }
        let chrome = json!({"displayTimeUnit": "ms", "traceEvents": events});
        serde_json::to_string_pretty(&chrome).expect("Value renders infallibly")
    }

    /// ASCII waterfall of the last `n` traces, for the CLI.
    pub fn export_text(&self, n: usize) -> String {
        let traces = self.last_traces(n);
        if traces.is_empty() {
            return "(no traces recorded)\n".to_string();
        }
        let mut out = String::new();
        for (i, (_, roots)) in traces.iter().enumerate() {
            let spans: usize = roots.iter().map(TraceNode::span_count).sum();
            let end = roots.iter().map(|r| r.end_sim_ms()).max().unwrap_or(0);
            let _ = writeln!(out, "trace {} · {spans} span(s) · {end} sim-ms", i + 1);
            for root in roots {
                node_to_text(root, 1, &mut out);
            }
        }
        out
    }
}

/// A span in flight. Accumulates simulated milliseconds, point events
/// and attributes; records itself into the flight recorder on
/// [`TraceSpan::finish`] **or drop** — a span abandoned by a panicking
/// worker still lands in the recorder with whatever it accumulated.
#[derive(Debug)]
pub struct TraceSpan {
    rec: Arc<FlightRecorder>,
    trace: TraceId,
    id: SpanId,
    parent: Option<SpanId>,
    name: String,
    path: String,
    /// Where the trace opened on the clock.
    opened_ms: u64,
    start_sim_ms: u64,
    elapsed_sim_ms: u64,
    events: Vec<SpanEvent>,
    attrs: BTreeMap<String, String>,
    finished: bool,
}

impl TraceSpan {
    /// Opens a child span starting at this span's current simulated
    /// time. Give siblings unique names (`shard:2`, `doc:17`) — the
    /// canonical export sorts by `(start, path)`.
    pub fn child(&self, name: impl Into<String>) -> TraceSpan {
        let parent = Some((self.id, self.path.as_str()));
        let start = self.end_sim_ms();
        self.rec
            .open(self.trace, parent, name.into(), self.opened_ms, start)
    }

    /// Advances the span's simulated clock.
    pub fn advance(&mut self, sim_ms: u64) {
        self.elapsed_sim_ms = self.elapsed_sim_ms.saturating_add(sim_ms);
    }

    /// Advances to an absolute simulated time within the trace (no-op
    /// when already past it). Used to sync a parent to its slowest
    /// parallel child.
    pub fn advance_to(&mut self, abs_sim_ms: u64) {
        let target = abs_sim_ms.saturating_sub(self.start_sim_ms);
        self.elapsed_sim_ms = self.elapsed_sim_ms.max(target);
    }

    /// Records a point event at the current simulated time.
    pub fn event(&mut self, label: impl Into<String>) {
        let at = self.end_sim_ms();
        self.events.push(SpanEvent {
            at_sim_ms: at,
            label: label.into(),
        });
    }

    /// Attaches a key/value attribute (later writes win).
    pub fn attr(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.attrs.insert(key.into(), value.into());
    }

    pub fn trace_id(&self) -> TraceId {
        self.trace
    }

    pub fn span_id(&self) -> SpanId {
        self.id
    }

    /// Simulated milliseconds accumulated so far.
    pub fn elapsed_sim_ms(&self) -> u64 {
        self.elapsed_sim_ms
    }

    /// Absolute simulated end (start + elapsed).
    pub fn end_sim_ms(&self) -> u64 {
        self.start_sim_ms + self.elapsed_sim_ms
    }

    /// The span's current time on the clock (event-log stamps).
    pub fn clock_ms(&self) -> u64 {
        self.opened_ms + self.end_sim_ms()
    }

    /// The propagation context for this span (what the service bus
    /// carries in the request envelope).
    pub fn context(&self) -> TraceContext {
        TraceContext {
            trace: self.trace,
            span: self.id,
            path: self.path.clone(),
            opened_ms: self.opened_ms,
            at_sim_ms: self.end_sim_ms(),
        }
    }

    /// Records the span and returns its simulated duration. A root moves
    /// the clock forward to its end.
    pub fn finish(mut self) -> u64 {
        self.record();
        self.elapsed_sim_ms
    }

    fn record(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        if self.parent.is_none() {
            self.rec.clock.advance_to(self.clock_ms());
        }
        self.rec.push(SpanRecord {
            trace: self.trace,
            id: self.id,
            parent: self.parent,
            name: std::mem::take(&mut self.name),
            path: std::mem::take(&mut self.path),
            opened_ms: self.opened_ms,
            start_sim_ms: self.start_sim_ms,
            duration_sim_ms: self.elapsed_sim_ms,
            events: std::mem::take(&mut self.events),
            attrs: std::mem::take(&mut self.attrs),
        });
    }
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        self.record();
    }
}

/// Reserved request-envelope key carrying the trace context across the
/// service bus.
pub const TRACE_ENVELOPE_KEY: &str = "__trace__";

/// A serializable trace position: enough to open a causally linked
/// child span on the other side of a service call. Its JSON is the
/// envelope payload.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceContext {
    pub trace: TraceId,
    pub span: SpanId,
    pub path: String,
    /// Where the trace opened on the clock.
    pub opened_ms: u64,
    #[serde(rename = "at_ms")]
    pub at_sim_ms: u64,
}

impl TraceContext {
    /// Extracts the context a traced bus call embedded in a request.
    pub fn from_request(request: &Value) -> Option<TraceContext> {
        TraceContext::from_value(request.get(TRACE_ENVELOPE_KEY)?).ok()
    }

    /// Returns `request` with this context attached under
    /// [`TRACE_ENVELOPE_KEY`] (object requests only; other shapes pass
    /// through unchanged).
    pub fn attach(&self, request: &Value) -> Value {
        match request.as_object() {
            Some(obj) => {
                let mut obj = obj.clone();
                obj.insert(TRACE_ENVELOPE_KEY.to_string(), self.to_value());
                Value::Object(obj)
            }
            None => request.clone(),
        }
    }

    /// Opens a child span of this context in `recorder` — the callee
    /// half of cross-service propagation.
    pub fn child_in(&self, recorder: &Arc<FlightRecorder>, name: impl Into<String>) -> TraceSpan {
        let parent = Some((self.span, self.path.as_str()));
        recorder.open(
            self.trace,
            parent,
            name.into(),
            self.opened_ms,
            self.at_sim_ms,
        )
    }
}

/// A canonicalized span tree node (what the exporters consume); its
/// JSON is one span of the `wfsm trace --format json` export.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct TraceNode {
    /// Canonical id: the node's 1-based place in a depth-first walk of
    /// its trace.
    pub id: u64,
    pub name: String,
    pub path: String,
    #[serde(rename = "start_ms")]
    pub start_sim_ms: u64,
    #[serde(rename = "dur_ms")]
    pub duration_sim_ms: u64,
    pub events: Vec<SpanEvent>,
    pub attrs: BTreeMap<String, String>,
    pub children: Vec<TraceNode>,
}

impl TraceNode {
    /// Absolute simulated end of this node.
    pub fn end_sim_ms(&self) -> u64 {
        self.start_sim_ms + self.duration_sim_ms
    }

    /// Spans in this subtree, including self.
    pub fn span_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(TraceNode::span_count)
            .sum::<usize>()
    }

    /// Depth-first search for the first node whose path ends with
    /// `suffix`.
    pub fn find(&self, suffix: &str) -> Option<&TraceNode> {
        if self.path.ends_with(suffix) {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(suffix))
    }
}

/// Builds the canonical tree(s) for one trace's records: children
/// sorted by `(start_sim_ms, path)`, orphans promoted to roots, ids
/// numbered depth-first.
fn build_trace_tree(records: Vec<SpanRecord>) -> Vec<TraceNode> {
    let present: std::collections::HashSet<SpanId> = records.iter().map(|r| r.id).collect();
    let mut children_of: BTreeMap<SpanId, Vec<SpanRecord>> = BTreeMap::new();
    let mut roots: Vec<SpanRecord> = Vec::new();
    for record in records {
        match record.parent {
            Some(parent) if present.contains(&parent) => {
                children_of.entry(parent).or_default().push(record)
            }
            _ => roots.push(record),
        }
    }
    fn build(record: SpanRecord, children_of: &mut BTreeMap<SpanId, Vec<SpanRecord>>) -> TraceNode {
        let mut children: Vec<TraceNode> = children_of
            .remove(&record.id)
            .unwrap_or_default()
            .into_iter()
            .map(|c| build(c, children_of))
            .collect();
        children.sort_by(|a, b| (a.start_sim_ms, &a.path).cmp(&(b.start_sim_ms, &b.path)));
        TraceNode {
            id: 0,
            name: record.name,
            path: record.path,
            start_sim_ms: record.start_sim_ms,
            duration_sim_ms: record.duration_sim_ms,
            events: record.events,
            attrs: record.attrs,
            children,
        }
    }
    let mut nodes: Vec<TraceNode> = roots
        .into_iter()
        .map(|r| build(r, &mut children_of))
        .collect();
    nodes.sort_by(|a, b| (a.start_sim_ms, &a.path).cmp(&(b.start_sim_ms, &b.path)));
    fn number(node: &mut TraceNode, next_id: &mut u64) {
        *next_id += 1;
        node.id = *next_id;
        for child in &mut node.children {
            number(child, next_id);
        }
    }
    let mut next_id = 0;
    for node in &mut nodes {
        number(node, &mut next_id);
    }
    nodes
}

/// One Chrome `trace_event`: a complete event (`ph: "X"`, with `args`
/// and `dur`) or an instant event (`ph: "i"`, thread-scoped `s: "t"`).
#[derive(Serialize)]
struct ChromeEvent {
    #[serde(skip_serializing_if = "Option::is_none")]
    args: Option<BTreeMap<String, String>>,
    cat: &'static str,
    #[serde(skip_serializing_if = "Option::is_none")]
    dur: Option<u64>,
    name: String,
    ph: &'static str,
    pid: u64,
    #[serde(skip_serializing_if = "Option::is_none")]
    s: Option<&'static str>,
    tid: u64,
    ts: u64,
}

fn node_to_chrome(node: &TraceNode, pid: u64, out: &mut Vec<ChromeEvent>) {
    let mut args = node.attrs.clone();
    args.insert("path".to_string(), node.path.clone());
    out.push(ChromeEvent {
        args: Some(args),
        cat: "wfsm",
        dur: Some(node.duration_sim_ms * 1000),
        name: node.name.clone(),
        ph: "X",
        pid,
        s: None,
        tid: node.id,
        ts: node.start_sim_ms * 1000,
    });
    for event in &node.events {
        out.push(ChromeEvent {
            args: None,
            cat: "wfsm",
            dur: None,
            name: event.label.clone(),
            ph: "i",
            pid,
            s: Some("t"),
            tid: node.id,
            ts: event.at_sim_ms * 1000,
        });
    }
    for child in &node.children {
        node_to_chrome(child, pid, out);
    }
}

fn node_to_text(node: &TraceNode, depth: usize, out: &mut String) {
    let indent = "  ".repeat(depth);
    let _ = write!(
        out,
        "{indent}{:<7} {}",
        format!("{}..{}", node.start_sim_ms, node.end_sim_ms()),
        node.name
    );
    if !node.attrs.is_empty() {
        let attrs: Vec<String> = node.attrs.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let _ = write!(out, "  [{}]", attrs.join(" "));
    }
    for event in &node.events {
        let _ = write!(out, "  !{}@{}", event.label, event.at_sim_ms);
    }
    out.push('\n');
    for child in &node.children {
        node_to_text(child, depth + 1, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_on_finish_and_drop() {
        let rec = FlightRecorder::with_capacity(16);
        let mut root = rec.root("op", 0);
        root.advance(10);
        {
            let mut child = root.child("step:1");
            child.advance(5);
            child.event("hello");
        } // recorded by drop
        assert_eq!(root.finish(), 10);
        let records = rec.records();
        assert_eq!(records.len(), 2);
        assert_eq!(rec.recorded(), 2);
        let child = records.iter().find(|r| r.name == "step:1").unwrap();
        assert_eq!(child.path, "op/step:1");
        assert_eq!(child.start_sim_ms, 10);
        assert_eq!(child.duration_sim_ms, 5);
        assert_eq!(child.events[0].label, "hello");
        assert_eq!(child.events[0].at_sim_ms, 15);
    }

    #[test]
    fn roots_open_at_the_clock_and_move_it_children_do_not() {
        let rec = FlightRecorder::with_capacity(16);
        rec.clock.advance_to(100);
        let mut root = rec.root("op", 100);
        root.advance(5);
        let mut child = root.child("step");
        child.advance(20);
        assert_eq!(child.clock_ms(), 125, "opening time plus offset");
        child.finish();
        assert_eq!(rec.clock.now(), 100, "a child never moves the clock");
        // a continued span keeps its trace's opening time
        let mut callee = root.context().child_in(&rec, "callee");
        callee.advance(1);
        assert_eq!(callee.clock_ms(), 106);
        callee.finish();
        root.finish();
        assert_eq!(rec.clock.now(), 105, "the root moves it to its end");
        // a root opened behind the clock never moves it back
        rec.root("late", 50).finish();
        assert_eq!(rec.clock.now(), 105);
        // exports keep offsets within the trace
        let roots = rec.trace(TraceId(1));
        assert_eq!(roots[0].start_sim_ms, 0);
        assert_eq!(roots[0].find("op/step").unwrap().start_sim_ms, 5);
    }

    #[test]
    fn ring_evicts_oldest_first() {
        let rec = FlightRecorder::with_capacity(3);
        for i in 0..5 {
            rec.root(format!("op:{i}"), 0).finish();
        }
        let names: Vec<String> = rec.records().into_iter().map(|r| r.name).collect();
        assert_eq!(names, vec!["op:2", "op:3", "op:4"], "oldest evicted first");
        assert_eq!(rec.evicted(), 2);
        assert_eq!(rec.recorded(), 5);
    }

    #[test]
    fn zero_capacity_disables_recording() {
        let rec = FlightRecorder::with_capacity(0);
        rec.root("op", 0).finish();
        assert!(rec.records().is_empty());
        assert_eq!(rec.recorded(), 0);
        assert_eq!(rec.evicted(), 0);
    }

    #[test]
    fn canonical_tree_sorts_children_by_start_then_path() {
        let rec = FlightRecorder::with_capacity(16);
        let root = rec.root("run", 0);
        // create b before a: canonical order must not care
        let mut b = root.child("shard:1");
        let mut a = root.child("shard:0");
        b.advance(3);
        a.advance(7);
        b.finish();
        a.finish();
        root.finish();
        let roots = rec.trace(TraceId(1));
        assert_eq!(roots.len(), 1);
        let names: Vec<&str> = roots[0].children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["shard:0", "shard:1"]);
        assert_eq!(roots[0].span_count(), 3);
    }

    #[test]
    fn orphans_promote_to_roots() {
        let rec = FlightRecorder::with_capacity(2);
        let root = rec.root("run", 0);
        let mut c1 = root.child("a");
        c1.advance(1);
        c1.finish();
        let mut c2 = root.child("b");
        c2.advance(2);
        c2.finish();
        root.finish(); // evicts "a": ring holds [b, run]
        let roots = rec.trace(TraceId(1));
        assert_eq!(roots.len(), 1, "b still hangs under run");
        assert_eq!(roots[0].name, "run");
        assert_eq!(roots[0].children[0].name, "b");
    }

    #[test]
    fn context_round_trips_through_envelope() {
        let rec = FlightRecorder::with_capacity(8);
        let mut root = rec.root("caller", 0);
        root.advance(4);
        let ctx = root.context();
        let request = serde_json::json!({"q": "camera"});
        let enveloped = ctx.attach(&request);
        let parsed = TraceContext::from_request(&enveloped).unwrap();
        assert_eq!(parsed, ctx);
        // non-object requests pass through unchanged
        let scalar = Value::from(7u64);
        assert_eq!(ctx.attach(&scalar), scalar);
        // callee side opens a causally linked child
        let mut callee = parsed.child_in(&rec, "handle");
        callee.advance(2);
        callee.finish();
        root.finish();
        let roots = rec.trace(TraceId(1));
        let handle = roots[0].find("caller/handle").unwrap();
        assert_eq!(handle.start_sim_ms, 4);
        assert_eq!(handle.duration_sim_ms, 2);
    }

    #[test]
    fn exports_are_deterministic_and_renumbered() {
        let render = || {
            let rec = FlightRecorder::with_capacity(16);
            let root = rec.root("run", 0);
            let mut kids: Vec<TraceSpan> = (0..3).map(|i| root.child(format!("w:{i}"))).collect();
            // finish in scrambled order with scrambled raw ids
            kids.swap(0, 2);
            for (i, mut k) in kids.into_iter().enumerate() {
                k.advance(i as u64);
                k.finish();
            }
            root.finish();
            (
                rec.export_json_string(8),
                rec.export_chrome_string(8),
                rec.export_text(8),
            )
        };
        let (j1, c1, t1) = render();
        let (j2, c2, t2) = render();
        assert_eq!(j1, j2);
        assert_eq!(c1, c2);
        assert_eq!(t1, t2);
        assert!(j1.contains("\"path\": \"run/w:0\""), "{j1}");
        assert!(c1.contains("\"ph\": \"X\""), "{c1}");
        assert!(t1.contains("trace 1"), "{t1}");
    }

    #[test]
    fn empty_recorder_text_export() {
        let rec = FlightRecorder::with_capacity(4);
        assert_eq!(rec.export_text(5), "(no traces recorded)\n");
        assert!(rec.last_traces(5).is_empty());
    }

    #[test]
    fn advance_to_syncs_to_slowest_child() {
        let rec = FlightRecorder::with_capacity(8);
        let mut root = rec.root("run", 0);
        let mut slow = root.child("slow");
        slow.advance(40);
        let end = slow.end_sim_ms();
        slow.finish();
        root.advance_to(end);
        root.advance_to(10); // no-op: already past
        assert_eq!(root.elapsed_sim_ms(), 40);
        root.finish();
    }
}
