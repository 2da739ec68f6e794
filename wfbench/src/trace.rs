//! Spans recorded around calls into each layer's public functions.
//!
//! A span has a name, a start, an end, a parent and a trace id: one trace
//! per pass or per request, shared by every span nested inside it. The
//! tracer keeps spans in memory and aggregates as they close: per name,
//! the self time (duration minus the part child spans cover) and the call
//! count, and for the roots the share of their time that child spans
//! cover. The first [`RETAINED`] spans are also kept verbatim for
//! `--trace-out`. A disabled tracer just calls the closure.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// Spans kept verbatim for export; later spans are only aggregated.
pub const RETAINED: usize = 200_000;

/// Names whose span durations are also kept, for percentiles: the search
/// kinds and the serve backend.
fn sampled(name: &str) -> bool {
    name == "serve.execute" || name.starts_with("index.query.")
}

/// One finished span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    pub id: u32,
    pub trace: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Aggregate of every span with one name.
#[derive(Debug, Clone, Default)]
pub struct Layer {
    pub self_ns: u64,
    pub calls: u64,
    /// Span durations in ns, kept only for [`sampled`] names.
    pub durations_ns: Vec<u64>,
}

struct Open {
    id: u32,
    trace: u32,
    parent: Option<u32>,
    start_ns: u64,
    child_ns: u64,
}

#[derive(Default)]
struct State {
    stack: Vec<Open>,
    next_id: u32,
    traces: u32,
    retained: Vec<SpanRecord>,
    dropped: u64,
    layers: BTreeMap<&'static str, Layer>,
    root_ns: u64,
    root_covered_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    state: Option<RefCell<State>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            state: enabled.then(RefCell::default),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span; with none open, the span roots a new trace.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let Some(state) = &self.state else {
            return f();
        };
        let start_ns = self.now_ns();
        {
            let mut s = state.borrow_mut();
            let (trace, parent) = match s.stack.last() {
                Some(open) => (open.trace, Some(open.id)),
                None => {
                    s.traces += 1;
                    (s.traces, None)
                }
            };
            let id = s.next_id;
            s.next_id += 1;
            s.stack.push(Open {
                id,
                trace,
                parent,
                start_ns,
                child_ns: 0,
            });
        }
        let out = f();
        let end_ns = self.now_ns();
        let mut s = state.borrow_mut();
        let open = s.stack.pop().expect("span stack matches calls");
        let duration = end_ns - open.start_ns;
        match s.stack.last_mut() {
            Some(parent) => parent.child_ns += duration,
            None => {
                s.root_ns += duration;
                s.root_covered_ns += open.child_ns;
            }
        }
        let layer = s.layers.entry(name).or_default();
        layer.self_ns += duration.saturating_sub(open.child_ns);
        layer.calls += 1;
        if sampled(name) {
            layer.durations_ns.push(duration);
        }
        if s.retained.len() < RETAINED {
            s.retained.push(SpanRecord {
                id: open.id,
                trace: open.trace,
                parent: open.parent,
                name,
                start_ns: open.start_ns,
                end_ns,
            });
        } else {
            s.dropped += 1;
        }
        out
    }

    /// The aggregates so far (empty for a disabled tracer).
    pub fn summary(&self) -> Summary {
        let Some(state) = &self.state else {
            return Summary::default();
        };
        let s = state.borrow();
        Summary {
            layers: s.layers.clone(),
            coverage: if s.root_ns == 0 {
                0.0
            } else {
                s.root_covered_ns as f64 / s.root_ns as f64
            },
        }
    }

    /// Writes the retained spans as JSON lines, plus a final line counting
    /// spans that were aggregated but not retained.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let Some(state) = &self.state else {
            return Ok(());
        };
        let s = state.borrow();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &s.retained {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"trace\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                span.id, span.trace, span.name, span.start_ns, span.end_ns
            )?;
        }
        writeln!(out, "{{\"dropped\":{}}}", s.dropped)?;
        out.flush()
    }
}

/// Per-name aggregates and root coverage of a traced run.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    pub layers: BTreeMap<&'static str, Layer>,
    /// Share of root-span time covered by child spans.
    pub coverage: f64,
}

impl Summary {
    /// Self time of every span called `name`, in ms.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.layers
            .get(name)
            .map_or(0.0, |l| l.self_ns as f64 / 1e6)
    }

    pub fn calls(&self, name: &str) -> u64 {
        self.layers.get(name).map_or(0, |l| l.calls)
    }

    /// Span durations of a sampled name, in µs.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.layers.get(name).map_or_else(Vec::new, |l| {
            l.durations_ns.iter().map(|&ns| ns as f64 / 1e3).collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_traces_follow_roots() {
        let t = Tracer::new(true);
        t.span("pass", || {
            t.span("a", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("b", || t.span("c", || ()));
        });
        t.span("pass", || ());
        let s = t.summary();
        assert_eq!(s.calls("pass"), 2);
        assert!(s.self_ms("a") >= 2.0);
        assert!(s.self_ms("pass") < s.self_ms("a"));
        assert!(s.coverage > 0.9, "children cover the first pass");
        let state = t.state.as_ref().unwrap().borrow();
        let traces: Vec<u32> = state.retained.iter().map(|r| r.trace).collect();
        // closing order: a, c, b, pass, pass
        assert_eq!(traces, vec![1, 1, 1, 1, 2]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("x", || 7), 7);
        assert!(t.summary().layers.is_empty());
    }
}
