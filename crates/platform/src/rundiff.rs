//! Cross-run regression diff — the differential layer over the
//! deterministic observability exports.
//!
//! Every export in this workspace is byte-identical for a given seed,
//! which turns *comparison* into signal: any delta between two runs is
//! a real behavioural difference, never noise. [`RunDiff`] compares two
//! artifacts of the same kind —
//!
//! - **metrics snapshots** (`wfsm metrics --format json`): per-counter
//!   and per-gauge deltas, and each histogram's `count`, `p50` and `p99`;
//! - **profile exports** (`wfsm profile --format json`): per-stage
//!   self-time deltas over the folded span tree, attributing a
//!   regression to the exact `serve.query/...` path that grew.
//!
//! Each artifact is read by its format's one reader
//! ([`Artifact::parse`]), so a malformed value is an error naming the
//! file, never a silent zero.
//!
//! The verdict is machine-readable (`ok` / `changed` / `regressed`) so
//! gate tooling (`tools/bench_gate.py --diff-verdict`) can consume it:
//! `ok` means byte-equivalent runs, `changed` means values moved but no
//! stage self-time grew, `regressed` means at least one stage got
//! slower. Surface via `wfsm diff <run-a> <run-b>`.

use crate::profile::{ProfileJson, ProfileNodeJson};
use crate::telemetry::TelemetrySnapshot;
use serde::{Deserialize, Serialize};
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// What kind of artifact a diff compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactKind {
    Metrics,
    Profile,
}

impl ArtifactKind {
    pub fn label(self) -> &'static str {
        match self {
            ArtifactKind::Metrics => "metrics",
            ArtifactKind::Profile => "profile",
        }
    }
}

/// One parsed artifact, read by its format's one reader: the reader of
/// `wfsm metrics --file` for a metrics snapshot, the derived
/// [`ProfileJson`] reader for a profile export.
#[derive(Debug, Clone, PartialEq)]
pub enum Artifact {
    Metrics(TelemetrySnapshot),
    Profile(ProfileJson),
}

impl Artifact {
    /// Parses one artifact's text; errors start with `name`. The shape
    /// picks the reader: a `roots` key marks a profile export, a
    /// `counters` key a metrics snapshot.
    pub fn parse(name: &str, text: &str) -> Result<Artifact, String> {
        let value: Value =
            serde_json::from_str(text).map_err(|e| format!("{name} is not JSON: {e}"))?;
        let artifact = if value.get("roots").is_some() {
            ProfileJson::from_value(&value)
                .map(Artifact::Profile)
                .map_err(|e| e.to_string())
        } else if value.get("counters").is_some() {
            TelemetrySnapshot::from_json(&value).map(Artifact::Metrics)
        } else {
            Err(
                "unrecognized artifact shape (expected a metrics snapshot or profile export)"
                    .into(),
            )
        };
        artifact.map_err(|e| format!("{name}: {e}"))
    }

    fn kind(&self) -> ArtifactKind {
        match self {
            Artifact::Metrics(_) => ArtifactKind::Metrics,
            Artifact::Profile(_) => ArtifactKind::Profile,
        }
    }
}

/// One counter (or gauge) whose value differs between the runs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ValueDelta {
    pub name: String,
    pub a: i64,
    pub b: i64,
    /// `b - a`, saturating.
    pub delta: i64,
}

/// One profile stage whose self-time or hit count moved; `path` is the
/// `/`-joined span path from the folded tree.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct StageDelta {
    pub path: String,
    pub self_ms_a: u64,
    pub self_ms_b: u64,
    pub count_a: u64,
    pub count_b: u64,
    /// Positive when run B spent more self-time in this stage.
    pub delta_ms: i64,
}

impl StageDelta {
    /// A regression: self-time grew.
    pub fn regressed(&self) -> bool {
        self.self_ms_b > self.self_ms_a
    }
}

/// The comparison of two same-kind observability artifacts. Only
/// changed entries are listed, in name/path order, so two identical
/// runs produce an empty (and byte-stable) diff.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunDiff {
    pub kind: ArtifactKind,
    /// Changed counters, by name (metrics artifacts).
    pub counters: Vec<ValueDelta>,
    /// Changed gauges, by name (metrics artifacts).
    pub gauges: Vec<ValueDelta>,
    /// Changed histogram values, by name: each histogram's `NAME.count`,
    /// `NAME.p50` and `NAME.p99` (metrics artifacts).
    pub histograms: Vec<ValueDelta>,
    /// Changed stages, by path (profile artifacts).
    pub stages: Vec<StageDelta>,
}

/// The entries whose values differ, by name; a name one side lacks
/// counts as 0 there.
fn diff_section<V>(a: &BTreeMap<String, V>, b: &BTreeMap<String, V>) -> Vec<ValueDelta>
where
    V: Copy + Default + PartialEq,
    i64: TryFrom<V>,
{
    let wide = |v: V| i64::try_from(v).unwrap_or(i64::MAX);
    let mut names: Vec<&String> = a.keys().chain(b.keys()).collect();
    names.sort();
    names.dedup();
    names
        .into_iter()
        .filter_map(|name| {
            let va = a.get(name).copied().unwrap_or_default();
            let vb = b.get(name).copied().unwrap_or_default();
            (va != vb).then(|| ValueDelta {
                name: name.clone(),
                a: wide(va),
                b: wide(vb),
                delta: wide(vb).saturating_sub(wide(va)),
            })
        })
        .collect()
}

/// Each histogram's count and the p50/p99 its snapshot computes, as
/// `NAME.count`, `NAME.p50` and `NAME.p99`.
fn histogram_values(snapshot: &TelemetrySnapshot) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for (name, h) in &snapshot.histograms {
        out.insert(format!("{name}.count"), h.count);
        out.insert(format!("{name}.p50"), h.percentile(50.0));
        out.insert(format!("{name}.p99"), h.percentile(99.0));
    }
    out
}

/// Every node of a profile as `path -> (self_ms, count)`, the path
/// being the `/`-joined names from its root.
fn profile_stages(profile: &ProfileJson) -> BTreeMap<String, (u64, u64)> {
    fn walk(nodes: &[ProfileNodeJson], prefix: &str, out: &mut BTreeMap<String, (u64, u64)>) {
        for node in nodes {
            let path = if prefix.is_empty() {
                node.name.clone()
            } else {
                format!("{prefix}/{}", node.name)
            };
            walk(&node.children, &path, out);
            out.insert(path, (node.self_ms, node.count));
        }
    }
    let mut out = BTreeMap::new();
    walk(&profile.roots, "", &mut out);
    out
}

impl RunDiff {
    /// Compares two parsed artifacts. Both must be the same kind;
    /// mixing a metrics snapshot with a profile is an error, not a
    /// silent empty diff.
    pub fn between(a: &Artifact, b: &Artifact) -> Result<RunDiff, String> {
        let kind = a.kind();
        let mut diff = RunDiff {
            kind,
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: Vec::new(),
            stages: Vec::new(),
        };
        match (a, b) {
            (Artifact::Metrics(a), Artifact::Metrics(b)) => {
                diff.counters = diff_section(&a.counters, &b.counters);
                diff.gauges = diff_section(&a.gauges, &b.gauges);
                diff.histograms = diff_section(&histogram_values(a), &histogram_values(b));
            }
            (Artifact::Profile(a), Artifact::Profile(b)) => {
                let (flat_a, flat_b) = (profile_stages(a), profile_stages(b));
                let mut paths: Vec<&String> = flat_a.keys().chain(flat_b.keys()).collect();
                paths.sort();
                paths.dedup();
                diff.stages = paths
                    .into_iter()
                    .filter_map(|path| {
                        let (sa, ca) = flat_a.get(path).copied().unwrap_or((0, 0));
                        let (sb, cb) = flat_b.get(path).copied().unwrap_or((0, 0));
                        (sa != sb || ca != cb).then(|| StageDelta {
                            path: path.clone(),
                            self_ms_a: sa,
                            self_ms_b: sb,
                            count_a: ca,
                            count_b: cb,
                            delta_ms: sb as i64 - sa as i64,
                        })
                    })
                    .collect();
            }
            _ => {
                return Err(format!(
                    "artifact kinds differ: run-a is {} but run-b is {}",
                    kind.label(),
                    b.kind().label()
                ))
            }
        }
        Ok(diff)
    }

    /// Parses and compares two artifact texts, named `run-a` and
    /// `run-b` in errors.
    pub fn between_texts(a: &str, b: &str) -> Result<RunDiff, String> {
        RunDiff::between(&Artifact::parse("run-a", a)?, &Artifact::parse("run-b", b)?)
    }

    /// Stages whose self-time grew from A to B.
    pub fn regressions(&self) -> usize {
        self.stages.iter().filter(|s| s.regressed()).count()
    }

    /// Any difference at all?
    pub fn changed(&self) -> bool {
        !(self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.stages.is_empty())
    }

    /// `ok` (identical) / `changed` (moved, nothing slower) /
    /// `regressed` (some stage's self-time grew).
    pub fn verdict(&self) -> &'static str {
        if self.regressions() > 0 {
            "regressed"
        } else if self.changed() {
            "changed"
        } else {
            "ok"
        }
    }

    /// Canonical machine-readable report (sorted keys, newline-
    /// terminated) — what gate tooling consumes.
    pub fn to_json_string(&self) -> String {
        serde_json::to_string_pretty(self).expect("Value renders infallibly") + "\n"
    }

    /// Human-readable report for `wfsm diff` without `--format json`.
    pub fn to_text(&self) -> String {
        let histograms = match self.kind {
            ArtifactKind::Metrics => format!("{} histogram value(s), ", self.histograms.len()),
            ArtifactKind::Profile => String::new(),
        };
        let mut out = format!(
            "run diff ({}): {} counter(s), {} gauge(s), {histograms}{} stage(s) changed; {} regression(s) — {}\n",
            self.kind.label(),
            self.counters.len(),
            self.gauges.len(),
            self.stages.len(),
            self.regressions(),
            self.verdict()
        );
        for d in self
            .counters
            .iter()
            .chain(&self.gauges)
            .chain(&self.histograms)
        {
            let _ = writeln!(out, "  {} {} -> {} ({:+})", d.name, d.a, d.b, d.delta);
        }
        for s in &self.stages {
            let _ = writeln!(
                out,
                "  {} self {}ms -> {}ms ({:+}ms, count {} -> {}){}",
                s.path,
                s.self_ms_a,
                s.self_ms_b,
                s.delta_ms,
                s.count_a,
                s.count_b,
                if s.regressed() { "  REGRESSED" } else { "" }
            );
        }
        out
    }
}

/// Exports the kind's label and the computed `regressions` and
/// `verdict` beside the changed entries; `histograms` only for a metrics
/// diff, which is the only kind that has them.
impl Serialize for RunDiff {
    fn to_value(&self) -> Value {
        let mut value = json!({
            "counters": self.counters,
            "gauges": self.gauges,
            "kind": self.kind.label(),
            "regressions": self.regressions() as u64,
            "stages": self.stages,
            "verdict": self.verdict(),
        });
        if let (ArtifactKind::Metrics, Value::Object(map)) = (self.kind, &mut value) {
            map.insert("histograms".into(), self.histograms.to_value());
        }
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(counters: &[(&str, u64)], gauges: &[(&str, i64)]) -> String {
        let mut c: BTreeMap<String, Value> = BTreeMap::new();
        for (k, v) in counters {
            c.insert(k.to_string(), Value::from(*v));
        }
        let mut g: BTreeMap<String, Value> = BTreeMap::new();
        for (k, v) in gauges {
            g.insert(k.to_string(), Value::from(*v));
        }
        let mut root: BTreeMap<String, Value> = BTreeMap::new();
        root.insert("counters".into(), Value::Object(c));
        root.insert("gauges".into(), Value::Object(g));
        Value::Object(root).to_json_string()
    }

    fn profile(stages: &[(&str, u64, u64)]) -> String {
        // one root per (name, self_ms, count), no nesting
        let roots: Vec<Value> = stages
            .iter()
            .map(|(name, self_ms, count)| {
                let mut o: BTreeMap<String, Value> = BTreeMap::new();
                o.insert("children".into(), Value::Array(Vec::new()));
                o.insert("count".into(), Value::from(*count));
                o.insert("name".into(), Value::from(*name));
                o.insert("self_ms".into(), Value::from(*self_ms));
                o.insert("total_ms".into(), Value::from(*self_ms));
                Value::Object(o)
            })
            .collect();
        let mut root: BTreeMap<String, Value> = BTreeMap::new();
        root.insert("attributed_milli".into(), Value::from(1000u64));
        root.insert("roots".into(), Value::Array(roots));
        root.insert("spans".into(), Value::from(1u64));
        root.insert("total_ms".into(), Value::from(1u64));
        Value::Object(root).to_json_string()
    }

    #[test]
    fn identical_metrics_diff_is_ok() {
        let a = metrics(&[("x", 3)], &[("g", -1)]);
        let diff = RunDiff::between_texts(&a, &a).unwrap();
        assert!(!diff.changed());
        assert_eq!(diff.regressions(), 0);
        assert_eq!(diff.verdict(), "ok");
        assert!(diff.to_json_string().contains("\"verdict\": \"ok\""));
    }

    #[test]
    fn counter_and_gauge_deltas_are_reported() {
        let a = metrics(&[("x", 3), ("same", 1)], &[("g", 4)]);
        let b = metrics(&[("x", 5), ("same", 1), ("new", 2)], &[("g", 1)]);
        let diff = RunDiff::between_texts(&a, &b).unwrap();
        assert_eq!(diff.verdict(), "changed");
        let names: Vec<&str> = diff.counters.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, vec!["new", "x"], "only changed counters, sorted");
        assert_eq!(diff.counters[1].delta, 2);
        assert_eq!(diff.gauges[0].delta, -3);
    }

    #[test]
    fn a_moved_histogram_is_a_change() {
        // one 5 ms sample, then a second at 895 ms: p99 5 -> 895
        let a = r#"{"counters": {}, "histograms": {"h": {"count": 1, "sum": 5,
            "min": 5, "max": 5, "buckets": [{"le": 8, "count": 1}]}}}"#;
        let b = r#"{"counters": {}, "histograms": {"h": {"count": 2, "sum": 900,
            "min": 5, "max": 895,
            "buckets": [{"le": 8, "count": 1}, {"le": 1024, "count": 1}]}}}"#;
        let same = RunDiff::between_texts(a, a).unwrap();
        assert_eq!(same.verdict(), "ok");
        assert!(same.to_json_string().contains("\"histograms\": []"));
        let diff = RunDiff::between_texts(a, b).unwrap();
        assert_eq!(diff.verdict(), "changed");
        let moved: Vec<(&str, i64, i64)> = diff
            .histograms
            .iter()
            .map(|d| (d.name.as_str(), d.a, d.b))
            .collect();
        assert_eq!(
            moved,
            [("h.count", 1, 2), ("h.p50", 5, 8), ("h.p99", 5, 895)]
        );
        assert!(
            diff.to_text().contains("h.p99 5 -> 895 (+890)"),
            "{}",
            diff.to_text()
        );
    }

    #[test]
    fn profile_regressions_attribute_to_stage_paths() {
        let a = profile(&[("serve.query", 100, 10), ("mine", 50, 5)]);
        let b = profile(&[("serve.query", 130, 10), ("mine", 40, 5)]);
        let diff = RunDiff::between_texts(&a, &b).unwrap();
        assert_eq!(diff.verdict(), "regressed");
        assert_eq!(diff.regressions(), 1);
        assert_eq!(diff.stages.len(), 2, "improvement also listed");
        let slow = diff.stages.iter().find(|s| s.regressed()).unwrap();
        assert_eq!(slow.path, "serve.query");
        assert_eq!(slow.delta_ms, 30);
        assert!(diff.to_text().contains("REGRESSED"), "{}", diff.to_text());
    }

    #[test]
    fn nested_profile_paths_join_with_slash() {
        let a = r#"{"spans":2,"total_ms":5,"attributed_milli":800,
            "roots":[{"name":"serve.query","self_ms":1,"count":1,"total_ms":5,
            "children":[{"name":"dispatch","self_ms":4,"count":1,"total_ms":4,"children":[]}]}]}"#;
        let b = r#"{"spans":2,"total_ms":9,"attributed_milli":888,
            "roots":[{"name":"serve.query","self_ms":1,"count":1,"total_ms":9,
            "children":[{"name":"dispatch","self_ms":8,"count":1,"total_ms":8,"children":[]}]}]}"#;
        let diff = RunDiff::between_texts(a, b).unwrap();
        assert_eq!(diff.stages.len(), 1);
        assert_eq!(diff.stages[0].path, "serve.query/dispatch");
    }

    #[test]
    fn mixed_kinds_and_garbage_are_rejected() {
        let m = metrics(&[("x", 1)], &[]);
        let p = profile(&[("s", 1, 1)]);
        assert!(RunDiff::between_texts(&m, &p)
            .unwrap_err()
            .contains("artifact kinds differ"));
        assert!(RunDiff::between_texts("not json", &m)
            .unwrap_err()
            .contains("run-a is not JSON"));
        assert!(RunDiff::between_texts("{}", &m)
            .unwrap_err()
            .contains("unrecognized artifact shape"));
    }

    #[test]
    fn diff_json_is_deterministic() {
        let a = profile(&[("stage", 10, 2)]);
        let b = profile(&[("stage", 12, 2)]);
        let d1 = RunDiff::between_texts(&a, &b).unwrap().to_json_string();
        let d2 = RunDiff::between_texts(&a, &b).unwrap().to_json_string();
        assert_eq!(d1, d2);
        assert!(d1.contains("\"verdict\": \"regressed\""), "{d1}");
        assert!(d1.contains("\"regressions\": 1"), "{d1}");
        assert!(!d1.contains("histograms"), "a profile diff has none: {d1}");
    }
}
