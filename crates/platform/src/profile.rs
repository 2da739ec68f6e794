//! Continuous profiling from trace spans: fold [`FlightRecorder`]
//! records into a deterministic self/total-time profile tree.
//!
//! Every [`SpanRecord`] carries its stable `/`-joined `path` from the
//! trace root, so the fold is a pure string aggregation: records with the
//! same path merge into one node (count + total simulated ms), nodes nest
//! by path segments, and `self` time is a node's total minus its direct
//! children's totals (saturating — parallel fan-out parents whose
//! children overlap in simulated time get self 0 rather than negative).
//!
//! Because the fold keys on paths, not span ids or ring positions, the
//! exported profile is byte-identical across same-seed runs even when the
//! flight recorder evicted spans (as long as the retained *set* is the
//! same, which holds for single-threaded workloads like the serving
//! loop). Exports:
//!
//! - collapsed stacks (`a;b;c <self_ms>` lines, flamegraph.pl-compatible,
//!   sorted, self > 0 only),
//! - an indented text tree with total/self/count per node,
//! - canonical JSON,
//! - top-N hotspot ranking by self time.

use crate::trace::{FlightRecorder, SpanRecord};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One node of the profile tree: all spans that shared a path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileNode {
    /// Last path segment (`shard:2`).
    pub name: String,
    /// Full `/`-joined path from the trace root.
    pub path: String,
    /// Spans folded into this node.
    pub count: u64,
    /// Summed span durations, simulated ms.
    pub total_ms: u64,
    /// Total minus direct children's totals (saturating at 0).
    pub self_ms: u64,
    /// Children keyed by name.
    pub children: BTreeMap<String, ProfileNode>,
}

impl ProfileNode {
    fn compute_self(&mut self) {
        let child_total: u64 = self.children.values().map(|c| c.total_ms).sum();
        self.self_ms = self.total_ms.saturating_sub(child_total);
        for child in self.children.values_mut() {
            child.compute_self();
        }
    }

    /// Nodes in this subtree, including self.
    pub fn node_count(&self) -> usize {
        1 + self
            .children
            .values()
            .map(ProfileNode::node_count)
            .sum::<usize>()
    }
}

/// The JSON profile (`wfsm profile --format json`): the tree plus its
/// aggregates. [`Profile::to_json_string`] writes it and `wfsm diff`
/// reads it back.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProfileJson {
    pub spans: u64,
    pub total_ms: u64,
    /// [`Profile::attributed_milli`].
    pub attributed_milli: u64,
    pub roots: Vec<ProfileNodeJson>,
}

/// One node of a [`ProfileJson`]: children in name order, no path (it
/// is the names from the root).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProfileNodeJson {
    pub name: String,
    pub total_ms: u64,
    pub self_ms: u64,
    pub count: u64,
    pub children: Vec<ProfileNodeJson>,
}

impl From<&ProfileNode> for ProfileNodeJson {
    fn from(node: &ProfileNode) -> Self {
        ProfileNodeJson {
            name: node.name.clone(),
            total_ms: node.total_ms,
            self_ms: node.self_ms,
            count: node.count,
            children: node.children.values().map(ProfileNodeJson::from).collect(),
        }
    }
}

/// One ranked hotspot: a path and its self time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hotspot {
    pub path: String,
    pub self_ms: u64,
    pub total_ms: u64,
    pub count: u64,
}

/// A folded profile: root nodes (one per top-level span name) plus
/// whole-profile aggregates.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    pub roots: BTreeMap<String, ProfileNode>,
    /// Spans folded in.
    pub spans: u64,
    /// Summed root-span time, simulated ms. With no eviction this equals
    /// the sum of every recorded root span's duration, panicked shards
    /// included (their Drop guard records accrued time).
    pub total_ms: u64,
}

impl Profile {
    /// Folds span records (any order) into a profile.
    pub fn from_records(records: &[SpanRecord]) -> Profile {
        let mut profile = Profile::default();
        for record in records {
            profile.spans += 1;
            let mut segments = record.path.split('/');
            let Some(first) = segments.next() else {
                continue;
            };
            let mut node = profile
                .roots
                .entry(first.to_string())
                .or_insert_with(|| ProfileNode {
                    name: first.to_string(),
                    path: first.to_string(),
                    ..ProfileNode::default()
                });
            for segment in segments {
                let path = format!("{}/{}", node.path, segment);
                node = node
                    .children
                    .entry(segment.to_string())
                    .or_insert_with(|| ProfileNode {
                        name: segment.to_string(),
                        path,
                        ..ProfileNode::default()
                    });
            }
            node.count += 1;
            node.total_ms += record.duration_sim_ms;
        }
        for root in profile.roots.values_mut() {
            root.compute_self();
        }
        profile.total_ms = profile.roots.values().map(|r| r.total_ms).sum();
        profile
    }

    /// Folds the spans of the recorder's last `n` traces.
    pub fn from_recorder(recorder: &FlightRecorder, last: usize) -> Profile {
        let ids: Vec<_> = recorder.trace_ids();
        let keep: std::collections::BTreeSet<_> = ids[ids.len().saturating_sub(last)..]
            .iter()
            .copied()
            .collect();
        let records: Vec<SpanRecord> = recorder
            .records()
            .into_iter()
            .filter(|r| keep.contains(&r.trace))
            .collect();
        Profile::from_records(&records)
    }

    /// Sum of leaf-node self time: simulated ms attributed to a named
    /// bottom-level stage.
    pub fn attributed_ms(&self) -> u64 {
        fn walk(node: &ProfileNode, acc: &mut u64) {
            if node.children.is_empty() {
                *acc += node.self_ms;
            }
            for child in node.children.values() {
                walk(child, acc);
            }
        }
        let mut acc = 0;
        for root in self.roots.values() {
            walk(root, &mut acc);
        }
        acc
    }

    /// Fraction of total time attributed to leaf stages, milli-units
    /// (1000 = 100%). 1000 when the profile is empty.
    pub fn attributed_milli(&self) -> u64 {
        if self.total_ms == 0 {
            return 1000;
        }
        self.attributed_ms() * 1000 / self.total_ms
    }

    /// The `n` hottest paths by self time (ties broken by path).
    pub fn hotspots(&self, n: usize) -> Vec<Hotspot> {
        let mut all: Vec<Hotspot> = Vec::new();
        fn walk(node: &ProfileNode, acc: &mut Vec<Hotspot>) {
            acc.push(Hotspot {
                path: node.path.clone(),
                self_ms: node.self_ms,
                total_ms: node.total_ms,
                count: node.count,
            });
            for child in node.children.values() {
                walk(child, acc);
            }
        }
        for root in self.roots.values() {
            walk(root, &mut all);
        }
        all.sort_by(|a, b| b.self_ms.cmp(&a.self_ms).then(a.path.cmp(&b.path)));
        all.truncate(n);
        all
    }

    /// Collapsed-stack export: one `seg;seg;seg <self_ms>` line per node
    /// with self > 0, lexicographically sorted — feed straight into
    /// `flamegraph.pl`.
    pub fn to_collapsed(&self) -> String {
        let mut lines: Vec<String> = Vec::new();
        fn walk(node: &ProfileNode, lines: &mut Vec<String>) {
            if node.self_ms > 0 {
                lines.push(format!("{} {}", node.path.replace('/', ";"), node.self_ms));
            }
            for child in node.children.values() {
                walk(child, lines);
            }
        }
        for root in self.roots.values() {
            walk(root, &mut lines);
        }
        lines.sort();
        let mut out = lines.join("\n");
        if !out.is_empty() {
            out.push('\n');
        }
        out
    }

    /// Indented text tree: total/self/count per node.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "PROFILE  spans {}  total {} sim-ms  attributed {}.{:01}%",
            self.spans,
            self.total_ms,
            self.attributed_milli() / 10,
            self.attributed_milli() % 10,
        );
        fn walk(node: &ProfileNode, depth: usize, out: &mut String) {
            let _ = writeln!(
                out,
                "{:indent$}{:<32} total {:>8}  self {:>8}  n {:>6}",
                "",
                node.name,
                node.total_ms,
                node.self_ms,
                node.count,
                indent = depth * 2,
            );
            for child in node.children.values() {
                walk(child, depth + 1, out);
            }
        }
        for root in self.roots.values() {
            walk(root, 0, &mut out);
        }
        out
    }

    /// The JSON profile: the tree plus aggregates, pretty-printed.
    pub fn to_json_string(&self) -> String {
        let json = ProfileJson {
            spans: self.spans,
            total_ms: self.total_ms,
            attributed_milli: self.attributed_milli(),
            roots: self.roots.values().map(ProfileNodeJson::from).collect(),
        };
        serde_json::to_string_pretty(&json).expect("Value renders infallibly")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::Telemetry;

    fn workload(telemetry: &std::sync::Arc<Telemetry>) {
        let mut root = telemetry.trace_root("op");
        let mut a = root.child("stage_a");
        a.advance(10);
        a.finish();
        root.advance(10);
        let mut b = root.child("stage_b");
        let mut inner = b.child("inner");
        inner.advance(4);
        inner.finish();
        b.advance(4);
        b.advance(3); // 3 ms of b's own time
        b.finish();
        root.advance(7);
        root.finish();
    }

    #[test]
    fn folds_spans_by_path() {
        let telemetry = Telemetry::new();
        workload(&telemetry);
        workload(&telemetry);
        let profile = Profile::from_records(&telemetry.recorder().records());
        assert_eq!(profile.spans, 8);
        assert_eq!(profile.total_ms, 34, "two 17ms roots");
        let op = &profile.roots["op"];
        assert_eq!(op.count, 2);
        assert_eq!(op.self_ms, 0, "fully covered by stages");
        assert_eq!(op.children["stage_a"].self_ms, 20);
        let b = &op.children["stage_b"];
        assert_eq!(b.total_ms, 14);
        assert_eq!(b.self_ms, 6, "3 own ms per run");
        assert_eq!(b.children["inner"].self_ms, 8);
    }

    #[test]
    fn collapsed_export_is_sorted_and_stable() {
        let telemetry = Telemetry::new();
        workload(&telemetry);
        let profile = Profile::from_records(&telemetry.recorder().records());
        let collapsed = profile.to_collapsed();
        assert_eq!(
            collapsed,
            "op;stage_a 10\nop;stage_b 3\nop;stage_b;inner 4\n"
        );
        assert_eq!(collapsed, profile.to_collapsed(), "re-export identical");
    }

    #[test]
    fn hotspots_rank_by_self_time() {
        let telemetry = Telemetry::new();
        workload(&telemetry);
        let profile = Profile::from_records(&telemetry.recorder().records());
        let top = profile.hotspots(2);
        assert_eq!(top[0].path, "op/stage_a");
        assert_eq!(top[0].self_ms, 10);
        assert_eq!(top[1].path, "op/stage_b/inner");
    }

    #[test]
    fn attribution_counts_leaf_self_time() {
        let telemetry = Telemetry::new();
        workload(&telemetry);
        let profile = Profile::from_records(&telemetry.recorder().records());
        // leaves: stage_a (10) + inner (4); stage_b keeps 3 interior ms
        assert_eq!(profile.attributed_ms(), 14);
        assert_eq!(profile.attributed_milli(), 14 * 1000 / 17);
    }

    #[test]
    fn orphaned_children_fold_under_their_recorded_path() {
        // an evicted parent leaves the child's path intact, so the fold
        // still nests it (with zero recorded parent time)
        let telemetry = Telemetry::with_trace_capacity(1);
        let mut root = telemetry.trace_root("op");
        let mut a = root.child("stage_a");
        a.advance(5);
        a.finish();
        root.advance(5);
        root.finish(); // evicts stage_a? capacity 1: root push evicts a
        let records = telemetry.recorder().records();
        assert_eq!(records.len(), 1);
        let profile = Profile::from_records(&records);
        assert_eq!(profile.roots["op"].total_ms, 5);
        let empty = Profile::from_records(&[]);
        assert_eq!(empty.total_ms, 0);
        assert_eq!(empty.attributed_milli(), 1000);
        assert_eq!(empty.to_collapsed(), "");
    }

    #[test]
    fn last_n_traces_filter() {
        let telemetry = Telemetry::new();
        workload(&telemetry);
        workload(&telemetry);
        let all = Profile::from_recorder(telemetry.recorder(), 10);
        let last = Profile::from_recorder(telemetry.recorder(), 1);
        assert_eq!(all.roots["op"].count, 2);
        assert_eq!(last.roots["op"].count, 1);
        assert_eq!(last.total_ms, 17);
    }
}
