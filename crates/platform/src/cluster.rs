//! The cluster manager: the simulated WebFountain deployment.
//!
//! The real system is "a loosely coupled, shared-nothing parallel cluster"
//! of hundreds of Linux servers. The simulation binds together a sharded
//! [`DataStore`] (one shard per node), an [`Indexer`], and a [`ServiceBus`],
//! tracks per-node health, and reports per-node balance statistics —
//! enough to exercise the same dataflow (ingest → store → mine → index →
//! query) at laptop scale, including the failure modes: a [`FaultPlan`]
//! injects node outages and slow calls, Down nodes fail their shards over
//! to healthy ones, and pipeline runs degrade instead of panicking.

use crate::durable::{DurableStorage, ShardRecoveryStats, SnapshotStats, StopReason};
use crate::entity::Entity;
use crate::faults::{self, FaultPlan, Narrator, NodeHealth};
use crate::index::Indexer;
use crate::miner::{FaultContext, MinerPipeline, PipelineStats, RunOpts};
use crate::store::DataStore;
use crate::telemetry::{Telemetry, TelemetrySnapshot};
use crate::timeseries::TimeSeriesStore;
use crate::vinci::ServiceBus;
use parking_lot::RwLock;
use serde::Serialize;
use std::sync::Arc;
use wf_types::{Error, NodeId, Result, RetryPolicy};

/// Entities per shard that [`Cluster::run_pipeline`] mines together.
/// Outcomes and stats do not depend on it (see [`RunOpts::batch`]); larger
/// chunks amortize a batch-aware miner's per-batch spans and scratch.
const MINE_BATCH: usize = 64;

/// Static description of one simulated node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeInfo {
    pub id: NodeId,
    /// Flavor string, for the Fig-1 style report ("x335", "x350").
    pub model: &'static str,
}

/// The simulated cluster. One [`Telemetry`] registry is shared by the
/// store, indexer, bus, and every pipeline run, so a single snapshot
/// covers the whole deployment.
pub struct Cluster {
    nodes: Vec<NodeInfo>,
    store: DataStore,
    indexer: Indexer,
    bus: ServiceBus,
    telemetry: Arc<Telemetry>,
    health: RwLock<Vec<NodeHealth>>,
    fault_plan: RwLock<Option<FaultPlan>>,
    retry_policy: RwLock<RetryPolicy>,
    scoreboard: RwLock<Vec<NodeScore>>,
    /// Optional metrics-over-time store: when attached, every root
    /// operation offers the registry a scrape, so pipeline / chaos /
    /// serve runs produce timelines for free.
    timeline: RwLock<Option<Arc<TimeSeriesStore>>>,
    /// Optional durable layer (shared with the store): enables
    /// checkpoints and crash/restart recovery.
    durability: RwLock<Option<Arc<DurableStorage>>>,
}

/// Rolling per-node operational record: what `wfsm top` renders and the
/// doctor report embeds. Accumulated across every [`Cluster::run_pipeline`]
/// and [`Cluster::rebuild_index`]; `health` reflects the node's current
/// state at read time.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct NodeScore {
    /// Node (== shard) index.
    pub node: u32,
    /// Hardware flavor, from [`NodeInfo`].
    pub model: String,
    pub health: NodeHealth,
    /// Pipeline runs that touched this node's shard.
    pub runs: u64,
    pub processed: u64,
    pub failed: u64,
    pub retries: u64,
    /// Injected faults drawn while mining this node's shard.
    pub faults: u64,
    /// Times this node's shard had to run on a stand-in node (pipeline
    /// or index rebuild).
    pub failovers: u64,
    /// Times this node's shard was abandoned whole (panic/unplaced).
    pub skipped: u64,
    /// Cumulative simulated ms this node's shard consumed in pipelines.
    pub sim_ms: u64,
    /// Most recent failure on this node's shard, if any.
    pub last_error: Option<String>,
}

/// Snapshot of cluster state for reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    pub nodes: usize,
    pub entities: usize,
    pub per_node_entities: Vec<usize>,
    pub indexed_docs: usize,
    pub distinct_terms: usize,
    pub distinct_concepts: usize,
    pub services: Vec<String>,
    /// Per-node health, in node order.
    pub health: Vec<NodeHealth>,
}

/// Outcome of [`Cluster::rebuild_index`] under failures.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IndexRebuildStats {
    /// Entities (re-)indexed.
    pub indexed: usize,
    /// Shards whose node was Down and no healthy node could stand in.
    pub skipped_shards: usize,
    /// Shards indexed by a stand-in node because their owner was Down.
    pub failed_over: usize,
}

/// Outcome of [`Cluster::restart_node`]: what recovery replayed and how
/// much simulated time the restart consumed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeRestart {
    pub node: u32,
    /// Snapshot/WAL replay stats for the node's shard.
    pub stats: ShardRecoveryStats,
    /// Entities re-indexed into the inverted index during the restart.
    pub reindexed: usize,
    /// Total simulated ms the restart consumed (replay + rebuild).
    pub sim_ms: u64,
}

impl Cluster {
    /// Boots a cluster of `node_count` nodes, all healthy, sharing one
    /// telemetry registry across every component.
    pub fn new(node_count: usize) -> Result<Self> {
        let telemetry = Telemetry::new();
        let store = DataStore::with_telemetry(node_count, Arc::clone(&telemetry))?;
        let nodes: Vec<NodeInfo> = (0..node_count)
            .map(|i| NodeInfo {
                id: NodeId(i as u32),
                // alternate the two xSeries models of the paper's cluster
                model: if i % 2 == 0 { "x335" } else { "x350" },
            })
            .collect();
        Ok(Cluster {
            health: RwLock::new(vec![NodeHealth::Up; nodes.len()]),
            scoreboard: RwLock::new(
                nodes
                    .iter()
                    .map(|n| NodeScore {
                        node: n.id.0,
                        model: n.model.to_string(),
                        health: NodeHealth::Up,
                        runs: 0,
                        processed: 0,
                        failed: 0,
                        retries: 0,
                        faults: 0,
                        failovers: 0,
                        skipped: 0,
                        sim_ms: 0,
                        last_error: None,
                    })
                    .collect(),
            ),
            nodes,
            store,
            indexer: Indexer::with_telemetry(Arc::clone(&telemetry)),
            bus: ServiceBus::with_telemetry(Arc::clone(&telemetry)),
            telemetry,
            fault_plan: RwLock::new(None),
            retry_policy: RwLock::new(RetryPolicy::default()),
            timeline: RwLock::new(None),
            durability: RwLock::new(None),
        })
    }

    pub fn store(&self) -> &DataStore {
        &self.store
    }

    pub fn indexer(&self) -> &Indexer {
        &self.indexer
    }

    pub fn bus(&self) -> &ServiceBus {
        &self.bus
    }

    pub fn nodes(&self) -> &[NodeInfo] {
        &self.nodes
    }

    /// The registry shared by every component of this cluster.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// A complete, deterministic metrics snapshot: per-service bus stats
    /// are flushed first so nothing is in flight.
    pub fn metrics_snapshot(&self) -> TelemetrySnapshot {
        self.bus.flush_stats();
        self.telemetry.snapshot()
    }

    /// The shared registry's simulated clock, which root operations move;
    /// drives SLO windowing in the health engine.
    pub fn sim_now(&self) -> u64 {
        self.telemetry.clock().now()
    }

    /// Attaches a durable layer to this cluster and its store; from now
    /// on every store mutation is WAL-logged and the cluster can
    /// [`Cluster::checkpoint`] and [`Cluster::restart_node`].
    pub fn attach_durability(&self, storage: Arc<DurableStorage>) -> Result<()> {
        self.store.attach_durability(Arc::clone(&storage))?;
        *self.durability.write() = Some(storage);
        Ok(())
    }

    /// The attached durable layer, if any.
    pub fn durability(&self) -> Option<Arc<DurableStorage>> {
        self.durability.read().clone()
    }

    /// Attaches a metrics-over-time store and returns it: from now on
    /// every root operation the cluster runs offers the shared registry
    /// a scrape at the clock's time (others call
    /// [`Cluster::tick_timeline`]).
    pub fn enable_timeline(&self, capacity: usize, interval_ms: u64) -> Arc<TimeSeriesStore> {
        let store = Arc::new(TimeSeriesStore::new(capacity, interval_ms));
        *self.timeline.write() = Some(Arc::clone(&store));
        self.tick_timeline();
        store
    }

    /// The attached metrics-over-time store, if any.
    pub fn timeline(&self) -> Option<Arc<TimeSeriesStore>> {
        self.timeline.read().clone()
    }

    /// Scrapes the registry into the attached timeline when a sample is
    /// due at the current simulated time. No-op without a timeline.
    pub fn tick_timeline(&self) {
        let Some(timeline) = self.timeline.read().clone() else {
            return;
        };
        timeline.tick(self.sim_now(), || self.metrics_snapshot());
    }

    /// Forces a scrape at the current simulated time regardless of the
    /// scrape interval — call once after a workload so the timeline's
    /// last sample is the final state. No-op without a timeline.
    pub fn flush_timeline(&self) {
        let Some(timeline) = self.timeline.read().clone() else {
            return;
        };
        timeline.scrape_at(self.sim_now(), self.metrics_snapshot());
    }

    /// The per-node scoreboard, with `health` refreshed to the node's
    /// current state.
    pub fn scoreboard(&self) -> Vec<NodeScore> {
        let health = self.healths();
        self.scoreboard
            .read()
            .iter()
            .map(|s| {
                let mut s = s.clone();
                s.health = health
                    .get(s.node as usize)
                    .copied()
                    .unwrap_or(NodeHealth::Up);
                s
            })
            .collect()
    }

    /// Installs (or clears) the fault plan consulted by pipeline runs.
    pub fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        *self.fault_plan.write() = plan;
    }

    /// The retry policy applied to faulted pipeline operations.
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        *self.retry_policy.write() = policy;
    }

    pub fn retry_policy(&self) -> RetryPolicy {
        *self.retry_policy.read()
    }

    /// Marks a node Up / Degraded / Down. Out-of-range ids are ignored.
    pub fn set_health(&self, node: NodeId, health: NodeHealth) {
        if let Some(slot) = self.health.write().get_mut(node.0 as usize) {
            *slot = health;
        }
    }

    /// Health of one node (`Up` for unknown ids).
    pub fn health_of(&self, node: NodeId) -> NodeHealth {
        self.health
            .read()
            .get(node.0 as usize)
            .copied()
            .unwrap_or(NodeHealth::Up)
    }

    /// Per-node health snapshot, in node order.
    pub fn healths(&self) -> Vec<NodeHealth> {
        self.health.read().clone()
    }

    /// Nodes currently not Down.
    pub fn live_nodes(&self) -> Vec<NodeId> {
        self.health
            .read()
            .iter()
            .enumerate()
            .filter(|(_, h)| **h != NodeHealth::Down)
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }

    /// Runs a miner pipeline across all nodes in parallel, honoring node
    /// health (Down shards fail over; a fully-down cluster skips shards
    /// rather than panicking) and the installed fault plan, in chunks of
    /// `MINE_BATCH` (64) entities per shard: a chunk draws its faults, then
    /// its survivors are fetched, mined together and written back. Each
    /// run is one trace in the flight recorder: `cluster.run_pipeline`
    /// wrapping the pipeline's per-shard span tree.
    pub fn run_pipeline(&self, pipeline: &MinerPipeline) -> PipelineStats {
        let plan = self.fault_plan.read().clone();
        let health = self.healths();
        let opts = RunOpts {
            batch: MINE_BATCH,
            faults: FaultContext {
                plan: plan.as_ref(),
                retry: self.retry_policy(),
                health: &health,
            },
        };
        let mut root = self.telemetry.trace_root("cluster.run_pipeline");
        let stats = pipeline.run(&self.store, opts, Some(&mut root));
        root.attr("processed", stats.processed.to_string());
        root.attr("failed", stats.failed.to_string());
        root.finish();
        self.tick_timeline();
        {
            let mut board = self.scoreboard.write();
            for outcome in &stats.shards {
                let Some(score) = board.get_mut(outcome.shard) else {
                    continue;
                };
                score.runs += 1;
                score.processed += outcome.processed as u64;
                score.failed += outcome.failed as u64;
                score.retries += outcome.retries;
                score.faults += outcome.faults;
                score.failovers += u64::from(outcome.failed_over);
                score.skipped += u64::from(outcome.skipped);
                score.sim_ms += outcome.sim_ms;
                if let Some(err) = &outcome.last_error {
                    score.last_error = Some(err.clone());
                }
            }
        }
        stats
    }

    /// (Re-)indexes every stored entity, including miner annotations.
    /// Shards are placed as a miner run places them: one owned by a Down
    /// node is indexed by a stand-in, and with no live node left it is
    /// skipped and counted; either event lands on the shard's span and
    /// under the `index.shard:N` log target. Each placed
    /// shard is gathered into one index segment, reading the shard's
    /// entities by reference under its read lock, and the segments are
    /// merged into the index once. Traced as one `cluster.rebuild_index`
    /// trace with a span per shard (store reads inside the scan are
    /// deliberately untraced to bound trace volume).
    pub fn rebuild_index(&self) -> IndexRebuildStats {
        let health = self.healths();
        let mut stats = IndexRebuildStats::default();
        // (shard, failed_over, skipped) per shard, for the scoreboard
        let mut shard_outcomes: Vec<(usize, bool, bool)> = Vec::new();
        let mut root = self.telemetry.trace_root("cluster.rebuild_index");
        let mut segments = Vec::new();
        let sizes = self.store.shard_sizes();
        for (shard, &docs) in sizes.iter().enumerate() {
            let mut span = root.child(format!("shard:{shard}"));
            let target = format!("index.shard:{shard}");
            let placed = faults::place(
                shard,
                sizes.len(),
                &health,
                docs,
                &mut Narrator::new(&self.telemetry, &target, Some(&mut span), None),
            );
            let Some(executor) = placed else {
                stats.skipped_shards += 1;
                shard_outcomes.push((shard, false, true));
                span.finish();
                continue;
            };
            if executor != shard {
                stats.failed_over += 1;
                shard_outcomes.push((shard, true, false));
            }
            let segment = self.indexer.shard_segment(&self.store, shard);
            let indexed_here = segment.len();
            segments.push(segment);
            stats.indexed += indexed_here;
            span.attr("indexed", indexed_here.to_string());
            span.finish();
        }
        self.indexer.merge(segments);
        root.attr("indexed", stats.indexed.to_string());
        root.finish();
        self.tick_timeline();
        {
            // rebuild outcomes land on the scoreboard too: a failed-over
            // or skipped shard is an operator-visible event
            let mut board = self.scoreboard.write();
            for (shard, failed_over, skipped) in shard_outcomes {
                if let Some(score) = board.get_mut(shard) {
                    score.failovers += u64::from(failed_over);
                    score.skipped += u64::from(skipped);
                    if skipped {
                        score.last_error = Some("unplaced (rebuild)".to_string());
                    }
                }
            }
        }
        self.telemetry
            .counter("cluster.rebuild.indexed")
            .add(stats.indexed as u64);
        self.telemetry
            .counter("cluster.rebuild.skipped_shards")
            .add(stats.skipped_shards as u64);
        self.telemetry
            .counter("cluster.rebuild.failed_over")
            .add(stats.failed_over as u64);
        stats
    }

    /// Snapshots every shard through the durable layer (truncating each
    /// shard's WAL), as one `cluster.checkpoint` trace. Call at
    /// quiescent points — between pipeline waves, after ingest.
    pub fn checkpoint(&self) -> Result<Vec<SnapshotStats>> {
        let storage = self
            .durability()
            .ok_or_else(|| Error::Config("no durable storage attached".into()))?;
        let mut root = self.telemetry.trace_root("cluster.checkpoint");
        let mut out = Vec::with_capacity(self.store.shard_count());
        for node in 0..self.store.shard_count() {
            let mut span = root.child(format!("snapshot:shard:{node}"));
            let stats = storage.snapshot_shard(&self.store, NodeId(node as u32))?;
            span.attr("entities", stats.entities.to_string());
            span.attr("bytes", stats.snapshot_bytes.to_string());
            span.advance(stats.entities * crate::durable::SNAPSHOT_ENTITY_COST_MS);
            root.advance(span.finish());
            out.push(stats);
        }
        root.finish();
        self.tick_timeline();
        Ok(out)
    }

    /// Simulated crash of one node: its shard's in-memory entities are
    /// lost and the node goes Down. Durable state survives for
    /// [`Cluster::restart_node`]. Returns how many entities were lost.
    pub fn drop_node_state(&self, node: NodeId) -> usize {
        let lost = self.store.drop_shard(node);
        self.set_health(node, NodeHealth::Down);
        self.telemetry.counter("cluster.node_crashes").inc();
        lost
    }

    /// [`Cluster::restart_node_with`] without a per-entity hook.
    pub fn restart_node(&self, node: NodeId) -> Result<NodeRestart> {
        self.restart_node_with(node, |_| {})
    }

    /// Restarts a crashed node from durable state: replays its snapshot
    /// and WAL (repairing any invalid tail), restores the shard's
    /// entities, incrementally rebuilds the inverted index, and hands
    /// each recovered entity to `on_entity` so callers can rebuild
    /// co-located indices (e.g. the sentiment index). The node comes
    /// back Up; the whole restart is one `cluster.restart_node` trace
    /// feeding `wfsm profile`.
    pub fn restart_node_with<F: FnMut(&Entity)>(
        &self,
        node: NodeId,
        mut on_entity: F,
    ) -> Result<NodeRestart> {
        let storage = self
            .durability()
            .ok_or_else(|| Error::Config("no durable storage attached".into()))?;
        if node.0 as usize >= self.store.shard_count() {
            return Err(Error::Config(format!("no node {}", node.0)));
        }
        let mut root = self.telemetry.trace_root("cluster.restart_node");
        root.attr("node", node.0.to_string());

        let mut replay = root.child("recover.replay");
        let recovery = storage.recover_shard(node.0)?;
        storage.repair_shard(node.0, &recovery)?;
        replay.attr("replayed", recovery.stats.replayed.to_string());
        replay.attr("last_lsn", recovery.stats.last_lsn.to_string());
        if recovery.stats.stop != StopReason::EndOfLog {
            replay.event(format!("truncated:{}", recovery.stats.stop.label()));
        }
        if recovery.stats.snapshot_truncated {
            replay.event("snapshot_truncated");
        }
        replay.advance(recovery.stats.sim_ms);
        root.advance(replay.finish());

        // whatever the crash left behind is dropped before restore, so
        // the shard holds exactly what the durable state says it should
        self.store.drop_shard(node);
        let mut rebuild = root.child("recover.rebuild");
        for entity in &recovery.entities {
            self.store.restore_entity(entity.clone());
            on_entity(entity);
        }
        let reindexed = self.indexer.index_batch(&recovery.entities);
        rebuild.attr("reindexed", reindexed.to_string());
        rebuild.advance(reindexed as u64 * crate::durable::REPLAY_COST_MS);
        root.advance(rebuild.finish());

        self.set_health(node, NodeHealth::Up);
        let elapsed = root.finish();
        self.telemetry
            .counter("durable.recovered_entities")
            .add(recovery.stats.recovered_entities);
        self.telemetry
            .counter("durable.recovery_sim_ms")
            .add(elapsed);
        self.telemetry.counter("cluster.node_restarts").inc();
        self.tick_timeline();
        Ok(NodeRestart {
            node: node.0,
            stats: recovery.stats,
            reindexed,
            sim_ms: elapsed,
        })
    }

    /// Current cluster state for reports.
    pub fn report(&self) -> ClusterReport {
        ClusterReport {
            nodes: self.nodes.len(),
            entities: self.store.len(),
            per_node_entities: self.store.shard_sizes(),
            indexed_docs: self.indexer.doc_count(),
            distinct_terms: self.indexer.term_count(),
            distinct_concepts: self.indexer.concept_count(),
            services: self.bus.service_names(),
            health: self.healths(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::{Entity, EntityEdit, SourceKind};
    use crate::miner::EntityMiner;

    struct LengthMiner;
    impl EntityMiner for LengthMiner {
        fn name(&self) -> &str {
            "length"
        }
        fn process(&self, entity: &mut EntityEdit<'_>) -> Result<()> {
            entity
                .metadata
                .insert("length".into(), entity.text.len().to_string());
            Ok(())
        }
    }

    fn seeded_cluster(nodes: usize, docs: usize) -> Cluster {
        let cluster = Cluster::new(nodes).unwrap();
        for i in 0..docs {
            cluster.store().insert(Entity::new(
                format!("uri://{i}"),
                SourceKind::Web,
                format!("document number {i} about cameras"),
            ));
        }
        cluster
    }

    /// The index the naive layout builds from `shards`, one entity at a
    /// time.
    fn naive_index_of(cluster: &Cluster, shards: std::ops::Range<u32>) -> Indexer {
        let naive = Indexer::naive();
        for shard in shards {
            cluster.store().read_shard(NodeId(shard), |read| {
                read.all().for_each(|e| naive.index_entity(e))
            });
        }
        naive
    }

    #[test]
    fn cluster_boots_with_nodes() {
        let cluster = Cluster::new(8).unwrap();
        assert_eq!(cluster.nodes().len(), 8);
        assert_eq!(cluster.nodes()[0].model, "x335");
        assert_eq!(cluster.nodes()[1].model, "x350");
        assert!(cluster.healths().iter().all(|h| *h == NodeHealth::Up));
    }

    #[test]
    fn end_to_end_ingest_mine_index_query() {
        let cluster = seeded_cluster(4, 12);
        let pipeline = MinerPipeline::new().add(Box::new(LengthMiner));
        let stats = cluster.run_pipeline(&pipeline);
        assert_eq!(stats.processed, 12);
        cluster.rebuild_index();
        let report = cluster.report();
        assert_eq!(report.entities, 12);
        assert_eq!(report.indexed_docs, 12);
        assert_eq!(report.per_node_entities.iter().sum::<usize>(), 12);
        assert!(report.distinct_terms > 5);
    }

    #[test]
    fn zero_nodes_rejected() {
        assert!(Cluster::new(0).is_err());
    }

    #[test]
    fn down_node_shard_fails_over() {
        let cluster = seeded_cluster(4, 20);
        cluster.set_health(NodeId(2), NodeHealth::Down);
        let pipeline = MinerPipeline::new().add(Box::new(LengthMiner));
        let stats = cluster.run_pipeline(&pipeline);
        assert_eq!(stats.processed, 20, "failover keeps every entity mined");
        assert_eq!(stats.failed_over, 1);
        assert_eq!(stats.skipped_shards, 0);
        let idx = cluster.rebuild_index();
        assert_eq!(idx.indexed, 20);
        assert_eq!(idx.failed_over, 1);
        // the stand-in indexed the down node's shard with the others
        assert_eq!(
            cluster.indexer().contents(),
            naive_index_of(&cluster, 0..4).contents()
        );
    }

    #[test]
    fn mining_and_rebuild_fail_over_to_the_same_up_node() {
        // node 0 Down, node 1 Degraded: an Up node outranks a Degraded
        // one, so both operations hand shard 0 to node 2
        let cluster = seeded_cluster(3, 9);
        cluster.set_health(NodeId(0), NodeHealth::Down);
        cluster.set_health(NodeId(1), NodeHealth::Degraded);
        let pipeline = MinerPipeline::new().add(Box::new(LengthMiner));
        let stats = cluster.run_pipeline(&pipeline);
        assert_eq!(stats.shards[0].executor, Some(2));
        cluster.rebuild_index();
        let traces = cluster.telemetry().recorder().last_traces(1);
        let shard0 = traces[0].1[0].find("shard:0").expect("shard:0 span");
        let failovers: Vec<&str> = shard0
            .events
            .iter()
            .map(|e| e.label.as_str())
            .filter(|l| l.starts_with("failover:"))
            .collect();
        assert_eq!(failovers, ["failover:node:2"]);
    }

    #[test]
    fn fully_down_cluster_skips_instead_of_panicking() {
        let cluster = seeded_cluster(2, 10);
        cluster.set_health(NodeId(0), NodeHealth::Down);
        cluster.set_health(NodeId(1), NodeHealth::Down);
        let pipeline = MinerPipeline::new().add(Box::new(LengthMiner));
        let stats = cluster.run_pipeline(&pipeline);
        assert_eq!(stats.processed, 0);
        assert_eq!(stats.failed, 10);
        assert_eq!(stats.skipped_shards, 2);
        let idx = cluster.rebuild_index();
        assert_eq!(idx.indexed, 0);
        assert_eq!(idx.skipped_shards, 2);
        // no shard was placed, so nothing was indexed
        assert_eq!(
            cluster.indexer().contents(),
            naive_index_of(&cluster, 0..0).contents()
        );
    }

    #[test]
    fn components_share_one_registry() {
        let cluster = seeded_cluster(2, 6);
        cluster
            .bus()
            .register("echo", Arc::new(|v: &serde_json::Value| Ok(v.clone())));
        let _ = cluster.bus().call("echo", &serde_json::Value::Null);
        let pipeline = MinerPipeline::new().add(Box::new(LengthMiner));
        let stats = cluster.run_pipeline(&pipeline);
        let rebuild = cluster.rebuild_index();
        cluster
            .indexer()
            .query(&crate::index::Query::Term("cameras".into()))
            .unwrap();
        let snap = cluster.metrics_snapshot();
        // one snapshot sees store, bus, pipeline, rebuild and index activity
        assert_eq!(snap.counter("store.insert"), 6);
        assert_eq!(snap.counter("bus.calls"), 1);
        assert_eq!(snap.counter("bus.service.echo.calls"), 1);
        assert_eq!(snap.counter("pipeline.processed"), stats.processed as u64);
        assert_eq!(
            snap.counter("cluster.rebuild.indexed"),
            rebuild.indexed as u64
        );
        assert_eq!(snap.counter("index.query.total"), 1);
        assert_eq!(snap.gauge("store.entities"), 6);
    }

    #[test]
    fn cluster_ops_leave_traces_in_the_flight_recorder() {
        let cluster = seeded_cluster(3, 9);
        cluster.set_health(NodeId(1), NodeHealth::Down);
        let pipeline = MinerPipeline::new().add(Box::new(LengthMiner));
        cluster.run_pipeline(&pipeline);
        cluster.rebuild_index();
        let traces = cluster.telemetry().recorder().last_traces(2);
        assert_eq!(traces.len(), 2, "one trace per top-level op");
        let run = &traces[0].1[0];
        assert_eq!(run.name, "cluster.run_pipeline");
        assert!(
            run.find("cluster.run_pipeline/pipeline.run/shard:2")
                .is_some(),
            "pipeline shards nest under the cluster root"
        );
        let rebuild = &traces[1].1[0];
        assert_eq!(rebuild.name, "cluster.rebuild_index");
        let shard1 = rebuild.find("shard:1").expect("shard:1 span");
        assert!(
            shard1
                .events
                .iter()
                .any(|e| e.label.starts_with("failover:")),
            "down node's shard records its stand-in: {:?}",
            shard1.events
        );
        assert_eq!(rebuild.attrs.get("indexed").map(String::as_str), Some("9"));
    }

    #[test]
    fn attached_timeline_scrapes_cluster_ops() {
        let cluster = seeded_cluster(3, 9);
        let timeline = cluster.enable_timeline(64, 1);
        let pipeline = MinerPipeline::new().add(Box::new(LengthMiner));
        cluster.run_pipeline(&pipeline);
        cluster.rebuild_index();
        // a root the cluster did not run moves the same clock
        let before = cluster.sim_now();
        let mut probe = cluster.telemetry().trace_root("probe");
        probe.advance(10);
        probe.finish();
        assert_eq!(cluster.sim_now(), before + 10);
        cluster.tick_timeline();
        cluster.flush_timeline();
        let tl = timeline.timeline();
        assert!(tl.scrapes >= 2, "ops scraped: {}", tl.scrapes);
        assert_eq!(tl.end_ms, cluster.sim_now());
        // the summed increases telescope to the final counter value
        let snap = cluster.metrics_snapshot();
        assert_eq!(
            tl.total_increase("pipeline.processed"),
            snap.counter("pipeline.processed")
        );
        assert_eq!(
            tl.total_increase("cluster.rebuild.indexed"),
            snap.counter("cluster.rebuild.indexed")
        );
    }

    #[test]
    fn live_nodes_excludes_down() {
        let cluster = Cluster::new(3).unwrap();
        cluster.set_health(NodeId(1), NodeHealth::Down);
        cluster.set_health(NodeId(2), NodeHealth::Degraded);
        assert_eq!(cluster.live_nodes(), vec![NodeId(0), NodeId(2)]);
        assert_eq!(cluster.health_of(NodeId(1)), NodeHealth::Down);
    }
}
