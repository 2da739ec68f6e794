//! The miner framework: entity-level and corpus-level miners.
//!
//! "There are two types of miners in WebFountain: entity-level and
//! corpus-level (cross-entity) miners. Entity-level miners process each
//! entity without information from neighboring entities, and typically
//! augment processed entities with the results. [...] corpus-level miners
//! require all or part of the entire data in store."
//!
//! [`MinerPipeline::run`] runs a chain of entity miners over every shard
//! of a [`DataStore`], one scoped worker thread per shard — the in-process
//! equivalent of WebFountain's per-node parallelism. Workers capture
//! panics (a crashed shard becomes counted failures, never a crashed
//! cluster) and, when run under a [`FaultPlan`], weather injected faults
//! by retrying with exponential backoff on a simulated clock. Entities
//! that survive their fault draws reach the chain in batches, so
//! batch-aware miners amortize per-document setup.

use crate::entity::EntityEdit;
use crate::evlog::Level;
use crate::faults::{self, FaultPlan, FaultStream, Halt, Narrator, NodeHealth, Step};
use crate::store::DataStore;
use crate::telemetry::Telemetry;
use crate::trace::TraceSpan;
use std::panic::{catch_unwind, AssertUnwindSafe};
use wf_types::{DocId, NodeId, Result, RetryPolicy};

/// Metadata key naming the miner that failed on an entity.
const MINER_ERROR: &str = "miner-error";

/// An entity-level miner: sees one entity at a time and augments it.
/// It reads the document through an [`EntityEdit`] and can change only
/// the entity's annotations and metadata.
pub trait EntityMiner: Send + Sync {
    /// Stable miner name (used in annotations and stats).
    fn name(&self) -> &str;

    /// Processes one entity in place.
    fn process(&self, entity: &mut EntityEdit<'_>) -> Result<()>;

    /// Processes a batch of entities under the shard's trace span,
    /// returning one result per entity in order. The default delegates
    /// to [`EntityMiner::process`] per entity and leaves the span alone.
    /// Miners with a batch-aware hot path (shared scratch buffers,
    /// one-pass document analysis) override this to amortize
    /// per-document setup, and may charge their work to the span as
    /// per-stage child spans, advancing it by the batch's simulated
    /// cost. Implementations must leave each entity exactly as `process`
    /// would have, and the charge must not depend on how the entities
    /// are split into batches.
    fn process_batch(&self, batch: &mut [EntityEdit<'_>], span: &mut TraceSpan) -> Vec<Result<()>> {
        let _ = span;
        batch.iter_mut().map(|e| self.process(e)).collect()
    }
}

/// A corpus-level miner: sees the whole store.
pub trait CorpusMiner: Send + Sync {
    fn name(&self) -> &str;

    /// Runs over the full store (read or write through the store API).
    fn run(&self, store: &DataStore) -> Result<()>;
}

/// Per-run statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Entities processed successfully.
    pub processed: usize,
    /// Entities whose processing failed (miner error, injected fault after
    /// exhausted retries, or a shard that crashed or could not be placed).
    pub failed: usize,
    /// Retries performed against transient injected faults.
    pub retries: u64,
    /// Shards abandoned whole: worker panic, or the owning node was Down
    /// with no healthy node to fail over to.
    pub skipped_shards: usize,
    /// Shards executed by a stand-in node because their owner was Down.
    pub failed_over: usize,
    /// Simulated milliseconds consumed per shard, in shard order.
    pub shard_sim_ms: Vec<u64>,
    /// Per-shard outcome detail, in shard order (feeds the cluster
    /// scoreboard behind `wfsm top`).
    pub shards: Vec<ShardOutcome>,
}

impl PipelineStats {
    /// Totals over per-shard outcomes given in shard order.
    fn from_shards(shards: Vec<ShardOutcome>) -> Self {
        PipelineStats {
            processed: shards.iter().map(|s| s.processed).sum(),
            failed: shards.iter().map(|s| s.failed).sum(),
            retries: shards.iter().map(|s| s.retries).sum(),
            skipped_shards: shards.iter().filter(|s| s.skipped).count(),
            failed_over: shards.iter().filter(|s| s.failed_over).count(),
            shard_sim_ms: shards.iter().map(|s| s.sim_ms).collect(),
            shards,
        }
    }
}

/// What happened to one shard during a pipeline run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardOutcome {
    /// Shard (== owning node) index.
    pub shard: usize,
    /// Node that actually executed the shard; `None` when the whole
    /// cluster was down and the shard could not be placed.
    pub executor: Option<usize>,
    pub processed: usize,
    pub failed: usize,
    pub retries: u64,
    /// Injected faults drawn while mining the shard.
    pub faults: u64,
    /// A stand-in node executed the shard (owner was Down).
    pub failed_over: bool,
    /// The shard was abandoned whole (worker panic or unplaced).
    pub skipped: bool,
    /// Simulated milliseconds the shard consumed.
    pub sim_ms: u64,
    /// Most recent failure on this shard, mirroring the span event text.
    pub last_error: Option<String>,
}

/// Fault-injection context for one pipeline run.
///
/// `health[i]` is the health of node `i` (missing entries mean `Up`).
/// Without a plan and with every node up, the pipeline behaves exactly
/// like the fault-free original.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultContext<'a> {
    pub plan: Option<&'a FaultPlan>,
    pub retry: RetryPolicy,
    pub health: &'a [NodeHealth],
}

impl FaultContext<'_> {
    /// No faults, no retries: the legacy fast path.
    pub fn none() -> Self {
        FaultContext {
            plan: None,
            retry: RetryPolicy::none(),
            health: &[],
        }
    }
}

/// How one [`MinerPipeline::run`] goes.
#[derive(Debug, Clone, Copy)]
pub struct RunOpts<'a> {
    /// Entities handed to [`EntityMiner::process_batch`] together, per
    /// shard (0 counts as 1). Outcomes and stats do not depend on it.
    pub batch: usize,
    /// Injected faults, retry policy and node health.
    pub faults: FaultContext<'a>,
}

impl Default for RunOpts<'_> {
    /// One entity at a time, fault-free.
    fn default() -> Self {
        RunOpts {
            batch: 1,
            faults: FaultContext::none(),
        }
    }
}

/// A chain of entity miners executed in order over each entity.
#[derive(Default)]
pub struct MinerPipeline {
    miners: Vec<Box<dyn EntityMiner>>,
}

impl MinerPipeline {
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a miner to the chain.
    #[allow(clippy::should_implement_trait)] // builder-style chain, not arithmetic
    pub fn add(mut self, miner: Box<dyn EntityMiner>) -> Self {
        self.miners.push(miner);
        self
    }

    /// Names of the chained miners, in order.
    pub fn miner_names(&self) -> Vec<&str> {
        self.miners.iter().map(|m| m.name()).collect()
    }

    /// Runs the chain over every entity of the store, one worker thread
    /// per shard. Each entity first draws its injected faults (transient
    /// ones are retried per the policy, Down nodes fail over); the
    /// survivors are read by reference, mined in batches of `opts.batch`
    /// and their annotations and metadata written back with one update
    /// each. Errors from individual entities are counted, not propagated
    /// — a malformed page must not stall the cluster — and worker panics
    /// are captured, so `processed + failed == store.len()` always holds.
    ///
    /// The run is a `pipeline.run` span with one `shard:<n>` child per
    /// shard, forked at the same instant: a child of `parent` (whose
    /// clock then advances by the run's elapsed time) or, without one, a
    /// trace of its own. Injected faults, retries and timeouts become
    /// events on their shard's span. The run records into the store's
    /// telemetry registry: `pipeline.*` counters mirror the returned
    /// [`PipelineStats`] exactly, and each shard's simulated time lands in
    /// `span.pipeline.shard.sim_ms` (in shard order, so same-seed runs
    /// snapshot identically).
    pub fn run(
        &self,
        store: &DataStore,
        opts: RunOpts<'_>,
        parent: Option<&mut TraceSpan>,
    ) -> PipelineStats {
        let tele = store.telemetry();
        let mut span = match &parent {
            Some(parent) => parent.child("pipeline.run"),
            None => tele.trace_root("pipeline.run"),
        };
        let entities_in = store.len() as u64;
        // every shard span forks from the same instant; the workers run in
        // parallel, so afterwards the run's clock jumps to the slowest one
        let fork_start = span.end_sim_ms();
        let shard_spans: Vec<TraceSpan> = (0..store.shard_count())
            .map(|s| span.child(format!("shard:{s}")))
            .collect();
        let shards: Vec<ShardOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = shard_spans
                .into_iter()
                .enumerate()
                .map(|(shard, mut sp)| {
                    scope.spawn(move || {
                        let outcome = self.run_shard(store, shard, &opts, &mut sp);
                        sp.attr("processed", outcome.processed.to_string());
                        sp.attr("failed", outcome.failed.to_string());
                        sp.finish();
                        outcome
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker wrapper never panics"))
                .collect()
        });
        // merged in shard order: identical fault seeds give byte-identical
        // stats no matter how the workers interleaved
        let total = PipelineStats::from_shards(shards);
        let slowest = total.shard_sim_ms.iter().copied().max().unwrap_or(0);
        span.advance_to(fork_start + slowest);
        tele.counter("pipeline.runs").inc();
        tele.counter("pipeline.entities_in").add(entities_in);
        tele.counter("pipeline.processed")
            .add(total.processed as u64);
        tele.counter("pipeline.failed").add(total.failed as u64);
        tele.counter("pipeline.retries").add(total.retries);
        tele.counter("pipeline.skipped_shards")
            .add(total.skipped_shards as u64);
        tele.counter("pipeline.failed_over")
            .add(total.failed_over as u64);
        // shard durations double as exemplars: each bucket of the shard
        // histogram remembers the run whose shard was slowest
        let shard_hist = tele.histogram("span.pipeline.shard.sim_ms");
        let trace = span.trace_id();
        for &sim_ms in &total.shard_sim_ms {
            shard_hist.record_exemplar(sim_ms, trace);
        }
        let elapsed = span.finish();
        if let Some(parent) = parent {
            parent.advance(elapsed);
        }
        total
    }

    /// One shard, placed and panic-safe: a Down owner fails over (or, with
    /// no healthy node left, the shard is skipped), and a crash inside a
    /// miner converts the whole shard into counted failures instead of
    /// poisoning the run — leaving a `panicked` event on the shard's span,
    /// which keeps the simulated time it had accrued up to the crash.
    fn run_shard(
        &self,
        store: &DataStore,
        shard: usize,
        opts: &RunOpts<'_>,
        span: &mut TraceSpan,
    ) -> ShardOutcome {
        let ids = store.shard_ids(NodeId(shard as u32));
        let tele = store.telemetry();
        let target = format!("miner.shard:{shard}");
        let placed = faults::place(
            shard,
            store.shard_count(),
            opts.faults.health,
            ids.len(),
            &mut Narrator::new(tele, &target, Some(span), None),
        );
        let Some(executor) = placed else {
            return ShardOutcome {
                shard,
                failed: ids.len(),
                skipped: true,
                last_error: Some("unplaced".to_string()),
                ..ShardOutcome::default()
            };
        };
        let failed_over = executor != shard;
        let mut stream = opts
            .faults
            .plan
            .map(|p| p.stream(&format!("shard:{shard}")));
        if let Some(s) = stream.as_mut() {
            if opts.faults.health.get(executor) == Some(&NodeHealth::Degraded) {
                s.degrade();
            }
        }
        let mut draws = FaultDraws {
            stream,
            retry: opts.faults.retry,
            tele,
            target: &target,
            retries: 0,
            faults: 0,
        };
        let mined = catch_unwind(AssertUnwindSafe(|| {
            self.mine_shard(store, shard, &ids, opts.batch.max(1), &mut draws, span)
        }));
        let mut outcome = match mined {
            Ok((processed, failed, last_error)) => ShardOutcome {
                processed,
                failed,
                retries: draws.retries,
                faults: draws.faults,
                last_error,
                ..ShardOutcome::default()
            },
            Err(_) => {
                let label = Some("panicked".to_string());
                let docs = ids.len();
                let message = "shard worker panicked";
                tele.evlog().note(
                    span,
                    Level::Error,
                    &target,
                    label,
                    message,
                    &[("docs", &docs)],
                );
                // conservative accounting: a crashed worker forfeits the
                // shard, so every entity in it counts as failed
                ShardOutcome {
                    failed: ids.len(),
                    skipped: true,
                    last_error: Some("panicked".to_string()),
                    ..ShardOutcome::default()
                }
            }
        };
        outcome.shard = shard;
        outcome.executor = Some(executor);
        outcome.failed_over = failed_over;
        outcome.sim_ms = span.elapsed_sim_ms();
        outcome
    }

    /// Mines one shard's entities in chunks of `batch`: each entity draws
    /// its faults; under one read of the shard, each survivor is lent to
    /// the chain as an [`EntityEdit`] holding copies of its annotations
    /// and metadata; after the read, each is written back through
    /// [`DataStore::update`]. A chain that panics writes nothing for its
    /// chunk. Returns (processed, failed, the last failure in shard
    /// order). With `batch == 1` each entity is read, mined and written
    /// back right after its own fault draws.
    fn mine_shard(
        &self,
        store: &DataStore,
        shard: usize,
        ids: &[DocId],
        batch: usize,
        draws: &mut FaultDraws<'_>,
        span: &mut TraceSpan,
    ) -> (usize, usize, Option<String>) {
        let (mut processed, mut failed, mut last_error) = (0, 0, None);
        let failure = |id: DocId| Some(format!("{MINER_ERROR} doc={}", id.0));
        for chunk in ids.chunks(batch) {
            // one slot per entity of the chunk: Some(reason) once it failed
            let mut errors: Vec<Option<String>> =
                chunk.iter().map(|&id| draws.draw(id, span)).collect();
            let mined = store.read_shard(NodeId(shard as u32), |read| {
                let mut positions = Vec::with_capacity(chunk.len());
                let mut views = Vec::with_capacity(chunk.len());
                for (i, &id) in chunk.iter().enumerate() {
                    if errors[i].is_some() {
                        continue;
                    }
                    let mut get = span.child(format!("store.get:{}", id.0));
                    match read.get(id) {
                        Some(entity) => {
                            let mut view = EntityEdit::of(entity);
                            // this run decides the outcome: drop an earlier
                            // run's failure marker before the chain runs
                            view.metadata.remove(MINER_ERROR);
                            positions.push(i);
                            views.push(view);
                        }
                        None => {
                            get.event("miss");
                            errors[i] = failure(id);
                        }
                    }
                    get.finish();
                }
                let ok = self.apply_chain(&mut views, span);
                let changes = views.into_iter().map(|v| (v.annotations, v.metadata));
                positions
                    .into_iter()
                    .zip(changes)
                    .zip(ok)
                    .collect::<Vec<_>>()
            });
            for ((i, (annotations, metadata)), ok) in mined {
                let id = chunk[i];
                let mut update = span.child(format!("store.update:{}", id.0));
                let written = store
                    .update(id, |slot| {
                        slot.annotations = annotations;
                        // a map the chain left as it was stays where
                        // ingest placed it: later scans run faster
                        if slot.metadata != metadata {
                            slot.metadata = metadata;
                        }
                    })
                    .is_ok();
                if !written {
                    update.event("miss");
                }
                update.finish();
                if !(written && ok) {
                    errors[i] = failure(id);
                }
            }
            for error in errors {
                match error {
                    None => processed += 1,
                    Some(error) => {
                        failed += 1;
                        last_error = Some(error);
                    }
                }
            }
        }
        (processed, failed, last_error)
    }

    /// Runs the chain over `batch`: one `process_batch` call per miner
    /// while every entity is still healthy, then one-entity batches for
    /// the survivors once one has failed (so stage charges do not depend
    /// on the batch size). An entity's chain stops at its first failing
    /// miner, whose name lands in `miner-error`. Returns one success
    /// flag per entity.
    fn apply_chain(&self, batch: &mut [EntityEdit<'_>], span: &mut TraceSpan) -> Vec<bool> {
        let mut ok = vec![true; batch.len()];
        for miner in &self.miners {
            let results = if ok.iter().all(|&o| o) {
                miner.process_batch(batch, span)
            } else {
                batch
                    .iter_mut()
                    .zip(&ok)
                    .map(|(entity, &live)| {
                        if live {
                            miner
                                .process_batch(std::slice::from_mut(entity), span)
                                .remove(0)
                        } else {
                            Ok(())
                        }
                    })
                    .collect()
            };
            for ((entity, ok), result) in batch.iter_mut().zip(&mut ok).zip(results) {
                if *ok && result.is_err() {
                    entity
                        .metadata
                        .insert(MINER_ERROR.into(), miner.name().to_string());
                    *ok = false;
                }
            }
        }
        ok
    }
}

/// One shard's fault draws: its deterministic stream (none when the run
/// is fault-free), the retry policy, and what the draws cost.
struct FaultDraws<'a> {
    stream: Option<FaultStream>,
    retry: RetryPolicy,
    tele: &'a Telemetry,
    target: &'a str,
    retries: u64,
    faults: u64,
}

impl FaultDraws<'_> {
    /// Draws `id`'s injected faults through [`faults::drive`] on the
    /// span's simulated clock: transient ones (node blip, store
    /// conflict) back off and retry,
    /// terminal ones and exhausted budgets fail the entity. `None`
    /// admits the entity to the chain; `Some(reason)` fails it before
    /// the store is touched, so a later successful attempt bumps the
    /// entity version exactly once.
    fn draw(&mut self, id: DocId, span: &mut TraceSpan) -> Option<String> {
        let stream = self.stream.as_mut()?;
        let mut last_fault = None;
        let step = |step| match step {
            Step::Attempt { fault, .. } => {
                if let Some(kind) = fault {
                    last_fault = Some(kind);
                    self.faults += 1;
                }
            }
            Step::Backoff { .. } => self.retries += 1,
        };
        let mut narrator = Narrator::new(self.tele, self.target, Some(span), Some(id));
        let drawn = faults::drive(
            Some(stream),
            &self.retry,
            &mut narrator,
            step,
            faults::admit,
        );
        match drawn {
            Ok(()) => None,
            Err(Halt::Timeout { .. }) => Some(format!("timeout doc={}", id.0)),
            Err(Halt::Failed(err)) => {
                let kind = last_fault.expect("a failed attempt drew a fault").label();
                let exhausted = if err.is_transient() {
                    " retries exhausted"
                } else {
                    ""
                };
                Some(format!("fault:{kind} doc={}{exhausted}", id.0))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::{Annotation, Entity, SourceKind};
    use wf_types::{Error, Span};

    struct UppercaseCounter;
    impl EntityMiner for UppercaseCounter {
        fn name(&self) -> &str {
            "uppercase-counter"
        }
        fn process(&self, entity: &mut EntityEdit<'_>) -> Result<()> {
            let n = entity.text.chars().filter(|c| c.is_uppercase()).count();
            entity.metadata.insert("uppercase".into(), n.to_string());
            Ok(())
        }
    }

    struct Tagger;
    impl EntityMiner for Tagger {
        fn name(&self) -> &str {
            "tagger"
        }
        fn process(&self, entity: &mut EntityEdit<'_>) -> Result<()> {
            let len = entity.text.len();
            entity.annotate(Annotation::new("whole-doc", Span::new(0, len)));
            Ok(())
        }
    }

    struct FailOnEmpty;
    impl EntityMiner for FailOnEmpty {
        fn name(&self) -> &str {
            "fail-on-empty"
        }
        fn process(&self, entity: &mut EntityEdit<'_>) -> Result<()> {
            if entity.text.is_empty() {
                Err(Error::Config("empty entity".into()))
            } else {
                Ok(())
            }
        }
    }

    struct CountingCorpusMiner;
    impl CorpusMiner for CountingCorpusMiner {
        fn name(&self) -> &str {
            "counting"
        }
        fn run(&self, store: &DataStore) -> Result<()> {
            // aggregate statistic example: total text length
            let mut total = 0usize;
            store.for_each(|e| total += e.text.len());
            assert!(total > 0);
            Ok(())
        }
    }

    fn seeded_store(shards: usize, docs: usize) -> DataStore {
        let store = DataStore::new(shards).unwrap();
        for i in 0..docs {
            store.insert(Entity::new(
                format!("uri://{i}"),
                SourceKind::Web,
                format!("Document Number {i}"),
            ));
        }
        store
    }

    /// A fault-free run in batches of `batch`, as its own trace.
    fn run_batch(pipeline: &MinerPipeline, store: &DataStore, batch: usize) -> PipelineStats {
        let opts = RunOpts {
            batch,
            ..RunOpts::default()
        };
        pipeline.run(store, opts, None)
    }

    fn assert_same_entities(a: &DataStore, b: &DataStore) {
        assert_eq!(a.len(), b.len());
        for id in a.ids() {
            assert_eq!(a.get(id).unwrap(), b.get(id).unwrap(), "entity {id:?}");
        }
    }

    #[test]
    fn pipeline_processes_all_entities() {
        let store = seeded_store(4, 20);
        let pipeline = MinerPipeline::new()
            .add(Box::new(UppercaseCounter))
            .add(Box::new(Tagger));
        let stats = run_batch(&pipeline, &store, 1);
        assert_eq!(stats.processed, 20);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.skipped_shards, 0);
        for id in store.ids() {
            let e = store.get(id).unwrap();
            assert!(e.metadata.contains_key("uppercase"));
            assert_eq!(e.annotations_of("whole-doc").count(), 1);
            assert_eq!(e.version, 2, "each entity updated once");
        }
    }

    #[test]
    fn miner_errors_are_counted_not_fatal() {
        let store = DataStore::new(2).unwrap();
        store.insert(Entity::new("a", SourceKind::Web, "content"));
        store.insert(Entity::new("b", SourceKind::Web, ""));
        store.insert(Entity::new("c", SourceKind::Web, "more"));
        let pipeline = MinerPipeline::new().add(Box::new(FailOnEmpty));
        let stats = run_batch(&pipeline, &store, 1);
        assert_eq!(stats.processed, 2);
        assert_eq!(stats.failed, 1);
        assert_eq!(
            stats.shards[1].last_error.as_deref(),
            Some("miner-error doc=1")
        );
    }

    #[test]
    fn chain_stops_after_failing_miner() {
        let store = DataStore::single();
        store.insert(Entity::new("a", SourceKind::Web, ""));
        let pipeline = MinerPipeline::new()
            .add(Box::new(FailOnEmpty))
            .add(Box::new(UppercaseCounter));
        run_batch(&pipeline, &store, 1);
        let e = store.get(DocId(0)).unwrap();
        // second miner never ran
        assert!(!e.metadata.contains_key("uppercase"));
        assert_eq!(e.metadata.get("miner-error").unwrap(), "fail-on-empty");
    }

    /// A failure marker left by an earlier pipeline must not count
    /// against a later pipeline whose chain succeeds on the entity.
    #[test]
    fn stale_miner_error_does_not_fail_a_later_run() {
        let store = DataStore::new(2).unwrap();
        store.insert(Entity::new("a", SourceKind::Web, "content"));
        store.insert(Entity::new("b", SourceKind::Web, ""));
        let first = run_batch(&MinerPipeline::new().add(Box::new(FailOnEmpty)), &store, 1);
        assert_eq!(first.failed, 1);
        for batch in [1, 2] {
            let second = run_batch(&MinerPipeline::new().add(Box::new(Tagger)), &store, batch);
            assert_eq!((second.processed, second.failed), (2, 0), "batch {batch}");
            let e = store.get(DocId(1)).unwrap();
            assert!(!e.metadata.contains_key("miner-error"));
        }
    }

    /// Mining writes back only what the chain changed: the stored text,
    /// and a metadata map the chain left as it was, keep the buffers
    /// ingest allocated.
    #[test]
    fn mining_keeps_the_text_and_an_unchanged_metadata_map_in_place() {
        let store = DataStore::single();
        let entity = Entity::new("a", SourceKind::Web, "Some Text").with_metadata("line", "7");
        let id = store.insert(entity);
        let buffers = |store: &DataStore| {
            store.read_shard(NodeId(0), |read| {
                let e = read.get(id).unwrap();
                (e.text.as_ptr(), e.metadata.keys().next().unwrap().as_ptr())
            })
        };
        let ingested = buffers(&store);
        let (tagger, counter) = (MinerPipeline::new(), MinerPipeline::new());
        run_batch(&tagger.add(Box::new(Tagger)), &store, 1);
        assert_eq!(buffers(&store), ingested);
        run_batch(&counter.add(Box::new(UppercaseCounter)), &store, 1);
        assert_eq!(buffers(&store).0, ingested.0, "the text never moves");
        let e = store.get(id).unwrap();
        assert_eq!((e.metadata["uppercase"].as_str(), e.version), ("2", 3));
    }

    #[test]
    fn corpus_miner_runs() {
        let store = seeded_store(2, 5);
        CountingCorpusMiner.run(&store).unwrap();
    }

    #[test]
    fn miner_names_in_order() {
        let pipeline = MinerPipeline::new()
            .add(Box::new(UppercaseCounter))
            .add(Box::new(Tagger));
        assert_eq!(pipeline.miner_names(), vec!["uppercase-counter", "tagger"]);
    }

    #[test]
    fn empty_store_is_noop() {
        let store = DataStore::new(3).unwrap();
        let stats = run_batch(&MinerPipeline::new().add(Box::new(Tagger)), &store, 8);
        assert_eq!(stats.processed, 0);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.shard_sim_ms, vec![0, 0, 0]);
    }

    #[test]
    fn pipeline_counters_mirror_stats() {
        let store = DataStore::new(2).unwrap();
        store.insert(Entity::new("a", SourceKind::Web, "content"));
        store.insert(Entity::new("b", SourceKind::Web, ""));
        store.insert(Entity::new("c", SourceKind::Web, "more"));
        let pipeline = MinerPipeline::new().add(Box::new(FailOnEmpty));
        let stats = run_batch(&pipeline, &store, 2);
        let snap = store.telemetry().snapshot();
        assert_eq!(snap.counter("pipeline.runs"), 1);
        assert_eq!(snap.counter("pipeline.entities_in"), 3);
        assert_eq!(snap.counter("pipeline.processed"), stats.processed as u64);
        assert_eq!(snap.counter("pipeline.failed"), stats.failed as u64);
        assert_eq!(
            snap.counter("pipeline.entities_in"),
            snap.counter("pipeline.processed") + snap.counter("pipeline.failed"),
            "counter conservation"
        );
        let spans = snap.histogram("span.pipeline.shard.sim_ms").unwrap();
        assert_eq!(spans.count as usize, stats.shard_sim_ms.len());
        assert_eq!(spans.sum, stats.shard_sim_ms.iter().sum::<u64>());
    }

    #[test]
    fn batch_sizes_match_per_entity_exactly() {
        let pipeline = MinerPipeline::new()
            .add(Box::new(UppercaseCounter))
            .add(Box::new(Tagger));
        let per_entity = seeded_store(4, 20);
        let a = run_batch(&pipeline, &per_entity, 1);
        for batch in [2, 7, 64] {
            let batched = seeded_store(4, 20);
            let b = run_batch(&pipeline, &batched, batch);
            assert_eq!(a, b, "batch {batch}");
            assert_same_entities(&per_entity, &batched);
        }
    }

    #[test]
    fn batch_falls_back_per_entity_after_a_failure() {
        let seed = || {
            let store = DataStore::new(2).unwrap();
            store.insert(Entity::new("a", SourceKind::Web, "content"));
            store.insert(Entity::new("b", SourceKind::Web, ""));
            store.insert(Entity::new("c", SourceKind::Web, "more"));
            store.insert(Entity::new("d", SourceKind::Web, ""));
            store
        };
        let pipeline = MinerPipeline::new()
            .add(Box::new(FailOnEmpty))
            .add(Box::new(UppercaseCounter));
        let per_entity = seed();
        let a = run_batch(&pipeline, &per_entity, 1);
        let batched = seed();
        let b = run_batch(&pipeline, &batched, 16);
        assert_eq!(a, b);
        assert_eq!(b.processed, 2);
        assert_eq!(b.failed, 2);
        assert_same_entities(&per_entity, &batched);
    }

    /// Charges one simulated ms per entity to a `tag` stage span.
    struct CostedTagger;
    impl EntityMiner for CostedTagger {
        fn name(&self) -> &str {
            "costed-tagger"
        }
        fn process(&self, entity: &mut EntityEdit<'_>) -> Result<()> {
            Tagger.process(entity)
        }
        fn process_batch(
            &self,
            batch: &mut [EntityEdit<'_>],
            span: &mut TraceSpan,
        ) -> Vec<Result<()>> {
            let mut stage = span.child("tag");
            stage.advance(batch.len() as u64);
            stage.finish();
            span.advance(batch.len() as u64);
            batch.iter_mut().map(|e| self.process(e)).collect()
        }
    }

    #[test]
    fn batches_charge_stage_spans_to_their_shard() {
        let pipeline = MinerPipeline::new().add(Box::new(CostedTagger));
        let per_entity = seeded_store(3, 12);
        let a = run_batch(&pipeline, &per_entity, 1);
        let batched = seeded_store(3, 12);
        let tele = batched.telemetry().clone();
        let mut op = tele.trace_root("op");
        let opts = RunOpts {
            batch: 5,
            ..RunOpts::default()
        };
        let b = pipeline.run(&batched, opts, Some(&mut op));
        let elapsed = op.elapsed_sim_ms();
        op.finish();
        assert_eq!(a, b, "stage charges do not depend on the batch size");
        assert_same_entities(&per_entity, &batched);
        // each shard holds 4 docs in one batch of 5 ⇒ 4 sim-ms per shard,
        // shards run in parallel ⇒ the run costs as much as the slowest
        assert_eq!(b.shard_sim_ms, vec![4, 4, 4]);
        assert_eq!(elapsed, 4);
        let traces = tele.recorder().last_traces(1);
        let run = traces[0].1[0]
            .find("op/pipeline.run")
            .expect("pipeline.run");
        assert_eq!(run.children.len(), 3);
        for (shard, child) in run.children.iter().enumerate() {
            assert_eq!(child.name, format!("shard:{shard}"));
            assert_eq!(child.duration_sim_ms, b.shard_sim_ms[shard]);
            let stages: Vec<_> = child.children.iter().filter(|c| c.name == "tag").collect();
            assert_eq!(stages.len(), 1, "one batch ⇒ one stage span");
            assert_eq!(stages[0].duration_sim_ms, 4);
        }
    }

    #[test]
    fn batch_size_edges() {
        for batch in [0, 1, 1000] {
            let store = seeded_store(3, 10);
            let stats = run_batch(&MinerPipeline::new().add(Box::new(Tagger)), &store, batch);
            assert_eq!(stats.processed, 10, "batch {batch}");
            assert_eq!(stats.failed, 0);
            for id in store.ids() {
                assert_eq!(store.get(id).unwrap().version, 2, "one bump each");
            }
        }
    }

    struct PanicMiner;
    impl EntityMiner for PanicMiner {
        fn name(&self) -> &str {
            "panic-miner"
        }
        fn process(&self, entity: &mut EntityEdit<'_>) -> Result<()> {
            if entity.text.contains("poison") {
                panic!("injected miner crash");
            }
            Ok(())
        }
    }

    #[test]
    fn worker_panic_is_contained() {
        let store = DataStore::new(2).unwrap();
        store.insert(Entity::new("a", SourceKind::Web, "fine")); // shard 0
        store.insert(Entity::new("b", SourceKind::Web, "poison pill")); // shard 1
        store.insert(Entity::new("c", SourceKind::Web, "fine")); // shard 0
        store.insert(Entity::new("d", SourceKind::Web, "fine")); // shard 1
        let pipeline = MinerPipeline::new().add(Box::new(PanicMiner));
        for batch in [1, 4] {
            let stats = run_batch(&pipeline, &store, batch);
            assert_eq!(stats.skipped_shards, 1, "crashed shard abandoned");
            assert_eq!(stats.processed + stats.failed, store.len());
            assert_eq!(stats.processed, 2, "healthy shard unaffected");
            assert_eq!(stats.failed, 2, "crashed shard counted failed");
        }
    }

    #[test]
    fn crashed_shard_span_keeps_accrued_time_and_panicked_event() {
        let store = DataStore::new(2).unwrap();
        store.insert(Entity::new("a", SourceKind::Web, "fine")); // doc 0, shard 0
        store.insert(Entity::new("b", SourceKind::Web, "fine")); // doc 1, shard 1
        store.insert(Entity::new("c", SourceKind::Web, "fine")); // doc 2, shard 0
        store.insert(Entity::new("d", SourceKind::Web, "poison pill")); // doc 3, shard 1
        let plan = FaultPlan::new(7); // zero fault rates, 1 sim-ms per op
        let opts = RunOpts {
            batch: 1,
            faults: FaultContext {
                plan: Some(&plan),
                retry: RetryPolicy::default(),
                health: &[],
            },
        };
        let stats = MinerPipeline::new()
            .add(Box::new(PanicMiner))
            .run(&store, opts, None);
        assert_eq!(stats.skipped_shards, 1);
        // the crashed shard mined doc 1 (1 ms) and reached doc 3 (1 ms)
        // before the panic: that time must not be lost
        assert_eq!(stats.shard_sim_ms, vec![2, 2]);

        let traces = store.telemetry().recorder().last_traces(1);
        assert_eq!(traces.len(), 1);
        let root = &traces[0].1[0];
        assert_eq!(root.name, "pipeline.run");
        let crashed = root.find("pipeline.run/shard:1").expect("shard:1 span");
        assert_eq!(crashed.duration_sim_ms, 2, "accrued sim time survives");
        assert!(
            crashed.events.iter().any(|e| e.label == "panicked"),
            "crash marked on the span: {:?}",
            crashed.events
        );
        // the fetch that fed the crashing chain is in the trace; the
        // write-back it never reached is not
        assert!(root.find("shard:1/store.get:3").is_some());
        assert!(root.find("shard:1/store.update:3").is_none());
    }

    #[test]
    fn traced_run_nests_under_parent_and_advances_its_clock() {
        let store = seeded_store(3, 9);
        let tele = store.telemetry().clone();
        let plan = FaultPlan::new(11);
        let opts = RunOpts {
            batch: 1,
            faults: FaultContext {
                plan: Some(&plan),
                retry: RetryPolicy::default(),
                health: &[],
            },
        };
        let mut op = tele.trace_root("op");
        let stats = MinerPipeline::new()
            .add(Box::new(Tagger))
            .run(&store, opts, Some(&mut op));
        let elapsed = op.elapsed_sim_ms();
        op.finish();
        assert_eq!(stats.processed, 9);
        // parallel shards: the run costs as much as its slowest shard
        let slowest = *stats.shard_sim_ms.iter().max().unwrap();
        assert_eq!(elapsed, slowest);
        let traces = tele.recorder().last_traces(1);
        let run = traces[0].1[0]
            .find("op/pipeline.run")
            .expect("pipeline.run");
        assert_eq!(run.duration_sim_ms, slowest);
        assert_eq!(
            run.children.len(),
            3,
            "one span per shard: {:?}",
            run.children.iter().map(|c| &c.name).collect::<Vec<_>>()
        );
        for (shard, child) in run.children.iter().enumerate() {
            assert_eq!(child.name, format!("shard:{shard}"));
            assert_eq!(child.duration_sim_ms, stats.shard_sim_ms[shard]);
            assert_eq!(child.start_sim_ms, run.start_sim_ms, "forked together");
        }
    }
}
