//! Acceptance suite for the durable layer (`wf_platform::durable` +
//! the cluster crash/restart lifecycle).
//!
//! Locks down the PR's guarantees end to end:
//!
//! 1. **Crash convergence** — with a pinned seed, killing a node
//!    mid-workload and restarting it from snapshot + WAL replay
//!    converges byte-identically with the uninterrupted same-seed run:
//!    same store bytes, same inverted-index query results, same
//!    sentiment-index postings — and the telemetry conservation laws
//!    hold across the restart.
//! 2. **Mid-serve crash** — the serve loop keeps its conservation law
//!    (`requests == ok + shed + errors`) while a node crashes and
//!    restarts mid-stream, deterministically.
//! 3. **Replay idempotency** (property) — recovering a shard any number
//!    of times from the same durable state yields byte-identical
//!    entities, reproduces the live store exactly, and a rebuilt index
//!    answers queries with identical results and identical
//!    `index.postings_scanned` work.
//! 4. **Corruption handling** — torn tails, flipped CRCs, and truncated
//!    snapshots (pinned seeds) stop replay at exactly the last valid
//!    record, and the node still restarts with the surviving prefix.
//! 5. **Golden recovery report** — the `wfsm recover`-style JSON report
//!    of a pinned corruption scenario matches a checked-in golden byte
//!    for byte (`UPDATE_GOLDEN=1` regens).

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use wf_platform::{
    crc32, parse_query, Annotation, Cluster, CorruptionKind, DataStore, DurableStorage, Entity,
    EntityEdit, EntityMiner, FaultPlan, Indexer, Ingestor, MinerPipeline, NodeHealth, RawDocument,
    RunOpts, ServeLoop, ServingConfig, SourceKind, StopReason, Telemetry, WAL_HEADER_BYTES,
};
use wf_sentiment::{AdhocSentimentMiner, SentimentServingBackend, ShardedSentimentIndex};
use wf_types::{DocId, NodeId, Polarity, Result as WfResult, Span};

const SEED: u64 = 20050405;

/// Deterministic corpus: capitalized subjects the ad-hoc miner spots,
/// cycling through clearly positive / negative / neutral phrasings.
fn corpus(n: usize) -> Vec<RawDocument> {
    let subjects = ["Alpha", "Beta", "Gamma", "Delta"];
    let moods = [
        "takes excellent pictures",
        "is absolutely terrible",
        "shipped on a Tuesday",
    ];
    (0..n)
        .map(|i| {
            RawDocument::new(
                format!("durable://doc{i}"),
                SourceKind::Web,
                format!("{} {}.", subjects[i % 4], moods[i % 3]),
            )
        })
        .collect()
}

/// Canonical bytes of a store: every entity as shim-JSON (sorted keys),
/// one per line, ascending id — the convergence currency of this suite.
fn store_bytes(store: &DataStore) -> String {
    let mut entities: Vec<Entity> = Vec::new();
    store.for_each(|e| entities.push(e.clone()));
    entities.sort_by_key(|e| e.id.0);
    entities
        .iter()
        .map(|e| serde_json::to_value(e).unwrap().to_json_string())
        .collect::<Vec<_>>()
        .join("\n")
}

/// Canonical bytes of a sentiment index: every subject's merged
/// postings in merge order, each with the trimmed sentence it locates in
/// `store`.
fn sindex_bytes(index: &ShardedSentimentIndex, store: &DataStore) -> String {
    let mut out = String::new();
    for subject in index.subjects() {
        for p in index.merged_postings(&subject) {
            let sentence = store
                .read(p.doc, |e| p.sentence_span.slice(&e.text).trim().to_string())
                .unwrap();
            out.push_str(&format!(
                "{subject} {} {} {}..{} {sentence}\n",
                p.doc.0, p.polarity, p.sentence_span.start, p.sentence_span.end
            ));
        }
    }
    out
}

/// Second-wave miner: stamps metadata so the post-restart pipeline run
/// writes fresh WAL updates through the recovered shard.
struct StampMiner;
impl EntityMiner for StampMiner {
    fn name(&self) -> &str {
        "stamp"
    }
    fn process(&self, entity: &mut EntityEdit<'_>) -> WfResult<()> {
        let stamp = entity.text.len().to_string();
        entity.metadata.insert("stamp".into(), stamp);
        Ok(())
    }
}

/// The pinned scenario behind the convergence tests: a 4-node durable
/// cluster, ingest + checkpoint, a chaotic sentiment wave, an optional
/// crash/restart of node 2, a second mining wave, and a full reindex.
fn run_scenario(crash: bool) -> (Cluster, ShardedSentimentIndex, usize) {
    let cluster = Cluster::new(4).unwrap();
    cluster
        .attach_durability(Arc::new(DurableStorage::in_memory(4).unwrap()))
        .unwrap();
    Ingestor::new(cluster.store()).ingest_batch(corpus(24));
    cluster.checkpoint().unwrap();
    cluster.set_fault_plan(Some(FaultPlan::uniform(SEED, 0.1)));

    let wave1 = MinerPipeline::new().add(Box::new(AdhocSentimentMiner::new()));
    let stats = cluster.run_pipeline(&wave1);
    assert_eq!(stats.processed + stats.failed, 24);
    let mut index = ShardedSentimentIndex::build_from_store(cluster.store());

    let mut lost = 0;
    if crash {
        lost = cluster.drop_node_state(NodeId(2));
        assert!(lost > 0, "shard 2 should hold entities");
        // the co-located sentiment shard dies with the node…
        index.clear_shard(2);
        let mut recovered: Vec<Entity> = Vec::new();
        let restart = cluster
            .restart_node_with(NodeId(2), |e| recovered.push(e.clone()))
            .unwrap();
        // …and is rebuilt incrementally from the replayed entities
        index.rebuild_shard(2, &recovered);
        assert_eq!(restart.reindexed, lost, "replay restores every entity");
        assert_eq!(restart.stats.stop, StopReason::EndOfLog);
        assert!(restart.sim_ms > 0, "recovery consumes simulated time");
    }

    let wave2 = MinerPipeline::new().add(Box::new(StampMiner));
    cluster.run_pipeline(&wave2);
    cluster.rebuild_index();
    (cluster, index, lost)
}

/// Guarantee 1: the crashed-and-restarted run converges byte-identically
/// with the uninterrupted same-seed run, across all three state layers.
#[test]
fn crash_restart_converges_with_uninterrupted_run() {
    let (clean, clean_index, _) = run_scenario(false);
    let (crashed, crashed_index, lost) = run_scenario(true);

    // store layer: byte-identical canonical entities
    assert_eq!(
        store_bytes(clean.store()),
        store_bytes(crashed.store()),
        "store must converge after crash + replay"
    );

    // inverted-index layer: identical results and identical work
    for text in [
        "excellent",
        "excellent AND NOT terrible",
        "\"excellent pictures\"",
        "regex:terr.*",
    ] {
        let query = parse_query(text).unwrap();
        let (docs_a, prof_a) = clean.indexer().query_explained(&query, None).unwrap();
        let (docs_b, prof_b) = crashed.indexer().query_explained(&query, None).unwrap();
        assert_eq!(docs_a, docs_b, "query {text:?} diverged");
        assert_eq!(
            prof_a.total_scanned(),
            prof_b.total_scanned(),
            "query {text:?} scanned different postings"
        );
    }

    // sentiment-index layer: identical postings and rankings
    assert_eq!(
        sindex_bytes(&clean_index, clean.store()),
        sindex_bytes(&crashed_index, crashed.store())
    );
    for polarity in [Polarity::Positive, Polarity::Negative, Polarity::Neutral] {
        assert_eq!(
            clean_index.top_k(3, polarity),
            crashed_index.top_k(3, polarity)
        );
    }

    // conservation laws on the crashed run's telemetry
    let snap = crashed.metrics_snapshot();
    assert_eq!(snap.gauge("store.entities"), 24);
    assert_eq!(snap.counter("cluster.node_crashes"), 1);
    assert_eq!(snap.counter("cluster.node_restarts"), 1);
    assert_eq!(snap.counter("durable.recovered_entities"), lost as u64);
    assert!(snap.counter("durable.recovery_sim_ms") > 0);
    assert!(snap.counter("durable.records_appended") >= snap.counter("durable.records_replayed"));

    // the restart left a trace for `wfsm profile` to attribute
    let traces = crashed.telemetry().recorder().last_traces(16);
    let restart_root = traces
        .iter()
        .flat_map(|(_, roots)| roots)
        .find(|t| t.name == "cluster.restart_node")
        .expect("restart recorded as a trace");
    assert!(restart_root
        .find("cluster.restart_node/recover.replay")
        .is_some());
    assert!(restart_root
        .find("cluster.restart_node/recover.rebuild")
        .is_some());
}

/// Guarantee 2: a crash + restart *mid-serve* keeps every serving
/// conservation law, converges the store, and is deterministic.
#[test]
fn mid_serve_crash_restart_conserves_and_converges() {
    let serve_run = |crash: bool| {
        let cluster = Cluster::new(4).unwrap();
        cluster
            .attach_durability(Arc::new(DurableStorage::in_memory(4).unwrap()))
            .unwrap();
        Ingestor::new(cluster.store()).ingest_batch(corpus(24));
        cluster.checkpoint().unwrap();
        let wave = MinerPipeline::new().add(Box::new(AdhocSentimentMiner::new()));
        cluster.run_pipeline(&wave);
        let backend =
            SentimentServingBackend::new(ShardedSentimentIndex::build_from_store(cluster.store()));
        let workload = vec![
            "sentiment of alpha".to_string(),
            "sentiment of beta".to_string(),
            "top 2 +".to_string(),
            "sentiment of zorblax".to_string(),
        ];
        let config = ServingConfig {
            seed: SEED,
            clients: 4,
            qps: 400,
            requests: 120,
            cache_capacity: 8,
            queue_capacity: 16,
            ..ServingConfig::default()
        };
        let mut serve_loop =
            ServeLoop::new(&backend, Arc::clone(cluster.telemetry()), config, workload)
                .with_fault_plan(FaultPlan::uniform(SEED, 0.1));
        if crash {
            serve_loop = serve_loop
                .with_trigger(40, || {
                    backend.set_shard_health(2, NodeHealth::Down);
                    cluster.drop_node_state(NodeId(2));
                })
                .with_trigger(80, || {
                    cluster.restart_node(NodeId(2)).unwrap();
                    backend.set_shard_health(2, NodeHealth::Up);
                });
        }
        let report = serve_loop.run().unwrap();
        let bytes = store_bytes(cluster.store());
        let snap = cluster.metrics_snapshot();
        (report, bytes, snap)
    };

    let (report, crashed_bytes, snap) = serve_run(true);
    assert_eq!(report.requests, report.ok + report.shed + report.errors);
    assert_eq!(
        snap.counter("serving.requests"),
        snap.counter("serving.ok") + snap.counter("serving.shed") + snap.counter("serving.errors"),
    );
    assert_eq!(snap.counter("cluster.node_crashes"), 1);
    assert_eq!(snap.counter("cluster.node_restarts"), 1);

    // the restarted store converges with a run that never crashed
    let (_, clean_bytes, _) = serve_run(false);
    assert_eq!(crashed_bytes, clean_bytes);

    // and the whole crash-mid-serve trajectory is deterministic
    let (report_b, bytes_b, _) = serve_run(true);
    assert_eq!(report.to_json_string(), report_b.to_json_string());
    assert_eq!(crashed_bytes, bytes_b);
}

const SUBJECTS: [&str; 4] = ["alpha", "beta", "gamma", "delta"];
const POLARITIES: [Polarity; 3] = [Polarity::Positive, Polarity::Negative, Polarity::Neutral];

/// Directly-annotated entity fixture (no NLP), as in the serving suite.
fn marked_entity(i: usize, mark: usize) -> Entity {
    let subject = SUBJECTS[mark % 4];
    let polarity = POLARITIES[(mark / 4) % 3];
    let text = format!("document {i} mentions {subject} here");
    let mut entity = Entity::new(format!("test://durable/{i}"), SourceKind::Web, &text);
    entity.annotations.push(
        Annotation::new("sentiment", Span::new(0, text.len()))
            .with_attr("subject", subject.to_string())
            .with_attr("polarity", polarity.to_string()),
    );
    entity
}

proptest! {
    /// Guarantee 3: replaying the same durable state any number of times
    /// is idempotent — byte-identical entities that reproduce the live
    /// store, and a rebuilt index that does identical query work.
    #[test]
    fn wal_replay_is_idempotent(
        marks in prop::collection::vec(0usize..12, 1..24),
        ops in prop::collection::vec(0usize..48, 0..10),
        checkpoint_coin in 0usize..2,
    ) {
        let checkpoint = checkpoint_coin == 1;
        let store = DataStore::new(4).unwrap();
        let storage = Arc::new(DurableStorage::in_memory(4).unwrap());
        store.attach_durability(Arc::clone(&storage)).unwrap();
        let ids: Vec<DocId> = marks
            .iter()
            .enumerate()
            .map(|(i, &mark)| store.insert(marked_entity(i, mark)))
            .collect();
        if checkpoint {
            storage.checkpoint(&store).unwrap();
        }
        // a mixed tail of updates and deletes lands in the WAL
        for &op in &ops {
            let id = ids[op % ids.len()];
            if op % 3 == 0 {
                store.delete(id);
            } else {
                let _ = store.update(id, |e| {
                    e.metadata.insert("touch".into(), op.to_string());
                });
            }
        }

        let recovered_store = |()| {
            let (fresh, report) = storage.recover_store().unwrap();
            assert!(report.shards.iter().all(|s| s.stop == StopReason::EndOfLog));
            fresh
        };
        let (first, second) = (recovered_store(()), recovered_store(()));
        prop_assert_eq!(store_bytes(&first), store_bytes(&second));
        prop_assert_eq!(store_bytes(&first), store_bytes(&store));

        // identical query results *and* identical postings-scanned work
        let query = parse_query("mentions").unwrap();
        let indexed = |s: &DataStore| {
            let telemetry = Telemetry::new();
            let indexer = Indexer::with_telemetry(Arc::clone(&telemetry));
            s.for_each(|e| indexer.index_entity(e));
            let (docs, profile) = indexer.query_explained(&query, None).unwrap();
            (docs, profile.total_scanned())
        };
        let (docs_a, scanned_a) = indexed(&first);
        let (docs_b, scanned_b) = indexed(&second);
        prop_assert_eq!(docs_a, docs_b);
        prop_assert_eq!(scanned_a, scanned_b);
    }
}

/// A durable cluster with a populated WAL tail: ingest, checkpoint,
/// then a mining wave whose updates follow the snapshot in the log.
fn durable_cluster() -> (Cluster, Arc<DurableStorage>) {
    durable_cluster_on(DurableStorage::in_memory(4).unwrap())
}

/// [`durable_cluster`] over a given 4-shard storage.
fn durable_cluster_on(storage: DurableStorage) -> (Cluster, Arc<DurableStorage>) {
    let cluster = Cluster::new(4).unwrap();
    let storage = Arc::new(storage);
    cluster.attach_durability(Arc::clone(&storage)).unwrap();
    Ingestor::new(cluster.store()).ingest_batch(corpus(16));
    cluster.checkpoint().unwrap();
    let wave = MinerPipeline::new().add(Box::new(AdhocSentimentMiner::new()));
    cluster.run_pipeline(&wave);
    (cluster, storage)
}

/// Guarantee 4a: a torn WAL tail (pinned seed) stops replay at exactly
/// the record before the victim, and the node restarts on the prefix.
#[test]
fn torn_tail_restart_stops_at_exact_lsn() {
    let (cluster, storage) = durable_cluster();
    let mut stream = FaultPlan::new(99).stream("durable:2");
    let outcome = storage
        .inject_corruption(2, CorruptionKind::TornTail, &mut stream)
        .unwrap();
    let victim = outcome.victim_lsn.expect("torn frame has an LSN");
    cluster.drop_node_state(NodeId(2));
    let restart = cluster.restart_node(NodeId(2)).unwrap();
    assert_eq!(restart.stats.stop, StopReason::TornTail);
    assert_eq!(restart.stats.last_lsn, victim - 1);
    assert!(restart.stats.truncated_bytes > 0);
    // the node is back up and the shard holds the surviving prefix
    assert_eq!(cluster.health_of(NodeId(2)), NodeHealth::Up);
    assert_eq!(
        cluster.store().shard_ids(NodeId(2)).len(),
        restart.reindexed
    );
}

/// Guarantee 4b: a flipped payload byte (pinned seed) fails the CRC and
/// stops replay at exactly the record before the victim.
#[test]
fn bad_crc_restart_stops_at_exact_lsn() {
    let (cluster, storage) = durable_cluster();
    let mut stream = FaultPlan::new(7).stream("durable:1");
    let outcome = storage
        .inject_corruption(1, CorruptionKind::BadCrc, &mut stream)
        .unwrap();
    let victim = outcome.victim_lsn.expect("corrupted frame has an LSN");
    cluster.drop_node_state(NodeId(1));
    let restart = cluster.restart_node(NodeId(1)).unwrap();
    assert_eq!(restart.stats.stop, StopReason::BadCrc);
    assert_eq!(restart.stats.last_lsn, victim - 1);
    assert!(restart.stats.truncated_records > 0);
}

/// Guarantee 4c: a truncated snapshot (pinned seed) keeps its valid
/// prefix, and the WAL replays on top of it up to the first annotate
/// record of a document the snapshot lost. That record cannot apply (it
/// holds no text), so replay stops there with `bad_payload`.
#[test]
fn truncated_snapshot_restart_recovers_valid_prefix() {
    let (cluster, storage) = durable_cluster();
    let declared = cluster.store().shard_ids(NodeId(3)).len() as u64;
    let mut stream = FaultPlan::new(11).stream("durable:3");
    let outcome = storage
        .inject_corruption(3, CorruptionKind::TruncatedSnapshot, &mut stream)
        .unwrap();
    assert!(outcome.victim_lsn.is_none(), "snapshot damage has no LSN");
    cluster.drop_node_state(NodeId(3));
    let restart = cluster.restart_node(NodeId(3)).unwrap();
    assert!(restart.stats.snapshot_truncated);
    assert_eq!(restart.stats.snapshot_declared, declared);
    let kept = restart.stats.snapshot_entities;
    assert!(kept < declared);
    // the wave annotated the shard's documents in id order, as the
    // snapshot lists them: the kept ones replay, the next one stops
    assert_eq!(restart.stats.stop, StopReason::BadPayload);
    assert_eq!(restart.stats.last_lsn, restart.stats.snapshot_lsn + kept);
    assert_eq!(restart.stats.replayed, kept);
    assert_eq!(restart.reindexed as u64, kept);
    assert_eq!(cluster.health_of(NodeId(3)), NodeHealth::Up);
}

/// Guarantee 5: the recovery report of the pinned bad-CRC scenario
/// matches the checked-in golden byte for byte. `UPDATE_GOLDEN=1`
/// regenerates.
#[test]
fn recovery_report_matches_golden() {
    let (_cluster, storage) = durable_cluster();
    let mut stream = FaultPlan::new(7).stream("durable:1");
    storage
        .inject_corruption(1, CorruptionKind::BadCrc, &mut stream)
        .unwrap();
    let report = storage.recovery_report().unwrap().to_json_string();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/recovery_report.json"
    );
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, &report).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(path).expect("golden exists; UPDATE_GOLDEN=1 to create");
    assert_eq!(
        report, golden,
        "recovery report drifted from golden; UPDATE_GOLDEN=1 to regen"
    );
}

/// A fresh, empty directory for one test's data dir.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wf-durable-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// `[len u32 LE][crc32 u32 LE][payload]`, the WAL framing.
fn frame(payload: &str) -> Vec<u8> {
    let mut out = (payload.len() as u32).to_le_bytes().to_vec();
    out.extend(crc32(payload.as_bytes()).to_le_bytes());
    out.extend(payload.as_bytes());
    out
}

/// The JSON payloads of one shard's WAL file, in order.
fn wal_payloads(dir: &Path, shard: usize) -> Vec<serde_json::Value> {
    let bytes = std::fs::read(dir.join(format!("shard-{shard:03}")).join("wal.log")).unwrap();
    let mut payloads = Vec::new();
    let mut at = 0;
    while at < bytes.len() {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        let payload = &bytes[at + WAL_HEADER_BYTES..at + WAL_HEADER_BYTES + len];
        payloads.push(serde_json::from_str(std::str::from_utf8(payload).unwrap()).unwrap());
        at += WAL_HEADER_BYTES + len;
    }
    payloads
}

/// A data dir written before updates logged only annotations and
/// metadata holds `update` frames that carry the whole entity. Replay
/// does not read them: the first one stops it with `bad_payload` at its
/// LSN, and the shard answers from the records before it.
#[test]
fn old_update_frame_stops_replay_at_its_lsn() {
    let dir = scratch_dir("old-update");
    let store = DataStore::new(1).unwrap();
    let storage = Arc::new(DurableStorage::at_dir(&dir, 1).unwrap());
    store.attach_durability(Arc::clone(&storage)).unwrap();
    let id = store.insert(marked_entity(0, 0));
    store.insert(marked_entity(1, 5));
    let before: Vec<Entity> = store
        .ids()
        .iter()
        .map(|&id| store.get(id).unwrap())
        .collect();
    let valid = storage.wal_bytes(0);

    let mut updated = store.get(id).unwrap();
    updated.version = 2;
    updated.metadata.insert("stamp".into(), "old".into());
    let old = format!(
        r#"{{"entity":{},"lsn":3,"op":"update","sim_ms":0}}"#,
        serde_json::to_string(&updated).unwrap()
    );
    let tail = [
        frame(&old),
        frame(r#"{"doc":1,"lsn":4,"op":"delete","sim_ms":0}"#),
    ]
    .concat();
    let wal = dir.join("shard-000").join("wal.log");
    let mut bytes = std::fs::read(&wal).unwrap();
    bytes.extend(&tail);
    std::fs::write(&wal, bytes).unwrap();

    let recovery = DurableStorage::open_dir(&dir)
        .unwrap()
        .recover_shard(0)
        .unwrap();
    assert_eq!(recovery.stats.stop, StopReason::BadPayload);
    assert_eq!(recovery.stats.last_lsn, 2, "stops at the old frame, LSN 3");
    assert_eq!(recovery.stats.valid_wal_bytes, valid);
    assert_eq!(recovery.stats.truncated_bytes, tail.len() as u64);
    assert_eq!(recovery.stats.truncated_records, 2);
    assert_eq!(recovery.entities, before, "nothing misapplied");
    std::fs::remove_dir_all(&dir).ok();
}

/// An update logs what it changed, annotations and metadata, and never
/// the document text it only read.
#[test]
fn update_records_carry_no_document_text() {
    let dir = scratch_dir("no-text");
    let (cluster, _storage) = durable_cluster_on(DurableStorage::at_dir(&dir, 4).unwrap());
    let mut texts = Vec::new();
    cluster.store().for_each(|e| texts.push(e.text.clone()));
    let mut updates = 0;
    for shard in 0..4 {
        for payload in wal_payloads(&dir, shard) {
            let op = payload["op"].as_str().unwrap().to_string();
            assert_ne!(op, "insert", "ingest records precede the checkpoint");
            if op == "fsync" {
                continue;
            }
            let json = payload.to_json_string();
            for text in &texts {
                assert!(!json.contains(text.as_str()), "{json} holds {text:?}");
            }
            assert_eq!(op, "annotate");
            updates += 1;
        }
    }
    assert_eq!(updates, 16, "one record per mined document");
    std::fs::remove_dir_all(&dir).ok();
}

/// Panics on a document holding "poison".
struct PoisonMiner;
impl EntityMiner for PoisonMiner {
    fn name(&self) -> &str {
        "poison"
    }
    fn process(&self, entity: &mut EntityEdit<'_>) -> WfResult<()> {
        assert!(!entity.text.contains("poison"), "poisoned");
        Ok(())
    }
}

/// A chain that panics mid-chunk writes nothing for that chunk: its
/// stored entities keep their annotations, metadata and version, and
/// the WAL gains only the earlier chunk's records.
#[test]
fn panicking_chain_leaves_its_chunk_and_the_wal_untouched() {
    let store = DataStore::new(1).unwrap();
    let storage = Arc::new(DurableStorage::in_memory(1).unwrap());
    store.attach_durability(Arc::clone(&storage)).unwrap();
    for i in 0..8 {
        let mut entity = marked_entity(i, i);
        if i == 6 {
            entity = Entity::new("test://poison", SourceKind::Web, "poison");
        }
        store.insert(entity.with_metadata("stamp", "ingest"));
    }
    let before: Vec<Entity> = store
        .ids()
        .iter()
        .map(|&id| store.get(id).unwrap())
        .collect();
    let next_lsn = storage.next_lsn(0);

    // chunk [0, 4) is mined and written; chunk [4, 8) stamps docs 4
    // and 5, then panics on doc 6
    let chain = MinerPipeline::new()
        .add(Box::new(StampMiner))
        .add(Box::new(PoisonMiner));
    let opts = RunOpts {
        batch: 4,
        ..RunOpts::default()
    };
    let stats = chain.run(&store, opts, None);
    assert_eq!((stats.skipped_shards, stats.failed), (1, 8));

    for (i, old) in before.iter().enumerate() {
        let now = store.get(old.id).unwrap();
        if i < 4 {
            assert_eq!(now.version, old.version + 1, "doc {i}");
            assert_ne!(now.metadata["stamp"], "ingest", "doc {i}");
        } else {
            assert_eq!(&now, old, "doc {i} of the crashed chunk");
        }
    }
    assert_eq!(
        storage.next_lsn(0),
        next_lsn + 4,
        "one record per written doc"
    );
    let (recovered, report) = storage.recover_store().unwrap();
    assert!(report.clean());
    assert_eq!(store_bytes(&recovered), store_bytes(&store));
}
