//! Durability benchmark: WAL-logged ingest + mining, a full checkpoint,
//! a read-only replay of every shard, and a crash/restart of one node,
//! exporting `artifacts/BENCH_durable.json`.
//!
//! The deterministic keys (records appended/replayed, WAL/snapshot
//! bytes, LSNs, recovery sim-ms) are regression sentinels for
//! `tools/bench_gate.py`; the `*_wall_us` keys get a tolerance and
//! bound the real cost of running the store durably.
//!
//! Run with `cargo bench -p wf-bench --bench durable`.

use std::sync::Arc;
use std::time::Instant;
use wf_bench::{NODES, SEED};
use wf_platform::{Cluster, DurableStorage, Ingestor, MinerPipeline, RawDocument, SourceKind};
use wf_sentiment::AdhocSentimentMiner;
use wf_types::NodeId;

const DOCS: usize = 480;

fn corpus() -> Vec<RawDocument> {
    wf_corpus::serving_corpus(DOCS)
        .into_iter()
        .enumerate()
        .map(|(i, text)| RawDocument::new(format!("bench://durable/{i}"), SourceKind::Web, text))
        .collect()
}

fn main() {
    let cluster = Cluster::new(NODES).unwrap();
    let storage = Arc::new(DurableStorage::in_memory(NODES).unwrap());
    cluster.attach_durability(Arc::clone(&storage)).unwrap();

    // WAL-logged ingest
    let t = Instant::now();
    Ingestor::new(cluster.store()).ingest_batch(corpus());
    let ingest_us = t.elapsed().as_micros() as u64;

    // full checkpoint: snapshot every shard, truncate its WAL
    let t = Instant::now();
    let snapshots = cluster.checkpoint().unwrap();
    let checkpoint_us = t.elapsed().as_micros() as u64;
    let snapshot_bytes: u64 = snapshots.iter().map(|s| s.snapshot_bytes).sum();

    // WAL-logged mining wave: every annotation update hits the log
    let pipeline = MinerPipeline::new().add(Box::new(AdhocSentimentMiner::new()));
    let t = Instant::now();
    let stats = cluster.run_pipeline(&pipeline);
    let mine_us = t.elapsed().as_micros() as u64;
    assert_eq!(stats.processed, DOCS);
    let wal_bytes: u64 = (0..NODES as u32).map(|s| storage.wal_bytes(s)).sum();
    let last_lsn_total: u64 = (0..NODES as u32)
        .map(|s| storage.next_lsn(s).saturating_sub(1))
        .sum();

    // read-only replay of every shard (the `wfsm recover` path)
    let t = Instant::now();
    let mut replayed = 0u64;
    let mut recovered = 0u64;
    for shard in 0..NODES as u32 {
        let recovery = storage.recover_shard(shard).unwrap();
        replayed += recovery.stats.replayed;
        recovered += recovery.stats.recovered_entities;
    }
    let replay_us = t.elapsed().as_micros() as u64;

    // crash node 2 and restart it from snapshot + WAL
    let lost = cluster.drop_node_state(NodeId(2));
    let t = Instant::now();
    let restart = cluster.restart_node(NodeId(2)).unwrap();
    let restart_us = t.elapsed().as_micros() as u64;
    assert_eq!(restart.reindexed, lost);

    let snap = cluster.metrics_snapshot();

    let mut out = std::collections::BTreeMap::new();
    out.insert("bench".to_string(), serde_json::Value::from("durable"));
    out.insert("docs".to_string(), serde_json::Value::from(DOCS as u64));
    out.insert("nodes".to_string(), serde_json::Value::from(NODES as u64));
    out.insert("seed".to_string(), serde_json::Value::from(SEED));
    out.insert(
        "records_appended".to_string(),
        serde_json::Value::from(snap.counter("durable.records_appended")),
    );
    out.insert(
        "fsync_points".to_string(),
        serde_json::Value::from(snap.counter("durable.fsyncs")),
    );
    out.insert(
        "snapshot_bytes".to_string(),
        serde_json::Value::from(snapshot_bytes),
    );
    out.insert("wal_bytes".to_string(), serde_json::Value::from(wal_bytes));
    out.insert(
        "last_lsn_total".to_string(),
        serde_json::Value::from(last_lsn_total),
    );
    out.insert(
        "records_replayed".to_string(),
        serde_json::Value::from(replayed),
    );
    out.insert(
        "recovered_entities".to_string(),
        serde_json::Value::from(recovered),
    );
    out.insert(
        "restart_reindexed".to_string(),
        serde_json::Value::from(restart.reindexed as u64),
    );
    out.insert(
        "restart_replayed".to_string(),
        serde_json::Value::from(restart.stats.replayed),
    );
    out.insert(
        "restart_sim_ms".to_string(),
        serde_json::Value::from(restart.sim_ms),
    );
    out.insert(
        "ingest_wall_us".to_string(),
        serde_json::Value::from(ingest_us),
    );
    out.insert(
        "checkpoint_wall_us".to_string(),
        serde_json::Value::from(checkpoint_us),
    );
    out.insert("mine_wall_us".to_string(), serde_json::Value::from(mine_us));
    out.insert(
        "replay_wall_us".to_string(),
        serde_json::Value::from(replay_us),
    );
    out.insert(
        "restart_wall_us".to_string(),
        serde_json::Value::from(restart_us),
    );
    let rendered = serde_json::to_string_pretty(&serde_json::Value::Object(out))
        .expect("report renders infallibly");

    let artifacts = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../artifacts");
    std::fs::create_dir_all(&artifacts).expect("create artifacts dir");
    let path = artifacts.join("BENCH_durable.json");
    std::fs::write(&path, rendered + "\n").expect("write bench artifact");

    println!(
        "durable bench: {} records appended ({} WAL + {} snapshot bytes), \
         {} replayed / {} recovered; ingest {ingest_us} us, checkpoint \
         {checkpoint_us} us, mine {mine_us} us, replay {replay_us} us, \
         restart {restart_us} us ({} sim-ms); wrote {}",
        snap.counter("durable.records_appended"),
        wal_bytes,
        snapshot_bytes,
        replayed,
        recovered,
        restart.sim_ms,
        path.display()
    );
}
