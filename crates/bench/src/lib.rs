//! Benchmark crate: every target under `benches/` writes one
//! `artifacts/BENCH_*.json` that `tools/bench_gate.py` checks.
//!
//! Run with `cargo bench -p wf-bench`.
//!
//! The serving, profile and evlog benches share one setup, below: the
//! serving corpus mined on a 4-node cluster and served from its sharded
//! sentiment index under one [`ServingConfig`].

use std::time::Instant;
use wf_platform::{Cluster, Ingestor, MinerPipeline, RawDocument, ServingConfig, SourceKind};
use wf_sentiment::{AdhocSentimentMiner, SentimentServingBackend, ShardedSentimentIndex};

/// Documents in the serving corpus.
pub const DOCS: usize = 96;
/// Simulated cluster nodes (and sentiment-index shards).
pub const NODES: usize = 4;
/// Seed of the serve loop's arrival and request streams.
pub const SEED: u64 = 20050405;

/// The mined cluster and the backend serving its sentiment index, with
/// the wall time of each setup phase.
pub struct ServingSetup {
    pub cluster: Cluster,
    pub backend: SentimentServingBackend,
    /// Ingest plus the `AdhocSentimentMiner` pass, in microseconds.
    pub mine_us: u64,
    /// Sentiment-index build, in microseconds.
    pub index_us: u64,
}

/// Ingests [`wf_corpus::serving_corpus`] into a fresh cluster, mines it
/// with [`AdhocSentimentMiner`] and builds the serving backend.
pub fn serving_setup() -> ServingSetup {
    let cluster = Cluster::new(NODES).expect("nonzero cluster");
    let t = Instant::now();
    let raw: Vec<RawDocument> = wf_corpus::serving_corpus(DOCS)
        .into_iter()
        .enumerate()
        .map(|(i, text)| RawDocument::new(format!("bench://serving/{i}"), SourceKind::Web, text))
        .collect();
    Ingestor::new(cluster.store()).ingest_batch(raw);
    let pipeline = MinerPipeline::new().add(Box::new(AdhocSentimentMiner::new()));
    cluster.run_pipeline(&pipeline);
    let mine_us = t.elapsed().as_micros() as u64;

    let t = Instant::now();
    let backend =
        SentimentServingBackend::new(ShardedSentimentIndex::build_from_store(cluster.store()));
    let index_us = t.elapsed().as_micros() as u64;
    ServingSetup {
        cluster,
        backend,
        mine_us,
        index_us,
    }
}

/// The serve loop's configuration: 16 clients offering 500 QPS for 1200
/// requests through a 32-entry cache and a 24-deep admission queue.
pub fn serving_config() -> ServingConfig {
    ServingConfig {
        seed: SEED,
        clients: 16,
        qps: 500,
        requests: 1200,
        cache_capacity: 32,
        queue_capacity: 24,
        ..ServingConfig::default()
    }
}
