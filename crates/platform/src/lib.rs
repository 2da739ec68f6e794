//! A laptop-scale simulation of the WebFountain text-analytics platform.
//!
//! WebFountain (Gruhl et al., IBM Systems Journal 2004) is the substrate
//! the paper's sentiment miner runs on: a shared-nothing cluster that
//! crawls, stores, mines and indexes billions of documents. This crate
//! reproduces its component architecture in-process:
//!
//! - [`entity`]: XML-representable entities with miner annotations;
//! - [`store`]: the sharded data store;
//! - [`index`]: the indexer — text tokens, conceptual tokens, metadata;
//!   boolean / phrase / range / regex queries ([`regex`] is a from-scratch
//!   engine);
//! - [`miner`]: entity-level and corpus-level miner traits plus the
//!   parallel pipeline runner;
//! - [`vinci`]: the Vinci-style service bus;
//! - [`ingest`]: crawler/ingestor normalization into the store;
//! - [`cluster`]: the cluster manager binding it all together;
//! - [`faults`]: deterministic fault injection (node outages, slow calls,
//!   update conflicts) with retry/backoff on a simulated clock;
//! - [`durable`]: the durable layer under the store — a CRC-framed
//!   write-ahead log with per-shard LSNs and fsync-point markers,
//!   per-shard snapshots with log truncation, seeded corruption
//!   injection, and deterministic crash recovery (replay stops at the
//!   last valid record);
//! - [`telemetry`]: deterministic metrics + span tracing (counters,
//!   gauges, fixed-bucket histograms over simulated time) shared by every
//!   component, exported as tables or canonical JSON;
//! - [`trace`]: deterministic causal tracing — trace trees spanning the
//!   bus, pipeline shards, query plans and store CRUD, retained in a
//!   fixed-capacity flight recorder and exported as canonical JSON,
//!   Chrome `trace_event`, or an ASCII waterfall;
//! - [`health`]: the deterministic health engine — declarative SLOs with
//!   multi-window burn-rate alerts on the simulated clock, histogram
//!   exemplars linking metrics back to flight-recorder traces, and the
//!   doctor/scoreboard reports behind `wfsm doctor` / `wfsm top`;
//! - [`serving`]: the query-time serving tier — a deterministic
//!   many-client request loop (seeded arrival process on the simulated
//!   clock) over any precomputed backend, with an LRU result cache,
//!   bounded-queue admission control, load shedding and backpressure,
//!   instrumented end to end (`serving.*` metrics, per-query traces);
//! - [`timeseries`]: deterministic metrics-over-time — a fixed-capacity
//!   ring of telemetry scrapes on the simulated clock with windowed
//!   rollups (counter rate/increase, gauge extrema, histogram-delta
//!   percentiles) and canonical table/JSON export;
//! - [`profile`]: the continuous profiler — flight-recorder spans folded
//!   by path into a self/total-time tree with collapsed-stack
//!   (flamegraph-compatible) export and hotspot ranking;
//! - [`evlog`]: the third observability pillar — a deterministic
//!   structured event log on the simulated clock (leveled records with
//!   stable targets, key=value fields, trace/span correlation, a
//!   fixed-capacity ring with conservation-law drop accounting, and
//!   per-(target, level) token-bucket sampling), exported as canonical
//!   text or JSON behind `wfsm logs`;
//! - [`rundiff`]: the differential layer over the deterministic
//!   exports — `wfsm diff` compares two metrics/profile artifacts and
//!   attributes regressions to counters or profile stage paths with a
//!   machine-readable verdict.

pub mod boilerplate;
pub mod cluster;
pub mod clustering;
pub mod dedup;
pub mod durable;
pub mod entity;
pub mod evlog;
pub mod faults;
pub mod geo;
pub mod health;
pub mod index;
pub mod ingest;
pub mod miner;
pub mod pagerank;
pub mod postings;
pub mod profile;
pub mod query_parser;
pub mod regex;
pub mod rundiff;
pub mod serving;
pub mod stats;
pub mod store;
pub mod telemetry;
pub mod timeseries;
pub mod trace;
pub mod vinci;

pub use boilerplate::{TemplateConfig, TemplateDetector};
pub use cluster::{Cluster, ClusterReport, IndexRebuildStats, NodeInfo, NodeRestart, NodeScore};
pub use clustering::{cluster_documents, Clustering, ClusteringMiner};
pub use dedup::{find_duplicates, DedupConfig, DuplicateDetector};
pub use durable::{
    crc32, Annotated, CorruptionKind, CorruptionOutcome, DurableStorage, FileSink, LogSink,
    MemorySink, RecoveryReport, ShardRecovery, ShardRecoveryStats, SnapshotStats, StopReason,
    WalOp, WalRecord, DEFAULT_FSYNC_INTERVAL, REPLAY_COST_MS, SNAPSHOT_ENTITY_COST_MS,
    WAL_HEADER_BYTES,
};
pub use entity::{Annotation, Attrs, AttrsIter, Entity, EntityEdit, SourceKind};
pub use evlog::{
    EvCounters, EvLog, EvLogSnapshot, EvRecord, EvView, Level, LogFilter, DEFAULT_EVLOG_CAPACITY,
    DEFAULT_SAMPLE_BURST, DEFAULT_SAMPLE_REFILL_MS,
};
pub use faults::{
    CallOutcome, ChaosCluster, FaultKind, FaultPlan, FaultRates, FaultStream, NodeHealth,
};
pub use geo::{GeoMiner, Place};
pub use health::{
    default_slos, render_scoreboard, AlertEvent, DoctorReport, ExemplarRef, HealthEngine,
    Objective, SloSpec, SloStatus, BURN_CLAMP_MILLI,
};
pub use index::{Indexer, Query, QueryProfile};
pub use ingest::{IngestStats, Ingestor, RawDocument};
pub use miner::{
    CorpusMiner, EntityMiner, FaultContext, MinerPipeline, PipelineStats, RunOpts, ShardOutcome,
};
pub use pagerank::{pagerank, PageRankConfig, PageRankMiner};
pub use postings::{CompressedPostings, Cursor as PostingsCursor};
pub use profile::{Hotspot, Profile, ProfileJson, ProfileNode, ProfileNodeJson};
pub use query_parser::parse_query;
pub use regex::Regex;
pub use rundiff::{Artifact, ArtifactKind, RunDiff, StageDelta, ValueDelta};
pub use serving::{
    LruCache, QueryOutcome, ServeLoop, ServedAnswer, ServedQuery, ServingBackend, ServingConfig,
    ServingReport, CACHE_HIT_COST_MS, DISPATCH_COST_MS,
};
pub use stats::{corpus_stats, CorpusStats};
pub use store::DataStore;
pub use telemetry::{
    Counter, Exemplar, Gauge, Histogram, HistogramSnapshot, SimClock, Telemetry, TelemetrySnapshot,
};
pub use timeseries::{
    CounterWindow, GaugeWindow, HistogramWindow, TimeSeriesStore, Timeline,
    DEFAULT_SCRAPE_INTERVAL_MS, DEFAULT_TIMELINE_CAPACITY,
};
pub use trace::{
    FlightRecorder, SpanEvent, SpanId, SpanRecord, TraceContext, TraceId, TraceNode, TraceSpan,
    DEFAULT_TRACE_CAPACITY,
};
pub use vinci::{Service, ServiceBus};
