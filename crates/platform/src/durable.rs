//! Durable storage: a seeded write-ahead log plus per-shard snapshots.
//!
//! WebFountain's store "manages hundreds of terabytes" across RAID
//! arrays and survives node loss as a matter of course; until now the
//! simulation could only mark a shard unavailable, never lose and
//! recover its state. This module closes that gap deterministically:
//!
//! - every store mutation appends one **WAL record** — a length- and
//!   CRC-framed JSON payload carrying a per-shard monotonic LSN and the
//!   simulated-clock timestamp — through a pluggable [`LogSink`]
//!   ([`MemorySink`] for tests and benches, [`FileSink`] under a
//!   `--data-dir` for the CLI);
//! - [`DurableStorage::snapshot_shard`] writes one shard's entities as a
//!   JSON-lines snapshot (header + one entity per line) and truncates
//!   that shard's log — the deterministic layout is
//!   `data-dir/shard-NNN/{wal.log,snapshot.jsonl}`;
//! - [`DurableStorage::recover_shard`] replays snapshot + log back into
//!   entities, stopping at the last valid record: a torn tail, a CRC
//!   mismatch, an undecodable payload or an LSN gap ends replay and the
//!   invalid suffix is dropped (and repaired by
//!   [`DurableStorage::repair_shard`]);
//! - [`DurableStorage::inject_corruption`] damages the log or snapshot
//!   at offsets drawn from the existing seeded [`FaultStream`]s, so
//!   crash-recovery chaos suites are exactly as reproducible as the
//!   fault-injection ones.
//!
//! Determinism rules: LSNs are per-shard counters (shard workers run in
//! parallel; a global counter would interleave nondeterministically),
//! payload JSON is canonical (`BTreeMap`-backed objects ⇒ sorted keys),
//! timestamps come from the cluster's simulated clock, and recovery cost
//! is a fixed model (1 simulated ms per snapshot entity or log record)
//! rather than wall time. Same seed ⇒ byte-identical logs, snapshots
//! and recovery reports everywhere.

use crate::entity::Entity;
use crate::evlog::{EvLog, Level};
use crate::faults::FaultStream;
use crate::store::DataStore;
use crate::telemetry::{Counter, Telemetry};
use parking_lot::{Mutex, RwLock};
use serde::Serialize;
use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use wf_types::{DocId, Error, NodeId, Result};

/// Bytes of framing before each record payload: `u32` payload length
/// plus `u32` CRC-32 of the payload, both little-endian.
pub const WAL_HEADER_BYTES: usize = 8;
/// Simulated ms to replay one WAL record during recovery.
pub const REPLAY_COST_MS: u64 = 1;
/// Simulated ms to load (or write) one snapshot entity.
pub const SNAPSHOT_ENTITY_COST_MS: u64 = 1;
/// Data records between automatic fsync-point markers.
pub const DEFAULT_FSYNC_INTERVAL: u64 = 16;

/// CRC-32 (IEEE 802.3, reflected) over `bytes` — the WAL frame checksum.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// One logged mutation. Insert/Update carry the full post-state so
/// replay is idempotent: applying a record twice lands the same entity.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    Insert(Entity),
    Update(Entity),
    Delete(DocId),
    /// Fsync-point marker: every record before it reached the sink's
    /// stable storage.
    Fsync,
}

impl WalOp {
    /// Stable label used in the JSON payload's `op` field.
    pub fn label(&self) -> &'static str {
        match self {
            WalOp::Insert(_) => "insert",
            WalOp::Update(_) => "update",
            WalOp::Delete(_) => "delete",
            WalOp::Fsync => "fsync",
        }
    }
}

/// One framed WAL entry: per-shard monotonic LSN (starting at 1),
/// simulated-clock timestamp, and the operation.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    pub lsn: u64,
    pub sim_ms: u64,
    pub op: WalOp,
}

impl WalRecord {
    /// Canonical JSON payload (sorted keys via the `BTreeMap`-backed
    /// `Value`); entities ride along via their serde representation.
    fn to_payload(&self) -> Result<String> {
        let mut obj: BTreeMap<String, Value> = BTreeMap::new();
        obj.insert("lsn".into(), Value::from(self.lsn));
        obj.insert("op".into(), Value::from(self.op.label()));
        obj.insert("sim_ms".into(), Value::from(self.sim_ms));
        match &self.op {
            WalOp::Insert(e) | WalOp::Update(e) => {
                let entity = serde_json::to_value(e)
                    .map_err(|e| Error::Service(format!("serialize wal entity: {e}")))?;
                obj.insert("entity".into(), entity);
            }
            WalOp::Delete(doc) => {
                obj.insert("doc".into(), Value::from(doc.as_u64()));
            }
            WalOp::Fsync => {}
        }
        Ok(Value::Object(obj).to_json_string())
    }

    fn from_payload(payload: &str) -> Option<WalRecord> {
        let value: Value = serde_json::from_str(payload).ok()?;
        let lsn = value.get("lsn")?.as_u64()?;
        let sim_ms = value.get("sim_ms")?.as_u64()?;
        let op = match value.get("op")?.as_str()? {
            "insert" => WalOp::Insert(serde_json::from_value(value.get("entity")?).ok()?),
            "update" => WalOp::Update(serde_json::from_value(value.get("entity")?).ok()?),
            "delete" => WalOp::Delete(DocId(value.get("doc")?.as_u64()?)),
            "fsync" => WalOp::Fsync,
            _ => return None,
        };
        Some(WalRecord { lsn, sim_ms, op })
    }

    /// `[len u32 LE][crc32(payload) u32 LE][payload]`.
    pub fn encode(&self) -> Result<Vec<u8>> {
        let payload = self.to_payload()?;
        let mut out = Vec::with_capacity(WAL_HEADER_BYTES + payload.len());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(payload.as_bytes()).to_le_bytes());
        out.extend_from_slice(payload.as_bytes());
        Ok(out)
    }
}

/// One complete `[len u32 LE][crc u32 LE][payload]` frame of a WAL.
#[derive(Debug)]
struct Frame<'a> {
    /// Byte offset of the frame's header.
    offset: usize,
    /// The CRC-32 the header claims for the payload.
    crc: u32,
    payload: &'a [u8],
}

impl Frame<'_> {
    /// Byte offset just past the frame.
    fn end(&self) -> usize {
        self.offset + WAL_HEADER_BYTES + self.payload.len()
    }

    /// The payload decoded as a record, if it is one.
    fn record(&self) -> Option<WalRecord> {
        std::str::from_utf8(self.payload)
            .ok()
            .and_then(WalRecord::from_payload)
    }
}

/// The complete frames of `bytes` from `offset` on, in order. Stops at
/// the first header or payload the remaining bytes cannot hold (a torn
/// tail); checksums and payloads are the caller's to check.
fn wal_frames(bytes: &[u8], mut offset: usize) -> impl Iterator<Item = Frame<'_>> {
    std::iter::from_fn(move || {
        let header = bytes.get(offset..)?.get(..WAL_HEADER_BYTES)?;
        let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(header[4..].try_into().expect("4 bytes"));
        let payload = bytes[offset + WAL_HEADER_BYTES..].get(..len)?;
        let frame = Frame {
            offset,
            crc,
            payload,
        };
        offset = frame.end();
        Some(frame)
    })
}

/// The frame `stream` draws among the complete frames of `bytes`.
fn victim_frame<'a>(bytes: &'a [u8], stream: &mut FaultStream) -> Option<Frame<'a>> {
    let pick = stream.next_in(wal_frames(bytes, 0).count() as u64) as usize;
    wal_frames(bytes, 0).nth(pick)
}

/// Why replay stopped scanning a shard's WAL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Clean end of log: every byte accounted for.
    EndOfLog,
    /// Trailing bytes shorter than the frame they promise (torn write).
    TornTail,
    /// A frame whose payload no longer matches its CRC.
    BadCrc,
    /// A frame whose payload is not a decodable record, or whose LSN
    /// breaks the shard's contiguous sequence.
    BadPayload,
}

impl StopReason {
    pub fn label(self) -> &'static str {
        match self {
            StopReason::EndOfLog => "end_of_log",
            StopReason::TornTail => "torn_tail",
            StopReason::BadCrc => "bad_crc",
            StopReason::BadPayload => "bad_payload",
        }
    }
}

impl Serialize for StopReason {
    fn to_value(&self) -> Value {
        Value::from(self.label())
    }
}

/// Everything recovery learned about one shard — the per-shard row of
/// the `wfsm recover` report, and the stats behind `durable.*` counters.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct ShardRecoveryStats {
    pub shard: u32,
    /// Entities the snapshot declared in its header.
    pub snapshot_declared: u64,
    /// Entities actually readable from the snapshot body.
    pub snapshot_entities: u64,
    /// LSN the snapshot covers: replay resumes at `snapshot_lsn + 1`.
    pub snapshot_lsn: u64,
    /// The snapshot body ended early or failed to parse.
    pub snapshot_truncated: bool,
    pub snapshot_bytes: u64,
    /// Valid WAL records scanned (data + fsync markers).
    pub wal_records: u64,
    /// Data records applied to the recovered state.
    pub replayed: u64,
    pub fsync_points: u64,
    /// Identifiable record frames dropped past the valid prefix.
    pub truncated_records: u64,
    /// WAL bytes dropped past the valid prefix.
    pub truncated_bytes: u64,
    /// Length of the valid WAL prefix (what repair keeps).
    pub valid_wal_bytes: u64,
    /// Highest valid LSN seen (== `snapshot_lsn` for an empty log).
    pub last_lsn: u64,
    /// Entities alive after snapshot + replay.
    pub recovered_entities: u64,
    /// Deterministic recovery cost on the simulated clock.
    pub sim_ms: u64,
    pub stop: StopReason,
}

/// One shard's full recovery result: the stats plus the recovered
/// entities themselves, in ascending id order.
#[derive(Debug, Clone)]
pub struct ShardRecovery {
    pub entities: Vec<Entity>,
    pub stats: ShardRecoveryStats,
}

/// The `wfsm recover` report: per-shard recovery stats plus totals.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    pub shards: Vec<ShardRecoveryStats>,
}

impl RecoveryReport {
    /// Every shard replayed cleanly to end-of-log with an intact
    /// snapshot.
    pub fn clean(&self) -> bool {
        self.shards
            .iter()
            .all(|s| s.stop == StopReason::EndOfLog && !s.snapshot_truncated)
    }

    pub fn total_recovered(&self) -> u64 {
        self.shards.iter().map(|s| s.recovered_entities).sum()
    }

    pub fn total_replayed(&self) -> u64 {
        self.shards.iter().map(|s| s.replayed).sum()
    }

    pub fn total_sim_ms(&self) -> u64 {
        self.shards.iter().map(|s| s.sim_ms).sum()
    }

    /// Canonical JSON: `BTreeMap`-backed objects give sorted keys, so
    /// two read-only runs over the same data-dir are byte-identical.
    pub fn to_json_string(&self) -> String {
        let mut obj: BTreeMap<String, Value> = BTreeMap::new();
        obj.insert("clean".into(), Value::Bool(self.clean()));
        obj.insert("shards".into(), self.shards.to_value());
        let mut totals: BTreeMap<String, Value> = BTreeMap::new();
        totals.insert(
            "recovered_entities".into(),
            Value::from(self.total_recovered()),
        );
        totals.insert("replayed".into(), Value::from(self.total_replayed()));
        totals.insert("sim_ms".into(), Value::from(self.total_sim_ms()));
        totals.insert(
            "truncated_records".into(),
            Value::from(self.shards.iter().map(|s| s.truncated_records).sum::<u64>()),
        );
        obj.insert("totals".into(), Value::Object(totals));
        let mut out = Value::Object(obj).to_json_string_pretty();
        out.push('\n');
        out
    }

    /// Fixed-width table for `wfsm recover` without `--format json`.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<6} {:>9} {:>8} {:>9} {:>8} {:>10} {:>7} STOP",
            "SHARD", "SNAPSHOT", "REPLAYED", "ENTITIES", "LAST_LSN", "DROPPED", "SIM_MS"
        );
        for s in &self.shards {
            let snapshot = if s.snapshot_truncated {
                format!("{}/{}!", s.snapshot_entities, s.snapshot_declared)
            } else {
                s.snapshot_entities.to_string()
            };
            let _ = writeln!(
                out,
                "{:<6} {:>9} {:>8} {:>9} {:>8} {:>10} {:>7} {}",
                s.shard,
                snapshot,
                s.replayed,
                s.recovered_entities,
                s.last_lsn,
                format!("{}B", s.truncated_bytes),
                s.sim_ms,
                s.stop.label()
            );
        }
        let _ = writeln!(
            out,
            "total: {} entities recovered, {} records replayed, {} sim-ms ({})",
            self.total_recovered(),
            self.total_replayed(),
            self.total_sim_ms(),
            if self.clean() {
                "clean"
            } else {
                "repairs needed"
            }
        );
        out
    }
}

/// The three injectable durable-state corruptions, driven by seeded
/// [`FaultStream`] draws so chaos runs replay exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionKind {
    /// The WAL loses its tail mid-record, as if the process died inside
    /// a `write()`.
    TornTail,
    /// One byte of one record's payload flips; its CRC no longer
    /// matches.
    BadCrc,
    /// The snapshot body ends early (header survives).
    TruncatedSnapshot,
}

impl CorruptionKind {
    pub fn label(self) -> &'static str {
        match self {
            CorruptionKind::TornTail => "torn_tail",
            CorruptionKind::BadCrc => "bad_crc",
            CorruptionKind::TruncatedSnapshot => "truncated_snapshot",
        }
    }
}

/// What [`DurableStorage::inject_corruption`] did, so tests can assert
/// the exact LSN recovery must stop at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorruptionOutcome {
    pub shard: u32,
    pub kind: CorruptionKind,
    /// Byte offset of the damage within its file.
    pub offset: u64,
    /// LSN of the first record destroyed (None for snapshot damage).
    pub victim_lsn: Option<u64>,
}

/// Where WAL/snapshot bytes live. Appends must be visible to
/// `read_all` immediately; `sync` marks them stable (fsync semantics).
pub trait LogSink: std::fmt::Debug + Send + Sync {
    fn append(&self, bytes: &[u8]) -> Result<()>;
    /// Forces appended bytes to stable storage.
    fn sync(&self) -> Result<()>;
    fn read_all(&self) -> Result<Vec<u8>>;
    /// Replaces the entire contents (snapshotting, tail repair).
    fn replace(&self, bytes: &[u8]) -> Result<()>;
    fn len(&self) -> Result<u64> {
        Ok(self.read_all()?.len() as u64)
    }
    fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }
}

/// In-memory sink: the deterministic default for tests and benches.
#[derive(Debug, Default)]
pub struct MemorySink {
    bytes: Mutex<Vec<u8>>,
    syncs: AtomicU64,
}

impl MemorySink {
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// How many times `sync` was called (fsync cadence assertions).
    pub fn sync_count(&self) -> u64 {
        self.syncs.load(Ordering::Relaxed)
    }
}

impl LogSink for MemorySink {
    fn append(&self, bytes: &[u8]) -> Result<()> {
        self.bytes.lock().extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        self.syncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn read_all(&self) -> Result<Vec<u8>> {
        Ok(self.bytes.lock().clone())
    }

    fn replace(&self, bytes: &[u8]) -> Result<()> {
        *self.bytes.lock() = bytes.to_vec();
        Ok(())
    }

    fn len(&self) -> Result<u64> {
        Ok(self.bytes.lock().len() as u64)
    }
}

fn io_err(context: String, err: std::io::Error) -> Error {
    Error::Service(format!("{context}: {err}"))
}

/// File-backed sink for the CLI's `--data-dir`.
#[derive(Debug)]
pub struct FileSink {
    path: PathBuf,
    file: Mutex<File>,
}

impl FileSink {
    /// Opens (creating if absent) an append-mode sink at `path`.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self> {
        let path = path.into();
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .read(true)
            .open(&path)
            .map_err(|e| io_err(format!("open {}", path.display()), e))?;
        Ok(FileSink {
            path,
            file: Mutex::new(file),
        })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl LogSink for FileSink {
    fn append(&self, bytes: &[u8]) -> Result<()> {
        self.file
            .lock()
            .write_all(bytes)
            .map_err(|e| io_err(format!("append {}", self.path.display()), e))
    }

    fn sync(&self) -> Result<()> {
        self.file
            .lock()
            .sync_all()
            .map_err(|e| io_err(format!("sync {}", self.path.display()), e))
    }

    fn read_all(&self) -> Result<Vec<u8>> {
        std::fs::read(&self.path).map_err(|e| io_err(format!("read {}", self.path.display()), e))
    }

    fn replace(&self, bytes: &[u8]) -> Result<()> {
        let mut guard = self.file.lock();
        let mut file = File::create(&self.path)
            .map_err(|e| io_err(format!("rewrite {}", self.path.display()), e))?;
        file.write_all(bytes)
            .and_then(|()| file.sync_all())
            .map_err(|e| io_err(format!("rewrite {}", self.path.display()), e))?;
        *guard = file;
        Ok(())
    }

    fn len(&self) -> Result<u64> {
        std::fs::metadata(&self.path)
            .map(|m| m.len())
            .map_err(|e| io_err(format!("stat {}", self.path.display()), e))
    }
}

/// `durable.*` instruments, resolved only when a registry is bound (so
/// stores without durability keep their metrics snapshots unchanged).
#[derive(Debug)]
struct DurableMetrics {
    appended: Arc<Counter>,
    bytes_appended: Arc<Counter>,
    fsyncs: Arc<Counter>,
    append_errors: Arc<Counter>,
    snapshots: Arc<Counter>,
    snapshot_bytes: Arc<Counter>,
    replayed: Arc<Counter>,
    truncated: Arc<Counter>,
    /// Structured event log: recovery decisions narrate under
    /// `durable.shard:<n>` targets.
    evlog: Arc<EvLog>,
}

impl DurableMetrics {
    fn resolve(tele: &Telemetry) -> Self {
        DurableMetrics {
            evlog: Arc::clone(tele.evlog()),
            appended: tele.counter("durable.records_appended"),
            bytes_appended: tele.counter("durable.wal_bytes_appended"),
            fsyncs: tele.counter("durable.fsyncs"),
            append_errors: tele.counter("durable.append_errors"),
            snapshots: tele.counter("durable.snapshots"),
            snapshot_bytes: tele.counter("durable.snapshot_bytes"),
            replayed: tele.counter("durable.records_replayed"),
            truncated: tele.counter("durable.records_truncated"),
        }
    }
}

/// One shard's durable state: its WAL, its snapshot, and the next LSN.
#[derive(Debug)]
struct ShardLog {
    wal: Box<dyn LogSink>,
    snapshot: Box<dyn LogSink>,
    /// LSN the next record takes; LSNs start at 1 and stay contiguous
    /// per shard.
    next_lsn: AtomicU64,
    /// Data records since the last fsync marker (marker cadence).
    since_fsync: AtomicU64,
}

impl ShardLog {
    fn new(wal: impl LogSink + 'static, snapshot: impl LogSink + 'static) -> Self {
        ShardLog {
            wal: Box::new(wal),
            snapshot: Box::new(snapshot),
            next_lsn: AtomicU64::new(1),
            since_fsync: AtomicU64::new(0),
        }
    }
}

/// The durable layer under a [`DataStore`]: one shard log (a WAL sink and
/// a snapshot sink) per shard.
///
/// Attach via `DataStore::attach_durability` (or through the cluster);
/// from then on every insert/update/delete appends a WAL record under
/// the owning shard's write lock, so log order equals apply order.
#[derive(Debug)]
pub struct DurableStorage {
    shards: Vec<ShardLog>,
    dir: Option<PathBuf>,
    sim_now: AtomicU64,
    metrics: RwLock<Option<DurableMetrics>>,
    /// Mutation-path append failures are swallowed (the store API has no
    /// error channel on insert) but never lost: counted and kept here.
    last_append_error: Mutex<Option<String>>,
}

fn shard_dir(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard:03}"))
}

impl DurableStorage {
    fn from_shards(shards: Vec<ShardLog>, dir: Option<PathBuf>) -> Self {
        DurableStorage {
            shards,
            dir,
            sim_now: AtomicU64::new(0),
            metrics: RwLock::new(None),
            last_append_error: Mutex::new(None),
        }
    }

    /// Deterministic in-memory storage for tests and benches.
    pub fn in_memory(shard_count: usize) -> Result<Self> {
        if shard_count == 0 {
            return Err(Error::Config(
                "durable storage needs at least one shard".into(),
            ));
        }
        let shards = (0..shard_count)
            .map(|_| ShardLog::new(MemorySink::new(), MemorySink::new()))
            .collect();
        Ok(Self::from_shards(shards, None))
    }

    /// File-backed storage for a **fresh run**: creates the layout under
    /// `dir` and truncates any prior shard files. Errors cleanly (no
    /// panic) when `dir` cannot be created or written.
    pub fn at_dir(dir: impl AsRef<Path>, shard_count: usize) -> Result<Self> {
        if shard_count == 0 {
            return Err(Error::Config(
                "durable storage needs at least one shard".into(),
            ));
        }
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)
            .map_err(|e| Error::Config(format!("cannot create data dir {}: {e}", dir.display())))?;
        let mut shards = Vec::with_capacity(shard_count);
        for i in 0..shard_count {
            let sub = shard_dir(dir, i);
            std::fs::create_dir_all(&sub).map_err(|e| {
                Error::Config(format!("cannot create data dir {}: {e}", sub.display()))
            })?;
            let wal = FileSink::open(sub.join("wal.log"))?;
            let snapshot = FileSink::open(sub.join("snapshot.jsonl"))?;
            wal.replace(&[])?;
            snapshot.replace(&[])?;
            shards.push(ShardLog::new(wal, snapshot));
        }
        Ok(Self::from_shards(shards, Some(dir.to_path_buf())))
    }

    /// Opens an **existing** data-dir read-for-recovery: shard count is
    /// detected from the `shard-NNN` layout and each shard's next LSN is
    /// primed from its valid prefix.
    pub fn open_dir(dir: impl AsRef<Path>) -> Result<Self> {
        let dir = dir.as_ref();
        let mut shards = Vec::new();
        while shard_dir(dir, shards.len()).is_dir() {
            let sub = shard_dir(dir, shards.len());
            shards.push(ShardLog::new(
                FileSink::open(sub.join("wal.log"))?,
                FileSink::open(sub.join("snapshot.jsonl"))?,
            ));
        }
        if shards.is_empty() {
            return Err(Error::Config(format!(
                "no shard-* layout under {} (not a wfsm data dir?)",
                dir.display()
            )));
        }
        let storage = Self::from_shards(shards, Some(dir.to_path_buf()));
        for shard in 0..storage.shards.len() {
            let recovery = storage.recover_shard(shard as u32)?;
            storage.shards[shard]
                .next_lsn
                .store(recovery.stats.last_lsn + 1, Ordering::Relaxed);
        }
        Ok(storage)
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The backing directory, when file-backed.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Resolves `durable.*` instruments into `tele`. Called by
    /// `DataStore::attach_durability`; idempotent.
    pub fn bind_telemetry(&self, tele: &Telemetry) {
        *self.metrics.write() = Some(DurableMetrics::resolve(tele));
    }

    /// Stamps records with the cluster's simulated clock.
    pub fn set_sim_now(&self, sim_ms: u64) {
        self.sim_now.store(sim_ms, Ordering::Relaxed);
    }

    pub fn sim_now(&self) -> u64 {
        self.sim_now.load(Ordering::Relaxed)
    }

    fn shard(&self, shard: u32) -> Result<&ShardLog> {
        self.shards
            .get(shard as usize)
            .ok_or_else(|| Error::Config(format!("no shard {shard}")))
    }

    /// The LSN the next record on `shard` will take.
    pub fn next_lsn(&self, shard: u32) -> u64 {
        self.shards
            .get(shard as usize)
            .map(|s| s.next_lsn.load(Ordering::Relaxed))
            .unwrap_or(1)
    }

    pub fn wal_bytes(&self, shard: u32) -> u64 {
        self.shards
            .get(shard as usize)
            .and_then(|s| s.wal.len().ok())
            .unwrap_or(0)
    }

    pub fn snapshot_bytes(&self, shard: u32) -> u64 {
        self.shards
            .get(shard as usize)
            .and_then(|s| s.snapshot.len().ok())
            .unwrap_or(0)
    }

    /// The last mutation-path append failure, if any.
    pub fn last_append_error(&self) -> Option<String> {
        self.last_append_error.lock().clone()
    }

    fn with_metrics<F: FnOnce(&DurableMetrics)>(&self, f: F) {
        if let Some(metrics) = self.metrics.read().as_ref() {
            f(metrics);
        }
    }

    /// Appends one mutation record to `shard`'s WAL (store hot path —
    /// called under the shard's write lock). Failures are counted and
    /// remembered, not propagated: the store's mutation API has no
    /// error channel, and losing tail records is exactly the failure
    /// mode recovery is built to absorb.
    pub(crate) fn log(&self, shard: u32, op: WalOp) {
        let Some(state) = self.shards.get(shard as usize) else {
            return;
        };
        let lsn = state.next_lsn.fetch_add(1, Ordering::Relaxed);
        let record = WalRecord {
            lsn,
            sim_ms: self.sim_now(),
            op,
        };
        match record.encode().and_then(|bytes| {
            state.wal.append(&bytes)?;
            Ok(bytes.len() as u64)
        }) {
            Ok(bytes) => self.with_metrics(|m| {
                m.appended.inc();
                m.bytes_appended.add(bytes);
            }),
            Err(err) => {
                self.with_metrics(|m| m.append_errors.inc());
                *self.last_append_error.lock() = Some(err.to_string());
                return;
            }
        }
        let since = state.since_fsync.fetch_add(1, Ordering::Relaxed) + 1;
        if since >= DEFAULT_FSYNC_INTERVAL {
            state.since_fsync.store(0, Ordering::Relaxed);
            let _ = self.sync_shard(shard);
        }
    }

    /// Appends an fsync-point marker and syncs the sink.
    pub fn sync_shard(&self, shard: u32) -> Result<()> {
        let state = self.shard(shard)?;
        let record = WalRecord {
            lsn: state.next_lsn.fetch_add(1, Ordering::Relaxed),
            sim_ms: self.sim_now(),
            op: WalOp::Fsync,
        };
        let bytes = record.encode()?;
        state.wal.append(&bytes)?;
        state.wal.sync()?;
        self.with_metrics(|m| {
            m.appended.inc();
            m.bytes_appended.add(bytes.len() as u64);
            m.fsyncs.inc();
        });
        Ok(())
    }

    /// Writes `node`'s entities as a snapshot and truncates its WAL.
    /// Call at quiescent points (no in-flight mutators on the shard).
    pub fn snapshot_shard(&self, store: &DataStore, node: NodeId) -> Result<SnapshotStats> {
        let state = self.shard(node.0)?;
        let ids = store.shard_ids(node);
        let last_lsn = state.next_lsn.load(Ordering::Relaxed) - 1;
        let mut header: BTreeMap<String, Value> = BTreeMap::new();
        header.insert("entities".into(), Value::from(ids.len() as u64));
        header.insert("last_lsn".into(), Value::from(last_lsn));
        header.insert("shard".into(), Value::from(node.0));
        let mut buf = Value::Object(header).to_json_string();
        buf.push('\n');
        for id in &ids {
            let entity = store.get(*id)?;
            let line = serde_json::to_string(&entity)
                .map_err(|e| Error::Service(format!("serialize snapshot {id}: {e}")))?;
            buf.push_str(&line);
            buf.push('\n');
        }
        state.snapshot.replace(buf.as_bytes())?;
        let truncated_wal_bytes = state.wal.len()?;
        state.wal.replace(&[])?;
        state.since_fsync.store(0, Ordering::Relaxed);
        self.with_metrics(|m| {
            m.snapshots.inc();
            m.snapshot_bytes.add(buf.len() as u64);
        });
        Ok(SnapshotStats {
            shard: node.0,
            entities: ids.len() as u64,
            snapshot_bytes: buf.len() as u64,
            last_lsn,
            truncated_wal_bytes,
        })
    }

    /// [`DurableStorage::snapshot_shard`] over every shard.
    pub fn checkpoint(&self, store: &DataStore) -> Result<Vec<SnapshotStats>> {
        (0..self.shards.len())
            .map(|i| self.snapshot_shard(store, NodeId(i as u32)))
            .collect()
    }

    fn parse_snapshot(bytes: &[u8]) -> (Vec<Entity>, u64, u64, bool) {
        if bytes.is_empty() {
            return (Vec::new(), 0, 0, false);
        }
        let text = String::from_utf8_lossy(bytes);
        let mut lines = text.split('\n');
        let Some(header) = lines
            .next()
            .and_then(|l| serde_json::from_str::<Value>(l).ok())
        else {
            return (Vec::new(), 0, 0, true);
        };
        let declared = header.get("entities").and_then(Value::as_u64).unwrap_or(0);
        let snapshot_lsn = header.get("last_lsn").and_then(Value::as_u64).unwrap_or(0);
        let mut entities = Vec::new();
        let mut truncated = false;
        for line in lines {
            if line.is_empty() {
                continue;
            }
            match serde_json::from_str::<Entity>(line) {
                Ok(entity) => entities.push(entity),
                Err(_) => {
                    truncated = true;
                    break;
                }
            }
        }
        if (entities.len() as u64) < declared {
            truncated = true;
        }
        (entities, snapshot_lsn, declared, truncated)
    }

    /// Replays one shard's snapshot + WAL into entities, **read-only**:
    /// nothing is repaired, so repeated calls over the same bytes return
    /// byte-identical results (`wfsm recover` relies on this).
    pub fn recover_shard(&self, shard: u32) -> Result<ShardRecovery> {
        let state = self.shard(shard)?;
        let snapshot_bytes = state.snapshot.read_all()?;
        let (snapshot_entities, snapshot_lsn, declared, snapshot_truncated) =
            Self::parse_snapshot(&snapshot_bytes);
        let mut stats = ShardRecoveryStats {
            shard,
            snapshot_declared: declared,
            snapshot_entities: snapshot_entities.len() as u64,
            snapshot_lsn,
            snapshot_truncated,
            snapshot_bytes: snapshot_bytes.len() as u64,
            wal_records: 0,
            replayed: 0,
            fsync_points: 0,
            truncated_records: 0,
            truncated_bytes: 0,
            valid_wal_bytes: 0,
            last_lsn: snapshot_lsn,
            recovered_entities: 0,
            sim_ms: 0,
            stop: StopReason::EndOfLog,
        };
        let mut map: BTreeMap<DocId, Entity> =
            snapshot_entities.into_iter().map(|e| (e.id, e)).collect();
        let bytes = state.wal.read_all()?;
        let mut valid = 0usize;
        for frame in wal_frames(&bytes, 0) {
            if crc32(frame.payload) != frame.crc {
                stats.stop = StopReason::BadCrc;
                break;
            }
            let Some(record) = frame.record().filter(|r| r.lsn == stats.last_lsn + 1) else {
                stats.stop = StopReason::BadPayload;
                break;
            };
            stats.wal_records += 1;
            stats.last_lsn = record.lsn;
            match record.op {
                WalOp::Insert(entity) | WalOp::Update(entity) => {
                    map.insert(entity.id, entity);
                    stats.replayed += 1;
                }
                WalOp::Delete(doc) => {
                    map.remove(&doc);
                    stats.replayed += 1;
                }
                WalOp::Fsync => stats.fsync_points += 1,
            }
            valid = frame.end();
        }
        if stats.stop == StopReason::EndOfLog && valid < bytes.len() {
            stats.stop = StopReason::TornTail;
        }
        stats.valid_wal_bytes = valid as u64;
        stats.truncated_bytes = (bytes.len() - valid) as u64;
        if stats.stop != StopReason::EndOfLog {
            // complete frames in the dropped suffix, the first bad one
            // included (a torn tail alone holds none)
            stats.truncated_records = (wal_frames(&bytes, valid).count() as u64).max(1);
        }
        stats.recovered_entities = map.len() as u64;
        stats.sim_ms =
            stats.snapshot_entities * SNAPSHOT_ENTITY_COST_MS + stats.wal_records * REPLAY_COST_MS;
        self.with_metrics(|m| {
            m.replayed.add(stats.replayed);
            m.truncated.add(stats.truncated_records);
            let target = format!("durable.shard:{shard}");
            if stats.snapshot_truncated {
                m.evlog.event(
                    Level::Warn,
                    &target,
                    stats.sim_ms,
                    "snapshot truncated, falling back to readable prefix",
                    &[
                        ("declared", stats.snapshot_declared.to_string()),
                        ("readable", stats.snapshot_entities.to_string()),
                    ],
                );
            }
            if stats.stop == StopReason::EndOfLog {
                m.evlog.event(
                    Level::Info,
                    &target,
                    stats.sim_ms,
                    "wal replay clean",
                    &[
                        ("entities", stats.recovered_entities.to_string()),
                        ("replayed", stats.replayed.to_string()),
                    ],
                );
            } else {
                m.evlog.event(
                    Level::Error,
                    &target,
                    stats.sim_ms,
                    "wal replay stopped",
                    &[
                        ("last_lsn", stats.last_lsn.to_string()),
                        ("stop", stats.stop.label().to_string()),
                        ("truncated_bytes", stats.truncated_bytes.to_string()),
                        ("truncated_records", stats.truncated_records.to_string()),
                    ],
                );
            }
        });
        Ok(ShardRecovery {
            entities: map.into_values().collect(),
            stats,
        })
    }

    /// Makes the durable state match what recovery could read: truncates
    /// the WAL to its valid prefix and primes the next LSN. Called by
    /// `Cluster::restart_node` — never by `wfsm recover`.
    pub fn repair_shard(&self, shard: u32, recovery: &ShardRecovery) -> Result<()> {
        let state = self.shard(shard)?;
        if recovery.stats.truncated_bytes > 0 {
            let bytes = state.wal.read_all()?;
            let keep = recovery.stats.valid_wal_bytes as usize;
            state.wal.replace(&bytes[..keep.min(bytes.len())])?;
        }
        state
            .next_lsn
            .store(recovery.stats.last_lsn + 1, Ordering::Relaxed);
        state.since_fsync.store(0, Ordering::Relaxed);
        self.with_metrics(|m| {
            m.evlog.event(
                Level::Info,
                &format!("durable.shard:{shard}"),
                self.sim_now(),
                "wal repaired to valid prefix",
                &[
                    ("next_lsn", (recovery.stats.last_lsn + 1).to_string()),
                    (
                        "truncated_bytes",
                        recovery.stats.truncated_bytes.to_string(),
                    ),
                ],
            );
        });
        Ok(())
    }

    /// Read-only recovery report over every shard (`wfsm recover`).
    pub fn recovery_report(&self) -> Result<RecoveryReport> {
        let shards = (0..self.shards.len())
            .map(|i| self.recover_shard(i as u32).map(|r| r.stats))
            .collect::<Result<Vec<_>>>()?;
        Ok(RecoveryReport { shards })
    }

    /// Replays every shard's snapshot + WAL into a fresh [`DataStore`]
    /// with this storage's shard count, keeping ids and versions
    /// ([`DataStore::restore_entity`]). Read-only like
    /// [`DurableStorage::recover_shard`]: nothing is repaired and the
    /// store comes back detached, so reading it appends no WAL. The
    /// report says where each shard's replay stopped.
    pub fn recover_store(&self) -> Result<(DataStore, RecoveryReport)> {
        let store = DataStore::new(self.shards.len())?;
        let mut shards = Vec::with_capacity(self.shards.len());
        for shard in 0..self.shards.len() {
            let recovery = self.recover_shard(shard as u32)?;
            for entity in recovery.entities {
                store.restore_entity(entity);
            }
            shards.push(recovery.stats);
        }
        Ok((store, RecoveryReport { shards }))
    }

    /// Damages `shard`'s durable state at a position drawn from
    /// `stream` — the seeded chaos entry point. Same plan + same site ⇒
    /// the same bytes flip everywhere.
    pub fn inject_corruption(
        &self,
        shard: u32,
        kind: CorruptionKind,
        stream: &mut FaultStream,
    ) -> Result<CorruptionOutcome> {
        let state = self.shard(shard)?;
        let outcome = match kind {
            CorruptionKind::TornTail => {
                let bytes = state.wal.read_all()?;
                let victim = victim_frame(&bytes, stream)
                    .ok_or_else(|| Error::Config("cannot tear an empty WAL".into()))?;
                // keep at least 1 byte of the victim frame, at most all
                // but its last byte: a partial record either way
                let len = victim.end() - victim.offset;
                let cut = victim.offset + 1 + stream.next_in(len as u64 - 1) as usize;
                state.wal.replace(&bytes[..cut])?;
                Ok(CorruptionOutcome {
                    shard,
                    kind,
                    offset: cut as u64,
                    victim_lsn: victim.record().map(|r| r.lsn),
                })
            }
            CorruptionKind::BadCrc => {
                let mut bytes = state.wal.read_all()?;
                let victim = victim_frame(&bytes, stream)
                    .ok_or_else(|| Error::Config("cannot corrupt an empty WAL".into()))?;
                let victim_lsn = victim.record().map(|r| r.lsn);
                // an empty payload has no byte to flip: a byte of its
                // CRC field (header bytes 4..8) takes the flip instead
                let flip = if victim.payload.is_empty() {
                    victim.offset + 4 + stream.next_in(4) as usize
                } else {
                    victim.offset
                        + WAL_HEADER_BYTES
                        + stream.next_in(victim.payload.len() as u64) as usize
                };
                bytes[flip] ^= 0x5A;
                state.wal.replace(&bytes)?;
                Ok(CorruptionOutcome {
                    shard,
                    kind,
                    offset: flip as u64,
                    victim_lsn,
                })
            }
            CorruptionKind::TruncatedSnapshot => {
                let bytes = state.snapshot.read_all()?;
                let header_end = bytes
                    .iter()
                    .position(|&b| b == b'\n')
                    .map(|i| i + 1)
                    .unwrap_or(bytes.len());
                let body = bytes.len() - header_end;
                if body < 2 {
                    return Err(Error::Config(
                        "snapshot too small to truncate (need a body)".into(),
                    ));
                }
                // drop between 1 and body-1 bytes from the end, so the
                // header survives and at least one byte goes missing
                let drop = 1 + stream.next_in(body as u64 - 1) as usize;
                let keep = bytes.len() - drop;
                state.snapshot.replace(&bytes[..keep])?;
                Ok(CorruptionOutcome {
                    shard,
                    kind,
                    offset: keep as u64,
                    victim_lsn: None,
                })
            }
        }?;
        self.with_metrics(|m| {
            m.evlog.event(
                Level::Warn,
                &format!("durable.shard:{shard}"),
                self.sim_now(),
                "corruption injected",
                &[
                    ("kind", kind.label().to_string()),
                    ("offset", outcome.offset.to_string()),
                ],
            );
        });
        Ok(outcome)
    }
}

/// Outcome of one [`DurableStorage::snapshot_shard`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotStats {
    pub shard: u32,
    pub entities: u64,
    pub snapshot_bytes: u64,
    /// LSN the snapshot covers: the WAL restarts at `last_lsn + 1`.
    pub last_lsn: u64,
    /// WAL bytes truncated by this snapshot.
    pub truncated_wal_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::SourceKind;

    fn entity(id: u64, text: &str) -> Entity {
        let mut e = Entity::new(format!("uri://{id}"), SourceKind::Web, text);
        e.id = DocId(id);
        e.version = 1;
        e
    }

    fn storage_with_records(n: u64) -> DurableStorage {
        let storage = DurableStorage::in_memory(1).unwrap();
        for i in 0..n {
            storage.log(0, WalOp::Insert(entity(i, &format!("doc {i}"))));
        }
        storage
    }

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn record_round_trips_through_encoding() {
        let record = WalRecord {
            lsn: 7,
            sim_ms: 42,
            op: WalOp::Insert(entity(3, "hello world")),
        };
        let bytes = record.encode().unwrap();
        let len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        let payload = &bytes[8..8 + len];
        assert_eq!(crc32(payload), crc);
        let back = WalRecord::from_payload(std::str::from_utf8(payload).unwrap()).unwrap();
        assert_eq!(back, record);
    }

    #[test]
    fn fsync_markers_appear_on_cadence() {
        let storage = DurableStorage::in_memory(1).unwrap();
        let records = 2 * DEFAULT_FSYNC_INTERVAL;
        for i in 0..records {
            storage.log(0, WalOp::Insert(entity(i, "x")));
        }
        let recovery = storage.recover_shard(0).unwrap();
        assert_eq!(recovery.stats.replayed, records);
        assert_eq!(recovery.stats.fsync_points, 2);
        // the data records + 2 markers, contiguous LSNs
        assert_eq!(recovery.stats.last_lsn, records + 2);
        assert_eq!(recovery.stats.stop, StopReason::EndOfLog);
    }

    #[test]
    fn recovery_is_read_only_and_repeatable() {
        let storage = storage_with_records(5);
        let a = storage.recover_shard(0).unwrap();
        let b = storage.recover_shard(0).unwrap();
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.entities, b.entities);
        assert_eq!(a.entities.len(), 5);
    }

    #[test]
    fn snapshot_truncates_wal_and_replays_clean() {
        let store = DataStore::single();
        let storage = Arc::new(DurableStorage::in_memory(1).unwrap());
        store.attach_durability(Arc::clone(&storage)).unwrap();
        for i in 0..6 {
            store.insert(entity(i, &format!("doc {i}")));
        }
        let stats = storage.snapshot_shard(&store, NodeId(0)).unwrap();
        assert_eq!(stats.entities, 6);
        assert!(stats.truncated_wal_bytes > 0);
        assert_eq!(storage.wal_bytes(0), 0);
        store.insert(entity(100, "after snapshot"));
        let recovery = storage.recover_shard(0).unwrap();
        assert_eq!(recovery.stats.snapshot_entities, 6);
        assert_eq!(recovery.stats.replayed, 1);
        assert_eq!(recovery.stats.recovered_entities, 7);
        assert_eq!(recovery.stats.snapshot_lsn + 1, recovery.stats.last_lsn);
    }

    #[test]
    fn delete_records_replay() {
        let store = DataStore::single();
        let storage = Arc::new(DurableStorage::in_memory(1).unwrap());
        store.attach_durability(Arc::clone(&storage)).unwrap();
        let a = store.insert(entity(0, "keep"));
        let b = store.insert(entity(1, "drop"));
        store.delete(b);
        let recovery = storage.recover_shard(0).unwrap();
        assert_eq!(recovery.stats.replayed, 3);
        assert_eq!(recovery.stats.recovered_entities, 1);
        assert_eq!(recovery.entities[0].id, a);
    }

    #[test]
    fn torn_tail_stops_at_last_valid_record() {
        let storage = storage_with_records(10);
        let plan = crate::faults::FaultPlan::new(99);
        let mut stream = plan.stream("durable:0");
        let outcome = storage
            .inject_corruption(0, CorruptionKind::TornTail, &mut stream)
            .unwrap();
        let victim = outcome.victim_lsn.unwrap();
        let recovery = storage.recover_shard(0).unwrap();
        assert_eq!(recovery.stats.stop, StopReason::TornTail);
        assert_eq!(recovery.stats.last_lsn, victim - 1);
        assert_eq!(recovery.stats.recovered_entities, victim - 1);
        assert!(recovery.stats.truncated_bytes > 0);
    }

    #[test]
    fn bad_crc_stops_at_preceding_record() {
        let storage = storage_with_records(10);
        let plan = crate::faults::FaultPlan::new(7);
        let mut stream = plan.stream("durable:0");
        let outcome = storage
            .inject_corruption(0, CorruptionKind::BadCrc, &mut stream)
            .unwrap();
        let victim = outcome.victim_lsn.unwrap();
        let recovery = storage.recover_shard(0).unwrap();
        assert_eq!(recovery.stats.stop, StopReason::BadCrc);
        assert_eq!(recovery.stats.last_lsn, victim - 1);
        // the corrupt frame and everything after it are dropped
        assert_eq!(recovery.stats.truncated_records, 10 - (victim - 1));
    }

    /// Injects `BadCrc` into shard 0 under `seed` and returns the WAL
    /// before and after, with the outcome.
    fn flip_crc(storage: &DurableStorage, seed: u64) -> (Vec<u8>, Vec<u8>, CorruptionOutcome) {
        let before = storage.shards[0].wal.read_all().unwrap();
        let mut stream = crate::faults::FaultPlan::new(seed).stream("durable:0");
        let outcome = storage
            .inject_corruption(0, CorruptionKind::BadCrc, &mut stream)
            .unwrap();
        let after = storage.shards[0].wal.read_all().unwrap();
        (before, after, outcome)
    }

    #[test]
    fn bad_crc_on_a_lone_empty_frame_flips_its_checksum() {
        // one frame: payload length 0, CRC of nothing (0)
        let storage = DurableStorage::in_memory(1).unwrap();
        with_wal(&storage, &[0; WAL_HEADER_BYTES]);
        let (before, after, outcome) = flip_crc(&storage, 7);
        let flip = outcome.offset as usize;
        assert!((4..WAL_HEADER_BYTES).contains(&flip), "flip at {flip}");
        assert_eq!(after.len(), before.len());
        assert_eq!(after[flip], before[flip] ^ 0x5A);
        let recovery = storage.recover_shard(0).unwrap();
        assert_eq!(recovery.stats.stop, StopReason::BadCrc);
    }

    #[test]
    fn bad_crc_on_an_empty_frame_leaves_the_next_frame_alone() {
        let storage = storage_with_records(1);
        let record = storage.shards[0].wal.read_all().unwrap();
        let mut wal = vec![0; WAL_HEADER_BYTES];
        wal.extend_from_slice(&record);
        // try seeds until the draw picks the empty first frame, the one
        // victim without a record
        let (before, after, outcome) = (0..64)
            .map(|seed| {
                with_wal(&storage, &wal);
                flip_crc(&storage, seed)
            })
            .find(|(_, _, outcome)| outcome.victim_lsn.is_none())
            .expect("some seed picks the empty frame");
        let flip = outcome.offset as usize;
        assert!((4..WAL_HEADER_BYTES).contains(&flip), "flip at {flip}");
        assert_eq!(after[flip], before[flip] ^ 0x5A);
        assert_eq!(after[WAL_HEADER_BYTES..], before[WAL_HEADER_BYTES..]);
    }

    #[test]
    fn repair_truncates_to_valid_prefix_and_resumes_lsns() {
        let storage = storage_with_records(10);
        let plan = crate::faults::FaultPlan::new(3);
        let mut stream = plan.stream("durable:0");
        storage
            .inject_corruption(0, CorruptionKind::TornTail, &mut stream)
            .unwrap();
        let recovery = storage.recover_shard(0).unwrap();
        storage.repair_shard(0, &recovery).unwrap();
        assert_eq!(storage.wal_bytes(0), recovery.stats.valid_wal_bytes);
        assert_eq!(storage.next_lsn(0), recovery.stats.last_lsn + 1);
        storage.log(0, WalOp::Insert(entity(50, "post-repair")));
        let again = storage.recover_shard(0).unwrap();
        assert_eq!(again.stats.stop, StopReason::EndOfLog);
        assert_eq!(again.stats.last_lsn, recovery.stats.last_lsn + 1);
    }

    #[test]
    fn truncated_snapshot_keeps_valid_prefix() {
        let store = DataStore::single();
        let storage = Arc::new(DurableStorage::in_memory(1).unwrap());
        store.attach_durability(Arc::clone(&storage)).unwrap();
        for i in 0..8 {
            store.insert(entity(
                i,
                &format!("snapshot doc number {i} with padding text"),
            ));
        }
        storage.snapshot_shard(&store, NodeId(0)).unwrap();
        let plan = crate::faults::FaultPlan::new(11);
        let mut stream = plan.stream("durable:0");
        storage
            .inject_corruption(0, CorruptionKind::TruncatedSnapshot, &mut stream)
            .unwrap();
        let recovery = storage.recover_shard(0).unwrap();
        assert!(recovery.stats.snapshot_truncated);
        assert_eq!(recovery.stats.snapshot_declared, 8);
        assert!(recovery.stats.snapshot_entities < 8);
        assert_eq!(
            recovery.stats.recovered_entities,
            recovery.stats.snapshot_entities
        );
    }

    #[test]
    fn deeply_nested_snapshot_line_truncates_instead_of_aborting() {
        let store = DataStore::single();
        let storage = Arc::new(DurableStorage::in_memory(1).unwrap());
        store.attach_durability(Arc::clone(&storage)).unwrap();
        for i in 0..3 {
            store.insert(entity(i, "snapshot doc"));
        }
        storage.snapshot_shard(&store, NodeId(0)).unwrap();
        // header and first entity kept; the second entity line becomes
        // 200,000 open brackets (snapshot lines carry no checksum)
        let bytes = storage.shards[0].snapshot.read_all().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        lines[2] = "[".repeat(200_000);
        storage.shards[0]
            .snapshot
            .replace(lines.join("\n").as_bytes())
            .unwrap();
        let recovery = storage.recover_shard(0).unwrap();
        assert!(recovery.stats.snapshot_truncated);
        assert_eq!(recovery.stats.snapshot_declared, 3);
        assert_eq!(recovery.stats.snapshot_entities, 1);
    }

    #[test]
    fn file_sinks_round_trip_through_a_data_dir() {
        let dir = std::env::temp_dir().join(format!("wf-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let store = DataStore::new(2).unwrap();
            let storage = Arc::new(DurableStorage::at_dir(&dir, 2).unwrap());
            store.attach_durability(Arc::clone(&storage)).unwrap();
            for i in 0..10 {
                store.insert(entity(i, &format!("persisted doc {i}")));
            }
            storage.snapshot_shard(&store, NodeId(0)).unwrap();
        }
        let reopened = DurableStorage::open_dir(&dir).unwrap();
        assert_eq!(reopened.shard_count(), 2);
        let report = reopened.recovery_report().unwrap();
        assert!(report.clean());
        assert_eq!(report.total_recovered(), 10);
        // shard 0 recovered from its snapshot, shard 1 from pure replay
        assert_eq!(report.shards[0].snapshot_entities, 5);
        assert_eq!(report.shards[1].snapshot_entities, 0);
        assert_eq!(report.shards[1].replayed, 5);
        // double-run byte-identity of the canonical report
        assert_eq!(
            reopened.recovery_report().unwrap().to_json_string(),
            report.to_json_string()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_store_reproduces_ids_versions_and_annotations() {
        use crate::entity::Annotation;
        let store = DataStore::new(2).unwrap();
        let storage = Arc::new(DurableStorage::in_memory(2).unwrap());
        store.attach_durability(Arc::clone(&storage)).unwrap();
        for i in 0..10 {
            store.insert(entity(i, &format!("doc {i}")).with_metadata("k", format!("v{i}")));
        }
        storage.checkpoint(&store).unwrap();
        // a WAL tail over the snapshot: annotations bump versions
        for i in (0..10).step_by(3) {
            store
                .update(DocId(i), |e| {
                    e.annotate(
                        Annotation::new("sentiment", wf_types::Span::new(0, 3))
                            .with_attr("polarity", "+"),
                    )
                })
                .unwrap();
        }
        store.delete(DocId(4));
        // blank lines in a snapshot body are skipped
        storage.shards[0].snapshot.append(b"\n\n").unwrap();

        let (recovered, report) = storage.recover_store().unwrap();
        assert!(report.clean(), "{}", report.to_table());
        assert_eq!(report.total_recovered(), 9);
        assert_eq!(recovered.ids(), store.ids());
        for id in store.ids() {
            assert_eq!(recovered.get(id).unwrap(), store.get(id).unwrap());
        }
        assert_eq!(recovered.get(DocId(3)).unwrap().version, 2);
        // detached: reads and writes on the copy never touch the log
        assert!(recovered.durability().is_none());
        assert_eq!(recovered.insert(entity(0, "new")), DocId(10));
        assert_eq!(storage.recovery_report().unwrap(), report);
    }

    #[test]
    fn at_dir_unwritable_path_errors_cleanly() {
        let file = std::env::temp_dir().join(format!("wf-durable-file-{}", std::process::id()));
        std::fs::write(&file, "not a directory").unwrap();
        let err = DurableStorage::at_dir(file.join("sub"), 2).unwrap_err();
        assert!(err.to_string().contains("cannot create data dir"), "{err}");
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn open_dir_without_layout_errors() {
        let dir = std::env::temp_dir().join(format!("wf-durable-empty-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let err = DurableStorage::open_dir(&dir).unwrap_err();
        assert!(err.to_string().contains("no shard-* layout"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn report_renders_table_and_json() {
        let storage = storage_with_records(3);
        let report = storage.recovery_report().unwrap();
        let table = report.to_table();
        assert!(table.contains("SHARD"), "{table}");
        assert!(table.contains("clean"), "{table}");
        let json = report.to_json_string();
        assert!(json.contains("\"recovered_entities\""), "{json}");
        let parsed: Value = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed.get("clean").and_then(Value::as_bool), Some(true));

        // every stop reason renders its label
        let stops = [
            StopReason::EndOfLog,
            StopReason::TornTail,
            StopReason::BadCrc,
            StopReason::BadPayload,
        ];
        let shards = stops
            .iter()
            .map(|&stop| ShardRecoveryStats {
                stop,
                ..report.shards[0].clone()
            })
            .collect();
        let json = RecoveryReport { shards }.to_json_string();
        let parsed: Value = serde_json::from_str(&json).unwrap();
        let rendered: Vec<&str> = parsed
            .get("shards")
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|s| s.get("stop").and_then(Value::as_str).unwrap())
            .collect();
        let labels: Vec<&str> = stops.iter().map(|s| s.label()).collect();
        assert_eq!(rendered, labels);
        assert_eq!(
            labels,
            ["end_of_log", "torn_tail", "bad_crc", "bad_payload"]
        );
    }

    /// The frame reader walks `bytes` as back-to-back frames from offset
    /// 0 and never reads past the end.
    fn assert_frames_tile_a_prefix(
        bytes: &[u8],
    ) -> std::result::Result<(), proptest::TestCaseError> {
        let mut end = 0;
        for frame in wal_frames(bytes, 0) {
            proptest::prop_assert_eq!(frame.offset, end);
            end = frame.end();
        }
        proptest::prop_assert!(end <= bytes.len());
        Ok(())
    }

    /// Replaces shard 0's WAL with `bytes`.
    fn with_wal(storage: &DurableStorage, bytes: &[u8]) {
        storage.shards[0].wal.replace(bytes).unwrap();
    }

    proptest::proptest! {
        /// A valid WAL prefix followed by arbitrary bytes, raw or framed
        /// with a correct header and checksum (so the payload decoder sees
        /// them), never panics recovery, which replays exactly the valid
        /// frames before the first bad one.
        #[test]
        fn recovery_replays_the_valid_prefix_of_a_hostile_wal(
            records in 0u64..6,
            garbage in proptest::prop::collection::vec(0u8..=255, 0..64),
            framed in 0u8..2,
        ) {
            let storage = storage_with_records(records);
            let expected = storage.recover_shard(0).unwrap().entities;
            let mut bytes = storage.shards[0].wal.read_all().unwrap();
            let valid = bytes.len() as u64;
            if framed == 1 {
                bytes.extend_from_slice(&(garbage.len() as u32).to_le_bytes());
                bytes.extend_from_slice(&crc32(&garbage).to_le_bytes());
            }
            bytes.extend_from_slice(&garbage);
            with_wal(&storage, &bytes);
            let recovery = storage.recover_shard(0).unwrap();
            proptest::prop_assert_eq!(recovery.stats.wal_records, records);
            proptest::prop_assert_eq!(recovery.stats.valid_wal_bytes, valid);
            proptest::prop_assert_eq!(&recovery.entities, &expected);
            let clean = recovery.stats.stop == StopReason::EndOfLog;
            proptest::prop_assert_eq!(clean, bytes.len() as u64 == valid);
            proptest::prop_assert_eq!(recovery.stats.truncated_records > 0, !clean);
            assert_frames_tile_a_prefix(&bytes)?;
        }

        /// A log of arbitrary bytes never panics recovery or framing, and
        /// replays nothing: no frame of random bytes carries a valid
        /// checksum and payload.
        #[test]
        fn recovery_of_an_arbitrary_wal_never_panics(
            bytes in proptest::prop::collection::vec(0u8..=255, 0..256),
        ) {
            let storage = DurableStorage::in_memory(1).unwrap();
            with_wal(&storage, &bytes);
            let recovery = storage.recover_shard(0).unwrap();
            proptest::prop_assert_eq!(recovery.stats.wal_records, 0);
            proptest::prop_assert!(recovery.entities.is_empty());
            proptest::prop_assert_eq!(recovery.stats.valid_wal_bytes, 0);
            proptest::prop_assert_eq!(recovery.stats.truncated_bytes, bytes.len() as u64);
            assert_frames_tile_a_prefix(&bytes)?;
        }
    }
}
