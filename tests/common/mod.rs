//! The pinned chaos serving scenario shared by `tests/serving.rs`,
//! `tests/evlog.rs` and `tests/timeline_profile.rs`, so their goldens
//! describe one run family: a 24-document store annotated directly (no
//! NLP pipeline) with four subjects, served under injected faults while
//! a shard turns slow a third of the way in and a node is lost at the
//! halfway mark. Also the golden-file check those suites share.

use std::sync::Arc;
use wf_platform::{
    Annotation, DataStore, Entity, FaultPlan, NodeHealth, ServeLoop, ServingConfig, SourceKind,
    Telemetry,
};
use wf_sentiment::{SentimentServingBackend, ShardedSentimentIndex};
use wf_types::{Polarity, Span};

pub const CHAOS_SEED: u64 = 20050405;
pub const SUBJECTS: [&str; 4] = ["alpha", "beta", "gamma", "delta"];
pub const POLARITIES: [Polarity; 3] = [Polarity::Positive, Polarity::Negative, Polarity::Neutral];

/// Decodes one generated mark (0..12) into a (subject, polarity) pair.
pub fn decode(mark: usize) -> (&'static str, Polarity) {
    (SUBJECTS[mark % 4], POLARITIES[(mark / 4) % 3])
}

/// One document per mark, annotated directly so the property fixtures
/// stay fast across the shim's 64 cases.
pub fn seeded_store(shards: usize, marks: &[usize]) -> DataStore {
    let store = DataStore::new(shards).unwrap();
    for (i, &mark) in marks.iter().enumerate() {
        let (subject, polarity) = decode(mark);
        let text = format!("document {i} mentions {subject} here");
        let mut entity = Entity::new(format!("test://chaos/{i}"), SourceKind::Web, &text);
        entity.annotations.push(
            Annotation::new("sentiment", Span::new(0, text.len()))
                .with_attr("subject", subject.to_string())
                .with_attr("polarity", polarity.to_string()),
        );
        store.insert(entity);
    }
    store
}

/// The full request surface: every subject, both top-k forms, and an
/// unknown subject to keep the error path in play.
pub fn full_workload() -> Vec<String> {
    let mut pool: Vec<String> = SUBJECTS
        .iter()
        .map(|s| format!("sentiment of {s}"))
        .collect();
    pool.push("sentiment of alpha".to_string()); // popularity skew
    pool.push("sentiment of alpha".to_string());
    pool.push("top 2 +".to_string());
    pool.push("top 3 -".to_string());
    pool.push("sentiment of zorblax".to_string());
    pool
}

/// The scenario's backend: each of the 12 marks twice, over 4 shards.
pub fn chaos_backend() -> SentimentServingBackend {
    let marks: Vec<usize> = (0..24).map(|i| i % 12).collect();
    SentimentServingBackend::new(ShardedSentimentIndex::build_from_store(&seeded_store(
        4, &marks,
    )))
}

/// The scenario's serve loop over `backend` under `seed`: 240 requests
/// at fail rate 0.15, shard 1 degraded at request 80 and shard 2 down
/// at request 120.
pub fn chaos_serve_loop(
    backend: &SentimentServingBackend,
    telemetry: Arc<Telemetry>,
    seed: u64,
) -> ServeLoop<'_> {
    let config = ServingConfig {
        seed,
        clients: 6,
        qps: 800,
        requests: 240,
        cache_capacity: 8,
        queue_capacity: 32,
        ..ServingConfig::default()
    };
    ServeLoop::new(backend, telemetry, config, full_workload())
        .with_fault_plan(FaultPlan::uniform(seed, 0.15))
        .with_trigger(80, || backend.set_shard_health(1, NodeHealth::Degraded))
        .with_trigger(120, || backend.set_shard_health(2, NodeHealth::Down))
}

/// Asserts that `actual` equals `tests/golden/NAME` byte for byte.
/// With `UPDATE_GOLDEN=1` it rewrites the golden instead.
pub fn assert_golden(name: &str, actual: &str) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("golden exists; UPDATE_GOLDEN=1 to create");
    assert_eq!(
        actual, golden,
        "{name} drifted from its golden; UPDATE_GOLDEN=1 to regen"
    );
}
