//! Acceptance suite for the query-time sentiment serving tier
//! (`wf_platform::serving` + `wf_sentiment::{sindex, serve}`).
//!
//! Locks down the PR's guarantees end to end:
//!
//! 1. **Cache coherence** (property) — any answer served from the LRU
//!    result cache is byte-identical to recomputing the same request
//!    against the sentiment index.
//! 2. **Shard-merge** (property) — merging per-shard postings of a
//!    4-way sharded index reproduces exactly the single-shard build:
//!    same postings, same summaries, same top-k ranking.
//! 3. **Conservation under chaos** — with a pinned seed, injected
//!    faults, a mid-stream slow shard, and a mid-stream node loss,
//!    every arrival is accounted for: `requests == ok + shed + errors`,
//!    on both the report and the `serving.*` telemetry counters.
//! 4. **Determinism** — same-seed chaos runs export byte-identical
//!    reports and byte-identical `serving.*` telemetry snapshots, and
//!    the snapshot matches a golden file (`UPDATE_GOLDEN=1` regens).
//! 5. **SLO wiring** — the serving-latency SLO from `default_slos()`
//!    fires under the chaos scenario, so `wfsm doctor` observes the
//!    serving tier like any other subsystem.

mod common;

use common::{
    assert_golden, chaos_backend, chaos_serve_loop, decode, full_workload, seeded_store,
    CHAOS_SEED, POLARITIES,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;
use wf_platform::{
    default_slos, Annotation, DataStore, Entity, HealthEngine, RunDiff, ServeLoop, ServingBackend,
    ServingConfig, SourceKind, Telemetry, TelemetrySnapshot,
};
use wf_sentiment::{
    SentimentPosting, SentimentServingBackend, ShardedSentimentIndex, SubjectSummary,
};
use wf_types::{DocId, Polarity, Span};

/// Renders only the `serving.*` slice of a telemetry snapshot, so the
/// byte-identity assertions are not diluted by unrelated subsystems.
fn serving_snapshot_json(snapshot: &TelemetrySnapshot) -> String {
    let mut filtered = TelemetrySnapshot::default();
    for (name, value) in &snapshot.counters {
        if name.starts_with("serving.") {
            filtered.counters.insert(name.clone(), *value);
        }
    }
    for (name, value) in &snapshot.gauges {
        if name.starts_with("serving.") {
            filtered.gauges.insert(name.clone(), *value);
        }
    }
    for (name, value) in &snapshot.histograms {
        if name.starts_with("serving.") {
            filtered.histograms.insert(name.clone(), value.clone());
        }
    }
    filtered.to_json_string() + "\n"
}

/// The per-request recount the shard tallies replaced: one subject's
/// polarity counts from its merged postings.
fn recounted_summary(index: &ShardedSentimentIndex, subject: &str) -> Option<SubjectSummary> {
    let postings = index.merged_postings(subject);
    if postings.is_empty() {
        return None;
    }
    let mut summary = SubjectSummary {
        subject: subject.to_string(),
        ..SubjectSummary::default()
    };
    for posting in postings {
        match posting.polarity {
            Polarity::Positive => summary.positive += 1,
            Polarity::Negative => summary.negative += 1,
            Polarity::Neutral => summary.neutral += 1,
        }
    }
    Some(summary)
}

/// Top-k from recounted summaries of every subject.
fn recounted_top_k(
    index: &ShardedSentimentIndex,
    k: usize,
    polarity: Polarity,
) -> Vec<SubjectSummary> {
    let mut ranked: Vec<SubjectSummary> = index
        .subjects()
        .iter()
        .filter_map(|subject| recounted_summary(index, subject))
        .collect();
    ranked.sort_by(|a, b| {
        b.count(polarity)
            .cmp(&a.count(polarity))
            .then_with(|| a.subject.cmp(&b.subject))
    });
    ranked.truncate(k);
    ranked
}

/// The body and cost a request's answer must have, recounted from merged
/// postings; `None` when the subject is unknown.
fn recounted_answer(index: &ShardedSentimentIndex, request: &str) -> Option<(String, u64)> {
    if let Some(subject) = request.strip_prefix("sentiment of ") {
        let s = recounted_summary(index, subject)?;
        let body = format!(
            "{{\"negative\":{},\"net\":{},\"neutral\":{},\"positive\":{},\"postings\":{},\"subject\":\"{}\"}}",
            s.negative,
            s.net(),
            s.neutral,
            s.positive,
            s.total(),
            s.subject
        );
        return Some((body, s.total()));
    }
    let [_, k, sign] = request.split(' ').collect::<Vec<_>>()[..] else {
        panic!("unexpected request {request:?}");
    };
    let polarity = Polarity::parse(sign).unwrap();
    let top: Vec<String> = recounted_top_k(index, k.parse().unwrap(), polarity)
        .iter()
        .map(|s| {
            format!(
                "{{\"count\":{},\"net\":{},\"subject\":\"{}\"}}",
                s.count(polarity),
                s.net(),
                s.subject
            )
        })
        .collect();
    let body = format!("{{\"polarity\":\"{sign}\",\"top\":[{}]}}", top.join(","));
    let postings: usize = index
        .subjects()
        .iter()
        .map(|subject| index.merged_postings(subject).len())
        .sum();
    Some((body, postings as u64))
}

/// The trimmed sentence a posting locates, read from the store that
/// holds its document.
fn sentence_text(store: &DataStore, posting: &SentimentPosting) -> String {
    store
        .read(posting.doc, |e| {
            posting.sentence_span.slice(&e.text).trim().to_string()
        })
        .expect("a posting's document is stored")
}

/// A posting with its subject left out, for comparing merged lists.
fn located(posting: SentimentPosting) -> (DocId, u32, Span, Polarity) {
    (
        posting.doc,
        posting.shard,
        posting.sentence_span,
        posting.polarity,
    )
}

/// An entity carrying one sentiment annotation per mark, each over its
/// own ten-byte slice of the text.
fn marked_entity(id: u64, marks: &[usize]) -> Entity {
    let text = "0123456789".repeat(marks.len());
    let mut entity = Entity::new(format!("test://tally/{id}"), SourceKind::Web, &text);
    entity.id = DocId(id);
    for (i, &mark) in marks.iter().enumerate() {
        let (subject, polarity) = decode(mark);
        entity.annotations.push(
            Annotation::new("sentiment", Span::new(i * 10, i * 10 + 10))
                .with_attr("subject", subject.to_uppercase())
                .with_attr("polarity", polarity.to_string()),
        );
    }
    entity
}

proptest! {
    /// Tallies track every layout change: after any sequence of
    /// incremental adds, shard losses and shard rebuilds, `summary`,
    /// `top_k`, and every backend answer and its cost equal a recount
    /// of the merged postings.
    #[test]
    fn tallies_match_a_recount_of_merged_postings(
        steps in prop::collection::vec((0u8..4, 0u32..5, prop::collection::vec(0usize..12, 1..4)), 1..30),
    ) {
        let mut index = ShardedSentimentIndex::new(4);
        // what each shard's node still holds after a loss, for rebuilds
        let mut owned: Vec<Vec<Entity>> = vec![Vec::new(); 4];
        for (id, (op, shard, marks)) in steps.iter().enumerate() {
            let slot = (*shard as usize).min(3);
            match op {
                0 | 1 => {
                    let entity = marked_entity(id as u64, marks);
                    index.add_entity(&entity, *shard);
                    owned[slot].push(entity);
                }
                2 => {
                    index.clear_shard(*shard);
                }
                _ => {
                    let count = index.rebuild_shard(*shard, &owned[slot]);
                    prop_assert_eq!(count, index.shard(slot).posting_count());
                }
            }
        }
        let subjects = index.subjects();
        for subject in &subjects {
            prop_assert_eq!(index.summary(subject), recounted_summary(&index, subject));
        }
        prop_assert!(index.summary("zorblax").is_none());
        for polarity in POLARITIES {
            for k in [1, 2, 5] {
                prop_assert_eq!(index.top_k(k, polarity), recounted_top_k(&index, k, polarity));
            }
        }
        let expected: Vec<(String, Option<(String, u64)>)> = full_workload()
            .into_iter()
            .chain(["top 1 0".to_string(), "top 5 -".to_string()])
            .map(|request| {
                let answer = recounted_answer(&index, &request);
                (request, answer)
            })
            .collect();
        let backend = SentimentServingBackend::new(index);
        for (request, answer) in expected {
            let served = backend.execute(&request).ok().map(|a| (a.body, a.cost_sim_ms));
            prop_assert!(
                served == answer,
                "{:?}: served {:?}, recounted {:?}",
                request,
                served,
                answer
            );
        }
    }

    /// Cache-coherence invariant: every answer the serve loop marks as
    /// a cache hit carries exactly the bytes a fresh recomputation from
    /// the sentiment index produces.
    #[test]
    fn cache_hits_match_recomputation(
        marks in prop::collection::vec(0usize..12, 4..40),
        seed in 0u64..100_000,
    ) {
        let store = seeded_store(4, &marks);
        let backend = SentimentServingBackend::new(ShardedSentimentIndex::build_from_store(&store));
        let config = ServingConfig {
            seed,
            clients: 4,
            qps: 400,
            requests: 48,
            cache_capacity: 3, // small: force evictions and re-inserts
            record_answers: true,
            ..ServingConfig::default()
        };
        let report = ServeLoop::new(&backend, Telemetry::new(), config, full_workload())
            .run()
            .unwrap();
        prop_assert_eq!(report.answers.len() as u64, report.ok + report.errors);
        let mut hits_checked = 0;
        for answer in &report.answers {
            if !answer.cached {
                continue;
            }
            let fresh = backend.execute(&answer.request).unwrap();
            prop_assert!(
                answer.body == fresh.body,
                "cache hit for {:?} diverged from recomputation",
                &answer.request
            );
            hits_checked += 1;
        }
        prop_assert_eq!(hits_checked, report.cache_hits);
    }

    /// Shard-merge invariant: building the index 4-way sharded and
    /// merging per-shard postings reproduces the single-shard build
    /// exactly — postings, summaries, and top-k ranking.
    #[test]
    fn sharded_index_merges_to_single_shard_build(
        marks in prop::collection::vec(0usize..12, 1..40),
    ) {
        let (sharded_store, single_store) = (seeded_store(4, &marks), seeded_store(1, &marks));
        let sharded = ShardedSentimentIndex::build_from_store(&sharded_store);
        let single = ShardedSentimentIndex::build_from_store(&single_store);
        prop_assert_eq!(sharded.shard_count(), 4);
        prop_assert_eq!(single.shard_count(), 1);
        prop_assert_eq!(sharded.posting_count(), single.posting_count());
        prop_assert_eq!(sharded.subjects(), single.subjects());
        for subject in sharded.subjects() {
            let merged = sharded.merged_postings(&subject);
            let flat = single.merged_postings(&subject);
            prop_assert_eq!(merged.len(), flat.len());
            for (m, f) in merged.iter().zip(flat.iter()) {
                prop_assert_eq!(m.doc, f.doc);
                prop_assert_eq!(m.subject.clone(), f.subject.clone());
                prop_assert_eq!(m.polarity, f.polarity);
                prop_assert_eq!(m.sentence_span, f.sentence_span);
                prop_assert_eq!(
                    sentence_text(&sharded_store, m),
                    sentence_text(&single_store, f)
                );
            }
            prop_assert_eq!(sharded.summary(&subject), single.summary(&subject));
        }
        for polarity in POLARITIES {
            prop_assert_eq!(sharded.top_k(3, polarity), single.top_k(3, polarity));
        }
    }

    /// The bulk build, one worker per run of store shards, equals a
    /// sequential fold of `add_entity` over the same entities in a
    /// shuffled order, at every shard count from 1 to 6 (more shards
    /// than hardware threads included): the same per-shard postings,
    /// tallies and top-k.
    #[test]
    fn threaded_build_equals_a_shuffled_sequential_fold(
        shards in 1usize..7,
        docs in prop::collection::vec(prop::collection::vec(0usize..12, 1..4), 1..40),
        seed in 0u64..1_000_000,
    ) {
        let store = DataStore::new(shards).unwrap();
        for (i, marks) in docs.iter().enumerate() {
            store.insert(marked_entity(i as u64, marks));
        }
        let built = ShardedSentimentIndex::build_from_store(&store);

        let mut entities: Vec<Entity> = Vec::new();
        store.for_each(|e| entities.push(e.clone()));
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..entities.len()).rev() {
            entities.swap(i, rng.random_range(0..i + 1));
        }
        let mut folded = ShardedSentimentIndex::new(shards);
        for entity in &entities {
            folded.add_entity(entity, store.node_of(entity.id).0);
        }

        prop_assert_eq!(built.shard_count(), shards);
        for shard in 0..shards {
            prop_assert_eq!(built.shard(shard).posting_count(), folded.shard(shard).posting_count());
        }
        prop_assert_eq!(built.subjects(), folded.subjects());
        for subject in built.subjects() {
            prop_assert_eq!(built.summary(&subject), folded.summary(&subject));
            let merged: Vec<_> = built.merged_postings(&subject).into_iter().map(located).collect();
            let expected: Vec<_> = folded.merged_postings(&subject).into_iter().map(located).collect();
            prop_assert_eq!(merged, expected);
        }
        for polarity in POLARITIES {
            for k in [1, 3, 12] {
                prop_assert_eq!(built.top_k(k, polarity), folded.top_k(k, polarity));
            }
        }
    }
}

/// Runs the chaos scenario and returns the report plus the `serving.*`
/// telemetry export; optionally drives a health engine on the side.
fn chaos_run(
    seed: u64,
    mut engine: Option<&mut HealthEngine>,
) -> (wf_platform::ServingReport, String) {
    let backend = chaos_backend();
    let telemetry = Telemetry::new();
    if let Some(engine) = engine.as_deref_mut() {
        *engine = HealthEngine::with_telemetry(default_slos(), Arc::clone(&telemetry));
    }
    let telemetry_for_observer = Arc::clone(&telemetry);
    let mut observe = || {
        if let Some(engine) = engine.as_deref_mut() {
            let now = telemetry_for_observer.clock().now();
            engine.observe(now, &telemetry_for_observer.snapshot());
        }
    };
    let report = chaos_serve_loop(&backend, Arc::clone(&telemetry), seed)
        .run_observed(&mut observe)
        .unwrap();
    (report, serving_snapshot_json(&telemetry.snapshot()))
}

/// Conservation law: every arrival is exactly one of ok / shed / error,
/// on the report and on the exported counters alike — even with faults,
/// a degraded shard, and a node loss mid-stream.
#[test]
fn chaos_stream_conserves_every_request() {
    let backend = chaos_backend();
    let telemetry = Telemetry::new();
    let report = chaos_serve_loop(&backend, Arc::clone(&telemetry), CHAOS_SEED)
        .run()
        .unwrap();

    assert_eq!(report.requests, 240);
    assert_eq!(
        report.requests,
        report.ok + report.shed + report.errors,
        "conservation law violated: {report:?}"
    );
    let snapshot = telemetry.snapshot();
    assert_eq!(snapshot.counter("serving.requests"), report.requests);
    assert_eq!(
        snapshot.counter("serving.requests"),
        snapshot.counter("serving.ok")
            + snapshot.counter("serving.shed")
            + snapshot.counter("serving.errors"),
    );
    // The scenario actually exercises every path: successes before (and
    // cached ones after) the node loss, shedding under the slow shard's
    // convoy, and Unavailable/NotFound/injected errors.
    assert!(report.ok > 0, "no request succeeded: {report:?}");
    assert!(report.shed > 0, "admission control never shed: {report:?}");
    assert!(
        report.errors > 0,
        "node loss produced no errors: {report:?}"
    );
    assert!(report.cache_hits > 0, "cache never hit: {report:?}");
    assert_eq!(
        snapshot
            .histogram("serving.latency.sim_ms")
            .map(|h| h.count)
            .unwrap_or_default(),
        report.ok + report.errors,
        "every completion records a latency sample"
    );
}

/// Same seed, same bytes: the full report and the `serving.*` telemetry
/// export are byte-identical across runs. A different seed produces a
/// different trajectory (sanity check that the assertion has teeth).
#[test]
fn same_seed_chaos_runs_are_byte_identical() {
    let (report_a, snapshot_a) = chaos_run(CHAOS_SEED, None);
    let (report_b, snapshot_b) = chaos_run(CHAOS_SEED, None);
    assert_eq!(report_a.to_json_string(), report_b.to_json_string());
    assert_eq!(snapshot_a, snapshot_b, "serving.* export must not drift");

    let (_, snapshot_other) = chaos_run(CHAOS_SEED + 1, None);
    assert_ne!(
        snapshot_a, snapshot_other,
        "different seeds should diverge; assertion would be vacuous"
    );
}

/// The `serving.*` export of the pinned chaos scenario matches the
/// checked-in golden byte for byte. `UPDATE_GOLDEN=1` regenerates.
#[test]
fn serving_snapshot_matches_golden() {
    let (_, snapshot) = chaos_run(CHAOS_SEED, None);
    assert_golden("serving_snapshot.json", &snapshot);
}

/// The pinned chaos scenario's report (`wfsm serve --format json`)
/// matches the checked-in golden byte for byte. `UPDATE_GOLDEN=1`
/// regenerates.
#[test]
fn serving_report_matches_golden() {
    let (report, _) = chaos_run(CHAOS_SEED, None);
    assert_golden("serving_report.json", &report.to_json_string());
}

/// The metrics diff of two seeds' `serving.*` exports (`wfsm diff
/// --format json` over two metrics snapshots) matches the checked-in
/// golden byte for byte. `UPDATE_GOLDEN=1` regenerates.
#[test]
fn serving_metrics_diff_matches_golden() {
    let (_, a) = chaos_run(CHAOS_SEED, None);
    let (_, b) = chaos_run(CHAOS_SEED + 1, None);
    let diff = RunDiff::between_texts(&a, &b).unwrap();
    assert!(!diff.counters.is_empty(), "the seeds must diverge");
    assert_golden("serving_metrics_diff.json", &diff.to_json_string());
}

/// The serving SLOs added to `default_slos()` actually observe the
/// workload: the latency objective breaches (and fires) under the slow
/// shard + node loss, deterministically.
#[test]
fn serving_slo_fires_under_chaos() {
    let mut engine = HealthEngine::with_telemetry(default_slos(), Telemetry::new());
    let (report, _) = chaos_run(CHAOS_SEED, Some(&mut engine));
    assert!(report.errors > 0);
    let status = engine.status();
    let latency = status
        .iter()
        .find(|s| s.name == "serving-latency-p95")
        .expect("default_slos carries the serving latency SLO");
    assert!(
        latency.firing,
        "slow-shard chaos must breach the serving latency SLO: {status:?}"
    );
    assert!(
        status.iter().any(|s| s.name == "serving-error-rate"),
        "default_slos carries the serving error-rate SLO"
    );
}
