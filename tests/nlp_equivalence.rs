//! Differential-equivalence harness for the zero-copy batched NLP hot path.
//!
//! The optimized paths — span tokens + arena scratch in `wf_nlp`, the
//! batched miners, and the delta+varint compressed postings in
//! `wf_platform::index` — must be *observationally identical* to the frozen
//! naive implementations (`wf_nlp::naive`, `Indexer::naive`). Every test
//! here drives both sides with the same input and asserts equal output:
//!
//! - proptest differentials over arbitrary text and corpus-generated docs
//!   (tokens, tags, chunks, clauses, entities, sentiment records),
//!   including spot-first (lazy) mining against eager references;
//! - naive vs compressed index agreement on every query kind;
//! - varint/delta codec round-trips including edge cases;
//! - a pruning invariant: skip pointers strictly reduce postings scanned
//!   on AND queries (observed via `index.postings_scanned`);
//! - a pinned golden snapshot of the batch API's output
//!   (`tests/golden/nlp_batch_snapshot.json`, regen with `UPDATE_GOLDEN=1`).
//!
//! CI runs this suite under a `PROPTEST_SEED` matrix so three independent
//! case streams must pass.

use std::sync::OnceLock;

use proptest::prelude::*;
use webfountain_sentiment::corpus::vocab::{
    CAMERA_FEATURES, CAMERA_PRODUCTS, MUSIC_ARTISTS, MUSIC_FEATURES,
};
use webfountain_sentiment::corpus::{camera_reviews, music_reviews, ReviewConfig, SlotWeights};
use webfountain_sentiment::nlp::{naive, DocScratch, Pipeline, StageCosts};
use webfountain_sentiment::platform::{CompressedPostings, Entity, Indexer, Query, SourceKind};
use webfountain_sentiment::sentiment::SentimentMiner;
use webfountain_sentiment::spotter::{Spotter, SubjectList};
use webfountain_sentiment::types::DocId;

fn pipeline() -> &'static Pipeline {
    static PIPELINE: OnceLock<Pipeline> = OnceLock::new();
    PIPELINE.get_or_init(Pipeline::new)
}

fn miner() -> &'static SentimentMiner {
    static MINER: OnceLock<SentimentMiner> = OnceLock::new();
    MINER.get_or_init(SentimentMiner::with_default_resources)
}

/// A handful of documents per corpus keeps each proptest case cheap while
/// still exercising every sentence template.
fn tiny_config() -> ReviewConfig {
    ReviewConfig {
        n_plus: 3,
        n_minus: 3,
        mention_slots: 2,
        feature_sentences: 2,
        weights: SlotWeights::default(),
    }
}

/// Every review product, artist and feature as a Mode A subject, with
/// its compiled spotter.
fn review_subjects() -> &'static (SubjectList, Spotter) {
    static SUBJECTS: OnceLock<(SubjectList, Spotter)> = OnceLock::new();
    SUBJECTS.get_or_init(|| {
        let mut builder = SubjectList::builder();
        for subject in [
            CAMERA_PRODUCTS,
            MUSIC_ARTISTS,
            CAMERA_FEATURES,
            MUSIC_FEATURES,
        ]
        .concat()
        {
            builder = builder.subject(subject, [subject]);
        }
        let subjects = builder.build();
        let spotter = Spotter::new(&subjects);
        (subjects, spotter)
    })
}

/// Corpus-generated document texts for one seed (both domains).
fn corpus_texts(seed: u64) -> Vec<String> {
    let cfg = tiny_config();
    let mut texts = Vec::new();
    for corpus in [camera_reviews(seed, &cfg), music_reviews(seed ^ 1, &cfg)] {
        texts.extend(corpus.d_plus_texts());
        texts.extend(corpus.d_minus_texts());
    }
    texts
}

// ---------------------------------------------------------------------------
// NLP pipeline differentials: naive (frozen seed code) vs span/batched path
// ---------------------------------------------------------------------------

proptest! {
    /// On arbitrary unicode text, the span pipeline reproduces the naive
    /// path's full sentence analyses and named entities exactly.
    #[test]
    fn span_pipeline_matches_naive_on_arbitrary_text(text in "\\PC{0,200}") {
        prop_assert_eq!(pipeline().analyze(&text), naive::analyze(&text));
        prop_assert_eq!(pipeline().named_entities(&text), naive::named_entities(&text));
    }

    /// Tokenizer equivalence on punctuation/clitic-heavy ASCII (the split
    /// heuristics' home turf), including spans.
    #[test]
    fn tokenizer_matches_naive(text in "[a-zA-Z0-9 ,.!?'\"()-]{0,160}") {
        let fast = webfountain_sentiment::nlp::tokenizer::tokenize(&text);
        prop_assert_eq!(fast, naive::tokenize(&text));
    }

    /// Batch annotation over corpus-generated documents — shared scratch
    /// across the whole batch — matches the naive per-document path
    /// sentence-for-sentence and entity-for-entity.
    #[test]
    fn batch_annotation_matches_naive_on_corpus_docs(seed in 0u64..10_000) {
        let texts = corpus_texts(seed);
        let batch = pipeline().annotate_batch(&texts);
        prop_assert_eq!(batch.len(), texts.len());
        for (text, doc) in texts.iter().zip(&batch) {
            prop_assert_eq!(&doc.sentences, &naive::analyze(text));
            prop_assert_eq!(&doc.entities, &naive::named_entities(text));
        }
    }

    /// Mode-B sentiment: the single-pass path, its batch form, and the
    /// naive-based reference oracle all emit identical records.
    #[test]
    fn sentiment_batch_and_reference_agree(seed in 0u64..10_000) {
        let texts = corpus_texts(seed);
        let (batched, _) = miner().analyze_named_entities_batch(&texts);
        prop_assert_eq!(batched.len(), texts.len());
        for (text, records) in texts.iter().zip(&batched) {
            prop_assert_eq!(records, &miner().analyze_named_entities(text));
            prop_assert_eq!(records, &miner().analyze_named_entities_reference(text));
        }
    }

    /// Mode-A sentiment: the spot-first path, which parses only the
    /// sentences holding a spot, emits the records of the eager reference
    /// that parses every sentence with the naive path.
    #[test]
    fn mode_a_spot_first_matches_eager_reference(seed in 0u64..10_000) {
        let (subjects, spotter) = review_subjects();
        for text in corpus_texts(seed) {
            prop_assert_eq!(
                miner().analyze_with_spotter(&text, subjects, spotter),
                miner().analyze_with_spotter_reference(&text, subjects, spotter)
            );
        }
    }

    /// Scratch reuse leaves no residue: interleaving long and short (and
    /// empty) documents in one batch changes nothing.
    #[test]
    fn scratch_reuse_is_residue_free(texts in prop::collection::vec("\\PC{0,120}", 0..8)) {
        let mut with_empties: Vec<String> = Vec::new();
        for t in &texts {
            with_empties.push(t.clone());
            with_empties.push(String::new());
        }
        let batch = pipeline().annotate_batch(&with_empties);
        let mut scratch = DocScratch::new();
        for (text, doc) in with_empties.iter().zip(&batch) {
            prop_assert_eq!(doc, &pipeline().analyze_doc(text, &mut scratch));
            prop_assert_eq!(&doc.sentences, &naive::analyze(text));
        }
    }
}

/// Mode B parses only the sentences holding an entity: a page with none
/// yields no records and charges its tokens to `tokenize` alone.
#[test]
fn mode_b_page_without_entities_parses_nothing() {
    let page = "the camera is great. it works well, and the lens is sharp.";
    let (records, costs) = miner().analyze_named_entities_batch(&[page]);
    assert_eq!(records, vec![Vec::new()]);
    assert_eq!(
        costs,
        StageCosts {
            tokenize: 15,
            ..StageCosts::default()
        }
    );
}

// ---------------------------------------------------------------------------
// Postings codec: round trips + edge cases
// ---------------------------------------------------------------------------

/// Deterministic positions for a doc id (ascending, length `doc % 4`).
fn positions_for(doc: u64) -> Vec<u32> {
    let n = (doc % 4) as u32;
    let base = (doc as u32).wrapping_mul(2_654_435_761) % 1000;
    (0..n).map(|i| base + i * (1 + base % 7)).collect()
}

proptest! {
    /// Delta+varint encoding round-trips arbitrary ascending posting lists,
    /// positions included.
    #[test]
    fn postings_round_trip(deltas in prop::collection::vec(1u64..5_000, 0..120)) {
        let mut doc = 0u64;
        let mut entries: Vec<(DocId, Vec<u32>)> = Vec::new();
        for d in deltas {
            doc += d;
            entries.push((DocId(doc), positions_for(doc)));
        }
        let cp = CompressedPostings::from_entries(&entries);
        prop_assert_eq!(cp.doc_count(), entries.len());
        prop_assert_eq!(cp.decode(), entries);
    }

    /// `advance_to` agrees with linear search over the decoded list, from
    /// any starting point, and never decodes more entries than a full scan.
    #[test]
    fn cursor_advance_matches_linear_search(
        deltas in prop::collection::vec(1u64..200, 1..100),
        probes in prop::collection::vec(0u64..30_000, 1..10),
    ) {
        let mut doc = 0u64;
        let mut entries: Vec<(DocId, Vec<u32>)> = Vec::new();
        for d in deltas {
            doc += d;
            entries.push((DocId(doc), positions_for(doc)));
        }
        let cp = CompressedPostings::from_entries(&entries);
        let mut probes = probes;
        probes.sort_unstable();
        let mut cursor = cp.cursor();
        let mut floor = 0u64; // cursor can only move forward
        for p in probes {
            let target = floor.max(p);
            let expect = entries.iter().find(|(d, _)| d.0 >= target).map(|(d, _)| *d);
            let got = cursor.advance_to(DocId(target));
            prop_assert!(got == expect, "advance_to({}) gave {:?}, expected {:?}", target, got, expect);
            match got {
                Some(d) => {
                    let (_, pos) = &entries[entries.iter().position(|(e, _)| e == &d).unwrap()];
                    prop_assert_eq!(&cursor.positions(), pos);
                    floor = d.0;
                }
                None => break,
            }
        }
        prop_assert!(cursor.scanned() <= entries.len() as u64);
    }
}

#[test]
fn postings_edge_cases() {
    // empty list
    let empty = CompressedPostings::new();
    assert!(empty.is_empty());
    assert!(empty.decode().is_empty());
    assert_eq!(empty.cursor().advance_to(DocId(0)), None);

    // single doc, empty and non-empty positions
    for positions in [vec![], vec![0u32], vec![0, 1, u32::MAX]] {
        let single = CompressedPostings::from_entries(&[(DocId(7), positions.clone())]);
        assert_eq!(single.decode(), vec![(DocId(7), positions)]);
    }

    // maximal doc-id delta: first doc 0, second doc u64::MAX
    let wide = CompressedPostings::from_entries(&[
        (DocId(0), vec![3u32]),
        (DocId(u64::MAX), vec![u32::MAX]),
    ]);
    assert_eq!(
        wide.decode(),
        vec![(DocId(0), vec![3]), (DocId(u64::MAX), vec![u32::MAX])]
    );
    let mut c = wide.cursor();
    assert_eq!(c.advance_to(DocId(1)), Some(DocId(u64::MAX)));
    assert_eq!(c.positions(), vec![u32::MAX]);
}

// ---------------------------------------------------------------------------
// Index differentials: compressed + pruned vs naive exhaustive execution
// ---------------------------------------------------------------------------

/// Indexes `texts` into a fresh indexer (entity ids = position).
fn build_index(texts: &[String], naive: bool) -> Indexer {
    let idx = if naive {
        Indexer::naive()
    } else {
        Indexer::new()
    };
    for (i, text) in texts.iter().enumerate() {
        let mut e = Entity::new(format!("uri://{i}"), SourceKind::Web, text.clone())
            .with_metadata("parity", if i % 2 == 0 { "even" } else { "odd" });
        e.id = DocId(i as u64);
        idx.index_entity(&e);
    }
    idx
}

/// Query workload derived from the corpus itself: frequent words, an absent
/// word, AND/OR/NOT combinations, and phrases from real bigrams.
fn workload(texts: &[String]) -> Vec<Query> {
    use std::collections::BTreeMap;
    let mut freq: BTreeMap<String, usize> = BTreeMap::new();
    let mut bigram: Option<(String, String)> = None;
    for text in texts {
        let tokens = naive::tokenize(text);
        for pair in tokens.windows(2) {
            let (a, b) = (pair[0].lower(), pair[1].lower());
            if bigram.is_none()
                && a.chars().all(|c| c.is_ascii_alphabetic())
                && b.chars().all(|c| c.is_ascii_alphabetic())
            {
                bigram = Some((a.clone(), b.clone()));
            }
        }
        for t in &tokens {
            let lower = t.lower();
            if lower.chars().all(|c| c.is_ascii_alphabetic()) {
                *freq.entry(lower).or_default() += 1;
            }
        }
    }
    let mut by_freq: Vec<(String, usize)> = freq.into_iter().collect();
    by_freq.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let term = |i: usize| {
        by_freq
            .get(i)
            .map(|(w, _)| w.clone())
            .unwrap_or_else(|| "absentword".into())
    };
    let mut queries = vec![
        Query::Term(term(0)),
        Query::Term(term(by_freq.len().saturating_sub(1))),
        Query::Term("zzzabsent".into()),
        Query::And(vec![Query::Term(term(0)), Query::Term(term(1))]),
        Query::And(vec![
            Query::Term(term(2)),
            Query::Term(term(0)),
            Query::Term(term(5)),
        ]),
        Query::And(vec![Query::Term(term(0)), Query::Term("zzzabsent".into())]),
        Query::Or(vec![Query::Term(term(3)), Query::Term(term(4))]),
        Query::Not(Box::new(Query::Term(term(0)))),
        Query::And(vec![
            Query::Term(term(1)),
            Query::Not(Box::new(Query::Term(term(2)))),
        ]),
        Query::MetaEquals("parity".into(), "even".into()),
        Query::And(vec![
            Query::MetaEquals("parity".into(), "odd".into()),
            Query::Term(term(1)),
        ]),
    ];
    if let Some((a, b)) = bigram {
        queries.push(Query::Phrase(vec![a.clone(), b.clone()]));
        queries.push(Query::And(vec![
            Query::Phrase(vec![a, b]),
            Query::Term(term(0)),
        ]));
    }
    queries.push(Query::Phrase(vec!["zzzabsent".into(), term(0)]));
    queries
}

proptest! {
    /// The compressed, pruned index answers every query kind identically to
    /// the naive (uncompressed, exhaustive) index over the same corpus.
    #[test]
    fn compressed_index_matches_naive_on_corpus(seed in 0u64..10_000) {
        let texts = corpus_texts(seed);
        let compressed = build_index(&texts, false);
        let naive_idx = build_index(&texts, true);
        for query in workload(&texts) {
            let fast = compressed.query(&query).unwrap();
            let slow = naive_idx.query(&query).unwrap();
            prop_assert!(fast == slow, "query {:?} diverged: {:?} vs {:?}", query, fast, slow);
        }
    }
}

/// Skip-pointer pruning strictly reduces postings scanned on AND queries,
/// as observed by the `index.postings_scanned` histogram the paper-scale
/// telemetry already exports.
#[test]
fn and_pruning_strictly_reduces_postings_scanned() {
    let texts = corpus_texts(20_050_405);
    let compressed = build_index(&texts, false);
    let naive_idx = build_index(&texts, true);

    let ands: Vec<Query> = workload(&texts)
        .into_iter()
        .filter(|q| matches!(q, Query::And(_)))
        .collect();
    assert!(!ands.is_empty());

    let scan_sum = |idx: &Indexer, queries: &[Query]| {
        for q in queries {
            idx.query(q).unwrap();
        }
        idx.telemetry()
            .snapshot()
            .histograms
            .get("index.postings_scanned")
            .map(|h| h.sum)
            .unwrap_or(0)
    };
    let pruned = scan_sum(&compressed, &ands);
    let exhaustive = scan_sum(&naive_idx, &ands);
    assert!(
        pruned < exhaustive,
        "AND pruning should scan strictly fewer postings: pruned={pruned} exhaustive={exhaustive}"
    );

    // Results still agree under instrumentation.
    for q in &ands {
        assert_eq!(compressed.query(q).unwrap(), naive_idx.query(q).unwrap());
    }
}

// ---------------------------------------------------------------------------
// Golden snapshot of the batch API's output
// ---------------------------------------------------------------------------

/// Fixed documents covering sentences, clitics, entities, sentiment and
/// unicode; the snapshot pins the batch API's full observable output.
fn golden_docs() -> Vec<String> {
    vec![
        "The NR70 takes excellent pictures. The battery drains quickly.".into(),
        "Unlike the T series, the NR70 doesn't require an add-on adapter.".into(),
        "Zorblax shipped a great product. Quuxcorp struggled.".into(),
        "Dr. Smith visited IBM Corp. in New York.".into(),
        "Überraschend gut: the café's naïve décor works.".into(),
        String::new(),
    ]
}

fn render_batch_snapshot() -> String {
    let docs = golden_docs();
    let batch = pipeline().annotate_batch(&docs);
    let (sentiments, _) = miner().analyze_named_entities_batch(&docs);
    let mut out = String::from("[\n");
    for (i, (doc, records)) in batch.iter().zip(&sentiments).enumerate() {
        let text = &docs[i];
        out.push_str(&format!("  {{\"doc\": {i}, \"sentences\": [\n"));
        for (j, s) in doc.sentences.iter().enumerate() {
            let tokens: Vec<String> = s.tokens.iter().map(|t| t.text.clone()).collect();
            let tags: Vec<String> = s.tags.iter().map(|t| format!("{t:?}")).collect();
            let chunks: Vec<String> = s
                .chunks
                .iter()
                .map(|c| format!("{:?}:{}..{}", c.kind, c.start, c.end))
                .collect();
            out.push_str(&format!(
                "    {{\"span\": [{}, {}], \"tokens\": {:?}, \"tags\": {:?}, \"chunks\": {:?}, \"clauses\": {}}}{}\n",
                s.span.start,
                s.span.end,
                tokens,
                tags,
                chunks,
                s.analysis.clauses.len(),
                if j + 1 < doc.sentences.len() { "," } else { "" },
            ));
        }
        out.push_str("  ], \"entities\": [");
        let entities: Vec<String> = doc
            .entities
            .iter()
            .map(|e| format!("{:?}@{}..{}", e.text, e.span.start, e.span.end))
            .collect();
        out.push_str(&format!("{:?}", entities));
        out.push_str("], \"sentiments\": [");
        let recs: Vec<String> = records
            .iter()
            .map(|r| format!("{}:{}", r.subject, r.polarity))
            .collect();
        out.push_str(&format!("{:?}", recs));
        out.push_str(&format!(
            "], \"source\": {:?}}}{}\n",
            text,
            if i + 1 < docs.len() { "," } else { "" }
        ));
    }
    out.push_str("]\n");
    out
}

/// The batch API's output is pinned byte-for-byte. Regenerate with
/// `UPDATE_GOLDEN=1 cargo test --test nlp_equivalence -- golden`.
#[test]
fn golden_batch_snapshot() {
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/nlp_batch_snapshot.json"
    );
    let rendered = render_batch_snapshot();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(golden_path)
        .expect("golden file missing; run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        rendered, golden,
        "batch NLP output drifted from tests/golden/nlp_batch_snapshot.json; \
         if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

/// The golden snapshot is valid JSON (the shim parser accepts it).
#[test]
fn golden_batch_snapshot_is_json() {
    let rendered = render_batch_snapshot();
    serde_json::from_str::<serde_json::Value>(&rendered).expect("snapshot must parse as JSON");
}
