//! The two mine workloads.
//!
//! - `web-mine`: Mode B (`AdhocSentimentMiner`) over petroleum and pharma
//!   web pages with their background pages. Subjects are sparse and the
//!   NLP chain does most of the work; the inverted index is never built,
//!   so index changes must show no change here. After each pass the fresh
//!   sentiment index answers `sentiment of S` / `top k p` queries.
//! - `review-index`: Mode A (`SentimentEntityMiner`, every product, artist
//!   and feature a subject) over camera and music reviews. Subjects are
//!   dense, the inverted index is built every pass and then searched, so
//!   index writes and reads sit side by side.
//!
//! A pass goes from raw text to queryable on a fresh 2-node cluster:
//! `Ingestor::ingest_batch` → `Cluster::run_pipeline` →
//! [`Cluster::rebuild_index`] (review-index only) →
//! `ShardedSentimentIndex::build_from_store`. The raw documents are copied
//! and the previous pass's cluster dropped before the clock starts.

use crate::inputs::{self, Digest, SearchQuery};
use crate::report::{self, LayerCounts, Outcome};
use crate::stats::{fastest_rate, fastest_time, forget_peak_rss, median, percentile};
use crate::trace::Tracer;
use crate::Options;
use std::time::{Duration, Instant};
use wf_nlp::{
    chunk, clause, naive, ner, sentence, view, AnalyzedSentence, DocScratch, Pipeline, PosTagger,
    SubView, TokenAccess,
};
use wf_platform::{
    parse_query, Annotation, Cluster, DataStore, Entity, Indexer, Ingestor, MinerPipeline,
    PipelineStats, RawDocument, ServingBackend,
};
use wf_sentiment::{
    mention_polarities, AdhocSentimentMiner, Evidence, EvidenceKind, SentimentAnalyzer,
    SentimentAssignment, SentimentEntityMiner, SentimentMiner, SentimentServingBackend,
    ShardedSentimentIndex, SubjectList, SubjectSentiment,
};
use wf_spotter::Spotter;
use wf_types::{DocId, Polarity, Span};

/// Worker threads of the measured cluster (one per shard).
const NODES: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Timed passes at least, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// Every this many documents is checked against the reference miner.
const CHECK_STRIDE: usize = 25;
/// Chunks the layer decomposition alternates over.
const DECOMPOSE_CHUNKS: usize = 8;

/// Span names of the search kinds, parallel to [`inputs::QUERY_KINDS`].
const QUERY_SPANS: [&str; 8] = [
    "index.query.term",
    "index.query.and",
    "index.query.or",
    "index.query.not",
    "index.query.phrase",
    "index.query.meta",
    "index.query.concept",
    "index.query.regex",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Mode B: subjects are the named entities found while mining.
    Adhoc,
    /// Mode A: subjects come from a predefined list.
    Subjects,
}

/// One subject mention as the miners annotate it: lowercased subject,
/// sentence span, polarity.
type Mention = (String, Span, String);

fn stored_mentions(entity: &Entity) -> Vec<Mention> {
    entity
        .annotations_of("sentiment")
        .map(|a| {
            (
                a.attr("subject").unwrap_or_default().to_string(),
                a.span,
                a.attr("polarity").unwrap_or_default().to_string(),
            )
        })
        .collect()
}

fn reference_mentions(records: &[SubjectSentiment]) -> Vec<Mention> {
    mention_polarities(records)
        .into_iter()
        .map(|(subject, span, polarity)| (subject.to_lowercase(), span, polarity.to_string()))
        .collect()
}

/// The answers of one pass's query phase.
enum Answers {
    /// web-mine: sentiment-query bodies and their postings cost.
    Bodies(Vec<Option<(String, u64)>>),
    /// review-index: search results.
    Hits(Vec<Option<Vec<DocId>>>),
}

/// What one pass produced.
struct Pass {
    cluster: Cluster,
    stats: PipelineStats,
    /// Raw text to queryable.
    wall: Duration,
    miner_wall: Duration,
    sindex_postings: usize,
    sindex_subjects: usize,
    latencies_us: Vec<f64>,
    answers: Answers,
}

/// The expected outputs, from the frozen reference implementations.
struct Expected {
    /// `(doc index, mentions)` for every [`CHECK_STRIDE`]-th document.
    mentions: Vec<(usize, Vec<Mention>)>,
    /// web-mine: the set-up pass's answers; review-index: `Indexer::naive()`
    /// over the set-up pass's documents.
    answers: Answers,
}

struct MineWorkload {
    mode: Mode,
    docs: Vec<RawDocument>,
    subjects: SubjectList,
    requests: Vec<String>,
    queries: Vec<SearchQuery>,
    pipeline: MinerPipeline,
}

impl MineWorkload {
    fn pipeline(mode: Mode, subjects: &SubjectList) -> MinerPipeline {
        match mode {
            Mode::Adhoc => MinerPipeline::new().add(Box::new(AdhocSentimentMiner::new())),
            Mode::Subjects => {
                MinerPipeline::new().add(Box::new(SentimentEntityMiner::new(subjects.clone())))
            }
        }
    }

    /// One pass from raw text to queryable, then the query phase. `raw`
    /// is a copy of the documents the caller made before the clock.
    fn pass(&self, t: &Tracer, raw: Vec<RawDocument>) -> Pass {
        t.span("pass", || {
            let start = Instant::now();
            let cluster = Cluster::new(NODES).expect("two nodes are valid");
            t.span("ingest", || {
                Ingestor::new(cluster.store()).ingest_batch(raw)
            });
            let miner_start = Instant::now();
            let stats = t.span("miner", || cluster.run_pipeline(&self.pipeline));
            let miner_wall = miner_start.elapsed();
            if self.mode == Mode::Subjects {
                t.span("index.build", || cluster.rebuild_index());
            }
            let sindex = t.span("sindex.build", || {
                ShardedSentimentIndex::build_from_store(cluster.store())
            });
            let wall = start.elapsed();
            let (sindex_postings, sindex_subjects) =
                (sindex.posting_count(), sindex.subjects().len());
            let (latencies_us, answers) =
                t.span("queries", || self.query_phase(t, &cluster, sindex));
            Pass {
                cluster,
                stats,
                wall,
                miner_wall,
                sindex_postings,
                sindex_subjects,
                latencies_us,
                answers,
            }
        })
    }

    fn query_phase(
        &self,
        t: &Tracer,
        cluster: &Cluster,
        sindex: ShardedSentimentIndex,
    ) -> (Vec<f64>, Answers) {
        let mut latencies = Vec::new();
        match self.mode {
            Mode::Adhoc => {
                let backend = SentimentServingBackend::new(sindex);
                let mut bodies = Vec::with_capacity(self.requests.len());
                for request in &self.requests {
                    let start = Instant::now();
                    let answer = t.span("serve.execute", || backend.execute(request));
                    latencies.push(start.elapsed().as_secs_f64() * 1e6);
                    bodies.push(answer.ok().map(|a| (a.body, a.cost_sim_ms)));
                }
                (latencies, Answers::Bodies(bodies))
            }
            Mode::Subjects => {
                let indexer = cluster.indexer();
                let mut hits = Vec::with_capacity(self.queries.len());
                for query in &self.queries {
                    let start = Instant::now();
                    let parsed = t.span("query_parser", || parse_query(&query.text));
                    let result =
                        parsed.and_then(|q| t.span(QUERY_SPANS[query.kind], || indexer.query(&q)));
                    latencies.push(start.elapsed().as_secs_f64() * 1e6);
                    hits.push(result.ok());
                }
                (latencies, Answers::Hits(hits))
            }
        }
    }

    /// The reference outputs, computed once outside every timed interval:
    /// Mode B mentions from `analyze_named_entities_reference` (the naive
    /// NLP path), Mode A mentions from `analyze_text`, whose NLP must equal
    /// `wf_nlp::naive::analyze` (mismatches are returned as failures).
    fn expected(&self, setup: &Pass) -> (Expected, u64) {
        let miner = SentimentMiner::with_default_resources();
        let pipeline = Pipeline::new();
        let mut nlp_failed = 0;
        let mentions = self
            .docs
            .iter()
            .enumerate()
            .step_by(CHECK_STRIDE)
            .map(|(i, doc)| {
                let records = match self.mode {
                    Mode::Adhoc => miner.analyze_named_entities_reference(&doc.text),
                    Mode::Subjects => {
                        if naive::analyze(&doc.text) != pipeline.analyze(&doc.text) {
                            nlp_failed += 1;
                        }
                        miner.analyze_text(&doc.text, &self.subjects)
                    }
                };
                (i, reference_mentions(&records))
            })
            .collect();
        let answers = match &setup.answers {
            Answers::Bodies(bodies) => Answers::Bodies(bodies.clone()),
            Answers::Hits(_) => {
                let oracle = Indexer::naive();
                setup.cluster.store().for_each(|e| oracle.index_entity(e));
                Answers::Hits(
                    self.queries
                        .iter()
                        .map(|q| parse_query(&q.text).and_then(|q| oracle.query(&q)).ok())
                        .collect(),
                )
            }
        };
        (Expected { mentions, answers }, nlp_failed)
    }

    /// Checks a pass against the expected outputs; returns (attempted,
    /// failed). A failure is a failed pipeline document, a checked document
    /// whose mentions differ from the reference, a sentiment-index posting
    /// count that differs from the store's sentiment annotations, or a
    /// query answer that is missing or differs from the expected one.
    fn check(&self, pass: &Pass, expected: &Expected) -> (u64, u64) {
        let store = pass.cluster.store();
        let mut failed = pass.stats.failed as u64;
        for (i, want) in &expected.mentions {
            match store.get(DocId(*i as u64)) {
                Ok(entity) if stored_mentions(&entity) == *want => {}
                _ => failed += 1,
            }
        }
        let mut annotations = 0;
        store.for_each(|e| annotations += e.annotations_of("sentiment").count());
        failed += u64::from(annotations != pass.sindex_postings);
        let answers = match (&pass.answers, &expected.answers) {
            (Answers::Bodies(got), Answers::Bodies(want)) => {
                failed += count_mismatches(got, want);
                got.len()
            }
            (Answers::Hits(got), Answers::Hits(want)) => {
                failed += count_mismatches(got, want);
                got.len()
            }
            _ => unreachable!("a workload's passes all answer the same way"),
        };
        ((self.docs.len() + answers) as u64, failed)
    }

    /// Digest of a pass's outputs: every stored mention and every answer.
    fn output_digest(pass: &Pass) -> u64 {
        let mut digest = Digest::default();
        pass.cluster.store().for_each(|e| {
            for (subject, span, polarity) in stored_mentions(e) {
                digest.add(&format!(
                    "{}:{subject}:{}-{}:{polarity}",
                    e.id, span.start, span.end
                ));
            }
        });
        match &pass.answers {
            Answers::Bodies(bodies) => {
                for body in bodies {
                    digest.add(&format!("{body:?}"));
                }
            }
            Answers::Hits(hits) => {
                for hit in hits {
                    digest.add(&format!("{hit:?}"));
                }
            }
        }
        digest.value()
    }
}

fn count_mismatches<T: PartialEq>(got: &[Option<T>], want: &[Option<T>]) -> u64 {
    got.iter()
        .zip(want)
        .filter(|(g, w)| g.is_none() || g != w)
        .count() as u64
        + got.len().abs_diff(want.len()) as u64
}

pub fn run(opts: &Options, mode: Mode) -> Outcome {
    let (docs, requests, queries) = match mode {
        Mode::Adhoc => (
            inputs::web_docs(opts.seed, opts.scale),
            inputs::requests(
                opts.seed,
                &inputs::web_subjects(),
                inputs::Popularity::Uniform,
                opts.scale.sentiment_queries(),
            ),
            Vec::new(),
        ),
        Mode::Subjects => (
            inputs::review_docs(opts.seed, opts.scale, 1),
            Vec::new(),
            inputs::search_queries(opts.seed, opts.scale.search_queries()),
        ),
    };
    let mut input_digest = Digest::default();
    input_digest.add_docs(&docs);
    for text in requests.iter().chain(queries.iter().map(|q| &q.text)) {
        input_digest.add(text);
    }
    let subjects = inputs::review_subjects();

    // set-up: build the miners and run one warm-up pass, SETUP_REPS times.
    // The first set-up's pass also yields the reference outputs; the peak
    // RSS is restarted once they are computed and their scratch is freed.
    let off = Tracer::new(false);
    let mut w = MineWorkload {
        mode,
        docs,
        subjects: subjects.clone(),
        requests,
        queries,
        pipeline: MinerPipeline::new(),
    };
    let mut setup_s = Vec::new();
    let mut last: Option<Pass> = None;
    let mut expected = None;
    let (mut attempted, mut failed) = (0, 0);
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let raw = w.docs.clone();
        let start = Instant::now();
        w.pipeline = MineWorkload::pipeline(mode, &subjects);
        let pass = w.pass(&off, raw);
        setup_s.push(start.elapsed().as_secs_f64());
        if expected.is_none() {
            let (want, nlp_failed) = w.expected(&pass);
            attempted += want.mentions.len() as u64;
            failed += nlp_failed;
            expected = Some(want);
            forget_peak_rss();
        }
        last = Some(pass);
    }
    let expected = expected.expect("at least one set-up");

    let deadline = opts.started + Duration::from_secs_f64(opts.seconds);
    let mut on = Tracer::new(opts.trace);
    let mut counts = LayerCounts::default();
    let (mut throughput, mut traced_throughput) = (Vec::new(), Vec::new());
    let (mut p50, mut p99) = (Vec::new(), Vec::new());
    // ratios of walls measured close together: per traced pass, and per
    // decomposition chunk
    let (mut speedups, mut decompositions) = (Vec::new(), Vec::new());
    let replayer = Replayer::new(mode, &subjects);
    let mut iterations = 0;
    // stop when the time left would not hold another iteration like the last
    let mut iteration = Duration::ZERO;
    while iterations < MIN_PASSES || Instant::now() + iteration < deadline {
        let began = Instant::now();
        iterations += 1;
        let raw = w.docs.clone();
        drop(last.take());
        let pass = w.pass(&off, raw);
        throughput.push(w.docs.len() as f64 / pass.wall.as_secs_f64());
        p50.push(percentile(&pass.latencies_us, 50.0));
        p99.push(percentile(&pass.latencies_us, 99.0));
        let (a, f) = w.check(&pass, &expected);
        attempted += a;
        failed += f;
        last = Some(pass);
        if opts.trace {
            let raw = w.docs.clone();
            drop(last.take());
            let pass = w.pass(&on, raw);
            traced_throughput.push(w.docs.len() as f64 / pass.wall.as_secs_f64());
            let (a, f) = w.check(&pass, &expected);
            attempted += a;
            failed += f;
            counts.units += 1;
            count_pass(&pass, &mut counts);
            let decomposition = w.decompose(on, &replayer, &mut counts);
            on = decomposition.tracer;
            attempted += decomposition.compared;
            failed += decomposition.mismatched;
            let wall_1node: f64 = decomposition.walls.iter().map(|w| w.0).sum();
            speedups.push(wall_1node / pass.miner_wall.as_secs_f64());
            decompositions.extend(
                decomposition
                    .walls
                    .iter()
                    .map(|(mined, replayed)| replayed / mined),
            );
            last = Some(pass);
        }
        iteration = began.elapsed();
    }
    let last = last.expect("the loop keeps its last pass");
    let output_digest = MineWorkload::output_digest(&last);

    let metrics = if opts.trace {
        counts.speedup_2v1 = median(&speedups);
        counts.decomposition_ratio = median(&decompositions);
        counts.overhead_ratio = median(&traced_throughput) / median(&throughput);
        counts.throughput_per_s = fastest_rate(&throughput);
        counts.query_p50_us = fastest_time(&p50);
        counts.query_p99_us = fastest_time(&p99);
        report::per_layer(&on.summary(), &counts)
    } else {
        report::end_to_end(median(&setup_s))
    };
    if let Some(path) = &opts.trace_out {
        on.write(path).expect("trace file is writable");
    }
    Outcome {
        metrics,
        attempted,
        failed,
        input_digest: input_digest.value(),
        output_digest,
    }
}

/// Per-pass counts of a traced pass.
fn count_pass(pass: &Pass, c: &mut LayerCounts) {
    let cluster = &pass.cluster;
    c.docs_failed += pass.stats.failed as u64;
    let mut mentions = 0;
    cluster
        .store()
        .for_each(|e| mentions += e.annotations_of("sentiment").count() as u64);
    c.mentions += mentions;
    c.postings_bytes = cluster.indexer().postings_bytes();
    c.terms = cluster.indexer().term_count() as u64;
    c.postings_scanned += cluster
        .telemetry()
        .histogram("index.postings_scanned")
        .sum();
    c.sindex_postings = pass.sindex_postings as u64;
    c.sindex_subjects = pass.sindex_subjects as u64;
    if let Answers::Bodies(bodies) = &pass.answers {
        for (body, cost) in bodies.iter().flatten() {
            c.serve_body_bytes += body.len() as u64;
            c.serve_postings_scanned += cost;
        }
    }
}

/// What the layer decomposition of one pass measured and checked.
struct Decomposition {
    /// The tracer, back from the chunk threads.
    tracer: Tracer,
    /// Each chunk's (pipeline, replay) walls in seconds.
    walls: Vec<(f64, f64)>,
    /// Documents whose replayed mentions were compared with the pipeline's.
    compared: u64,
    /// Documents whose replayed mentions differ from the pipeline's.
    mismatched: u64,
}

impl MineWorkload {
    /// The layer decomposition of a pass: the same documents, chunk by
    /// chunk, mined by a 1-node `Cluster::run_pipeline` and replayed
    /// through the public stage functions, the two in alternating order
    /// from chunk to chunk. A pipeline run and its replay are at most a
    /// second apart, so host drift cancels in their ratio, and alternating
    /// cancels any advantage of running second. Each chunk runs on a thread
    /// of its own, as fresh as the pipeline's worker (per-thread memo caches
    /// and allocator arenas start cold in both). The stored mentions are
    /// read after each of the two, outside their spans, and must agree: the
    /// replay has to do the miner's work for its stage times to stand for
    /// the miner's. Takes and returns the tracer, which moves to those
    /// threads.
    fn decompose(&self, mut t: Tracer, replayer: &Replayer, c: &mut LayerCounts) -> Decomposition {
        let (mut walls, mut compared, mut mismatched) = (Vec::new(), 0, 0);
        let chunks = self.docs.chunks(self.docs.len().div_ceil(DECOMPOSE_CHUNKS));
        for (i, chunk) in chunks.enumerate() {
            let cluster = &Cluster::new(1).expect("one node is valid");
            Ingestor::new(cluster.store()).ingest_batch(chunk.to_vec());
            let store = cluster.store();
            let c = &mut *c;
            let (chunk_walls, mined, replayed);
            (t, chunk_walls, mined, replayed) = std::thread::scope(|scope| {
                scope
                    .spawn(move || {
                        // each returns its wall and the mentions it stored
                        let mine = |c: &mut LayerCounts| {
                            let wall = t.span("decompose", || {
                                let start = Instant::now();
                                let stats =
                                    t.span("miner.1node", || cluster.run_pipeline(&self.pipeline));
                                c.docs_failed += stats.failed as u64;
                                start.elapsed().as_secs_f64()
                            });
                            (wall, all_mentions(store))
                        };
                        let replay = |c: &mut LayerCounts| {
                            let wall = t.span("decompose", || {
                                let start = Instant::now();
                                t.span("replay", || {
                                    for id in store.ids() {
                                        t.span("doc", || replayer.doc(&t, store, id, c));
                                    }
                                });
                                start.elapsed().as_secs_f64()
                            });
                            (wall, all_mentions(store))
                        };
                        let ((mine_wall, mined), (replay_wall, replayed)) = if i % 2 == 0 {
                            let mined = mine(c);
                            (mined, replay(c))
                        } else {
                            let replayed = replay(c);
                            (mine(c), replayed)
                        };
                        (t, (mine_wall, replay_wall), mined, replayed)
                    })
                    .join()
                    .expect("the replay thread does not panic")
            });
            walls.push(chunk_walls);
            compared += mined.len() as u64;
            mismatched += mined.iter().zip(&replayed).filter(|(m, r)| m != r).count() as u64
                + mined.len().abs_diff(replayed.len()) as u64;
        }
        Decomposition {
            tracer: t,
            walls,
            compared,
            mismatched,
        }
    }
}

/// Every stored document's mentions, in id order.
fn all_mentions(store: &DataStore) -> Vec<(DocId, Vec<Mention>)> {
    store
        .ids()
        .into_iter()
        .map(|id| {
            (
                id,
                store
                    .get(id)
                    .map(|e| stored_mentions(&e))
                    .unwrap_or_default(),
            )
        })
        .collect()
}

/// The miner's per-document work, one public stage call at a time:
/// `view::scan`, `sentence::split_tokens`, `ner::spot_tokens` (Mode B) or
/// `Spotter::spot` (Mode A), `PosTagger::tag_tokens`, `chunk::chunk_tokens`,
/// `clause::analyze_clause_tokens`, `SentimentAnalyzer::analyze` on the
/// sentences with a subject, and `DataStore::get` / `update` around it.
struct Replayer {
    tagger: PosTagger,
    analyzer: SentimentAnalyzer,
    /// Mode A's subjects and their compiled spotter.
    spotter: Option<(SubjectList, Spotter)>,
}

impl Replayer {
    fn new(mode: Mode, subjects: &SubjectList) -> Self {
        Replayer {
            tagger: PosTagger::new(),
            analyzer: SentimentAnalyzer::new(),
            spotter: (mode == Mode::Subjects).then(|| (subjects.clone(), Spotter::new(subjects))),
        }
    }

    fn doc(&self, t: &Tracer, store: &DataStore, id: DocId, c: &mut LayerCounts) {
        let Ok(entity) = t.span("store.get", || store.get(id)) else {
            c.docs_failed += 1;
            return;
        };
        let text = entity.text.as_str();
        // (subject, spot span) pairs: listed subjects or named entities
        let mut spots: Vec<(String, Span)> = match &self.spotter {
            Some((subjects, spotter)) => t.span("spotter", || {
                spotter
                    .spot(text)
                    .into_iter()
                    .map(|s| {
                        let subject = subjects
                            .get(s.synset)
                            .map_or_else(|| s.variant.clone(), |syn| syn.canonical.clone());
                        (subject, s.span)
                    })
                    .collect()
            }),
            None => Vec::new(),
        };
        c.spots += spots.len() as u64;
        let mut scratch = DocScratch::new();
        t.span("nlp.tokenize", || view::scan(text, &mut scratch));
        let doc = scratch.view(text);
        let sentences = t.span("nlp.split", || sentence::split_tokens(&doc));
        if self.spotter.is_none() {
            spots = t.span("nlp.ner", || {
                sentences
                    .iter()
                    .flat_map(|s| ner::spot_tokens(&doc, s))
                    .map(|e| (e.text, e.span))
                    .collect()
            });
            c.stage_units[4] += spots.len() as u64;
        }
        let subs: Vec<_> = sentences
            .iter()
            .map(|s| SubView::new(&doc, s.start_token, s.end_token))
            .collect();
        let tags: Vec<_> = t.span("nlp.pos", || {
            subs.iter().map(|s| self.tagger.tag_tokens(s)).collect()
        });
        let chunks: Vec<_> = t.span("nlp.chunk", || {
            subs.iter()
                .zip(&tags)
                .map(|(s, tags)| chunk::chunk_tokens(s, tags))
                .collect()
        });
        let analyses: Vec<_> = t.span("nlp.clause", || {
            subs.iter()
                .zip(&tags)
                .zip(&chunks)
                .map(|((s, tags), chunks)| clause::analyze_clause_tokens(s, tags, chunks))
                .collect()
        });
        let tokens: u64 = subs.iter().map(|s| s.len() as u64).sum();
        c.tokens += tokens;
        c.sentences += sentences.len() as u64;
        c.stage_units[0] += tokens;
        c.stage_units[1] += tokens;
        c.stage_units[2] += chunks.iter().map(|ch| ch.len() as u64).sum::<u64>();
        c.stage_units[3] += analyses.iter().map(|a| a.clauses.len() as u64).sum::<u64>();
        // owned sentences, as the pipeline materializes them
        let analyzed: Vec<AnalyzedSentence> = t.span("nlp.tokenize", || {
            sentences
                .iter()
                .zip(tags)
                .zip(chunks)
                .zip(analyses)
                .map(|(((s, tags), chunks), analysis)| AnalyzedSentence {
                    span: s.span,
                    tokens: doc.to_tokens(s.start_token, s.end_token),
                    tags,
                    chunks,
                    analysis,
                })
                .collect()
        });
        let records = t.span("sentiment.analyze", || {
            let mut records = Vec::new();
            for sentence in &analyzed {
                let here: Vec<&(String, Span)> = spots
                    .iter()
                    .filter(|(_, span)| sentence.span.contains_offset(span.start))
                    .collect();
                if here.is_empty() {
                    continue;
                }
                c.useful_sentences += 1;
                c.sentences_analyzed += 1;
                let assignments = self.analyzer.analyze(sentence);
                for (subject, span) in here {
                    associate(sentence, &assignments, *span, subject, &mut records);
                }
            }
            records
        });
        let mentions = mention_polarities(&records);
        let written = t.span("store.update", || {
            store.update(id, |e| {
                e.clear_annotations("sentiment");
                for (subject, span, polarity) in mentions {
                    e.annotate(
                        Annotation::new("sentiment", span)
                            .with_attr("subject", subject.to_lowercase())
                            .with_attr("polarity", polarity.to_string()),
                    );
                }
            })
        });
        c.docs_failed += u64::from(written.is_err());
    }
}

/// Pairs a subject mention with the analyzer's assignments that cover it,
/// or a neutral record when none does — the miner's association step.
fn associate(
    sentence: &AnalyzedSentence,
    assignments: &[SentimentAssignment],
    spot: Span,
    subject: &str,
    out: &mut Vec<SubjectSentiment>,
) {
    let spot_tokens: Vec<usize> = (0..sentence.tokens.len())
        .filter(|&i| sentence.tokens[i].span.overlaps(spot))
        .collect();
    let record = |polarity, evidence, detail| SubjectSentiment {
        subject: subject.to_string(),
        synset: None,
        polarity,
        sentence_span: sentence.span,
        spot_span: spot,
        evidence,
        detail,
    };
    let before = out.len();
    for a in assignments {
        if a.polarity != Polarity::Neutral && spot_tokens.iter().any(|&i| a.covers_token(i)) {
            // the miner's evidence kind and detail text
            let (evidence, detail) = match &a.evidence {
                Evidence::Pattern { predicate, target } => (
                    EvidenceKind::Pattern,
                    format!("pattern {predicate}→{target}"),
                ),
                Evidence::Existential => (EvidenceKind::Existential, "existential".into()),
                Evidence::Contrast { preposition } => {
                    (EvidenceKind::Contrast, format!("contrast {preposition}"))
                }
                Evidence::Attributive => (EvidenceKind::Attributive, "attributive".into()),
            };
            out.push(record(a.polarity, evidence, detail));
        }
    }
    if out.len() == before {
        out.push(record(Polarity::Neutral, EvidenceKind::None, String::new()));
    }
}
