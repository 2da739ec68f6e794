//! The precomputed, sharded sentiment index behind the serving tier.
//!
//! Mode B's offline half (Figure 3): the miners annotate every document
//! with per-(subject, sentence) `sentiment` annotations; this module
//! folds those annotations into polarity **postings** sharded the same
//! way the [`wf_platform::DataStore`] shards documents, so each cluster
//! node holds the sentiment postings for exactly the documents it owns,
//! and a bulk build reads each store shard on a worker of its own. A
//! posting locates its sentence by span and keeps no copy of the text.
//! Each shard also keeps a `[positive, negative, neutral]` tally per
//! subject, updated as postings land. Query time then never touches the
//! NLP stack or the postings themselves: "sentiment of X" sums one tally
//! per shard, and "top-k by polarity" ranks the summed tallies of every
//! subject — the paper's "real time response" requirement, made
//! concrete.
//!
//! The shard-merge invariant (see `tests/serving.rs`): building the index
//! over an N-shard store and merging per-shard postings yields exactly
//! the postings of a single-shard build of the same corpus.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::{panic, thread};
use wf_platform::{DataStore, Entity};
use wf_types::{DocId, NodeId, Polarity, Span};

/// One precomputed (subject, sentence) polarity observation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SentimentPosting {
    pub doc: DocId,
    /// Index shard (= cluster node) holding the posting.
    pub shard: u32,
    /// Canonical lowercased subject, as the miners annotate it.
    pub subject: String,
    pub polarity: Polarity,
    /// The sentiment-bearing sentence's span in the document: slice the
    /// stored entity's text with it to read the sentence.
    pub sentence_span: Span,
}

/// Deterministic postings order: document, then position in it.
fn sort_key(doc: DocId, span: Span, polarity: Polarity) -> (u64, usize, usize, i32) {
    (doc.0, span.start, span.end, polarity.score())
}

/// A posting as a shard stores it: its subject is the key of the list
/// holding it and its shard is the shard holding that list, so neither
/// is stored per posting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ShardPosting {
    doc: DocId,
    polarity: Polarity,
    sentence_span: Span,
}

impl ShardPosting {
    fn sort_key(&self) -> (u64, usize, usize, i32) {
        sort_key(self.doc, self.sentence_span, self.polarity)
    }
}

/// One subject's postings on one shard, sorted by (doc, span), with
/// their tally by polarity.
#[derive(Debug, Clone, Default)]
struct SubjectPostings {
    /// Postings per polarity, indexed `[positive, negative, neutral]`.
    tally: [u64; 3],
    postings: Vec<ShardPosting>,
}

/// The `tally` slot of one polarity.
fn slot(polarity: Polarity) -> usize {
    match polarity {
        Polarity::Positive => 0,
        Polarity::Negative => 1,
        Polarity::Neutral => 2,
    }
}

/// Polarity tallies for one subject across every shard.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SubjectSummary {
    pub subject: String,
    pub positive: u64,
    pub negative: u64,
    pub neutral: u64,
}

impl SubjectSummary {
    fn from_tally(subject: &str, [positive, negative, neutral]: [u64; 3]) -> Self {
        SubjectSummary {
            subject: subject.to_string(),
            positive,
            negative,
            neutral,
        }
    }

    pub fn total(&self) -> u64 {
        self.positive + self.negative + self.neutral
    }

    /// Net polarity: positive minus negative mentions.
    pub fn net(&self) -> i64 {
        self.positive as i64 - self.negative as i64
    }

    /// The tally for one polarity class.
    pub fn count(&self, polarity: Polarity) -> u64 {
        match polarity {
            Polarity::Positive => self.positive,
            Polarity::Negative => self.negative,
            Polarity::Neutral => self.neutral,
        }
    }
}

/// One shard's subject → postings map.
#[derive(Debug, Clone, Default)]
pub struct SentimentIndexShard {
    postings: BTreeMap<String, SubjectPostings>,
    posting_count: usize,
}

impl SentimentIndexShard {
    /// How many postings this shard holds for `subject`.
    pub fn subject_posting_count(&self, subject: &str) -> usize {
        self.postings
            .get(subject)
            .map_or(0, |list| list.postings.len())
    }

    pub fn subjects(&self) -> impl Iterator<Item = &str> {
        self.postings.keys().map(String::as_str)
    }

    pub fn posting_count(&self) -> usize {
        self.posting_count
    }

    /// Folds one entity's `sentiment` annotations into this shard: the
    /// one path of incremental adds, shard rebuilds and bulk builds.
    fn add_entity(&mut self, entity: &Entity) {
        for ann in entity.annotations_of("sentiment") {
            let (Some(subject), Some(polarity)) = (ann.attr("subject"), ann.attr("polarity"))
            else {
                continue;
            };
            let Some(polarity) = Polarity::parse(polarity) else {
                continue;
            };
            self.add(
                subject,
                ShardPosting {
                    doc: entity.id,
                    polarity,
                    sentence_span: ann.span,
                },
            );
        }
    }

    /// Inserts keeping each subject's postings sorted, so incremental
    /// adds and bulk builds produce identical layouts. The subject is
    /// looked up as given, lowercased only when it is not already, and
    /// copied into a key only the first time this shard sees it.
    fn add(&mut self, subject: &str, posting: ShardPosting) {
        let subject = subject_key(subject);
        if !self.postings.contains_key(&*subject) {
            self.postings
                .insert(subject.to_string(), SubjectPostings::default());
        }
        let list = self
            .postings
            .get_mut(&*subject)
            .expect("the subject's list exists");
        let at = list
            .postings
            .binary_search_by_key(&posting.sort_key(), ShardPosting::sort_key)
            .unwrap_or_else(|i| i);
        list.tally[slot(posting.polarity)] += 1;
        list.postings.insert(at, posting);
        self.posting_count += 1;
    }

    /// Drops the spare capacity a build's growing lists left behind.
    fn shrink_to_fit(&mut self) {
        for list in self.postings.values_mut() {
            list.postings.shrink_to_fit();
        }
    }
}

/// The canonical (lowercased) form of a subject, borrowed when the
/// subject has no uppercase or non-ASCII byte and so is its own
/// lowercase.
fn subject_key(subject: &str) -> Cow<'_, str> {
    if subject
        .bytes()
        .any(|b| b.is_ascii_uppercase() || !b.is_ascii())
    {
        Cow::Owned(subject.to_lowercase())
    } else {
        Cow::Borrowed(subject)
    }
}

/// The contiguous runs of shard ids that the workers of a bulk build
/// take, one run per worker, covering `0..shards` in order: at most
/// `min(shards, parallelism)` runs, so never more workers than shards
/// or hardware threads.
fn worker_runs(shards: usize, parallelism: usize) -> Vec<Range<usize>> {
    let workers = shards.min(parallelism).max(1);
    let per_worker = shards.div_ceil(workers).max(1);
    (0..shards)
        .step_by(per_worker)
        .map(|first| first..shards.min(first + per_worker))
        .collect()
}

/// The cluster-wide sentiment index: one [`SentimentIndexShard`] per
/// store shard, co-located with `platform::index` on each node.
#[derive(Debug, Clone)]
pub struct ShardedSentimentIndex {
    shards: Vec<SentimentIndexShard>,
}

impl ShardedSentimentIndex {
    /// An empty index with `shard_count` shards (≥ 1 enforced by
    /// clamping).
    pub fn new(shard_count: usize) -> Self {
        ShardedSentimentIndex {
            shards: vec![SentimentIndexShard::default(); shard_count.max(1)],
        }
    }

    /// Builds the index from every mined entity in the store, placing
    /// postings on the shard that owns the document (`store.node_of`).
    ///
    /// Each index shard is built from its own store shard, read by
    /// reference under that shard's read lock. The shards are split into
    /// contiguous runs over `min(shards, available_parallelism)` workers:
    /// the calling thread builds the first run and one scoped thread
    /// builds each other run, so a one-shard store starts no thread.
    pub fn build_from_store(store: &DataStore) -> Self {
        let parallelism = thread::available_parallelism().map_or(1, NonZeroUsize::get);
        let runs = worker_runs(store.shard_count(), parallelism);
        let build_run = |run: Range<usize>| {
            run.map(|node| {
                let mut shard = SentimentIndexShard::default();
                store.for_each_in(NodeId(node as u32), |entity| shard.add_entity(entity));
                shard.shrink_to_fit();
                shard
            })
            .collect::<Vec<_>>()
        };
        let (first, others) = runs.split_first().expect("a store has at least one shard");
        let shards = thread::scope(|scope| {
            let others: Vec<_> = others
                .iter()
                .map(|run| scope.spawn(move || build_run(run.clone())))
                .collect();
            let mut shards = build_run(first.clone());
            for worker in others {
                shards.extend(worker.join().unwrap_or_else(|e| panic::resume_unwind(e)));
            }
            shards
        });
        ShardedSentimentIndex { shards }
    }

    /// The shard slot for a shard id: out-of-range ids clamp to the last
    /// shard.
    fn slot(&self, shard: u32) -> usize {
        (shard as usize).min(self.shards.len() - 1)
    }

    /// Folds one entity's `sentiment` annotations into `shard` — the
    /// incremental-ingest path: call it as freshly mined documents land.
    pub fn add_entity(&mut self, entity: &Entity, shard: u32) {
        let slot = self.slot(shard);
        self.shards[slot].add_entity(entity);
    }

    /// Drops one shard's postings (its node crashed), returning how
    /// many were lost. Out-of-range shards clamp like `add_entity`.
    pub fn clear_shard(&mut self, shard: u32) -> usize {
        let slot = self.slot(shard);
        std::mem::take(&mut self.shards[slot]).posting_count
    }

    /// Rebuilds one shard from recovered entities (clear + re-add): the
    /// incremental half of crash recovery, fed by the WAL replay via
    /// `Cluster::restart_node_with`. Sorted insertion makes the result
    /// identical to a bulk build over the same corpus. Returns the
    /// shard's posting count after the rebuild.
    pub fn rebuild_shard(&mut self, shard: u32, entities: &[Entity]) -> usize {
        self.clear_shard(shard);
        let slot = self.slot(shard);
        let rebuilt = &mut self.shards[slot];
        entities
            .iter()
            .for_each(|entity| rebuilt.add_entity(entity));
        rebuilt.shrink_to_fit();
        rebuilt.posting_count
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    pub fn shard(&self, i: usize) -> &SentimentIndexShard {
        &self.shards[i]
    }

    /// Total postings across every shard.
    pub fn posting_count(&self) -> usize {
        self.shards
            .iter()
            .map(SentimentIndexShard::posting_count)
            .sum()
    }

    /// All indexed subjects, deduplicated and sorted.
    pub fn subjects(&self) -> Vec<String> {
        let mut all: Vec<String> = self
            .shards
            .iter()
            .flat_map(|s| s.subjects().map(str::to_string))
            .collect();
        all.sort();
        all.dedup();
        all
    }

    /// One subject's postings merged across shards in deterministic
    /// (doc, span) order — the serving tier's fan-out + merge.
    pub fn merged_postings(&self, subject: &str) -> Vec<SentimentPosting> {
        let mut merged = Vec::new();
        for (shard, s) in self.shards.iter().enumerate() {
            let Some(list) = s.postings.get(subject) else {
                continue;
            };
            merged.extend(list.postings.iter().map(|p| SentimentPosting {
                doc: p.doc,
                shard: shard as u32,
                subject: subject.to_string(),
                polarity: p.polarity,
                sentence_span: p.sentence_span,
            }));
        }
        merged.sort_by_key(|p| sort_key(p.doc, p.sentence_span, p.polarity));
        merged
    }

    /// Polarity tallies for one subject, or `None` when it was never
    /// mined.
    pub fn summary(&self, subject: &str) -> Option<SubjectSummary> {
        let mut tally = None;
        for list in self.shards.iter().filter_map(|s| s.postings.get(subject)) {
            add_tally(tally.get_or_insert([0; 3]), &list.tally);
        }
        tally.map(|tally| SubjectSummary::from_tally(subject, tally))
    }

    /// The `k` subjects with the most `polarity` mentions (count
    /// descending, subject ascending on ties) — the Sifaka-style
    /// analytics surface, ranked from the shards' tallies.
    pub fn top_k(&self, k: usize, polarity: Polarity) -> Vec<SubjectSummary> {
        let mut tallies: BTreeMap<&str, [u64; 3]> = BTreeMap::new();
        for shard in &self.shards {
            for (subject, list) in &shard.postings {
                add_tally(tallies.entry(subject).or_default(), &list.tally);
            }
        }
        let mut ranked: Vec<(&str, [u64; 3])> = tallies.into_iter().collect();
        let at = slot(polarity);
        ranked.sort_by(|a, b| b.1[at].cmp(&a.1[at]).then_with(|| a.0.cmp(b.0)));
        ranked
            .into_iter()
            .take(k)
            .map(|(subject, tally)| SubjectSummary::from_tally(subject, tally))
            .collect()
    }
}

fn add_tally(sum: &mut [u64; 3], tally: &[u64; 3]) {
    for (s, t) in sum.iter_mut().zip(tally) {
        *s += t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wf_platform::{Annotation, SourceKind};

    /// An entity with one sentiment annotation per (subject, polarity)
    /// pair, each covering a distinct slice of the text.
    fn entity(uri: &str, marks: &[(&str, Polarity)]) -> Entity {
        let text = "0123456789".repeat(marks.len().max(1));
        let mut e = Entity::new(uri, SourceKind::Web, &text);
        for (i, (subject, polarity)) in marks.iter().enumerate() {
            e.annotations.push(
                Annotation::new("sentiment", Span::new(i * 10, i * 10 + 10))
                    .with_attr("subject", subject.to_string())
                    .with_attr("polarity", polarity.to_string()),
            );
        }
        e
    }

    fn seeded_store(shards: usize) -> DataStore {
        let store = DataStore::new(shards).unwrap();
        store.insert(entity(
            "a",
            &[("canon", Polarity::Positive), ("nikon", Polarity::Negative)],
        ));
        store.insert(entity("b", &[("canon", Polarity::Positive)]));
        store.insert(entity("c", &[("canon", Polarity::Negative)]));
        store.insert(entity("d", &[("nikon", Polarity::Neutral)]));
        store
    }

    #[test]
    fn build_shards_by_document_owner() {
        let store = seeded_store(2);
        let index = ShardedSentimentIndex::build_from_store(&store);
        assert_eq!(index.shard_count(), 2);
        assert_eq!(index.posting_count(), 5);
        for subject in index.subjects() {
            for posting in index.merged_postings(&subject) {
                assert_eq!(store.node_of(posting.doc).0, posting.shard);
            }
        }
        let per_shard: usize = (0..2)
            .map(|i| index.shard(i).subject_posting_count("canon"))
            .sum();
        assert_eq!(per_shard, 3);
    }

    #[test]
    fn summary_tallies_across_shards() {
        let index = ShardedSentimentIndex::build_from_store(&seeded_store(3));
        let canon = index.summary("canon").unwrap();
        assert_eq!((canon.positive, canon.negative, canon.neutral), (2, 1, 0));
        assert_eq!(canon.net(), 1);
        let nikon = index.summary("nikon").unwrap();
        assert_eq!((nikon.positive, nikon.negative, nikon.neutral), (0, 1, 1));
        assert!(index.summary("pentax").is_none());
    }

    #[test]
    fn merged_postings_match_single_shard_build() {
        let sharded = ShardedSentimentIndex::build_from_store(&seeded_store(3));
        let single = ShardedSentimentIndex::build_from_store(&seeded_store(1));
        for subject in sharded.subjects() {
            let merged: Vec<_> = sharded
                .merged_postings(&subject)
                .into_iter()
                .map(|p| (p.doc, p.sentence_span, p.polarity))
                .collect();
            let flat: Vec<_> = single
                .merged_postings(&subject)
                .into_iter()
                .map(|p| (p.doc, p.sentence_span, p.polarity))
                .collect();
            assert_eq!(merged, flat, "subject {subject}");
        }
    }

    #[test]
    fn top_k_ranks_by_polarity_count() {
        let index = ShardedSentimentIndex::build_from_store(&seeded_store(2));
        let top = index.top_k(2, Polarity::Positive);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].subject, "canon");
        assert_eq!(top[0].positive, 2);
        let top_neg = index.top_k(1, Polarity::Negative);
        // canon and nikon tie at 1 negative; the subject tie-break wins
        assert_eq!(top_neg[0].subject, "canon");
    }

    #[test]
    fn rebuild_shard_matches_bulk_after_clear() {
        use wf_types::NodeId;
        let store = seeded_store(2);
        let bulk = ShardedSentimentIndex::build_from_store(&store);
        let mut index = ShardedSentimentIndex::build_from_store(&store);
        let dropped = index.clear_shard(0);
        assert!(dropped > 0, "shard 0 had postings to lose");
        assert_eq!(index.posting_count(), bulk.posting_count() - dropped);
        let recovered: Vec<Entity> = store
            .shard_ids(NodeId(0))
            .into_iter()
            .map(|id| store.get(id).unwrap())
            .collect();
        let rebuilt = index.rebuild_shard(0, &recovered);
        assert_eq!(rebuilt, dropped, "rebuild restores every posting");
        for subject in bulk.subjects() {
            assert_eq!(
                bulk.merged_postings(&subject),
                index.merged_postings(&subject),
                "subject {subject}"
            );
        }
    }

    #[test]
    fn worker_runs_cover_every_shard_with_bounded_workers() {
        for shards in 1..9 {
            for parallelism in 1..6 {
                let runs = worker_runs(shards, parallelism);
                assert!(!runs.is_empty());
                assert!(
                    runs.len() <= shards.min(parallelism),
                    "{shards}/{parallelism}"
                );
                let covered: Vec<usize> = runs.into_iter().flatten().collect();
                assert_eq!(covered, (0..shards).collect::<Vec<_>>());
            }
        }
        // one shard: the caller's run only, so no thread is started
        assert_eq!(worker_runs(1, 8), vec![0..1]);
        assert_eq!(worker_runs(2, 2), vec![0..1, 1..2]);
        assert_eq!(worker_runs(5, 2), vec![0..3, 3..5]);
    }

    #[test]
    fn subject_keys_are_lowercase_and_borrowed_when_already_so() {
        for subject in ["canon", "nikon d70", "sony-pda 2", ""] {
            assert!(matches!(subject_key(subject), Cow::Borrowed(s) if s == subject));
        }
        for subject in ["Canon", "NIKON", "Ünïcode", "straße"] {
            let key = subject_key(subject);
            assert!(matches!(key, Cow::Owned(_)), "{subject}");
            assert_eq!(key, subject.to_lowercase());
        }
    }

    #[test]
    fn incremental_add_matches_bulk_build() {
        let store = seeded_store(2);
        let bulk = ShardedSentimentIndex::build_from_store(&store);
        let mut incremental = ShardedSentimentIndex::new(store.shard_count());
        // feed documents in reverse to prove order-insensitivity
        let mut ids = store.ids();
        ids.reverse();
        for id in ids {
            let entity = store.get(id).unwrap();
            incremental.add_entity(&entity, store.node_of(id).0);
        }
        for subject in bulk.subjects() {
            assert_eq!(
                bulk.merged_postings(&subject),
                incremental.merged_postings(&subject)
            );
        }
    }
}
