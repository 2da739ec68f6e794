//! Platform integration: the sentiment miner as WebFountain entity miners,
//! plus the query-time sentiment index service (mode B).
//!
//! Mode A (Figure 2): [`SpotterMiner`] → [`SentimentEntityMiner`] annotate
//! entities with `spot` and `sentiment` annotations; sentiments land in a
//! database (here: the entity annotations + conceptual index).
//!
//! Mode B (Figure 3): [`AdhocSentimentMiner`] runs the named entity spotter
//! over every document offline and annotates sentiment for each entity;
//! indexing the `sentiment:subject=...` conceptual tokens then serves
//! real-time queries through [`SentimentQueryService`].

use crate::miner::{mention_polarities, SentimentMiner};
use crate::record::SubjectSentiment;
use wf_nlp::DocScratch;
use wf_platform::{Annotation, EntityEdit, EntityMiner, Indexer, Query, TraceSpan};
use wf_spotter::{Spotter, SubjectList};
use wf_types::{DocId, Polarity, Result};

/// Entity miner that annotates subject spots (`spot` annotations),
/// optionally filtering each synset's spots through a disambiguator.
pub struct SpotterMiner {
    subjects: SubjectList,
    spotter: Spotter,
    disambiguators: std::collections::HashMap<wf_types::SynsetId, wf_spotter::Disambiguator>,
}

impl SpotterMiner {
    pub fn new(subjects: SubjectList) -> Self {
        let spotter = Spotter::new(&subjects);
        SpotterMiner {
            subjects,
            spotter,
            disambiguators: std::collections::HashMap::new(),
        }
    }

    /// Attaches a disambiguator for one subject: its spots are dropped
    /// when the context says they refer to something else.
    pub fn with_disambiguator(
        mut self,
        subject: &str,
        disambiguator: wf_spotter::Disambiguator,
    ) -> Self {
        if let Some(id) = self.subjects.id_of(subject) {
            self.disambiguators.insert(id, disambiguator);
        }
        self
    }
}

impl EntityMiner for SpotterMiner {
    fn name(&self) -> &str {
        "spotter"
    }

    fn process(&self, entity: &mut EntityEdit<'_>) -> Result<()> {
        entity.clear_annotations("spot");
        let spots = self.spotter.spot(entity.text);
        // per-synset disambiguation verdicts
        let mut keep = vec![true; spots.len()];
        for (synset, disambiguator) in &self.disambiguators {
            let indices: Vec<usize> = spots
                .iter()
                .enumerate()
                .filter(|(_, s)| s.synset == *synset)
                .map(|(i, _)| i)
                .collect();
            if indices.is_empty() {
                continue;
            }
            let subset: Vec<wf_spotter::Spot> = indices.iter().map(|&i| spots[i].clone()).collect();
            let verdicts = disambiguator.disambiguate(entity.text, &subset);
            for (&i, verdict) in indices.iter().zip(&verdicts) {
                keep[i] = *verdict == wf_spotter::SpotVerdict::OnTopic;
            }
        }
        for (spot, keep) in spots.iter().zip(keep) {
            if !keep {
                continue;
            }
            let canonical = self
                .subjects
                .get(spot.synset)
                .map(|s| s.canonical.clone())
                .unwrap_or_else(|| spot.variant.clone());
            entity.annotate(
                Annotation::new("spot", spot.span)
                    .with_attr("synset", spot.synset.as_u32().to_string())
                    .with_attr("subject", canonical),
            );
        }
        Ok(())
    }
}

/// Replaces `entity`'s `sentiment` annotations with one per mention of
/// `records` (lowercased subject, dominant polarity).
fn annotate_sentiments(entity: &mut EntityEdit<'_>, records: &[SubjectSentiment]) {
    entity.clear_annotations("sentiment");
    for (subject, sentence_span, polarity) in mention_polarities(records) {
        entity.annotate(
            Annotation::new("sentiment", sentence_span)
                .with_attr("subject", subject.to_lowercase())
                .with_attr("polarity", polarity.to_string()),
        );
    }
}

/// Entity miner that runs mode-A sentiment analysis and stores `sentiment`
/// annotations (one per mention, with the dominant polarity).
pub struct SentimentEntityMiner {
    miner: SentimentMiner,
    subjects: SubjectList,
    spotter: Spotter,
}

impl SentimentEntityMiner {
    pub fn new(subjects: SubjectList) -> Self {
        let spotter = Spotter::new(&subjects);
        SentimentEntityMiner {
            miner: SentimentMiner::with_default_resources(),
            subjects,
            spotter,
        }
    }

    /// Mode A over one document, parsed in `scratch`.
    fn mine(&self, entity: &mut EntityEdit<'_>, scratch: &mut DocScratch) {
        let records =
            self.miner
                .analyze_spotted(entity.text, &self.subjects, &self.spotter, scratch);
        annotate_sentiments(entity, &records);
    }
}

impl EntityMiner for SentimentEntityMiner {
    fn name(&self) -> &str {
        "sentiment-miner"
    }

    fn process(&self, entity: &mut EntityEdit<'_>) -> Result<()> {
        self.mine(entity, &mut DocScratch::new());
        Ok(())
    }

    /// Mines a chunk with one scratch buffer for all its documents.
    fn process_batch(&self, batch: &mut [EntityEdit<'_>], _: &mut TraceSpan) -> Vec<Result<()>> {
        let mut scratch = DocScratch::new();
        batch
            .iter_mut()
            .map(|entity| {
                self.mine(entity, &mut scratch);
                Ok(())
            })
            .collect()
    }
}

/// Entity miner for mode B: subjects are discovered by the named entity
/// spotter at mining time.
pub struct AdhocSentimentMiner {
    miner: SentimentMiner,
}

impl Default for AdhocSentimentMiner {
    fn default() -> Self {
        Self::new()
    }
}

impl AdhocSentimentMiner {
    pub fn new() -> Self {
        AdhocSentimentMiner {
            miner: SentimentMiner::with_default_resources(),
        }
    }
}

impl EntityMiner for AdhocSentimentMiner {
    fn name(&self) -> &str {
        "adhoc-sentiment-miner"
    }

    fn process(&self, entity: &mut EntityEdit<'_>) -> Result<()> {
        let records = self.miner.analyze_named_entities(entity.text);
        annotate_sentiments(entity, &records);
        Ok(())
    }

    /// The batched hot path with per-stage attribution: analyzes the
    /// borrowed texts with one shared scratch buffer, parsing only the
    /// sentences that hold an entity, charges the batch's deterministic
    /// NLP unit costs to `nlp.tokenize` … `nlp.ner` child spans whose
    /// durations are the units (one per scanned token, parsed token,
    /// chunk, clause and entity, see [`wf_nlp::StageCosts`]) and
    /// advances the shard span in lockstep, so the continuous profiler
    /// sees where mining time goes.
    fn process_batch(&self, batch: &mut [EntityEdit<'_>], span: &mut TraceSpan) -> Vec<Result<()>> {
        let texts: Vec<&str> = batch.iter().map(|e| e.text).collect();
        let (record_sets, costs) = self.miner.analyze_named_entities_batch(&texts);
        for (stage, units) in costs.stages() {
            if units == 0 {
                continue;
            }
            let mut stage_span = span.child(format!("nlp.{stage}"));
            stage_span.advance(units);
            stage_span.finish();
            span.advance(units);
        }
        for (entity, records) in batch.iter_mut().zip(&record_sets) {
            annotate_sentiments(entity, records);
        }
        batch.iter().map(|_| Ok(())).collect()
    }
}

/// One hit served by the sentiment query service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SentimentHit {
    pub doc: DocId,
    pub subject: String,
    pub polarity: Polarity,
    /// The sentiment-bearing sentence text.
    pub sentence: String,
}

/// Mode B's real-time query side: looks up subjects in the sentiment index.
pub struct SentimentQueryService;

impl SentimentQueryService {
    /// The paper's rejected alternative, implemented for comparison:
    /// "the system could, in principle, search for the subject terms,
    /// identify subject spots, build corresponding sentiment contexts,
    /// and apply the sentiment analysis at run time. This runtime
    /// execution of sentiment analysis is too slow for most users
    /// expecting real time response." Analyzes the whole corpus at query
    /// time with no index. Exists so the indexed path's speedup can be
    /// measured (Figure 3's run-time arm in `wf-eval`).
    pub fn query_runtime(
        store: &wf_platform::DataStore,
        subject: &str,
        polarity: Option<Polarity>,
    ) -> Result<Vec<SentimentHit>> {
        let miner = SentimentMiner::with_default_resources();
        let subjects = wf_spotter::SubjectList::builder()
            .subject(subject, [subject.to_string()])
            .build();
        let spotter = Spotter::new(&subjects);
        let mut scratch = DocScratch::new();
        let mut hits = Vec::new();
        store.for_each(|entity| {
            let records = miner.analyze_spotted(&entity.text, &subjects, &spotter, &mut scratch);
            for (subj, sentence_span, pol) in mention_polarities(&records) {
                if !pol.is_sentiment() || polarity.is_some_and(|p| p != pol) {
                    continue;
                }
                if !subj.eq_ignore_ascii_case(subject) {
                    continue;
                }
                hits.push(SentimentHit {
                    doc: entity.id,
                    subject: subject.to_string(),
                    polarity: pol,
                    sentence: sentence_span.slice(&entity.text).to_string(),
                });
            }
        });
        Ok(hits)
    }
    /// All sentiment hits for a subject (case-insensitive), optionally
    /// filtered by polarity.
    pub fn query(
        indexer: &Indexer,
        store: &wf_platform::DataStore,
        subject: &str,
        polarity: Option<Polarity>,
    ) -> Result<Vec<SentimentHit>> {
        let subject_lower = subject.to_lowercase();
        let mut query = vec![Query::Concept(format!("sentiment:subject={subject_lower}"))];
        if let Some(p) = polarity {
            query.push(Query::Concept(format!("sentiment:polarity={p}")));
        }
        let docs = indexer.query(&Query::And(query))?;
        let mut hits = Vec::new();
        for doc in docs {
            store.read(doc, |entity| {
                for ann in entity.annotations_of("sentiment") {
                    if ann.attr("subject") != Some(subject_lower.as_str()) {
                        continue;
                    }
                    let pol = ann
                        .attr("polarity")
                        .and_then(Polarity::parse)
                        .unwrap_or(Polarity::Neutral);
                    if polarity.is_some_and(|p| p != pol) {
                        continue;
                    }
                    hits.push(SentimentHit {
                        doc,
                        subject: subject.to_string(),
                        polarity: pol,
                        sentence: ann.span.slice(&entity.text).to_string(),
                    });
                }
            })?;
        }
        Ok(hits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wf_platform::{
        Cluster, Entity, MinerPipeline, PipelineStats, RawDocument, RunOpts, SourceKind,
    };

    fn subjects() -> SubjectList {
        SubjectList::builder()
            .subject("NR70", ["NR70"])
            .subject("camera", ["camera", "cameras"])
            .build()
    }

    fn seeded_cluster() -> Cluster {
        let cluster = Cluster::new(2).unwrap();
        let docs = [
            "The NR70 takes excellent pictures. The battery drains quickly.",
            "This camera is terrible and the menu is confusing.",
            "Nothing about products here at all.",
        ];
        {
            let mut ing = wf_platform::Ingestor::new(cluster.store());
            for (i, text) in docs.iter().enumerate() {
                ing.ingest(RawDocument::new(
                    format!("uri://{i}"),
                    SourceKind::Web,
                    *text,
                ));
            }
        }
        cluster
    }

    #[test]
    fn mode_a_pipeline_annotates_and_indexes() {
        let cluster = seeded_cluster();
        let pipeline = MinerPipeline::new()
            .add(Box::new(SpotterMiner::new(subjects())))
            .add(Box::new(SentimentEntityMiner::new(subjects())));
        let stats = cluster.run_pipeline(&pipeline);
        assert_eq!(stats.processed, 3);
        cluster.rebuild_index();

        let e0 = cluster.store().get(DocId(0)).unwrap();
        assert!(e0.annotations_of("spot").count() >= 1);
        let sentiments: Vec<_> = e0.annotations_of("sentiment").collect();
        assert!(sentiments
            .iter()
            .any(|a| a.attr("subject") == Some("nr70") && a.attr("polarity") == Some("+")));

        let hits = SentimentQueryService::query(
            cluster.indexer(),
            cluster.store(),
            "NR70",
            Some(Polarity::Positive),
        )
        .unwrap();
        assert_eq!(hits.len(), 1);
        assert!(hits[0].sentence.contains("excellent pictures"));
    }

    #[test]
    fn mode_a_negative_query() {
        let cluster = seeded_cluster();
        let pipeline = MinerPipeline::new().add(Box::new(SentimentEntityMiner::new(subjects())));
        cluster.run_pipeline(&pipeline);
        cluster.rebuild_index();
        let hits = SentimentQueryService::query(
            cluster.indexer(),
            cluster.store(),
            "camera",
            Some(Polarity::Negative),
        )
        .unwrap();
        assert_eq!(hits.len(), 1);
        assert!(hits[0].sentence.contains("terrible"));
    }

    #[test]
    fn mode_b_discovers_entities() {
        let cluster = Cluster::new(1).unwrap();
        {
            let mut ing = wf_platform::Ingestor::new(cluster.store());
            ing.ingest(RawDocument::new(
                "uri://0",
                SourceKind::News,
                "Petrocorp polluted the river. Medicore delivered excellent results.",
            ));
        }
        let pipeline = MinerPipeline::new().add(Box::new(AdhocSentimentMiner::new()));
        cluster.run_pipeline(&pipeline);
        cluster.rebuild_index();
        let neg = SentimentQueryService::query(
            cluster.indexer(),
            cluster.store(),
            "Petrocorp",
            Some(Polarity::Negative),
        )
        .unwrap();
        assert_eq!(neg.len(), 1);
        let pos = SentimentQueryService::query(
            cluster.indexer(),
            cluster.store(),
            "Medicore",
            Some(Polarity::Positive),
        )
        .unwrap();
        assert_eq!(pos.len(), 1);
    }

    #[test]
    fn query_unknown_subject_is_empty() {
        let cluster = seeded_cluster();
        cluster.rebuild_index();
        let hits =
            SentimentQueryService::query(cluster.indexer(), cluster.store(), "nothing", None)
                .unwrap();
        assert!(hits.is_empty());
    }

    #[test]
    fn runtime_query_matches_indexed_query() {
        let cluster = seeded_cluster();
        let pipeline = MinerPipeline::new().add(Box::new(SentimentEntityMiner::new(subjects())));
        cluster.run_pipeline(&pipeline);
        cluster.rebuild_index();
        let indexed = SentimentQueryService::query(
            cluster.indexer(),
            cluster.store(),
            "NR70",
            Some(Polarity::Positive),
        )
        .unwrap();
        let runtime =
            SentimentQueryService::query_runtime(cluster.store(), "NR70", Some(Polarity::Positive))
                .unwrap();
        assert_eq!(indexed.len(), runtime.len());
        assert_eq!(indexed[0].sentence, runtime[0].sentence);
    }

    /// A 2-node cluster holding `docs` as news pages.
    fn news_cluster(docs: &[&str]) -> Cluster {
        let cluster = Cluster::new(2).unwrap();
        let mut ing = wf_platform::Ingestor::new(cluster.store());
        for (i, text) in docs.iter().enumerate() {
            ing.ingest(RawDocument::new(
                format!("uri://{i}"),
                SourceKind::News,
                *text,
            ));
        }
        cluster
    }

    fn run_batch(cluster: &Cluster, batch: usize, parent: Option<&mut TraceSpan>) -> PipelineStats {
        let pipeline = MinerPipeline::new().add(Box::new(AdhocSentimentMiner::new()));
        let opts = RunOpts {
            batch,
            ..RunOpts::default()
        };
        pipeline.run(cluster.store(), opts, parent)
    }

    #[test]
    fn adhoc_batches_match_per_entity_processing() {
        let docs = [
            "Petrocorp polluted the river. Medicore delivered excellent results.",
            "The NR70 takes excellent pictures. The battery drains quickly.",
            "Nothing about products here at all.",
            "",
        ];
        let per_entity = news_cluster(&docs);
        let a = run_batch(&per_entity, 1, None);
        let batched = news_cluster(&docs);
        let b = run_batch(&batched, 2, None);
        assert_eq!(a, b, "stats, NLP charges included, match");
        for i in 0..docs.len() {
            let x = per_entity.store().get(DocId(i as u64)).unwrap();
            let y = batched.store().get(DocId(i as u64)).unwrap();
            assert_eq!(x, y, "entity {i} diverged between batch 1 and batch 2");
        }
        // the per-document path annotates exactly like the batch path
        let miner = AdhocSentimentMiner::new();
        for i in 0..docs.len() {
            let e = per_entity.store().get(DocId(i as u64)).unwrap();
            let mut view = EntityEdit::of(&e);
            miner.process(&mut view).unwrap();
            assert_eq!(
                (view.annotations, view.metadata),
                (e.annotations, e.metadata),
                "process diverged from process_batch on entity {i}"
            );
        }
    }

    #[test]
    fn adhoc_batch_attributes_nlp_stages() {
        let docs = [
            "Petrocorp polluted the river. Medicore delivered excellent results.",
            "The NR70 takes excellent pictures. The battery drains quickly.",
            "Nothing about products here at all.",
        ];
        let per_entity = news_cluster(&docs);
        let a = run_batch(&per_entity, 1, None);
        let batched = news_cluster(&docs);
        let tele = batched.store().telemetry().clone();
        let mut op = tele.trace_root("mine.batched");
        let b = run_batch(&batched, 4, Some(&mut op));
        op.finish();
        assert_eq!(a, b);
        for i in 0..docs.len() {
            let x = per_entity.store().get(DocId(i as u64)).unwrap();
            let y = batched.store().get(DocId(i as u64)).unwrap();
            assert_eq!(x, y, "entity {i} diverged between batch 1 and batch 4");
        }

        let traces = tele.recorder().last_traces(1);
        let run = traces[0].1[0]
            .find("mine.batched/pipeline.run")
            .expect("pipeline.run span");
        let mut stage_names = std::collections::BTreeSet::new();
        for shard in &run.children {
            // the NLP stage children exactly cover the shard's time
            let stages: Vec<_> = shard
                .children
                .iter()
                .filter(|c| c.name.starts_with("nlp."))
                .collect();
            let covered: u64 = stages.iter().map(|c| c.duration_sim_ms).sum();
            assert_eq!(covered, shard.duration_sim_ms, "{}", shard.name);
            stage_names.extend(stages.iter().map(|c| c.name.clone()));
        }
        for expected in [
            "nlp.tokenize",
            "nlp.pos",
            "nlp.chunk",
            "nlp.clause",
            "nlp.ner",
        ] {
            assert!(stage_names.contains(expected), "missing {expected} span");
        }
    }

    #[test]
    fn disambiguating_spotter_drops_off_topic_spots() {
        use wf_spotter::{Disambiguator, TopicContext};
        let subjects = SubjectList::builder().subject("Apex", ["Apex"]).build();
        let miner = SpotterMiner::new(subjects).with_disambiguator(
            "Apex",
            Disambiguator::with_context(TopicContext {
                on_topic: vec!["camera".into(), "lens".into()],
                off_topic: vec!["ridge".into(), "summit".into(), "trail".into()],
                affinities: vec![],
            }),
        );
        let spots = |text: &str| {
            let entity = Entity::new("a", SourceKind::Web, text);
            let mut view = EntityEdit::of(&entity);
            miner.process(&mut view).unwrap();
            view.annotations.iter().filter(|a| a.kind == "spot").count()
        };
        assert_eq!(
            spots("The Apex camera has a fine lens and a camera strap."),
            1
        );
        assert_eq!(
            spots("We reached the Apex of the ridge on the summit trail."),
            0
        );
    }
}
