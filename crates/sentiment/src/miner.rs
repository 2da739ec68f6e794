//! The sentiment miner facade: subject spotting + analysis + assignment.
//!
//! Mode A of the paper (Figure 2): a predefined [`SubjectList`] is spotted
//! in each document, a sentiment context is formed per spot, and the
//! analyzer's assignments are associated to the spots they cover.

use crate::analyzer::{AnalyzerConfig, Evidence, SentimentAnalyzer, SentimentAssignment};
use crate::record::{EvidenceKind, SubjectSentiment};
use wf_nlp::{DocScratch, NamedEntity, Pipeline, SentenceView, StageCosts, TokenAccess};
use wf_spotter::{Spot, Spotter, SubjectList};
use wf_types::{Polarity, Span};

/// The sentiment miner.
///
/// ```
/// use wf_sentiment::{SentimentMiner, SubjectList};
/// use wf_types::Polarity;
///
/// let miner = SentimentMiner::with_default_resources();
/// let subjects = SubjectList::builder()
///     .subject("camera", ["camera", "cameras"])
///     .build();
/// let records = miner.analyze_text("This camera takes excellent pictures.", &subjects);
/// assert_eq!(records[0].polarity, Polarity::Positive);
/// ```
pub struct SentimentMiner {
    pipeline: Pipeline,
    analyzer: SentimentAnalyzer,
}

impl Default for SentimentMiner {
    fn default() -> Self {
        Self::with_default_resources()
    }
}

impl SentimentMiner {
    /// Builds a miner over the embedded sentiment lexicon and pattern
    /// database.
    pub fn with_default_resources() -> Self {
        SentimentMiner {
            pipeline: Pipeline::new(),
            analyzer: SentimentAnalyzer::new(),
        }
    }

    /// Builds a miner with selected relationship rules disabled (used by
    /// the ablation experiments).
    pub fn with_config(config: AnalyzerConfig) -> Self {
        SentimentMiner {
            pipeline: Pipeline::new(),
            analyzer: SentimentAnalyzer::with_config(config),
        }
    }

    /// The underlying NLP pipeline.
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// The underlying analyzer.
    pub fn analyzer(&self) -> &SentimentAnalyzer {
        &self.analyzer
    }

    /// Mode A: analyzes `text`, returning one record per (spot,
    /// assignment) association plus a Neutral record for every spot with
    /// no sentiment. Subjects come from the predefined list.
    pub fn analyze_text(&self, text: &str, subjects: &SubjectList) -> Vec<SubjectSentiment> {
        self.analyze_with_spotter(text, subjects, &Spotter::new(subjects))
    }

    /// Mode A with a reusable compiled spotter (bulk processing).
    pub fn analyze_with_spotter(
        &self,
        text: &str,
        subjects: &SubjectList,
        spotter: &Spotter,
    ) -> Vec<SubjectSentiment> {
        self.analyze_spotted(text, subjects, spotter, &mut DocScratch::new())
    }

    /// Mode A over the sentences that hold a spot start: only those are
    /// parsed, each is analyzed with its tokens still in `scratch`, and no
    /// named-entity spotting runs. Bulk mining reuses one scratch.
    pub(crate) fn analyze_spotted(
        &self,
        text: &str,
        subjects: &SubjectList,
        spotter: &Spotter,
        scratch: &mut DocScratch,
    ) -> Vec<SubjectSentiment> {
        let spots = spotter.spot(text);
        let mut out = Vec::new();
        self.pipeline.analyze_where(
            text,
            scratch,
            |span| spots.iter().any(|s| span.contains_offset(s.span.start)),
            |sentence| self.spot_records(&sentence.view(), subjects, &spots, &mut out),
        );
        out
    }

    /// Reference implementation of [`SentimentMiner::analyze_with_spotter`]
    /// built on the frozen naive NLP path (`wf_nlp::naive`), which parses
    /// every sentence. Exists as the oracle for the differential-equivalence
    /// test harness; do not use in production paths.
    pub fn analyze_with_spotter_reference(
        &self,
        text: &str,
        subjects: &SubjectList,
        spotter: &Spotter,
    ) -> Vec<SubjectSentiment> {
        let spots = spotter.spot(text);
        let mut out = Vec::new();
        for sentence in wf_nlp::naive::analyze(text) {
            self.spot_records(&sentence.view(), subjects, &spots, &mut out);
        }
        out
    }

    /// Mode A's association step: pairs one sentence's analysis with the
    /// spots that start in it.
    fn spot_records<T: TokenAccess>(
        &self,
        sentence: &SentenceView<'_, T>,
        subjects: &SubjectList,
        spots: &[Spot],
        out: &mut Vec<SubjectSentiment>,
    ) {
        let in_sentence: Vec<&Spot> = spots
            .iter()
            .filter(|s| sentence.span.contains_offset(s.span.start))
            .collect();
        if in_sentence.is_empty() {
            return;
        }
        let assignments = self.analyzer.analyze_view(sentence);
        for spot in in_sentence {
            let subject = subjects
                .get(spot.synset)
                .map(|s| s.canonical.clone())
                .unwrap_or_else(|| spot.variant.clone());
            associate_spot(
                sentence,
                &assignments,
                spot.span,
                subject,
                Some(spot.synset),
                out,
            );
        }
    }

    /// Query-time mode (mode B building block): subjects are the named
    /// entities the NE spotter finds in the text itself. A batch of one
    /// over [`SentimentMiner::analyze_named_entities_batch`].
    pub fn analyze_named_entities(&self, text: &str) -> Vec<SubjectSentiment> {
        let (mut records, _) = self.analyze_named_entities_batch(&[text]);
        records.pop().unwrap_or_default()
    }

    /// Mode B over a batch of documents. Each document is tokenized once;
    /// entity spotting and sentence analysis share the pass, only the
    /// sentences that hold an entity are parsed, each is analyzed with its
    /// tokens still in the scan, and one scratch buffer is reused across
    /// all documents, so steady-state per-token allocation amortizes away.
    /// Output is order-aligned with `texts`; the batch's per-stage NLP
    /// unit costs ([`wf_nlp::StageCosts`], a sum over documents) come with
    /// it, so miner runs can attribute the work to
    /// tokenize/pos/chunk/clause/ner spans.
    pub fn analyze_named_entities_batch<S: AsRef<str>>(
        &self,
        texts: &[S],
    ) -> (Vec<Vec<SubjectSentiment>>, StageCosts) {
        let mut scratch = DocScratch::new();
        let mut costs = StageCosts::default();
        let records = texts
            .iter()
            .map(|t| {
                let mut out = Vec::new();
                let (entities, tokens) = self.pipeline.annotate_where(
                    t.as_ref(),
                    &mut scratch,
                    wf_nlp::holds_entity,
                    |sentence, entities| {
                        let sentence = sentence.view();
                        costs.kept(&sentence);
                        self.entity_records(&sentence, entities, &mut out);
                    },
                );
                costs.scanned(tokens, &entities);
                out
            })
            .collect();
        (records, costs)
    }

    /// Reference implementation of [`SentimentMiner::analyze_named_entities`]
    /// built on the frozen naive NLP path (`wf_nlp::naive`). Exists as the
    /// oracle for the differential-equivalence test harness; do not use in
    /// production paths.
    pub fn analyze_named_entities_reference(&self, text: &str) -> Vec<SubjectSentiment> {
        let entities = wf_nlp::naive::named_entities(text);
        let mut out = Vec::new();
        for sentence in wf_nlp::naive::analyze(text) {
            self.entity_records(&sentence.view(), &entities, &mut out);
        }
        out
    }

    /// Mode B's association step: pairs one sentence's analysis with the
    /// named entities that start in it.
    fn entity_records<T: TokenAccess>(
        &self,
        sentence: &SentenceView<'_, T>,
        entities: &[NamedEntity],
        out: &mut Vec<SubjectSentiment>,
    ) {
        let in_sentence: Vec<&NamedEntity> = entities
            .iter()
            .filter(|e| sentence.span.contains_offset(e.span.start))
            .collect();
        if in_sentence.is_empty() {
            return;
        }
        let assignments = self.analyzer.analyze_view(sentence);
        for entity in in_sentence {
            associate_spot(
                sentence,
                &assignments,
                entity.span,
                entity.text.clone(),
                None,
                out,
            );
        }
    }
}

/// Appends a record for each assignment covering a spot, or one Neutral
/// record when none does.
fn associate_spot<T: TokenAccess>(
    sentence: &SentenceView<'_, T>,
    assignments: &[SentimentAssignment],
    spot_span: Span,
    subject: String,
    synset: Option<wf_types::SynsetId>,
    out: &mut Vec<SubjectSentiment>,
) {
    // the spot's token indices (tokens overlapping the spot span)
    let spot_tokens: Vec<usize> = (0..sentence.tokens.len())
        .filter(|&i| sentence.tokens.span(i).overlaps(spot_span))
        .collect();
    let before = out.len();
    for assignment in assignments {
        if assignment.polarity == Polarity::Neutral {
            continue;
        }
        if spot_tokens.iter().any(|&t| assignment.covers_token(t)) {
            out.push(SubjectSentiment {
                subject: subject.clone(),
                synset,
                polarity: assignment.polarity,
                sentence_span: sentence.span,
                spot_span,
                evidence: evidence_kind(assignment.evidence),
                detail: evidence_detail(assignment.evidence),
            });
        }
    }
    if out.len() == before {
        out.push(SubjectSentiment {
            subject,
            synset,
            polarity: Polarity::Neutral,
            sentence_span: sentence.span,
            spot_span,
            evidence: EvidenceKind::None,
            detail: String::new(),
        });
    }
}

fn evidence_kind(evidence: Evidence) -> EvidenceKind {
    match evidence {
        Evidence::Pattern { .. } => EvidenceKind::Pattern,
        Evidence::Existential => EvidenceKind::Existential,
        Evidence::Contrast { .. } => EvidenceKind::Contrast,
        Evidence::Attributive => EvidenceKind::Attributive,
    }
}

fn evidence_detail(evidence: Evidence) -> String {
    match evidence {
        Evidence::Pattern { predicate, target } => format!("pattern {predicate}→{target}"),
        Evidence::Existential => "existential".into(),
        Evidence::Contrast { preposition } => format!("contrast {preposition}"),
        Evidence::Attributive => "attributive".into(),
    }
}

/// Folds a record list into the dominant polarity per (sentence, subject)
/// mention — the unit the paper's evaluation scores.
pub fn mention_polarities(records: &[SubjectSentiment]) -> Vec<(String, Span, Polarity)> {
    use std::collections::BTreeMap;
    type MentionKey = (String, (usize, usize), (usize, usize));
    let mut groups: BTreeMap<MentionKey, Vec<&SubjectSentiment>> = BTreeMap::new();
    for r in records {
        groups
            .entry((
                r.subject.clone(),
                (r.sentence_span.start, r.sentence_span.end),
                (r.spot_span.start, r.spot_span.end),
            ))
            .or_default()
            .push(r);
    }
    groups
        .into_iter()
        .map(|((subject, sent, _spot), rs)| {
            (
                subject,
                Span::new(sent.0, sent.1),
                crate::record::dominant_polarity(&rs),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wf_spotter::SubjectList;

    fn subjects() -> SubjectList {
        SubjectList::builder()
            .subject("NR70", ["NR70", "NR70 series"])
            .subject("T series CLIEs", ["T series CLIEs", "T series"])
            .subject("Sony PDA", ["Sony PDA"])
            .subject("camera", ["camera", "cameras"])
            .build()
    }

    fn polarities(text: &str) -> Vec<(String, Polarity)> {
        let miner = SentimentMiner::with_default_resources();
        let records = miner.analyze_text(text, &subjects());
        mention_polarities(&records)
            .into_iter()
            .map(|(s, _, p)| (s, p))
            .collect()
    }

    #[test]
    fn paper_sample_sentence_2() {
        let got = polarities(
            "Unlike the more recent T series CLIEs, the NR70 does not require an \
             add-on adapter for MP3 playback, which is certainly a welcome change.",
        );
        assert!(
            got.contains(&("NR70".into(), Polarity::Positive)),
            "{got:?}"
        );
        assert!(
            got.contains(&("T series CLIEs".into(), Polarity::Negative)),
            "{got:?}"
        );
    }

    #[test]
    fn paper_sample_sentence_1() {
        let got = polarities(
            "As with every Sony PDA before it, the NR70 series is equipped with \
             Sony's own Memory Stick expansion.",
        );
        assert!(
            got.contains(&("NR70".into(), Polarity::Positive)),
            "{got:?}"
        );
        assert!(
            got.contains(&("Sony PDA".into(), Polarity::Positive)),
            "{got:?}"
        );
    }

    #[test]
    fn simple_positive_and_negative() {
        let got = polarities("This camera takes excellent pictures.");
        assert_eq!(got, vec![("camera".into(), Polarity::Positive)]);
        let got = polarities("This camera takes blurry pictures.");
        assert_eq!(got, vec![("camera".into(), Polarity::Negative)]);
    }

    #[test]
    fn neutral_mention() {
        let got = polarities("This camera has a three inch screen.");
        assert_eq!(got, vec![("camera".into(), Polarity::Neutral)]);
    }

    #[test]
    fn subject_not_target_stays_neutral() {
        // sentiment is about the pictures' subject (camera absent as target)
        let got = polarities("The camera sat on the shelf while the movie played.");
        assert_eq!(got, vec![("camera".into(), Polarity::Neutral)]);
    }

    #[test]
    fn multiple_sentences_independent() {
        let got = polarities("The camera is excellent. The NR70 is terrible.");
        assert!(got.contains(&("camera".into(), Polarity::Positive)));
        assert!(got.contains(&("NR70".into(), Polarity::Negative)));
    }

    #[test]
    fn named_entity_mode_finds_subjects() {
        let miner = SentimentMiner::with_default_resources();
        let records =
            miner.analyze_named_entities("Zorblax shipped a great product. Quuxcorp struggled.");
        let got: Vec<(String, Polarity)> = mention_polarities(&records)
            .into_iter()
            .map(|(s, _, p)| (s, p))
            .collect();
        assert!(
            got.contains(&("Zorblax".into(), Polarity::Positive)),
            "{got:?}"
        );
        assert!(
            got.contains(&("Quuxcorp".into(), Polarity::Negative)),
            "{got:?}"
        );
    }

    #[test]
    fn empty_text_and_no_spots() {
        let miner = SentimentMiner::with_default_resources();
        assert!(miner.analyze_text("", &subjects()).is_empty());
        assert!(miner
            .analyze_text("Nothing relevant here.", &subjects())
            .is_empty());
    }
}
