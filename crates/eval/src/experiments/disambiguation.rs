//! Disambiguation experiment: the SUN/Sunday problem from §3.
//!
//! Measures (a) the disambiguator's spot-verdict accuracy on an ambiguous
//! brand name, and (b) the downstream effect: sentiment false positives
//! from off-topic pages with and without disambiguation.

use super::{ExperimentScale, Report};
use crate::metrics::pct;
use wf_corpus::ambiguity::{
    ambiguity_corpus, brand_context_terms, climbing_context_terms, AMBIGUOUS_BRAND,
};
use wf_sentiment::{mention_polarities, SentimentMiner, SubjectList};
use wf_spotter::{Disambiguator, SpotVerdict, Spotter, TopicContext};

/// Results of the disambiguation study.
#[derive(Debug, Clone)]
pub struct DisambiguationResult {
    /// Spots in on-topic documents / total spots.
    pub on_topic_fraction: f64,
    /// Verdict accuracy of the disambiguator.
    pub verdict_accuracy: f64,
    /// Verdict accuracy of the no-disambiguation baseline (everything
    /// on-topic).
    pub baseline_accuracy: f64,
    /// Sentiment records extracted from *off-topic* documents without
    /// disambiguation (all spurious).
    pub spurious_without: usize,
    /// The same after filtering spots through the disambiguator.
    pub spurious_with: usize,
    /// Sentiment records kept from on-topic documents after filtering
    /// (must stay high — disambiguation must not throw away the signal).
    pub kept_on_topic: usize,
    /// Sentiment records from on-topic documents without filtering.
    pub total_on_topic: usize,
}

/// Runs the study on a generated ambiguous-subject corpus.
pub fn disambiguation_study(seed: u64, n_on: usize, n_off: usize) -> DisambiguationResult {
    let docs = ambiguity_corpus(seed, n_on, n_off);
    let subjects = SubjectList::builder()
        .subject(AMBIGUOUS_BRAND, [AMBIGUOUS_BRAND])
        .build();
    let spotter = Spotter::new(&subjects);
    let disambiguator = Disambiguator::with_context(TopicContext {
        on_topic: brand_context_terms(),
        off_topic: climbing_context_terms(),
        affinities: vec![("apex".into(), "camera".into())],
    });
    let miner = SentimentMiner::with_default_resources();

    let mut total_spots = 0usize;
    let mut on_topic_spots = 0usize;
    let mut correct_verdicts = 0usize;
    let mut baseline_correct = 0usize;
    let mut spurious_without = 0usize;
    let mut spurious_with = 0usize;
    let mut kept_on_topic = 0usize;
    let mut total_on_topic = 0usize;

    for doc in &docs {
        let spots = spotter.spot(&doc.text);
        let verdicts = disambiguator.disambiguate(&doc.text, &spots);
        let gold = if doc.on_topic {
            SpotVerdict::OnTopic
        } else {
            SpotVerdict::OffTopic
        };
        for verdict in &verdicts {
            total_spots += 1;
            if doc.on_topic {
                on_topic_spots += 1;
            }
            if *verdict == gold {
                correct_verdicts += 1;
            }
            if gold == SpotVerdict::OnTopic {
                baseline_correct += 1; // baseline says OnTopic always
            }
        }
        // downstream sentiment with and without the disambiguation filter
        let any_on = verdicts.contains(&SpotVerdict::OnTopic);
        let records = miner.analyze_with_spotter(&doc.text, &subjects, &spotter);
        let sentiment_mentions = mention_polarities(&records)
            .into_iter()
            .filter(|(_, _, p)| p.is_sentiment())
            .count();
        if doc.on_topic {
            total_on_topic += sentiment_mentions;
            if any_on {
                kept_on_topic += sentiment_mentions;
            }
        } else {
            spurious_without += sentiment_mentions;
            if any_on {
                spurious_with += sentiment_mentions;
            }
        }
    }

    let total = total_spots.max(1) as f64;
    DisambiguationResult {
        on_topic_fraction: on_topic_spots as f64 / total,
        verdict_accuracy: correct_verdicts as f64 / total,
        baseline_accuracy: baseline_correct as f64 / total,
        spurious_without,
        spurious_with,
        kept_on_topic,
        total_on_topic,
    }
}

/// The study's report. It runs at one fixed size and seed, so both
/// scales print the same.
pub(crate) fn disambiguation_report(_scale: &ExperimentScale) -> Report {
    let r = disambiguation_study(20050405, 120, 180);
    let mut out = String::new();
    outln!(
        out,
        "Disambiguation study: ambiguous brand \"Apex\" (camera vs summit)\n"
    );
    outln!(
        out,
        "on-topic spot fraction:        {}",
        pct(r.on_topic_fraction)
    );
    outln!(
        out,
        "accept-all baseline accuracy:  {}",
        pct(r.baseline_accuracy)
    );
    outln!(
        out,
        "disambiguator verdict accuracy:{}",
        pct(r.verdict_accuracy)
    );
    outln!(out);
    outln!(
        out,
        "spurious sentiment records from off-topic pages: {} -> {} after filtering",
        r.spurious_without,
        r.spurious_with
    );
    outln!(
        out,
        "on-topic sentiment records kept: {}/{}",
        r.kept_on_topic,
        r.total_on_topic
    );
    Report::without_json(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disambiguator_beats_accept_all_baseline() {
        let r = disambiguation_study(7, 40, 60);
        assert!(
            r.verdict_accuracy > r.baseline_accuracy + 0.2,
            "verdicts {} vs baseline {}",
            r.verdict_accuracy,
            r.baseline_accuracy
        );
        assert!(r.verdict_accuracy > 0.9, "{}", r.verdict_accuracy);
    }

    #[test]
    fn filtering_removes_spurious_sentiment_keeps_signal() {
        let r = disambiguation_study(11, 40, 60);
        assert!(
            r.spurious_without > 0,
            "off-topic pages must tempt the miner"
        );
        assert!(
            (r.spurious_with as f64) < 0.3 * r.spurious_without as f64,
            "filter must remove most spurious records: {} -> {}",
            r.spurious_without,
            r.spurious_with
        );
        assert!(
            r.kept_on_topic as f64 >= 0.9 * r.total_on_topic as f64,
            "filter must keep the on-topic signal: {}/{}",
            r.kept_on_topic,
            r.total_on_topic
        );
    }
}
