//! The sentiment analyzer against the seed's phrase scorer.
//!
//! The phrase scorer reads each token's lowercase form from the sentence's
//! token view, lemmatizes only verbs and plural nouns, and tries an n-gram
//! only from a word that begins a multi-word lexicon entry. The seed
//! allocated a lowercase and a lemma `String` per token and looked up every
//! 2..n-gram under all four POS classes. A frozen copy of the seed scorer
//! lives below; every `(start, end)` range of every sentence of a seeded
//! camera-review and petroleum-web sample must score the same under both,
//! over the document's scan arena and over owned tokens alike. The miners
//! that lend sentences by reference must then emit exactly the records of
//! the reference paths, which analyze owned sentences from the frozen NLP
//! path, evidence detail text included.

use std::sync::OnceLock;

use webfountain_sentiment::corpus::vocab::{CAMERA_FEATURES, CAMERA_PRODUCTS, PETRO_COMPANIES};
use webfountain_sentiment::corpus::{
    camera_reviews, petroleum_web, ReviewConfig, SlotWeights, WebConfig, WebMix,
};
use webfountain_sentiment::lexicon::{PosClass, SentimentLexicon};
use webfountain_sentiment::nlp::clause::is_negation_word;
use webfountain_sentiment::nlp::{
    lemma, AnalyzedSentence, DocScratch, Pipeline, PosTag, TokenAccess,
};
use webfountain_sentiment::sentiment::phrase::{manner_polarity, phrase_polarity};
use webfountain_sentiment::sentiment::SentimentMiner;
use webfountain_sentiment::spotter::{Spotter, SubjectList};
use webfountain_sentiment::types::Polarity;

/// The frozen seed phrase scorer and manner scorer, as they were before
/// lookups borrowed their keys.
mod seed {
    use super::*;

    fn pos_class(tag: PosTag) -> Option<PosClass> {
        if tag.is_adjective() {
            Some(PosClass::Adjective)
        } else if tag.is_common_noun() {
            Some(PosClass::Noun)
        } else if tag.is_verb() {
            Some(PosClass::Verb)
        } else if tag.is_adverb() {
            Some(PosClass::Adverb)
        } else {
            None
        }
    }

    fn lookup_key(sentence: &AnalyzedSentence, i: usize) -> String {
        lemma::lemmatize(&sentence.tokens[i].lower(), sentence.tags[i])
    }

    pub fn phrase_polarity(
        sentence: &AnalyzedSentence,
        range: (usize, usize),
        lexicon: &SentimentLexicon,
    ) -> Polarity {
        let (start, end) = range;
        let end = end.min(sentence.tokens.len());
        if start >= end {
            return Polarity::Neutral;
        }
        let mut score = 0i32;
        let mut negated = false;
        for i in start..end {
            let tag = sentence.tags[i];
            let lower = sentence.tokens[i].lower();
            let downward = matches!(lower.as_str(), "less" | "fewer");
            let negates = (is_negation_word(&lower)
                && (tag.is_adverb() || tag == PosTag::DT || tag == PosTag::IN))
                || (downward && (tag.is_adverb() || tag.is_adjective()));
            if negates {
                negated = !negated;
                continue;
            }
            if let Some(class) = pos_class(tag) {
                let key = lookup_key(sentence, i);
                if let Some(p) = lexicon.polarity(&key, class) {
                    score += p.score();
                    continue;
                }
            }
        }
        let max_n = lexicon.max_entry_words().min(end - start);
        for n in 2..=max_n {
            for i in start..=(end - n) {
                let gram = (i..i + n)
                    .map(|j| sentence.tokens[j].lower())
                    .collect::<Vec<_>>()
                    .join(" ");
                for class in PosClass::ALL {
                    if let Some(p) = lexicon.polarity(&gram, *class) {
                        score += p.score();
                        break;
                    }
                }
            }
        }
        Polarity::from_score(score).reversed_if(negated)
    }

    pub fn manner_polarity(
        sentence: &AnalyzedSentence,
        range: (usize, usize),
        lexicon: &SentimentLexicon,
    ) -> Polarity {
        let (start, end) = range;
        let end = end.min(sentence.tokens.len());
        let mut score = 0i32;
        for i in start..end {
            if sentence.tags[i].is_adverb() {
                let lower = sentence.tokens[i].lower();
                if is_negation_word(&lower) {
                    continue;
                }
                if let Some(p) = lexicon.polarity(&lower, PosClass::Adverb) {
                    score += p.score();
                }
            }
        }
        Polarity::from_score(score)
    }
}

const SEED: u64 = 20050405;

fn camera_texts() -> &'static [String] {
    static TEXTS: OnceLock<Vec<String>> = OnceLock::new();
    TEXTS.get_or_init(|| {
        let config = ReviewConfig {
            n_plus: 12,
            n_minus: 4,
            mention_slots: 3,
            feature_sentences: 3,
            weights: SlotWeights::default(),
        };
        let corpus = camera_reviews(SEED, &config);
        [corpus.d_plus_texts(), corpus.d_minus_texts()].concat()
    })
}

fn petroleum_texts() -> &'static [String] {
    static TEXTS: OnceLock<Vec<String>> = OnceLock::new();
    TEXTS.get_or_init(|| {
        let config = WebConfig {
            n_docs: 16,
            eval_sentences: 4,
            filler_sentences: 3,
            mix: WebMix::default(),
        };
        let corpus = petroleum_web(SEED, &config);
        [corpus.d_plus_texts(), corpus.d_minus_texts()].concat()
    })
}

fn subjects(names: &[&[&str]]) -> (SubjectList, Spotter) {
    let mut builder = SubjectList::builder();
    for name in names.concat() {
        builder = builder.subject(name, [name]);
    }
    let subjects = builder.build();
    let spotter = Spotter::new(&subjects);
    (subjects, spotter)
}

/// Sentences that hold the lexicon's multi-word entries, which the
/// generated corpora never use.
const MULTIWORD_TEXTS: &[&str] = &[
    "The company offers high quality products and low quality services.",
    "This top notch lens is state of the art, not low quality.",
    "Its HIGH QUALITY build is Top Notch, but the state of the art sensor is not.",
    "High high quality quality top notch notch state of the state of the art.",
    "Top notch!",
];

#[test]
fn phrase_scorer_matches_seed_on_every_range() {
    let lexicon = SentimentLexicon::default_lexicon();
    let pipeline = Pipeline::new();
    let mut scratch = DocScratch::new();
    let multiword: Vec<&str> = lexicon
        .iter()
        .map(|(term, _, _)| term)
        .filter(|term| term.contains(' '))
        .collect();
    let (mut sentences, mut ranges, mut scored, mut with_multiword) = (0, 0, 0, 0);
    let texts = camera_texts()
        .iter()
        .chain(petroleum_texts())
        .map(String::as_str);
    for text in texts.chain(MULTIWORD_TEXTS.iter().copied()) {
        pipeline.analyze_where(
            text,
            &mut scratch,
            |_| true,
            |kept| {
                let n = kept.view().tokens.len();
                let all = || (0..=n + 1).flat_map(|s| (s..=n + 1).map(move |e| (s, e)));
                let borrowed: Vec<(Polarity, Polarity)> = all()
                    .map(|r| {
                        let view = kept.view();
                        (
                            phrase_polarity(&view, r, lexicon),
                            manner_polarity(&view, r, lexicon),
                        )
                    })
                    .collect();
                let owned = kept.into_owned();
                let view = owned.view();
                let lowers: Vec<&str> = (0..n).map(|i| view.tokens.lower(i)).collect();
                let joined = lowers.join(" ");
                with_multiword += usize::from(multiword.iter().any(|t| joined.contains(t)));
                for (r, borrowed) in all().zip(borrowed) {
                    let frozen = (
                        seed::phrase_polarity(&owned, r, lexicon),
                        seed::manner_polarity(&owned, r, lexicon),
                    );
                    let lent = (
                        phrase_polarity(&view, r, lexicon),
                        manner_polarity(&view, r, lexicon),
                    );
                    assert_eq!(borrowed, frozen, "range {r:?} of {:?}", owned.span);
                    assert_eq!(lent, frozen, "range {r:?} of {:?}", owned.span);
                    ranges += 1;
                    scored += usize::from(frozen.0 != Polarity::Neutral);
                }
                sentences += 1;
            },
        );
    }
    assert!(sentences > 100, "{sentences} sentences");
    assert!(scored > 1000, "{scored} of {ranges} ranges carry sentiment");
    assert!(
        with_multiword >= 5,
        "{with_multiword} sentences hold a multi-word entry"
    );
}

#[test]
fn borrowed_miners_match_reference_records() {
    let miner = SentimentMiner::with_default_resources();
    let (camera, camera_spotter) = subjects(&[CAMERA_PRODUCTS, CAMERA_FEATURES]);
    let (petro, petro_spotter) = subjects(&[PETRO_COMPANIES]);
    let mut records = 0;
    for (texts, subjects, spotter) in [
        (camera_texts(), &camera, &camera_spotter),
        (petroleum_texts(), &petro, &petro_spotter),
    ] {
        let (batched, _) = miner.analyze_named_entities_batch(texts);
        for (text, mode_b) in texts.iter().zip(&batched) {
            let mode_a = miner.analyze_with_spotter(text, subjects, spotter);
            assert_eq!(
                mode_a,
                miner.analyze_with_spotter_reference(text, subjects, spotter),
                "Mode A on {text:?}"
            );
            assert_eq!(
                mode_b,
                &miner.analyze_named_entities_reference(text),
                "Mode B on {text:?}"
            );
            records += mode_a.len() + mode_b.len();
        }
    }
    assert!(records > 100, "{records} records");
}
