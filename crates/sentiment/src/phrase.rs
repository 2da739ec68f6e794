//! Phrase-level polarity scoring.
//!
//! Per the paper: "The sentiment of a phrase is determined by the sentiment
//! words in the phrase. For example, excellent pictures (JJ NN) is a
//! positive sentiment phrase because excellent (JJ) is a positive sentiment
//! word. For a sentiment phrase with an adverb with negative meaning, such
//! as not, no, never, hardly, seldom, or little, the sentiment polarity of
//! the phrase is reversed."
//!
//! Scoring borrows each token's lowercase form from the sentence's token
//! view and looks it up by `&str`. Only verbs and plural nouns inside the
//! scored range are lemmatized, and an n-gram is built, in one reused
//! buffer, only from a word that begins a multi-word lexicon entry.

use wf_lexicon::{PosClass, SentimentLexicon};
use wf_nlp::clause::is_negation_word;
use wf_nlp::{lemma, PosTag, SentenceView, TokenAccess};
use wf_types::Polarity;

/// Maps a Penn tag to the lexicon's coarse POS class.
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

/// Polarity of one lower-cased token under its tag's class: verbs are
/// looked up by lemma, plural nouns by singular, everything else as is.
fn word_polarity(
    lower: &str,
    tag: PosTag,
    class: PosClass,
    lexicon: &SentimentLexicon,
) -> Option<Polarity> {
    if tag.is_verb() {
        lexicon.polarity(&lemma::lemmatize_verb(lower), class)
    } else if tag == PosTag::NNS {
        lexicon.polarity(&lemma::singularize(lower), class)
    } else {
        lexicon.polarity(lower, class)
    }
}

/// Scores the polarity of the token range `[start, end)` of a sentence.
///
/// The score sums lexicon polarities of the tokens (POS-checked, using
/// lemmas for verbs and singulars for nouns), plus multi-word lexicon
/// entries up to the lexicon's longest entry. Any negating word inside the
/// range reverses the total.
pub fn phrase_polarity<T: TokenAccess>(
    sentence: &SentenceView<'_, T>,
    range: (usize, usize),
    lexicon: &SentimentLexicon,
) -> Polarity {
    let tokens = &sentence.tokens;
    let (start, end) = range;
    let end = end.min(tokens.len());
    if start >= end {
        return Polarity::Neutral;
    }
    let mut score = 0i32;
    let mut negated = false;
    for i in start..end {
        let tag = sentence.tags[i];
        let lower = tokens.lower(i);
        // "less reliable" / "fewer problems" reverse like negators do;
        // unlike them they also act in adjectival position (JJR/RBR)
        let downward = matches!(lower, "less" | "fewer");
        let negates = (is_negation_word(lower)
            && (tag.is_adverb() || tag == PosTag::DT || tag == PosTag::IN))
            || (downward && (tag.is_adverb() || tag.is_adjective()));
        if negates {
            negated = !negated;
            continue;
        }
        if let Some(p) = pos_class(tag).and_then(|c| word_polarity(lower, tag, c, lexicon)) {
            score += p.score();
        }
    }
    // multi-word entries (surface form, space-joined, any adjacent n-gram
    // that starts at a word some entry starts with)
    let max_words = lexicon.max_entry_words();
    let mut gram = String::new();
    for i in start..end {
        let first = tokens.lower(i);
        if !lexicon.starts_multiword(first) {
            continue;
        }
        gram.clear();
        gram.push_str(first);
        for j in i + 1..end.min(i + max_words) {
            gram.push(' ');
            gram.push_str(tokens.lower(j));
            if let Some(p) = lexicon.polarity_any_pos(&gram) {
                score += p.score();
            }
        }
    }
    Polarity::from_score(score).reversed_if(negated)
}

/// Polarity carried by the adverbs of a verb-group token range (the MP
/// source: "performs beautifully").
pub fn manner_polarity<T: TokenAccess>(
    sentence: &SentenceView<'_, T>,
    range: (usize, usize),
    lexicon: &SentimentLexicon,
) -> Polarity {
    let (start, end) = range;
    let end = end.min(sentence.tokens.len());
    let mut score = 0i32;
    for i in start..end {
        if sentence.tags[i].is_adverb() {
            let lower = sentence.tokens.lower(i);
            if is_negation_word(lower) {
                continue; // clause-level negation is handled separately
            }
            if let Some(p) = lexicon.polarity(lower, PosClass::Adverb) {
                score += p.score();
            }
        }
    }
    Polarity::from_score(score)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wf_lexicon::SentimentLexicon;
    use wf_nlp::Pipeline;

    fn polarity_of(text: &str, phrase: &str) -> Polarity {
        let p = Pipeline::new();
        let s = p.analyze_sentence(text);
        // locate the token sub-range matching `phrase`
        let words: Vec<String> = phrase.split(' ').map(|w| w.to_lowercase()).collect();
        let n = words.len();
        for i in 0..=s.tokens.len().saturating_sub(n) {
            if (0..n).all(|j| s.tokens[i + j].lower() == words[j]) {
                return phrase_polarity(&s.view(), (i, i + n), SentimentLexicon::default_lexicon());
            }
        }
        panic!("phrase {phrase:?} not found in {text:?}");
    }

    #[test]
    fn positive_adjective_noun() {
        assert_eq!(
            polarity_of(
                "This camera takes excellent pictures.",
                "excellent pictures"
            ),
            Polarity::Positive
        );
    }

    #[test]
    fn negative_adjective() {
        assert_eq!(
            polarity_of("The company offers mediocre services.", "mediocre services"),
            Polarity::Negative
        );
    }

    #[test]
    fn neutral_phrase() {
        assert_eq!(
            polarity_of("The camera has a memory card.", "a memory card"),
            Polarity::Neutral
        );
    }

    #[test]
    fn negation_reverses() {
        assert_eq!(
            polarity_of("It is a not so great camera.", "a not so great camera"),
            Polarity::Negative
        );
        assert_eq!(
            polarity_of("There were no problems at all.", "no problems"),
            Polarity::Positive
        );
    }

    #[test]
    fn double_negation_restores() {
        assert_eq!(
            polarity_of("It is not without flaws.", "not without flaws"),
            Polarity::Negative
        );
    }

    #[test]
    fn mixed_terms_sum() {
        // one positive + one negative = neutral
        assert_eq!(
            polarity_of(
                "It has excellent pictures and terrible battery issues.",
                "excellent pictures and terrible battery"
            ),
            Polarity::Neutral
        );
    }

    #[test]
    fn negative_noun_counts() {
        assert_eq!(
            polarity_of("There is a lack of memory.", "a lack"),
            Polarity::Negative
        );
    }

    #[test]
    fn multiword_lexicon_entry() {
        assert_eq!(
            polarity_of(
                "The company offers high quality products.",
                "high quality products"
            ),
            Polarity::Positive
        );
    }

    #[test]
    fn manner_adverbs() {
        let p = Pipeline::new();
        let s = p.analyze_sentence("The lens performs beautifully.");
        let vp = s
            .chunks
            .iter()
            .find(|c| c.kind == wf_nlp::ChunkKind::VP)
            .unwrap();
        assert_eq!(
            manner_polarity(
                &s.view(),
                (vp.start, vp.end),
                SentimentLexicon::default_lexicon()
            ),
            Polarity::Positive
        );
    }

    #[test]
    fn empty_range_is_neutral() {
        let p = Pipeline::new();
        let s = p.analyze_sentence("Fine.");
        assert_eq!(
            phrase_polarity(&s.view(), (1, 1), SentimentLexicon::default_lexicon()),
            Polarity::Neutral
        );
        assert_eq!(
            phrase_polarity(&s.view(), (5, 9), SentimentLexicon::default_lexicon()),
            Polarity::Neutral
        );
    }

    #[test]
    fn verb_polarity_via_lemma() {
        assert_eq!(
            polarity_of("The screen impressed everyone.", "impressed everyone"),
            Polarity::Positive
        );
    }
}
