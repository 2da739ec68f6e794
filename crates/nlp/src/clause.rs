//! Clause-level analysis over chunks.
//!
//! Decomposes a chunked sentence into clauses and, per clause, the sentence
//! components the sentiment pattern database refers to: SP (subject phrase),
//! OP (object phrase), CP (complement/adjective phrase) and PP
//! (prepositional phrases with their prepositions), plus the predicate verb
//! and its negation state. This is the "semantic relationship analysis"
//! substrate of the paper's sentiment miner.

use crate::chunk::{Chunk, ChunkKind};
use crate::lemma::lemmatize_verb;
use crate::tags::PosTag;
use crate::tokenizer::Token;
use crate::view::{LoweredTokens, TokenAccess};

/// Negating adverbs/determiners per the paper: "not, no, never, hardly,
/// seldom, or little".
pub fn is_negation_word(lower: &str) -> bool {
    matches!(
        lower,
        "not"
            | "n't"
            | "n’t"
            | "no"
            | "never"
            | "hardly"
            | "seldom"
            | "little"
            | "barely"
            | "scarcely"
            | "rarely"
            | "neither"
            | "nor"
            | "without"
    )
}

/// Matrix verbs that negate their complement ("fails to meet ...").
fn is_negative_implicative(lemma: &str) -> bool {
    matches!(lemma, "fail" | "refuse" | "decline" | "neglect" | "cease")
}

/// The predicate of a clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Predicate {
    /// Index of the VP chunk within the sentence's chunk list.
    pub chunk: usize,
    /// Lemma of the main verb (pattern-database key).
    pub lemma: String,
    /// Token index (within the sentence) of the main verb.
    pub head_token: usize,
    /// True for passive voice (be/get + past participle).
    pub passive: bool,
}

/// One clause: component chunk indices into the sentence's chunk list.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Clause {
    /// Range of chunk indices `[start, end)` belonging to this clause.
    pub chunk_start: usize,
    pub chunk_end: usize,
    /// The predicate, when the clause has a verb group.
    pub predicate: Option<Predicate>,
    /// SP: subject NP chunk index.
    pub subject: Option<usize>,
    /// OP: object NP chunk index.
    pub object: Option<usize>,
    /// CP: complement ADJP (or predicate-nominal NP for copulas).
    pub complement: Option<usize>,
    /// PPs after the predicate: (lower-cased preposition, PP chunk index).
    pub pps: Vec<(String, usize)>,
    /// PPs attached between the subject and the predicate
    /// ("The support **in the NR70 series** is well implemented").
    pub subject_pps: Vec<(String, usize)>,
    /// PPs before the subject ("**Unlike the T series CLIEs,** the NR70 ...").
    pub leading_pps: Vec<(String, usize)>,
    /// True when the verb group is negated (negation adverb in the VP or a
    /// negative-implicative matrix verb).
    pub negated: bool,
    /// True when the clause opens with a relative pronoun; its subject is
    /// inherited from the previous clause's nearest NP.
    pub relative: bool,
}

/// Full clause analysis of one sentence.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SentenceAnalysis {
    pub clauses: Vec<Clause>,
}

/// Splits chunk indices into clause boundaries and analyzes each clause
/// (compatibility wrapper over owned tokens).
pub fn analyze_clauses(tokens: &[Token], tags: &[PosTag], chunks: &[Chunk]) -> SentenceAnalysis {
    analyze_clause_tokens(&LoweredTokens::new(tokens), tags, chunks)
}

/// Clause analysis over any token view.
pub fn analyze_clause_tokens<T: TokenAccess>(
    tokens: &T,
    tags: &[PosTag],
    chunks: &[Chunk],
) -> SentenceAnalysis {
    let boundaries = clause_boundaries(tokens, tags, chunks);
    let mut clauses = Vec::new();
    for window in boundaries.windows(2) {
        let (start, end) = (window[0], window[1]);
        if start >= end {
            continue;
        }
        let mut clause = analyze_one(tokens, tags, chunks, start, end);
        // Relative clauses inherit the nearest NP before them as subject.
        if clause.relative && clause.subject.is_none() {
            clause.subject = (0..start)
                .rev()
                .find(|&ci| chunks[ci].kind == ChunkKind::NP || chunks[ci].kind == ChunkKind::PP);
        }
        clauses.push(clause);
    }
    SentenceAnalysis { clauses }
}

/// Chunk indices where clauses begin (always starts with 0, ends with
/// `chunks.len()`). A new clause starts at:
/// - a coordinating conjunction between two verb-bearing stretches,
/// - a relative pronoun (which/who/that-WDT),
/// - a subordinating conjunction heading its own subject+verb,
/// - a semicolon.
fn clause_boundaries<T: TokenAccess>(tokens: &T, tags: &[PosTag], chunks: &[Chunk]) -> Vec<usize> {
    let mut bounds = vec![0];
    let has_vp_in =
        |range: std::ops::Range<usize>| range.clone().any(|ci| chunks[ci].kind == ChunkKind::VP);
    for ci in 0..chunks.len() {
        let c = &chunks[ci];
        if c.kind != ChunkKind::Other {
            continue;
        }
        let tag = tags[c.start];
        let prev_bound = *bounds.last().expect("non-empty");
        let is_cc_split =
            tag == PosTag::CC && has_vp_in(prev_bound..ci) && has_vp_in(ci + 1..chunks.len());
        let is_relative = matches!(tag, PosTag::WDT | PosTag::WP);
        let is_semicolon = tokens.text(c.start) == ";";
        let is_subordinator =
            tag == PosTag::IN && crate::chunk::is_subordinator(tokens.lower(c.start));
        // a comma separates clauses only when finite material sits on both
        // sides and an NP opens the right side ("the lens is sharp, the
        // menu is confusing"); appositive commas fail the VP tests
        let is_comma_split = tokens.text(c.start) == ","
            && has_vp_in(prev_bound..ci)
            && chunks.get(ci + 1).is_some_and(|c| c.kind == ChunkKind::NP)
            && has_vp_in(ci + 1..chunks.len());
        if is_cc_split || is_relative || is_semicolon || is_subordinator || is_comma_split {
            bounds.push(if is_relative { ci } else { ci + 1 });
        }
    }
    bounds.push(chunks.len());
    bounds.dedup();
    bounds
}

/// Analyzes the clause spanning chunks `[start, end)`.
fn analyze_one<T: TokenAccess>(
    tokens: &T,
    tags: &[PosTag],
    chunks: &[Chunk],
    start: usize,
    end: usize,
) -> Clause {
    let mut clause = Clause {
        chunk_start: start,
        chunk_end: end,
        ..Clause::default()
    };
    clause.relative = chunks[start].kind == ChunkKind::Other
        && matches!(tags[chunks[start].start], PosTag::WDT | PosTag::WP);

    // Predicate: first VP chunk in the clause.
    let vp_index = (start..end).find(|&ci| chunks[ci].kind == ChunkKind::VP);
    let Some(vp) = vp_index else {
        return clause;
    };
    let vp_chunk = &chunks[vp];

    // Main verb: the VP head (last verb token). Passive when a be/get form
    // precedes a final past participle inside the VP.
    let head_token = vp_chunk.head;
    let lemma = lemmatize_verb(tokens.lower(head_token)).into_owned();
    let mut passive = false;
    if tags[head_token] == PosTag::VBN {
        passive = (vp_chunk.start..head_token).any(|ti| {
            tags[ti].is_verb() && matches!(&*lemmatize_verb(tokens.lower(ti)), "be" | "get")
        });
    }

    // Negation: negating adverb inside the VP, or a negative-implicative
    // matrix verb before the head ("fails to meet").
    let mut negated = (vp_chunk.start..vp_chunk.end)
        .any(|ti| tags[ti].is_adverb() && is_negation_word(tokens.lower(ti)));
    for (ti, tag) in tags
        .iter()
        .enumerate()
        .take(head_token)
        .skip(vp_chunk.start)
    {
        if tag.is_verb() && is_negative_implicative(&lemmatize_verb(tokens.lower(ti))) {
            negated = !negated;
        }
    }

    clause.predicate = Some(Predicate {
        chunk: vp,
        lemma,
        head_token,
        passive,
    });
    clause.negated = negated;

    // Subject: nearest NP before the VP; PPs between it and the VP are
    // subject-attached; PPs before the subject are leading.
    let mut subject = None;
    for ci in (start..vp).rev() {
        match chunks[ci].kind {
            ChunkKind::NP if subject.is_none() => subject = Some(ci),
            ChunkKind::PP => {
                let prep = tokens.lower(chunks[ci].head).to_string();
                if subject.is_none() {
                    clause.subject_pps.push((prep, ci));
                } else {
                    clause.leading_pps.push((prep, ci));
                }
            }
            _ => {}
        }
    }
    clause.subject_pps.reverse();
    clause.leading_pps.reverse();
    clause.subject = subject;

    // Object / complement / trailing PPs.
    for (ci, chunk) in chunks.iter().enumerate().take(end).skip(vp + 1) {
        match chunk.kind {
            ChunkKind::NP if clause.object.is_none() => clause.object = Some(ci),
            ChunkKind::ADJP if clause.complement.is_none() => clause.complement = Some(ci),
            ChunkKind::PP => {
                let prep = tokens.lower(chunk.head).to_string();
                clause.pps.push((prep, ci));
            }
            ChunkKind::VP => break, // a second verb group ends this clause's scope
            _ => {}
        }
    }

    // Copula predicate nominal: "It is a great camera" — the object NP
    // functions as the complement.
    if clause.complement.is_none()
        && clause.predicate.as_ref().map(|p| p.lemma.as_str()) == Some("be")
    {
        if let Some(obj) = clause.object.take() {
            clause.complement = Some(obj);
        }
    }

    // "no" determiner in the object NP negates the clause ("offers no
    // support").
    if let Some(obj) = clause.object {
        let c = &chunks[obj];
        if (c.start..c.end).any(|ti| tags[ti] == PosTag::DT && tokens.lower(ti) == "no") {
            clause.negated = !clause.negated;
        }
    }

    clause
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::chunk;
    use crate::pos::PosTagger;
    use crate::tokenizer::tokenize;

    struct Parsed {
        tokens: Vec<Token>,
        chunks: Vec<Chunk>,
        analysis: SentenceAnalysis,
    }

    fn parse(text: &str) -> Parsed {
        let tokens = tokenize(text);
        let tags = PosTagger::new().tag_sentence(&tokens);
        let chunks = chunk(&tokens, &tags);
        let analysis = analyze_clauses(&tokens, &tags, &chunks);
        Parsed {
            tokens,
            chunks,
            analysis,
        }
    }

    fn chunk_text(p: &Parsed, ci: usize) -> String {
        p.chunks[ci].text(&p.tokens)
    }

    #[test]
    fn simple_svo_clause() {
        let p = parse("This camera takes excellent pictures.");
        assert_eq!(p.analysis.clauses.len(), 1);
        let c = &p.analysis.clauses[0];
        let pred = c.predicate.as_ref().unwrap();
        assert_eq!(pred.lemma, "take");
        assert!(!pred.passive);
        assert_eq!(chunk_text(&p, c.subject.unwrap()), "This camera");
        assert_eq!(chunk_text(&p, c.object.unwrap()), "excellent pictures");
        assert!(!c.negated);
    }

    #[test]
    fn copula_complement() {
        let p = parse("The colors are vibrant.");
        let c = &p.analysis.clauses[0];
        assert_eq!(c.predicate.as_ref().unwrap().lemma, "be");
        assert_eq!(chunk_text(&p, c.subject.unwrap()), "The colors");
        assert_eq!(chunk_text(&p, c.complement.unwrap()), "vibrant");
        assert!(c.object.is_none());
    }

    #[test]
    fn passive_with_agent_pp() {
        let p = parse("I am impressed by the picture quality.");
        let c = &p.analysis.clauses[0];
        let pred = c.predicate.as_ref().unwrap();
        assert_eq!(pred.lemma, "impress");
        assert!(pred.passive);
        assert_eq!(c.pps.len(), 1);
        assert_eq!(c.pps[0].0, "by");
        assert!(chunk_text(&p, c.pps[0].1).contains("picture quality"));
    }

    #[test]
    fn negated_clause() {
        let p = parse("The NR70 does not require an add-on adapter.");
        let c = &p.analysis.clauses[0];
        assert!(c.negated);
        assert_eq!(c.predicate.as_ref().unwrap().lemma, "require");
        assert_eq!(chunk_text(&p, c.subject.unwrap()), "The NR70");
    }

    #[test]
    fn leading_contrast_pp() {
        let p = parse("Unlike the T series CLIEs, the NR70 works well.");
        let c = &p.analysis.clauses[0];
        assert_eq!(c.leading_pps.len(), 1);
        assert_eq!(c.leading_pps[0].0, "unlike");
        assert!(chunk_text(&p, c.leading_pps[0].1).contains("T series CLIEs"));
        assert_eq!(chunk_text(&p, c.subject.unwrap()), "the NR70");
    }

    #[test]
    fn subject_attached_pp() {
        let p = parse("The Memory Stick support in the NR70 series is well implemented.");
        let c = &p.analysis.clauses[0];
        assert_eq!(
            chunk_text(&p, c.subject.unwrap()),
            "The Memory Stick support"
        );
        assert_eq!(c.subject_pps.len(), 1);
        assert_eq!(c.subject_pps[0].0, "in");
        let pred = c.predicate.as_ref().unwrap();
        assert_eq!(pred.lemma, "implement");
        assert!(pred.passive);
    }

    #[test]
    fn coordinated_clauses_split() {
        let p = parse("The lens is sharp but the battery drains quickly.");
        assert_eq!(p.analysis.clauses.len(), 2);
        assert_eq!(
            p.analysis.clauses[0].predicate.as_ref().unwrap().lemma,
            "be"
        );
        assert_eq!(
            p.analysis.clauses[1].predicate.as_ref().unwrap().lemma,
            "drain"
        );
        assert_eq!(
            chunk_text(&p, p.analysis.clauses[1].subject.unwrap()),
            "the battery"
        );
    }

    #[test]
    fn relative_clause_inherits_antecedent() {
        let p = parse("It has a zoom lens which performs beautifully.");
        assert_eq!(p.analysis.clauses.len(), 2);
        let rel = &p.analysis.clauses[1];
        assert!(rel.relative);
        assert_eq!(rel.predicate.as_ref().unwrap().lemma, "perform");
        assert!(chunk_text(&p, rel.subject.unwrap()).contains("zoom lens"));
    }

    #[test]
    fn negative_implicative_matrix_verb() {
        let p = parse("The product fails to meet our quality expectations.");
        let c = &p.analysis.clauses[0];
        assert_eq!(c.predicate.as_ref().unwrap().lemma, "meet");
        assert!(c.negated, "fail-to flips polarity");
    }

    #[test]
    fn object_no_determiner_negates() {
        let p = parse("The company offers no support.");
        let c = &p.analysis.clauses[0];
        assert!(c.negated);
        assert_eq!(c.predicate.as_ref().unwrap().lemma, "offer");
    }

    #[test]
    fn verbless_fragment_has_no_predicate() {
        let p = parse("What a camera!");
        assert!(p
            .analysis
            .clauses
            .iter()
            .all(|c| c.predicate.is_none() || c.predicate.is_some()));
        // must not panic; fragment may yield zero or predicate-less clauses
    }

    #[test]
    fn trans_verb_offer_has_subject_and_object() {
        let p = parse("The company offers mediocre services.");
        let c = &p.analysis.clauses[0];
        assert_eq!(c.predicate.as_ref().unwrap().lemma, "offer");
        assert_eq!(chunk_text(&p, c.subject.unwrap()), "The company");
        assert_eq!(chunk_text(&p, c.object.unwrap()), "mediocre services");
    }
}
