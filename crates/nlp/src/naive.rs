//! Frozen seed reference implementation of the NLP chain.
//!
//! This module is a verbatim copy of the pre-optimization (per-token
//! `String`, one-document-at-a-time) tokenizer, sentence splitter, POS
//! tagger, chunker, clause analyzer and entity spotter. It exists so the
//! differential-equivalence harness (`tests/nlp_equivalence.rs`) can run
//! every input through both this path and the zero-copy batched path and
//! assert identical output. **Do not "optimize" or otherwise modify the
//! logic here** — it is the oracle. Shared *data* (the tag dictionary) and
//! the lemmatizer are reused because their outputs are pinned by their own
//! unit tests; all control flow is duplicated.

use crate::chunk::{is_subordinator, Chunk, ChunkKind};
use crate::clause::{is_negation_word, Clause, Predicate, SentenceAnalysis};
use crate::dict::TagDictionary;
use crate::lemma::lemmatize_verb;
use crate::ner::NamedEntity;
use crate::sentence::Sentence;
use crate::tags::PosTag;
use crate::tokenizer::{Token, TokenKind};
use crate::AnalyzedSentence;
use wf_types::Span;

/// Seed pipeline: tokenize → split → per-sentence clone → tag → chunk →
/// clause-analyze. Mirrors the seed `Pipeline::analyze` exactly.
pub fn analyze(text: &str) -> Vec<AnalyzedSentence> {
    let tokens = tokenize(text);
    let sentences = split_sentences(&tokens);
    sentences
        .iter()
        .map(|s| {
            let toks: Vec<Token> = s.tokens(&tokens).to_vec();
            let tags = tag_sentence(&toks);
            let chunks = chunk(&toks, &tags);
            let analysis = analyze_clauses(&toks, &tags, &chunks);
            AnalyzedSentence {
                span: s.span,
                tokens: toks,
                tags,
                chunks,
                analysis,
            }
        })
        .collect()
}

/// Seed `Pipeline::named_entities`: a second full tokenization pass.
pub fn named_entities(text: &str) -> Vec<NamedEntity> {
    let tokens = tokenize(text);
    let sentences = split_sentences(&tokens);
    let mut out = Vec::new();
    for s in &sentences {
        out.extend(spot_entities(&tokens, s));
    }
    out
}

// ---------------------------------------------------------------- tokenizer

/// Seed tokenizer (per-token owned `String`s).
pub fn tokenize(text: &str) -> Vec<Token> {
    let bytes = text.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = text[i..].chars().next().expect("in-bounds char");
        if c.is_whitespace() {
            i += c.len_utf8();
            continue;
        }
        if c.is_alphanumeric() {
            let start = i;
            let mut end = i;
            let mut has_alpha = false;
            let mut has_digit = false;
            let mut chars = text[i..].char_indices().peekable();
            while let Some((off, ch)) = chars.next() {
                let abs = i + off;
                if ch.is_alphanumeric() {
                    has_alpha |= ch.is_alphabetic();
                    has_digit |= ch.is_ascii_digit();
                    end = abs + ch.len_utf8();
                } else if (ch == '-' || ch == '\'' || ch == '’')
                    && end == abs
                    && abs > start
                    && chars
                        .peek()
                        .is_some_and(|&(_, next)| next.is_alphanumeric())
                {
                    end = abs + ch.len_utf8();
                } else if ch == '.'
                    && end == abs
                    && has_digit
                    && !has_alpha
                    && chars.peek().is_some_and(|&(_, next)| next.is_ascii_digit())
                {
                    end = abs + 1;
                } else {
                    break;
                }
            }
            let mut surface = &text[start..end];
            while surface.ends_with('-') || surface.ends_with('\'') || surface.ends_with('’') {
                end -= surface.chars().next_back().expect("non-empty").len_utf8();
                surface = &text[start..end];
            }
            split_clitics(text, start, end, has_alpha, &mut tokens);
            i = end;
        } else {
            let end = i + c.len_utf8();
            tokens.push(Token {
                text: text[i..end].to_string(),
                span: Span::new(i, end),
                kind: TokenKind::Punct,
            });
            i = end;
        }
    }
    tokens
}

fn split_clitics(text: &str, start: usize, end: usize, has_alpha: bool, out: &mut Vec<Token>) {
    let surface = &text[start..end];
    let lower = surface.to_lowercase();
    const CLITICS: &[&str] = &["n't", "n’t", "'s", "’s", "'re", "'ve", "'ll", "'d", "'m"];
    for clitic in CLITICS {
        if lower.ends_with(clitic) && lower.len() > clitic.len() {
            let split = end - clitic.len();
            push_word(text, start, split, has_alpha, out);
            out.push(Token {
                text: text[split..end].to_string(),
                span: Span::new(split, end),
                kind: TokenKind::Word,
            });
            return;
        }
    }
    push_word(text, start, end, has_alpha, out);
}

fn push_word(text: &str, start: usize, end: usize, has_alpha: bool, out: &mut Vec<Token>) {
    if start == end {
        return;
    }
    let kind = if has_alpha {
        TokenKind::Word
    } else {
        TokenKind::Number
    };
    out.push(Token {
        text: text[start..end].to_string(),
        span: Span::new(start, end),
        kind,
    });
}

// ----------------------------------------------------------------- sentence

const ABBREVIATIONS: &[&str] = &[
    "mr", "mrs", "ms", "dr", "prof", "sr", "jr", "st", "vs", "etc", "inc", "corp", "co", "ltd",
    "e.g", "i.e", "u.s", "u.k", "jan", "feb", "mar", "apr", "jun", "jul", "aug", "sep", "sept",
    "oct", "nov", "dec", "no", "vol", "fig", "approx", "dept", "est",
];

fn is_abbreviation(word: &str) -> bool {
    let lower = word.to_lowercase();
    ABBREVIATIONS.contains(&lower.as_str())
        || (word.len() == 1 && word.chars().all(|c| c.is_alphabetic()))
}

/// Seed sentence splitter.
pub fn split_sentences(tokens: &[Token]) -> Vec<Sentence> {
    let mut sentences = Vec::new();
    let mut start = 0;
    let mut i = 0;
    while i < tokens.len() {
        let tok = &tokens[i];
        let ends = match tok.text.as_str() {
            "!" | "?" => true,
            "." => {
                let prev_is_abbrev = i > 0
                    && tokens[i - 1].kind == TokenKind::Word
                    && is_abbreviation(&tokens[i - 1].text)
                    && tokens[i - 1].span.end == tok.span.start;
                !prev_is_abbrev
            }
            _ => false,
        };
        if ends {
            let mut end = i + 1;
            while end < tokens.len()
                && matches!(
                    tokens[end].text.as_str(),
                    "\"" | "'" | ")" | "]" | "”" | "’" | "." | "!" | "?"
                )
            {
                end += 1;
            }
            push_sentence(tokens, start, end, &mut sentences);
            start = end;
            i = end;
        } else {
            i += 1;
        }
    }
    push_sentence(tokens, start, tokens.len(), &mut sentences);
    sentences
}

fn push_sentence(tokens: &[Token], start: usize, end: usize, out: &mut Vec<Sentence>) {
    if start >= end {
        return;
    }
    let span = Span::new(tokens[start].span.start, tokens[end - 1].span.end);
    out.push(Sentence {
        start_token: start,
        end_token: end,
        span,
    });
}

// ---------------------------------------------------------------------- pos

/// Seed POS tagger (allocates a fresh lowercase `String` per rule lookup).
pub fn tag_sentence(tokens: &[Token]) -> Vec<PosTag> {
    let dict = TagDictionary::global();
    let mut tags: Vec<PosTag> = tokens
        .iter()
        .enumerate()
        .map(|(i, t)| initial_tag(dict, t, i == 0))
        .collect();
    apply_contextual_rules(dict, tokens, &mut tags);
    tags
}

fn initial_tag(dict: &TagDictionary, token: &Token, sentence_initial: bool) -> PosTag {
    match token.kind {
        TokenKind::Number => return PosTag::CD,
        TokenKind::Punct => return punct_tag(&token.text),
        TokenKind::Word => {}
    }
    let lower = token.lower();
    if let Some(tags) = dict.lookup(&lower) {
        return tags[0];
    }
    if token.is_capitalized() && !sentence_initial {
        return PosTag::NNP;
    }
    if sentence_initial && token.is_all_caps() && token.text.len() > 1 {
        return PosTag::NNP;
    }
    guess_by_suffix(&lower)
}

fn apply_contextual_rules(dict: &TagDictionary, tokens: &[Token], tags: &mut [PosTag]) {
    for _pass in 0..2 {
        for i in 0..tokens.len() {
            let lower = tokens[i].lower();
            let prev = previous_non_adverb(tags, i);
            let cur = tags[i];

            if let Some(p) = prev {
                if matches!(p, PosTag::DT | PosTag::PRPS | PosTag::JJ | PosTag::CD) && cur.is_verb()
                {
                    if dict.allows(&lower, PosTag::NN)
                        && dict.lookup(&lower).is_some_and(|t| t.contains(&PosTag::NN))
                    {
                        tags[i] = PosTag::NN;
                        continue;
                    }
                    if dict
                        .lookup(&lower)
                        .is_some_and(|t| t.contains(&PosTag::NNS))
                    {
                        tags[i] = PosTag::NNS;
                        continue;
                    }
                }
            }

            if let Some(p) = prev {
                if matches!(p, PosTag::TO | PosTag::MD)
                    && (cur.is_verb() || cur.is_noun())
                    && dict.lookup(&lower).is_some_and(|t| t.contains(&PosTag::VB))
                {
                    tags[i] = PosTag::VB;
                    continue;
                }
            }

            if matches!(cur, PosTag::NN | PosTag::NNS)
                && lower.ends_with('s')
                && !lower.ends_with("ss")
            {
                let prev_is_subject = prev.is_some_and(|p| {
                    matches!(p, PosTag::PRP | PosTag::NN | PosTag::NNS | PosTag::NNP)
                });
                let next_opens_np = tags.get(i + 1).is_some_and(|&n| {
                    matches!(n, PosTag::DT | PosTag::PRPS | PosTag::CD)
                        || n.is_adjective()
                        || n.is_noun()
                        || n.is_adverb()
                });
                let allowed = match dict.lookup(&lower) {
                    Some(t) => t.contains(&PosTag::VBZ),
                    None => true,
                };
                if prev_is_subject && next_opens_np && allowed {
                    tags[i] = PosTag::VBZ;
                    continue;
                }
            }

            if cur == PosTag::NN
                && dict
                    .lookup(&lower)
                    .is_some_and(|t| t.contains(&PosTag::VBP))
            {
                let prev_is_plural_subject =
                    prev.is_some_and(|p| matches!(p, PosTag::PRP | PosTag::NNS | PosTag::NNPS));
                if prev_is_plural_subject {
                    tags[i] = PosTag::VBP;
                    continue;
                }
            }

            if lower == "that" && prev.is_some_and(|p| p.is_verb()) {
                tags[i] = PosTag::IN;
                continue;
            }

            if matches!(cur, PosTag::VBD | PosTag::VBN)
                && dict.allows(&lower, PosTag::VBD)
                && dict.allows(&lower, PosTag::VBN)
            {
                if has_aux_before(tokens, tags, i) {
                    tags[i] = PosTag::VBN;
                } else if prev
                    .is_some_and(|p| matches!(p, PosTag::PRP | PosTag::NNP) || p.is_common_noun())
                {
                    tags[i] = PosTag::VBD;
                }
                continue;
            }

            if (lower == "'s" || lower == "’s") && prev.is_some_and(|p| !p.is_noun()) {
                tags[i] = PosTag::VBZ;
                continue;
            }
        }
    }
}

fn previous_non_adverb(tags: &[PosTag], i: usize) -> Option<PosTag> {
    tags[..i].iter().rev().copied().find(|t| !t.is_adverb())
}

fn has_aux_before(tokens: &[Token], tags: &[PosTag], i: usize) -> bool {
    let mut seen = 0;
    for j in (0..i).rev() {
        if tags[j].is_adverb() {
            continue;
        }
        let lower = tokens[j].lower();
        if matches!(
            lower.as_str(),
            "be" | "am"
                | "is"
                | "are"
                | "was"
                | "were"
                | "been"
                | "being"
                | "have"
                | "has"
                | "had"
                | "having"
                | "'ve"
                | "get"
                | "gets"
                | "got"
                | "getting"
        ) {
            return true;
        }
        seen += 1;
        if seen >= 3 || !tags[j].is_verb() {
            return false;
        }
    }
    false
}

fn punct_tag(text: &str) -> PosTag {
    match text {
        "." | "!" | "?" => PosTag::Period,
        "," => PosTag::Comma,
        ":" | ";" | "-" | "–" | "—" => PosTag::Colon,
        _ => PosTag::Sym,
    }
}

fn guess_by_suffix(lower: &str) -> PosTag {
    const NOUN_SUFFIXES: &[&str] = &[
        "tion", "sion", "ment", "ness", "ity", "ance", "ence", "ship", "ism", "ware", "hood",
        "age", "ery",
    ];
    const ADJ_SUFFIXES: &[&str] = &[
        "ous", "ful", "ive", "able", "ible", "ish", "less", "ant", "ic", "ary",
    ];
    if lower.ends_with("ly") {
        return PosTag::RB;
    }
    if lower.ends_with("ing") && lower.len() > 4 {
        return PosTag::VBG;
    }
    if lower.ends_with("ed") && lower.len() > 3 {
        return PosTag::VBN;
    }
    for s in NOUN_SUFFIXES {
        if lower.ends_with(s) {
            return PosTag::NN;
        }
    }
    for s in ADJ_SUFFIXES {
        if lower.ends_with(s) {
            return PosTag::JJ;
        }
    }
    if lower.ends_with("est") && lower.len() > 4 {
        return PosTag::JJS;
    }
    if lower.ends_with('s') && !lower.ends_with("ss") && lower.len() > 2 {
        return PosTag::NNS;
    }
    PosTag::NN
}

// -------------------------------------------------------------------- chunk

fn is_np_premodifier(tag: PosTag) -> bool {
    tag.is_adjective() || matches!(tag, PosTag::CD | PosTag::VBN | PosTag::VBG)
}

/// Seed chunker.
pub fn chunk(tokens: &[Token], tags: &[PosTag]) -> Vec<Chunk> {
    assert_eq!(tokens.len(), tags.len(), "tokens/tags length mismatch");
    let mut chunks = Vec::new();
    let mut i = 0;
    let n = tokens.len();
    while i < n {
        let tag = tags[i];
        if matches!(tag, PosTag::PRP | PosTag::EX) {
            chunks.push(Chunk {
                kind: ChunkKind::NP,
                start: i,
                end: i + 1,
                head: i,
                object: None,
            });
            i += 1;
            continue;
        }
        if tag == PosTag::IN && is_subordinator(&tokens[i].lower()) {
            chunks.push(Chunk {
                kind: ChunkKind::Other,
                start: i,
                end: i + 1,
                head: i,
                object: None,
            });
            i += 1;
            continue;
        }
        if tag == PosTag::IN {
            let prep = i;
            if let Some(np) = match_np(tags, i + 1) {
                chunks.push(Chunk {
                    kind: ChunkKind::PP,
                    start: prep,
                    end: np.1,
                    head: prep,
                    object: Some(np.0),
                });
                i = np.1;
            } else {
                chunks.push(Chunk {
                    kind: ChunkKind::PP,
                    start: prep,
                    end: prep + 1,
                    head: prep,
                    object: None,
                });
                i += 1;
            }
            continue;
        }
        if let Some((np_start, np_end, head)) = match_np_full(tags, i) {
            chunks.push(Chunk {
                kind: ChunkKind::NP,
                start: np_start,
                end: np_end,
                head,
                object: None,
            });
            i = np_end;
            continue;
        }
        if tag.is_verb() || tag == PosTag::MD || (tag.is_adverb() && starts_vp(tags, i)) {
            let start = i;
            let mut j = i;
            while j < n && (tags[j] == PosTag::MD || tags[j].is_adverb()) {
                j += 1;
            }
            let verb_start = j;
            while j < n && (tags[j].is_verb() || tags[j].is_adverb() || tags[j] == PosTag::TO) {
                if tags[j] == PosTag::TO && !(j + 1 < n && tags[j + 1].is_verb()) {
                    break;
                }
                j += 1;
            }
            if j > verb_start {
                let head = (start..j)
                    .rev()
                    .find(|&k| tags[k].is_verb())
                    .expect("VP contains a verb");
                chunks.push(Chunk {
                    kind: ChunkKind::VP,
                    start,
                    end: j,
                    head,
                    object: None,
                });
                i = j;
                continue;
            }
        }
        if tag.is_adjective() || (tag.is_adverb() && i + 1 < n && tags[i + 1].is_adjective()) {
            let start = i;
            let mut j = i;
            while j < n && tags[j].is_adverb() {
                j += 1;
            }
            let mut head = j;
            while j < n && tags[j].is_adjective() {
                head = j;
                j += 1;
            }
            if head < j {
                chunks.push(Chunk {
                    kind: ChunkKind::ADJP,
                    start,
                    end: j,
                    head,
                    object: None,
                });
                i = j;
                continue;
            }
        }
        chunks.push(Chunk {
            kind: ChunkKind::Other,
            start: i,
            end: i + 1,
            head: i,
            object: None,
        });
        i += 1;
    }
    chunks
}

fn starts_vp(tags: &[PosTag], i: usize) -> bool {
    let mut j = i;
    while j < tags.len() && tags[j].is_adverb() {
        j += 1;
    }
    j < tags.len() && (tags[j].is_verb() || tags[j] == PosTag::MD)
}

fn match_np(tags: &[PosTag], i: usize) -> Option<(usize, usize)> {
    match_np_full(tags, i).map(|(s, e, _)| (s, e))
}

fn match_np_full(tags: &[PosTag], i: usize) -> Option<(usize, usize, usize)> {
    let n = tags.len();
    if i >= n {
        return None;
    }
    if matches!(tags[i], PosTag::PRP | PosTag::EX) {
        return Some((i, i + 1, i));
    }
    let mut j = i;
    if j < n && tags[j] == PosTag::PDT {
        j += 1;
    }
    if j < n && matches!(tags[j], PosTag::DT | PosTag::PRPS) {
        j += 1;
    }
    let mut saw_noun = false;
    let mut head = j;
    loop {
        if j < n && tags[j].is_adverb() && j + 1 < n && is_np_premodifier(tags[j + 1]) {
            j += 2;
            continue;
        }
        if j < n && is_np_premodifier(tags[j]) {
            j += 1;
            continue;
        }
        if j < n && tags[j].is_noun() {
            head = j;
            saw_noun = true;
            j += 1;
            if j < n && tags[j] == PosTag::POS {
                j += 1;
            }
            continue;
        }
        break;
    }
    if saw_noun && j > i {
        Some((i, j, head))
    } else {
        None
    }
}

// ------------------------------------------------------------------- clause

fn is_negative_implicative(lemma: &str) -> bool {
    matches!(lemma, "fail" | "refuse" | "decline" | "neglect" | "cease")
}

/// Seed clause analyzer.
pub fn analyze_clauses(tokens: &[Token], tags: &[PosTag], chunks: &[Chunk]) -> SentenceAnalysis {
    let boundaries = clause_boundaries(tokens, tags, chunks);
    let mut clauses = Vec::new();
    for window in boundaries.windows(2) {
        let (start, end) = (window[0], window[1]);
        if start >= end {
            continue;
        }
        let mut clause = analyze_one(tokens, tags, chunks, start, end);
        if clause.relative && clause.subject.is_none() {
            clause.subject = (0..start)
                .rev()
                .find(|&ci| chunks[ci].kind == ChunkKind::NP || chunks[ci].kind == ChunkKind::PP);
        }
        clauses.push(clause);
    }
    SentenceAnalysis { clauses }
}

fn clause_boundaries(tokens: &[Token], tags: &[PosTag], chunks: &[Chunk]) -> Vec<usize> {
    let mut bounds = vec![0];
    let has_vp_in =
        |range: std::ops::Range<usize>| range.clone().any(|ci| chunks[ci].kind == ChunkKind::VP);
    for ci in 0..chunks.len() {
        let c = &chunks[ci];
        if c.kind != ChunkKind::Other {
            continue;
        }
        let tok = &tokens[c.start];
        let tag = tags[c.start];
        let prev_bound = *bounds.last().expect("non-empty");
        let is_cc_split =
            tag == PosTag::CC && has_vp_in(prev_bound..ci) && has_vp_in(ci + 1..chunks.len());
        let is_relative = matches!(tag, PosTag::WDT | PosTag::WP);
        let is_semicolon = tok.text == ";";
        let is_subordinator_split = tag == PosTag::IN && is_subordinator(&tok.lower());
        let is_comma_split = tok.text == ","
            && has_vp_in(prev_bound..ci)
            && chunks.get(ci + 1).is_some_and(|c| c.kind == ChunkKind::NP)
            && has_vp_in(ci + 1..chunks.len());
        if is_cc_split || is_relative || is_semicolon || is_subordinator_split || is_comma_split {
            bounds.push(if is_relative { ci } else { ci + 1 });
        }
    }
    bounds.push(chunks.len());
    bounds.dedup();
    bounds
}

fn analyze_one(
    tokens: &[Token],
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

    let vp_index = (start..end).find(|&ci| chunks[ci].kind == ChunkKind::VP);
    let Some(vp) = vp_index else {
        return clause;
    };
    let vp_chunk = &chunks[vp];

    let head_token = vp_chunk.head;
    let lemma = lemmatize_verb(&tokens[head_token].lower()).into_owned();
    let mut passive = false;
    if tags[head_token] == PosTag::VBN {
        passive = (vp_chunk.start..head_token).any(|ti| {
            matches!(&*lemmatize_verb(&tokens[ti].lower()), "be" | "get") && tags[ti].is_verb()
        });
    }

    let mut negated = (vp_chunk.start..vp_chunk.end)
        .any(|ti| tags[ti].is_adverb() && is_negation_word(&tokens[ti].lower()));
    for ti in vp_chunk.start..head_token {
        if tags[ti].is_verb() && is_negative_implicative(&lemmatize_verb(&tokens[ti].lower())) {
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

    let mut subject = None;
    for ci in (start..vp).rev() {
        match chunks[ci].kind {
            ChunkKind::NP if subject.is_none() => subject = Some(ci),
            ChunkKind::PP => {
                let prep = tokens[chunks[ci].head].lower();
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

    for ci in vp + 1..end {
        match chunks[ci].kind {
            ChunkKind::NP if clause.object.is_none() => clause.object = Some(ci),
            ChunkKind::ADJP if clause.complement.is_none() => clause.complement = Some(ci),
            ChunkKind::PP => {
                let prep = tokens[chunks[ci].head].lower();
                clause.pps.push((prep, ci));
            }
            ChunkKind::VP => break,
            _ => {}
        }
    }

    if clause.complement.is_none()
        && clause.predicate.as_ref().map(|p| p.lemma.as_str()) == Some("be")
    {
        if let Some(obj) = clause.object.take() {
            clause.complement = Some(obj);
        }
    }

    if let Some(obj) = clause.object {
        let c = &chunks[obj];
        if (c.start..c.end).any(|ti| tags[ti] == PosTag::DT && tokens[ti].lower() == "no") {
            clause.negated = !clause.negated;
        }
    }

    clause
}

// ---------------------------------------------------------------------- ner

fn is_infix(lower: &str) -> bool {
    matches!(lower, "of" | "and" | "for" | "the" | "de" | "van" | "von")
}

fn is_title(word: &str) -> bool {
    matches!(
        word,
        "Prof" | "Dr" | "Mr" | "Mrs" | "Ms" | "Sr" | "Jr" | "St" | "President" | "CEO"
    )
}

fn likely_sentence_case(token: &Token) -> bool {
    TagDictionary::global()
        .lookup(&token.lower())
        .is_some_and(|tags| !tags.iter().any(|t| t.is_proper_noun()))
}

/// Seed entity spotter.
pub fn spot_entities(tokens: &[Token], sentence: &Sentence) -> Vec<NamedEntity> {
    let mut entities = Vec::new();
    let range = sentence.start_token..sentence.end_token;
    let mut i = range.start;
    while i < range.end {
        let tok = &tokens[i];
        let sentence_initial = i == sentence.start_token;
        let opens = tok.kind == TokenKind::Word
            && tok.is_capitalized()
            && !(sentence_initial && likely_sentence_case(tok));
        if !opens {
            i += 1;
            continue;
        }
        let start = i;
        let mut end = i + 1;
        while end < range.end {
            let t = &tokens[end];
            let capitalized_word = t.kind == TokenKind::Word && t.is_capitalized();
            let infix_then_cap = t.kind == TokenKind::Word
                && is_infix(&t.lower())
                && end + 1 < range.end
                && tokens[end + 1].kind == TokenKind::Word
                && tokens[end + 1].is_capitalized();
            let abbrev_period = t.text == "."
                && end == start + 1
                && is_title(&tokens[start].text)
                && t.span.start == tokens[end - 1].span.end;
            if capitalized_word || infix_then_cap || abbrev_period {
                end += 1;
            } else {
                break;
            }
        }
        split_candidate(tokens, start, end, &mut entities);
        i = end;
    }
    entities
}

fn split_candidate(tokens: &[Token], start: usize, end: usize, out: &mut Vec<NamedEntity>) {
    let mut piece_start = start;
    let mut k = start;
    while k < end {
        let lower = tokens[k].lower();
        let splits_here =
            (lower == "of" || lower == "and" || lower == "for") && k > piece_start && k + 1 < end;
        let possessive = lower == "'s" || lower == "’s";
        if splits_here || possessive {
            emit(tokens, piece_start, k, out);
            piece_start = k + 1;
        }
        k += 1;
    }
    emit(tokens, piece_start, end, out);
}

fn emit(tokens: &[Token], start: usize, end: usize, out: &mut Vec<NamedEntity>) {
    if start >= end {
        return;
    }
    if end - start == 1 && (is_infix(&tokens[start].lower()) || tokens[start].text == ".") {
        return;
    }
    let mut text = String::new();
    for (n, t) in tokens[start..end].iter().enumerate() {
        if n > 0 && t.text != "." {
            text.push(' ');
        }
        text.push_str(&t.text);
    }
    out.push(NamedEntity {
        text,
        span: Span::new(tokens[start].span.start, tokens[end - 1].span.end),
        start_token: start,
        end_token: end,
    });
}
