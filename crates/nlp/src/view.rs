//! Zero-copy token views for the batched NLP hot path.
//!
//! The seed pipeline carried a `String` per token and re-lowercased it at
//! every dictionary lookup. This module replaces that with offset spans
//! into the source text plus a single arena holding each token's lowercase
//! form, computed once at scan time. All downstream stages (POS, chunk,
//! clause, NER, sentence split) are generic over [`TokenAccess`], so they
//! run unchanged over either representation:
//!
//! - [`DocView`] / [`SpanToken`]: the zero-copy path. Token text is a
//!   borrowed slice of the document; the lowercase form is a borrowed
//!   slice of the per-document arena in [`DocScratch`].
//! - [`LoweredTokens`]: a compatibility wrapper over the legacy owned
//!   `&[Token]` slice (lowercases each token once up front), used by the
//!   public `&[Token]` entry points.
//!
//! [`DocScratch`] is reused across a batch: `annotate_batch` clears it
//! between documents instead of reallocating, so steady-state batch
//! processing does no per-token allocation at all before materialization.

use crate::tokenizer::{Token, TokenKind};
use wf_types::Span;

/// Uniform, allocation-free access to a tokenized document or sentence.
pub trait TokenAccess {
    fn len(&self) -> usize;
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Lexical class of token `i`.
    fn kind(&self, i: usize) -> TokenKind;
    /// Byte span of token `i` in the source document.
    fn span(&self, i: usize) -> Span;
    /// Surface form of token `i` (borrowed; no allocation).
    fn text(&self, i: usize) -> &str;
    /// Lowercase form of token `i` (borrowed; computed once at scan time).
    fn lower(&self, i: usize) -> &str;

    /// True when the first character is uppercase.
    fn is_capitalized(&self, i: usize) -> bool {
        let text = self.text(i);
        match text.as_bytes().first() {
            Some(&b) if b < 0x80 => b.is_ascii_uppercase(),
            _ => text.chars().next().is_some_and(|c| c.is_uppercase()),
        }
    }

    /// True when every alphabetic character is uppercase (acronyms: "IBM").
    fn is_all_caps(&self, i: usize) -> bool {
        let mut saw_alpha = false;
        for c in self.text(i).chars() {
            if c.is_alphabetic() {
                saw_alpha = true;
                if !c.is_uppercase() {
                    return false;
                }
            }
        }
        saw_alpha
    }
}

/// A token as offsets only: its span in the source text, its span in the
/// lowercase arena, and its lexical class. 40 bytes, `Copy`, no heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanToken {
    /// Byte span in the source text.
    pub span: Span,
    /// Byte span of the lowercase form in the scratch arena.
    pub lower: Span,
    /// Surface-form class.
    pub kind: TokenKind,
}

/// Reusable per-document scratch: span tokens plus the lowercase arena.
///
/// Clearing retains capacity, so one scratch amortizes all tokenizer
/// allocations across a batch.
#[derive(Debug, Default)]
pub struct DocScratch {
    pub(crate) tokens: Vec<SpanToken>,
    pub(crate) arena: String,
    /// Buffer for the clitic check's lowercased word run.
    lower_buf: String,
}

impl DocScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops the previous document's tokens, keeping allocations.
    pub fn clear(&mut self) {
        self.tokens.clear();
        self.arena.clear();
    }

    /// A zero-copy view over `text`, valid until the next `clear`/`scan`.
    /// `text` must be the string last scanned into this scratch.
    pub fn view<'a>(&'a self, text: &'a str) -> DocView<'a> {
        DocView {
            text,
            tokens: &self.tokens,
            arena: &self.arena,
        }
    }
}

/// Zero-copy view of a scanned document: source text + span tokens + arena.
#[derive(Debug, Clone, Copy)]
pub struct DocView<'a> {
    text: &'a str,
    tokens: &'a [SpanToken],
    arena: &'a str,
}

impl<'a> DocView<'a> {
    /// The underlying source text.
    pub fn source(&self) -> &'a str {
        self.text
    }

    /// Materializes token `i` as an owned legacy [`Token`].
    pub fn to_token(&self, i: usize) -> Token {
        let t = self.tokens[i];
        Token {
            text: t.span.slice(self.text).to_string(),
            span: t.span,
            kind: t.kind,
        }
    }

    /// Materializes a token range as owned legacy [`Token`]s.
    pub fn to_tokens(&self, start: usize, end: usize) -> Vec<Token> {
        (start..end).map(|i| self.to_token(i)).collect()
    }
}

impl TokenAccess for DocView<'_> {
    fn len(&self) -> usize {
        self.tokens.len()
    }
    fn kind(&self, i: usize) -> TokenKind {
        self.tokens[i].kind
    }
    fn span(&self, i: usize) -> Span {
        self.tokens[i].span
    }
    fn text(&self, i: usize) -> &str {
        self.tokens[i].span.slice(self.text)
    }
    fn lower(&self, i: usize) -> &str {
        self.tokens[i].lower.slice(self.arena)
    }
}

/// A contiguous sub-range of another view (sentence-local indexing).
#[derive(Debug, Clone, Copy)]
pub struct SubView<'a, T: TokenAccess> {
    base: &'a T,
    start: usize,
    end: usize,
}

impl<'a, T: TokenAccess> SubView<'a, T> {
    pub fn new(base: &'a T, start: usize, end: usize) -> Self {
        debug_assert!(start <= end && end <= base.len());
        SubView { base, start, end }
    }
}

impl<T: TokenAccess> TokenAccess for SubView<'_, T> {
    fn len(&self) -> usize {
        self.end - self.start
    }
    fn kind(&self, i: usize) -> TokenKind {
        self.base.kind(self.start + i)
    }
    fn span(&self, i: usize) -> Span {
        self.base.span(self.start + i)
    }
    fn text(&self, i: usize) -> &str {
        self.base.text(self.start + i)
    }
    fn lower(&self, i: usize) -> &str {
        self.base.lower(self.start + i)
    }
}

/// Compatibility adapter: owned legacy tokens with lowers precomputed once,
/// so the generic stages stay allocation-free over `&[Token]` input too.
/// The lowers share one arena, so an adapter costs two allocations
/// however many tokens it holds.
pub struct LoweredTokens<'a> {
    tokens: &'a [Token],
    /// Every token's lowercase, back to back.
    arena: String,
    /// End of each token's lowercase in `arena`; it starts where the
    /// previous one ends.
    ends: Vec<usize>,
}

impl<'a> LoweredTokens<'a> {
    pub fn new(tokens: &'a [Token]) -> Self {
        let mut arena = String::with_capacity(tokens.iter().map(|t| t.text.len()).sum());
        let ends = tokens
            .iter()
            .map(|t| {
                lowercase_into(&t.text, &mut arena);
                arena.len()
            })
            .collect();
        LoweredTokens {
            tokens,
            arena,
            ends,
        }
    }
}

impl TokenAccess for LoweredTokens<'_> {
    fn len(&self) -> usize {
        self.tokens.len()
    }
    fn kind(&self, i: usize) -> TokenKind {
        self.tokens[i].kind
    }
    fn span(&self, i: usize) -> Span {
        self.tokens[i].span
    }
    fn text(&self, i: usize) -> &str {
        &self.tokens[i].text
    }
    fn lower(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.arena[start..self.ends[i]]
    }
}

/// Scans `text` into `scratch` as span tokens, replacing its previous
/// contents. Token boundaries are byte-identical to the seed tokenizer
/// (`naive::tokenize`); the lowercase of each emitted token is appended to
/// the arena so `lower(i)` equals `text(i).to_lowercase()` by construction.
pub fn scan(text: &str, scratch: &mut DocScratch) {
    scratch.clear();
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if b < 0x80 {
            // ASCII fast path: classify the byte without UTF-8 decoding.
            // 0x0B (vertical tab) is Unicode whitespace but not ASCII
            // whitespace per `u8::is_ascii_whitespace`, so spell it out.
            if b.is_ascii_whitespace() || b == 0x0B {
                i += 1;
            } else if b.is_ascii_alphanumeric() {
                i = scan_word_run(text, i, scratch);
            } else {
                push_span_token(text, i, i + 1, TokenKind::Punct, scratch);
                i += 1;
            }
            continue;
        }
        let c = text[i..].chars().next().expect("in-bounds char");
        if c.is_whitespace() {
            i += c.len_utf8();
        } else if c.is_alphanumeric() {
            i = scan_word_run(text, i, scratch);
        } else {
            let end = i + c.len_utf8();
            push_span_token(text, i, end, TokenKind::Punct, scratch);
            i = end;
        }
    }
}

/// Scans one word/number run starting at the alphanumeric character at
/// `start`, pushes its token(s), and returns the position to resume at.
/// Byte-steps through ASCII and decodes chars only when a non-ASCII byte
/// appears, preserving the seed run rules exactly: internal joiners
/// (`-`, `'`, `’`) flanked by alphanumerics stay in the run, a `.` stays
/// inside an all-digit run, and `has_digit` tracks ASCII digits only.
fn scan_word_run(text: &str, start: usize, scratch: &mut DocScratch) -> usize {
    let bytes = text.as_bytes();
    let mut end = start;
    let mut j = start;
    let mut has_alpha = false;
    let mut has_digit = false;
    while j < bytes.len() {
        let b = bytes[j];
        if b < 0x80 {
            if b.is_ascii_alphanumeric() {
                has_alpha |= b.is_ascii_alphabetic();
                has_digit |= b.is_ascii_digit();
                j += 1;
                end = j;
            } else if (b == b'-' || b == b'\'')
                && end == j
                && j > start
                && next_char_is_alnum(text, j + 1)
            {
                // internal joiner — clitic split happens below
                j += 1;
                end = j;
            } else if b == b'.'
                && end == j
                && has_digit
                && !has_alpha
                && bytes.get(j + 1).is_some_and(|nb| nb.is_ascii_digit())
            {
                j += 1;
                end = j;
            } else {
                break;
            }
        } else {
            let ch = text[j..].chars().next().expect("in-bounds char");
            let width = ch.len_utf8();
            if ch.is_alphanumeric() {
                has_alpha |= ch.is_alphabetic();
                j += width;
                end = j;
            } else if ch == '’' && end == j && j > start && next_char_is_alnum(text, j + width) {
                j += width;
                end = j;
            } else {
                break;
            }
        }
    }
    // back off a dangling trailing joiner ("well-" before space)
    let mut surface = &text[start..end];
    while surface.ends_with('-') || surface.ends_with('\'') || surface.ends_with('’') {
        end -= surface.chars().next_back().expect("non-empty").len_utf8();
        surface = &text[start..end];
    }
    split_clitics(text, start, end, has_alpha, scratch);
    end
}

/// Whether the character starting at byte `pos` is alphanumeric.
fn next_char_is_alnum(text: &str, pos: usize) -> bool {
    match text.as_bytes().get(pos) {
        Some(&b) if b < 0x80 => b.is_ascii_alphanumeric(),
        Some(_) => text[pos..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric()),
        None => false,
    }
}

/// Splits Penn-Treebank clitics off the end of a word run. Mirrors the seed
/// logic, with one hardening: the seed computed the split point with byte
/// arithmetic on the *lowercased* suffix length and would slice at it
/// unchecked; here a non-boundary split (only possible if lowercasing ever
/// changed the byte length of the tail) skips the clitic instead of
/// panicking.
fn split_clitics(text: &str, start: usize, end: usize, has_alpha: bool, scratch: &mut DocScratch) {
    let surface = &text[start..end];
    scratch.lower_buf.clear();
    lowercase_into(surface, &mut scratch.lower_buf);
    // For ASCII runs the lowercase in `lower_buf` is byte-aligned with the
    // surface, so token pushes below can copy from it instead of
    // lowercasing each segment a second time.
    let ascii = surface.is_ascii();
    let push = |s: usize, e: usize, kind: TokenKind, scratch: &mut DocScratch| {
        if ascii {
            push_span_token_prelowered(start, s, e, kind, scratch);
        } else {
            push_span_token(text, s, e, kind, scratch);
        }
    };
    // clitic suffixes, longest first; n't must win over 't
    const CLITICS: &[&str] = &["n't", "n’t", "'s", "’s", "'re", "'ve", "'ll", "'d", "'m"];
    for clitic in CLITICS {
        if scratch.lower_buf.ends_with(clitic) && scratch.lower_buf.len() > clitic.len() {
            let split = end - clitic.len();
            if !text.is_char_boundary(split) {
                continue;
            }
            if split > start {
                let kind = if has_alpha {
                    TokenKind::Word
                } else {
                    TokenKind::Number
                };
                push(start, split, kind, scratch);
            }
            push(split, end, TokenKind::Word, scratch);
            return;
        }
    }
    if start < end {
        let kind = if has_alpha {
            TokenKind::Word
        } else {
            TokenKind::Number
        };
        push(start, end, kind, scratch);
    }
}

/// Pushes a token of an ASCII word run whose lowercase is already in
/// `lower_buf` (offsets into the run and into its lowercase coincide).
fn push_span_token_prelowered(
    run_start: usize,
    start: usize,
    end: usize,
    kind: TokenKind,
    scratch: &mut DocScratch,
) {
    let arena_start = scratch.arena.len();
    let rel = (start - run_start)..(end - run_start);
    scratch.arena.push_str(&scratch.lower_buf[rel]);
    scratch.tokens.push(SpanToken {
        span: Span::new(start, end),
        lower: Span::new(arena_start, scratch.arena.len()),
        kind,
    });
}

fn push_span_token(
    text: &str,
    start: usize,
    end: usize,
    kind: TokenKind,
    scratch: &mut DocScratch,
) {
    let arena_start = scratch.arena.len();
    lowercase_into(&text[start..end], &mut scratch.arena);
    scratch.tokens.push(SpanToken {
        span: Span::new(start, end),
        lower: Span::new(arena_start, scratch.arena.len()),
        kind,
    });
}

/// Appends the lowercase of `s` to `out`, byte-identical to
/// `s.to_lowercase()`. ASCII (the hot path) lowercases in place with no
/// allocation; non-ASCII goes through `str::to_lowercase` to keep its
/// context-sensitive mappings (Greek final sigma) — `char::to_lowercase`
/// would silently differ there.
fn lowercase_into(s: &str, out: &mut String) {
    if s.is_ascii() {
        let start = out.len();
        out.push_str(s);
        out[start..].make_ascii_lowercase();
    } else {
        out.push_str(&s.to_lowercase());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive;

    fn view_matches_naive(text: &str) {
        let naive_toks = naive::tokenize(text);
        let mut scratch = DocScratch::new();
        scan(text, &mut scratch);
        let view = scratch.view(text);
        assert_eq!(view.len(), naive_toks.len(), "token count for {text:?}");
        for (i, t) in naive_toks.iter().enumerate() {
            assert_eq!(view.text(i), t.text, "text at {i} in {text:?}");
            assert_eq!(view.span(i), t.span, "span at {i} in {text:?}");
            assert_eq!(view.kind(i), t.kind, "kind at {i} in {text:?}");
            assert_eq!(view.lower(i), t.lower(), "lower at {i} in {text:?}");
            assert_eq!(
                view.is_capitalized(i),
                t.is_capitalized(),
                "cap at {i} in {text:?}"
            );
            assert_eq!(
                view.is_all_caps(i),
                t.is_all_caps(),
                "caps at {i} in {text:?}"
            );
        }
    }

    #[test]
    fn span_scan_matches_seed_tokenizer() {
        for text in [
            "This camera takes excellent pictures.",
            "It doesn't work; the camera's lens broke.",
            "2.4 GHz and 72 GB",
            "well- made",
            "Wow!!  (Really?)",
            "café “quoted” — naïve",
            "the NR70 series and the T series CLIEs",
            "IBM and Sony make Cameras",
            "",
            "   \n\t ",
            "CAN'T STOP",
            "İstanbul İSN'T here", // dotted capital I lowercases to 2 chars
            "ΟΔΟΣ rules",          // word-final Σ takes the final-sigma form ς
        ] {
            view_matches_naive(text);
        }
    }

    #[test]
    fn scratch_reuse_across_documents() {
        let mut scratch = DocScratch::new();
        scan("First document here.", &mut scratch);
        let first_len = scratch.tokens.len();
        assert!(first_len > 0);
        scan("Second one.", &mut scratch);
        let view = scratch.view("Second one.");
        assert_eq!(view.text(0), "Second");
        assert_eq!(view.lower(0), "second");
    }

    #[test]
    fn subview_offsets_into_base() {
        let text = "One two three four";
        let mut scratch = DocScratch::new();
        scan(text, &mut scratch);
        let view = scratch.view(text);
        let sub = SubView::new(&view, 1, 3);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.text(0), "two");
        assert_eq!(sub.lower(1), "three");
    }

    #[test]
    fn lowered_tokens_adapter() {
        let toks = naive::tokenize("The CAMERA Works");
        let lt = LoweredTokens::new(&toks);
        assert_eq!(lt.len(), 3);
        assert_eq!(lt.text(1), "CAMERA");
        assert_eq!(lt.lower(1), "camera");
        assert!(lt.is_all_caps(1));
        let toks = naive::tokenize("İstanbul ΟΔΟΣ isn't ÉTÉ");
        let lt = LoweredTokens::new(&toks);
        for (i, t) in toks.iter().enumerate() {
            assert_eq!(lt.lower(i), t.lower(), "lower at {i}");
        }
        assert!(LoweredTokens::new(&[]).is_empty());
    }
}
