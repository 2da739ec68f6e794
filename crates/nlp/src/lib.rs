//! English NLP substrate for the WebFountain sentiment miner.
//!
//! The paper's pipeline depends on four language-processing miners — a
//! tokenizer, the Ratnaparkhi POS tagger, the Talent shallow parser, and a
//! capitalization-based named entity spotter. This crate re-implements all
//! of them from scratch:
//!
//! - [`tokenizer`]: offset-preserving tokenization,
//! - [`sentence`]: sentence splitting,
//! - [`pos`]: dictionary + contextual-rule POS tagging (Penn Treebank tags),
//! - [`lemma`]: rule-based lemmatization (predicate lookup key),
//! - [`chunk`]: NP/VP/PP/ADJP shallow chunking,
//! - [`clause`]: clause decomposition into SP/OP/CP/PP components,
//! - [`ner`]: capitalized-noun-phrase named entity spotting with split
//!   heuristics.
//!
//! [`Pipeline`] bundles the stages for one-call analysis of raw text.

pub mod chunk;
pub mod clause;
pub mod dict;
pub mod lemma;
pub mod naive;
pub mod ner;
pub mod pos;
pub mod sentence;
pub mod tags;
pub mod tokenizer;
pub mod view;

pub use chunk::{Chunk, ChunkKind};
pub use clause::{Clause, Predicate, SentenceAnalysis};
pub use ner::NamedEntity;
pub use pos::PosTagger;
pub use sentence::Sentence;
pub use tags::PosTag;
pub use tokenizer::{Token, TokenKind};
pub use view::{DocScratch, DocView, LoweredTokens, SpanToken, SubView, TokenAccess};

/// A fully analyzed sentence: tokens (sentence-local), tags, chunks and
/// clause structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzedSentence {
    /// Byte span of the sentence in the source document.
    pub span: wf_types::Span,
    /// The sentence's tokens (indices below are into this vector).
    pub tokens: Vec<Token>,
    /// One Penn Treebank tag per token.
    pub tags: Vec<PosTag>,
    /// Base-phrase chunks over the tokens.
    pub chunks: Vec<Chunk>,
    /// Clause decomposition.
    pub analysis: SentenceAnalysis,
}

impl AnalyzedSentence {
    /// The sentence borrowed as a [`SentenceView`]. Its token view
    /// lowercases every token once, up front.
    pub fn view(&self) -> SentenceView<'_, LoweredTokens<'_>> {
        SentenceView {
            span: self.span,
            tokens: LoweredTokens::new(&self.tokens),
            tags: &self.tags,
            chunks: &self.chunks,
            analysis: &self.analysis,
        }
    }

    /// Surface text of a chunk by index.
    pub fn chunk_text(&self, chunk_index: usize) -> String {
        self.chunks[chunk_index].text(&self.tokens)
    }

    /// Lower-cased lemma of the token at `index`.
    pub fn lemma(&self, index: usize) -> String {
        lemma::lemmatize(&self.tokens[index].lower(), self.tags[index])
    }
}

/// An analyzed sentence that borrows its parts: tokens through any
/// [`TokenAccess`], plus its tags, chunks and clauses. On the mining path
/// the tokens are a [`SubView`] of the scanned document, so `lower(i)` is a
/// slice of the scan arena and nothing is copied; [`AnalyzedSentence::view`]
/// lends the owned form the same way.
#[derive(Debug, Clone, Copy)]
pub struct SentenceView<'a, T> {
    /// Byte span of the sentence in the source document.
    pub span: wf_types::Span,
    /// The sentence's tokens (sentence-local indices).
    pub tokens: T,
    /// One Penn Treebank tag per token.
    pub tags: &'a [PosTag],
    /// Base-phrase chunks over the tokens.
    pub chunks: &'a [Chunk],
    /// Clause decomposition.
    pub analysis: &'a SentenceAnalysis,
}

/// A sentence the sentence loop kept and parsed, lent to the caller: its
/// tags, chunks and clauses, over tokens that stay in the scanned
/// document.
pub struct KeptSentence<'a> {
    doc: &'a DocView<'a>,
    sentence: &'a Sentence,
    tags: Vec<PosTag>,
    chunks: Vec<Chunk>,
    analysis: SentenceAnalysis,
}

impl<'a> KeptSentence<'a> {
    /// The sentence borrowed: its tokens are a [`SubView`] of the document.
    pub fn view(&self) -> SentenceView<'_, SubView<'a, DocView<'a>>> {
        let s = self.sentence;
        SentenceView {
            span: s.span,
            tokens: SubView::new(self.doc, s.start_token, s.end_token),
            tags: &self.tags,
            chunks: &self.chunks,
            analysis: &self.analysis,
        }
    }

    /// Materializes the owned [`AnalyzedSentence`], copying its tokens.
    pub fn into_owned(self) -> AnalyzedSentence {
        let s = self.sentence;
        AnalyzedSentence {
            span: s.span,
            tokens: self.doc.to_tokens(s.start_token, s.end_token),
            tags: self.tags,
            chunks: self.chunks,
            analysis: self.analysis,
        }
    }
}

/// Everything the pipeline derives from one document in one pass: the
/// analyses of the sentences it kept plus the named entities of every
/// sentence. Entity token indices are into the document-level token
/// stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DocAnnotations {
    pub sentences: Vec<AnalyzedSentence>,
    pub entities: Vec<NamedEntity>,
    /// Tokens the scan produced over the whole document, kept sentences
    /// or not.
    pub tokens: usize,
}

/// Mode B's keep predicate: the sentence at `span` holds the start of one
/// of `entities`.
pub fn holds_entity(span: wf_types::Span, entities: &[NamedEntity]) -> bool {
    entities.iter().any(|e| span.contains_offset(e.span.start))
}

/// Deterministic per-stage unit costs for analyzed documents, in
/// simulated milliseconds: one unit per scanned token for `tokenize`, one
/// per token of a kept sentence for `pos`, one per chunk, one per clause,
/// one per named entity. Derived purely from the annotation output, so
/// same text ⇒ same costs on any host — the currency the continuous
/// profiler's `nlp.*` stage spans charge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageCosts {
    pub tokenize: u64,
    pub pos: u64,
    pub chunk: u64,
    pub clause: u64,
    pub ner: u64,
}

impl StageCosts {
    /// Adds one document's stage units.
    pub fn absorb(&mut self, doc: &DocAnnotations) {
        self.scanned(doc.tokens, &doc.entities);
        for s in &doc.sentences {
            self.parsed(s.tokens.len(), s.chunks.len(), s.analysis.clauses.len());
        }
    }

    /// Adds the units of one scanned document: its tokens and its named
    /// entities.
    pub fn scanned(&mut self, tokens: usize, entities: &[NamedEntity]) {
        self.tokenize += tokens as u64;
        self.ner += entities.len() as u64;
    }

    /// Adds the units of one kept sentence.
    pub fn kept<T: TokenAccess>(&mut self, sentence: &SentenceView<'_, T>) {
        self.parsed(
            sentence.tokens.len(),
            sentence.chunks.len(),
            sentence.analysis.clauses.len(),
        );
    }

    fn parsed(&mut self, tokens: usize, chunks: usize, clauses: usize) {
        self.pos += tokens as u64;
        self.chunk += chunks as u64;
        self.clause += clauses as u64;
    }

    /// `(stage name, units)` pairs in pipeline order.
    pub fn stages(&self) -> [(&'static str, u64); 5] {
        [
            ("tokenize", self.tokenize),
            ("pos", self.pos),
            ("chunk", self.chunk),
            ("clause", self.clause),
            ("ner", self.ner),
        ]
    }

    pub fn total(&self) -> u64 {
        self.tokenize + self.pos + self.chunk + self.clause + self.ner
    }
}

/// End-to-end text analysis pipeline: tokenize → split → tag → chunk →
/// clause-analyze.
pub struct Pipeline {
    tagger: PosTagger,
}

impl Default for Pipeline {
    fn default() -> Self {
        Self::new()
    }
}

impl Pipeline {
    pub fn new() -> Self {
        Pipeline {
            tagger: PosTagger::new(),
        }
    }

    /// Analyzes raw text into per-sentence structures.
    pub fn analyze(&self, text: &str) -> Vec<AnalyzedSentence> {
        let mut out = Vec::new();
        self.analyze_where(
            text,
            &mut DocScratch::new(),
            |_| true,
            |s| out.push(s.into_owned()),
        );
        out
    }

    /// Like [`Pipeline::analyze`], but parses only the sentences whose byte
    /// span `keep` accepts (the others are split and skipped), reuses
    /// caller-provided scratch, and lends each kept sentence to `visit`
    /// instead of materializing it. Mode A keeps the sentences that hold a
    /// subject spot; no named-entity spotting runs.
    pub fn analyze_where(
        &self,
        text: &str,
        scratch: &mut DocScratch,
        keep: impl FnMut(wf_types::Span) -> bool,
        visit: impl FnMut(KeptSentence<'_>),
    ) {
        view::scan(text, scratch);
        let doc = scratch.view(text);
        self.parse_kept(&doc, &sentence::split_tokens(&doc), keep, visit);
    }

    /// The one sentence loop: runs tag → chunk → clause over each sentence
    /// whose span `keep` accepts, in document order, and lends each to
    /// `visit` with its tokens still in the document.
    fn parse_kept<'a>(
        &self,
        doc: &'a DocView<'a>,
        sentences: &'a [Sentence],
        mut keep: impl FnMut(wf_types::Span) -> bool,
        mut visit: impl FnMut(KeptSentence<'a>),
    ) {
        for s in sentences.iter().filter(|s| keep(s.span)) {
            let sub = SubView::new(doc, s.start_token, s.end_token);
            let tags = self.tagger.tag_tokens(&sub);
            let chunks = chunk::chunk_tokens(&sub, &tags);
            let analysis = clause::analyze_clause_tokens(&sub, &tags, &chunks);
            visit(KeptSentence {
                doc,
                sentence: s,
                tags,
                chunks,
                analysis,
            });
        }
    }

    /// Analyzes a single sentence that is already isolated (no splitting).
    pub fn analyze_sentence(&self, text: &str) -> AnalyzedSentence {
        let mut scratch = DocScratch::new();
        view::scan(text, &mut scratch);
        let doc = scratch.view(text);
        let n = TokenAccess::len(&doc);
        let tags = self.tagger.tag_tokens(&doc);
        let chunks = chunk::chunk_tokens(&doc, &tags);
        let analysis = clause::analyze_clause_tokens(&doc, &tags, &chunks);
        let span = if n == 0 {
            wf_types::Span::new(0, 0)
        } else {
            wf_types::Span::new(doc.span(0).start, doc.span(n - 1).end)
        };
        AnalyzedSentence {
            span,
            tokens: doc.to_tokens(0, n),
            tags,
            chunks,
            analysis,
        }
    }

    /// Detects named entities across all sentences of `text`.
    pub fn named_entities(&self, text: &str) -> Vec<NamedEntity> {
        let mut scratch = DocScratch::new();
        view::scan(text, &mut scratch);
        let doc = scratch.view(text);
        let sentences = sentence::split_tokens(&doc);
        let mut out = Vec::new();
        for s in &sentences {
            out.extend(ner::spot_tokens(&doc, s));
        }
        out
    }

    /// Full document annotation — sentence analyses *and* named entities —
    /// from a single tokenization pass over `text`.
    pub fn analyze_doc(&self, text: &str, scratch: &mut DocScratch) -> DocAnnotations {
        let mut sentences = Vec::new();
        let (entities, tokens) = self.annotate_where(
            text,
            scratch,
            |_, _| true,
            |s, _| sentences.push(s.into_owned()),
        );
        DocAnnotations {
            sentences,
            entities,
            tokens,
        }
    }

    /// Like [`Pipeline::analyze_doc`], but parses only the sentences `keep`
    /// accepts, given each sentence's span and the entities of the whole
    /// document, and lends each kept sentence to `visit` with those
    /// entities. Named entities are spotted on the token view first, so
    /// Mode B passes [`holds_entity`] and parses only the sentences that
    /// hold a subject. Returns the entities and the number of tokens
    /// scanned.
    pub fn annotate_where(
        &self,
        text: &str,
        scratch: &mut DocScratch,
        mut keep: impl FnMut(wf_types::Span, &[NamedEntity]) -> bool,
        mut visit: impl FnMut(KeptSentence<'_>, &[NamedEntity]),
    ) -> (Vec<NamedEntity>, usize) {
        view::scan(text, scratch);
        let doc = scratch.view(text);
        let sentences = sentence::split_tokens(&doc);
        let mut entities = Vec::new();
        for s in &sentences {
            entities.extend(ner::spot_tokens(&doc, s));
        }
        self.parse_kept(
            &doc,
            &sentences,
            |span| keep(span, &entities),
            |s| visit(s, &entities),
        );
        (entities, TokenAccess::len(&doc))
    }

    /// Annotates a batch of documents, reusing one scratch buffer across
    /// the whole batch so steady-state per-token allocation is amortized
    /// away. Output is order-aligned with `texts` and identical to calling
    /// [`Pipeline::analyze_doc`] per document.
    pub fn annotate_batch<S: AsRef<str>>(&self, texts: &[S]) -> Vec<DocAnnotations> {
        let mut scratch = DocScratch::new();
        texts
            .iter()
            .map(|t| self.analyze_doc(t.as_ref(), &mut scratch))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_analyzes_multi_sentence_text() {
        let p = Pipeline::new();
        let analyzed = p.analyze("The camera is great. The battery drains quickly.");
        assert_eq!(analyzed.len(), 2);
        assert_eq!(
            analyzed[0].analysis.clauses[0]
                .predicate
                .as_ref()
                .unwrap()
                .lemma,
            "be"
        );
        assert_eq!(
            analyzed[1].analysis.clauses[0]
                .predicate
                .as_ref()
                .unwrap()
                .lemma,
            "drain"
        );
    }

    #[test]
    fn analyze_sentence_handles_empty_input() {
        let p = Pipeline::new();
        let a = p.analyze_sentence("");
        assert!(a.tokens.is_empty());
        assert!(a.chunks.is_empty());
    }

    #[test]
    fn named_entities_via_pipeline() {
        let p = Pipeline::new();
        let es = p.named_entities("Canon and Nikon compete. Sony watches.");
        let names: Vec<&str> = es.iter().map(|e| e.text.as_str()).collect();
        assert!(names.contains(&"Canon"));
        assert!(names.contains(&"Nikon"));
        assert!(names.contains(&"Sony"));
    }

    #[test]
    fn stage_costs_follow_annotation_output() {
        let p = Pipeline::new();
        let texts = ["Canon makes cameras. Nikon competes.", ""];
        let docs = p.annotate_batch(&texts);
        let mut costs = StageCosts::default();
        docs.iter().for_each(|d| costs.absorb(d));
        let tokens: u64 = docs
            .iter()
            .flat_map(|d| &d.sentences)
            .map(|s| s.tokens.len() as u64)
            .sum();
        assert_eq!(costs.tokenize, tokens);
        assert_eq!(costs.pos, tokens);
        assert_eq!(costs.ner, 2, "Canon and Nikon");
        assert!(costs.chunk > 0 && costs.clause > 0);
        assert_eq!(
            costs.total(),
            costs.stages().iter().map(|(_, c)| c).sum::<u64>()
        );

        // Mode B parses only the first sentence: the second holds no
        // entity, so its tokens are scanned but never tagged
        let text = "Canon makes cameras. the lens is sharp.";
        let mut lazy = StageCosts::default();
        let mut kept = 0;
        let (entities, tokens) =
            p.annotate_where(text, &mut DocScratch::new(), holds_entity, |s, _| {
                kept += 1;
                lazy.kept(&s.view());
            });
        lazy.scanned(tokens, &entities);
        assert_eq!(kept, 1);
        assert_eq!(lazy.tokenize, 9, "both sentences are scanned");
        assert_eq!(lazy.pos, 4, "Canon makes cameras .");
        assert_eq!(lazy.ner, 1);
    }

    #[test]
    fn kept_sentence_view_matches_its_owned_form() {
        let p = Pipeline::new();
        let text = "The Camera's lens is GREAT. Nikon wins.";
        let mut kept = 0;
        p.analyze_where(
            text,
            &mut DocScratch::new(),
            |_| true,
            |s| {
                let v = s.view();
                let tokens = &v.tokens;
                let lent: Vec<(wf_types::Span, String, String)> = (0..tokens.len())
                    .map(|i| {
                        (
                            tokens.span(i),
                            tokens.text(i).into(),
                            tokens.lower(i).into(),
                        )
                    })
                    .collect();
                let parts = (
                    v.span,
                    v.tags.to_vec(),
                    v.chunks.to_vec(),
                    v.analysis.clone(),
                );
                let a = s.into_owned();
                let owned: Vec<_> = a
                    .tokens
                    .iter()
                    .map(|t| (t.span, t.text.clone(), t.lower()))
                    .collect();
                assert_eq!(lent, owned);
                assert_eq!(parts, (a.span, a.tags, a.chunks, a.analysis));
                kept += 1;
            },
        );
        assert_eq!(kept, 2);
    }

    #[test]
    fn lemma_helper_uses_tags() {
        let p = Pipeline::new();
        let a = p.analyze_sentence("This camera takes excellent pictures.");
        let takes = a.tokens.iter().position(|t| t.text == "takes").unwrap();
        assert_eq!(a.lemma(takes), "take");
        let pics = a.tokens.iter().position(|t| t.text == "pictures").unwrap();
        assert_eq!(a.lemma(pics), "picture");
    }
}
