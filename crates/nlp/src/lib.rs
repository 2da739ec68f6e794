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
    /// Surface text of a chunk by index.
    pub fn chunk_text(&self, chunk_index: usize) -> String {
        self.chunks[chunk_index].text(&self.tokens)
    }

    /// Lower-cased lemma of the token at `index`.
    pub fn lemma(&self, index: usize) -> String {
        lemma::lemmatize(&self.tokens[index].lower(), self.tags[index])
    }
}

/// Everything the pipeline derives from one document in one pass:
/// per-sentence analyses plus named entities. Entity token indices are
/// into the document-level token stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DocAnnotations {
    pub sentences: Vec<AnalyzedSentence>,
    pub entities: Vec<NamedEntity>,
}

/// Deterministic per-stage unit costs for analyzed documents, in
/// simulated milliseconds: one unit per token for `tokenize` and `pos`,
/// one per chunk, one per clause, one per named entity. Derived purely
/// from the annotation output, so same text ⇒ same costs on any host —
/// the currency the continuous profiler's `nlp.*` stage spans charge.
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
        for sentence in &doc.sentences {
            let tokens = sentence.tokens.len() as u64;
            self.tokenize += tokens;
            self.pos += tokens;
            self.chunk += sentence.chunks.len() as u64;
            self.clause += sentence.analysis.clauses.len() as u64;
        }
        self.ner += doc.entities.len() as u64;
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
        let mut scratch = DocScratch::new();
        self.analyze_with(text, &mut scratch)
    }

    /// Like [`Pipeline::analyze`] but reuses caller-provided scratch, so a
    /// batch of documents shares one set of tokenizer allocations.
    pub fn analyze_with(&self, text: &str, scratch: &mut DocScratch) -> Vec<AnalyzedSentence> {
        view::scan(text, scratch);
        let doc = scratch.view(text);
        let sentences = sentence::split_tokens(&doc);
        sentences
            .iter()
            .map(|s| self.analyze_span(&doc, s))
            .collect()
    }

    /// Runs tag → chunk → clause over one sentence of a scanned document and
    /// materializes the owned [`AnalyzedSentence`].
    fn analyze_span(&self, doc: &DocView<'_>, s: &Sentence) -> AnalyzedSentence {
        let sub = SubView::new(doc, s.start_token, s.end_token);
        let tags = self.tagger.tag_tokens(&sub);
        let chunks = chunk::chunk_tokens(&sub, &tags);
        let analysis = clause::analyze_clause_tokens(&sub, &tags, &chunks);
        AnalyzedSentence {
            span: s.span,
            tokens: doc.to_tokens(s.start_token, s.end_token),
            tags,
            chunks,
            analysis,
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
        view::scan(text, scratch);
        let doc = scratch.view(text);
        let sentences = sentence::split_tokens(&doc);
        let mut entities = Vec::new();
        for s in &sentences {
            entities.extend(ner::spot_tokens(&doc, s));
        }
        let sentences = sentences
            .iter()
            .map(|s| self.analyze_span(&doc, s))
            .collect();
        DocAnnotations {
            sentences,
            entities,
        }
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
