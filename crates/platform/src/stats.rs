//! Aggregate corpus statistics — another of the paper's corpus-level
//! miner examples.

use crate::entity::SourceKind;
use crate::store::DataStore;
use std::collections::HashMap;

/// Corpus-wide statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusStats {
    pub documents: usize,
    pub total_bytes: usize,
    pub total_tokens: usize,
    pub vocabulary: usize,
    /// Document counts per source kind.
    pub by_source: Vec<(SourceKind, usize)>,
    /// The `top_k` most frequent terms with counts, descending.
    pub top_terms: Vec<(String, usize)>,
    /// Annotation counts per kind.
    pub annotations: Vec<(String, usize)>,
}

/// Computes aggregate statistics over the store.
pub fn corpus_stats(store: &DataStore, top_k: usize) -> CorpusStats {
    let mut documents = 0usize;
    let mut total_bytes = 0usize;
    let mut total_tokens = 0usize;
    let mut term_counts: HashMap<String, usize> = HashMap::new();
    let mut by_source: HashMap<SourceKind, usize> = HashMap::new();
    let mut annotations: HashMap<String, usize> = HashMap::new();
    store.for_each(|entity| {
        documents += 1;
        total_bytes += entity.text.len();
        *by_source.entry(entity.source).or_insert(0) += 1;
        for token in entity
            .text
            .split(|c: char| !c.is_alphanumeric())
            .filter(|t| !t.is_empty())
        {
            total_tokens += 1;
            *term_counts.entry(token.to_lowercase()).or_insert(0) += 1;
        }
        for ann in &entity.annotations {
            *annotations.entry(ann.kind.clone()).or_insert(0) += 1;
        }
    });
    let vocabulary = term_counts.len();
    let mut top_terms: Vec<(String, usize)> = term_counts.into_iter().collect();
    top_terms.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    top_terms.truncate(top_k);
    let mut by_source: Vec<(SourceKind, usize)> = by_source.into_iter().collect();
    by_source.sort_by_key(|(_, c)| std::cmp::Reverse(*c));
    let mut annotations: Vec<(String, usize)> = annotations.into_iter().collect();
    annotations.sort();
    CorpusStats {
        documents,
        total_bytes,
        total_tokens,
        vocabulary,
        by_source,
        top_terms,
        annotations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::{Annotation, Entity};
    use wf_types::Span;

    #[test]
    fn stats_over_mixed_corpus() {
        let store = DataStore::new(2).unwrap();
        store.insert(Entity::new("a", SourceKind::Web, "the camera the lens"));
        store.insert(Entity::new("b", SourceKind::News, "the report came out"));
        let mut e = Entity::new("c", SourceKind::Web, "camera news");
        e.annotations
            .push(Annotation::new("sentiment", Span::new(0, 6)));
        store.insert(e);

        let stats = corpus_stats(&store, 2);
        assert_eq!(stats.documents, 3);
        assert_eq!(stats.total_tokens, 4 + 4 + 2);
        assert_eq!(stats.top_terms[0], ("the".to_string(), 3));
        assert_eq!(stats.by_source[0], (SourceKind::Web, 2));
        assert_eq!(stats.annotations, vec![("sentiment".to_string(), 1)]);
        assert!(stats.vocabulary >= 6);
    }

    #[test]
    fn empty_store() {
        let store = DataStore::single();
        let stats = corpus_stats(&store, 5);
        assert_eq!(stats.documents, 0);
        assert_eq!(stats.vocabulary, 0);
        assert!(stats.top_terms.is_empty());
    }

    #[test]
    fn top_k_truncates() {
        let store = DataStore::single();
        store.insert(Entity::new("a", SourceKind::Web, "a b c d e f g"));
        let stats = corpus_stats(&store, 3);
        assert_eq!(stats.top_terms.len(), 3);
    }
}
