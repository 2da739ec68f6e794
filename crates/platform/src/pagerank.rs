//! Page ranking — the fourth example miner task the paper names
//! (Tomlin, WWW 2003).
//!
//! A from-scratch PageRank power iteration over the corpus link graph.
//! Links come from `link` annotations whose `target` attribute names
//! another entity's URI (the crawler/ingestors attach these); dangling
//! links and dangling nodes follow the standard teleportation treatment.

use crate::miner::CorpusMiner;
use crate::store::DataStore;
use std::collections::HashMap;
use wf_types::{DocId, Result};

/// PageRank parameters.
#[derive(Debug, Clone, Copy)]
pub struct PageRankConfig {
    /// Damping factor (probability of following a link).
    pub damping: f64,
    /// Maximum power iterations.
    pub max_iterations: usize,
    /// L1 convergence tolerance.
    pub tolerance: f64,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        PageRankConfig {
            damping: 0.85,
            max_iterations: 50,
            tolerance: 1e-9,
        }
    }
}

/// Computes PageRank over the store's link graph. Returns (doc, score)
/// pairs summing to 1.0, sorted by descending score.
pub fn pagerank(store: &DataStore, config: &PageRankConfig) -> Vec<(DocId, f64)> {
    // uri → doc id resolution
    let mut by_uri: HashMap<String, DocId> = HashMap::new();
    let mut docs: Vec<DocId> = Vec::new();
    store.for_each(|entity| {
        by_uri.insert(entity.uri.clone(), entity.id);
        docs.push(entity.id);
    });
    let n = docs.len();
    if n == 0 {
        return Vec::new();
    }
    let index: HashMap<DocId, usize> = docs.iter().enumerate().map(|(i, &d)| (d, i)).collect();
    // adjacency: out-links resolved to in-corpus targets only
    let mut out_links: Vec<Vec<usize>> = vec![Vec::new(); n];
    store.for_each(|entity| {
        let from = index[&entity.id];
        for ann in entity.annotations_of("link") {
            if let Some(target) = ann.attr("target") {
                if let Some(&to) = by_uri.get(target) {
                    let to = index[&to];
                    if to != from {
                        out_links[from].push(to);
                    }
                }
            }
        }
    });
    // power iteration
    let mut rank = vec![1.0 / n as f64; n];
    let teleport = (1.0 - config.damping) / n as f64;
    for _ in 0..config.max_iterations {
        let mut next = vec![teleport; n];
        let mut dangling_mass = 0.0;
        for (from, links) in out_links.iter().enumerate() {
            if links.is_empty() {
                dangling_mass += rank[from];
            } else {
                let share = config.damping * rank[from] / links.len() as f64;
                for &to in links {
                    next[to] += share;
                }
            }
        }
        let dangling_share = config.damping * dangling_mass / n as f64;
        for r in &mut next {
            *r += dangling_share;
        }
        let delta: f64 = rank.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
        rank = next;
        if delta < config.tolerance {
            break;
        }
    }
    let mut out: Vec<(DocId, f64)> = docs.into_iter().zip(rank).collect();
    out.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    out
}

/// Corpus miner: writes each entity's rank into `pagerank` metadata.
#[derive(Default)]
pub struct PageRankMiner {
    config: PageRankConfig,
}

impl PageRankMiner {
    pub fn new(config: PageRankConfig) -> Self {
        PageRankMiner { config }
    }
}

impl CorpusMiner for PageRankMiner {
    fn name(&self) -> &str {
        "pagerank"
    }

    fn run(&self, store: &DataStore) -> Result<()> {
        for (doc, score) in pagerank(store, &self.config) {
            store.update(doc, |entity| {
                entity
                    .metadata
                    .insert("pagerank".into(), format!("{score:.6}"));
            })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::{Annotation, Entity, SourceKind};
    use wf_types::Span;

    /// Builds a store with pages linking per `edges` (by index).
    fn linked_store(n: usize, edges: &[(usize, usize)]) -> DataStore {
        let store = DataStore::single();
        for i in 0..n {
            store.insert(Entity::new(format!("http://p/{i}"), SourceKind::Web, "x"));
        }
        for &(from, to) in edges {
            store
                .update(DocId(from as u64), |e| {
                    e.annotate(
                        Annotation::new("link", Span::new(0, 1))
                            .with_attr("target", format!("http://p/{to}")),
                    );
                })
                .unwrap();
        }
        store
    }

    #[test]
    fn ranks_sum_to_one() {
        let store = linked_store(4, &[(0, 1), (1, 2), (2, 0), (3, 0)]);
        let ranks = pagerank(&store, &PageRankConfig::default());
        let total: f64 = ranks.iter().map(|(_, r)| r).sum();
        assert!((total - 1.0).abs() < 1e-9, "{total}");
    }

    #[test]
    fn hub_target_ranks_highest() {
        // everyone links to page 0
        let store = linked_store(5, &[(1, 0), (2, 0), (3, 0), (4, 0)]);
        let ranks = pagerank(&store, &PageRankConfig::default());
        assert_eq!(ranks[0].0, DocId(0));
        assert!(ranks[0].1 > 2.0 * ranks[1].1);
    }

    #[test]
    fn no_links_is_uniform() {
        let store = linked_store(3, &[]);
        let ranks = pagerank(&store, &PageRankConfig::default());
        for (_, r) in &ranks {
            assert!((r - 1.0 / 3.0).abs() < 1e-9);
        }
    }

    #[test]
    fn dangling_nodes_do_not_lose_mass() {
        // 0 → 1, 1 dangles
        let store = linked_store(2, &[(0, 1)]);
        let ranks = pagerank(&store, &PageRankConfig::default());
        let total: f64 = ranks.iter().map(|(_, r)| r).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // the linked-to page outranks the linker
        assert_eq!(ranks[0].0, DocId(1));
    }

    #[test]
    fn out_of_corpus_links_are_ignored() {
        let store = linked_store(2, &[]);
        store
            .update(DocId(0), |e| {
                e.annotate(
                    Annotation::new("link", Span::new(0, 1))
                        .with_attr("target", "http://elsewhere.example/"),
                );
            })
            .unwrap();
        let ranks = pagerank(&store, &PageRankConfig::default());
        let total: f64 = ranks.iter().map(|(_, r)| r).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn miner_writes_metadata() {
        let store = linked_store(3, &[(1, 0), (2, 0)]);
        PageRankMiner::default().run(&store).unwrap();
        store.for_each(|e| {
            assert!(e.metadata.contains_key("pagerank"), "{}", e.uri);
        });
    }

    #[test]
    fn empty_store() {
        let store = DataStore::single();
        assert!(pagerank(&store, &PageRankConfig::default()).is_empty());
    }
}
