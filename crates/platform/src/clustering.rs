//! Document clustering — the last of the paper's corpus-level miner
//! examples ("aggregate statistics, duplicate detection, trending, and
//! clustering").
//!
//! Spherical k-means over TF·IDF document vectors, implemented from
//! scratch: sparse vectors, cosine similarity, deterministic k-means++
//! style seeding (farthest-point, seeded by document order), fixed
//! iteration cap. The miner writes each entity's cluster id into its
//! metadata.

use crate::miner::CorpusMiner;
use crate::store::DataStore;
use std::collections::HashMap;
use wf_types::{DocId, Result};

/// Sparse TF·IDF vector: sorted (term id, weight) pairs, L2-normalized.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseVector {
    entries: Vec<(u32, f64)>,
}

impl SparseVector {
    fn from_counts(counts: &HashMap<u32, f64>) -> Self {
        let mut entries: Vec<(u32, f64)> = counts.iter().map(|(&t, &w)| (t, w)).collect();
        entries.sort_by_key(|&(t, _)| t);
        let mut v = SparseVector { entries };
        v.normalize();
        v
    }

    fn normalize(&mut self) {
        let norm = self.entries.iter().map(|(_, w)| w * w).sum::<f64>().sqrt();
        if norm > 0.0 {
            for (_, w) in &mut self.entries {
                *w /= norm;
            }
        }
    }

    /// Cosine similarity (dot product of normalized vectors).
    pub fn cosine(&self, other: &SparseVector) -> f64 {
        let (mut i, mut j) = (0, 0);
        let mut dot = 0.0;
        while i < self.entries.len() && j < other.entries.len() {
            match self.entries[i].0.cmp(&other.entries[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    dot += self.entries[i].1 * other.entries[j].1;
                    i += 1;
                    j += 1;
                }
            }
        }
        dot
    }

    fn add_into(&self, acc: &mut HashMap<u32, f64>) {
        for &(t, w) in &self.entries {
            *acc.entry(t).or_insert(0.0) += w;
        }
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Clustering outcome: document → cluster index, plus sizes.
#[derive(Debug, Clone, PartialEq)]
pub struct Clustering {
    pub assignments: Vec<(DocId, usize)>,
    pub sizes: Vec<usize>,
    pub iterations: usize,
}

/// Builds TF·IDF vectors for every document in the store.
fn vectorize(store: &DataStore) -> (Vec<(DocId, SparseVector)>, usize) {
    let mut term_ids: HashMap<String, u32> = HashMap::new();
    let mut doc_terms: Vec<(DocId, HashMap<u32, f64>)> = Vec::new();
    let mut df: HashMap<u32, usize> = HashMap::new();
    store.for_each(|entity| {
        let mut counts: HashMap<u32, f64> = HashMap::new();
        for token in entity
            .text
            .split(|c: char| !c.is_alphanumeric())
            .filter(|t| t.len() > 2)
        {
            let next_id = term_ids.len() as u32;
            let id = *term_ids.entry(token.to_lowercase()).or_insert(next_id);
            *counts.entry(id).or_insert(0.0) += 1.0;
        }
        for &t in counts.keys() {
            *df.entry(t).or_insert(0) += 1;
        }
        doc_terms.push((entity.id, counts));
    });
    let n = doc_terms.len().max(1) as f64;
    let vectors = doc_terms
        .into_iter()
        .map(|(id, mut counts)| {
            for (t, w) in counts.iter_mut() {
                let idf = (n / df[t] as f64).ln().max(0.0) + 1e-6;
                *w *= idf;
            }
            (id, SparseVector::from_counts(&counts))
        })
        .collect();
    (vectors, term_ids.len())
}

/// Runs spherical k-means; deterministic given store contents.
pub fn cluster_documents(store: &DataStore, k: usize, max_iterations: usize) -> Clustering {
    let (vectors, _) = vectorize(store);
    let n = vectors.len();
    let k = k.min(n).max(1);
    if n == 0 {
        return Clustering {
            assignments: Vec::new(),
            sizes: vec![0; k],
            iterations: 0,
        };
    }
    // farthest-point seeding from the first document
    let mut centroid_idx: Vec<usize> = vec![0];
    while centroid_idx.len() < k {
        let next = (0..n)
            .max_by(|&a, &b| {
                let da: f64 = centroid_idx
                    .iter()
                    .map(|&c| vectors[a].1.cosine(&vectors[c].1))
                    .fold(f64::NEG_INFINITY, f64::max);
                let db: f64 = centroid_idx
                    .iter()
                    .map(|&c| vectors[b].1.cosine(&vectors[c].1))
                    .fold(f64::NEG_INFINITY, f64::max);
                // farthest = lowest max-similarity
                db.partial_cmp(&da).unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("n > 0");
        if centroid_idx.contains(&next) {
            break; // degenerate: fewer distinct points than k
        }
        centroid_idx.push(next);
    }
    let mut centroids: Vec<SparseVector> =
        centroid_idx.iter().map(|&i| vectors[i].1.clone()).collect();
    let mut assignment = vec![0usize; n];
    let mut iterations = 0;
    for it in 0..max_iterations {
        iterations = it + 1;
        // assign
        let mut changed = false;
        for (i, (_, v)) in vectors.iter().enumerate() {
            let best = centroids
                .iter()
                .enumerate()
                .max_by(|(_, a), (_, b)| {
                    v.cosine(a)
                        .partial_cmp(&v.cosine(b))
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .map(|(c, _)| c)
                .unwrap_or(0);
            if assignment[i] != best {
                assignment[i] = best;
                changed = true;
            }
        }
        if !changed && it > 0 {
            break;
        }
        // update
        for (c, centroid) in centroids.iter_mut().enumerate() {
            let mut acc: HashMap<u32, f64> = HashMap::new();
            let mut members = 0usize;
            for (i, (_, v)) in vectors.iter().enumerate() {
                if assignment[i] == c {
                    v.add_into(&mut acc);
                    members += 1;
                }
            }
            if members > 0 {
                *centroid = SparseVector::from_counts(&acc);
            }
        }
    }
    let mut sizes = vec![0usize; centroids.len()];
    for &a in &assignment {
        sizes[a] += 1;
    }
    Clustering {
        assignments: vectors
            .iter()
            .zip(&assignment)
            .map(|((id, _), &c)| (*id, c))
            .collect(),
        sizes,
        iterations,
    }
}

/// The corpus miner: writes `cluster` metadata onto every entity.
pub struct ClusteringMiner {
    pub k: usize,
    pub max_iterations: usize,
}

impl ClusteringMiner {
    pub fn new(k: usize) -> Self {
        ClusteringMiner {
            k,
            max_iterations: 20,
        }
    }
}

impl CorpusMiner for ClusteringMiner {
    fn name(&self) -> &str {
        "clustering"
    }

    fn run(&self, store: &DataStore) -> Result<()> {
        let clustering = cluster_documents(store, self.k, self.max_iterations);
        for (doc, cluster) in clustering.assignments {
            store.update(doc, |entity| {
                entity
                    .metadata
                    .insert("cluster".into(), cluster.to_string());
            })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::{Entity, SourceKind};

    fn two_topic_store() -> DataStore {
        let store = DataStore::single();
        for i in 0..6 {
            store.insert(Entity::new(
                format!("c{i}"),
                SourceKind::Web,
                format!("camera lens battery zoom pictures photography shot {i}"),
            ));
        }
        for i in 0..6 {
            store.insert(Entity::new(
                format!("m{i}"),
                SourceKind::Web,
                format!("song album guitar lyrics melody chorus band {i}"),
            ));
        }
        store
    }

    #[test]
    fn separates_two_topics() {
        let store = two_topic_store();
        let clustering = cluster_documents(&store, 2, 20);
        assert_eq!(clustering.assignments.len(), 12);
        // all camera docs share one cluster, all music docs the other
        let camera_cluster = clustering.assignments[0].1;
        for (doc, c) in &clustering.assignments[..6] {
            assert_eq!(*c, camera_cluster, "{doc}");
        }
        let music_cluster = clustering.assignments[6].1;
        assert_ne!(camera_cluster, music_cluster);
        for (doc, c) in &clustering.assignments[6..] {
            assert_eq!(*c, music_cluster, "{doc}");
        }
        assert_eq!(clustering.sizes, vec![6, 6]);
    }

    #[test]
    fn miner_writes_cluster_metadata() {
        let store = two_topic_store();
        ClusteringMiner::new(2).run(&store).unwrap();
        let mut labels = std::collections::HashSet::new();
        store.for_each(|e| {
            labels.insert(e.metadata.get("cluster").cloned().unwrap());
        });
        assert_eq!(labels.len(), 2);
    }

    #[test]
    fn k_larger_than_corpus_clamps() {
        let store = DataStore::single();
        store.insert(Entity::new("a", SourceKind::Web, "only document here"));
        let clustering = cluster_documents(&store, 5, 10);
        assert_eq!(clustering.assignments.len(), 1);
    }

    #[test]
    fn empty_store_is_fine() {
        let store = DataStore::single();
        let clustering = cluster_documents(&store, 3, 10);
        assert!(clustering.assignments.is_empty());
    }

    #[test]
    fn deterministic() {
        let a = cluster_documents(&two_topic_store(), 2, 20);
        let b = cluster_documents(&two_topic_store(), 2, 20);
        assert_eq!(a, b);
    }

    #[test]
    fn cosine_basics() {
        let mut c1 = HashMap::new();
        c1.insert(0u32, 1.0);
        c1.insert(1, 1.0);
        let mut c2 = HashMap::new();
        c2.insert(1u32, 1.0);
        c2.insert(2, 1.0);
        let v1 = SparseVector::from_counts(&c1);
        let v2 = SparseVector::from_counts(&c2);
        assert!((v1.cosine(&v2) - 0.5).abs() < 1e-9);
        assert!((v1.cosine(&v1) - 1.0).abs() < 1e-9);
        assert_eq!(v1.cosine(&SparseVector::default()), 0.0);
    }
}
