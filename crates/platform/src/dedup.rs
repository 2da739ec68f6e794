//! Near-duplicate detection — one of the paper's example corpus-level
//! miners ("Examples of corpus-level miners are computing aggregate
//! statistics, duplicate detection, trending, and clustering").
//!
//! Pipeline: word 4-shingles per document → MinHash signatures (k
//! independent hash permutations, built from scratch) → LSH banding to
//! propose candidate pairs → exact Jaccard verification → union-find
//! duplicate clusters. Detected duplicates get `duplicate-of` metadata
//! pointing at the cluster's lowest id.

use crate::miner::CorpusMiner;
use crate::store::DataStore;
use std::collections::{HashMap, HashSet};
use wf_types::{DocId, Result};

/// Configuration for the duplicate detector.
#[derive(Debug, Clone, Copy)]
pub struct DedupConfig {
    /// Words per shingle.
    pub shingle_size: usize,
    /// MinHash signature length (must be divisible by `bands`).
    pub num_hashes: usize,
    /// LSH bands (more bands → more candidate pairs).
    pub bands: usize,
    /// Exact-Jaccard threshold for a verified duplicate pair.
    pub jaccard_threshold: f64,
}

impl Default for DedupConfig {
    fn default() -> Self {
        DedupConfig {
            shingle_size: 4,
            num_hashes: 64,
            bands: 16,
            jaccard_threshold: 0.8,
        }
    }
}

/// Word shingles of a lower-cased document.
fn shingles(text: &str, size: usize) -> HashSet<u64> {
    let words: Vec<String> = text
        .split(|c: char| !c.is_alphanumeric())
        .filter(|w| !w.is_empty())
        .map(|w| w.to_lowercase())
        .collect();
    let mut out = HashSet::new();
    if words.len() < size {
        if !words.is_empty() {
            out.insert(fnv1a(words.join(" ").as_bytes()));
        }
        return out;
    }
    for window in words.windows(size) {
        out.insert(fnv1a(window.join(" ").as_bytes()));
    }
    out
}

/// FNV-1a 64-bit hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf29ce484222325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

/// A cheap parameterized mixer standing in for k independent hash
/// functions: multiply-xor-shift with per-function odd constants.
fn mix(value: u64, seed: u64) -> u64 {
    let mut x = value ^ seed.wrapping_mul(0x9e3779b97f4a7c15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58476d1ce4e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// MinHash signature of a shingle set.
fn minhash(shingle_set: &HashSet<u64>, num_hashes: usize) -> Vec<u64> {
    (0..num_hashes as u64)
        .map(|seed| {
            shingle_set
                .iter()
                .map(|&s| mix(s, seed + 1))
                .min()
                .unwrap_or(u64::MAX)
        })
        .collect()
}

/// Exact Jaccard similarity of two shingle sets.
fn jaccard(a: &HashSet<u64>, b: &HashSet<u64>) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let intersection = a.intersection(b).count();
    let union = a.len() + b.len() - intersection;
    if union == 0 {
        0.0
    } else {
        intersection as f64 / union as f64
    }
}

/// Union-find with path compression.
struct UnionFind {
    parent: HashMap<DocId, DocId>,
}

impl UnionFind {
    fn new() -> Self {
        UnionFind {
            parent: HashMap::new(),
        }
    }

    fn find(&mut self, x: DocId) -> DocId {
        let p = *self.parent.get(&x).unwrap_or(&x);
        if p == x {
            return x;
        }
        let root = self.find(p);
        self.parent.insert(x, root);
        root
    }

    fn union(&mut self, a: DocId, b: DocId) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // keep the lower id as the representative
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent.insert(hi, lo);
        }
    }
}

/// Detected duplicate clusters: representative id → members (including the
/// representative), ascending.
pub type DuplicateClusters = Vec<(DocId, Vec<DocId>)>;

/// Finds near-duplicate clusters across the store.
pub fn find_duplicates(store: &DataStore, config: &DedupConfig) -> DuplicateClusters {
    assert!(
        config.num_hashes.is_multiple_of(config.bands),
        "num_hashes must be divisible by bands"
    );
    let rows = config.num_hashes / config.bands;
    // shingle sets and signatures
    let mut sets: Vec<(DocId, HashSet<u64>)> = Vec::new();
    store.for_each(|entity| {
        sets.push((entity.id, shingles(&entity.text, config.shingle_size)));
    });
    let signatures: Vec<Vec<u64>> = sets
        .iter()
        .map(|(_, s)| minhash(s, config.num_hashes))
        .collect();
    // LSH banding: bucket by (band index, band hash)
    let mut buckets: HashMap<(usize, u64), Vec<usize>> = HashMap::new();
    for (doc_idx, signature) in signatures.iter().enumerate() {
        for band in 0..config.bands {
            let slice = &signature[band * rows..(band + 1) * rows];
            let mut h = 0xcbf29ce484222325u64;
            for &v in slice {
                h = mix(h ^ v, band as u64 + 7);
            }
            buckets.entry((band, h)).or_default().push(doc_idx);
        }
    }
    // verify candidate pairs
    let mut verified: HashSet<(usize, usize)> = HashSet::new();
    let mut uf = UnionFind::new();
    for bucket in buckets.values() {
        for i in 0..bucket.len() {
            for j in i + 1..bucket.len() {
                let pair = (bucket[i].min(bucket[j]), bucket[i].max(bucket[j]));
                if !verified.insert(pair) {
                    continue;
                }
                if jaccard(&sets[pair.0].1, &sets[pair.1].1) >= config.jaccard_threshold {
                    uf.union(sets[pair.0].0, sets[pair.1].0);
                }
            }
        }
    }
    // collect clusters with ≥ 2 members
    let mut clusters: HashMap<DocId, Vec<DocId>> = HashMap::new();
    for (doc, _) in &sets {
        let root = uf.find(*doc);
        clusters.entry(root).or_default().push(*doc);
    }
    let mut out: DuplicateClusters = clusters
        .into_iter()
        .filter(|(_, members)| members.len() > 1)
        .map(|(root, mut members)| {
            members.sort();
            (root, members)
        })
        .collect();
    out.sort_by_key(|(root, _)| *root);
    out
}

/// The corpus-level miner wrapper: marks every non-representative member
/// of a duplicate cluster with `duplicate-of` metadata.
#[derive(Default)]
pub struct DuplicateDetector {
    config: DedupConfig,
}

impl DuplicateDetector {
    pub fn new(config: DedupConfig) -> Self {
        DuplicateDetector { config }
    }
}

impl CorpusMiner for DuplicateDetector {
    fn name(&self) -> &str {
        "duplicate-detector"
    }

    fn run(&self, store: &DataStore) -> Result<()> {
        for (representative, members) in find_duplicates(store, &self.config) {
            for member in members {
                if member == representative {
                    continue;
                }
                store.update(member, |entity| {
                    entity
                        .metadata
                        .insert("duplicate-of".into(), representative.to_string());
                })?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::{Entity, SourceKind};

    fn seed(texts: &[&str]) -> DataStore {
        let store = DataStore::new(2).unwrap();
        for (i, t) in texts.iter().enumerate() {
            store.insert(Entity::new(format!("uri://{i}"), SourceKind::Web, *t));
        }
        store
    }

    const PAGE: &str = "The quick brown fox jumps over the lazy dog while the \
                        band plays a slow waltz in the old town square tonight.";

    #[test]
    fn exact_duplicates_cluster() {
        let store = seed(&[
            PAGE,
            PAGE,
            "Entirely different content about cameras and lenses.",
        ]);
        let clusters = find_duplicates(&store, &DedupConfig::default());
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].1, vec![DocId(0), DocId(1)]);
    }

    #[test]
    fn near_duplicates_cluster() {
        let near = PAGE.replace("tonight", "this evening");
        let store = seed(&[PAGE, &near, "Unrelated text about drilling rigs offshore."]);
        let clusters = find_duplicates(
            &store,
            &DedupConfig {
                jaccard_threshold: 0.6,
                ..DedupConfig::default()
            },
        );
        assert_eq!(clusters.len(), 1, "{clusters:?}");
        assert_eq!(clusters[0].1.len(), 2);
    }

    #[test]
    fn distinct_documents_do_not_cluster() {
        let store = seed(&[
            "The camera takes excellent pictures in bright daylight conditions.",
            "Oil prices rose sharply after the refinery outage last week.",
            "The symphony's final movement builds to a remarkable close.",
        ]);
        assert!(find_duplicates(&store, &DedupConfig::default()).is_empty());
    }

    #[test]
    fn miner_marks_non_representatives() {
        let store = seed(&[PAGE, PAGE, PAGE]);
        DuplicateDetector::default().run(&store).unwrap();
        assert!(!store
            .get(DocId(0))
            .unwrap()
            .metadata
            .contains_key("duplicate-of"));
        for i in [1, 2] {
            assert_eq!(
                store
                    .get(DocId(i))
                    .unwrap()
                    .metadata
                    .get("duplicate-of")
                    .unwrap(),
                "doc:0"
            );
        }
    }

    #[test]
    fn jaccard_properties() {
        let a: HashSet<u64> = [1, 2, 3].into_iter().collect();
        let b: HashSet<u64> = [2, 3, 4].into_iter().collect();
        assert!((jaccard(&a, &b) - 0.5).abs() < 1e-12);
        assert_eq!(jaccard(&a, &a), 1.0);
        assert_eq!(jaccard(&HashSet::new(), &HashSet::new()), 1.0);
        assert_eq!(jaccard(&a, &HashSet::new()), 0.0);
    }

    #[test]
    fn minhash_similarity_tracks_jaccard() {
        let a = shingles(PAGE, 4);
        let near_text = PAGE.replace("tonight", "this evening");
        let b = shingles(&near_text, 4);
        let sig_a = minhash(&a, 128);
        let sig_b = minhash(&b, 128);
        let agree = sig_a.iter().zip(&sig_b).filter(|(x, y)| x == y).count() as f64 / 128.0;
        let true_jaccard = jaccard(&a, &b);
        assert!(
            (agree - true_jaccard).abs() < 0.2,
            "estimate {agree} vs true {true_jaccard}"
        );
    }

    #[test]
    fn short_documents_do_not_panic() {
        let store = seed(&["one", "two words", ""]);
        let _ = find_duplicates(&store, &DedupConfig::default());
    }
}
