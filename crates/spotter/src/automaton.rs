//! From-scratch Aho–Corasick multi-pattern string automaton.
//!
//! The WebFountain spotter must find occurrences of thousands of subject
//! terms in a single pass over each document; a trie with failure links
//! (Aho & Corasick 1975) gives O(text + matches) matching regardless of the
//! number of patterns. Matching is byte-based over ASCII-lowercased input;
//! word-boundary filtering happens in the spotter layer.

/// Identifier of a pattern within an automaton (insertion order).
pub type PatternId = usize;

/// A match: pattern id plus byte range `[start, end)` in the haystack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Match {
    pub pattern: PatternId,
    pub start: usize,
    pub end: usize,
}

#[derive(Debug, Clone)]
struct Node {
    /// Transitions: byte → node index. A dense 256-slot table would be
    /// faster but 256×usize per node is wasteful for large pattern sets;
    /// a sorted small vec keeps the automaton compact.
    next: Vec<(u8, u32)>,
    /// Failure link.
    fail: u32,
    /// Patterns ending at this node (via output links, flattened at build).
    outputs: Vec<PatternId>,
}

impl Node {
    fn new() -> Self {
        Node {
            next: Vec::new(),
            fail: 0,
            outputs: Vec::new(),
        }
    }

    fn get(&self, byte: u8) -> Option<u32> {
        self.next
            .binary_search_by_key(&byte, |&(b, _)| b)
            .ok()
            .map(|i| self.next[i].1)
    }

    fn set(&mut self, byte: u8, node: u32) {
        match self.next.binary_search_by_key(&byte, |&(b, _)| b) {
            Ok(i) => self.next[i].1 = node,
            Err(i) => self.next.insert(i, (byte, node)),
        }
    }
}

/// Immutable matcher built by [`AhoCorasickBuilder`].
#[derive(Debug, Clone)]
pub struct AhoCorasick {
    nodes: Vec<Node>,
    pattern_lens: Vec<usize>,
}

/// Builder: add patterns, then [`AhoCorasickBuilder::build`].
#[derive(Debug, Default)]
pub struct AhoCorasickBuilder {
    patterns: Vec<Vec<u8>>,
}

impl AhoCorasickBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a pattern; returns its [`PatternId`]. Patterns are matched
    /// byte-exactly (callers normalize case beforehand). Empty patterns are
    /// legal to add but never match.
    pub fn add_pattern(&mut self, pattern: impl AsRef<[u8]>) -> PatternId {
        self.patterns.push(pattern.as_ref().to_vec());
        self.patterns.len() - 1
    }

    /// Number of patterns added so far.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// Builds the automaton: trie construction, then BFS failure links with
    /// output flattening.
    pub fn build(self) -> AhoCorasick {
        let mut nodes = vec![Node::new()];
        let mut pattern_lens = Vec::with_capacity(self.patterns.len());
        // Trie
        for (pid, pat) in self.patterns.iter().enumerate() {
            pattern_lens.push(pat.len());
            if pat.is_empty() {
                continue;
            }
            let mut cur = 0u32;
            for &b in pat.iter() {
                cur = match nodes[cur as usize].get(b) {
                    Some(n) => n,
                    None => {
                        let idx = nodes.len() as u32;
                        nodes.push(Node::new());
                        nodes[cur as usize].set(b, idx);
                        idx
                    }
                };
            }
            nodes[cur as usize].outputs.push(pid);
        }
        // BFS failure links
        let mut queue = std::collections::VecDeque::new();
        let root_children: Vec<(u8, u32)> = nodes[0].next.clone();
        for &(_, child) in &root_children {
            nodes[child as usize].fail = 0;
            queue.push_back(child);
        }
        while let Some(u) = queue.pop_front() {
            let transitions: Vec<(u8, u32)> = nodes[u as usize].next.clone();
            for (b, v) in transitions {
                // failure of v: follow u's failure chain
                let mut f = nodes[u as usize].fail;
                let vfail = loop {
                    if let Some(n) = nodes[f as usize].get(b) {
                        break n;
                    }
                    if f == 0 {
                        break 0;
                    }
                    f = nodes[f as usize].fail;
                };
                let vfail = if vfail == v { 0 } else { vfail };
                nodes[v as usize].fail = vfail;
                // flatten outputs
                let inherited = nodes[vfail as usize].outputs.clone();
                nodes[v as usize].outputs.extend(inherited);
                queue.push_back(v);
            }
        }
        AhoCorasick {
            nodes,
            pattern_lens,
        }
    }
}

impl AhoCorasick {
    /// Finds all (overlapping) matches in `haystack`.
    pub fn find_all(&self, haystack: &[u8]) -> Vec<Match> {
        let mut out = Vec::new();
        self.for_each_match(haystack, |m| out.push(m));
        out
    }

    /// Streaming variant of [`AhoCorasick::find_all`].
    pub fn for_each_match<F: FnMut(Match)>(&self, haystack: &[u8], mut f: F) {
        let mut state = 0u32;
        for (i, &b) in haystack.iter().enumerate() {
            // follow failure links until a transition exists
            loop {
                if let Some(n) = self.nodes[state as usize].get(b) {
                    state = n;
                    break;
                }
                if state == 0 {
                    break;
                }
                state = self.nodes[state as usize].fail;
            }
            for &pid in &self.nodes[state as usize].outputs {
                let len = self.pattern_lens[pid];
                f(Match {
                    pattern: pid,
                    start: i + 1 - len,
                    end: i + 1,
                });
            }
        }
    }

    /// Number of trie nodes (diagnostics).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(patterns: &[&str]) -> AhoCorasick {
        let mut b = AhoCorasickBuilder::new();
        for p in patterns {
            b.add_pattern(p.as_bytes());
        }
        b.build()
    }

    /// Reference implementation for cross-checking.
    fn naive(patterns: &[&str], haystack: &str) -> Vec<Match> {
        let mut out = Vec::new();
        for (pid, p) in patterns.iter().enumerate() {
            if p.is_empty() {
                continue;
            }
            let mut from = 0;
            while let Some(pos) = haystack[from..].find(p) {
                let start = from + pos;
                out.push(Match {
                    pattern: pid,
                    start,
                    end: start + p.len(),
                });
                from = start + 1;
            }
        }
        out.sort_by_key(|m| (m.end, m.pattern));
        out
    }

    fn assert_matches_naive(patterns: &[&str], haystack: &str) {
        let ac = build(patterns);
        let mut got = ac.find_all(haystack.as_bytes());
        got.sort_by_key(|m| (m.end, m.pattern));
        assert_eq!(
            got,
            naive(patterns, haystack),
            "patterns={patterns:?} hay={haystack:?}"
        );
    }

    #[test]
    fn single_pattern() {
        assert_matches_naive(&["camera"], "the camera is a camera");
    }

    #[test]
    fn overlapping_patterns() {
        assert_matches_naive(&["ab", "babc", "bc", "c"], "ababcbabc");
    }

    #[test]
    fn pattern_is_substring_of_another() {
        assert_matches_naive(&["he", "she", "his", "hers"], "ushers she his");
    }

    #[test]
    fn classic_aho_corasick_example() {
        let ac = build(&["he", "she", "his", "hers"]);
        let ms = ac.find_all(b"ushers");
        // "she" at 1..4, "he" at 2..4, "hers" at 2..6
        assert_eq!(ms.len(), 3);
    }

    #[test]
    fn no_matches() {
        let ac = build(&["xyz"]);
        assert!(ac.find_all(b"abcabc").is_empty());
    }

    #[test]
    fn empty_haystack_and_empty_pattern() {
        let ac = build(&["a", ""]);
        assert!(ac.find_all(b"").is_empty());
        // the empty pattern never matches
        assert_eq!(ac.find_all(b"a").len(), 1);
    }

    #[test]
    fn repeated_identical_patterns() {
        let ac = build(&["ab", "ab"]);
        let ms = ac.find_all(b"ab");
        assert_eq!(ms.len(), 2);
        assert_eq!(ms[0].start, 0);
    }

    #[test]
    fn multiword_phrases() {
        assert_matches_naive(
            &["picture quality", "battery life", "battery"],
            "the picture quality and battery life impress; battery included",
        );
    }

    #[test]
    fn self_failure_loop_guard() {
        // patterns like "aa" must not create self-referential failure links
        let ac = build(&["aa", "aaa"]);
        let ms = ac.find_all(b"aaaa");
        // "aa" at 0..2, 1..3, 2..4; "aaa" at 0..3, 1..4
        assert_eq!(ms.len(), 5);
    }

    #[test]
    fn unicode_bytes_pass_through() {
        // matching is byte-based; multi-byte sequences match exactly
        assert_matches_naive(&["café"], "the café is a café");
    }
}
