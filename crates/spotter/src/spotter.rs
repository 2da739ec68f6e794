//! The spotter: identifies occurrences of arbitrary subject terms.
//!
//! Per the paper: "The spotter is a general purpose miner that identifies
//! occurrences of arbitrary terms or phrases within documents. [...]
//! Subject terms are grouped into synonym sets that are user configurable
//! and the spotter annotates the occurrences with the synonym set ID."
//! Occurrences are called *spots*.

use crate::automaton::{AhoCorasick, AhoCorasickBuilder};
use wf_types::{Span, SynsetId};

/// A synonym set: one subject of interest with all its surface variants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Synset {
    pub id: SynsetId,
    /// Canonical display name ("Sony PDA").
    pub canonical: String,
    /// All variants to spot, including the canonical form.
    pub variants: Vec<String>,
}

/// An ordered list of subjects (synonym sets) to track.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SubjectList {
    synsets: Vec<Synset>,
}

impl SubjectList {
    /// Starts building a subject list.
    pub fn builder() -> SubjectListBuilder {
        SubjectListBuilder::default()
    }

    /// All synonym sets.
    pub fn synsets(&self) -> &[Synset] {
        &self.synsets
    }

    /// Number of subjects.
    pub fn len(&self) -> usize {
        self.synsets.len()
    }

    pub fn is_empty(&self) -> bool {
        self.synsets.is_empty()
    }

    /// Looks up a synset by id. The builder gives each synset its
    /// position as its id, so this indexes directly.
    pub fn get(&self, id: SynsetId) -> Option<&Synset> {
        self.synsets.get(id.0 as usize)
    }

    /// Looks up a synset id by canonical name.
    pub fn id_of(&self, canonical: &str) -> Option<SynsetId> {
        self.synsets
            .iter()
            .find(|s| s.canonical == canonical)
            .map(|s| s.id)
    }
}

/// Builder for [`SubjectList`].
#[derive(Debug, Default)]
pub struct SubjectListBuilder {
    synsets: Vec<Synset>,
}

impl SubjectListBuilder {
    /// Adds a subject with its variants. The canonical name is always
    /// spotted even if not repeated among the variants.
    pub fn subject<I, S>(mut self, canonical: &str, variants: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let id = SynsetId(self.synsets.len() as u32);
        let mut vs: Vec<String> = variants.into_iter().map(Into::into).collect();
        if !vs.iter().any(|v| v.eq_ignore_ascii_case(canonical)) {
            vs.insert(0, canonical.to_string());
        }
        self.synsets.push(Synset {
            id,
            canonical: canonical.to_string(),
            variants: vs,
        });
        self
    }

    pub fn build(self) -> SubjectList {
        SubjectList {
            synsets: self.synsets,
        }
    }
}

/// A spot: one subject occurrence in a document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spot {
    /// Synonym set of the matched subject.
    pub synset: SynsetId,
    /// Byte span of the occurrence.
    pub span: Span,
    /// The variant that matched, as written in the subject list.
    pub variant: String,
}

/// Multi-subject spotter over a compiled [`SubjectList`].
///
/// ```
/// use wf_spotter::{Spotter, SubjectList};
///
/// let subjects = SubjectList::builder()
///     .subject("NR70", ["NR70", "NR70 series"])
///     .build();
/// let spotter = Spotter::new(&subjects);
/// let spots = spotter.spot("I love the NR70 series.");
/// assert_eq!(spots.len(), 1);
/// assert_eq!(spots[0].variant, "NR70 series");
/// ```
pub struct Spotter {
    automaton: AhoCorasick,
    /// pattern id → (synset, variant index)
    pattern_meta: Vec<(SynsetId, String)>,
}

impl Spotter {
    /// Compiles a spotter for the given subjects. Matching is
    /// ASCII-case-insensitive and respects word boundaries.
    pub fn new(subjects: &SubjectList) -> Self {
        let mut builder = AhoCorasickBuilder::new();
        let mut pattern_meta = Vec::new();
        for synset in subjects.synsets() {
            for variant in &synset.variants {
                let lowered = variant.to_ascii_lowercase();
                builder.add_pattern(lowered.as_bytes());
                pattern_meta.push((synset.id, variant.clone()));
            }
        }
        Spotter {
            automaton: builder.build(),
            pattern_meta,
        }
    }

    /// Finds all subject spots in `text`. Overlapping spots of *different*
    /// synsets are all reported (the paper's NR70 / "T series CLIEs" example
    /// needs this); for the same synset the longest match at a position
    /// wins.
    pub fn spot(&self, text: &str) -> Vec<Spot> {
        let lowered = text.to_ascii_lowercase();
        let bytes = lowered.as_bytes();
        let mut raw: Vec<Spot> = Vec::new();
        self.automaton.for_each_match(bytes, |m| {
            if !on_word_boundary(bytes, m.start, m.end) {
                return;
            }
            let (synset, variant) = &self.pattern_meta[m.pattern];
            raw.push(Spot {
                synset: *synset,
                span: Span::new(m.start, m.end),
                variant: variant.clone(),
            });
        });
        // Deduplicate same-synset overlaps, keeping the longest.
        raw.sort_by_key(|s| (s.synset.0, s.span.start, std::cmp::Reverse(s.span.len())));
        let mut out: Vec<Spot> = Vec::new();
        for spot in raw {
            if let Some(last) = out.last() {
                if last.synset == spot.synset && last.span.overlaps(spot.span) {
                    continue;
                }
            }
            out.push(spot);
        }
        out.sort_by_key(|s| (s.span.start, s.span.end, s.synset.0));
        out
    }
}

/// True when `[start, end)` is flanked by non-alphanumeric bytes (or text
/// edges), so "sun" does not match inside "sunday".
fn on_word_boundary(bytes: &[u8], start: usize, end: usize) -> bool {
    let before_ok = start == 0 || !bytes[start - 1].is_ascii_alphanumeric();
    let after_ok = end >= bytes.len() || !bytes[end].is_ascii_alphanumeric();
    before_ok && after_ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn camera_subjects() -> SubjectList {
        SubjectList::builder()
            .subject("Sony PDA", ["Sony PDA", "Sony"])
            .subject("NR70", ["NR70", "NR70 series"])
            .subject("T series CLIEs", ["T series CLIEs", "T series"])
            .build()
    }

    #[test]
    fn builder_assigns_dense_ids() {
        let subjects = camera_subjects();
        assert_eq!(subjects.len(), 3);
        assert_eq!(subjects.id_of("NR70"), Some(SynsetId(1)));
        assert_eq!(
            subjects.get(SynsetId(2)).unwrap().canonical,
            "T series CLIEs"
        );
    }

    #[test]
    fn get_by_position_equals_a_linear_find_by_id() {
        let subjects = camera_subjects();
        let linear = |id: SynsetId| subjects.synsets().iter().find(|s| s.id == id);
        for id in (0..5).map(SynsetId) {
            assert_eq!(subjects.get(id), linear(id), "{id:?}");
        }
        assert!(subjects.get(SynsetId(3)).is_none());
        assert!(subjects.get(SynsetId(u32::MAX)).is_none());
        assert!(SubjectList::default().get(SynsetId(0)).is_none());
    }

    #[test]
    fn canonical_always_included_in_variants() {
        let s = SubjectList::builder().subject("IBM", ["Big Blue"]).build();
        assert!(s.synsets()[0].variants.contains(&"IBM".to_string()));
    }

    #[test]
    fn spots_paper_sentence() {
        let spotter = Spotter::new(&camera_subjects());
        let text = "Unlike the more recent T series CLIEs, the NR70 does not require an adapter.";
        let spots = spotter.spot(text);
        let names: Vec<(&str, u32)> = spots
            .iter()
            .map(|s| (s.span.slice(text), s.synset.0))
            .collect();
        assert!(names.contains(&("T series CLIEs", 2)), "{names:?}");
        assert!(names.contains(&("NR70", 1)), "{names:?}");
    }

    #[test]
    fn case_insensitive() {
        let spotter = Spotter::new(&camera_subjects());
        let spots = spotter.spot("SONY pda and nr70 are here");
        assert_eq!(spots.len(), 2);
    }

    #[test]
    fn word_boundary_respected() {
        let subjects = SubjectList::builder().subject("SUN", ["SUN"]).build();
        let spotter = Spotter::new(&subjects);
        assert!(spotter.spot("I rested on Sunday.").is_empty());
        assert_eq!(spotter.spot("SUN Microsystems shipped it.").len(), 1);
        assert_eq!(spotter.spot("the sun.").len(), 1);
    }

    #[test]
    fn longest_variant_wins_within_synset() {
        let spotter = Spotter::new(&camera_subjects());
        let text = "The NR70 series is equipped with Memory Stick expansion.";
        let spots = spotter.spot(text);
        let nr70: Vec<&Spot> = spots.iter().filter(|s| s.synset == SynsetId(1)).collect();
        assert_eq!(nr70.len(), 1);
        assert_eq!(nr70[0].span.slice(text), "NR70 series");
    }

    #[test]
    fn overlapping_spots_of_different_synsets_both_reported() {
        let subjects = SubjectList::builder()
            .subject("Memory Stick", ["Memory Stick"])
            .subject("Memory Stick expansion", ["Memory Stick expansion"])
            .build();
        let spotter = Spotter::new(&subjects);
        let spots = spotter.spot("Sony's own Memory Stick expansion works.");
        assert_eq!(spots.len(), 2);
    }

    #[test]
    fn multiple_occurrences_counted() {
        let spotter = Spotter::new(&camera_subjects());
        let spots = spotter.spot("Sony, sony, and SONY again");
        assert_eq!(spots.len(), 3);
        assert!(spots.iter().all(|s| s.synset == SynsetId(0)));
    }

    #[test]
    fn empty_subject_list_spots_nothing() {
        let spotter = Spotter::new(&SubjectList::default());
        assert!(spotter.spot("anything at all").is_empty());
    }

    #[test]
    fn spans_slice_back_to_variants() {
        let spotter = Spotter::new(&camera_subjects());
        let text = "I love the NR70.";
        let spots = spotter.spot(text);
        assert_eq!(spots.len(), 1);
        assert_eq!(spots[0].span.slice(text), "NR70");
        assert_eq!(spots[0].variant, "NR70");
    }
}
