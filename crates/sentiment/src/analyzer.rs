//! The sentiment analyzer: pattern matching and semantic relationship
//! analysis over parsed sentences.
//!
//! For each clause, the analyzer identifies the predicate, finds the best
//! matching sentiment pattern in the pattern database, computes the
//! sentiment (fixed, or transferred from a source component via the
//! sentiment lexicon), applies sentence-level negation, and emits
//! assignments to target token regions. Additional relationship rules
//! cover attributive adjectives ("the excellent camera"), existential
//! clauses ("there is a lack of ..."), and contrastive leading PPs
//! ("Unlike the T series CLIEs, ...").
//!
//! The analyzer reads a borrowed [`SentenceView`], generic over its token
//! view: the miners lend each kept sentence with its tokens still in the
//! scanned document, and [`SentimentAnalyzer::analyze`] lends an owned
//! [`AnalyzedSentence`] the same way.

use crate::phrase::{manner_polarity, phrase_polarity};
use wf_lexicon::{Assignment, Component, PatternDatabase, SentimentLexicon, SentimentPattern};
use wf_nlp::{AnalyzedSentence, Chunk, ChunkKind, Clause, PosTag, SentenceView, TokenAccess};
use wf_types::Polarity;

/// How an assignment was derived (evidence for reports and debugging).
/// `Copy`: its strings borrow from the static pattern database or are
/// literals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Evidence {
    /// A sentiment pattern of the predicate matched.
    Pattern {
        /// The predicate lemma, as the pattern database spells it.
        predicate: &'static str,
        target: Component,
    },
    /// Attributive sentiment adjectives inside the target NP itself.
    Attributive,
    /// Existential clause: "there is a lack of X" assigns to X.
    Existential,
    /// Contrastive leading PP ("unlike ..." inverts, "like"/"as" copies).
    Contrast {
        /// The preposition that triggered the rule.
        preposition: &'static str,
    },
}

/// One sentiment assignment: a polarity directed at a token region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SentimentAssignment {
    /// Target token ranges (sentence-local `[start, end)` pairs). A subject
    /// region includes the subject NP and its attached PPs.
    pub ranges: Vec<(usize, usize)>,
    pub polarity: Polarity,
    pub evidence: Evidence,
}

impl SentimentAssignment {
    /// True when any range contains the token index.
    pub fn covers_token(&self, token: usize) -> bool {
        self.ranges.iter().any(|&(s, e)| s <= token && token < e)
    }
}

/// The analyzer, parameterized by the two linguistic resources.
pub struct SentimentAnalyzer {
    lexicon: &'static SentimentLexicon,
    patterns: &'static PatternDatabase,
    config: AnalyzerConfig,
}

/// Toggles for the analyzer's relationship-analysis rules, used by the
/// ablation experiments to quantify each rule's contribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalyzerConfig {
    /// Reverse pattern polarity under verb-group negation.
    pub negation: bool,
    /// Mirror subject sentiment onto contrastive leading PPs.
    pub contrast: bool,
    /// Assign premodifier sentiment to the containing NP.
    pub attributive: bool,
    /// Handle existential "there is a lack of ..." clauses.
    pub existential: bool,
}

impl Default for AnalyzerConfig {
    fn default() -> Self {
        AnalyzerConfig {
            negation: true,
            contrast: true,
            attributive: true,
            existential: true,
        }
    }
}

impl Default for SentimentAnalyzer {
    fn default() -> Self {
        Self::new()
    }
}

impl SentimentAnalyzer {
    /// Analyzer over the embedded default lexicon and pattern database.
    pub fn new() -> Self {
        Self::with_config(AnalyzerConfig::default())
    }

    /// Analyzer with selected relationship rules disabled (ablations).
    pub fn with_config(config: AnalyzerConfig) -> Self {
        SentimentAnalyzer {
            lexicon: SentimentLexicon::default_lexicon(),
            patterns: PatternDatabase::default_database(),
            config,
        }
    }

    /// The active rule configuration.
    pub fn config(&self) -> AnalyzerConfig {
        self.config
    }

    /// The sentiment lexicon in use.
    pub fn lexicon(&self) -> &SentimentLexicon {
        self.lexicon
    }

    /// Analyzes one parsed sentence into sentiment assignments.
    pub fn analyze(&self, sentence: &AnalyzedSentence) -> Vec<SentimentAssignment> {
        self.analyze_view(&sentence.view())
    }

    /// Analyzes one borrowed sentence into sentiment assignments.
    pub fn analyze_view<T: TokenAccess>(
        &self,
        sentence: &SentenceView<'_, T>,
    ) -> Vec<SentimentAssignment> {
        let mut out = Vec::new();
        for clause in &sentence.analysis.clauses {
            let clause_assignments = self.analyze_clause(sentence, clause);
            // Contrast rule: a leading "unlike"/"like"/"as" PP mirrors the
            // sentiment assigned to this clause's subject.
            if self.config.contrast {
                for (prep, pp_chunk) in &clause.leading_pps {
                    if let Some(mirrored) = self.contrast_assignment(
                        sentence,
                        clause,
                        &clause_assignments,
                        prep,
                        *pp_chunk,
                    ) {
                        out.push(mirrored);
                    }
                }
            }
            // Comparative rule: "X is better than Y" — the complement's
            // comparative polarity also assigns its opposite to the
            // than-phrase.
            if self.config.contrast {
                if let Some(comp) =
                    self.comparative_assignment(sentence, clause, &clause_assignments)
                {
                    out.push(comp);
                }
            }
            out.extend(clause_assignments);
        }
        // Attributive rule: sentiment premodifiers inside any NP assign to
        // that NP's head region ("the excellent camera").
        if self.config.attributive {
            out.extend(self.attributive_assignments(sentence));
        }
        out
    }

    /// Pattern-based analysis of one clause.
    fn analyze_clause<T: TokenAccess>(
        &self,
        sentence: &SentenceView<'_, T>,
        clause: &Clause,
    ) -> Vec<SentimentAssignment> {
        let Some(predicate) = &clause.predicate else {
            return Vec::new();
        };
        // Existential clauses bypass the pattern database: "There is a lack
        // of non-memory Memory Sticks" directs the complement's sentiment
        // at the complement's own PP contents.
        if self.config.existential {
            if let Some(a) = self.existential_assignment(sentence, clause) {
                return vec![a];
            }
        }
        for pattern in self.patterns.patterns_by_specificity(&predicate.lemma) {
            let Some(target_ranges) = self.resolve_target(sentence, clause, pattern) else {
                continue;
            };
            let polarity = match &pattern.assignment {
                Assignment::Fixed(p) => *p,
                Assignment::Transfer {
                    source,
                    source_preps,
                    invert,
                } => {
                    let Some(source_pol) =
                        self.source_polarity(sentence, clause, *source, source_preps.as_deref())
                    else {
                        continue; // source component absent: try next pattern
                    };
                    source_pol.reversed_if(*invert)
                }
            };
            let polarity = polarity.reversed_if(self.config.negation && clause.negated);
            if polarity == Polarity::Neutral {
                // structure matched but carries no sentiment; the paper's
                // miner reports nothing for this clause
                return Vec::new();
            }
            return vec![SentimentAssignment {
                ranges: target_ranges,
                polarity,
                evidence: Evidence::Pattern {
                    predicate: &pattern.predicate,
                    target: pattern.target,
                },
            }];
        }
        Vec::new()
    }

    /// Token ranges of a pattern's target component, if present.
    fn resolve_target<T: TokenAccess>(
        &self,
        sentence: &SentenceView<'_, T>,
        clause: &Clause,
        pattern: &SentimentPattern,
    ) -> Option<Vec<(usize, usize)>> {
        match pattern.target {
            Component::SP => {
                let subject = clause.subject?;
                // coordinated subjects share the assignment:
                // "the lens and the battery are great"
                let mut ranges: Vec<(usize, usize)> = coordinated_nps(sentence, clause, subject)
                    .into_iter()
                    .map(|c| chunk_range(&sentence.chunks[c]))
                    .collect();
                for (_, pp) in &clause.subject_pps {
                    ranges.push(chunk_range(&sentence.chunks[*pp]));
                }
                Some(ranges)
            }
            Component::OP => clause.object.map(|c| {
                coordinated_nps(sentence, clause, c)
                    .into_iter()
                    .map(|c| chunk_range(&sentence.chunks[c]))
                    .collect()
            }),
            Component::PP => {
                let (_, pp) = self.find_pp(clause, pattern.target_preps.as_deref())?;
                Some(vec![chunk_range(&sentence.chunks[pp])])
            }
            Component::CP | Component::MP => None, // not assignable targets
        }
    }

    /// Polarity of a source component, or None when the component is
    /// absent from the clause.
    fn source_polarity<T: TokenAccess>(
        &self,
        sentence: &SentenceView<'_, T>,
        clause: &Clause,
        source: Component,
        source_preps: Option<&[String]>,
    ) -> Option<Polarity> {
        match source {
            Component::SP => {
                let subject = clause.subject?;
                Some(self.range_polarity(sentence, chunk_range(&sentence.chunks[subject])))
            }
            Component::OP => {
                let object = clause.object?;
                // object plus its trailing PPs ("a lack of X" spans both)
                Some(self.range_polarity(sentence, chunk_range(&sentence.chunks[object])))
            }
            Component::CP => {
                let complement = clause.complement?;
                Some(self.range_polarity(sentence, chunk_range(&sentence.chunks[complement])))
            }
            Component::PP => {
                let (_, pp) = self.find_pp(clause, source_preps)?;
                Some(self.range_polarity(sentence, chunk_range(&sentence.chunks[pp])))
            }
            Component::MP => {
                let predicate = clause.predicate.as_ref()?;
                let vp = &sentence.chunks[predicate.chunk];
                Some(manner_polarity(sentence, (vp.start, vp.end), self.lexicon))
            }
        }
    }

    /// First post-verbal PP matching the preposition constraint.
    fn find_pp<'c>(
        &self,
        clause: &'c Clause,
        preps: Option<&[String]>,
    ) -> Option<(&'c str, usize)> {
        clause
            .pps
            .iter()
            .find(|(prep, _)| preps.is_none_or(|ps| ps.iter().any(|p| p == prep)))
            .map(|(prep, ci)| (prep.as_str(), *ci))
    }

    fn range_polarity<T: TokenAccess>(
        &self,
        sentence: &SentenceView<'_, T>,
        range: (usize, usize),
    ) -> Polarity {
        phrase_polarity(sentence, range, self.lexicon)
    }

    /// Existential "there be X ..." → sentiment of X directed at X's PPs
    /// (and X itself).
    fn existential_assignment<T: TokenAccess>(
        &self,
        sentence: &SentenceView<'_, T>,
        clause: &Clause,
    ) -> Option<SentimentAssignment> {
        let predicate = clause.predicate.as_ref()?;
        if predicate.lemma != "be" {
            return None;
        }
        let subject = clause.subject?;
        let subject_chunk = &sentence.chunks[subject];
        let is_existential =
            subject_chunk.len() == 1 && sentence.tags[subject_chunk.start] == PosTag::EX;
        if !is_existential {
            return None;
        }
        // the existential's content may be split between a predicate
        // nominal and a stray complement ("a real lack" + "of polish"):
        // take the first sentiment-bearing piece
        let content = [clause.complement, clause.object]
            .into_iter()
            .flatten()
            .find(|&c| {
                self.range_polarity(sentence, chunk_range(&sentence.chunks[c])) != Polarity::Neutral
            })?;
        let content_pol = self.range_polarity(sentence, chunk_range(&sentence.chunks[content]));
        let mut ranges = vec![chunk_range(&sentence.chunks[content])];
        for c in [clause.complement, clause.object].into_iter().flatten() {
            let r = chunk_range(&sentence.chunks[c]);
            if !ranges.contains(&r) {
                ranges.push(r);
            }
        }
        for (_, pp) in &clause.pps {
            ranges.push(chunk_range(&sentence.chunks[*pp]));
        }
        Some(SentimentAssignment {
            ranges,
            polarity: content_pol.reversed_if(clause.negated),
            evidence: Evidence::Existential,
        })
    }

    /// "X is better than Y": when the clause assigned a comparative
    /// complement's polarity to its subject and a than-PP follows, the
    /// than-phrase receives the opposite polarity.
    fn comparative_assignment<T: TokenAccess>(
        &self,
        sentence: &SentenceView<'_, T>,
        clause: &Clause,
        clause_assignments: &[SentimentAssignment],
    ) -> Option<SentimentAssignment> {
        let complement = clause.complement?;
        let comp_chunk = &sentence.chunks[complement];
        let is_comparative = (comp_chunk.start..comp_chunk.end).any(|i| {
            matches!(sentence.tags[i], PosTag::JJR | PosTag::RBR)
                || matches!(sentence.tokens.lower(i), "more" | "less")
        });
        if !is_comparative {
            return None;
        }
        let (_, than_pp) = clause.pps.iter().find(|(prep, _)| prep == "than")?;
        // the subject must have received a sentiment from this clause
        let subject = clause.subject?;
        let subject_range = chunk_range(&sentence.chunks[subject]);
        let subject_assignment = clause_assignments
            .iter()
            .find(|a| a.ranges.contains(&subject_range))?;
        Some(SentimentAssignment {
            ranges: vec![chunk_range(&sentence.chunks[*than_pp])],
            polarity: subject_assignment.polarity.reversed(),
            evidence: Evidence::Contrast {
                preposition: "than",
            },
        })
    }

    /// Mirrors the clause's subject sentiment onto a contrastive leading
    /// PP: "unlike X" gets the opposite, "like"/"as" the same.
    fn contrast_assignment<T: TokenAccess>(
        &self,
        sentence: &SentenceView<'_, T>,
        clause: &Clause,
        clause_assignments: &[SentimentAssignment],
        prep: &str,
        pp_chunk: usize,
    ) -> Option<SentimentAssignment> {
        let (preposition, invert) = match prep {
            "unlike" => ("unlike", true),
            "like" => ("like", false),
            "as" => ("as", false),
            "with" => ("with", false),
            _ => return None,
        };
        // the clause must have assigned sentiment to its subject region
        let subject = clause.subject?;
        let subject_range = chunk_range(&sentence.chunks[subject]);
        let subject_assignment = clause_assignments
            .iter()
            .find(|a| a.ranges.contains(&subject_range))?;
        Some(SentimentAssignment {
            ranges: vec![chunk_range(&sentence.chunks[pp_chunk])],
            polarity: subject_assignment.polarity.reversed_if(invert),
            evidence: Evidence::Contrast { preposition },
        })
    }

    /// Attributive adjectives: for every NP whose premodifiers carry
    /// sentiment, assign that polarity to the NP region.
    fn attributive_assignments<T: TokenAccess>(
        &self,
        sentence: &SentenceView<'_, T>,
    ) -> Vec<SentimentAssignment> {
        let mut out = Vec::new();
        for chunk in sentence.chunks {
            let np_range = match chunk.kind {
                ChunkKind::NP => chunk_range(chunk),
                // a PP embeds its object NP
                ChunkKind::PP => match chunk.object {
                    Some(obj) => (obj, chunk.end),
                    None => continue,
                },
                _ => continue,
            };
            // premodifier region: everything before the head (last) noun
            let Some(head) = (np_range.0..np_range.1)
                .rev()
                .find(|&i| sentence.tags[i].is_noun())
            else {
                continue;
            };
            if head <= np_range.0 {
                continue;
            }
            let premod_polarity = phrase_polarity(sentence, (np_range.0, head), self.lexicon);
            if premod_polarity == Polarity::Neutral {
                continue;
            }
            out.push(SentimentAssignment {
                ranges: vec![np_range],
                polarity: premod_polarity,
                evidence: Evidence::Attributive,
            });
        }
        out
    }
}

/// The NP chunks coordinated with `anchor` inside the clause: walks both
/// directions across `CC`/comma connectors ("the lens and the battery",
/// "the lens, the menu and the strap").
fn coordinated_nps<T: TokenAccess>(
    sentence: &SentenceView<'_, T>,
    clause: &Clause,
    anchor: usize,
) -> Vec<usize> {
    let is_connector = |ci: usize| -> bool {
        let c = &sentence.chunks[ci];
        c.kind == ChunkKind::Other
            && (sentence.tags[c.start] == PosTag::CC || sentence.tokens.text(c.start) == ",")
    };
    let is_np = |ci: usize| sentence.chunks[ci].kind == ChunkKind::NP;
    let mut out = vec![anchor];
    // backwards
    let mut ci = anchor;
    while ci >= clause.chunk_start + 2 && is_connector(ci - 1) && is_np(ci - 2) {
        ci -= 2;
        out.push(ci);
    }
    // forwards
    let mut ci = anchor;
    while ci + 2 < clause.chunk_end && is_connector(ci + 1) && is_np(ci + 2) {
        ci += 2;
        out.push(ci);
    }
    out.sort_unstable();
    out
}

/// Token range of a chunk.
fn chunk_range(chunk: &Chunk) -> (usize, usize) {
    (chunk.start, chunk.end)
}

#[cfg(test)]
pub(crate) mod tests_support {
    use super::*;
    use wf_nlp::Pipeline;

    pub(crate) fn analyze(text: &str) -> (AnalyzedSentence, Vec<SentimentAssignment>) {
        let p = Pipeline::new();
        let s = p.analyze_sentence(text);
        let analyzer = SentimentAnalyzer::new();
        let a = analyzer.analyze(&s);
        (s, a)
    }

    /// Returns the polarity assigned to the region containing `word`, if
    /// any (structural evidence preferred over attributive).
    pub(crate) fn polarity_at(text: &str, word: &str) -> Option<Polarity> {
        let (s, assignments) = analyze(text);
        let token = s
            .tokens
            .iter()
            .position(|t| t.text.eq_ignore_ascii_case(word))
            .unwrap_or_else(|| panic!("{word} not in {text}"));
        let mut hits: Vec<&SentimentAssignment> = assignments
            .iter()
            .filter(|a| a.covers_token(token))
            .collect();
        hits.sort_by_key(|a| matches!(a.evidence, Evidence::Attributive));
        hits.first().map(|a| a.polarity)
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::{analyze, polarity_at};
    use super::*;

    #[test]
    fn paper_take_op_sp() {
        // <"take" OP SP>: positive OP transfers to camera
        assert_eq!(
            polarity_at("This camera takes excellent pictures.", "camera"),
            Some(Polarity::Positive)
        );
    }

    #[test]
    fn paper_be_cp_sp() {
        assert_eq!(
            polarity_at("The colors are vibrant.", "colors"),
            Some(Polarity::Positive)
        );
    }

    #[test]
    fn paper_impress_pp() {
        assert_eq!(
            polarity_at("I am impressed by the flash capabilities.", "flash"),
            Some(Polarity::Positive)
        );
    }

    #[test]
    fn paper_offer_both_polarities() {
        assert_eq!(
            polarity_at("The company offers high quality products.", "company"),
            Some(Polarity::Positive)
        );
        assert_eq!(
            polarity_at("The company offers mediocre services.", "company"),
            Some(Polarity::Negative)
        );
    }

    #[test]
    fn paper_fails_to_meet() {
        assert_eq!(
            polarity_at(
                "The product fails to meet our quality expectations.",
                "product"
            ),
            Some(Polarity::Negative)
        );
    }

    #[test]
    fn negation_flips_pattern_polarity() {
        assert_eq!(
            polarity_at("The camera does not take good pictures.", "camera"),
            Some(Polarity::Negative)
        );
    }

    #[test]
    fn unlike_contrast() {
        let text = "Unlike the T series, the NR70 does not require an add-on adapter.";
        assert_eq!(polarity_at(text, "NR70"), Some(Polarity::Positive));
        assert_eq!(polarity_at(text, "series"), Some(Polarity::Negative));
    }

    #[test]
    fn as_with_contrast_copies() {
        let text = "As with every Sony PDA, the NR70 is equipped with Memory Stick expansion.";
        assert_eq!(polarity_at(text, "NR70"), Some(Polarity::Positive));
        assert_eq!(polarity_at(text, "Sony"), Some(Polarity::Positive));
    }

    #[test]
    fn existential_lack() {
        let text = "There is still a lack of non-memory Memory Sticks.";
        assert_eq!(polarity_at(text, "Sticks"), Some(Polarity::Negative));
    }

    #[test]
    fn neutral_sentence_assigns_nothing() {
        let (_, a) = analyze("The camera has a memory card slot.");
        assert!(
            a.iter().all(|x| x.polarity == Polarity::Neutral) || a.is_empty(),
            "{a:?}"
        );
    }

    #[test]
    fn unknown_predicate_assigns_nothing_structurally() {
        let (_, a) = analyze("The camera weighs three pounds.");
        assert!(
            a.iter()
                .all(|x| matches!(x.evidence, Evidence::Attributive)),
            "{a:?}"
        );
    }

    #[test]
    fn attributive_adjective() {
        assert_eq!(
            polarity_at("I returned the defective camera yesterday.", "camera"),
            Some(Polarity::Negative)
        );
    }

    #[test]
    fn event_verb_subject_polarity() {
        assert_eq!(
            polarity_at("The battery drains quickly.", "battery"),
            Some(Polarity::Negative)
        );
        assert_eq!(
            polarity_at("The autofocus excels in low light.", "autofocus"),
            Some(Polarity::Positive)
        );
    }

    #[test]
    fn manner_pattern() {
        assert_eq!(
            polarity_at("The lens performs beautifully.", "lens"),
            Some(Polarity::Positive)
        );
        assert_eq!(
            polarity_at("The software runs poorly.", "software"),
            Some(Polarity::Negative)
        );
    }

    #[test]
    fn subject_attached_pp_shares_subject_sentiment() {
        let text = "The Memory Stick support in the NR70 series is well implemented.";
        // "well implemented" → implement MP? no pattern for implement;
        // falls back: nothing or attributive. Accept either the positive
        // assignment or none, but never a negative.
        let p = polarity_at(text, "NR70");
        assert_ne!(p, Some(Polarity::Negative));
    }

    #[test]
    fn coordinated_clauses_assign_independently() {
        let text = "The lens is sharp but the battery is terrible.";
        assert_eq!(polarity_at(text, "lens"), Some(Polarity::Positive));
        assert_eq!(polarity_at(text, "battery"), Some(Polarity::Negative));
    }

    #[test]
    fn love_assigns_to_object() {
        assert_eq!(
            polarity_at("I love the zoom lens.", "zoom"),
            Some(Polarity::Positive)
        );
        assert_eq!(
            polarity_at("I hate the menu system.", "menu"),
            Some(Polarity::Negative)
        );
    }
}

#[cfg(test)]
mod comparative_tests {
    use super::*;
    use crate::analyzer::tests_support::polarity_at;

    #[test]
    fn better_than_assigns_both_sides() {
        let text = "The NR70 is better than the T300.";
        assert_eq!(
            polarity_at(text, "NR70"),
            Some(wf_types::Polarity::Positive)
        );
        assert_eq!(
            polarity_at(text, "T300"),
            Some(wf_types::Polarity::Negative)
        );
    }

    #[test]
    fn worse_than_assigns_both_sides() {
        let text = "The NR70 is worse than the T300.";
        assert_eq!(
            polarity_at(text, "NR70"),
            Some(wf_types::Polarity::Negative)
        );
        assert_eq!(
            polarity_at(text, "T300"),
            Some(wf_types::Polarity::Positive)
        );
    }

    #[test]
    fn less_reliable_than() {
        let text = "The NR70 is less reliable than the T300.";
        assert_eq!(
            polarity_at(text, "NR70"),
            Some(wf_types::Polarity::Negative)
        );
        assert_eq!(
            polarity_at(text, "T300"),
            Some(wf_types::Polarity::Positive)
        );
    }

    #[test]
    fn comparative_without_than_only_affects_subject() {
        let text = "The NR70 is better.";
        assert_eq!(
            polarity_at(text, "NR70"),
            Some(wf_types::Polarity::Positive)
        );
    }

    #[test]
    fn comparative_disabled_with_contrast_rule() {
        use wf_nlp::Pipeline;
        let analyzer = SentimentAnalyzer::with_config(AnalyzerConfig {
            contrast: false,
            ..AnalyzerConfig::default()
        });
        let s = Pipeline::new().analyze_sentence("The NR70 is better than the T300.");
        let assignments = analyzer.analyze(&s);
        // the than-phrase must receive nothing when the rule is off
        let t300 = s.tokens.iter().position(|t| t.text == "T300").unwrap();
        assert!(assignments.iter().all(|a| !a.covers_token(t300)));
    }
}

#[cfg(test)]
mod coordination_tests {
    use crate::analyzer::tests_support::polarity_at;
    use wf_types::Polarity;

    #[test]
    fn coordinated_subjects_share_sentiment() {
        let text = "The lens and the battery are excellent.";
        assert_eq!(polarity_at(text, "lens"), Some(Polarity::Positive));
        assert_eq!(polarity_at(text, "battery"), Some(Polarity::Positive));
    }

    #[test]
    fn three_way_subject_coordination() {
        let text = "The lens, the menu and the strap are terrible.";
        for word in ["lens", "menu", "strap"] {
            assert_eq!(polarity_at(text, word), Some(Polarity::Negative), "{word}");
        }
    }

    #[test]
    fn coordinated_objects_share_sentiment() {
        let text = "I love the lens and the zoom.";
        assert_eq!(polarity_at(text, "lens"), Some(Polarity::Positive));
        assert_eq!(polarity_at(text, "zoom"), Some(Polarity::Positive));
    }

    #[test]
    fn coordination_does_not_cross_clause_boundaries() {
        // "but" opens a new clause; the first clause's positive assignment
        // must not leak to the second subject
        let text = "The lens is excellent but the battery is terrible.";
        assert_eq!(polarity_at(text, "lens"), Some(Polarity::Positive));
        assert_eq!(polarity_at(text, "battery"), Some(Polarity::Negative));
    }
}
