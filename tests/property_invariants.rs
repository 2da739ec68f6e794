//! Property-based invariants across the workspace (proptest).

use proptest::prelude::*;
use webfountain_sentiment::features::{likelihood_ratio, Counts};
use webfountain_sentiment::nlp::{chunk, tokenizer, Pipeline, PosTagger};
use webfountain_sentiment::platform::Regex;
use webfountain_sentiment::spotter::{AhoCorasickBuilder, Spotter, SubjectList};
use webfountain_sentiment::types::{Polarity, Span};

proptest! {
    /// Tokenizer spans always slice back to the token's surface text and
    /// are strictly increasing.
    #[test]
    fn tokenizer_spans_reconstruct(text in "\\PC{0,200}") {
        let tokens = tokenizer::tokenize(&text);
        let mut last_end = 0usize;
        for t in &tokens {
            prop_assert!(t.span.start >= last_end);
            prop_assert_eq!(t.span.slice(&text), t.text.as_str());
            last_end = t.span.end;
        }
    }

    /// Tagging never panics and returns one tag per token, on arbitrary
    /// ASCII-ish text.
    #[test]
    fn tagger_total(text in "[a-zA-Z0-9 ,.!?'-]{0,160}") {
        let tokens = tokenizer::tokenize(&text);
        let tags = PosTagger::new().tag_sentence(&tokens);
        prop_assert_eq!(tags.len(), tokens.len());
    }

    /// Chunks partition the sentence: contiguous, in order, head in range.
    #[test]
    fn chunks_partition(text in "[a-zA-Z ,.']{0,160}") {
        let tokens = tokenizer::tokenize(&text);
        let tags = PosTagger::new().tag_sentence(&tokens);
        let chunks = chunk::chunk(&tokens, &tags);
        let mut pos = 0usize;
        for c in &chunks {
            prop_assert_eq!(c.start, pos);
            prop_assert!(c.end > c.start);
            prop_assert!(c.head >= c.start && c.head < c.end);
            pos = c.end;
        }
        prop_assert_eq!(pos, tokens.len());
    }

    /// Aho–Corasick agrees with naive substring search.
    #[test]
    fn aho_corasick_matches_naive(
        patterns in prop::collection::vec("[ab]{1,4}", 1..6),
        haystack in "[ab]{0,60}",
    ) {
        let mut builder = AhoCorasickBuilder::new();
        for p in &patterns {
            builder.add_pattern(p.as_bytes());
        }
        let ac = builder.build();
        let mut got: Vec<(usize, usize, usize)> = ac
            .find_all(haystack.as_bytes())
            .into_iter()
            .map(|m| (m.pattern, m.start, m.end))
            .collect();
        got.sort_unstable();
        let mut expected = Vec::new();
        for (pid, p) in patterns.iter().enumerate() {
            let mut from = 0;
            while let Some(off) = haystack[from..].find(p.as_str()) {
                let start = from + off;
                expected.push((pid, start, start + p.len()));
                from = start + 1;
            }
        }
        expected.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    /// The likelihood-ratio statistic is finite and non-negative for all
    /// consistent 2x2 tables.
    #[test]
    fn likelihood_ratio_nonnegative(
        present_plus in 0u64..200,
        present_minus in 0u64..200,
        extra_plus in 0u64..200,
        extra_minus in 0u64..200,
    ) {
        let counts = Counts::from_presence(
            present_plus,
            present_minus,
            present_plus + extra_plus,
            present_minus + extra_minus,
        );
        let lr = likelihood_ratio(counts);
        prop_assert!(lr.is_finite());
        prop_assert!(lr >= 0.0);
    }

    /// Polarity reversal is an involution and `from_score ∘ score` is the
    /// identity.
    #[test]
    fn polarity_algebra(sign in -5i32..=5) {
        let p = Polarity::from_score(sign);
        prop_assert_eq!(p.reversed().reversed(), p);
        prop_assert_eq!(Polarity::from_score(p.score()), p);
        prop_assert_eq!(p.reversed().score(), -p.score());
    }

    /// Spot spans always slice to an ASCII-case-insensitive match of one
    /// of the subject's variants, on word boundaries.
    #[test]
    fn spots_are_real_occurrences(haystack in "[a-z N7R]{0,120}") {
        let subjects = SubjectList::builder()
            .subject("NR70", ["NR70", "NR70 series"])
            .build();
        let spotter = Spotter::new(&subjects);
        for spot in spotter.spot(&haystack) {
            let surface = spot.span.slice(&haystack);
            prop_assert!(surface.eq_ignore_ascii_case(&spot.variant));
        }
    }

    /// The regex engine agrees with a literal matcher on literal patterns.
    #[test]
    fn regex_literals(pattern in "[a-z]{1,8}", text in "[a-z]{0,12}") {
        let re = Regex::new(&pattern).unwrap();
        prop_assert_eq!(re.is_match(&text), pattern == text);
    }

    /// `prefix.*` matches exactly the strings with that prefix.
    #[test]
    fn regex_prefix_wildcard(prefix in "[a-z]{1,6}", text in "[a-z]{0,12}") {
        let re = Regex::new(&format!("{prefix}.*")).unwrap();
        prop_assert_eq!(re.is_match(&text), text.starts_with(&prefix));
    }

    /// Sentence analysis never panics on arbitrary printable text and the
    /// clause chunk ranges stay in bounds.
    #[test]
    fn full_pipeline_total(text in "\\PC{0,200}") {
        let pipeline = Pipeline::new();
        for sentence in pipeline.analyze(&text) {
            for clause in &sentence.analysis.clauses {
                prop_assert!(clause.chunk_end <= sentence.chunks.len());
                if let Some(s) = clause.subject {
                    prop_assert!(s < sentence.chunks.len());
                }
            }
        }
    }

    /// Span covering is commutative and contains both inputs.
    #[test]
    fn span_cover_properties(a in 0usize..500, b in 0usize..500, c in 0usize..500, d in 0usize..500) {
        let s1 = Span::new(a.min(b), a.max(b));
        let s2 = Span::new(c.min(d), c.max(d));
        let cover = s1.cover(s2);
        prop_assert_eq!(cover, s2.cover(s1));
        prop_assert!(cover.contains(s1));
        prop_assert!(cover.contains(s2));
    }
}

proptest! {
    /// Index term queries agree with a naive scan over document texts.
    #[test]
    fn index_term_query_matches_scan(
        docs in prop::collection::vec("[a-c ]{0,30}", 1..12),
        needle in "[a-c]{1,3}",
    ) {
        use webfountain_sentiment::platform::{Entity, Indexer, Query, SourceKind};
        use webfountain_sentiment::types::DocId;
        let indexer = Indexer::new();
        for (i, text) in docs.iter().enumerate() {
            let mut e = Entity::new(format!("u{i}"), SourceKind::Web, text.clone());
            e.id = DocId(i as u64);
            indexer.index_entity(&e);
        }
        let got = indexer.query(&Query::Term(needle.clone())).unwrap();
        let expected: Vec<DocId> = docs
            .iter()
            .enumerate()
            .filter(|(_, text)| {
                text.split(' ').any(|w| w == needle)
            })
            .map(|(i, _)| DocId(i as u64))
            .collect();
        prop_assert_eq!(got, expected);
    }

    /// Store persistence round-trips arbitrary entity content through a
    /// data dir, in snapshot lines and WAL records alike.
    #[test]
    fn persist_round_trip(texts in prop::collection::vec("\\PC{0,60}", 0..8)) {
        use std::sync::Arc;
        use webfountain_sentiment::platform::{DataStore, DurableStorage, Entity, SourceKind};
        let mut dir = std::env::temp_dir();
        dir.push(format!("wf-prop-{}-{}", std::process::id(), texts.len()));
        let store = DataStore::new(2).unwrap();
        let storage = Arc::new(DurableStorage::at_dir(&dir, 2).unwrap());
        store.attach_durability(Arc::clone(&storage)).unwrap();
        for (i, text) in texts.iter().enumerate() {
            // the first half lands in the snapshot, the rest in the WAL
            if i == texts.len() / 2 {
                storage.checkpoint(&store).unwrap();
            }
            store.insert(
                Entity::new(format!("uri://{i}"), SourceKind::Web, text.clone())
                    .with_metadata("idx", i.to_string()),
            );
        }
        let (loaded, report) = DurableStorage::open_dir(&dir)
            .unwrap()
            .recover_store()
            .unwrap();
        prop_assert!(report.clean());
        prop_assert_eq!(loaded.len(), store.len());
        for id in store.ids() {
            prop_assert_eq!(store.get(id).unwrap(), loaded.get(id).unwrap());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The likelihood-ratio extractor's scores are deterministic across
    /// invocations for the same input.
    #[test]
    fn feature_ranking_deterministic(seed in 0u64..50) {
        use webfountain_sentiment::corpus::{camera_reviews, ReviewConfig};
        use webfountain_sentiment::features::FeatureExtractor;
        let config = ReviewConfig {
            n_plus: 4,
            n_minus: 6,
            ..ReviewConfig::small()
        };
        let corpus = camera_reviews(seed, &config);
        let fx = FeatureExtractor::new();
        let a = fx.rank(&corpus.d_plus_texts(), &corpus.d_minus_texts());
        let b = fx.rank(&corpus.d_plus_texts(), &corpus.d_minus_texts());
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(&x.term, &y.term);
            prop_assert!((x.score - y.score).abs() < 1e-12);
        }
    }

    /// Sentiment mining output is insensitive to leading/trailing
    /// whitespace around the document.
    #[test]
    fn miner_whitespace_invariance(pad_left in 0usize..4, pad_right in 0usize..4) {
        use webfountain_sentiment::prelude::*;
        use webfountain_sentiment::sentiment::mention_polarities;
        let core = "The Canon takes excellent pictures.";
        let text = format!("{}{}{}", " ".repeat(pad_left), core, " ".repeat(pad_right));
        let subjects = SubjectList::builder().subject("Canon", ["Canon"]).build();
        let miner = SentimentMiner::with_default_resources();
        let records = miner.analyze_text(&text, &subjects);
        let polarities: Vec<Polarity> = mention_polarities(&records)
            .into_iter()
            .map(|(_, _, p)| p)
            .collect();
        prop_assert_eq!(polarities, vec![Polarity::Positive]);
    }
}

proptest! {
    /// The query parser never panics; on success the query executes
    /// against an index without error (except regex atoms, which may
    /// carry invalid patterns).
    #[test]
    fn query_parser_total(input in "\\PC{0,60}") {
        use webfountain_sentiment::platform::{parse_query, Indexer, Query};
        if let Ok(query) = parse_query(&input) {
            let indexer = Indexer::new();
            fn has_regex(q: &Query) -> bool {
                match q {
                    Query::Regex(_) => true,
                    Query::And(qs) | Query::Or(qs) => qs.iter().any(has_regex),
                    Query::Not(inner) => has_regex(inner),
                    _ => false,
                }
            }
            let result = indexer.query(&query);
            if !has_regex(&query) {
                prop_assert!(result.is_ok(), "{query:?}");
            }
        }
    }

    /// Well-formed boolean queries round-trip through the parser into the
    /// expected shapes.
    #[test]
    fn query_parser_boolean_shapes(
        a in "[a-z]{1,6}",
        b in "[a-z]{1,6}",
        c in "[a-z]{1,6}",
    ) {
        use webfountain_sentiment::platform::{parse_query, Query};
        prop_assume!(!["and", "or", "not"].contains(&a.as_str()));
        prop_assume!(!["and", "or", "not"].contains(&b.as_str()));
        prop_assume!(!["and", "or", "not"].contains(&c.as_str()));
        let q = parse_query(&format!("{a} AND ({b} OR NOT {c})")).unwrap();
        prop_assert_eq!(
            q,
            Query::And(vec![
                Query::Term(a),
                Query::Or(vec![
                    Query::Term(b),
                    Query::Not(Box::new(Query::Term(c))),
                ]),
            ])
        );
    }

    /// The regex compiler never panics on arbitrary input.
    #[test]
    fn regex_compile_total(pattern in "\\PC{0,40}") {
        use webfountain_sentiment::platform::Regex;
        if let Ok(re) = Regex::new(&pattern) {
            // matching must also be panic-free
            let _ = re.is_match("probe text");
            let _ = re.is_match("");
        }
    }
}
