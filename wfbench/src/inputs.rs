//! Seeded inputs: documents from the `wf-corpus` generators plus the
//! search-query and serve-request streams. Everything here is a pure
//! function of the run seed and the scale, so one seed always yields
//! byte-identical inputs (checked through [`Digest`]).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use wf_corpus::vocab::{
    zipf_sample, CAMERA_FEATURES, CAMERA_PRODUCTS, MUSIC_ARTISTS, MUSIC_FEATURES, NEG_ADJ,
    PETRO_COMPANIES, PHARMA_PRODUCTS, POS_ADJ,
};
use wf_corpus::{
    camera_reviews, music_reviews, petroleum_web, pharma_web, ReviewConfig, WebConfig,
};
use wf_platform::{RawDocument, SourceKind};

/// Corpus sizes. `Full` is what the benchmark measures; `Smoke` is a
/// seconds-long variant for the test suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    /// `WebConfig::n_docs` per web domain: 10× `WebConfig::standard()`.
    /// Each domain also yields as many background pages.
    fn web_docs(self) -> usize {
        match self {
            Scale::Full => 10 * WebConfig::standard().n_docs,
            Scale::Smoke => 30,
        }
    }

    /// Search queries issued after every review-index pass.
    pub fn search_queries(self) -> usize {
        match self {
            Scale::Full => 5000,
            Scale::Smoke => 100,
        }
    }

    /// Sentiment queries issued after every web-mine pass.
    pub fn sentiment_queries(self) -> usize {
        match self {
            Scale::Full => 1000,
            Scale::Smoke => 50,
        }
    }
}

/// Independent sub-seeds per generator, so adding a stream never shifts
/// another one.
fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Petroleum and pharmaceutical web pages, each domain's on-topic pages
/// followed by its background pages (12,000 documents at full scale).
pub fn web_docs(seed: u64, scale: Scale) -> Vec<RawDocument> {
    let config = WebConfig {
        n_docs: scale.web_docs(),
        ..WebConfig::standard()
    };
    let corpora = [
        ("petroleum", petroleum_web(sub_seed(seed, 1), &config)),
        ("pharma", pharma_web(sub_seed(seed, 2), &config)),
    ];
    let mut docs = Vec::new();
    for (domain, corpus) in corpora {
        for (i, doc) in corpus.d_plus.iter().chain(&corpus.d_minus).enumerate() {
            docs.push(RawDocument::new(
                format!("web://{domain}/{i}"),
                SourceKind::Web,
                doc.text(),
            ));
        }
    }
    docs
}

/// Camera and music reviews (D+ only), `times` × the paper's collection
/// sizes (735 documents at 1×). Every review carries a `line` metadata
/// field, a zero-padded catalogue number the range queries select on.
pub fn review_docs(seed: u64, scale: Scale, times: usize) -> Vec<RawDocument> {
    let sized = |config: ReviewConfig| ReviewConfig {
        n_plus: match scale {
            Scale::Full => config.n_plus * times,
            Scale::Smoke => 10 * times,
        },
        n_minus: 0,
        ..config
    };
    let corpora = [
        (
            "camera",
            camera_reviews(sub_seed(seed, 3), &sized(ReviewConfig::camera())),
        ),
        (
            "music",
            music_reviews(sub_seed(seed, 4), &sized(ReviewConfig::music())),
        ),
    ];
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 5));
    let mut docs = Vec::new();
    for (domain, corpus) in corpora {
        for (i, doc) in corpus.d_plus.iter().enumerate() {
            docs.push(
                RawDocument::new(
                    format!("review://{domain}/{i}"),
                    SourceKind::Web,
                    doc.text(),
                )
                .with_metadata("line", format!("{:04}", rng.random_range(0..1000u32))),
            );
        }
    }
    docs
}

/// Mode A subjects for the review corpus: every product, artist and
/// feature term.
pub fn review_subjects() -> wf_spotter::SubjectList {
    let mut builder = wf_spotter::SubjectList::builder();
    for subject in CAMERA_PRODUCTS
        .iter()
        .chain(MUSIC_ARTISTS)
        .chain(CAMERA_FEATURES)
        .chain(MUSIC_FEATURES)
    {
        builder = builder.subject(subject, [*subject]);
    }
    builder.build()
}

/// The 41 vocabulary subjects the serve workloads ask about.
pub fn serve_subjects() -> Vec<&'static str> {
    PETRO_COMPANIES
        .iter()
        .chain(PHARMA_PRODUCTS)
        .chain(CAMERA_PRODUCTS)
        .chain(MUSIC_ARTISTS)
        .copied()
        .collect()
}

/// The web-domain subjects the web-mine sentiment queries ask about.
pub fn web_subjects() -> Vec<&'static str> {
    PETRO_COMPANIES
        .iter()
        .chain(PHARMA_PRODUCTS)
        .copied()
        .collect()
}

/// Query-node kinds of the search mix, in reporting order.
pub const QUERY_KINDS: [&str; 8] = [
    "term", "and", "or", "not", "phrase", "meta", "concept", "regex",
];

/// One search query: its kind (index into [`QUERY_KINDS`]) and text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchQuery {
    pub kind: usize,
    pub text: String,
}

/// Seeded search queries over the review vocabulary. Mix (percent):
/// term 25, AND 20, OR 15, NOT 10, phrase 10, `meta:line` range 8,
/// `concept:sentiment:subject` 7, `regex:` 5.
pub fn search_queries(seed: u64, n: usize) -> Vec<SearchQuery> {
    const WEIGHTS: [u32; 8] = [25, 20, 15, 10, 10, 8, 7, 5];
    let words: Vec<String> = CAMERA_FEATURES
        .iter()
        .chain(MUSIC_FEATURES)
        .chain(CAMERA_PRODUCTS)
        .chain(POS_ADJ)
        .chain(NEG_ADJ)
        .filter(|w| !w.contains(' '))
        .map(|w| w.to_lowercase())
        .collect();
    let phrases: Vec<String> = CAMERA_FEATURES
        .iter()
        .chain(MUSIC_FEATURES)
        .chain(MUSIC_ARTISTS)
        .filter(|w| w.contains(' '))
        .map(|w| w.to_lowercase())
        .collect();
    // concept tokens cannot contain spaces in the query language
    let concepts: Vec<String> = CAMERA_PRODUCTS
        .iter()
        .chain(CAMERA_FEATURES)
        .chain(MUSIC_FEATURES)
        .filter(|w| !w.contains(' '))
        .map(|w| w.to_lowercase())
        .collect();
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 6));
    let pick = |pool: &[String], rng: &mut StdRng| pool[rng.random_range(0..pool.len())].clone();
    (0..n)
        .map(|_| {
            let mut roll = rng.random_range(0..WEIGHTS.iter().sum::<u32>());
            let kind = WEIGHTS
                .iter()
                .position(|&w| {
                    let hit = roll < w;
                    roll = roll.saturating_sub(w);
                    hit
                })
                .expect("roll is below the weight sum");
            let text = match QUERY_KINDS[kind] {
                "term" => pick(&words, &mut rng),
                "and" => format!("{} AND {}", pick(&words, &mut rng), pick(&words, &mut rng)),
                "or" => format!("{} OR {}", pick(&words, &mut rng), pick(&words, &mut rng)),
                "not" => format!(
                    "{} AND NOT {}",
                    pick(&words, &mut rng),
                    pick(&words, &mut rng)
                ),
                "phrase" => format!("\"{}\"", pick(&phrases, &mut rng)),
                "meta" => {
                    let lo = rng.random_range(0..900u32);
                    let hi = lo + rng.random_range(20..100u32);
                    format!("meta:line=[{lo:04}..{hi:04}]")
                }
                "concept" => format!("concept:sentiment:subject={}", pick(&concepts, &mut rng)),
                _ => {
                    let word = pick(&words, &mut rng);
                    let stem: String = word.chars().take(3).collect();
                    format!("regex:{stem}.*")
                }
            };
            SearchQuery { kind, text }
        })
        .collect()
}

/// Which subject distribution a request stream draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Popularity {
    /// Zipf(1.0) over a seeded ranking of the subjects.
    Zipf,
    /// Every subject equally likely.
    Uniform,
}

/// Seeded serve requests: 90% `sentiment of S`, 10% `top k p` with
/// k in 1..=10 and p one of `+ - 0`.
pub fn requests(seed: u64, subjects: &[&str], popularity: Popularity, n: usize) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 7));
    // seeded ranking: Fisher–Yates shuffle of the subject list
    let mut ranked: Vec<&str> = subjects.to_vec();
    for i in (1..ranked.len()).rev() {
        ranked.swap(i, rng.random_range(0..i + 1));
    }
    (0..n)
        .map(|_| {
            if rng.random_bool(0.9) {
                let i = match popularity {
                    Popularity::Zipf => zipf_sample(ranked.len(), rng.random()),
                    Popularity::Uniform => rng.random_range(0..ranked.len()),
                };
                format!("sentiment of {}", ranked[i])
            } else {
                let k = rng.random_range(1..11u32);
                let polarity = ["+", "-", "0"][rng.random_range(0..3usize)];
                format!("top {k} {polarity}")
            }
        })
        .collect()
}

/// FNV-1a over everything fed to it, with a separator after each item so
/// `["ab", "c"]` and `["a", "bc"]` differ.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, item: &str) {
        for byte in item.bytes().chain([0xff]) {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn add_docs(&mut self, docs: &[RawDocument]) {
        for doc in docs {
            self.add(&doc.uri);
            self.add(&doc.text);
            for (key, value) in &doc.metadata {
                self.add(key);
                self.add(value);
            }
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}
