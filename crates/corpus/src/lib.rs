//! Deterministic synthetic evaluation corpora.
//!
//! The paper evaluates on proprietary crawls (epinions/cnet/dpreview
//! product reviews; petroleum and pharmaceutical web pages; news
//! articles). Those datasets are unavailable, so this crate generates
//! synthetic equivalents that exhibit the *phenomena* the paper measures:
//! definite base noun phrases introducing features, multi-topic contrast
//! sentences, sarcasm, sparse-sentiment web pages, and the I-class
//! taxonomy — each sentence carrying gold (subject, polarity, case)
//! labels so every table can be scored exactly.
//!
//! Generation is seeded ([`rand::rngs::StdRng`]) and fully deterministic.

pub mod ambiguity;
pub mod gold;
pub mod review;
pub mod serving;
pub mod templates;
pub mod vocab;
pub mod web;

pub use ambiguity::{ambiguity_corpus, AmbiguityDoc, AMBIGUOUS_BRAND};
pub use gold::{CaseClass, Corpus, Domain, GeneratedDoc, GoldMention};
pub use review::{background_doc, camera_reviews, music_reviews, ReviewConfig, SlotWeights};
pub use serving::{serving_corpus, serving_requests};
pub use web::{petroleum_news, petroleum_web, pharma_web, WebConfig, WebMix};
