//! The serving corpus and request mix: one fixed workload for the query
//! serving tier, shared by the `wfsm serve|timeline|profile` commands,
//! the serving-tier benches and the tests that mirror them.

/// The moods the serving corpus cycles through: two positive, two
/// negative.
pub const MOODS: [&str; 4] = [
    "takes excellent pictures",
    "has a terrible battery",
    "produces sharp images",
    "suffers from blurry output",
];

const BRANDS: [&str; 5] = ["Canon", "Nikon", "Sony", "Kodak", "Pentax"];

/// `n` one-sentence documents, five brands cycling against the four
/// moods, so the sentiment index holds several subjects with distinct
/// polarity profiles.
pub fn serving_corpus(n: usize) -> Vec<String> {
    (0..n)
        .map(|i| {
            format!(
                "{} {} in trial {i}.",
                BRANDS[i % BRANDS.len()],
                MOODS[i % MOODS.len()]
            )
        })
        .collect()
}

/// The request pool for the serve loop: popularity-skewed subject
/// queries (repeats give the cache something to hit), top-k analytics,
/// and one unknown subject keeping the error path honest.
pub fn serving_requests() -> Vec<String> {
    let mut pool = vec!["sentiment of canon"; 4];
    pool.extend(["sentiment of nikon"; 2]);
    pool.extend([
        "sentiment of sony",
        "sentiment of kodak",
        "sentiment of pentax",
        "top 3 +",
        "top 3 -",
        "sentiment of zorblax",
    ]);
    pool.into_iter().map(String::from).collect()
}
