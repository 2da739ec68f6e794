//! The sentiment index as a query-time serving backend.
//!
//! Bridges the precomputed [`ShardedSentimentIndex`] into
//! `wf_platform::serving`: a [`SentimentServingBackend`] answers the two
//! product queries —
//!
//! - `sentiment of <subject>` → the subject's polarity tallies;
//! - `top <k> <+|-|0>` → the k subjects with the most mentions of that
//!   polarity;
//!
//! as canonical JSON bodies (pure functions of the index content, so a
//! serving-cache hit is byte-identical to recomputation). Both read the
//! index shards' per-subject tallies, so neither touches a posting.
//! Simulated cost still charges the postings an answer covers (a
//! subject's postings; every posting for top-k), as the postings scans
//! these tallies replaced did, so bigger subjects cost more — exactly the
//! shape a latency SLO wants to watch — and the cost model did not move.
//!
//! Each index shard carries a [`NodeHealth`]; both query forms fan out
//! over every shard (a subject's postings may live anywhere), so one
//! `Down` shard makes uncached queries fail with
//! [`Error::Unavailable`] while the serving tier's LRU cache keeps
//! answering popular queries — the node-loss chaos scenario in
//! `tests/serving.rs`.

use crate::sindex::ShardedSentimentIndex;
use serde_json::Value;
use std::collections::BTreeMap;
use std::sync::Mutex;
use wf_platform::{NodeHealth, ServedAnswer, ServingBackend, TraceSpan};
use wf_types::{Error, Polarity, Result};

/// Simulated cost charged per degraded shard consulted by a query.
pub const DEGRADED_SHARD_PENALTY_MS: u64 = 25;

/// A parsed serving request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeRequest {
    /// `sentiment of <subject>`
    Subject(String),
    /// `top <k> <+|-|0>`
    TopK(usize, Polarity),
}

impl ServeRequest {
    /// Parses the request grammar; rejects anything else with
    /// [`Error::Query`].
    pub fn parse(request: &str) -> Result<ServeRequest> {
        let request = request.trim();
        if let Some(subject) = request.strip_prefix("sentiment of ") {
            let subject = subject.trim().to_lowercase();
            if subject.is_empty() {
                return Err(Error::Query("empty subject in sentiment query".into()));
            }
            return Ok(ServeRequest::Subject(subject));
        }
        let tokens: Vec<&str> = request.split_whitespace().collect();
        if let ["top", k, polarity] = tokens.as_slice() {
            let k: usize = k
                .parse()
                .map_err(|_| Error::Query(format!("bad top-k count {k:?}")))?;
            if k == 0 {
                return Err(Error::Query("top-k count must be positive".into()));
            }
            let polarity = Polarity::parse(polarity)
                .ok_or_else(|| Error::Query(format!("bad polarity {polarity:?} (use + - 0)")))?;
            return Ok(ServeRequest::TopK(k, polarity));
        }
        Err(Error::Query(format!(
            "unrecognized request {request:?} (use 'sentiment of X' or 'top K +')"
        )))
    }
}

/// The serving tier's view of the sentiment index plus per-shard health.
pub struct SentimentServingBackend {
    index: ShardedSentimentIndex,
    health: Mutex<Vec<NodeHealth>>,
}

impl SentimentServingBackend {
    pub fn new(index: ShardedSentimentIndex) -> Self {
        let shards = index.shard_count();
        SentimentServingBackend {
            index,
            health: Mutex::new(vec![NodeHealth::Up; shards]),
        }
    }

    pub fn index(&self) -> &ShardedSentimentIndex {
        &self.index
    }

    /// Marks one index shard up/degraded/down — callable mid-run from a
    /// serve-loop trigger (node loss, slow shard).
    pub fn set_shard_health(&self, shard: usize, health: NodeHealth) {
        let mut guard = self.health.lock().expect("health lock");
        if shard < guard.len() {
            guard[shard] = health;
        }
    }

    /// (down, degraded) shard counts at this instant.
    fn shard_weather(&self) -> (usize, usize) {
        let guard = self.health.lock().expect("health lock");
        let down = guard.iter().filter(|h| **h == NodeHealth::Down).count();
        let degraded = guard.iter().filter(|h| **h == NodeHealth::Degraded).count();
        (down, degraded)
    }

    fn subject_answer(&self, subject: &str) -> Result<(Value, Vec<u64>)> {
        let summary = self.index.summary(subject).ok_or_else(|| {
            Error::NotFound(format!("subject {subject:?} not in sentiment index"))
        })?;
        let per_shard = (0..self.index.shard_count())
            .map(|i| self.index.shard(i).subject_posting_count(subject) as u64)
            .collect();
        let mut o = BTreeMap::new();
        o.insert("negative".to_string(), Value::from(summary.negative));
        o.insert("net".to_string(), Value::from(summary.net()));
        o.insert("neutral".to_string(), Value::from(summary.neutral));
        o.insert("positive".to_string(), Value::from(summary.positive));
        o.insert("postings".to_string(), Value::from(summary.total()));
        o.insert("subject".to_string(), Value::from(subject));
        Ok((Value::Object(o), per_shard))
    }

    /// Shared query resolution for the traced and untraced execute, so
    /// their error paths (`Query`/`Unavailable`/`NotFound`) are identical.
    fn resolve(&self, request: &str) -> Result<Resolved> {
        let parsed = ServeRequest::parse(request)?;
        let (down, degraded) = self.shard_weather();
        // both query forms fan out over every shard
        if down > 0 {
            return Err(Error::Unavailable(format!(
                "{down} sentiment index shard(s) down"
            )));
        }
        let (body, per_shard) = match parsed {
            ServeRequest::Subject(subject) => self.subject_answer(&subject)?,
            ServeRequest::TopK(k, polarity) => self.top_k_answer(k, polarity),
        };
        Ok(Resolved {
            body: serde_json::to_string(&body).expect("Value renders infallibly"),
            per_shard,
            degraded,
        })
    }

    fn top_k_answer(&self, k: usize, polarity: Polarity) -> (Value, Vec<u64>) {
        let ranked = self.index.top_k(k, polarity);
        let top: Vec<Value> = ranked
            .iter()
            .map(|s| {
                let mut o = BTreeMap::new();
                o.insert("count".to_string(), Value::from(s.count(polarity)));
                o.insert("net".to_string(), Value::from(s.net()));
                o.insert("subject".to_string(), Value::from(s.subject.as_str()));
                Value::Object(o)
            })
            .collect();
        let mut o = BTreeMap::new();
        o.insert("polarity".to_string(), Value::from(polarity.to_string()));
        o.insert("top".to_string(), Value::Array(top));
        // charged as the postings scan the tallies replaced: every posting
        // on every shard
        let per_shard = (0..self.index.shard_count())
            .map(|i| self.index.shard(i).posting_count() as u64)
            .collect();
        (Value::Object(o), per_shard)
    }
}

/// One resolved request: the rendered body, the postings each shard
/// holds for it in shard order, and how many shards were degraded.
struct Resolved {
    body: String,
    per_shard: Vec<u64>,
    degraded: usize,
}

impl Resolved {
    /// The postings the answer covers, summed over shards.
    fn scanned(&self) -> u64 {
        self.per_shard.iter().sum()
    }

    /// The cost model: one simulated millisecond per posting covered,
    /// plus the penalty per degraded shard.
    fn cost_sim_ms(&self) -> u64 {
        self.scanned() + self.degraded as u64 * DEGRADED_SHARD_PENALTY_MS
    }
}

impl ServingBackend for SentimentServingBackend {
    fn execute(&self, request: &str) -> Result<ServedAnswer> {
        let resolved = self.resolve(request)?;
        Ok(ServedAnswer {
            cost_sim_ms: resolved.cost_sim_ms(),
            body: resolved.body,
        })
    }

    /// Same answer and cost as [`ServingBackend::execute`], with the cost
    /// attributed to stage spans: `shard_fanout` carries the per-shard
    /// postings count (plus the degraded-shard penalty), `postings_merge`
    /// the cross-shard combine (free in the cost model; recorded for
    /// count).
    fn execute_traced(&self, request: &str, span: &mut TraceSpan) -> Result<ServedAnswer> {
        let resolved = self.resolve(request)?;
        let (scanned, cost_sim_ms) = (resolved.scanned(), resolved.cost_sim_ms());
        let mut fanout = span.child("shard_fanout");
        fanout.attr("shards", self.index.shard_count().to_string());
        fanout.attr("scanned", scanned.to_string());
        fanout.attr(
            "per_shard",
            resolved
                .per_shard
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(","),
        );
        if resolved.degraded > 0 {
            fanout.attr("degraded", resolved.degraded.to_string());
        }
        fanout.advance(cost_sim_ms);
        fanout.finish();
        span.advance(cost_sim_ms);
        let mut merge = span.child("postings_merge");
        merge.attr("postings", scanned.to_string());
        merge.finish();
        Ok(ServedAnswer {
            body: resolved.body,
            cost_sim_ms,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wf_platform::{Annotation, DataStore, Entity, SourceKind};
    use wf_types::Span;

    fn backend() -> SentimentServingBackend {
        let store = DataStore::new(2).unwrap();
        let doc = |marks: &[(&str, Polarity)]| {
            let text = "0123456789".repeat(marks.len());
            let mut e = Entity::new("uri", SourceKind::Web, &text);
            for (i, (subject, polarity)) in marks.iter().enumerate() {
                e.annotations.push(
                    Annotation::new("sentiment", Span::new(i * 10, i * 10 + 10))
                        .with_attr("subject", subject.to_string())
                        .with_attr("polarity", polarity.to_string()),
                );
            }
            store.insert(e);
        };
        doc(&[("canon", Polarity::Positive), ("nikon", Polarity::Negative)]);
        doc(&[("canon", Polarity::Positive)]);
        doc(&[("canon", Polarity::Negative), ("nikon", Polarity::Neutral)]);
        SentimentServingBackend::new(ShardedSentimentIndex::build_from_store(&store))
    }

    #[test]
    fn parses_the_request_grammar() {
        assert_eq!(
            ServeRequest::parse("sentiment of Canon").unwrap(),
            ServeRequest::Subject("canon".into())
        );
        assert_eq!(
            ServeRequest::parse("top 3 +").unwrap(),
            ServeRequest::TopK(3, Polarity::Positive)
        );
        assert!(matches!(
            ServeRequest::parse("sentiment of "),
            Err(Error::Query(_))
        ));
        assert!(matches!(
            ServeRequest::parse("top 0 +"),
            Err(Error::Query(_))
        ));
        assert!(matches!(
            ServeRequest::parse("top x +"),
            Err(Error::Query(_))
        ));
        assert!(matches!(
            ServeRequest::parse("top 3 ?"),
            Err(Error::Query(_))
        ));
        assert!(matches!(
            ServeRequest::parse("frobnicate"),
            Err(Error::Query(_))
        ));
    }

    #[test]
    fn subject_answer_is_canonical_json() {
        let backend = backend();
        let a = backend.execute("sentiment of canon").unwrap();
        let b = backend.execute("sentiment of Canon").unwrap();
        assert_eq!(a.body, b.body, "case-insensitive and canonical");
        assert!(a.body.contains("\"positive\":2"), "{}", a.body);
        assert!(a.body.contains("\"negative\":1"), "{}", a.body);
        assert!(a.body.contains("\"net\":1"), "{}", a.body);
        assert_eq!(a.cost_sim_ms, 3, "cost follows postings scanned");
    }

    #[test]
    fn unknown_subject_is_not_found() {
        let err = backend().execute("sentiment of pentax").unwrap_err();
        assert!(matches!(err, Error::NotFound(_)), "{err}");
    }

    #[test]
    fn top_k_answer_ranks_subjects() {
        let a = backend().execute("top 2 +").unwrap();
        assert!(a.body.contains("\"polarity\":\"+\""), "{}", a.body);
        let canon = a.body.find("canon").unwrap();
        let nikon = a.body.find("nikon").unwrap();
        assert!(canon < nikon, "canon leads on positives: {}", a.body);
    }

    #[test]
    fn down_shard_makes_queries_unavailable() {
        let backend = backend();
        backend.set_shard_health(1, NodeHealth::Down);
        let err = backend.execute("sentiment of canon").unwrap_err();
        assert!(matches!(err, Error::Unavailable(_)), "{err}");
        assert!(err.is_transient());
        backend.set_shard_health(1, NodeHealth::Up);
        assert!(backend.execute("sentiment of canon").is_ok());
    }

    #[test]
    fn degraded_shard_slows_queries() {
        let backend = backend();
        let healthy = backend.execute("sentiment of canon").unwrap();
        backend.set_shard_health(0, NodeHealth::Degraded);
        let degraded = backend.execute("sentiment of canon").unwrap();
        assert_eq!(
            degraded.body, healthy.body,
            "degradation never changes bytes"
        );
        assert_eq!(
            degraded.cost_sim_ms,
            healthy.cost_sim_ms + DEGRADED_SHARD_PENALTY_MS
        );
    }
}
