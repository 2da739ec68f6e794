//! Data acquisition: crawler and ingestors.
//!
//! "Large-scale Web content acquisition is done by Web crawlers.
//! Acquisition of other sources [...] is done by a set of ingestors that
//! handle the unique delivery method and format of each source." Our
//! ingestors normalize raw documents from any source into [`Entity`]s and
//! feed the [`DataStore`]; indexing is a separate pass over the store.

use crate::entity::{Entity, SourceKind};
use crate::faults::{self, FaultPlan, FaultStream, Halt, Narrator, Step};
use crate::store::DataStore;
use crate::telemetry::Counter;
use crate::trace::TraceSpan;
use std::collections::BTreeMap;
use std::sync::Arc;
use wf_types::{DocId, Error, Result, RetryPolicy};

/// A raw document as delivered by some source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawDocument {
    pub uri: String,
    pub source: SourceKind,
    pub text: String,
    pub metadata: BTreeMap<String, String>,
}

impl RawDocument {
    pub fn new(uri: impl Into<String>, source: SourceKind, text: impl Into<String>) -> Self {
        RawDocument {
            uri: uri.into(),
            source,
            text: text.into(),
            metadata: BTreeMap::new(),
        }
    }

    pub fn with_metadata(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.metadata.insert(key.into(), value.into());
        self
    }
}

/// Ingest statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    pub documents: usize,
    pub bytes: usize,
    /// Documents dropped after exhausting retries against injected faults.
    pub failed: usize,
    /// Retries performed against transient injected faults.
    pub retries: u64,
}

/// Ingest-path instruments, mirroring [`IngestStats`] into the store's
/// telemetry registry (DESIGN.md §8).
struct IngestMetrics {
    documents: Arc<Counter>,
    bytes: Arc<Counter>,
    failed: Arc<Counter>,
    retries: Arc<Counter>,
}

impl IngestMetrics {
    fn resolve(store: &DataStore) -> Self {
        let tele = store.telemetry();
        IngestMetrics {
            documents: tele.counter("ingest.documents"),
            bytes: tele.counter("ingest.bytes"),
            failed: tele.counter("ingest.failed"),
            retries: tele.counter("ingest.retries"),
        }
    }
}

/// Normalizes raw documents into the store.
pub struct Ingestor<'a> {
    store: &'a DataStore,
    stats: IngestStats,
    metrics: IngestMetrics,
    faults: Option<FaultStream>,
    retry: RetryPolicy,
}

impl<'a> Ingestor<'a> {
    pub fn new(store: &'a DataStore) -> Self {
        Ingestor {
            store,
            stats: IngestStats::default(),
            metrics: IngestMetrics::resolve(store),
            faults: None,
            retry: RetryPolicy::none(),
        }
    }

    /// Subject every ingest to the plan's `"ingest"` fault stream, retried
    /// per `retry` ([`Ingestor::try_ingest`] then becomes fallible).
    pub fn with_faults(mut self, plan: &FaultPlan, retry: RetryPolicy) -> Self {
        self.faults = Some(plan.stream("ingest"));
        self.retry = retry;
        self
    }

    /// Ingests one document; returns its assigned id. Infallible: faults
    /// are not consulted on this path (see [`Ingestor::try_ingest`]).
    pub fn ingest(&mut self, doc: RawDocument) -> DocId {
        self.stats.documents += 1;
        self.stats.bytes += doc.text.len();
        self.metrics.documents.inc();
        self.metrics.bytes.add(doc.text.len() as u64);
        self.store_doc(doc)
    }

    /// Ingests one document under the configured fault stream: transient
    /// faults (node blip, store conflict) are retried with backoff; a
    /// terminal fault or exhausted budget drops the document and counts it
    /// in `stats().failed`.
    ///
    /// Injected faults, retries, timeouts and exhausted retries are
    /// recorded under the `ingest` log target. With a `parent` span the
    /// ingest is a `doc:<seq>` child span (`seq` is this ingestor's
    /// running document count) that carries them as events, and the
    /// parent span advances by the simulated time the ingest consumed;
    /// without one the ingest is a root operation on the clock.
    pub fn try_ingest(
        &mut self,
        doc: RawDocument,
        parent: Option<&mut TraceSpan>,
    ) -> Result<DocId> {
        let seq = self.stats.documents;
        let mut span = parent.as_deref().map(|p| p.child(format!("doc:{seq}")));
        let result = 'ingest: {
            let Some(stream) = self.faults.as_mut() else {
                break 'ingest Ok(self.ingest(doc));
            };
            self.stats.documents += 1;
            self.stats.bytes += doc.text.len();
            self.metrics.documents.inc();
            self.metrics.bytes.add(doc.text.len() as u64);
            let step = |step| {
                if let Step::Backoff { .. } = step {
                    self.stats.retries += 1;
                    self.metrics.retries.inc();
                }
            };
            let tele = self.store.telemetry();
            let mut narrator = Narrator::new(tele, "ingest", span.as_mut(), None);
            let err = match faults::drive(
                Some(stream),
                &self.retry,
                &mut narrator,
                step,
                faults::admit,
            ) {
                Ok(()) => break 'ingest Ok(self.store_doc(doc)),
                Err(Halt::Timeout { .. }) => Error::Timeout(format!(
                    "ingest of {} exceeded {} sim ms",
                    doc.uri, self.retry.timeout_budget_ms
                )),
                Err(Halt::Failed(err)) if err.is_transient() => Error::Unavailable(format!(
                    "ingest of {} failed after {} retries",
                    doc.uri, self.retry.max_retries
                )),
                Err(Halt::Failed(_)) => {
                    Error::Service(format!("injected ingest error for {}", doc.uri))
                }
            };
            self.stats.failed += 1;
            self.metrics.failed.inc();
            Err(err)
        };
        if let (Some(mut span), Some(parent)) = (span, parent) {
            match &result {
                Ok(id) => span.attr("id", id.0.to_string()),
                Err(e) => span.event(format!("error: {e}")),
            }
            parent.advance(span.finish());
        }
        result
    }

    fn store_doc(&self, doc: RawDocument) -> DocId {
        let mut entity = Entity::new(doc.uri, doc.source, doc.text);
        entity.metadata = doc.metadata;
        self.store.insert(entity)
    }

    /// Ingests a batch; returns assigned ids in order (documents dropped
    /// by injected faults are skipped).
    pub fn ingest_batch<I: IntoIterator<Item = RawDocument>>(&mut self, docs: I) -> Vec<DocId> {
        docs.into_iter()
            .filter_map(|d| self.try_ingest(d, None).ok())
            .collect()
    }

    /// [`Ingestor::ingest_batch`] under an `ingest.batch` span: one
    /// `doc:<seq>` child per document, ingested sequentially on the
    /// simulated clock.
    pub fn ingest_batch_traced<I: IntoIterator<Item = RawDocument>>(
        &mut self,
        docs: I,
        parent: &mut TraceSpan,
    ) -> Vec<DocId> {
        let mut span = parent.child("ingest.batch");
        let ids: Vec<DocId> = docs
            .into_iter()
            .filter_map(|d| self.try_ingest(d, Some(&mut span)).ok())
            .collect();
        span.attr("stored", ids.len().to_string());
        span.attr("documents", self.stats.documents.to_string());
        parent.advance(span.finish());
        ids
    }

    /// Running statistics.
    pub fn stats(&self) -> IngestStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ingest_assigns_ids_and_counts() {
        let store = DataStore::new(2).unwrap();
        let mut ing = Ingestor::new(&store);
        let ids = ing.ingest_batch(vec![
            RawDocument::new("u1", SourceKind::Web, "hello world"),
            RawDocument::new("u2", SourceKind::News, "breaking news"),
        ]);
        assert_eq!(ids, vec![DocId(0), DocId(1)]);
        assert_eq!(ing.stats().documents, 2);
        assert_eq!(
            ing.stats().bytes,
            "hello world".len() + "breaking news".len()
        );
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn metadata_flows_through() {
        let store = DataStore::single();
        let mut ing = Ingestor::new(&store);
        let id = ing.ingest(
            RawDocument::new("u", SourceKind::Web, "text").with_metadata("domain", "camera"),
        );
        assert_eq!(
            store.get(id).unwrap().metadata.get("domain").unwrap(),
            "camera"
        );
    }

    #[test]
    fn faulted_ingest_retries_and_counts_drops() {
        use crate::faults::FaultRates;
        let store = DataStore::new(2).unwrap();
        let plan = FaultPlan::new(42).with_rates(FaultRates {
            store_conflict: 0.4,
            service_error: 0.1,
            ..FaultRates::default()
        });
        let retry = RetryPolicy {
            max_retries: 5,
            base_backoff_ms: 1,
            max_backoff_ms: 8,
            timeout_budget_ms: 10_000,
        };
        let mut ing = Ingestor::new(&store).with_faults(&plan, retry);
        let docs: Vec<RawDocument> = (0..50)
            .map(|i| RawDocument::new(format!("u{i}"), SourceKind::Web, "text"))
            .collect();
        let ids = ing.ingest_batch(docs);
        let stats = ing.stats();
        assert_eq!(stats.documents, 50);
        assert_eq!(ids.len() + stats.failed, 50, "every doc stored or counted");
        assert_eq!(store.len(), ids.len());
        assert!(stats.retries > 0, "a 40% conflict rate must retry");
    }

    #[test]
    fn ingest_stops_when_a_backoff_spends_the_budget() {
        use crate::faults::FaultRates;
        let store = DataStore::single();
        let plan = FaultPlan::new(1).with_rates(FaultRates {
            store_conflict: 1.0,
            ..FaultRates::default()
        });
        // draw 1 (1 ms) + backoff 100 + draw 2 (1 ms) + backoff 200 = 302
        let retry = RetryPolicy {
            max_retries: 5,
            base_backoff_ms: 100,
            max_backoff_ms: 1_000,
            timeout_budget_ms: 300,
        };
        let mut ing = Ingestor::new(&store).with_faults(&plan, retry);
        let mut root = store.telemetry().trace_root("op");
        let err = ing
            .try_ingest(RawDocument::new("u", SourceKind::Web, "x"), Some(&mut root))
            .unwrap_err();
        assert!(matches!(err, Error::Timeout(_)), "{err}");
        assert_eq!(root.elapsed_sim_ms(), 302);
        root.finish();
        let traces = store.telemetry().recorder().last_traces(1);
        let doc = traces[0].1[0].find("op/doc:0").expect("doc span");
        let faults = doc.events.iter().filter(|e| e.label.starts_with("fault:"));
        assert_eq!(faults.count(), 2, "no draw after the spent backoff");
        assert_eq!(ing.stats().retries, 2);
        assert_eq!(ing.stats().failed, 1);
        assert_eq!(store.len(), 0);
    }

    #[test]
    fn faultless_try_ingest_never_fails() {
        let store = DataStore::single();
        let mut ing = Ingestor::new(&store);
        assert_eq!(
            ing.try_ingest(RawDocument::new("u", SourceKind::Web, "x"), None)
                .unwrap(),
            DocId(0)
        );
        assert_eq!(ing.stats().failed, 0);
    }

    #[test]
    fn ingest_is_instrumented() {
        use crate::faults::FaultRates;
        let store = DataStore::new(2).unwrap();
        let plan = FaultPlan::new(42).with_rates(FaultRates {
            store_conflict: 0.4,
            service_error: 0.1,
            ..FaultRates::default()
        });
        let retry = RetryPolicy {
            max_retries: 5,
            base_backoff_ms: 1,
            max_backoff_ms: 8,
            timeout_budget_ms: 10_000,
        };
        let mut ing = Ingestor::new(&store).with_faults(&plan, retry);
        for i in 0..50 {
            let _ = ing.try_ingest(
                RawDocument::new(format!("u{i}"), SourceKind::Web, "text"),
                None,
            );
        }
        let stats = ing.stats();
        let snap = store.telemetry().snapshot();
        assert_eq!(snap.counter("ingest.documents"), stats.documents as u64);
        assert_eq!(snap.counter("ingest.bytes"), stats.bytes as u64);
        assert_eq!(snap.counter("ingest.failed"), stats.failed as u64);
        assert_eq!(snap.counter("ingest.retries"), stats.retries);
    }

    #[test]
    fn traced_batch_ingest_builds_sequential_doc_spans() {
        use crate::faults::FaultRates;
        let store = DataStore::new(2).unwrap();
        let tele = store.telemetry().clone();
        let plan = FaultPlan::new(42).with_rates(FaultRates {
            store_conflict: 0.4,
            service_error: 0.1,
            ..FaultRates::default()
        });
        let retry = RetryPolicy {
            max_retries: 5,
            base_backoff_ms: 1,
            max_backoff_ms: 8,
            timeout_budget_ms: 10_000,
        };
        let mut ing = Ingestor::new(&store).with_faults(&plan, retry);
        let mut root = tele.trace_root("op");
        let docs: Vec<RawDocument> = (0..20)
            .map(|i| RawDocument::new(format!("u{i}"), SourceKind::Web, "text"))
            .collect();
        let ids = ing.ingest_batch_traced(docs, &mut root);
        let elapsed = root.elapsed_sim_ms();
        root.finish();
        let stats = ing.stats();

        let traces = tele.recorder().last_traces(1);
        let batch = traces[0].1[0].find("op/ingest.batch").expect("batch span");
        assert_eq!(batch.children.len(), 20, "one span per document");
        assert_eq!(batch.duration_sim_ms, elapsed, "batch time flows upward");
        for pair in batch.children.windows(2) {
            assert_eq!(
                pair[1].start_sim_ms,
                pair[0].end_sim_ms(),
                "docs ingest sequentially on the simulated clock"
            );
        }
        let retry_events: u64 = batch
            .children
            .iter()
            .flat_map(|c| &c.events)
            .filter(|e| e.label.starts_with("retry:"))
            .count() as u64;
        assert_eq!(retry_events, stats.retries, "every retry marked on a span");
        assert_eq!(batch.attrs.get("stored").unwrap(), &ids.len().to_string());
    }
}
