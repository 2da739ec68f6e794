//! Microbenchmarks for the WebFountain platform substrate: store,
//! indexer, query types, spotter automaton, regex engine, miner pipeline
//! parallelism.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use wf_platform::{
    DataStore, Entity, EntityMiner, Indexer, MinerPipeline, Query, Regex, RunOpts, SourceKind,
};
use wf_spotter::{AhoCorasickBuilder, Spotter, SubjectList};
use wf_types::{DocId, Result};

fn sample_entity(i: usize) -> Entity {
    Entity::new(
        format!("uri://doc/{i}"),
        SourceKind::Web,
        format!(
            "Document number {i} discusses the camera battery and the \
             excellent picture quality of model NR{i}."
        ),
    )
    .with_metadata(
        "domain",
        if i.is_multiple_of(2) {
            "camera"
        } else {
            "music"
        },
    )
}

fn bench_store(c: &mut Criterion) {
    let mut group = c.benchmark_group("store");
    group.bench_function("insert", |b| {
        let store = DataStore::new(4).unwrap();
        let mut i = 0usize;
        b.iter(|| {
            store.insert(sample_entity(i));
            i += 1;
        })
    });
    let store = DataStore::new(4).unwrap();
    let ids: Vec<DocId> = (0..1000).map(|i| store.insert(sample_entity(i))).collect();
    group.bench_function("get", |b| {
        let mut k = 0usize;
        b.iter(|| {
            let id = ids[k % ids.len()];
            k += 1;
            store.get(id).unwrap()
        })
    });
    group.bench_function("update", |b| {
        let mut k = 0usize;
        b.iter(|| {
            let id = ids[k % ids.len()];
            k += 1;
            store
                .update(id, |e| {
                    e.metadata.insert("touched".into(), k.to_string());
                })
                .unwrap()
        })
    });
    group.finish();
}

fn indexed_corpus(n: usize) -> Indexer {
    let indexer = Indexer::new();
    for i in 0..n {
        let mut e = sample_entity(i);
        e.id = DocId(i as u64);
        indexer.index_entity(&e);
    }
    indexer
}

fn bench_index(c: &mut Criterion) {
    let mut group = c.benchmark_group("index");
    group.bench_function("index_entity", |b| {
        let indexer = Indexer::new();
        let mut i = 0usize;
        b.iter(|| {
            let mut e = sample_entity(i);
            e.id = DocId(i as u64);
            indexer.index_entity(&e);
            i += 1;
        })
    });
    let indexer = indexed_corpus(2000);
    let queries: Vec<(&str, Query)> = vec![
        ("term", Query::Term("camera".into())),
        (
            "phrase",
            Query::Phrase(vec!["picture".into(), "quality".into()]),
        ),
        (
            "and",
            Query::And(vec![
                Query::Term("camera".into()),
                Query::MetaEquals("domain".into(), "camera".into()),
            ]),
        ),
        (
            "or_not",
            Query::Or(vec![
                Query::Term("battery".into()),
                Query::Not(Box::new(Query::Term("camera".into()))),
            ]),
        ),
        ("regex", Query::Regex("nr[0-9]+".into())),
    ];
    for (name, q) in &queries {
        group.bench_with_input(BenchmarkId::new("query", *name), q, |b, q| {
            b.iter(|| indexer.query(q).unwrap())
        });
    }
    group.finish();
}

fn bench_spotter(c: &mut Criterion) {
    let mut group = c.benchmark_group("spotter");
    // automaton with many patterns
    let mut builder = AhoCorasickBuilder::new();
    for i in 0..5000 {
        builder.add_pattern(format!("term{i}"));
    }
    let ac = builder.build();
    let haystack = "term42 interleaved with term4999 and other text ".repeat(20);
    group.throughput(Throughput::Bytes(haystack.len() as u64));
    group.bench_function("aho_corasick/5000_patterns", |b| {
        b.iter(|| ac.find_all(haystack.as_bytes()))
    });

    let mut subjects = SubjectList::builder();
    for p in wf_corpus::vocab::CAMERA_PRODUCTS {
        subjects = subjects.subject(p, [p.to_string(), format!("{p} camera")]);
    }
    let subjects = subjects.build();
    let spotter = Spotter::new(&subjects);
    let text = "The Canon camera and the Nikon both beat the Sony in tests. ".repeat(10);
    group.throughput(Throughput::Bytes(text.len() as u64));
    group.bench_function("spot/products", |b| b.iter(|| spotter.spot(&text)));
    group.finish();
}

fn bench_regex(c: &mut Criterion) {
    let mut group = c.benchmark_group("regex");
    let patterns = [
        ("literal", "excellent"),
        ("class_plus", "nr[0-9]+"),
        ("alternation", "(cat|dog|bird)s?"),
        ("wildcard", "exc.*ent"),
    ];
    for (name, pattern) in patterns {
        let re = Regex::new(pattern).unwrap();
        group.bench_function(BenchmarkId::new("is_match", name), |b| {
            b.iter(|| re.is_match("excellent") | re.is_match("nr70") | re.is_match("dogs"))
        });
    }
    group.bench_function("compile", |b| {
        b.iter(|| Regex::new("(ab|cd)+[x-z]?.*").unwrap())
    });
    group.finish();
}

struct NoopMiner;
impl EntityMiner for NoopMiner {
    fn name(&self) -> &str {
        "noop"
    }
    fn process(&self, entity: &mut Entity) -> Result<()> {
        entity.metadata.insert("seen".into(), "1".into());
        Ok(())
    }
}

fn bench_pipeline_parallelism(c: &mut Criterion) {
    let mut group = c.benchmark_group("miner_pipeline");
    group.sample_size(20);
    for shards in [1usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("noop_1000_docs", shards),
            &shards,
            |b, &shards| {
                let store = DataStore::new(shards).unwrap();
                for i in 0..1000 {
                    store.insert(sample_entity(i));
                }
                let pipeline = MinerPipeline::new().add(Box::new(NoopMiner));
                b.iter(|| pipeline.run(&store, RunOpts::default(), None))
            },
        );
    }
    group.finish();
}

fn bench_degraded_pipeline(c: &mut Criterion) {
    use wf_platform::{ChaosCluster, NodeHealth};
    use wf_types::NodeId;
    let mut group = c.benchmark_group("miner_pipeline_degraded");
    group.sample_size(20);
    // same 1000-doc noop pipeline as above, but under fault injection —
    // the delta against miner_pipeline/noop_1000_docs/4 is the price of
    // retries, failover and the simulated-clock accounting
    for (label, fail_rate) in [
        ("fault_free", 0.0),
        ("chaos_5pct", 0.05),
        ("chaos_20pct", 0.2),
    ] {
        group.bench_with_input(
            BenchmarkId::new("noop_1000_docs_4_shards", label),
            &fail_rate,
            |b, &fail_rate| {
                let cluster = ChaosCluster::new(4, 1000)
                    .chaos(0xC0FFEE, fail_rate)
                    .degrade(NodeId(1))
                    .build()
                    .unwrap();
                let pipeline = MinerPipeline::new().add(Box::new(NoopMiner));
                b.iter(|| cluster.run_pipeline(&pipeline))
            },
        );
    }
    // one node down: every fourth shard fails over to a healthy node
    group.bench_function("noop_1000_docs_4_shards/one_node_down", |b| {
        let cluster = ChaosCluster::new(4, 1000).build().unwrap();
        cluster.set_health(NodeId(2), NodeHealth::Down);
        let pipeline = MinerPipeline::new().add(Box::new(NoopMiner));
        b.iter(|| cluster.run_pipeline(&pipeline))
    });
    group.finish();
}

fn bench_corpus_miners(c: &mut Criterion) {
    use wf_platform::{cluster_documents, corpus_stats, find_duplicates, DedupConfig};
    let mut group = c.benchmark_group("corpus_miners");
    group.sample_size(20);
    let store = DataStore::new(2).unwrap();
    for i in 0..200 {
        let body = if i % 3 == 0 {
            format!("camera lens battery zoom pictures in review {}", i / 3)
        } else {
            format!("song album guitar lyrics melody in review {}", i / 3)
        };
        store.insert(Entity::new(
            format!("http://site-{}.example/p{i}", i % 5),
            SourceKind::Web,
            body,
        ));
    }
    group.bench_function("dedup_minhash/200_docs", |b| {
        b.iter(|| find_duplicates(&store, &DedupConfig::default()))
    });
    group.bench_function("kmeans/200_docs_k2", |b| {
        b.iter(|| cluster_documents(&store, 2, 10))
    });
    group.bench_function("stats/200_docs", |b| b.iter(|| corpus_stats(&store, 10)));
    group.finish();
}

fn bench_mode_b_latency(c: &mut Criterion) {
    use wf_corpus::{pharma_web, WebConfig};
    use wf_platform::{Cluster, Ingestor, RawDocument};
    use wf_sentiment::{AdhocSentimentMiner, SentimentQueryService};
    use wf_types::Polarity;
    let mut group = c.benchmark_group("mode_b_latency");
    group.sample_size(10);
    // the paper's motivating comparison: offline index vs run-time analysis
    let corpus = pharma_web(
        3,
        &WebConfig {
            n_docs: 60,
            ..WebConfig::standard()
        },
    );
    let cluster = Cluster::new(2).unwrap();
    {
        let mut ing = Ingestor::new(cluster.store());
        for (i, doc) in corpus.d_plus.iter().enumerate() {
            ing.ingest(RawDocument::new(
                format!("u{i}"),
                SourceKind::Web,
                doc.text(),
            ));
        }
    }
    cluster.run_pipeline(&MinerPipeline::new().add(Box::new(AdhocSentimentMiner::new())));
    cluster.rebuild_index();
    group.bench_function("indexed_query", |b| {
        b.iter(|| {
            SentimentQueryService::query(
                cluster.indexer(),
                cluster.store(),
                "Veloxin",
                Some(Polarity::Negative),
            )
            .unwrap()
        })
    });
    group.bench_function("runtime_analysis_query", |b| {
        b.iter(|| {
            SentimentQueryService::query_runtime(
                cluster.store(),
                "Veloxin",
                Some(Polarity::Negative),
            )
            .unwrap()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_store,
    bench_index,
    bench_spotter,
    bench_regex,
    bench_pipeline_parallelism,
    bench_degraded_pipeline,
    bench_corpus_miners,
    bench_mode_b_latency
);
criterion_main!(benches);
