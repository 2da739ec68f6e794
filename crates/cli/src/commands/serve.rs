//! Commands over the serving workload or an observed workload run:
//! `serve`, `timeline`, `profile` and `logs`.

use super::*;

/// The options [`parse_serve_loop`] reads.
pub(super) const LOOP: &[&str] = &["seed", "clients", "qps", "requests", "cache", "queue"];

/// The options [`observed_workload`] reads besides the chaos pair and the
/// serve-loop options.
pub(super) const OBSERVED: &[&str] = &["workload", "interval", "docs"];

/// `serve`'s one-shot modes build the workload without the loop or the
/// chaos options, and only `--top` reads `--polarity`.
pub(super) const MODES: &[Mode] = &[
    Mode {
        when: When::Given("subject"),
        unread: &[LOOP, CHAOS, &["top", "polarity"]],
    },
    Mode {
        when: When::Given("top"),
        unread: &[LOOP, CHAOS],
    },
    Mode {
        when: When::Absent("top"),
        unread: &[&["polarity"]],
    },
];

/// `--workload mine` runs no serve loop.
pub(super) const MINE_WORKLOAD: &[Mode] = &[Mode {
    when: When::Is("workload", "mine"),
    unread: &[LOOP],
}];

/// [`wf_corpus::serving_corpus`] as raw documents, the corpus behind
/// `serve` and the observed workloads of `timeline`, `profile` and `logs`.
fn serving_docs(n: usize) -> Vec<RawDocument> {
    wf_corpus::serving_corpus(n)
        .into_iter()
        .enumerate()
        .map(|(i, text)| RawDocument::new(format!("serve://doc{i}"), SourceKind::Web, text))
        .collect()
}

/// Parses the serve-loop flags (`--seed --clients --qps --requests
/// --cache --queue`) shared by `serve` and `timeline|profile|logs
/// --workload serve`.
fn parse_serve_loop(args: &ParsedArgs) -> Result<ServingConfig, String> {
    Ok(ServingConfig {
        seed: args.positive_or("seed", 20050405)?,
        clients: args.positive_or("clients", 8)?,
        qps: args.positive_or("qps", 200)?,
        requests: args.positive_or("requests", 400)?,
        cache_capacity: args.parse_or("cache", 64)?,
        queue_capacity: args.positive_or("queue", 32)?,
        ..ServingConfig::default()
    })
}

/// The serving workload behind `serve` and `timeline|profile|logs
/// --workload serve`: the serving corpus ingested and mined on a
/// simulated 4-node cluster, and the sharded sentiment index built from
/// the mined store behind the serving backend.
struct ServeWorkload {
    cluster: Cluster,
    backend: SentimentServingBackend,
    chaos: Option<Chaos>,
}

impl ServeWorkload {
    /// Builds the workload over `docs` documents. With `data_dir`, the
    /// cluster runs durably and the raw corpus is checkpointed before
    /// mining, so mining updates land in the WAL and a mid-serve crash
    /// recovers the mined state via snapshot + replay.
    fn build(docs: usize, chaos: Option<Chaos>, data_dir: Option<&str>) -> Result<Self, String> {
        let cluster = Cluster::new(4).map_err(|e| e.to_string())?;
        if let Some(dir) = data_dir {
            let storage = DurableStorage::at_dir(Path::new(dir), 4).map_err(|e| e.to_string())?;
            cluster
                .attach_durability(Arc::new(storage))
                .map_err(|e| e.to_string())?;
        }
        Ingestor::new(cluster.store()).ingest_batch(serving_docs(docs));
        if cluster.durability().is_some() {
            cluster.checkpoint().map_err(|e| e.to_string())?;
        }
        let pipeline = MinerPipeline::new().add(Box::new(AdhocSentimentMiner::new()));
        cluster.run_pipeline(&pipeline);
        let index = ShardedSentimentIndex::build_from_store(cluster.store());
        Ok(ServeWorkload {
            cluster,
            backend: SentimentServingBackend::new(index),
            chaos,
        })
    }

    /// The request loop over the backend. Under chaos, faults hit the
    /// serving path and the doctor fixture's topology lands mid-stream:
    /// node 1 degrades at `requests/3` and node 2's shard is lost at
    /// `requests/2`. On a durable cluster the loss is a real crash (node
    /// 2's store state is dropped) and node 2 restarts via snapshot + WAL
    /// replay at `2·requests/3`.
    fn serve_loop(&self, config: ServingConfig) -> ServeLoop<'_> {
        let requests = config.requests;
        let serve_loop = ServeLoop::new(
            &self.backend,
            Arc::clone(self.cluster.telemetry()),
            config,
            wf_corpus::serving_requests(),
        );
        let Some((seed, fail_rate)) = self.chaos else {
            return serve_loop;
        };
        let (backend, cluster) = (&self.backend, &self.cluster);
        let durable = cluster.durability().is_some();
        let serve_loop = serve_loop
            .with_fault_plan(FaultPlan::uniform(seed, fail_rate))
            .with_trigger(requests / 3, move || {
                backend.set_shard_health(1, NodeHealth::Degraded)
            })
            .with_trigger(requests / 2, move || {
                backend.set_shard_health(2, NodeHealth::Down);
                if durable {
                    cluster.drop_node_state(NodeId(2));
                }
            });
        if !durable {
            return serve_loop;
        }
        serve_loop.with_trigger(requests * 2 / 3, move || {
            cluster
                .restart_node(NodeId(2))
                .expect("durable restart of node 2");
            backend.set_shard_health(2, NodeHealth::Up);
        })
    }
}

/// Query-time sentiment serving: mine → build the sharded index → answer
/// one-shot queries or drive the deterministic request loop.
pub(super) fn serve(args: &ParsedArgs) -> Result<String, String> {
    let docs: usize = args.positive_or("docs", 40)?;
    let chaos = parse_chaos(args, 0.05)?;
    let format = parse_format(args, "text", &["text", "json"])?;
    let workload = ServeWorkload::build(docs, chaos, args.opt("data-dir"))?;
    let backend = &workload.backend;

    // one-shot query paths
    if let Some(subject) = args.opt("subject") {
        let answer = backend
            .execute(&format!("sentiment of {subject}"))
            .map_err(|e| e.to_string())?;
        return Ok(match format {
            "json" => answer.body + "\n",
            _ => {
                let summary = backend
                    .index()
                    .summary(&subject.to_lowercase())
                    .expect("execute succeeded");
                format!(
                    "{}: {} positive, {} negative, {} neutral (net {:+}) over {} posting(s)\n",
                    summary.subject,
                    summary.positive,
                    summary.negative,
                    summary.neutral,
                    summary.net(),
                    summary.total()
                )
            }
        });
    }
    if let Some(k) = args.opt("top") {
        let polarity = args.opt("polarity").unwrap_or("+");
        let answer = backend
            .execute(&format!("top {k} {polarity}"))
            .map_err(|e| e.to_string())?;
        return Ok(match format {
            "json" => answer.body + "\n",
            _ => {
                let k: usize = k.parse().expect("execute validated k");
                let polarity = Polarity::parse(polarity).expect("execute validated polarity");
                let mut out = format!("top {k} by {polarity}:\n");
                for (rank, s) in backend.index().top_k(k, polarity).iter().enumerate() {
                    out.push_str(&format!(
                        "{:>3}. {:<12} {} mention(s) (net {:+})\n",
                        rank + 1,
                        s.subject,
                        s.count(polarity),
                        s.net()
                    ));
                }
                out
            }
        });
    }

    // request-loop mode
    let postings = backend.index().posting_count();
    let subjects = backend.index().subjects().len();
    let config = parse_serve_loop(args)?;
    let cluster = &workload.cluster;
    let mut engine = HealthEngine::with_telemetry(default_slos(), Arc::clone(cluster.telemetry()));
    let report = workload
        .serve_loop(config)
        .run_observed(&mut || {
            let snapshot = cluster.metrics_snapshot();
            engine.observe(cluster.sim_now(), &snapshot);
        })
        .map_err(|e| e.to_string())?;
    match format {
        "json" => Ok(report.to_json_string() + "\n"),
        _ => {
            let mut out =
                format!("serving {subjects} subject(s), {postings} posting(s) across 4 shard(s)\n");
            out.push_str(&report.to_table());
            out.push_str(&slos_firing_line(&engine));
            Ok(out)
        }
    }
}

/// Runs the deterministic workload behind `wfsm timeline` / `wfsm
/// profile` / `wfsm logs`: the serving request loop (`--workload serve`,
/// the default) or a batched mining run (`--workload mine`), with a
/// time-series store scraping the shared telemetry registry on the
/// simulated clock. Returns the registry (whose flight recorder holds the
/// workload's traces) and the scraped timeline.
fn observed_workload(args: &ParsedArgs) -> Result<(Arc<Telemetry>, Arc<TimeSeriesStore>), String> {
    let chaos = parse_chaos(args, 0.05)?;
    let docs: usize = args.positive_or("docs", 40)?;
    let interval: u64 = args.positive_or("interval", DEFAULT_SCRAPE_INTERVAL_MS)?;
    match args.opt("workload").unwrap_or("serve") {
        "serve" => {
            let workload = ServeWorkload::build(docs, chaos, None)?;
            let timeline = Arc::new(TimeSeriesStore::new(DEFAULT_TIMELINE_CAPACITY, interval));
            workload
                .serve_loop(parse_serve_loop(args)?)
                .with_timeline(Arc::clone(&timeline))
                .run()
                .map_err(|e| e.to_string())?;
            Ok((Arc::clone(workload.cluster.telemetry()), timeline))
        }
        "mine" => {
            let cluster = Cluster::new(4).map_err(|e| e.to_string())?;
            let timeline = cluster.enable_timeline(DEFAULT_TIMELINE_CAPACITY, interval);
            let telemetry = Arc::clone(cluster.telemetry());
            let mut root = telemetry.trace_root("mine");
            Ingestor::new(cluster.store()).ingest_batch_traced(serving_docs(docs), &mut root);
            let pipeline = MinerPipeline::new().add(Box::new(AdhocSentimentMiner::new()));
            let plan = chaos.map(|(seed, rate)| FaultPlan::uniform(seed, rate));
            pipeline.run(
                cluster.store(),
                chaos_opts(plan.as_ref(), 8),
                Some(&mut root),
            );
            root.finish();
            cluster.flush_timeline();
            Ok((telemetry, timeline))
        }
        other => Err(format!("unknown --workload {other:?} (serve|mine)")),
    }
}

/// Metrics-over-time for a deterministic workload run.
pub(super) fn timeline(args: &ParsedArgs) -> Result<String, String> {
    let format = parse_format(args, "table", &["table", "json"])?;
    let (_telemetry, store) = observed_workload(args)?;
    let timeline = store.timeline();
    Ok(match format {
        "json" => timeline.to_json_string() + "\n",
        _ => timeline.to_table(),
    })
}

/// Self/total-time profile of a deterministic workload's trace spans.
pub(super) fn profile(args: &ParsedArgs) -> Result<String, String> {
    let format = parse_format(args, "text", &["text", "collapsed", "json"])?;
    let last: usize = args.parse_or("last", usize::MAX)?;
    let (telemetry, _timeline) = observed_workload(args)?;
    let profile = Profile::from_recorder(telemetry.recorder(), last);
    Ok(match format {
        "collapsed" => profile.to_collapsed(),
        "json" => profile.to_json_string() + "\n",
        _ => profile.to_text(),
    })
}

/// Runs the deterministic workload and queries its structured event log.
pub(super) fn logs(args: &ParsedArgs) -> Result<String, String> {
    let format = parse_format(args, "text", &["text", "json"])?;
    let mut filter = LogFilter {
        max_level: args.opt("level").map(Level::parse).transpose()?,
        target_prefix: args.opt("target").map(str::to_string),
        trace: args.parse_opt("trace")?,
        since: args.parse_opt("since")?,
        until: args.parse_opt("until")?,
        ..LogFilter::default()
    };
    for term in &args.positional {
        filter.add_term(term)?;
    }
    let (telemetry, _timeline) = observed_workload(args)?;
    let snapshot = telemetry.evlog().snapshot().filtered(&filter);
    Ok(match format {
        "json" => snapshot.to_json_string(),
        _ => snapshot.to_text(),
    })
}
