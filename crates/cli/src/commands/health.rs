//! Commands over the deterministic health workload: `doctor` and `top`.

use super::*;

/// Number of `sentiment.score` bus probes per workload round: enough
/// that a chaos fail-rate reliably lands slow responses in the p99 tail.
const BUS_PROBES_PER_ROUND: usize = 25;

/// The deterministic health workload behind `wfsm doctor` / `wfsm top`:
/// a 4-node [`Cluster`] driven through rounds of ingest → bus probes →
/// sentiment mining → index rebuild, with a [`HealthEngine`] observing
/// the shared telemetry registry on the cluster's simulated clock after
/// every phase. Under `--chaos-seed` the same fault plan is installed on
/// the pipeline and the bus, node 1 is degraded and node 2 downed, so
/// retries, failovers and SLO breaches all show up in the report.
struct HealthWorkload {
    cluster: Cluster,
    engine: HealthEngine,
    docs: Vec<String>,
    round: usize,
}

/// A small positive/negative corpus cycled by the workload; the phrasing
/// feeds both the sentiment miners and the `sentiment.score` service.
fn synthetic_health_docs(n: usize) -> Vec<String> {
    use wf_corpus::serving::MOODS;
    (0..n)
        .map(|i| format!("The Canon camera {} in trial {i}.", MOODS[i % MOODS.len()]))
        .collect()
}

impl HealthWorkload {
    fn from_args(args: &ParsedArgs) -> Result<Self, String> {
        let chaos = parse_chaos(args, 0.15)?;
        let docs: usize = args.positive_or("docs", 40)?;
        let cluster = Cluster::new(4).map_err(|e| e.to_string())?;
        cluster.bus().register(
            "sentiment.score",
            Arc::new(|req: &serde_json::Value| {
                let text = req.as_str().unwrap_or("");
                let plus = text.matches("excellent").count() + text.matches("sharp").count();
                let minus = text.matches("terrible").count() + text.matches("blurry").count();
                Ok(serde_json::Value::from(plus as i64 - minus as i64))
            }),
        );
        if let Some((seed, fail_rate)) = chaos {
            let plan = FaultPlan::uniform(seed, fail_rate);
            let retry = RetryPolicy {
                max_retries: 4,
                base_backoff_ms: 5,
                max_backoff_ms: 80,
                timeout_budget_ms: 50_000,
            };
            cluster.set_fault_plan(Some(plan.clone()));
            cluster.set_retry_policy(retry);
            cluster.bus().set_fault_plan(Some(plan));
            cluster.bus().set_retry_policy(retry);
            cluster.set_health(NodeId(1), NodeHealth::Degraded);
            cluster.set_health(NodeId(2), NodeHealth::Down);
        }
        let engine = HealthEngine::with_telemetry(default_slos(), Arc::clone(cluster.telemetry()));
        Ok(HealthWorkload {
            cluster,
            engine,
            docs: synthetic_health_docs(docs),
            round: 0,
        })
    }

    /// Re-evaluates every SLO against a fresh snapshot at the cluster's
    /// simulated now.
    fn observe(&mut self) {
        let snapshot = self.cluster.metrics_snapshot();
        self.engine.observe(self.cluster.sim_now(), &snapshot);
    }

    /// One workload round: ingest the corpus, probe the bus, mine, and
    /// rebuild the index, observing the SLOs after each phase.
    fn run_round(&mut self) {
        self.round += 1;
        let telemetry = Arc::clone(self.cluster.telemetry());
        let mut root = telemetry.trace_root(format!("doctor.ingest#{}", self.round));
        let raw: Vec<RawDocument> = self
            .docs
            .iter()
            .enumerate()
            .map(|(i, text)| {
                RawDocument::new(
                    format!("doctor://round{}/doc{i}", self.round),
                    SourceKind::Web,
                    text.clone(),
                )
            })
            .collect();
        Ingestor::new(self.cluster.store()).ingest_batch_traced(raw, &mut root);
        root.finish();
        self.observe();
        let mut root = telemetry.trace_root(format!("doctor.probe#{}", self.round));
        for i in 0..BUS_PROBES_PER_ROUND {
            let doc = &self.docs[i % self.docs.len()];
            let request = serde_json::Value::from(doc.as_str());
            let _ = self
                .cluster
                .bus()
                .call_detailed("sentiment.score", &request, Some(&mut root));
        }
        root.finish();
        self.observe();
        let pipeline = MinerPipeline::new().add(Box::new(AdhocSentimentMiner::new()));
        self.cluster.run_pipeline(&pipeline);
        self.observe();
        self.cluster.rebuild_index();
        self.observe();
    }
}

/// Runs the health workload and prints the full doctor report.
pub(super) fn doctor(args: &ParsedArgs) -> Result<String, String> {
    let rounds: usize = args.parse_or("rounds", 3)?;
    let mut workload = HealthWorkload::from_args(args)?;
    for _ in 0..rounds {
        workload.run_round();
    }
    let report = DoctorReport::build(&workload.cluster, &workload.engine);
    match parse_format(args, "text", &["text", "json"])? {
        "json" => Ok(report.to_json_string() + "\n"),
        _ => Ok(report.to_table()),
    }
}

/// Runs the health workload and prints per-node scoreboard frames.
pub(super) fn top(args: &ParsedArgs) -> Result<String, String> {
    let frames: usize = args.parse_or("watch", 1)?;
    if frames == 0 {
        return Err("--watch needs at least 1 frame".into());
    }
    let mut workload = HealthWorkload::from_args(args)?;
    let mut out = String::new();
    for frame in 1..=frames {
        workload.run_round();
        out.push_str(&format!(
            "FRAME {frame} @ {} sim-ms\n",
            workload.cluster.sim_now()
        ));
        out.push_str(&render_scoreboard(&workload.cluster.scoreboard()));
        out.push_str(&slos_firing_line(&workload.engine));
        if frame < frames {
            out.push('\n');
        }
    }
    Ok(out)
}
