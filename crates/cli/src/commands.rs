//! `wfsm` subcommand implementations.
//!
//! Each command reads plain text (stdin or `--file`; `mine`/`features`
//! read one document per line) and writes a human-readable report to the
//! returned string, so commands are directly testable.

use crate::args::ParsedArgs;
use std::io::Read;
use std::path::Path;
use std::sync::Arc;
use wf_features::{FeatureExtractor, Selection, CHI2_95};
use wf_platform::{
    default_slos, parse_query, render_scoreboard, Cluster, DataStore, DoctorReport, DurableStorage,
    FaultContext, FaultPlan, HealthEngine, Indexer, Ingestor, Level, LogFilter, MinerPipeline,
    NodeHealth, PipelineStats, Profile, RawDocument, RunDiff, RunOpts, SourceKind, StopReason,
    Telemetry, TelemetrySnapshot, TimeSeriesStore, DEFAULT_SCRAPE_INTERVAL_MS,
    DEFAULT_TIMELINE_CAPACITY,
};
use wf_sentiment::{
    mention_polarities, AdhocSentimentMiner, SentimentEntityMiner, SentimentMiner,
    SentimentQueryService, SubjectList,
};
use wf_types::{NodeId, Polarity, RetryPolicy};

/// Dispatches a parsed command line. Returns the report to print.
pub fn run(args: &ParsedArgs) -> Result<String, String> {
    match args.command.as_str() {
        "analyze" => analyze(args),
        "entities" => entities(args),
        "features" => features(args),
        "mine" => mine(args),
        "metrics" => metrics(args),
        "query" => query(args),
        "gen-corpus" => gen_corpus(args),
        "search" => search(args),
        "trace" => trace(args),
        "doctor" => doctor(args),
        "top" => top(args),
        "serve" => serve(args),
        "recover" => recover(args),
        "timeline" => timeline(args),
        "profile" => profile(args),
        "logs" => logs(args),
        "diff" => diff(args),
        "help" | "" => Ok(usage()),
        other => Err(format!("unknown command {other:?}\n\n{}", usage())),
    }
}

/// Top-level usage text.
pub fn usage() -> String {
    "wfsm — WebFountain sentiment mining (Yi & Niblack, ICDE 2005 reproduction)

USAGE:
  wfsm analyze  --subjects A,B[,C...] [--file PATH]
      Target-level sentiment for each subject mention (text from stdin
      or --file).
  wfsm entities [--file PATH]
      Named entities plus their mention sentiment (no subject list).
  wfsm features <D_PLUS.txt> <D_MINUS.txt> [--top N]
      Feature terms by bBNP + likelihood ratio; inputs are one document
      per line.
  wfsm mine     --input DOCS.txt [--data-dir DIR] [--subjects A,B]
                [--chaos-seed S] [--fail-rate P] [--metrics M.json]
                [--explain]
      Run the mining pipeline over one-document-per-line input
      (named-entity mode when no subjects). With --data-dir, the store is
      saved under DIR (shard-NNN/{wal.log,snapshot.jsonl}): the raw
      corpus is snapshotted after ingest and every mining annotation
      lands in the WAL, ready for `wfsm query|search|recover`; without
      it the run stays in memory. With --chaos-seed, inject
      deterministic faults at probability P (default 0.05) and report
      retries / skipped shards. With --metrics, also write the run's
      telemetry snapshot as canonical JSON (same seed ⇒ byte-identical
      file). With --explain, index the mined store and print a
      per-plan-node query profile (postings scanned, sim-ms) for
      representative boolean / phrase / range / regex queries.
  wfsm metrics  --file M.json [--format table|json]
  wfsm metrics  --input DOCS.txt [--subjects A,B] [--chaos-seed S]
                [--fail-rate P] [--format table|json]
      Render a telemetry snapshot — either one exported by `mine
      --metrics`, or from a fresh in-memory mining run — as a
      human-readable table (default) or canonical JSON (--format json;
      --json is accepted as an alias).
  wfsm query    --data-dir DIR --subject NAME [--polarity +|-]
      Query a mined data dir for a subject's sentiment-bearing sentences.
  wfsm search   --data-dir DIR --query 'camera AND (battery OR \"picture quality\")'
                [--explain]
      Boolean/phrase/meta/concept/regex/range search over a data dir's
      index. With --explain, also print the executed query plan with
      per-node postings scanned, pruning and simulated cost. Both read
      the store the way `wfsm recover` does (snapshot + WAL replay, no
      repair); a shard whose replay stopped early answers from its
      valid prefix and adds one warning line.
  wfsm trace    --input DOCS.txt [--subjects A,B] [--chaos-seed S]
                [--fail-rate P] [--last N] [--format text|json|chrome]
      Run the mining pipeline in memory and export the flight recorder's
      last N traces (default 10): an ASCII waterfall (text), a canonical
      JSON tree (json), or a Chrome trace_event file for chrome://tracing
      (chrome). Same seed ⇒ byte-identical output.
  wfsm doctor   [--chaos-seed S] [--fail-rate P] [--docs N] [--rounds N]
                [--format text|json]
      Run a deterministic health workload on a simulated 4-node cluster
      (ingest → bus probes → mining → index rebuild, per round) and print
      the doctor report: SLO burn rates, the burn-rate alert log, each
      histogram's worst exemplar (live == dumpable with `wfsm trace`),
      and the per-node scoreboard. With --chaos-seed, faults are injected
      and two nodes are degraded/downed so SLOs breach. Same seed ⇒
      byte-identical output.
  wfsm top      [--chaos-seed S] [--fail-rate P] [--docs N] [--watch N]
      Per-node scoreboard for the same workload: one-shot by default,
      or N deterministic refresh frames (one workload round each) with
      --watch N.
  wfsm serve    [--docs N] [--subject NAME | --top K [--polarity +|-|0]]
                [--clients C] [--qps Q] [--requests R] [--cache N]
                [--queue N] [--seed S] [--chaos-seed S] [--fail-rate P]
                [--data-dir DIR] [--format text|json]
      Mine a synthetic multi-brand corpus on a simulated 4-node cluster,
      build the sharded sentiment index, and serve query-time sentiment
      from it. One-shot with --subject (\"sentiment of X\") or --top K
      (\"top k by polarity\"); otherwise drive a deterministic many-client
      request loop (seeded arrivals at --qps on the simulated clock)
      through the LRU result cache and bounded admission queue, and
      report throughput, shed/error counts, latency percentiles and the
      serving SLOs. With --chaos-seed, faults hit the serving path and
      one index shard is lost mid-stream. With --data-dir, the cluster
      runs durably (WAL + post-ingest checkpoint under DIR) and the
      mid-stream node loss becomes a crash: node 2's state is dropped
      and later restarted via snapshot+WAL replay. Same seed ⇒
      byte-identical --format json output.
  wfsm timeline [--workload serve|mine] [--interval MS] [--docs N]
                [--chaos-seed S] [--fail-rate P] [--format table|json]
      Run a deterministic workload — the serving request loop (default)
      or a batched mining run — scraping the telemetry registry into a
      fixed-capacity time-series ring on the simulated clock, and render
      the windowed rollups: counter rate/increase, gauge last/min/max,
      histogram-delta p50/p95/p99 per scrape window. Serving flags
      (--clients --qps --requests --cache --queue --seed) apply to the
      serve workload. Same seed ⇒ byte-identical --format json output.
  wfsm profile  [--workload serve|mine] [--last N]
                [--format text|collapsed|json] [--docs N]
                [--chaos-seed S] [--fail-rate P]
      Run the same workload and fold the flight recorder's spans (last N
      traces, default all) into a deterministic self/total-time profile
      tree with per-stage attribution: cache-lookup / shard-fanout /
      postings-merge on the serving path, nlp.tokenize … nlp.ner in the
      mining path. Formats: annotated tree with top hotspots (text),
      flamegraph collapsed stacks (collapsed), canonical JSON (json).
  wfsm logs     [--workload serve|mine] [--level error|warn|info|debug]
                [--target PREFIX] [--trace ID] [--since MS] [--until MS]
                [--format text|json] [KEY=VALUE ...] [--docs N]
                [--chaos-seed S] [--fail-rate P]
      Run the same deterministic workload and query its structured event
      log: leveled records on the simulated clock with stable targets
      (bus.svc:*, miner.shard:*, store.shard:*, durable.shard:*,
      serving.loop), key=value fields and trace correlation IDs that
      resolve in `wfsm trace`. Filters AND together: --level is a
      maximum severity, --target a prefix match, positional KEY=VALUE
      terms match record fields exactly. The header reports the
      conservation law (emitted = kept + sampled + dropped). Same seed
      ⇒ byte-identical output (text and json).
  wfsm diff     RUN_A.json RUN_B.json [--format text|json]
      Compare two exported run artifacts — telemetry snapshots from
      `mine --metrics`/`wfsm metrics --format json`, or profile trees
      from `wfsm profile --format json`. Reports per-counter/per-gauge
      deltas or per-stage self-time deltas with regression attribution
      (stage slower in run B), and a machine-readable verdict
      (ok | changed | regressed) that tools/bench_gate.py can consume.
      Same-seed runs diff to \"ok\"; a perturbed run yields deterministic
      non-empty attribution.
  wfsm recover  --data-dir DIR [--format text|json]
      Read-only recovery report over a durable data dir written by `mine
      --data-dir` / `serve --data-dir`: per shard, what the snapshot
      holds, how many WAL records replay, the last valid LSN and why
      replay stopped (end_of_log | torn_tail | bad_crc | bad_payload).
      Never repairs anything, so running it twice over the same dir is
      byte-identical (--format json is canonical).
  wfsm gen-corpus --domain camera|music|petroleum|pharma --out DOCS.txt
                [--docs N] [--seed S]
      Write a synthetic gold-labeled evaluation corpus, one document per
      line (feed it back into `wfsm mine`).
  wfsm help
      This message.
"
    .to_string()
}

/// Parses `--format`, shared by every exporting command: returns the
/// default when the option is absent, and rejects anything outside
/// `allowed` with the canonical `unknown --format` error.
fn parse_format<'a>(
    args: &'a ParsedArgs,
    default: &'a str,
    allowed: &[&str],
) -> Result<&'a str, String> {
    let format = args.opt("format").unwrap_or(default);
    if allowed.contains(&format) {
        Ok(format)
    } else {
        Err(format!(
            "unknown --format {format:?} ({})",
            allowed.join("|")
        ))
    }
}

fn read_text(args: &ParsedArgs) -> Result<String, String> {
    match args.opt("file") {
        Some(path) => std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}")),
        None => {
            let mut buffer = String::new();
            std::io::stdin()
                .read_to_string(&mut buffer)
                .map_err(|e| format!("cannot read stdin: {e}"))?;
            Ok(buffer)
        }
    }
}

fn read_doc_lines(path: &str) -> Result<Vec<String>, String> {
    let content = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Ok(content
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .map(str::to_string)
        .collect())
}

fn subject_list(names: &[String]) -> SubjectList {
    let mut builder = SubjectList::builder();
    for name in names {
        builder = builder.subject(name, [name.clone()]);
    }
    builder.build()
}

fn analyze(args: &ParsedArgs) -> Result<String, String> {
    let names = args.opt_list("subjects");
    if names.is_empty() {
        return Err("analyze needs --subjects A,B,...".into());
    }
    let text = read_text(args)?;
    let miner = SentimentMiner::with_default_resources();
    let records = miner.analyze_text(&text, &subject_list(&names));
    let mut out = String::new();
    for (subject, sentence_span, polarity) in mention_polarities(&records) {
        let sentence = sentence_span.slice(&text).trim().replace('\n', " ");
        out.push_str(&format!("[{polarity}] {subject}: {sentence}\n"));
    }
    if out.is_empty() {
        out.push_str("(no subject mentions found)\n");
    }
    Ok(out)
}

fn entities(args: &ParsedArgs) -> Result<String, String> {
    let text = read_text(args)?;
    let miner = SentimentMiner::with_default_resources();
    let records = miner.analyze_named_entities(&text);
    let mut out = String::new();
    for (subject, _, polarity) in mention_polarities(&records) {
        out.push_str(&format!("[{polarity}] {subject}\n"));
    }
    if out.is_empty() {
        out.push_str("(no named entities found)\n");
    }
    Ok(out)
}

fn features(args: &ParsedArgs) -> Result<String, String> {
    let [d_plus_path, d_minus_path] = args.positional.as_slice() else {
        return Err("features needs two positional arguments: <D_PLUS.txt> <D_MINUS.txt>".into());
    };
    let d_plus = read_doc_lines(d_plus_path)?;
    let d_minus = read_doc_lines(d_minus_path)?;
    let top: usize = args
        .opt("top")
        .map(|v| v.parse().map_err(|e| format!("bad --top: {e}")))
        .transpose()?
        .unwrap_or(20);
    let fx = FeatureExtractor::new();
    let selected = fx.select(&d_plus, &d_minus, Selection::Confidence(CHI2_95));
    let mut out = format!("{:<24} {:>10}\n", "feature term", "-2logλ");
    for f in selected.iter().take(top) {
        out.push_str(&format!("{:<24} {:>10.1}\n", f.term, f.score));
    }
    Ok(out)
}

/// Pipeline options for a CLI mining run in batches of `batch`: the
/// `--chaos-seed` / `--fail-rate` plan, if any, with the default retry
/// policy on an all-up cluster.
fn chaos_opts(plan: Option<&FaultPlan>, batch: usize) -> RunOpts<'_> {
    RunOpts {
        batch,
        faults: FaultContext {
            plan,
            retry: RetryPolicy::default(),
            health: &[],
        },
    }
}

/// A chaos run's `(--chaos-seed, --fail-rate)`.
type Chaos = (u64, f64);

/// Parses `--chaos-seed S [--fail-rate P]`, shared by every command that
/// can run under deterministic fault injection: `Some((seed, rate))`
/// under chaos, the rate defaulting to `default_fail_rate`.
fn parse_chaos(args: &ParsedArgs, default_fail_rate: f64) -> Result<Option<Chaos>, String> {
    let chaos_seed: Option<u64> = args
        .opt("chaos-seed")
        .map(|v| v.parse().map_err(|e| format!("bad --chaos-seed: {e}")))
        .transpose()?;
    let fail_rate: f64 = args
        .opt("fail-rate")
        .map(|v| v.parse().map_err(|e| format!("bad --fail-rate: {e}")))
        .transpose()?
        .unwrap_or(default_fail_rate);
    if args.opt("fail-rate").is_some() && chaos_seed.is_none() {
        return Err("--fail-rate requires --chaos-seed".into());
    }
    if !(0.0..=1.0).contains(&fail_rate) {
        return Err(format!("--fail-rate must be in [0, 1], got {fail_rate}"));
    }
    Ok(chaos_seed.map(|seed| (seed, fail_rate)))
}

/// The mining-run core shared by `mine` and `metrics --input`: parses the
/// chaos flags, loads the documents, runs the pipeline, and returns the
/// mined store (whose telemetry registry holds the run's instruments).
fn run_mine_pipeline(
    args: &ParsedArgs,
) -> Result<(DataStore, PipelineStats, Option<Chaos>), String> {
    let input = args.require("input")?;
    let chaos = parse_chaos(args, 0.05)?;
    let docs = read_doc_lines(input)?;
    let store = DataStore::new(4).map_err(|e| e.to_string())?;
    if let Some(dir) = args.opt("data-dir") {
        let storage = DurableStorage::at_dir(Path::new(dir), 4).map_err(|e| e.to_string())?;
        store
            .attach_durability(Arc::new(storage))
            .map_err(|e| e.to_string())?;
    }
    // the whole run is one causal trace: mine → ingest.batch → pipeline.run
    let mut root = store.telemetry().trace_root("mine");
    let raw: Vec<RawDocument> = docs
        .iter()
        .enumerate()
        .map(|(i, text)| {
            RawDocument::new(
                format!("file://{input}#{i}"),
                wf_platform::SourceKind::Web,
                text.clone(),
            )
            // zero-padded line number: lets meta:line=[..] range queries
            // select document windows lexicographically
            .with_metadata("line", format!("{i:04}"))
        })
        .collect();
    Ingestor::new(&store).ingest_batch_traced(raw, &mut root);
    // checkpoint the raw corpus now: mining annotations then append to
    // the WAL, so `wfsm recover` genuinely replays them over the snapshot
    if let Some(storage) = store.durability() {
        storage.checkpoint(&store).map_err(|e| e.to_string())?;
    }
    let names = args.opt_list("subjects");
    let pipeline = if names.is_empty() {
        MinerPipeline::new().add(Box::new(AdhocSentimentMiner::new()))
    } else {
        MinerPipeline::new().add(Box::new(SentimentEntityMiner::new(subject_list(&names))))
    };
    let plan = chaos.map(|(seed, rate)| FaultPlan::uniform(seed, rate));
    let stats = pipeline.run(&store, chaos_opts(plan.as_ref(), 1), Some(&mut root));
    root.attr("documents", docs.len().to_string());
    root.finish();
    Ok((store, stats, chaos))
}

fn mine(args: &ParsedArgs) -> Result<String, String> {
    let (store, stats, chaos) = run_mine_pipeline(args)?;
    let mut out = format!(
        "mined {} documents ({} failed)\n",
        stats.processed, stats.failed
    );
    if let Some((seed, fail_rate)) = chaos {
        out.push_str(&format!(
            "chaos: seed {seed}, fail rate {fail_rate}; {} retries, {} skipped shard(s), {} sim ms\n",
            stats.retries,
            stats.skipped_shards,
            stats.shard_sim_ms.iter().sum::<u64>()
        ));
    }
    if let Some(storage) = store.durability() {
        let (wal, snap): (u64, u64) = (0..4)
            .map(|s| (storage.wal_bytes(s), storage.snapshot_bytes(s)))
            .fold((0, 0), |(w, p), (a, b)| (w + a, p + b));
        out.push_str(&format!(
            "durable: {} snapshot bytes + {} WAL bytes across 4 shards under {} (inspect with `wfsm recover`)\n",
            snap,
            wal,
            args.opt("data-dir").unwrap_or_default()
        ));
    }
    if let Some(metrics_path) = args.opt("metrics") {
        let json = store.telemetry().snapshot().to_json_string();
        std::fs::write(metrics_path, json + "\n")
            .map_err(|e| format!("cannot write {metrics_path}: {e}"))?;
        out.push_str(&format!("metrics snapshot written to {metrics_path}\n"));
    }
    if args.flag("explain") {
        out.push_str(&explain_report(&store)?);
    }
    Ok(out)
}

/// Representative queries profiled by `mine --explain`: one per plan-node
/// family (boolean combinators, phrase, metadata range, regex).
const EXPLAIN_QUERIES: [&str; 4] = [
    "excellent AND NOT terrible",
    "\"excellent pictures\"",
    "meta:line=[0000..0002]",
    "regex:excel.*",
];

/// An inverted index over every stored entity, built as one batch in id
/// order.
fn index_store(store: &DataStore) -> Indexer {
    let indexer = Indexer::new();
    indexer.index_batch(store.ids().into_iter().filter_map(|id| store.get(id).ok()));
    indexer
}

fn explain_report(store: &DataStore) -> Result<String, String> {
    let indexer = index_store(store);
    let mut out = String::from("\nQUERY PROFILES (EXPLAIN)\n");
    for text in EXPLAIN_QUERIES {
        let query = parse_query(text).map_err(|e| e.to_string())?;
        let (docs, profile) = indexer
            .query_explained(&query, None)
            .map_err(|e| e.to_string())?;
        out.push_str(&format!("\nquery: {text}\n"));
        out.push_str(&profile.render_text());
        out.push_str(&format!(
            "=> {} document(s), {} sim-ms total\n",
            docs.len(),
            profile.total_sim_ms()
        ));
    }
    Ok(out)
}

/// Renders a telemetry snapshot: from a `mine --metrics` export
/// (`--file`), or by running the mining pipeline in memory (`--input`).
fn metrics(args: &ParsedArgs) -> Result<String, String> {
    let snapshot = if let Some(path) = args.opt("file") {
        let content =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        TelemetrySnapshot::from_json_str(&content)
            .map_err(|e| format!("bad metrics snapshot {path}: {e}"))?
    } else if args.opt("input").is_some() {
        let (store, _, _) = run_mine_pipeline(args)?;
        store.telemetry().snapshot()
    } else {
        return Err("metrics needs --file SNAPSHOT.json or --input DOCS.txt".into());
    };
    let default = if args.flag("json") { "json" } else { "table" };
    match parse_format(args, default, &["table", "json"])? {
        "json" => Ok(snapshot.to_json_string() + "\n"),
        _ => Ok(snapshot.to_table()),
    }
}

/// The store `query` and `search` read: every shard of `--data-dir`
/// replayed read-only, as `wfsm recover` replays it. Returns one warning
/// line per shard whose replay stopped early; that shard answers from
/// its valid prefix.
fn recover_data_dir(args: &ParsedArgs) -> Result<(DataStore, String), String> {
    let dir = args.require("data-dir")?;
    let storage = DurableStorage::open_dir(Path::new(dir)).map_err(|e| e.to_string())?;
    let (store, report) = storage.recover_store().map_err(|e| e.to_string())?;
    let mut warnings = String::new();
    for s in &report.shards {
        if s.stop != StopReason::EndOfLog || s.snapshot_truncated {
            warnings.push_str(&format!(
                "warning: shard {} replay stopped at {}{}; answered from its valid prefix\n",
                s.shard,
                s.stop.label(),
                if s.snapshot_truncated {
                    " (snapshot truncated)"
                } else {
                    ""
                }
            ));
        }
    }
    Ok((store, warnings))
}

fn query(args: &ParsedArgs) -> Result<String, String> {
    let subject = args.require("subject")?;
    let polarity = match args.opt("polarity") {
        None => None,
        Some(p) => {
            Some(Polarity::parse(p).ok_or_else(|| format!("bad --polarity {p:?} (use + or -)"))?)
        }
    };
    let (store, warnings) = recover_data_dir(args)?;
    let indexer = index_store(&store);
    let hits = SentimentQueryService::query(&indexer, &store, subject, polarity)
        .map_err(|e| e.to_string())?;
    let mut out = String::new();
    for hit in &hits {
        out.push_str(&format!(
            "[{}] ({}) {}\n",
            hit.polarity, hit.doc, hit.sentence
        ));
    }
    out.push_str(&format!("{} hit(s)\n", hits.len()));
    out.push_str(&warnings);
    Ok(out)
}

fn search(args: &ParsedArgs) -> Result<String, String> {
    let query_text = args.require("query")?;
    let query = parse_query(query_text).map_err(|e| e.to_string())?;
    let (store, warnings) = recover_data_dir(args)?;
    let indexer = index_store(&store);
    let (docs, profile) = indexer
        .query_explained(&query, None)
        .map_err(|e| e.to_string())?;
    let mut out = String::new();
    for doc in &docs {
        let entity = store.get(*doc).map_err(|e| e.to_string())?;
        let preview: String = entity.text.chars().take(80).collect();
        out.push_str(&format!("{doc}  {}  {preview}\n", entity.uri));
    }
    out.push_str(&format!("{} document(s)\n", docs.len()));
    if args.flag("explain") {
        out.push_str("\nplan:\n");
        out.push_str(&profile.render_text());
        out.push_str(&format!("total: {} sim-ms\n", profile.total_sim_ms()));
    }
    out.push_str(&warnings);
    Ok(out)
}

/// Runs the mining pipeline in memory and exports the flight recorder.
fn trace(args: &ParsedArgs) -> Result<String, String> {
    let (store, _, _) = run_mine_pipeline(args)?;
    let last: usize = args
        .opt("last")
        .map(|v| v.parse().map_err(|e| format!("bad --last: {e}")))
        .transpose()?
        .unwrap_or(10);
    let recorder = store.telemetry().recorder();
    match parse_format(args, "text", &["text", "json", "chrome"])? {
        "json" => Ok(recorder.export_json_string(last) + "\n"),
        "chrome" => Ok(recorder.export_chrome_string(last) + "\n"),
        _ => Ok(recorder.export_text(last)),
    }
}

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
        let docs: usize = parse_positive(args, "docs", 40usize)?;
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
        self.cluster.advance_clock(root.elapsed_sim_ms());
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
        self.cluster.advance_clock(root.elapsed_sim_ms());
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
fn doctor(args: &ParsedArgs) -> Result<String, String> {
    let rounds: usize = args
        .opt("rounds")
        .map(|v| v.parse().map_err(|e| format!("bad --rounds: {e}")))
        .transpose()?
        .unwrap_or(3);
    let mut workload = HealthWorkload::from_args(args)?;
    for _ in 0..rounds {
        workload.run_round();
    }
    let report = DoctorReport::build(
        &workload.cluster,
        &workload.engine,
        workload.cluster.sim_now(),
    );
    match parse_format(args, "text", &["text", "json"])? {
        "json" => Ok(report.to_json_string() + "\n"),
        _ => Ok(report.to_table()),
    }
}

/// The `slos firing: a,b` line (`-` when none fire) closing `top` frames
/// and the `serve` table.
fn slos_firing_line(engine: &HealthEngine) -> String {
    let firing = engine
        .status()
        .iter()
        .filter(|s| s.firing)
        .map(|s| s.name.as_str())
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "slos firing: {}\n",
        if firing.is_empty() { "-" } else { &firing }
    )
}

/// Runs the health workload and prints per-node scoreboard frames.
fn top(args: &ParsedArgs) -> Result<String, String> {
    let frames: usize = args
        .opt("watch")
        .map(|v| v.parse().map_err(|e| format!("bad --watch: {e}")))
        .transpose()?
        .unwrap_or(1);
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

/// [`wf_corpus::serving_corpus`] as raw documents, the corpus behind
/// `serve` and the observed workloads of `timeline`, `profile` and `logs`.
fn serving_docs(n: usize) -> Vec<RawDocument> {
    wf_corpus::serving_corpus(n)
        .into_iter()
        .enumerate()
        .map(|(i, text)| RawDocument::new(format!("serve://doc{i}"), SourceKind::Web, text))
        .collect()
}

fn parse_positive<T: std::str::FromStr + PartialOrd + From<u8>>(
    args: &ParsedArgs,
    name: &str,
    default: T,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let value = match args.opt(name) {
        None => default,
        Some(v) => v.parse().map_err(|e| format!("bad --{name}: {e}"))?,
    };
    if value < T::from(1u8) {
        return Err(format!("--{name} must be at least 1"));
    }
    Ok(value)
}

/// Parses the serve-loop flags (`--seed --clients --qps --requests
/// --cache --queue`) shared by `serve` and `timeline|profile|logs
/// --workload serve`.
fn parse_serve_loop(args: &ParsedArgs) -> Result<wf_platform::ServingConfig, String> {
    Ok(wf_platform::ServingConfig {
        seed: parse_positive(args, "seed", 20050405u64)?,
        clients: parse_positive(args, "clients", 8u32)?,
        qps: parse_positive(args, "qps", 200u64)?,
        requests: parse_positive(args, "requests", 400u64)?,
        cache_capacity: args
            .opt("cache")
            .map(|v| v.parse().map_err(|e| format!("bad --cache: {e}")))
            .transpose()?
            .unwrap_or(64),
        queue_capacity: parse_positive(args, "queue", 32usize)?,
        ..wf_platform::ServingConfig::default()
    })
}

/// Query-time sentiment serving: mine → build the sharded index → answer
/// one-shot queries or drive the deterministic request loop.
fn serve(args: &ParsedArgs) -> Result<String, String> {
    use wf_platform::ServingBackend;
    use wf_sentiment::{SentimentServingBackend, ShardedSentimentIndex};

    let docs: usize = parse_positive(args, "docs", 40usize)?;
    let chaos = parse_chaos(args, 0.05)?;
    let format = parse_format(args, "text", &["text", "json"])?;

    // offline half: ingest + mine the corpus, then precompute the index
    let cluster = Cluster::new(4).map_err(|e| e.to_string())?;
    if let Some(dir) = args.opt("data-dir") {
        let storage = DurableStorage::at_dir(Path::new(dir), 4).map_err(|e| e.to_string())?;
        cluster
            .attach_durability(Arc::new(storage))
            .map_err(|e| e.to_string())?;
    }
    Ingestor::new(cluster.store()).ingest_batch(serving_docs(docs));
    // checkpoint the raw corpus; mining updates then land in the WAL so a
    // mid-serve crash recovers the mined state via snapshot + replay
    if cluster.durability().is_some() {
        cluster.checkpoint().map_err(|e| e.to_string())?;
    }
    let pipeline = MinerPipeline::new().add(Box::new(AdhocSentimentMiner::new()));
    cluster.run_pipeline(&pipeline);
    let index = ShardedSentimentIndex::build_from_store(cluster.store());
    let postings = index.posting_count();
    let subjects = index.subjects().len();
    let backend = SentimentServingBackend::new(index);

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
    let config = parse_serve_loop(args)?;
    let requests = config.requests;
    let mut engine = HealthEngine::with_telemetry(default_slos(), Arc::clone(cluster.telemetry()));
    let mut serve_loop = wf_platform::ServeLoop::new(
        &backend,
        Arc::clone(cluster.telemetry()),
        config,
        wf_corpus::serving_requests(),
    );
    if let Some((seed, fail_rate)) = chaos {
        // chaos on the serving path, plus the doctor fixture's topology
        // landing mid-stream: node 1 degrades, node 2's shard is lost.
        // Under --data-dir the loss is a real crash (store state dropped)
        // and a later trigger restarts the node via snapshot + WAL replay.
        serve_loop = serve_loop
            .with_fault_plan(FaultPlan::uniform(seed, fail_rate))
            .with_trigger(requests / 3, || {
                backend.set_shard_health(1, NodeHealth::Degraded)
            })
            .with_trigger(requests / 2, || {
                backend.set_shard_health(2, NodeHealth::Down);
                if cluster.durability().is_some() {
                    cluster.drop_node_state(NodeId(2));
                }
            });
        if cluster.durability().is_some() {
            serve_loop = serve_loop.with_trigger(requests * 2 / 3, || {
                cluster
                    .restart_node(NodeId(2))
                    .expect("durable restart of node 2");
                backend.set_shard_health(2, NodeHealth::Up);
            });
        }
    }
    let report = {
        let cluster = &cluster;
        let engine = &mut engine;
        serve_loop
            .run_observed(&mut |now_sim_ms| {
                cluster.advance_clock(now_sim_ms.saturating_sub(cluster.sim_now()));
                let snapshot = cluster.metrics_snapshot();
                engine.observe(cluster.sim_now(), &snapshot);
            })
            .map_err(|e| e.to_string())?
    };
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

/// `wfsm recover`: a read-only recovery report over a durable data dir.
/// Never repairs anything, so two runs over the same dir are
/// byte-identical.
fn recover(args: &ParsedArgs) -> Result<String, String> {
    let dir = args.require("data-dir")?;
    let format = parse_format(args, "text", &["text", "json"])?;
    let storage = DurableStorage::open_dir(Path::new(dir)).map_err(|e| e.to_string())?;
    let report = storage.recovery_report().map_err(|e| e.to_string())?;
    Ok(match format {
        "json" => report.to_json_string() + "\n",
        _ => report.to_table(),
    })
}

/// Runs the deterministic workload behind `wfsm timeline` / `wfsm
/// profile`: the serving request loop (`--workload serve`, the default)
/// or a batched mining run (`--workload mine`), with a time-series store
/// scraping the shared telemetry registry on the simulated clock.
/// Returns the registry (whose flight recorder holds the workload's
/// traces) and the scraped timeline.
fn observed_workload(args: &ParsedArgs) -> Result<(Arc<Telemetry>, Arc<TimeSeriesStore>), String> {
    let chaos = parse_chaos(args, 0.05)?;
    let docs: usize = parse_positive(args, "docs", 40usize)?;
    let interval: u64 = parse_positive(args, "interval", DEFAULT_SCRAPE_INTERVAL_MS)?;
    match args.opt("workload").unwrap_or("serve") {
        "serve" => {
            use wf_sentiment::{SentimentServingBackend, ShardedSentimentIndex};
            let cluster = Cluster::new(4).map_err(|e| e.to_string())?;
            Ingestor::new(cluster.store()).ingest_batch(serving_docs(docs));
            let pipeline = MinerPipeline::new().add(Box::new(AdhocSentimentMiner::new()));
            cluster.run_pipeline(&pipeline);
            let index = ShardedSentimentIndex::build_from_store(cluster.store());
            let backend = SentimentServingBackend::new(index);
            let telemetry = Arc::clone(cluster.telemetry());
            let timeline = Arc::new(TimeSeriesStore::new(DEFAULT_TIMELINE_CAPACITY, interval));
            let config = parse_serve_loop(args)?;
            let requests = config.requests;
            let mut serve_loop = wf_platform::ServeLoop::new(
                &backend,
                Arc::clone(&telemetry),
                config,
                wf_corpus::serving_requests(),
            )
            .with_timeline(Arc::clone(&timeline));
            if let Some((seed, fail_rate)) = chaos {
                serve_loop = serve_loop
                    .with_fault_plan(FaultPlan::uniform(seed, fail_rate))
                    .with_trigger(requests / 3, || {
                        backend.set_shard_health(1, NodeHealth::Degraded)
                    })
                    .with_trigger(requests / 2, || {
                        backend.set_shard_health(2, NodeHealth::Down)
                    });
            }
            serve_loop.run().map_err(|e| e.to_string())?;
            Ok((telemetry, timeline))
        }
        "mine" => {
            let cluster = Cluster::new(4).map_err(|e| e.to_string())?;
            let timeline = cluster.enable_timeline(DEFAULT_TIMELINE_CAPACITY, interval);
            let telemetry = Arc::clone(cluster.telemetry());
            let mut root = telemetry.trace_root("mine");
            Ingestor::new(cluster.store()).ingest_batch_traced(serving_docs(docs), &mut root);
            cluster.advance_clock(root.elapsed_sim_ms());
            let pipeline = MinerPipeline::new().add(Box::new(AdhocSentimentMiner::new()));
            let plan = chaos.map(|(seed, rate)| FaultPlan::uniform(seed, rate));
            let ingest_ms = root.elapsed_sim_ms();
            pipeline.run(
                cluster.store(),
                chaos_opts(plan.as_ref(), 8),
                Some(&mut root),
            );
            cluster.advance_clock(root.elapsed_sim_ms() - ingest_ms);
            root.finish();
            cluster.flush_timeline();
            Ok((telemetry, timeline))
        }
        other => Err(format!("unknown --workload {other:?} (serve|mine)")),
    }
}

/// Metrics-over-time for a deterministic workload run.
fn timeline(args: &ParsedArgs) -> Result<String, String> {
    let format = parse_format(args, "table", &["table", "json"])?;
    let (_telemetry, store) = observed_workload(args)?;
    let timeline = store.timeline();
    Ok(match format {
        "json" => timeline.to_json_string() + "\n",
        _ => timeline.to_table(),
    })
}

/// Self/total-time profile of a deterministic workload's trace spans.
fn profile(args: &ParsedArgs) -> Result<String, String> {
    let format = parse_format(args, "text", &["text", "collapsed", "json"])?;
    let last: usize = args
        .opt("last")
        .map(|v| v.parse().map_err(|e| format!("bad --last: {e}")))
        .transpose()?
        .unwrap_or(usize::MAX);
    let (telemetry, _timeline) = observed_workload(args)?;
    let profile = Profile::from_recorder(telemetry.recorder(), last);
    Ok(match format {
        "collapsed" => profile.to_collapsed(),
        "json" => profile.to_json_string() + "\n",
        _ => profile.to_text(),
    })
}

/// Runs the deterministic workload and queries its structured event log.
fn logs(args: &ParsedArgs) -> Result<String, String> {
    let format = parse_format(args, "text", &["text", "json"])?;
    let mut filter = LogFilter::default();
    if let Some(level) = args.opt("level") {
        filter.max_level = Some(Level::parse(level)?);
    }
    if let Some(prefix) = args.opt("target") {
        filter.target_prefix = Some(prefix.to_string());
    }
    if let Some(trace) = args.opt("trace") {
        filter.trace = Some(trace.parse().map_err(|e| format!("bad --trace: {e}"))?);
    }
    if let Some(since) = args.opt("since") {
        filter.since = Some(since.parse().map_err(|e| format!("bad --since: {e}"))?);
    }
    if let Some(until) = args.opt("until") {
        filter.until = Some(until.parse().map_err(|e| format!("bad --until: {e}"))?);
    }
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

/// Diffs two exported run artifacts (metrics snapshots or profile trees).
fn diff(args: &ParsedArgs) -> Result<String, String> {
    let format = parse_format(args, "text", &["text", "json"])?;
    let [a, b] = args.positional.as_slice() else {
        return Err(
            "diff needs exactly two artifact paths: wfsm diff RUN_A.json RUN_B.json".into(),
        );
    };
    let read =
        |path: &str| std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"));
    let diff = RunDiff::between_texts(&read(a)?, &read(b)?)?;
    Ok(match format {
        "json" => diff.to_json_string(),
        _ => diff.to_text(),
    })
}

fn gen_corpus(args: &ParsedArgs) -> Result<String, String> {
    use wf_corpus::{
        camera_reviews, music_reviews, petroleum_web, pharma_web, ReviewConfig, WebConfig,
    };
    let domain = args.require("domain")?;
    let out = args.require("out")?.to_string();
    let seed: u64 = args
        .opt("seed")
        .map(|v| v.parse().map_err(|e| format!("bad --seed: {e}")))
        .transpose()?
        .unwrap_or(20050405);
    let docs: usize = args
        .opt("docs")
        .map(|v| v.parse().map_err(|e| format!("bad --docs: {e}")))
        .transpose()?
        .unwrap_or(50);
    let texts: Vec<String> = match domain {
        "camera" => camera_reviews(
            seed,
            &ReviewConfig {
                n_plus: docs,
                n_minus: 0,
                ..ReviewConfig::camera()
            },
        )
        .d_plus_texts(),
        "music" => music_reviews(
            seed,
            &ReviewConfig {
                n_plus: docs,
                n_minus: 0,
                ..ReviewConfig::music()
            },
        )
        .d_plus_texts(),
        "petroleum" => petroleum_web(
            seed,
            &WebConfig {
                n_docs: docs,
                ..WebConfig::standard()
            },
        )
        .d_plus_texts(),
        "pharma" => pharma_web(
            seed,
            &WebConfig {
                n_docs: docs,
                ..WebConfig::standard()
            },
        )
        .d_plus_texts(),
        other => {
            return Err(format!(
                "unknown domain {other:?} (camera|music|petroleum|pharma)"
            ))
        }
    };
    let content = texts.join("\n");
    std::fs::write(&out, content).map_err(|e| format!("cannot write {out}: {e}"))?;
    Ok(format!(
        "wrote {} {domain} documents to {out}\n",
        texts.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_file(name: &str, content: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("wfsm-test-{name}-{}", std::process::id()));
        std::fs::write(&p, content).unwrap();
        p
    }

    fn run_tokens(tokens: &[&str]) -> Result<String, String> {
        let parsed = ParsedArgs::parse(tokens.iter().map(|s| s.to_string())).unwrap();
        run(&parsed)
    }

    #[test]
    fn analyze_from_file() {
        let f = temp_file(
            "analyze",
            "The Canon takes excellent pictures. The Nikon is terrible.",
        );
        let out = run_tokens(&[
            "analyze",
            "--subjects",
            "Canon,Nikon",
            "--file",
            f.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("[+] Canon"), "{out}");
        assert!(out.contains("[-] Nikon"), "{out}");
        std::fs::remove_file(f).ok();
    }

    #[test]
    fn entities_from_file() {
        let f = temp_file("entities", "Zorblax delivered excellent results.");
        let out = run_tokens(&["entities", "--file", f.to_str().unwrap()]).unwrap();
        assert!(out.contains("[+] Zorblax"), "{out}");
        std::fs::remove_file(f).ok();
    }

    #[test]
    fn features_from_files() {
        let dp = temp_file(
            "dplus",
            "The battery lasts long. The picture quality is superb.\n\
             The battery charges fast. The picture quality shines.\n\
             The battery holds up. The picture quality impressed me.\n",
        );
        let dm = temp_file(
            "dminus",
            "The committee met on Monday.\nThe team won again.\nThe weather held.\n\
             Voters lined up early.\nThe festival was crowded.\n",
        );
        let out = run_tokens(&[
            "features",
            dp.to_str().unwrap(),
            dm.to_str().unwrap(),
            "--top",
            "5",
        ])
        .unwrap();
        assert!(out.contains("battery"), "{out}");
        assert!(out.contains("picture quality"), "{out}");
        std::fs::remove_file(dp).ok();
        std::fs::remove_file(dm).ok();
    }

    #[test]
    fn mine_then_query_round_trip() {
        let docs = temp_file(
            "docs",
            "The Canon takes excellent pictures.\nThe Canon battery is terrible.\n",
        );
        let dir = temp_data_dir("roundtrip");
        let out = run_tokens(&[
            "mine",
            "--input",
            docs.to_str().unwrap(),
            "--data-dir",
            dir.to_str().unwrap(),
            "--subjects",
            "Canon",
        ])
        .unwrap();
        assert!(out.contains("mined 2 documents"), "{out}");
        let out = run_tokens(&[
            "query",
            "--data-dir",
            dir.to_str().unwrap(),
            "--subject",
            "Canon",
            "--polarity",
            "+",
        ])
        .unwrap();
        assert!(out.contains("excellent pictures"), "{out}");
        assert!(out.contains("1 hit(s)"), "{out}");
        assert!(!out.contains("warning"), "{out}");
        std::fs::remove_file(docs).ok();
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn mine_under_chaos_reports_and_stays_deterministic() {
        let docs = temp_file(
            "chaosdocs",
            "The Canon takes excellent pictures.\nThe Canon battery is terrible.\n\
             The Canon lens is sharp.\nThe Canon flash misfires.\n",
        );
        let dir = temp_data_dir("chaos");
        let run = || {
            run_tokens(&[
                "mine",
                "--input",
                docs.to_str().unwrap(),
                "--data-dir",
                dir.to_str().unwrap(),
                "--subjects",
                "Canon",
                "--chaos-seed",
                "77",
                "--fail-rate",
                "0.2",
            ])
            .unwrap()
        };
        let first = run();
        assert!(first.contains("chaos: seed 77, fail rate 0.2"), "{first}");
        assert!(first.contains("sim ms"), "{first}");
        assert_eq!(first, run(), "same seed must reproduce the same report");
        std::fs::remove_file(docs).ok();
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn mine_exports_byte_identical_metrics() {
        let docs = temp_file(
            "metricdocs",
            "The Canon takes excellent pictures.\nThe Canon battery is terrible.\n\
             The Canon lens is sharp.\nThe Canon flash misfires.\n",
        );
        let mut m1 = std::env::temp_dir();
        m1.push(format!("wfsm-m1-{}.json", std::process::id()));
        let mut m2 = std::env::temp_dir();
        m2.push(format!("wfsm-m2-{}.json", std::process::id()));
        let run = |metrics: &std::path::Path| {
            run_tokens(&[
                "mine",
                "--input",
                docs.to_str().unwrap(),
                "--subjects",
                "Canon",
                "--chaos-seed",
                "77",
                "--fail-rate",
                "0.2",
                "--metrics",
                metrics.to_str().unwrap(),
            ])
            .unwrap()
        };
        run(&m1);
        run(&m2);
        let j1 = std::fs::read(&m1).unwrap();
        let j2 = std::fs::read(&m2).unwrap();
        assert!(!j1.is_empty());
        assert_eq!(j1, j2, "same seed must export byte-identical metrics");
        // the exported file renders as a table through `wfsm metrics`
        let table = run_tokens(&["metrics", "--file", m1.to_str().unwrap()]).unwrap();
        assert!(table.contains("COUNTERS"), "{table}");
        assert!(table.contains("pipeline.entities_in"), "{table}");
        // and --json round-trips the exact bytes
        let json = run_tokens(&["metrics", "--file", m1.to_str().unwrap(), "--json"]).unwrap();
        assert_eq!(json.as_bytes(), j1.as_slice());
        for p in [&docs, &m1, &m2] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn metrics_from_input_runs_pipeline() {
        let docs = temp_file("metricinput", "The Canon takes excellent pictures.\n");
        let out = run_tokens(&[
            "metrics",
            "--input",
            docs.to_str().unwrap(),
            "--subjects",
            "Canon",
        ])
        .unwrap();
        assert!(out.contains("pipeline.processed"), "{out}");
        assert!(out.contains("store.insert"), "{out}");
        std::fs::remove_file(docs).ok();
    }

    #[test]
    fn metrics_requires_a_source() {
        let err = run_tokens(&["metrics"]).unwrap_err();
        assert!(err.contains("--file") && err.contains("--input"), "{err}");
    }

    #[test]
    fn chaos_flags_are_validated() {
        let err = run_tokens(&["mine", "--input", "x", "--fail-rate", "0.2"]).unwrap_err();
        assert!(err.contains("--fail-rate requires --chaos-seed"), "{err}");
        let err = run_tokens(&[
            "mine",
            "--input",
            "x",
            "--chaos-seed",
            "1",
            "--fail-rate",
            "1.5",
        ])
        .unwrap_err();
        assert!(err.contains("must be in [0, 1]"), "{err}");
        for command in ["serve", "timeline", "doctor"] {
            let err = run_tokens(&[command, "--fail-rate", "0.2"]).unwrap_err();
            assert!(err.contains("--fail-rate requires --chaos-seed"), "{err}");
            let err =
                run_tokens(&[command, "--chaos-seed", "1", "--fail-rate", "1.5"]).unwrap_err();
            assert!(err.contains("must be in [0, 1]"), "{err}");
        }
    }

    #[test]
    fn search_over_snapshot() {
        let docs = temp_file(
            "searchdocs",
            "The Canon takes excellent pictures.\nThe song has a great chorus.\n",
        );
        let dir = temp_data_dir("search");
        run_tokens(&[
            "mine",
            "--input",
            docs.to_str().unwrap(),
            "--data-dir",
            dir.to_str().unwrap(),
            "--subjects",
            "Canon",
        ])
        .unwrap();
        let out = run_tokens(&[
            "search",
            "--data-dir",
            dir.to_str().unwrap(),
            "--query",
            "excellent AND NOT chorus",
        ])
        .unwrap();
        assert!(out.contains("1 document(s)"), "{out}");
        let out = run_tokens(&[
            "search",
            "--data-dir",
            dir.to_str().unwrap(),
            "--query",
            "concept:sentiment:polarity=+",
        ])
        .unwrap();
        assert!(out.contains("1 document(s)"), "{out}");
        let out = run_tokens(&[
            "search",
            "--data-dir",
            dir.to_str().unwrap(),
            "--query",
            "regex:(pictures|chorus)",
        ])
        .unwrap();
        assert!(out.contains("2 document(s)"), "{out}");
        std::fs::remove_file(docs).ok();
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn mine_explain_profiles_every_query_kind() {
        let docs = temp_file(
            "explaindocs",
            "The Canon takes excellent pictures.\nThe Canon battery is terrible.\n\
             The Canon lens is sharp.\nThe Canon flash misfires.\n",
        );
        let out = run_tokens(&[
            "mine",
            "--input",
            docs.to_str().unwrap(),
            "--subjects",
            "Canon",
            "--explain",
        ])
        .unwrap();
        assert!(out.contains("QUERY PROFILES (EXPLAIN)"), "{out}");
        // one profiled plan per query family, each with scan/cost columns
        for kind in ["\nand ", "\n  not ", "phrase(", "meta_range(", "regex("] {
            assert!(out.contains(kind), "missing {kind:?} in:\n{out}");
        }
        assert!(out.contains("scanned="), "{out}");
        assert!(out.contains("sim_ms="), "{out}");
        // the range query actually selects the 0000..0002 line window
        assert!(out.contains("meta_range(line=[0000..0002])"), "{out}");
        std::fs::remove_file(docs).ok();
    }

    #[test]
    fn search_explain_prints_the_plan() {
        let docs = temp_file(
            "searchexplain",
            "The Canon takes excellent pictures.\nThe song has a great chorus.\n",
        );
        let dir = temp_data_dir("sexplain");
        run_tokens(&[
            "mine",
            "--input",
            docs.to_str().unwrap(),
            "--data-dir",
            dir.to_str().unwrap(),
        ])
        .unwrap();
        let out = run_tokens(&[
            "search",
            "--data-dir",
            dir.to_str().unwrap(),
            "--query",
            "excellent AND NOT chorus",
            "--explain",
        ])
        .unwrap();
        assert!(out.contains("1 document(s)"), "{out}");
        assert!(out.contains("plan:"), "{out}");
        assert!(out.contains("\nand "), "{out}");
        assert!(out.contains("term(excellent)"), "{out}");
        std::fs::remove_file(docs).ok();
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn trace_exports_are_deterministic_across_runs() {
        let docs = temp_file(
            "tracedocs",
            "The Canon takes excellent pictures.\nThe Canon battery is terrible.\n\
             The Canon lens is sharp.\nThe Canon flash misfires.\n",
        );
        let run = |format: &str| {
            run_tokens(&[
                "trace",
                "--input",
                docs.to_str().unwrap(),
                "--subjects",
                "Canon",
                "--chaos-seed",
                "77",
                "--fail-rate",
                "0.2",
                "--format",
                format,
            ])
            .unwrap()
        };
        for format in ["text", "json", "chrome"] {
            assert_eq!(
                run(format),
                run(format),
                "same seed must export byte-identical {format} traces"
            );
        }
        let text = run("text");
        assert!(text.contains("mine"), "{text}");
        assert!(text.contains("shard:"), "{text}");
        let json = run("json");
        assert!(json.contains("\"ingest.batch\""), "{json}");
        assert!(json.contains("\"pipeline.run\""), "{json}");
        let chrome = run("chrome");
        assert!(chrome.contains("\"traceEvents\""), "{chrome}");
        std::fs::remove_file(docs).ok();
    }

    #[test]
    fn trace_rejects_unknown_format() {
        let docs = temp_file("tracefmt", "one line\n");
        let err = run_tokens(&[
            "trace",
            "--input",
            docs.to_str().unwrap(),
            "--format",
            "xml",
        ])
        .unwrap_err();
        assert!(err.contains("unknown --format"), "{err}");
        std::fs::remove_file(docs).ok();
    }

    #[test]
    fn mine_metrics_to_unwritable_path_errors() {
        let docs = temp_file("metricbadpath", "one line\n");
        let err = run_tokens(&[
            "mine",
            "--input",
            docs.to_str().unwrap(),
            "--metrics",
            "/nonexistent-dir/metrics.json",
        ])
        .unwrap_err();
        assert!(
            err.contains("cannot write /nonexistent-dir/metrics.json"),
            "{err}"
        );
        std::fs::remove_file(docs).ok();
    }

    /// A scratch path for a durable data dir (not created; `at_dir`
    /// creates it, and the test removes it afterwards).
    fn temp_data_dir(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("wfsm-test-dir-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&p).ok();
        p
    }

    #[test]
    fn mine_with_data_dir_then_recover() {
        // 8 sentiment-bearing lines: every one of the 4 shards gets docs
        // and post-checkpoint mining updates in its WAL
        let docs = temp_file(
            "minedurable",
            "The Canon takes excellent pictures.\nThe Nikon is terrible.\n\
             The Sony is excellent.\nThe Kodak is terrible.\n\
             The Leica is excellent.\nThe Pentax is terrible.\n\
             The Fuji is excellent.\nThe Olympus is terrible.\n",
        );
        let dir = temp_data_dir("minedurable");
        let out = run_tokens(&[
            "mine",
            "--input",
            docs.to_str().unwrap(),
            "--data-dir",
            dir.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("durable:"), "{out}");
        assert!(out.contains("wfsm recover"), "{out}");

        // text report lists every shard and why replay stopped
        let text = run_tokens(&["recover", "--data-dir", dir.to_str().unwrap()]).unwrap();
        assert!(text.contains("SHARD"), "{text}");
        assert_eq!(text.matches("end_of_log").count(), 4, "{text}");
        assert!(text.contains("clean"), "{text}");

        // recover is read-only: double-run JSON is byte-identical, and the
        // WAL holds the post-checkpoint mining annotations (replay > 0)
        let json = |()| {
            run_tokens(&[
                "recover",
                "--data-dir",
                dir.to_str().unwrap(),
                "--format",
                "json",
            ])
            .unwrap()
        };
        let (first, second) = (json(()), json(()));
        assert_eq!(first, second);
        assert!(first.contains("\"replayed\""), "{first}");
        assert!(!first.contains("\"replayed\": 0"), "{first}");

        std::fs::remove_file(docs).ok();
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn recover_requires_durable_layout() {
        let dir = temp_data_dir("recoverempty");
        std::fs::create_dir_all(&dir).unwrap();
        let err = run_tokens(&["recover", "--data-dir", dir.to_str().unwrap()]).unwrap_err();
        assert!(err.contains("no shard-"), "{err}");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn search_requires_durable_layout() {
        let dir = temp_data_dir("searchempty");
        std::fs::create_dir_all(&dir).unwrap();
        let err = run_tokens(&[
            "search",
            "--data-dir",
            dir.to_str().unwrap(),
            "--query",
            "excellent",
        ])
        .unwrap_err();
        assert!(err.contains("no shard-"), "{err}");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn query_answers_from_the_valid_prefix_of_a_torn_wal() {
        let docs = temp_file(
            "tornwal",
            "The Canon takes excellent pictures.\nThe Canon lens is excellent.\n\
             The Canon battery is terrible.\nThe Canon flash is terrible.\n\
             The Canon zoom is excellent.\nThe Canon grip is terrible.\n\
             The Canon screen is excellent.\nThe Canon menu is terrible.\n",
        );
        let dir = temp_data_dir("tornwal");
        let path = dir.to_str().unwrap();
        run_tokens(&[
            "mine",
            "--input",
            docs.to_str().unwrap(),
            "--data-dir",
            path,
            "--subjects",
            "Canon",
        ])
        .unwrap();
        let query = || run_tokens(&["query", "--data-dir", path, "--subject", "Canon"]).unwrap();
        let clean = query();
        assert!(clean.contains("8 hit(s)"), "{clean}");
        // tear the last mining update off shard 2's WAL
        let wal = dir.join("shard-002").join("wal.log");
        let bytes = std::fs::read(&wal).unwrap();
        std::fs::write(&wal, &bytes[..bytes.len() - 3]).unwrap();
        let files = |()| {
            (0..4)
                .flat_map(|s| ["wal.log", "snapshot.jsonl"].map(|f| (s, f)))
                .map(|(s, f)| std::fs::read(dir.join(format!("shard-{s:03}")).join(f)).unwrap())
                .collect::<Vec<_>>()
        };
        let before = files(());

        let damaged = query();
        let lines: Vec<&str> = damaged.lines().collect();
        // the valid prefix lost one document's annotations: one hit fewer
        assert_eq!(lines[lines.len() - 2], "7 hit(s)", "{damaged}");
        assert_eq!(
            lines[lines.len() - 1],
            "warning: shard 2 replay stopped at torn_tail; answered from its valid prefix"
        );
        assert_eq!(damaged.matches("warning").count(), 1, "{damaged}");
        // the shard and stop label match what `wfsm recover` reports
        let report = run_tokens(&["recover", "--data-dir", path]).unwrap();
        let row = report.lines().find(|l| l.starts_with("2 ")).unwrap();
        assert!(row.ends_with("torn_tail"), "{report}");
        // reading repaired nothing
        assert_eq!(files(()), before);
        std::fs::remove_file(docs).ok();
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn recover_rejects_unknown_format() {
        let err = run_tokens(&["recover", "--data-dir", "/tmp", "--format", "xml"]).unwrap_err();
        assert!(err.contains("unknown --format"), "{err}");
    }

    #[test]
    fn mine_data_dir_unwritable_path_errors_cleanly() {
        let docs = temp_file("minedurbad", "one line\n");
        // a path under an existing *file* cannot be created even as root
        let blocker = temp_file("minedurblocker", "");
        let bad = blocker.join("sub");
        let err = run_tokens(&[
            "mine",
            "--input",
            docs.to_str().unwrap(),
            "--data-dir",
            bad.to_str().unwrap(),
        ])
        .unwrap_err();
        assert!(err.contains("cannot create data dir"), "{err}");
        std::fs::remove_file(docs).ok();
        std::fs::remove_file(blocker).ok();
    }

    #[test]
    fn serve_data_dir_unwritable_path_errors_cleanly() {
        let blocker = temp_file("servedurblocker", "");
        let bad = blocker.join("sub");
        let err = run_tokens(&[
            "serve",
            "--docs",
            "8",
            "--requests",
            "20",
            "--data-dir",
            bad.to_str().unwrap(),
        ])
        .unwrap_err();
        assert!(err.contains("cannot create data dir"), "{err}");
        std::fs::remove_file(blocker).ok();
    }

    #[test]
    fn serve_durable_chaos_json_is_byte_identical_across_runs() {
        let dir = temp_data_dir("servedurable");
        let run = |()| {
            run_tokens(&[
                "serve",
                "--docs",
                "24",
                "--requests",
                "90",
                "--chaos-seed",
                "7",
                "--fail-rate",
                "0.1",
                "--data-dir",
                dir.to_str().unwrap(),
                "--format",
                "json",
            ])
            .unwrap()
        };
        let (first, second) = (run(()), run(()));
        assert_eq!(first, second);
        // the crash/restart left a recoverable durable layout behind
        let report = run_tokens(&[
            "recover",
            "--data-dir",
            dir.to_str().unwrap(),
            "--format",
            "json",
        ])
        .unwrap();
        assert!(report.contains("\"shard\": 2"), "{report}");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn doctor_json_is_byte_identical_across_runs() {
        let run = || {
            run_tokens(&[
                "doctor",
                "--chaos-seed",
                "20050405",
                "--fail-rate",
                "0.15",
                "--docs",
                "24",
                "--rounds",
                "2",
                "--format",
                "json",
            ])
            .unwrap()
        };
        let first = run();
        assert_eq!(first, run(), "same seed must produce identical reports");
        assert!(first.contains("\"slos\""), "{first}");
        assert!(first.contains("\"bus-call-p99\""), "{first}");
        assert!(first.contains("\"nodes\""), "{first}");
        assert!(first.contains("\"exemplars\""), "{first}");
    }

    #[test]
    fn doctor_text_reports_slos_alerts_and_nodes() {
        let out = run_tokens(&[
            "doctor",
            "--chaos-seed",
            "20050405",
            "--docs",
            "24",
            "--rounds",
            "2",
        ])
        .unwrap();
        assert!(out.contains("DOCTOR REPORT @"), "{out}");
        assert!(out.contains("SLOS"), "{out}");
        assert!(out.contains("bus-call-p99"), "{out}");
        assert!(out.contains("ALERTS"), "{out}");
        assert!(out.contains("EXEMPLARS"), "{out}");
        assert!(out.contains("NODES"), "{out}");
        // chaos downs node 2: the scoreboard shows it
        assert!(out.contains("Down"), "{out}");
    }

    #[test]
    fn doctor_rejects_unknown_format() {
        let err = run_tokens(&["doctor", "--rounds", "1", "--format", "yaml"]).unwrap_err();
        assert!(err.contains("unknown --format"), "{err}");
        assert!(err.contains("(text|json)"), "{err}");
        for command in ["doctor", "top"] {
            let err = run_tokens(&[command, "--docs", "0"]).unwrap_err();
            assert!(err.contains("--docs must be at least 1"), "{err}");
        }
    }

    #[test]
    fn top_watch_renders_deterministic_frames() {
        let run = || {
            run_tokens(&[
                "top",
                "--chaos-seed",
                "20050405",
                "--docs",
                "24",
                "--watch",
                "2",
            ])
            .unwrap()
        };
        let first = run();
        assert_eq!(first, run(), "same seed must render identical frames");
        assert!(first.contains("FRAME 1 @"), "{first}");
        assert!(first.contains("FRAME 2 @"), "{first}");
        assert!(first.contains("NODES"), "{first}");
        assert!(first.contains("slos firing:"), "{first}");
        let err = run_tokens(&["top", "--watch", "0"]).unwrap_err();
        assert!(err.contains("--watch"), "{err}");
    }

    #[test]
    fn gen_corpus_then_mine() {
        let mut out = std::env::temp_dir();
        out.push(format!("wfsm-corpus-{}.txt", std::process::id()));
        let report = run_tokens(&[
            "gen-corpus",
            "--domain",
            "camera",
            "--out",
            out.to_str().unwrap(),
            "--docs",
            "5",
        ])
        .unwrap();
        assert!(report.contains("wrote 5 camera documents"), "{report}");
        let content = std::fs::read_to_string(&out).unwrap();
        assert_eq!(content.lines().count(), 5);
        std::fs::remove_file(out).ok();
    }

    #[test]
    fn gen_corpus_rejects_unknown_domain() {
        let err = run_tokens(&["gen-corpus", "--domain", "cooking", "--out", "x"]).unwrap_err();
        assert!(err.contains("unknown domain"));
    }

    #[test]
    fn unknown_command_shows_usage() {
        let err = run_tokens(&["frobnicate"]).unwrap_err();
        assert!(err.contains("unknown command"));
        assert!(err.contains("USAGE"));
    }

    #[test]
    fn help_and_empty() {
        assert!(run_tokens(&["help"]).unwrap().contains("USAGE"));
        assert!(run_tokens(&[]).unwrap().contains("USAGE"));
    }

    #[test]
    fn missing_options_error_cleanly() {
        assert!(run_tokens(&["analyze"]).unwrap_err().contains("--subjects"));
        assert!(run_tokens(&["query", "--subject", "x"])
            .unwrap_err()
            .contains("--data-dir"));
        assert!(run_tokens(&["features"])
            .unwrap_err()
            .contains("positional"));
    }

    #[test]
    fn serve_one_shot_subject_both_formats() {
        let text = run_tokens(&["serve", "--docs", "20", "--subject", "Canon"]).unwrap();
        assert!(text.contains("canon:"), "{text}");
        assert!(text.contains("positive"), "{text}");
        let json = run_tokens(&[
            "serve",
            "--docs",
            "20",
            "--subject",
            "Canon",
            "--format",
            "json",
        ])
        .unwrap();
        assert!(json.contains("\"subject\":\"canon\""), "{json}");
        assert!(json.contains("\"postings\":"), "{json}");
    }

    #[test]
    fn serve_one_shot_top_k() {
        let out = run_tokens(&["serve", "--docs", "20", "--top", "2", "--polarity", "-"]).unwrap();
        assert!(out.contains("top 2 by -"), "{out}");
        assert!(out.contains("1."), "{out}");
    }

    #[test]
    fn serve_unknown_subject_is_a_clean_error() {
        let err = run_tokens(&["serve", "--docs", "20", "--subject", "zorblax"]).unwrap_err();
        assert!(err.contains("not found"), "{err}");
        assert!(err.contains("zorblax"), "{err}");
    }

    #[test]
    fn serve_rejects_bad_flags() {
        assert!(run_tokens(&["serve", "--format", "yaml"])
            .unwrap_err()
            .contains("unknown --format"));
        assert!(run_tokens(&["serve", "--clients", "0"])
            .unwrap_err()
            .contains("--clients must be at least 1"));
        assert!(run_tokens(&["serve", "--qps", "0"])
            .unwrap_err()
            .contains("--qps must be at least 1"));
        assert!(run_tokens(&["serve", "--requests", "0"])
            .unwrap_err()
            .contains("--requests must be at least 1"));
        assert!(run_tokens(&["serve", "--clients", "many"])
            .unwrap_err()
            .contains("bad --clients"));
        assert!(run_tokens(&["serve", "--docs", "0"])
            .unwrap_err()
            .contains("--docs must be at least 1"));
        assert!(run_tokens(&["serve", "--fail-rate", "0.5"])
            .unwrap_err()
            .contains("requires --chaos-seed"));
        assert!(
            run_tokens(&["serve", "--chaos-seed", "7", "--fail-rate", "1.5"])
                .unwrap_err()
                .contains("must be in [0, 1]")
        );
    }

    #[test]
    fn metrics_rejects_unknown_format_and_bad_values() {
        let docs = temp_file("metricfmt", "The Canon takes excellent pictures.\n");
        let err = run_tokens(&[
            "metrics",
            "--input",
            docs.to_str().unwrap(),
            "--format",
            "yaml",
        ])
        .unwrap_err();
        assert!(err.contains("unknown --format"), "{err}");
        assert!(err.contains("(table|json)"), "{err}");
        let err = run_tokens(&[
            "metrics",
            "--input",
            docs.to_str().unwrap(),
            "--chaos-seed",
            "not-a-number",
        ])
        .unwrap_err();
        assert!(err.contains("bad --chaos-seed"), "{err}");
        std::fs::remove_file(docs).ok();
    }

    #[test]
    fn serve_rejects_bad_seed_queue_and_cache_values() {
        assert!(run_tokens(&["serve", "--seed", "soon"])
            .unwrap_err()
            .contains("bad --seed"));
        assert!(run_tokens(&["serve", "--queue", "0"])
            .unwrap_err()
            .contains("--queue must be at least 1"));
        assert!(run_tokens(&["serve", "--cache", "lots"])
            .unwrap_err()
            .contains("bad --cache"));
        assert!(run_tokens(&["serve", "--chaos-seed", "x"])
            .unwrap_err()
            .contains("bad --chaos-seed"));
        // one parser for the serve loop's flags, whichever command runs it
        for command in [
            &["serve", "--docs", "4"][..],
            &["timeline", "--workload", "serve", "--docs", "4"],
        ] {
            for (flag, value, error) in [
                ("--queue", "0", "--queue must be at least 1"),
                ("--cache", "x", "bad --cache"),
            ] {
                let tokens: Vec<&str> = command.iter().copied().chain([flag, value]).collect();
                let err = run_tokens(&tokens).unwrap_err();
                assert!(err.contains(error), "{tokens:?}: {err}");
            }
        }
    }

    #[test]
    fn timeline_serve_workload_is_deterministic() {
        let args = [
            "timeline",
            "--docs",
            "20",
            "--clients",
            "4",
            "--qps",
            "300",
            "--requests",
            "60",
            "--interval",
            "25",
            "--format",
            "json",
        ];
        let a = run_tokens(&args).unwrap();
        let b = run_tokens(&args).unwrap();
        assert_eq!(a, b, "same seed must export byte-identical timelines");
        assert!(a.contains("\"serving.requests\""), "{a}");
        assert!(a.contains("\"increase\""), "{a}");
        let mut table_args = args.to_vec();
        table_args.truncate(table_args.len() - 2);
        let table = run_tokens(&table_args).unwrap();
        assert!(table.contains("TIMELINE"), "{table}");
        assert!(table.contains("serving.requests"), "{table}");
    }

    #[test]
    fn timeline_mine_workload_scrapes_cluster_ops() {
        let out = run_tokens(&[
            "timeline",
            "--workload",
            "mine",
            "--docs",
            "16",
            "--interval",
            "5",
        ])
        .unwrap();
        assert!(out.contains("pipeline.processed"), "{out}");
    }

    #[test]
    fn timeline_and_profile_reject_bad_flags() {
        assert!(run_tokens(&["timeline", "--format", "csv"])
            .unwrap_err()
            .contains("unknown --format"));
        assert!(run_tokens(&["timeline", "--workload", "bake"])
            .unwrap_err()
            .contains("unknown --workload"));
        assert!(run_tokens(&["timeline", "--interval", "0"])
            .unwrap_err()
            .contains("--interval must be at least 1"));
        assert!(run_tokens(&["profile", "--format", "svg"])
            .unwrap_err()
            .contains("unknown --format"));
        assert!(run_tokens(&["profile", "--last", "few"])
            .unwrap_err()
            .contains("bad --last"));
        assert!(run_tokens(&["profile", "--fail-rate", "0.5"])
            .unwrap_err()
            .contains("requires --chaos-seed"));
    }

    #[test]
    fn profile_serve_workload_attributes_stages() {
        let args = [
            "profile",
            "--docs",
            "20",
            "--clients",
            "4",
            "--qps",
            "300",
            "--requests",
            "60",
        ];
        let text = run_tokens(&args).unwrap();
        assert!(text.contains("serve.query"), "{text}");
        assert!(text.contains("cache_lookup"), "{text}");
        assert!(text.contains("shard_fanout"), "{text}");
        let mut collapsed_args = args.to_vec();
        collapsed_args.extend_from_slice(&["--format", "collapsed"]);
        let a = run_tokens(&collapsed_args).unwrap();
        let b = run_tokens(&collapsed_args).unwrap();
        assert_eq!(a, b, "same seed must export byte-identical stacks");
        assert!(a.contains("serve.query;"), "{a}");
    }

    #[test]
    fn profile_mine_workload_shows_nlp_stages() {
        let out = run_tokens(&["profile", "--workload", "mine", "--docs", "16"]).unwrap();
        for stage in [
            "nlp.tokenize",
            "nlp.pos",
            "nlp.chunk",
            "nlp.clause",
            "nlp.ner",
        ] {
            assert!(out.contains(stage), "missing {stage} in:\n{out}");
        }
    }

    #[test]
    fn serve_loop_reports_and_is_deterministic() {
        let args = [
            "serve",
            "--docs",
            "20",
            "--clients",
            "4",
            "--qps",
            "300",
            "--requests",
            "80",
        ];
        let text = run_tokens(&args).unwrap();
        assert!(text.contains("slos firing:"), "{text}");
        assert!(text.contains("requests"), "{text}");

        let mut json_args = args.to_vec();
        json_args.extend_from_slice(&["--format", "json"]);
        let a = run_tokens(&json_args).unwrap();
        let b = run_tokens(&json_args).unwrap();
        assert_eq!(a, b, "same-seed serve runs must be byte-identical");
        assert!(a.contains("\"requests\": 80"), "{a}");
    }

    /// Small chaos workload shared by the `logs` / `diff` tests: enough
    /// faults that the event log is non-empty, small enough to be fast.
    const LOGS_ARGS: [&str; 13] = [
        "logs",
        "--chaos-seed",
        "7",
        "--fail-rate",
        "0.2",
        "--docs",
        "20",
        "--clients",
        "4",
        "--qps",
        "300",
        "--requests",
        "80",
    ];

    #[test]
    fn logs_text_and_json_are_deterministic() {
        let a = run_tokens(&LOGS_ARGS).unwrap();
        let b = run_tokens(&LOGS_ARGS).unwrap();
        assert_eq!(a, b, "same-seed logs must be byte-identical");
        assert!(a.starts_with("evlog: emitted="), "{a}");
        assert!(a.contains("serving.loop"), "{a}");

        let mut json_args = LOGS_ARGS.to_vec();
        json_args.extend_from_slice(&["--format", "json"]);
        let ja = run_tokens(&json_args).unwrap();
        let jb = run_tokens(&json_args).unwrap();
        assert_eq!(ja, jb, "same-seed json logs must be byte-identical");
        assert!(ja.contains("\"records\""), "{ja}");
    }

    #[test]
    fn logs_filters_compose() {
        let mut args = LOGS_ARGS.to_vec();
        args.extend_from_slice(&["--level", "warn", "--target", "serving."]);
        args.push("kind=node_down");
        let out = run_tokens(&args).unwrap();
        for line in out.lines().skip(1) {
            assert!(line.contains("WARN"), "level filter leaked: {line}");
            assert!(
                line.contains("serving.loop"),
                "target filter leaked: {line}"
            );
            assert!(
                line.contains("kind=node_down"),
                "field filter leaked: {line}"
            );
        }
    }

    #[test]
    fn logs_rejects_bad_arguments() {
        let err = run_tokens(&["logs", "--format", "yaml"]).unwrap_err();
        assert_eq!(err, "unknown --format \"yaml\" (text|json)");
        let err = run_tokens(&["logs", "--level", "loud"]).unwrap_err();
        assert_eq!(err, "unknown level \"loud\" (error|warn|info|debug)");
        let err = run_tokens(&["logs", "not-a-term"]).unwrap_err();
        assert_eq!(err, "malformed filter \"not-a-term\" (expected key=value)");
        let err = run_tokens(&["logs", "--trace", "abc"]).unwrap_err();
        assert!(err.starts_with("bad --trace:"), "{err}");
        let err = run_tokens(&["logs", "--since", "soon"]).unwrap_err();
        assert!(err.starts_with("bad --since:"), "{err}");
    }

    #[test]
    fn diff_same_seed_runs_report_ok() {
        let mut args = LOGS_ARGS.to_vec();
        args[0] = "profile";
        args.extend_from_slice(&["--format", "json"]);
        let a = temp_file("diff-a", &run_tokens(&args).unwrap());
        let b = temp_file("diff-b", &run_tokens(&args).unwrap());
        let out = run_tokens(&["diff", a.to_str().unwrap(), b.to_str().unwrap()]).unwrap();
        assert!(out.contains("— ok"), "{out}");
        assert!(out.contains("0 regression(s)"), "{out}");
        std::fs::remove_file(a).ok();
        std::fs::remove_file(b).ok();
    }

    #[test]
    fn diff_perturbed_run_attributes_regressions_deterministically() {
        let mut base = LOGS_ARGS.to_vec();
        base[0] = "profile";
        base.extend_from_slice(&["--format", "json"]);
        let mut perturbed = base.clone();
        perturbed[2] = "9"; // different chaos seed
        perturbed[4] = "0.35"; // heavier faults
        let a = temp_file("diff-base", &run_tokens(&base).unwrap());
        let b = temp_file("diff-pert", &run_tokens(&perturbed).unwrap());
        let args = [
            "diff",
            a.to_str().unwrap(),
            b.to_str().unwrap(),
            "--format",
            "json",
        ];
        let out1 = run_tokens(&args).unwrap();
        let out2 = run_tokens(&args).unwrap();
        assert_eq!(out1, out2, "diff of fixed artifacts must be byte-identical");
        assert!(out1.contains("\"kind\": \"profile\""), "{out1}");
        assert!(
            !out1.contains("\"verdict\": \"ok\""),
            "perturbed run should not diff clean: {out1}"
        );
        std::fs::remove_file(a).ok();
        std::fs::remove_file(b).ok();
    }

    #[test]
    fn diff_rejects_bad_arguments() {
        let err = run_tokens(&["diff", "only-one.json"]).unwrap_err();
        assert!(err.contains("exactly two artifact paths"), "{err}");
        let a = temp_file("diff-real", "{\"counters\": {}}");
        let err = run_tokens(&["diff", a.to_str().unwrap(), "/no/such/file.json"]).unwrap_err();
        assert!(err.starts_with("cannot read /no/such/file.json:"), "{err}");
        let garbage = temp_file("diff-garbage", "not json at all");
        let err =
            run_tokens(&["diff", garbage.to_str().unwrap(), a.to_str().unwrap()]).unwrap_err();
        assert!(err.starts_with("run-a is not JSON:"), "{err}");
        let err = run_tokens(&[
            "diff",
            a.to_str().unwrap(),
            garbage.to_str().unwrap(),
            "--format",
            "yaml",
        ])
        .unwrap_err();
        assert_eq!(err, "unknown --format \"yaml\" (text|json)");
        std::fs::remove_file(a).ok();
        std::fs::remove_file(garbage).ok();
    }
}
