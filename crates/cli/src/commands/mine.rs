//! Commands over a mining run or the data dir it leaves: `mine`,
//! `metrics`, `trace`, `query`, `search` and `recover`.

use super::*;

/// The options [`run_mine_pipeline`] reads besides the chaos pair.
pub(super) const RUN: &[&str] = &["input", "data-dir", "subjects"];

/// The mining-run core shared by `mine`, `metrics --input` and `trace`:
/// parses the chaos flags, loads the documents, runs the pipeline, and
/// returns the mined store (whose telemetry registry holds the run's
/// instruments).
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
            RawDocument::new(format!("file://{input}#{i}"), SourceKind::Web, text.clone())
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

pub(super) fn mine(args: &ParsedArgs) -> Result<String, String> {
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

fn explain_report(store: &DataStore) -> Result<String, String> {
    let indexer = Indexer::new();
    indexer.index_store(store);
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
pub(super) fn metrics(args: &ParsedArgs) -> Result<String, String> {
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

pub(super) fn query(args: &ParsedArgs) -> Result<String, String> {
    let subject = args.require("subject")?;
    let polarity = match args.opt("polarity") {
        None => None,
        Some(p) => {
            Some(Polarity::parse(p).ok_or_else(|| format!("bad --polarity {p:?} (use + or -)"))?)
        }
    };
    let (store, warnings) = recover_data_dir(args)?;
    let indexer = Indexer::new();
    indexer.index_store(&store);
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

pub(super) fn search(args: &ParsedArgs) -> Result<String, String> {
    let query_text = args.require("query")?;
    let query = parse_query(query_text).map_err(|e| e.to_string())?;
    let (store, warnings) = recover_data_dir(args)?;
    let indexer = Indexer::new();
    indexer.index_store(&store);
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
pub(super) fn trace(args: &ParsedArgs) -> Result<String, String> {
    let (store, _, _) = run_mine_pipeline(args)?;
    let last: usize = args.parse_or("last", 10)?;
    let recorder = store.telemetry().recorder();
    match parse_format(args, "text", &["text", "json", "chrome"])? {
        "json" => Ok(recorder.export_json_string(last) + "\n"),
        "chrome" => Ok(recorder.export_chrome_string(last) + "\n"),
        _ => Ok(recorder.export_text(last)),
    }
}

/// `wfsm recover`: a read-only recovery report over a durable data dir.
/// Never repairs anything, so two runs over the same dir are
/// byte-identical.
pub(super) fn recover(args: &ParsedArgs) -> Result<String, String> {
    let dir = args.require("data-dir")?;
    let format = parse_format(args, "text", &["text", "json"])?;
    let storage = DurableStorage::open_dir(Path::new(dir)).map_err(|e| e.to_string())?;
    let report = storage.recovery_report().map_err(|e| e.to_string())?;
    Ok(match format {
        "json" => report.to_json_string() + "\n",
        _ => report.to_table(),
    })
}
