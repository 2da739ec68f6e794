//! `wfsm` subcommand implementations.
//!
//! [`COMMANDS`] is the one place where subcommands and their options are
//! declared: [`run`] dispatches through it, rejecting anything a command
//! does not declare before the command does any work, and [`usage`] is
//! built from it. The commands live in one module per workload family.
//! Each command reads plain text (stdin or `--file`; `mine`/`features`
//! read one document per line) and writes a human-readable report to the
//! returned string, so commands are directly testable.

mod diff;
mod health;
mod mine;
mod serve;
#[cfg(test)]
mod tests;
mod text;

// the family modules share these imports through `use super::*`
use crate::args::ParsedArgs;
use std::path::Path;
use std::sync::Arc;
use wf_features::{FeatureExtractor, Selection, CHI2_95};
use wf_platform::{
    default_slos, parse_query, render_scoreboard, Artifact, Cluster, DataStore, DoctorReport,
    DurableStorage, FaultContext, FaultPlan, HealthEngine, Indexer, Ingestor, Level, LogFilter,
    MinerPipeline, NodeHealth, PipelineStats, Profile, RawDocument, RunDiff, RunOpts, ServeLoop,
    ServingBackend, ServingConfig, SourceKind, StopReason, Telemetry, TelemetrySnapshot,
    TimeSeriesStore, DEFAULT_SCRAPE_INTERVAL_MS, DEFAULT_TIMELINE_CAPACITY,
};
use wf_sentiment::{
    mention_polarities, AdhocSentimentMiner, SentimentEntityMiner, SentimentMiner,
    SentimentQueryService, SentimentServingBackend, ShardedSentimentIndex, SubjectList,
};
use wf_types::{NodeId, Polarity, RetryPolicy};

/// One `wfsm` subcommand: its name, its help text (the synopsis after
/// `wfsm NAME`, then the description), what it accepts, and what runs it.
pub struct Command {
    pub name: &'static str,
    pub help: &'static str,
    /// Groups of options that take a value.
    pub options: &'static [&'static [&'static str]],
    /// Options that take no value.
    pub flags: &'static [&'static str],
    /// Whether bare arguments are accepted (the command checks their
    /// number and form itself).
    pub positionals: bool,
    /// Modes that leave some of the declared options unread.
    pub modes: &'static [Mode],
    pub run: fn(&ParsedArgs) -> Result<String, String>,
}

/// A mode of a command, chosen by its options, and the options it never
/// reads: giving one of them is an error.
pub struct Mode {
    pub when: When,
    pub unread: &'static [&'static [&'static str]],
}

/// What chooses a [`Mode`].
pub enum When {
    /// `--KEY` is given.
    Given(&'static str),
    /// `--KEY` is given this value.
    Is(&'static str, &'static str),
    /// `--KEY` is not given.
    Absent(&'static str),
}

impl Mode {
    /// How an error names this mode, if `args` choose it.
    fn chosen(&self, args: &ParsedArgs) -> Option<String> {
        match self.when {
            When::Given(key) => args.opt(key).map(|_| format!("with --{key}")),
            When::Is(key, value) => {
                (args.opt(key) == Some(value)).then(|| format!("with --{key} {value}"))
            }
            When::Absent(key) => args.opt(key).is_none().then(|| format!("without --{key}")),
        }
    }
}

/// Every subcommand, in the order `wfsm help` lists them.
#[rustfmt::skip]
pub const COMMANDS: &[Command] = &[
    Command { name: "analyze", help: "--subjects A,B[,C...] [--file PATH]
      Target-level sentiment for each subject mention (text from stdin
      or --file).",
        options: &[&["subjects", "file"]], flags: &[], positionals: false, modes: &[], run: text::analyze },
    Command { name: "entities", help: "[--file PATH]
      Named entities plus their mention sentiment (no subject list).",
        options: &[&["file"]], flags: &[], positionals: false, modes: &[], run: text::entities },
    Command { name: "features", help: "<D_PLUS.txt> <D_MINUS.txt> [--top N]
      Feature terms by bBNP + likelihood ratio; inputs are one document
      per line.",
        options: &[&["top"]], flags: &[], positionals: true, modes: &[], run: text::features },
    Command { name: "mine", help: "--input DOCS.txt [--data-dir DIR] [--subjects A,B]
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
      representative boolean / phrase / range / regex queries.",
        options: &[mine::RUN, CHAOS, &["metrics"]],
        flags: &["explain"], positionals: false, modes: &[], run: mine::mine },
    Command { name: "metrics", help: "--file M.json [--format table|json]
  wfsm metrics  --input DOCS.txt [--subjects A,B] [--chaos-seed S]
                [--fail-rate P] [--data-dir DIR] [--format table|json]
      Render a telemetry snapshot — either one exported by `mine
      --metrics`, or from a fresh in-memory mining run — as a
      human-readable table (default) or canonical JSON (--format json;
      --json is accepted as an alias).",
        options: &[mine::RUN, CHAOS, &["file", "format"]],
        flags: &["json"], positionals: false,
        modes: &[Mode { when: When::Given("file"), unread: &[mine::RUN, CHAOS] }],
        run: mine::metrics },
    Command { name: "query", help: "--data-dir DIR --subject NAME [--polarity +|-]
      Query a mined data dir for a subject's sentiment-bearing sentences.",
        options: &[&["data-dir", "subject", "polarity"]],
        flags: &[], positionals: false, modes: &[], run: mine::query },
    Command { name: "search", help: "--data-dir DIR --query 'camera AND (battery OR \"picture quality\")'
                [--explain]
      Boolean/phrase/meta/concept/regex/range search over a data dir's
      index. With --explain, also print the executed query plan with
      per-node postings scanned, pruning and simulated cost. Both read
      the store the way `wfsm recover` does (snapshot + WAL replay, no
      repair); a shard whose replay stopped early answers from its
      valid prefix and adds one warning line.",
        options: &[&["data-dir", "query"]],
        flags: &["explain"], positionals: false, modes: &[], run: mine::search },
    Command { name: "trace", help: "--input DOCS.txt [--subjects A,B] [--chaos-seed S]
                [--fail-rate P] [--data-dir DIR] [--last N]
                [--format text|json|chrome]
      Run the mining pipeline in memory and export the flight recorder's
      last N traces (default 10): an ASCII waterfall (text), a canonical
      JSON tree (json), or a Chrome trace_event file for chrome://tracing
      (chrome). Same seed ⇒ byte-identical output.",
        options: &[mine::RUN, CHAOS, &["last", "format"]],
        flags: &[], positionals: false, modes: &[], run: mine::trace },
    Command { name: "doctor", help: "[--chaos-seed S] [--fail-rate P] [--docs N] [--rounds N]
                [--format text|json]
      Run a deterministic health workload on a simulated 4-node cluster
      (ingest → bus probes → mining → index rebuild, per round) and print
      the doctor report: SLO burn rates, the burn-rate alert log, each
      histogram's worst exemplar (live == dumpable with `wfsm trace`),
      and the per-node scoreboard. With --chaos-seed, faults are injected
      and two nodes are degraded/downed so SLOs breach. Same seed ⇒
      byte-identical output.",
        options: &[CHAOS, &["docs", "rounds", "format"]],
        flags: &[], positionals: false, modes: &[], run: health::doctor },
    Command { name: "top", help: "[--chaos-seed S] [--fail-rate P] [--docs N] [--watch N]
      Per-node scoreboard for the same workload: one-shot by default,
      or N deterministic refresh frames (one workload round each) with
      --watch N.",
        options: &[CHAOS, &["docs", "watch"]], flags: &[], positionals: false, modes: &[], run: health::top },
    Command { name: "serve", help: "[--docs N] [--subject NAME | --top K [--polarity +|-|0]]
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
      byte-identical --format json output.",
        options: &[serve::LOOP, CHAOS, &["docs", "subject", "top", "polarity", "data-dir", "format"]],
        flags: &[], positionals: false, modes: serve::MODES, run: serve::serve },
    Command { name: "timeline", help: "[--workload serve|mine] [--interval MS] [--docs N]
                [--chaos-seed S] [--fail-rate P] [--format table|json]
      Run a deterministic workload — the serving request loop (default)
      or a batched mining run — scraping the telemetry registry into a
      fixed-capacity time-series ring on the simulated clock, and render
      the windowed rollups: counter rate/increase, gauge last/min/max,
      histogram-delta p50/p95/p99 per scrape window. Serving flags
      (--clients --qps --requests --cache --queue --seed) apply to the
      serve workload. Same seed ⇒ byte-identical --format json output.",
        options: &[serve::OBSERVED, serve::LOOP, CHAOS, &["format"]],
        flags: &[], positionals: false, modes: serve::MINE_WORKLOAD, run: serve::timeline },
    Command { name: "profile", help: "[--workload serve|mine] [--last N]
                [--format text|collapsed|json] [--docs N]
                [--chaos-seed S] [--fail-rate P] [--interval MS]
                [--clients C] [--qps Q] [--requests R] [--cache N]
                [--queue N] [--seed S]
      Run the same workload and fold the flight recorder's spans (last N
      traces, default all) into a deterministic self/total-time profile
      tree with per-stage attribution: cache-lookup / shard-fanout /
      postings-merge on the serving path, nlp.tokenize … nlp.ner in the
      mining path. Formats: annotated tree with top hotspots (text),
      flamegraph collapsed stacks (collapsed), canonical JSON (json).",
        options: &[serve::OBSERVED, serve::LOOP, CHAOS, &["last", "format"]],
        flags: &[], positionals: false, modes: serve::MINE_WORKLOAD, run: serve::profile },
    Command { name: "logs", help: "[--workload serve|mine] [--level error|warn|info|debug]
                [--target PREFIX] [--trace ID] [--since MS] [--until MS]
                [--format text|json] [KEY=VALUE ...] [--docs N]
                [--chaos-seed S] [--fail-rate P] [--interval MS]
                [--clients C] [--qps Q] [--requests R] [--cache N]
                [--queue N] [--seed S]
      Run the same deterministic workload and query its structured event
      log: leveled records on the simulated clock with stable targets
      (bus.svc:*, ingest, miner.shard:*, index.shard:*, store.shard:*,
      durable.shard:*, serving.loop), key=value fields and trace
      correlation IDs that resolve in `wfsm trace`. Filters AND
      together: --level is a maximum severity, --target a prefix
      match, positional KEY=VALUE terms match record fields exactly.
      The header reports the conservation law (emitted = kept +
      sampled + dropped). Same seed ⇒ byte-identical output (text and
      json).",
        options: &[serve::OBSERVED, serve::LOOP, CHAOS,
                   &["level", "target", "trace", "since", "until", "format"]],
        flags: &[], positionals: true, modes: serve::MINE_WORKLOAD, run: serve::logs },
    Command { name: "diff", help: "RUN_A.json RUN_B.json [--format text|json]
      Compare two exported run artifacts — telemetry snapshots from
      `mine --metrics`/`wfsm metrics --format json`, or profile trees
      from `wfsm profile --format json`. Reports per-counter/per-gauge
      deltas or per-stage self-time deltas with regression attribution
      (stage slower in run B), and a machine-readable verdict
      (ok | changed | regressed) that tools/bench_gate.py can consume.
      Same-seed runs diff to \"ok\"; a perturbed run yields deterministic
      non-empty attribution.",
        options: &[&["format"]], flags: &[], positionals: true, modes: &[], run: diff::diff },
    Command { name: "recover", help: "--data-dir DIR [--format text|json]
      Read-only recovery report over a durable data dir written by `mine
      --data-dir` / `serve --data-dir`: per shard, what the snapshot
      holds, how many WAL records replay, the last valid LSN and why
      replay stopped (end_of_log | torn_tail | bad_crc | bad_payload).
      Never repairs anything, so running it twice over the same dir is
      byte-identical (--format json is canonical).",
        options: &[&["data-dir", "format"]], flags: &[], positionals: false, modes: &[], run: mine::recover },
    Command { name: "gen-corpus", help: "--domain camera|music|petroleum|pharma --out DOCS.txt
                [--docs N] [--seed S]
      Write a synthetic gold-labeled evaluation corpus, one document per
      line (feed it back into `wfsm mine`).",
        options: &[&["domain", "out", "docs", "seed"]],
        flags: &[], positionals: false, modes: &[], run: text::gen_corpus },
    Command { name: "help", help: "
      This message.",
        options: &[], flags: &[], positionals: false, modes: &[], run: |_| Ok(usage()) },
];

/// Dispatches a parsed command line. Returns the report to print.
pub fn run(args: &ParsedArgs) -> Result<String, String> {
    if args.command.is_empty() {
        return Ok(usage());
    }
    let Some(command) = COMMANDS.iter().find(|c| c.name == args.command) else {
        return Err(format!("unknown command {:?}\n\n{}", args.command, usage()));
    };
    command.check(args)?;
    (command.run)(args)
}

impl Command {
    /// Rejects an option, flag or bare argument this command does not
    /// declare, or an option its chosen mode never reads, naming it and
    /// the command.
    fn check(&self, args: &ParsedArgs) -> Result<(), String> {
        let takes = |key: &str| self.options.iter().any(|group| group.contains(&key));
        let is_flag = |key: &str| self.flags.contains(&key);
        let problem = if let Some((key, value)) = args.options.iter().find(|(k, _)| !takes(k)) {
            match is_flag(key) {
                true => format!("--{key} takes no value, got {value:?}"),
                false => format!("unknown option --{key}"),
            }
        } else if let Some(flag) = args.flags.iter().find(|f| !is_flag(f)) {
            match takes(flag) {
                true => format!("--{flag} needs a value"),
                false => format!("unknown option --{flag}"),
            }
        } else if let (false, Some(stray)) = (self.positionals, args.positional.first()) {
            format!("unexpected argument {stray:?}")
        } else if let Some((key, mode)) = self.modes.iter().find_map(|mode| {
            let chosen = mode.chosen(args)?;
            let mut unread = mode.unread.iter().flat_map(|group| group.iter());
            Some((unread.find(|k| args.opt(k).is_some())?, chosen))
        }) {
            format!("--{key} is not read {mode}")
        } else {
            return Ok(());
        };
        Err(format!("wfsm {}: {problem}", self.name))
    }
}

/// Top-level usage text.
pub fn usage() -> String {
    let mut out = String::from(
        "wfsm — WebFountain sentiment mining (Yi & Niblack, ICDE 2005 reproduction)\n\nUSAGE:\n",
    );
    for command in COMMANDS {
        let entry = format!("  wfsm {:<8} {}", command.name, command.help);
        for line in entry.lines() {
            out.push_str(line.trim_end());
            out.push('\n');
        }
    }
    out
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

/// The options [`parse_chaos`] reads.
const CHAOS: &[&str] = &["chaos-seed", "fail-rate"];

/// Parses `--chaos-seed S [--fail-rate P]`, shared by every command that
/// can run under deterministic fault injection: `Some((seed, rate))`
/// under chaos, the rate defaulting to `default_fail_rate`.
fn parse_chaos(args: &ParsedArgs, default_fail_rate: f64) -> Result<Option<Chaos>, String> {
    let chaos_seed: Option<u64> = args.parse_opt("chaos-seed")?;
    let fail_rate = args.parse_or("fail-rate", default_fail_rate)?;
    if args.opt("fail-rate").is_some() && chaos_seed.is_none() {
        return Err("--fail-rate requires --chaos-seed".into());
    }
    if !(0.0..=1.0).contains(&fail_rate) {
        return Err(format!("--fail-rate must be in [0, 1], got {fail_rate}"));
    }
    Ok(chaos_seed.map(|seed| (seed, fail_rate)))
}
