//! Tests for every `wfsm` command, and for the command table itself:
//! what it rejects, what its help documents and what CI runs.

use super::*;
use std::collections::BTreeSet;

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
        let err = run_tokens(&[command, "--chaos-seed", "1", "--fail-rate", "1.5"]).unwrap_err();
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
    let err = run_tokens(&["diff", garbage.to_str().unwrap(), a.to_str().unwrap()]).unwrap_err();
    let not_json = format!("{} is not JSON:", garbage.display());
    assert!(err.starts_with(&not_json), "{err}");
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

/// `diff` reads a metrics artifact through the reader `metrics --file`
/// uses, so a counter or histogram that reader rejects is an error
/// naming the file and the field, not a 0 or an empty histogram.
#[test]
fn diff_rejects_a_metrics_artifact_that_metrics_file_rejects() {
    let histogram = |buckets: &str| {
        format!(
            r#"{{"counters": {{}}, "histograms": {{"h": {{"count": 3, "sum": 3, "min": 1, "max": 1, {buckets}}}}}}}"#
        )
    };
    let cases = [
        (
            "diff-counter-bad",
            r#"{"counters": {"x": "many"}}"#.to_string(),
            "counter x must be a non-negative integer, got string",
        ),
        (
            "diff-hist-lots",
            histogram(r#""buckets": "lots""#),
            "histogram h buckets must be an array, got string",
        ),
        (
            "diff-hist-short",
            histogram(r#""buckets": [{"le": 1, "count": 2}]"#),
            "histogram h buckets must sum to its count 3",
        ),
    ];
    let good = temp_file("diff-counter-good", r#"{"counters": {"x": 5}}"#);
    let good_path = good.to_str().unwrap();
    for (name, text, reason) in cases {
        let bad = temp_file(name, &text);
        let bad_path = bad.to_str().unwrap();
        let err = run_tokens(&["diff", bad_path, good_path]).unwrap_err();
        assert_eq!(err, format!("{bad_path}: {reason}"));
        let err = run_tokens(&["diff", good_path, bad_path]).unwrap_err();
        assert_eq!(err, format!("{bad_path}: {reason}"));
        let err = run_tokens(&["metrics", "--file", bad_path]).unwrap_err();
        assert_eq!(err, format!("bad metrics snapshot {bad_path}: {reason}"));
        std::fs::remove_file(bad).ok();
    }
    std::fs::remove_file(good).ok();
}

/// `diff` reads a profile artifact through the derived reader of the
/// JSON profile: a node with a non-numeric `count` or without `self_ms`
/// is an error naming the file and the field.
#[test]
fn diff_rejects_a_profile_node_with_a_bad_or_missing_field() {
    let profile = |fields: &str| {
        format!(
            r#"{{"spans": 1, "total_ms": 3, "attributed_milli": 1000,
                "roots": [{{"name": "stage", "total_ms": 3, "children": [], {fields}}}]}}"#
        )
    };
    let good = temp_file("diff-node-good", &profile(r#""self_ms": 3, "count": 1"#));
    let good_path = good.to_str().unwrap();
    let cases = [
        (
            "diff-node-count",
            r#""self_ms": 3, "count": "two""#,
            "ProfileNodeJson.count: expected u64, got string",
        ),
        (
            "diff-node-self",
            r#""count": 1"#,
            "ProfileNodeJson.self_ms: expected u64, got null",
        ),
    ];
    for (name, fields, reason) in cases {
        let bad = temp_file(name, &profile(fields));
        let bad_path = bad.to_str().unwrap();
        let err = run_tokens(&["diff", good_path, bad_path]).unwrap_err();
        assert!(err.starts_with(&format!("{bad_path}: ")), "{err}");
        assert!(err.ends_with(reason), "{err}");
        std::fs::remove_file(bad).ok();
    }
    let out = run_tokens(&["diff", good_path, good_path]).unwrap();
    assert!(out.contains("— ok"), "{out}");
    std::fs::remove_file(good).ok();
}

/// The profile reader accepts exactly what `profile --format json`
/// writes: a real export reads back and re-renders to the same bytes.
#[test]
fn profile_json_reads_back_to_the_same_bytes() {
    let mut args = LOGS_ARGS.to_vec();
    args[0] = "profile";
    args.extend_from_slice(&["--format", "json"]);
    let written = run_tokens(&args).unwrap();
    let read: wf_platform::ProfileJson = serde_json::from_str(&written).unwrap();
    assert!(!read.roots.is_empty(), "{written}");
    let rewritten = serde_json::to_string_pretty(&read).unwrap();
    assert_eq!(rewritten.trim_end(), written.trim_end());
}

#[test]
fn mine_rejects_an_option_it_does_not_declare() {
    let docs = temp_file("minesubject", "The camera has excellent picture quality.\n");
    let err = run_tokens(&[
        "mine",
        "--input",
        docs.to_str().unwrap(),
        "--subject",
        "camera",
    ])
    .unwrap_err();
    assert_eq!(err, "wfsm mine: unknown option --subject");
    let err = run_tokens(&[
        "mine",
        "--input",
        docs.to_str().unwrap(),
        "--explain",
        "yes",
    ])
    .unwrap_err();
    assert_eq!(err, "wfsm mine: --explain takes no value, got \"yes\"");
    std::fs::remove_file(docs).ok();
}

#[test]
fn serve_subject_without_a_name_is_rejected() {
    let err = run_tokens(&["serve", "--docs", "4", "--subject"]).unwrap_err();
    assert_eq!(err, "wfsm serve: --subject needs a value");
}

#[test]
fn serve_rejects_a_misspelt_option() {
    let err = run_tokens(&["serve", "--docs", "4", "--requests", "8", "--qsp", "5"]).unwrap_err();
    assert_eq!(err, "wfsm serve: unknown option --qsp");
}

#[test]
fn features_top_without_a_count_is_rejected() {
    let dp = temp_file("topdplus", "The battery lasts long.\n");
    let dm = temp_file("topdminus", "The team won again.\n");
    let err = run_tokens(&[
        "features",
        dp.to_str().unwrap(),
        dm.to_str().unwrap(),
        "--top",
    ])
    .unwrap_err();
    assert_eq!(err, "wfsm features: --top needs a value");
    std::fs::remove_file(dp).ok();
    std::fs::remove_file(dm).ok();
}

#[test]
fn stray_positional_is_rejected() {
    let f = temp_file("stray", "The camera is excellent. The battery is terrible.");
    // the space after the comma splits the list: `battery` is a bare argument
    let err = run_tokens(&[
        "analyze",
        "--subjects",
        "camera,",
        "battery",
        "--file",
        f.to_str().unwrap(),
    ])
    .unwrap_err();
    assert_eq!(err, "wfsm analyze: unexpected argument \"battery\"");
    std::fs::remove_file(f).ok();
}

#[test]
fn every_command_rejects_an_unknown_option_before_any_work() {
    for command in COMMANDS {
        let err = run_tokens(&[command.name, "--bogus"]).unwrap_err();
        assert_eq!(
            err,
            format!("wfsm {}: unknown option --bogus", command.name)
        );
    }
    let docs = temp_file("bogusdocs", "The Canon takes excellent pictures.\n");
    let dir = temp_data_dir("bogus");
    for tokens in [
        &["mine", "--input", docs.to_str().unwrap()][..],
        &["serve", "--docs", "4"],
    ] {
        let tokens: Vec<&str> = tokens
            .iter()
            .copied()
            .chain(["--data-dir", dir.to_str().unwrap(), "--bogus"])
            .collect();
        assert!(run_tokens(&tokens).is_err());
        assert!(!dir.exists(), "{tokens:?} wrote {dir:?}");
    }
    let out = std::env::temp_dir().join(format!("wfsm-bogus-corpus-{}", std::process::id()));
    let gen = [
        "gen-corpus",
        "--domain",
        "camera",
        "--out",
        out.to_str().unwrap(),
        "--bogus",
    ];
    assert!(run_tokens(&gen).is_err());
    assert!(!out.exists(), "gen-corpus wrote {out:?}");
    std::fs::remove_file(docs).ok();
}

/// The `--name`s a help text mentions outside backquotes (a backquoted
/// span cites another command's invocation).
fn documented_options(help: &str) -> BTreeSet<&str> {
    help.split('`')
        .step_by(2)
        .flat_map(|text| text.split("--").skip(1))
        .map(|rest| {
            let end = rest
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .unwrap_or(rest.len());
            &rest[..end]
        })
        .collect()
}

#[test]
fn help_documents_exactly_the_declared_options() {
    for command in COMMANDS {
        let declared: BTreeSet<&str> = command
            .options
            .iter()
            .flat_map(|group| group.iter())
            .chain(command.flags)
            .copied()
            .collect();
        assert_eq!(
            documented_options(command.help),
            declared,
            "wfsm {}",
            command.name
        );
    }
}

#[test]
fn every_command_has_a_determinism_row() {
    let script = include_str!("../../../../tools/determinism.sh");
    let covered: BTreeSet<&str> = script
        .lines()
        .filter_map(|line| line.trim_start().strip_prefix("row "))
        .filter_map(|row| row.split_whitespace().nth(1))
        .collect();
    for command in COMMANDS {
        assert!(
            covered.contains(command.name),
            "no row of tools/determinism.sh runs wfsm {}",
            command.name
        );
    }
}

#[test]
fn serve_one_shot_rejects_loop_and_chaos_options() {
    let dir = temp_data_dir("oneshot");
    for mode in [["--subject", "Canon"], ["--top", "2"]] {
        for key in serve::LOOP.iter().chain(CHAOS) {
            let option = format!("--{key}");
            let tokens = ["serve", "--docs", "4", "--data-dir", dir.to_str().unwrap()];
            let tokens = [&tokens[..], &mode, &[&option, "1"]].concat();
            let err = run_tokens(&tokens).unwrap_err();
            assert_eq!(
                err,
                format!("wfsm serve: --{key} is not read with {}", mode[0])
            );
            assert!(!dir.exists(), "{tokens:?} wrote {dir:?}");
        }
    }
}

#[test]
fn serve_rejects_subject_with_top_and_polarity_without_top() {
    let err = run_tokens(&["serve", "--top", "2", "--subject", "Canon"]).unwrap_err();
    assert_eq!(err, "wfsm serve: --top is not read with --subject");
    let err = run_tokens(&["serve", "--subject", "Canon", "--polarity", "-"]).unwrap_err();
    assert_eq!(err, "wfsm serve: --polarity is not read with --subject");
    let err = run_tokens(&["serve", "--docs", "4", "--polarity", "-"]).unwrap_err();
    assert_eq!(err, "wfsm serve: --polarity is not read without --top");
}

#[test]
fn mine_workload_rejects_serve_loop_options() {
    for command in ["timeline", "profile", "logs"] {
        for key in serve::LOOP {
            let option = format!("--{key}");
            let tokens = [command, "--workload", "mine", "--docs", "4", &option, "1"];
            let err = run_tokens(&tokens).unwrap_err();
            assert_eq!(
                err,
                format!("wfsm {command}: --{key} is not read with --workload mine")
            );
        }
    }
}

#[test]
fn metrics_file_rejects_run_and_chaos_options() {
    let docs = temp_file("metricsfiledocs", "The Canon takes excellent pictures.\n");
    let snapshot = temp_file("metricsfile", &Telemetry::new().snapshot().to_json_string());
    for (key, value) in [
        ("input", docs.to_str().unwrap()),
        ("subjects", "Canon"),
        ("data-dir", "unused"),
        ("chaos-seed", "1"),
        ("fail-rate", "0.5"),
    ] {
        let option = format!("--{key}");
        let tokens = [
            "metrics",
            "--file",
            snapshot.to_str().unwrap(),
            &option,
            value,
        ];
        let err = run_tokens(&tokens).unwrap_err();
        assert_eq!(
            err,
            format!("wfsm metrics: --{key} is not read with --file")
        );
    }
    assert!(run_tokens(&["metrics", "--file", snapshot.to_str().unwrap(), "--json"]).is_ok());
    std::fs::remove_file(docs).ok();
    std::fs::remove_file(snapshot).ok();
}
