//! The `all_experiments` binary: every experiment runs by name, the
//! reports without wall-clock figures are reproducible byte for byte,
//! the JSON document holds one part per reporting experiment, and a bad
//! argument exits 1 before anything runs or is written.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use wf_eval::experiments::EXPERIMENTS;

/// The two reports that print wall-clock times.
const TIMED: [&str; 2] = ["fig1_platform", "fig3_adhoc"];

fn all_experiments(args: &[&str], dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_all_experiments"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("all_experiments runs")
}

/// A fresh, empty working directory for one test.
fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wf-eval-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn stdout(out: &Output) -> String {
    assert!(out.status.success(), "{out:?}");
    String::from_utf8(out.stdout.clone()).unwrap()
}

#[test]
fn every_experiment_runs_at_quick_scale_and_writes_its_json() {
    let dir = fresh_dir("all");
    let text = stdout(&all_experiments(&["--quick", "--json", "r.json"], &dir));
    assert!(
        text.starts_with("# All experiments (quick scale)\n\n"),
        "{text}"
    );
    for title in [
        "Table 2.",
        "Table 3.",
        "Table 4.",
        "Table 5.",
        "Figure 1.",
        "Figure 2",
        "Figure 3.",
        "Figure 4.",
        "Figure 5.",
        "Ablation:",
        "Sentiment miner accuracy",
        "Disambiguation",
    ] {
        assert!(text.contains(&format!("\n{title}")), "{title} missing");
    }
    assert!(text.ends_with("\nresults written to r.json\n"), "{text}");
    let json: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(dir.join("r.json")).unwrap()).unwrap();
    let serde_json::Value::Object(parts) = json else {
        panic!("results are an object");
    };
    let keys: Vec<&str> = parts.keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "fig1",
            "fig2",
            "fig3",
            "fig4_rows",
            "fig5_sentences",
            "scale",
            "table2",
            "table3",
            "table4",
            "table5"
        ]
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reports_without_wall_clock_figures_are_reproducible() {
    let dir = fresh_dir("repeat");
    let mut args: Vec<&str> = EXPERIMENTS
        .iter()
        .map(|e| e.name)
        .filter(|name| !TIMED.contains(name))
        .collect();
    assert_eq!(args.len(), 10);
    args.push("--quick");
    let first = stdout(&all_experiments(&args, &dir));
    assert_eq!(first, stdout(&all_experiments(&args, &dir)));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn names_run_in_the_order_given_one_report_each() {
    let dir = fresh_dir("order");
    let table4 = stdout(&all_experiments(&["table4", "--quick"], &dir));
    let table2 = stdout(&all_experiments(&["--quick", "table2"], &dir));
    assert!(table4.starts_with("Table 4."), "{table4}");
    assert!(table2.starts_with("Table 2."), "{table2}");
    let args = ["table4", "fig3_adhoc", "fig1_platform", "table2", "--quick"];
    let all = stdout(&all_experiments(&args, &dir));
    let timed = all
        .strip_prefix(&format!("{table4}\n"))
        .and_then(|rest| rest.strip_suffix(&format!("\n{table2}")))
        .expect("table4 first, table2 last");
    assert!(timed.starts_with("Figure 3."), "{timed}");
    assert!(timed.contains("\n\nFigure 1."), "{timed}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_arguments_exit_1_and_write_nothing() {
    for args in [
        &["--quik"][..],
        &["tabel4"],
        &["table4", "--bogus"],
        &["--json"],
        &["--json", "--quick"],
        &["--json", "a.json", "--json", "b.json"],
    ] {
        let dir = fresh_dir("bad");
        let out = all_experiments(args, &dir);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let culprit = args
            .iter()
            .find(|a| !["table4", "a.json", "b.json"].contains(a));
        assert!(stderr.contains(culprit.unwrap()), "{args:?}: {stderr}");
        for e in EXPERIMENTS {
            assert!(stderr.contains(e.name), "{args:?} must list {}", e.name);
        }
        assert!(
            std::fs::read_dir(&dir).unwrap().next().is_none(),
            "{args:?} wrote a file"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
