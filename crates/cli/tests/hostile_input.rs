//! Hostile input reaches `wfsm` as an error or a damage report, never as
//! a crashed process: deep nesting in a query or a snapshot line must
//! not exhaust the stack.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn wfsm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wfsm"))
        .args(args)
        .output()
        .expect("wfsm runs")
}

/// A fresh data dir mined from two sentiment-bearing lines.
fn mined_data_dir(name: &str) -> PathBuf {
    let base = std::env::temp_dir().join(format!("wfsm-hostile-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    std::fs::create_dir_all(&base).unwrap();
    let docs = base.join("docs.txt");
    std::fs::write(
        &docs,
        "The camera has excellent picture quality.\nThe battery is terrible.\n",
    )
    .unwrap();
    let dir = base.join("data");
    let out = wfsm(&[
        "mine",
        "--input",
        docs.to_str().unwrap(),
        "--data-dir",
        dir.to_str().unwrap(),
        "--subjects",
        "camera,battery",
    ]);
    assert!(out.status.success(), "{out:?}");
    dir
}

fn cleanup(dir: &Path) {
    std::fs::remove_dir_all(dir.parent().unwrap()).ok();
}

#[test]
fn deeply_nested_query_exits_with_an_error() {
    let dir = mined_data_dir("query");
    let query = format!("{}camera{}", "(".repeat(10_000), ")".repeat(10_000));
    let out = wfsm(&[
        "search",
        "--data-dir",
        dir.to_str().unwrap(),
        "--query",
        &query,
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("deeper than 128 levels"), "{stderr}");
    cleanup(&dir);
}

#[test]
fn deeply_nested_snapshot_line_is_reported_truncated() {
    let dir = mined_data_dir("snapshot");
    let path = dir.join("shard-000").join("snapshot.jsonl");
    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    lines[1] = "[".repeat(200_000);
    std::fs::write(&path, lines.join("\n")).unwrap();
    let out = wfsm(&[
        "recover",
        "--data-dir",
        dir.to_str().unwrap(),
        "--format",
        "json",
    ]);
    assert!(out.status.success(), "{out:?}");
    let report: serde_json::Value =
        serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).unwrap();
    let shard0 = &report["shards"][0];
    assert_eq!(shard0["snapshot_truncated"], true, "{shard0:?}");
    cleanup(&dir);
}

#[test]
fn repeated_option_exits_with_an_error_and_writes_nothing() {
    let base = std::env::temp_dir().join(format!("wfsm-hostile-repeat-{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    std::fs::create_dir_all(&base).unwrap();
    let out_file = base.join("corpus.txt");
    let out = wfsm(&[
        "gen-corpus",
        "--domain",
        "camera",
        "--out",
        out_file.to_str().unwrap(),
        "--docs",
        "1",
        "--docs",
        "3",
    ]);
    assert!(!out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--docs given more than once"), "{stderr}");
    assert!(!out_file.exists(), "a rejected command wrote its output");
    std::fs::remove_dir_all(&base).ok();
}
