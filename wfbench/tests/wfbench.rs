//! End-to-end checks of the `wfbench` binary at smoke scale.

use serde_json::Value;
use std::collections::BTreeMap;
use std::process::Command;

const WORKLOADS: [&str; 4] = ["web-mine", "review-index", "serve-hot", "serve-cold"];

/// Runs `wfbench` at smoke scale and returns its standard output.
fn wfbench(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_wfbench"))
        .args(["--scale", "smoke"])
        .args(args)
        .output()
        .expect("wfbench runs");
    assert!(
        out.status.success(),
        "wfbench {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

fn result_line(stdout: &str) -> Value {
    let last = stdout.lines().last().expect("some output");
    serde_json::from_str(last).expect("the last line is JSON")
}

/// The named line `name value ...` of a run's output.
fn field<'a>(stdout: &'a str, name: &str) -> Vec<&'a str> {
    stdout
        .lines()
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .find(|parts| parts.first() == Some(&name))
        .unwrap_or_else(|| panic!("no {name} line"))
}

/// `name → unit` of one section of `BENCHMARK.json`.
fn benchmark_metrics(section: &str) -> BTreeMap<String, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    let benchmark: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    benchmark[section]
        .as_array()
        .expect("a metric list")
        .iter()
        .map(|m| {
            (
                m["name"].as_str().unwrap().to_string(),
                m["unit"].as_str().unwrap().to_string(),
            )
        })
        .collect()
}

#[test]
fn every_workload_reports_every_listed_metric_with_no_errors() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let listed = benchmark_metrics(section);
        for workload in WORKLOADS {
            let stdout = wfbench(&["--workload", workload, "--seconds", "0.5", "--trace", trace]);
            let result = result_line(&stdout);
            assert_eq!(result["correct"], true, "{workload}: {stdout}");
            assert_eq!(result["failed"], 0u64, "{workload}");
            assert!(result["attempted"].as_u64().unwrap() > 0, "{workload}");
            assert_eq!(field(&stdout, "error_rate")[1], "0", "{workload}");
            let metrics = result["metrics"].as_object().unwrap();
            assert_eq!(
                metrics.keys().cloned().collect::<Vec<_>>(),
                listed.keys().cloned().collect::<Vec<_>>(),
                "{workload} --trace {trace} reports exactly the {section} metrics"
            );
            for (name, unit) in &listed {
                assert_eq!(metrics[name]["unit"], unit.as_str(), "{workload} {name}");
                let line = field(&stdout, name);
                assert_eq!(
                    line[2],
                    unit.as_str(),
                    "{workload}: {name} printed with its unit"
                );
                let value = metrics[name]["value"].as_f64().unwrap();
                assert!(value.is_finite(), "{workload} {name} = {value}");
                if trace == "0" {
                    assert!(value > 0.0, "{workload} {name} is never 0");
                }
            }
        }
    }
}

#[test]
fn inputs_are_a_function_of_the_seed() {
    for workload in ["review-index", "serve-hot", "web-mine"] {
        let digest = |seed: &str| {
            let stdout = wfbench(&["--workload", workload, "--seed", seed, "--seconds", "0.1"]);
            field(&stdout, "input_digest")[1].to_string()
        };
        let first = digest("7");
        assert_eq!(first, digest("7"), "{workload}: same seed, same inputs");
        assert_ne!(first, digest("8"), "{workload}: other seed, other inputs");
    }
}

#[test]
fn traced_spans_nest_inside_their_parents() {
    for workload in ["web-mine", "review-index", "serve-cold"] {
        let path = format!("{}/spans-{workload}.jsonl", env!("CARGO_TARGET_TMPDIR"));
        let _ = wfbench(&[
            "--workload",
            workload,
            "--seconds",
            "0.2",
            "--trace",
            "1",
            "--trace-out",
            &path,
        ]);
        let text = std::fs::read_to_string(&path).expect("trace file written");
        let lines: Vec<Value> = text
            .lines()
            .map(|l| serde_json::from_str(l).expect("one JSON span per line"))
            .collect();
        let (spans, tail) = lines.split_at(lines.len() - 1);
        assert_eq!(tail[0]["dropped"], 0u64, "smoke runs keep every span");
        let by_id: BTreeMap<u64, &Value> = spans
            .iter()
            .map(|s| (s["id"].as_u64().unwrap(), s))
            .collect();
        let mut roots = std::collections::BTreeSet::new();
        for span in spans {
            let (start, end) = (span["start_ns"].as_u64(), span["end_ns"].as_u64());
            assert!(start <= end, "{span}");
            match span["parent"].as_u64() {
                None => assert!(
                    roots.insert(span["trace"].as_u64().unwrap()),
                    "one root per trace: {span}"
                ),
                Some(parent) => {
                    let parent = by_id[&parent];
                    assert_eq!(span["trace"], parent["trace"], "{span} in {parent}");
                    assert!(parent["start_ns"].as_u64() <= start, "{span} in {parent}");
                    assert!(end <= parent["end_ns"].as_u64(), "{span} in {parent}");
                }
            }
        }
        assert!(spans.len() > roots.len(), "{workload}: roots have children");
    }
}
