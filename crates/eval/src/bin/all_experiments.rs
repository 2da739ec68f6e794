//! Runs the paper's experiments and prints their reports, the data
//! behind EXPERIMENTS.md:
//!
//! ```text
//! all_experiments [NAME...] [--quick] [--json PATH]
//! ```
//!
//! Names come from `wf_eval::experiments::EXPERIMENTS` and run in the
//! order given; with no name, every experiment runs in table order under
//! a scale line. `--quick` uses the reduced corpora, and `--json PATH`
//! also writes the run's results as JSON. Arguments are checked before
//! anything runs: a bad one exits 1 and writes nothing.

use std::collections::BTreeMap;
use std::process::ExitCode;
use wf_eval::experiments::{experiment, Experiment, ExperimentScale, EXPERIMENTS};

/// A checked command line.
struct Args {
    selected: Vec<&'static Experiment>,
    quick: bool,
    json: Option<String>,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        selected: Vec::new(),
        quick: false,
        json: None,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => parsed.quick = true,
            "--json" if parsed.json.is_some() => return Err("--json given more than once".into()),
            "--json" => match args.next() {
                Some(path) if !path.starts_with("--") => parsed.json = Some(path),
                Some(other) => return Err(format!("--json needs a file path, got {other:?}")),
                None => return Err("--json needs a file path".into()),
            },
            name => match experiment(name) {
                Some(e) => parsed.selected.push(e),
                None if name.starts_with('-') => return Err(format!("unknown option {name:?}")),
                None => return Err(format!("unknown experiment {name:?}")),
            },
        }
    }
    Ok(parsed)
}

fn usage() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    format!(
        "usage: all_experiments [NAME...] [--quick] [--json PATH]\nnames: {}",
        names.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("error: {err}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let (scale, label) = if args.quick {
        (ExperimentScale::quick(), "quick")
    } else {
        (ExperimentScale::paper(), "paper")
    };
    let selected = if args.selected.is_empty() {
        println!("# All experiments ({label} scale)\n");
        EXPERIMENTS.iter().collect()
    } else {
        args.selected
    };

    let mut results = BTreeMap::from([("scale".to_string(), serde_json::json!(label))]);
    for (i, e) in selected.iter().enumerate() {
        let report = (e.run)(&scale);
        if i > 0 {
            println!();
        }
        print!("{}", report.text);
        if let Some((key, value)) = report.json {
            results.insert(key.to_string(), value);
        }
    }

    if let Some(path) = args.json {
        let rendered = serde_json::to_string_pretty(&serde_json::Value::Object(results))
            .expect("results serialize");
        if let Err(err) = std::fs::write(&path, rendered) {
            eprintln!("error: cannot write {path}: {err}");
            return ExitCode::FAILURE;
        }
        println!("\nresults written to {path}");
    }
    ExitCode::SUCCESS
}
