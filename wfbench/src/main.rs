//! `wfbench`: one wall-clock benchmark for the ingest → mine → index →
//! search → serve path.
//!
//! ```text
//! wfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!         [--scale full|smoke] [--trace-out FILE] [--out FILE]
//! wfbench --compare A.json... -- B.json...
//! ```
//!
//! A run measures one workload (`web-mine`, `review-index`, `serve-hot`,
//! `serve-cold`) in its own process. All inputs come from `--seed`; the
//! run, set-up included, takes about `--seconds`. Outputs are checked
//! against the repository's reference implementations, and a wrong answer
//! counts as a failed operation. `--trace 0` reports the end-to-end
//! metrics, set-up time and peak memory; `--trace 1` is a separate run that
//! records spans around every call into a layer and reports per-layer
//! metrics, with the loop's throughput and latencies among them, since on a
//! shared host these spread between runs by more than any bound the
//! benchmark may set. The last line of standard output is the
//! JSON result; `--out` also writes it, with the workload and seed, for
//! `--compare`.

mod compare;
mod inputs;
mod mine;
mod report;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

const WORKLOADS: [&str; 4] = ["web-mine", "review-index", "serve-hot", "serve-cold"];

/// A validated command line for one run.
pub struct Options {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    /// When the run began; the `--seconds` budget counts from here.
    pub started: Instant,
    pub trace: bool,
    pub scale: inputs::Scale,
    pub trace_out: Option<PathBuf>,
    pub out: Option<PathBuf>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut opts = Options {
            workload: "",
            seed: 20050405,
            seconds: 25.0,
            started: Instant::now(),
            trace: false,
            scale: inputs::Scale::Full,
            trace_out: None,
            out: None,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .as_str();
            match flag.as_str() {
                "--workload" => {
                    opts.workload = WORKLOADS
                        .into_iter()
                        .find(|w| *w == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?;
                }
                "--seed" => opts.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
                "--seconds" => {
                    opts.seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("bad seconds {value:?}"))?;
                }
                "--trace" => {
                    opts.trace = match value {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                    }
                }
                "--scale" => {
                    opts.scale = match value {
                        "full" => inputs::Scale::Full,
                        "smoke" => inputs::Scale::Smoke,
                        _ => return Err(format!("unknown scale {value:?}")),
                    }
                }
                "--trace-out" => opts.trace_out = Some(PathBuf::from(value)),
                "--out" => opts.out = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if opts.workload.is_empty() {
            return Err(format!("--workload is required: one of {WORKLOADS:?}"));
        }
        Ok(opts)
    }
}

fn run(opts: &Options) -> Result<(), String> {
    let outcome = match opts.workload {
        "web-mine" => mine::run(opts, mine::Mode::Adhoc),
        "review-index" => mine::run(opts, mine::Mode::Subjects),
        "serve-hot" => serve::run(opts, &serve::HOT),
        _ => serve::run(opts, &serve::COLD),
    };
    let names: &[(&str, &str)] = if opts.trace {
        &report::PER_LAYER
    } else {
        &report::END_TO_END
    };
    let result = outcome.print(names);
    if let Some(path) = &opts.out {
        let mut record: BTreeMap<String, serde_json::Value> = match result {
            serde_json::Value::Object(fields) => fields,
            _ => unreachable!("the result line is an object"),
        };
        record.insert("workload".into(), opts.workload.into());
        record.insert("seed".into(), opts.seed.into());
        record.insert("trace".into(), u64::from(opts.trace).into());
        let text = serde_json::Value::Object(record).to_string();
        std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("--compare") => compare::run(&args[1..]),
        _ => Options::parse(&args).and_then(|opts| run(&opts)),
    };
    if let Err(e) = result {
        eprintln!("wfbench: {e}");
        std::process::exit(2);
    }
}
