//! `wfbench --compare A.json... -- B.json...`: compares two sets of runs
//! (files written with `--out`) metric by metric under the bounds in
//! `BENCHMARK.json`.
//!
//! For each (workload, metric) it prints each side's median and quartiles
//! and a verdict, for B against A:
//!
//! - `unresolved`: the larger quartile spread exceeds the bound, and B's
//!   runs do not all read better or all read worse than A's;
//! - `worse`: B's median is worse than A's by more than the bound;
//! - `better`: B's median is better by more than A's quartile spread and B
//!   wins at least nine tenths of at least ten pairs (A_i, B_i);
//! - `within`: otherwise.
//!
//! A metric without a bound (a per-layer one) gets `better` or `worse` by
//! the same rule as `better` above, from either side, and `-` otherwise.

use crate::stats::{median, quartiles};
use serde_json::Value;
use std::collections::BTreeMap;

/// The fewest pairs (A_i, B_i) on which a side winning nine tenths makes
/// a change better or worse.
const MIN_PAIRS: usize = 10;

/// One metric's regression rule from `BENCHMARK.json`.
struct Rule {
    higher_is_better: bool,
    bound: Option<f64>,
}

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn rules(benchmark: &Value) -> BTreeMap<String, Rule> {
    let mut rules = BTreeMap::new();
    for section in ["end_to_end", "per_layer"] {
        for metric in benchmark[section].as_array().into_iter().flatten() {
            if let Some(name) = metric["name"].as_str() {
                rules.insert(
                    name.to_string(),
                    Rule {
                        higher_is_better: metric["better"] == "higher",
                        bound: metric["bound"].as_f64(),
                    },
                );
            }
        }
    }
    rules
}

/// `(workload, metric)` → values, in file order.
type Runs = BTreeMap<(String, String), Vec<f64>>;

fn load(paths: &[String]) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for path in paths {
        let run = read_json(path)?;
        let workload = run["workload"]
            .as_str()
            .ok_or_else(|| format!("{path}: no workload (write runs with --out)"))?;
        for (name, metric) in run["metrics"].as_object().into_iter().flatten() {
            if let Some(value) = metric["value"].as_f64() {
                runs.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(runs)
}

/// The verdict for B against A under `bound` (a share of A's median).
fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: Option<f64>) -> &'static str {
    let base = median(a).abs();
    if base == 0.0 {
        return if bound.is_some() { "unresolved" } else { "-" };
    }
    // positive: B better
    let gain = |from: f64, to: f64| {
        let change = (to - from) / base;
        if higher_is_better {
            change
        } else {
            -change
        }
    };
    let spread = |v: &[f64]| {
        let (q1, q3) = quartiles(v);
        (q3 - q1) / base
    };
    let all_better = a.iter().all(|&x| b.iter().all(|&y| gain(x, y) > 0.0));
    let all_worse = a.iter().all(|&x| b.iter().all(|&y| gain(x, y) < 0.0));
    let delta = gain(median(a), median(b));
    let pairs = a.len().min(b.len());
    // B beats A (or trails it) in nine tenths of the pairs (A_i, B_i)
    let wins_most = |sign: f64| {
        let wins = a
            .iter()
            .zip(b)
            .filter(|(&x, &y)| sign * gain(x, y) > 0.0)
            .count();
        pairs >= MIN_PAIRS && wins * 10 >= pairs * 9
    };
    let Some(bound) = bound else {
        return if delta > spread(a) && wins_most(1.0) {
            "better"
        } else if -delta > spread(a) && wins_most(-1.0) {
            "worse"
        } else {
            "-"
        };
    };
    if spread(a).max(spread(b)) > bound {
        return if all_better {
            "better"
        } else if all_worse {
            "worse"
        } else {
            "unresolved"
        };
    }
    if delta < -bound {
        "worse"
    } else if delta > spread(a) && wins_most(1.0) {
        "better"
    } else {
        "within"
    }
}

/// Runs the comparison; `args` are `A.json... -- B.json...`.
pub fn run(args: &[String]) -> Result<(), String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("usage: wfbench --compare A.json... -- B.json...")?;
    let (a_paths, b_paths) = (&args[..split], &args[split + 1..]);
    if a_paths.is_empty() || b_paths.is_empty() {
        return Err("both sides need at least one run".into());
    }
    let rules = rules(&read_json("BENCHMARK.json")?);
    let (a, b) = (load(a_paths)?, load(b_paths)?);
    let mut verdicts: BTreeMap<&str, usize> = BTreeMap::new();
    for (key, a_values) in &a {
        let Some(b_values) = b.get(key) else {
            continue;
        };
        let (workload, metric) = key;
        let side = |v: &[f64]| {
            let (q1, q3) = quartiles(v);
            format!("{:.4} [{:.4}, {:.4}] n={}", median(v), q1, q3, v.len())
        };
        let verdict = match rules.get(metric) {
            Some(rule) => verdict(a_values, b_values, rule.higher_is_better, rule.bound),
            None => "-",
        };
        *verdicts.entry(verdict).or_default() += 1;
        let base = median(a_values).abs();
        let change = if base == 0.0 {
            "n/a".to_string()
        } else {
            format!(
                "{:+.2}%",
                (median(b_values) - median(a_values)) / base * 100.0
            )
        };
        println!(
            "{workload} {metric}: A {} | B {} | {change} | {verdict}",
            side(a_values),
            side(b_values)
        );
    }
    let summary: Vec<String> = verdicts.iter().map(|(v, n)| format!("{n} {v}")).collect();
    println!("verdicts: {}", summary.join(", "));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::verdict;

    #[test]
    fn verdicts_follow_bounds_and_spread() {
        let a: Vec<f64> = (0..10).map(|i| 99.0 + 0.2 * f64::from(i)).collect();
        let bound = Some(0.07);
        assert_eq!(verdict(&a, &a, true, bound), "within");
        let worse: Vec<f64> = a.iter().map(|x| x - 20.0).collect();
        assert_eq!(verdict(&a, &worse, true, bound), "worse");
        assert_eq!(verdict(&a, &worse, false, bound), "better");
        // a gain needs ten pairs
        assert_eq!(verdict(&a[..5], &worse[..5], false, bound), "within");
        let noisy: Vec<f64> = (0..10)
            .map(|i| 100.0 + if i % 2 == 0 { -40.0 } else { 40.0 })
            .collect();
        assert_eq!(verdict(&a, &noisy, true, bound), "unresolved");
        // unbounded: only a change that wins nine tenths of the pairs counts
        assert_eq!(verdict(&a, &worse, true, None), "worse");
        assert_eq!(verdict(&a, &worse, false, None), "better");
        assert_eq!(verdict(&a, &noisy, true, None), "-");
        assert_eq!(verdict(&a[..5], &worse[..5], true, None), "-");
        assert_eq!(verdict(&[0.0], &[0.0], true, None), "-");
    }
}
