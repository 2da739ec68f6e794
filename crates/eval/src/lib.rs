//! Evaluation: metrics, prediction harnesses, experiment runners and
//! report rendering for every table and figure in the paper.
//!
//! Each experiment has a library runner in [`experiments`] and, beside
//! it, a report function that prints the paper-style rows next to the
//! measured values. [`experiments::EXPERIMENTS`] names every report once;
//! the `all_experiments` binary runs them by name
//! (`cargo run --release -p wf-eval -- table4`) or all at once, and
//! regenerates the data behind `EXPERIMENTS.md`.

/// `println!` into a report's `String` (writing to a `String` cannot
/// fail).
macro_rules! outln {
    ($out:expr) => {
        $out.push('\n')
    };
    ($out:expr, $($arg:tt)*) => {{
        use std::fmt::Write as _;
        writeln!($out, $($arg)*).expect("writing to a String cannot fail")
    }};
}

pub mod diagnostics;
pub mod experiments;
pub mod harness;
pub mod metrics;
pub mod report;

pub use diagnostics::{breakdown_rows, case_breakdown, CaseBreakdown};
pub use experiments::ExperimentScale;
pub use metrics::{pct, score, score_without_i_class, Prediction, Scores};
