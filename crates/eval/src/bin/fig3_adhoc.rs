//! Regenerates Figure 3: mode B — sentiment mining with no predefined
//! subjects. Offline NE-driven analysis + sentiment index, then real-time
//! subject queries, each timed against running the analysis at query
//! time.

use wf_eval::experiments::{fig3, ExperimentScale};
use wf_eval::report::render_table;

fn main() {
    let scale = if std::env::args().any(|a| a == "--quick") {
        ExperimentScale::quick()
    } else {
        ExperimentScale::paper()
    };
    let r = fig3(&scale);
    println!("Figure 3. Sentiment mining without a predefined subject list\n");
    println!(
        "offline pass: {} docs analyzed and indexed in {:.3}s\n",
        r.indexed_docs, r.offline_secs
    );
    let rows: Vec<Vec<String>> = r
        .queries
        .iter()
        .map(|q| {
            vec![
                q.subject.clone(),
                q.positive.to_string(),
                q.negative.to_string(),
                format!("{:.1}", q.indexed_secs * 1e6),
                format!("{:.1}", q.runtime_secs * 1e6),
                format!("{:.0}x", q.runtime_secs / q.indexed_secs),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            "Real-time sentiment queries: the index vs run-time analysis (+ and - query each)",
            &[
                "Subject",
                "+ hits",
                "- hits",
                "indexed (us)",
                "run-time (us)",
                "ratio",
            ],
            &rows,
        )
    );
}
