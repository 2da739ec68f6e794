//! The paper's headline results, pinned exactly: every count and rate
//! of Table 4 (SM, collocation and ReviewSeer on the product reviews)
//! and Table 5 (SM and ReviewSeer on web pages and news) at paper scale
//! must match `tests/golden/paper_tables.json`. A change to the analyzer
//! that moves any of them shows here; `UPDATE_GOLDEN=1` regenerates the
//! file once the move is understood.

use wf_eval::experiments::{table4, table5, ExperimentScale};

#[test]
fn tables_4_and_5_match_golden() {
    let scale = ExperimentScale::paper();
    let tables = serde_json::json!({
        "table4": table4(&scale),
        "table5": table5(&scale),
    });
    let report = serde_json::to_string_pretty(&tables).expect("tables serialize") + "\n";
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/paper_tables.json"
    );
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, &report).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(path).expect("golden exists; UPDATE_GOLDEN=1 to create");
    assert_eq!(
        report, golden,
        "paper tables drifted from golden; UPDATE_GOLDEN=1 to regen"
    );
}
