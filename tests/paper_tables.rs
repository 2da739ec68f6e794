//! The paper's headline results, pinned exactly: every count and rate
//! of Table 4 (SM, collocation and ReviewSeer on the product reviews)
//! and Table 5 (SM and ReviewSeer on web pages and news) at paper scale
//! must match `tests/golden/paper_tables.json`. A change to the analyzer
//! that moves any of them shows here; `UPDATE_GOLDEN=1` regenerates the
//! file once the move is understood. EXPERIMENTS.md's measured Table 4
//! and 5 cells must read what the golden pins.

use serde_json::Value;
use wf_eval::experiments::{table4, table5, ExperimentScale};
use wf_eval::pct;

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

/// The cells of the EXPERIMENTS.md table row whose first cell is `label`.
fn doc_row<'a>(doc: &'a str, label: &str) -> Vec<&'a str> {
    let rows: Vec<Vec<&str>> = doc
        .lines()
        .filter_map(|line| line.strip_prefix('|')?.strip_suffix('|'))
        .map(|line| line.split('|').map(str::trim).collect::<Vec<_>>())
        .filter(|cells| cells[0] == label)
        .collect();
    assert_eq!(rows.len(), 1, "one EXPERIMENTS.md row labelled {label:?}");
    rows.into_iter().next().unwrap()
}

#[test]
fn experiments_md_reports_the_pinned_tables() {
    let root = env!("CARGO_MANIFEST_DIR");
    let doc = std::fs::read_to_string(format!("{root}/EXPERIMENTS.md")).unwrap();
    let golden = std::fs::read_to_string(format!("{root}/tests/golden/paper_tables.json")).unwrap();
    let golden: Value = serde_json::from_str(&golden).unwrap();
    let cell = |v: &Value| pct(v.as_f64().expect("a rate"));
    let none = || "—".to_string();
    let (t4, t5) = (&golden["table4"], &golden["table5"]["rows"]);
    let (sm, colloc) = (&t4["sm"], &t4["collocation"]);

    // each row: its label, then the last three (measured) cells; Table 4
    // measures P / R / A, Table 5 P / A / A without the I class
    let mut expected = vec![
        (
            "Sentiment Miner".to_string(),
            [
                cell(&sm["precision"]),
                cell(&sm["recall"]),
                cell(&sm["accuracy"]),
            ],
        ),
        (
            "Collocation".to_string(),
            [cell(&colloc["precision"]), cell(&colloc["recall"]), none()],
        ),
        (
            "ReviewSeer (document level)".to_string(),
            [none(), none(), cell(&t4["reviewseer_doc_accuracy"])],
        ),
    ];
    let domains = ["petroleum, web", "pharmaceutical, web", "petroleum, news"];
    for (i, domain) in domains.iter().enumerate() {
        let (sm, rs, rs_without_i) = (
            &t5[i]["sm"],
            &t5[i]["reviewseer"],
            &t5[i]["reviewseer_without_i"],
        );
        expected.push((
            format!("SM ({domain})"),
            [cell(&sm["precision"]), cell(&sm["accuracy"]), none()],
        ));
        expected.push((
            format!("ReviewSeer ({domain})"),
            [
                none(),
                cell(&rs["accuracy"]),
                cell(&rs_without_i["accuracy"]),
            ],
        ));
    }
    for (label, measured) in expected {
        let row = doc_row(&doc, &label);
        assert_eq!(
            row[row.len() - 3..],
            measured,
            "EXPERIMENTS.md row {label:?}"
        );
    }
}
