//! Runs every experiment and prints a paper-vs-measured summary — the
//! data behind EXPERIMENTS.md. Pass `--quick` for reduced corpora and
//! `--json PATH` to also write a machine-readable results file.

use wf_eval::experiments::{
    fig1, fig2, fig3, fig4, fig5, table2, table3, table4, table5, ExperimentScale,
};
use wf_eval::metrics::pct;

fn json_path() -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let scale = if quick {
        ExperimentScale::quick()
    } else {
        ExperimentScale::paper()
    };
    println!(
        "# All experiments ({} scale)\n",
        if quick { "quick" } else { "paper" }
    );

    let t2 = table2(&scale);
    println!("## Table 2 — feature extraction (bBNP-L)");
    println!(
        "camera precision: measured {} vs paper 97%",
        pct(t2.camera_precision)
    );
    println!(
        "music precision:  measured {} vs paper 100%",
        pct(t2.music_precision)
    );
    println!(
        "camera top-5: {:?}",
        t2.camera_top
            .iter()
            .take(5)
            .map(|f| f.term.as_str())
            .collect::<Vec<_>>()
    );
    println!(
        "music top-5:  {:?}\n",
        t2.music_top
            .iter()
            .take(5)
            .map(|f| f.term.as_str())
            .collect::<Vec<_>>()
    );

    let t3 = table3(&scale);
    println!("## Table 3 — product vs feature references");
    println!(
        "products {} refs, features {} refs, ratio {:.1}x (paper 12.4x)\n",
        t3.product_total,
        t3.feature_total,
        t3.ratio()
    );

    let t4 = table4(&scale);
    println!("## Table 4 — product review datasets");
    println!(
        "SM          P {} (87%)  R {} (56%)  A {} (85.6%)",
        pct(t4.sm.precision),
        pct(t4.sm.recall),
        pct(t4.sm.accuracy)
    );
    println!(
        "Collocation P {} (18%)  R {} (70%)",
        pct(t4.collocation.precision),
        pct(t4.collocation.recall)
    );
    println!(
        "ReviewSeer  A {} (88.4%, document level)\n",
        pct(t4.reviewseer_doc_accuracy)
    );

    let t5 = table5(&scale);
    println!("## Table 5 — general web documents and news");
    for row in &t5.rows {
        println!(
            "SM ({:<20}) P {} (86-91%)  A {} (90-93%)",
            row.label,
            pct(row.sm.precision),
            pct(row.sm.accuracy)
        );
    }
    if let Some(web) = t5.rows.first() {
        println!(
            "ReviewSeer (Web)          A {} (38%)   w/o I-class {} (68%)\n",
            pct(web.reviewseer.accuracy),
            pct(web.reviewseer_without_i.accuracy)
        );
    }

    let f1 = fig1(&scale);
    println!("## Figure 1 — platform dataflow");
    println!(
        "{} docs over {} nodes; mine {:.2}s, index {:.2}s, {} concepts\n",
        f1.ingested_docs,
        f1.report.nodes,
        f1.mining_secs,
        f1.indexing_secs,
        f1.report.distinct_concepts
    );

    let f2 = fig2(&scale);
    println!("## Figure 2 — customer satisfaction chart");
    println!(
        "{} products x {} features charted\n",
        f2.products.len(),
        f2.features.len()
    );

    let f3 = fig3(&scale);
    println!("## Figure 3 — ad-hoc (mode B) sentiment queries");
    for q in &f3.queries {
        println!(
            "  {}: +{} / -{} in {:.1}us (run-time analysis {:.1}us)",
            q.subject,
            q.positive,
            q.negative,
            q.indexed_secs * 1e6,
            q.runtime_secs * 1e6
        );
    }

    let f4 = fig4(&scale);
    println!(
        "\n## Figure 4 — masked product matrix: {} rows",
        f4.rows.len()
    );

    let f5 = fig5(&scale);
    println!(
        "## Figure 5 — {} sentiment sentences listed for {}",
        f5.sentences.len(),
        f5.subject
    );

    if let Some(path) = json_path() {
        let results = serde_json::json!({
            "scale": if quick { "quick" } else { "paper" },
            "table2": {
                "camera_precision": t2.camera_precision,
                "music_precision": t2.music_precision,
                "camera_top": t2.camera_top.iter().map(|f| f.term.clone()).collect::<Vec<_>>(),
                "music_top": t2.music_top.iter().map(|f| f.term.clone()).collect::<Vec<_>>(),
            },
            "table3": {
                "product_total": t3.product_total,
                "feature_total": t3.feature_total,
                "ratio": t3.ratio(),
            },
            "table4": {
                "sm": {"precision": t4.sm.precision, "recall": t4.sm.recall, "accuracy": t4.sm.accuracy},
                "collocation": {"precision": t4.collocation.precision, "recall": t4.collocation.recall},
                "reviewseer_doc_accuracy": t4.reviewseer_doc_accuracy,
            },
            "table5": t5.rows.iter().map(|row| serde_json::json!({
                "domain": row.label,
                "sm_precision": row.sm.precision,
                "sm_accuracy": row.sm.accuracy,
                "reviewseer_accuracy": row.reviewseer.accuracy,
                "reviewseer_accuracy_without_i": row.reviewseer_without_i.accuracy,
            })).collect::<Vec<_>>(),
            "fig1": {"docs": f1.ingested_docs, "nodes": f1.report.nodes, "concepts": f1.report.distinct_concepts},
            "fig2": {"products": f2.products.len(), "features": f2.features},
            "fig3": f3.queries.iter().map(|q| serde_json::json!({
                "subject": q.subject, "positive": q.positive, "negative": q.negative,
                "latency_us": q.indexed_secs * 1e6, "runtime_latency_us": q.runtime_secs * 1e6,
            })).collect::<Vec<_>>(),
            "fig4_rows": f4.rows.len(),
            "fig5_sentences": f5.sentences.len(),
        });
        let rendered = serde_json::to_string_pretty(&results).expect("results serialize");
        std::fs::write(&path, rendered).expect("write results json");
        println!("\nresults written to {path}");
    }
}
