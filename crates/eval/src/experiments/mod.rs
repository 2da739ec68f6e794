//! Experiment runners: one function per table/figure of the paper, and
//! [`EXPERIMENTS`], which names each experiment once with its report.

pub mod ablations;
pub mod disambiguation;
pub mod figures;
pub mod scale;
pub mod tables;

pub use ablations::{
    analyzer_ablations, feature_extraction_ablations, AblationResult, AblationRow,
    FeatureAblationRow,
};
pub use disambiguation::{disambiguation_study, DisambiguationResult};
pub use figures::{
    fig1, fig2, fig3, fig4, fig5, Fig1Result, Fig2Result, Fig3Query, Fig3Result, Fig4Result,
    Fig5Result,
};
pub use scale::ExperimentScale;
pub use tables::{
    table2, table2_confidence, table3, table4, table5, Table2Result, Table3Result, Table4Result,
    Table5Result, Table5Row,
};

/// What one run of an experiment reports.
#[derive(Debug)]
pub struct Report {
    /// The text report, exactly as printed.
    pub text: String,
    /// The experiment's key and value in the `--json` results document;
    /// `None` for experiments that write no JSON.
    pub json: Option<(&'static str, serde_json::Value)>,
}

impl Report {
    /// A report with no part in the `--json` document.
    pub(crate) fn without_json(text: String) -> Report {
        Report { text, json: None }
    }

    /// A report whose `--json` part is `value` under `key`.
    pub(crate) fn with_json(text: String, key: &'static str, value: serde_json::Value) -> Report {
        Report {
            text,
            json: Some((key, value)),
        }
    }
}

/// A named experiment: `run` executes it once at a scale and reports it.
#[derive(Debug)]
pub struct Experiment {
    pub name: &'static str,
    pub run: fn(&ExperimentScale) -> Report,
}

const fn named(name: &'static str, run: fn(&ExperimentScale) -> Report) -> Experiment {
    Experiment { name, run }
}

/// Every experiment, in report order: the paper's tables, its figures,
/// then the studies around them.
pub const EXPERIMENTS: &[Experiment] = &[
    named("table2", tables::table2_report),
    named("table3", tables::table3_report),
    named("table4", tables::table4_report),
    named("table5", tables::table5_report),
    named("fig1_platform", figures::fig1_report),
    named("fig2_satisfaction", figures::fig2_report),
    named("fig3_adhoc", figures::fig3_report),
    named("fig4_matrix", figures::fig4_report),
    named("fig5_sentences", figures::fig5_report),
    named("ablations", ablations::ablations_report),
    named("diagnostics", crate::diagnostics::diagnostics_report),
    named("disambiguation", disambiguation::disambiguation_report),
];

/// The experiment called `name`, if there is one.
pub fn experiment(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_found() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert!(
                EXPERIMENTS[..i].iter().all(|o| o.name != e.name),
                "{}",
                e.name
            );
            assert_eq!(experiment(e.name).map(|f| f.name), Some(e.name));
        }
        assert!(experiment("table1").is_none());
    }
}
