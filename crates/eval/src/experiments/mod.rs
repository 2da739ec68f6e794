//! Experiment runners: one function per table/figure of the paper.

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
