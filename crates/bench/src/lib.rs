//! Experiment harness: runs the paper's workloads through Spec-QP and the
//! TriniT baseline and renders every table and figure of §4.
//!
//! Protocol (matching §4.4): per query and per `k ∈ {10, 15, 20}` the
//! engine is warmed (statistics + cardinality caches — the paper's
//! precomputed metadata plus warm DB cache), then each technique is run
//! [`RUNS`] consecutive times and the average of the last
//! [`MEASURED_RUNS`] is reported.

pub mod harness;
pub mod tables;

pub use harness::{
    ablation_summary, measure_workload, DatasetReport, QueryMeasurement, KS, MEASURED_RUNS, RUNS,
};
pub use tables::{
    render_fig_by_relaxed, render_fig_by_tp, render_table2, render_table3, render_table4,
};
