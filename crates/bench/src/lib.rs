//! # o1-bench — the benchmark harness for *Towards O(1) Memory*
//!
//! [`experiments`] regenerates every figure of the paper (and the
//! ablations DESIGN.md adds) as deterministic simulated-time series;
//! [`series`] holds the data and prints paper-style tables; [`attrib`]
//! and [`latency`] turn traced runs into cost-attribution and
//! tail-latency views; [`diff`] is the perf-regression gate behind
//! the `bench-diff` binary. The `figures` binary drives it all.
//! Host-side speed is measured separately, by the `hostbench`
//! package at the repository root.

pub mod attrib;
pub mod diff;
pub mod experiments;
pub mod json;
pub mod jsonval;
pub mod latency;
pub mod runner;
pub mod series;

pub use attrib::attribution_table_with;
pub use diff::{diff_metrics, figure_metrics, metrics_from_value, DiffReport};
pub use latency::{
    figure_extras, figures_to_json_pretty_with_extras, latency_table_with, FigureExtras,
};
pub use runner::{run_figures, RunnerOptions, SuiteScale};
pub use series::{figures_to_json_pretty, Figure, Series};
