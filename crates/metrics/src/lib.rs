//! # dynbatch-metrics
//!
//! Accounting, statistics and reporting for batch-system runs: exact
//! busy-core utilization integration, Table-II-style run summaries,
//! waiting-time series (the paper's Figs 8–11), and terminal/CSV
//! rendering.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fairness;
pub mod gantt;
pub mod recorder;
pub mod report;
pub mod series;
pub mod stats;
pub mod summary;

pub use fairness::{
    jain_index, per_user_excess, per_user_waits, user_wait_fairness, UserWaitSummary,
};
pub use gantt::{gantt_csv, gantt_rows, GanttRow};
pub use recorder::{throughput_jobs_per_min, UtilizationRecorder};
pub use report::{ascii_plot, render_csv, render_table2};
pub use series::{waits_by_submission, waits_of_type};
pub use stats::{aggregate, summarize_ensemble, Aggregate, EnsembleStats};
pub use summary::RunSummary;
