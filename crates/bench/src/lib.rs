//! # anykey-bench
//!
//! The experiment harness of the AnyKey reproduction: one module per table
//! or figure of the paper's evaluation (Section 5–6), each regenerating the
//! same rows/series the paper reports — at a scaled-down capacity with the
//! paper's ratios (DRAM = 0.1 % of capacity, 8-channel × 8-chip geometry,
//! Zipfian 0.99, 20 % writes, queue depth 64) so a full sweep runs in
//! minutes instead of the paper's 4–13 hours per workload.
//!
//! Run `anykey-bench all` (or a single experiment id like `fig12`) from the
//! workspace root; tables print to stdout and CSV series land in
//! `results/`.

/// Shared experiment context and scaling.
pub mod common;
/// One module per reproduced paper table/figure.
pub mod experiments;
/// The sweep pipeline: select, schedule, render, summarise, export.
pub mod pipeline;
/// Declarative experiment points and the deterministic parallel scheduler.
pub mod scheduler;

/// Experiment context and scale.
pub use common::{ExpCtx, Scale};
/// The sweep pipeline entry.
pub use pipeline::{sweep, Sweep};
/// The scheduler's point model and entry points.
pub use scheduler::{build_summary, run_points, Point, PointResult, RunKind, SchedulerRun};
