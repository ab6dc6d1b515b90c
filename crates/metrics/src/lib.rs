//! # anykey-metrics
//!
//! Measurement toolkit for the AnyKey reproduction experiments: latency
//! histograms with percentile/CDF extraction (the paper reports p95 tail
//! latencies and latency CDFs), ASCII/CSV report rendering for the
//! benchmark harness, and the three machine-readable artifacts of a run:
//! the `summary.json` regression-gate document, virtual-time traces, and
//! state-sample timelines. All three share one JSON codec whose one parsed
//! form, [`Json`], also carries `BENCHMARK.json` and hostbench's result
//! lines for `xtask bench-record`. This crate writes and parses the trace
//! and timeline documents; the reports over them (`xtask trace`, `xtask
//! timeline`) live in xtask, their only caller. The steady-state detector
//! stays here because the bench scheduler computes `converged_waf` with it.
//!
//! ```
//! use anykey_metrics::LatencyHist;
//!
//! let mut h = LatencyHist::new();
//! for v in [100, 200, 300, 400, 1_000_000] {
//!     h.record(v);
//! }
//! assert!(h.quantile(0.5) >= 200);
//! assert!(h.quantile(0.99) >= 400_000);
//! ```

/// Log-bucketed latency histograms.
pub mod hist;
mod json;
/// Run-report assembly and rendering.
pub mod report;
/// Machine-readable `summary.json` schema, parser, and tolerance diff.
pub mod summary;
/// Virtual-time state-sample timelines, exporters, parser, and the
/// steady-state detector.
pub mod timeline;
/// Virtual-time trace events, phase attribution, exporters, and the
/// streaming reader.
pub mod trace;

/// Log-bucketed latency histogram with exact quantile queries.
pub use hist::LatencyHist;
/// The JSON codec's string escape, its one parsed form and its one
/// parse-error type.
pub use json::{esc, Json, ParseError};
/// Report renderers (CSV and aligned-table output).
pub use report::Table;
/// The `summary.json` schema and diff entry points.
pub use summary::{diff, parse, PointSummary, RunSummary};
/// The timeline sample model and steady-state detector.
pub use timeline::{
    detect_steady_state, LevelSample, StateSample, SteadyState, WafPoint, TIMELINE_SCHEMA_VERSION,
};
/// The trace event model and phase-breakdown aggregates.
pub use trace::{PhaseBreakdown, PhaseHists, TraceEvent, TRACE_SCHEMA_VERSION};
