//! # anykey-metrics
//!
//! Measurement toolkit for the AnyKey reproduction experiments: latency
//! histograms with percentile/CDF extraction (the paper reports p95 tail
//! latencies and latency CDFs), ASCII/CSV report rendering for the
//! benchmark harness, and the three machine-readable artifacts of a run:
//! the `summary.json` regression-gate document, virtual-time traces, and
//! state-sample timelines. All three share one JSON codec, which also
//! reads `BENCHMARK.json` and hostbench's result lines for `xtask
//! bench-record` through [`Json`].
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
/// Virtual-time state-sample timelines, exporters, and the steady-state
/// analyzer.
pub mod timeline;
/// Virtual-time trace events, phase attribution, and exporters.
pub mod trace;

/// Log-bucketed latency histogram with exact quantile queries.
pub use hist::LatencyHist;
/// The JSON codec's string escape, nested-document reader and one
/// parse-error type (summary, trace, timeline and [`Json`] readers).
pub use json::{esc, Json, ParseError};
/// Report renderers (CSV and aligned-table output).
pub use report::{Csv, Table};
/// The `summary.json` schema and diff entry points.
pub use summary::{diff, parse, PointSummary, RunSummary};
/// The timeline sample model and steady-state detector.
pub use timeline::{
    detect_steady_state, LevelSample, StateSample, SteadyState, WafPoint, TIMELINE_SCHEMA_VERSION,
};
/// The trace event model and phase-breakdown aggregates.
pub use trace::{PhaseBreakdown, PhaseHists, TraceEvent, TRACE_SCHEMA_VERSION};
