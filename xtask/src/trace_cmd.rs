//! `cargo run -p xtask -- trace <trace.jsonl>` — the trace analyzer.
//!
//! Streams a JSONL trace written by `anykey-bench --trace` through
//! [`anykey_metrics::trace::visit_jsonl`], folding each event into the
//! report as it is read, and prints the phase-breakdown report: per-phase
//! p50/p99/p999 latency attribution, the top-K longest flash stall windows
//! (ops that waited for a busy chip), and per-cause chip busy/stall
//! totals. Memory stays flat in the trace's size: only the top-K windows
//! and the cause table keep their strings. Everything is virtual time —
//! the report is byte-identical for any `--jobs` level the trace was
//! captured with.
//!
//! Exit codes: 0 ok, 2 usage/IO/parse error.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::io::BufRead;

use anykey_metrics::trace::{visit_jsonl, PhaseHists, TraceEvent, TRACE_SCHEMA_VERSION};
use anykey_metrics::ParseError;

fn usage() -> i32 {
    eprintln!(
        "usage: cargo run -p xtask -- trace <trace.jsonl> [--top K]\n\
         \n\
         Summarizes a JSONL trace captured with `anykey-bench --trace`:\n\
         per-phase latency attribution (p50/p99/p999), the K longest\n\
         chip-stall windows (default 10), and per-cause interference totals."
    );
    2
}

/// Runs the `trace` subcommand over `args` (everything after the
/// subcommand name). Returns the process exit code.
pub(crate) fn run_cli(args: &[String]) -> i32 {
    let mut path: Option<&str> = None;
    let mut top_k = 10usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--top" => {
                i += 1;
                let Some(v) = args.get(i).and_then(|v| v.parse::<usize>().ok()) else {
                    return usage();
                };
                top_k = v;
            }
            a if !a.starts_with('-') && path.is_none() => path = Some(a),
            _ => return usage(),
        }
        i += 1;
    }
    let Some(path) = path else {
        return usage();
    };
    match crate::load(path, |src| analyze(src, top_k)) {
        Ok(analysis) => {
            print!("{analysis}");
            0
        }
        Err(e) => {
            eprintln!("trace: {e}");
            2
        }
    }
}

/// Per-cause interference totals over a trace's flash ops.
struct CauseTotal {
    /// Cause tag (`host-read`, `compaction-write`, ...).
    cause: String,
    /// Number of flash ops with this cause.
    ops: u64,
    /// Total chip-busy time (`done − start`) in virtual ns.
    busy_ns: u64,
    /// Total queueing stall (`start − issued`) in virtual ns.
    stall_ns: u64,
}

/// One of the longest flash queueing stalls in a trace. Its fields rank it
/// in report order: longest first, then issue time, chip, document order
/// (unique, so the strings never take part).
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct StallWindow {
    /// Stall length (`start − issued`) in virtual ns.
    stall_ns: Reverse<u64>,
    /// Virtual ns the op was issued.
    issued: u64,
    /// Chip the op eventually ran on.
    chip: u32,
    /// The op's place among the trace's flash ops.
    seq: u64,
    /// Cause tag of the stalled op.
    cause: String,
    /// Key of the experiment point the op belongs to.
    point: String,
}

/// Summary statistics extracted from a trace.
#[derive(Default)]
struct TraceAnalysis {
    /// Number of experiment points in the trace.
    points: usize,
    /// Total flash-op events.
    flash_ops: u64,
    /// Total engine span events.
    spans: u64,
    /// Total request events.
    requests: u64,
    /// Per-phase latency histograms over all request events.
    phases: PhaseHists,
    /// The top-K longest flash stall windows, longest first.
    stalls: Vec<StallWindow>,
    /// Per-cause totals, sorted by busy time descending.
    causes: Vec<CauseTotal>,
}

/// Analyzes a JSONL trace as it streams in: per-phase latency
/// distributions, the `top_k` longest flash stall windows, and per-cause
/// interference totals.
fn analyze(src: impl BufRead, top_k: usize) -> Result<TraceAnalysis, ParseError> {
    let mut a = TraceAnalysis::default();
    // The `top_k` first stalls in report order so far, the last on top.
    let mut stalls = BinaryHeap::new();
    visit_jsonl(src, |point, event| match event {
        None => a.points += 1,
        Some(TraceEvent::FlashOp {
            cause,
            chip,
            issued,
            start,
            done,
            ..
        }) => {
            a.flash_ops += 1;
            let busy = done.saturating_sub(start);
            let stall = start.saturating_sub(issued);
            match a.causes.iter_mut().find(|c| c.cause == cause) {
                Some(c) => {
                    c.ops += 1;
                    c.busy_ns = c.busy_ns.saturating_add(busy);
                    c.stall_ns = c.stall_ns.saturating_add(stall);
                }
                None => a.causes.push(CauseTotal {
                    cause: cause.clone(),
                    ops: 1,
                    busy_ns: busy,
                    stall_ns: stall,
                }),
            }
            // Only a window that ranks into the top K copies its strings.
            let rank = (Reverse(stall), issued, chip, a.flash_ops);
            let ranks_in = |last: Option<&StallWindow>| last.is_some_and(|w| rank < w.rank());
            if stall > 0 && (stalls.len() < top_k || ranks_in(stalls.peek())) {
                stalls.push(StallWindow {
                    stall_ns: rank.0,
                    issued,
                    chip,
                    seq: rank.3,
                    cause,
                    point: point.to_string(),
                });
                if stalls.len() > top_k {
                    stalls.pop();
                }
            }
        }
        Some(TraceEvent::Span { .. }) => a.spans += 1,
        Some(TraceEvent::Request { phases, .. }) => {
            a.requests += 1;
            a.phases.record(&phases);
        }
    })?;
    a.stalls = stalls.into_sorted_vec();
    a.causes
        .sort_by(|x, y| y.busy_ns.cmp(&x.busy_ns).then(x.cause.cmp(&y.cause)));
    Ok(a)
}

impl StallWindow {
    /// The fields that rank the window, in ranking order.
    fn rank(&self) -> (Reverse<u64>, u64, u32, u64) {
        (self.stall_ns, self.issued, self.chip, self.seq)
    }
}

impl fmt::Display for TraceAnalysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "trace: {} point(s), {} flash ops, {} spans, {} requests (schema v{})",
            self.points, self.flash_ops, self.spans, self.requests, TRACE_SCHEMA_VERSION
        )?;
        writeln!(f)?;
        writeln!(f, "per-request phase latency (virtual ns):")?;
        writeln!(
            f,
            "  {:<12} {:>12} {:>12} {:>12} {:>16}",
            "phase", "p50", "p99", "p999", "total"
        )?;
        for (name, hist) in self.phases.named() {
            writeln!(
                f,
                "  {:<12} {:>12} {:>12} {:>12} {:>16}",
                name,
                hist.p50(),
                hist.p99(),
                hist.p999(),
                hist.total()
            )?;
        }
        writeln!(f)?;
        writeln!(
            f,
            "top {} flash stall windows (dispatch − issue):",
            self.stalls.len()
        )?;
        writeln!(
            f,
            "  {:>12} {:<18} {:>5} {:>14}  point",
            "stall_ns", "cause", "chip", "issued_ns"
        )?;
        for s in &self.stalls {
            writeln!(
                f,
                "  {:>12} {:<18} {:>5} {:>14}  {}",
                s.stall_ns.0, s.cause, s.chip, s.issued, s.point
            )?;
        }
        writeln!(f)?;
        writeln!(f, "per-cause interference totals:")?;
        writeln!(
            f,
            "  {:<18} {:>10} {:>16} {:>16}",
            "cause", "ops", "busy_ns", "stall_ns"
        )?;
        for c in &self.causes {
            writeln!(
                f,
                "  {:<18} {:>10} {:>16} {:>16}",
                c.cause, c.ops, c.busy_ns, c.stall_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anykey_metrics::trace::{write_jsonl, PhaseBreakdown};

    /// Analyzes `points` through their JSONL document.
    fn analyzed(points: &[(String, Vec<TraceEvent>)], top_k: usize) -> TraceAnalysis {
        analyze(write_jsonl(points).as_bytes(), top_k).unwrap()
    }

    fn sample_points() -> Vec<(String, Vec<TraceEvent>)> {
        let events = vec![
            TraceEvent::FlashOp {
                op: "read".into(),
                cause: "host-read".into(),
                chip: 3,
                channel: 1,
                issued: 100,
                start: 150,
                done: 250,
                retries: 0,
            },
            TraceEvent::Span {
                kind: "compaction".into(),
                label: "keep".into(),
                level: 1,
                id: 7,
                start: 90,
                end: 900,
                pages_read: 12,
                pages_written: 8,
            },
            TraceEvent::FlashOp {
                op: "program".into(),
                cause: "compaction-write".into(),
                chip: 0,
                channel: 0,
                issued: 200,
                start: 400,
                done: 700,
                retries: 1,
            },
            TraceEvent::Request {
                op: "get".into(),
                seq: 0,
                issued: 100,
                done: 260,
                found: true,
                flash_reads: 1,
                phases: PhaseBreakdown {
                    queue_wait: 50,
                    meta_read: 0,
                    data_read: 100,
                    log_read: 0,
                    engine: 10,
                },
            },
        ];
        vec![("p".to_string(), events)]
    }

    #[test]
    fn analysis_totals_and_stalls() {
        let points = sample_points();
        let a = analyzed(&points, 10);
        assert_eq!(a.flash_ops, 2);
        assert_eq!(a.spans, 1);
        assert_eq!(a.requests, 1);
        // Longest stall first: compaction-write waited 200 ns, host-read 50.
        assert_eq!(a.stalls.len(), 2);
        assert_eq!(a.stalls[0].cause, "compaction-write");
        assert_eq!(a.stalls[0].stall_ns.0, 200);
        assert_eq!(a.stalls[1].stall_ns.0, 50);
        // Causes sorted by busy time: compaction-write 300 > host-read 100.
        assert_eq!(a.causes[0].cause, "compaction-write");
        assert_eq!(a.causes[0].busy_ns, 300);
        assert_eq!(a.causes[1].cause, "host-read");
        assert_eq!(a.causes[1].stall_ns, 50);
        // Phase hists saw the one request.
        assert_eq!(a.phases.data_read.count(), 1);
        assert_eq!(a.phases.data_read.total(), 100);
        // Report renders without panicking and mentions the cause.
        let text = a.to_string();
        assert!(text.contains("compaction-write"));
        assert!(text.contains("queue-wait"));
    }

    #[test]
    fn top_k_truncates() {
        let points = sample_points();
        let a = analyzed(&points, 1);
        assert_eq!(a.stalls.len(), 1);
        assert_eq!(a.stalls[0].stall_ns.0, 200);
    }

    #[test]
    fn top_k_ties_keep_document_order() {
        // Equal stall, issue time and chip: the op earlier in the document
        // ranks first, across points too.
        let op = |cause: &str, chip: u32| TraceEvent::FlashOp {
            op: "read".into(),
            cause: cause.into(),
            chip,
            channel: 0,
            issued: 10,
            start: 20,
            done: 30,
            retries: 0,
        };
        let points = vec![
            ("a".to_string(), vec![op("chip2", 2), op("first", 1)]),
            ("b".to_string(), vec![op("second", 1), op("third", 1)]),
        ];
        let ranked = |k| {
            let a = analyzed(&points, k);
            a.stalls
                .iter()
                .map(|s| format!("{}@{}", s.cause, s.point))
                .collect::<Vec<_>>()
        };
        assert_eq!(ranked(3), ["first@a", "second@b", "third@b"]);
        assert_eq!(ranked(10), ["first@a", "second@b", "third@b", "chip2@a"]);
        assert!(ranked(0).is_empty());
    }
}
