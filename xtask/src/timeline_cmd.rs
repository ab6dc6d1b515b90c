//! `cargo run -p xtask -- timeline <timeline.jsonl>` — the timeline
//! analyzer.
//!
//! Parses a JSONL timeline written by `anykey-bench --timeline` with
//! [`anykey_metrics::timeline::parse_jsonl`] and prints its report:
//! per-point burn-in/steady-state detection (the sliding-window WAF-slope
//! test of [`anykey_metrics::detect_steady_state`]), converged-WAF values,
//! and compaction-storm / GC-debt windows. All timestamps are virtual —
//! the report is byte-identical for any `--jobs` level the timeline was
//! captured with.
//!
//! Exit codes: 0 ok, 1 `--assert-converged` failed, 2 usage/IO/parse
//! error.

use std::fmt;

use anykey_metrics::timeline::{
    detect_steady_state, parse_jsonl, StateSample, SteadyState, DEFAULT_STEADY_TOL,
    DEFAULT_STEADY_WINDOW, TIMELINE_SCHEMA_VERSION,
};

fn usage() -> i32 {
    eprintln!(
        "usage: cargo run -p xtask -- timeline <timeline.jsonl>\n\
         \x20      [--window N] [--tol F] [--assert-converged]\n\
         \n\
         Analyzes a JSONL timeline captured with `anykey-bench --timeline`:\n\
         burn-in/steady-state window per point (a window of N samples is\n\
         steady when cumulative WAF moved < F relative; defaults N=8,\n\
         F=0.05), converged WAF, and compaction-storm / GC-debt windows.\n\
         With --assert-converged, exits 1 unless every point with at least\n\
         one full window of samples reached a steady state (the CI gate)."
    );
    2
}

/// Runs the `timeline` subcommand over `args` (everything after the
/// subcommand name). Returns the process exit code.
pub(crate) fn run_cli(args: &[String]) -> i32 {
    let mut path: Option<&str> = None;
    let mut window = DEFAULT_STEADY_WINDOW;
    let mut tol = DEFAULT_STEADY_TOL;
    let mut assert_converged = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--window" => {
                i += 1;
                let Some(v) = args.get(i).and_then(|v| v.parse::<usize>().ok()) else {
                    return usage();
                };
                window = v;
            }
            "--tol" => {
                i += 1;
                let Some(v) = args.get(i).and_then(|v| v.parse::<f64>().ok()) else {
                    return usage();
                };
                tol = v;
            }
            "--assert-converged" => assert_converged = true,
            a if !a.starts_with('-') && path.is_none() => path = Some(a),
            _ => return usage(),
        }
        i += 1;
    }
    let Some(path) = path else {
        return usage();
    };
    let points = match crate::load(path, parse_jsonl) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("timeline: {e}");
            return 2;
        }
    };
    let a = analyze(&points, window, tol);
    print!("{a}");
    if assert_converged && !a.all_converged() {
        eprintln!(
            "timeline: --assert-converged failed: at least one point never reached steady state"
        );
        return 1;
    }
    0
}

/// A run of consecutive flagged sample intervals: its first and last
/// sample's virtual ns (relative to the point's first sample) and the
/// flag's two quantities summed over it.
struct Window {
    start_ns: u64,
    end_ns: u64,
    sums: [u64; 2],
}

/// Analysis of one experiment point's timeline.
struct PointTimeline {
    /// The point's key.
    key: String,
    /// Number of samples in the capture.
    samples: usize,
    /// Virtual-time span from first to last sample.
    span_ns: u64,
    /// Cumulative WAF at the final sample.
    final_waf: f64,
    /// Detected steady state, if the curve settled.
    steady: Option<SteadyState>,
    /// Compaction storms, in time order: intervals where background
    /// (compaction + GC) programs exceeded twice the foreground (host +
    /// log + meta) programs. Sums are `[background, foreground]`.
    storms: Vec<Window>,
    /// GC-debt windows, in time order: intervals where GC wrote nothing
    /// while stale value-log bytes grew or free blocks dropped. Sums are
    /// `[stale bytes accrued, free blocks lost]`.
    gc_debt: Vec<Window>,
}

/// Summary statistics extracted from a parsed timeline.
struct TimelineAnalysis {
    /// Detector window length used.
    window: usize,
    /// Detector relative tolerance used.
    tol: f64,
    /// Per-point analyses, in document order.
    points: Vec<PointTimeline>,
}

impl TimelineAnalysis {
    /// Whether every point with at least one detector window of samples
    /// reached a steady state — the `--assert-converged` CI gate.
    fn all_converged(&self) -> bool {
        self.points
            .iter()
            .filter(|p| p.samples >= self.window)
            .all(|p| p.steady.is_some())
    }
}

/// Merges runs of consecutive flagged sample intervals into windows, times
/// relative to `base`. `flag` returns an interval's two quantities when
/// the interval is flagged.
fn windows_of(
    samples: &[StateSample],
    base: u64,
    flag: impl Fn(&StateSample, &StateSample) -> Option<[u64; 2]>,
) -> Vec<Window> {
    let mut out: Vec<Window> = Vec::new();
    let mut open = false;
    for w in samples.windows(2) {
        let hit = flag(&w[0], &w[1]);
        if let Some([a, b]) = hit {
            let end_ns = w[1].ts_ns.saturating_sub(base);
            match out.last_mut().filter(|_| open) {
                Some(last) => {
                    last.end_ns = end_ns;
                    last.sums = [last.sums[0] + a, last.sums[1] + b];
                }
                None => out.push(Window {
                    start_ns: w[0].ts_ns.saturating_sub(base),
                    end_ns,
                    sums: [a, b],
                }),
            }
        }
        open = hit.is_some();
    }
    out
}

/// Analyzes a parsed timeline: per-point steady-state detection (sliding
/// WAF-slope window of `window` samples at relative tolerance `tol`),
/// convergence values, and compaction-storm / GC-debt windows.
fn analyze(points: &[(String, Vec<StateSample>)], window: usize, tol: f64) -> TimelineAnalysis {
    let points = points.iter().map(|(key, samples)| {
        // All reported times are relative to the point's first sample
        // (its measured-phase start), matching `burnin_ns` in
        // `summary.json` rather than the absolute virtual clock.
        let base = samples.first().map_or(0, |s| s.ts_ns);
        let curve: Vec<(u64, f64)> = samples
            .iter()
            .map(|s| (s.ts_ns.saturating_sub(base), s.cum_waf))
            .collect();
        PointTimeline {
            key: key.clone(),
            samples: samples.len(),
            span_ns: samples.last().map_or(0, |l| l.ts_ns.saturating_sub(base)),
            final_waf: samples.last().map_or(0.0, |s| s.cum_waf),
            steady: detect_steady_state(&curve, window, tol),
            storms: windows_of(samples, base, |p, c| {
                let bg = (c.comp_writes + c.gc_writes).saturating_sub(p.comp_writes + p.gc_writes);
                let fg = (c.host_writes + c.log_writes + c.meta_writes)
                    .saturating_sub(p.host_writes + p.log_writes + p.meta_writes);
                (bg > 0 && bg > 2 * fg).then_some([bg, fg])
            }),
            gc_debt: windows_of(samples, base, |p, c| {
                let stale = c
                    .value_log_stale_bytes
                    .saturating_sub(p.value_log_stale_bytes);
                let drop = p.free_blocks.saturating_sub(c.free_blocks);
                (c.gc_writes == p.gc_writes && (stale > 0 || drop > 0)).then_some([stale, drop])
            }),
        }
    });
    TimelineAnalysis {
        window,
        tol,
        points: points.collect(),
    }
}

/// Formats virtual ns as milliseconds with three decimals.
fn ms(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000_000, (ns % 1_000_000) / 1_000)
}

impl fmt::Display for TimelineAnalysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "timeline: {} point(s) (schema v{}, window {}, tol {:.0}%)",
            self.points.len(),
            TIMELINE_SCHEMA_VERSION,
            self.window,
            self.tol * 100.0
        )?;
        for p in &self.points {
            writeln!(f)?;
            writeln!(
                f,
                "point {} — {} samples over {} virtual ms",
                p.key,
                p.samples,
                ms(p.span_ns)
            )?;
            match &p.steady {
                Some(s) => {
                    writeln!(
                        f,
                        "  steady state from sample {} (burn-in horizon {} ms); \
                         converged WAF {:.3}, final WAF {:.3}",
                        s.start_idx,
                        ms(s.start_ns),
                        s.converged_waf,
                        p.final_waf
                    )?;
                }
                None => writeln!(
                    f,
                    "  NOT CONVERGED — final WAF {:.3} still moving (or too few samples)",
                    p.final_waf
                )?,
            }
            writeln!(
                f,
                "  compaction storms: {}   gc-debt windows: {}",
                p.storms.len(),
                p.gc_debt.len()
            )?;
            for s in &p.storms {
                writeln!(
                    f,
                    "    storm {} – {} ms: {} bg vs {} fg programs",
                    ms(s.start_ns),
                    ms(s.end_ns),
                    s.sums[0],
                    s.sums[1]
                )?;
            }
            for d in &p.gc_debt {
                writeln!(
                    f,
                    "    debt  {} – {} ms: +{} stale bytes, −{} free blocks",
                    ms(d.start_ns),
                    ms(d.end_ns),
                    d.sums[0],
                    d.sums[1]
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analysis_flags_storms_and_debt() {
        let mut samples: Vec<StateSample> = (0..6u64)
            .map(|i| StateSample {
                seq: i,
                ts_ns: i * 100,
                cum_waf: 2.0,
                host_writes: 10 * i,
                free_blocks: 50,
                ..StateSample::default()
            })
            .collect();
        // Samples 2→3: compaction burst with no host writes.
        samples[3].comp_writes = 500;
        samples[3].host_writes = samples[2].host_writes;
        for s in &mut samples[4..] {
            s.comp_writes = 500;
        }
        // Samples 4→5: stale bytes grow and free blocks drop with GC idle.
        samples[5].value_log_stale_bytes = 4096;
        samples[5].free_blocks = 40;

        let a = analyze(&[("p".to_string(), samples)], 4, 0.05);
        assert_eq!(a.points.len(), 1);
        let p = &a.points[0];
        assert_eq!(p.storms.len(), 1);
        assert_eq!(p.storms[0].sums[0], 500);
        assert_eq!(p.gc_debt.len(), 1);
        assert_eq!(p.gc_debt[0].sums, [4096, 10]);
        // Flat WAF converges; the report renders and mentions the verdict.
        assert!(p.steady.is_some());
        assert!(a.all_converged());
        let text = a.to_string();
        assert!(text.contains("steady state"));
        assert!(text.contains("storm"));
    }

    #[test]
    fn assert_converged_ignores_short_points_but_fails_unsettled_ones() {
        let short = StateSample {
            cum_waf: 1.0,
            ..StateSample::default()
        };
        assert!(analyze(&[("p".to_string(), vec![short])], 8, 0.05).all_converged());

        let rising: Vec<StateSample> = (0..16u64)
            .map(|i| StateSample {
                seq: i,
                ts_ns: i * 100,
                cum_waf: 1.0 + i as f64,
                ..StateSample::default()
            })
            .collect();
        let a = analyze(&[("p".to_string(), rising)], 8, 0.05);
        assert!(!a.all_converged());
        assert!(a.to_string().contains("NOT CONVERGED"));
    }
}
