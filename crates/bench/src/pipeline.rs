//! The sweep pipeline of `anykey-bench`: select experiments, gather their
//! points into one global list, schedule it, then render, summarise and
//! export in declaration order.
//!
//! The binary and the determinism tests both drive [`sweep`], so the
//! tests check the exact render and export path the CLI runs. Every
//! output is byte-identical for any `--jobs` value (modulo the wall-time
//! fields of the summary).

use std::io;
use std::ops::Range;
use std::path::Path;

use anykey_metrics::summary::RunSummary;
use anykey_metrics::{timeline, trace, StateSample, TraceEvent};

use crate::common::ExpCtx;
use crate::experiments::{self, Experiment};
use crate::scheduler::{build_summary, run_points, Point, SchedulerRun};

/// A completed sweep over one or more experiments.
#[derive(Debug)]
pub struct Sweep {
    ctx: ExpCtx,
    points: Vec<Point>,
    run: SchedulerRun,
    /// Each selected experiment and the slice of `points` it declared.
    plan: Vec<(&'static Experiment, Range<usize>)>,
}

/// Runs the experiments named by `ids` (`all` selects every experiment)
/// on `jobs` worker threads. The points of all of them form one list, so
/// the scheduler dedups and balances across experiments.
///
/// # Errors
///
/// Returns a message naming the first unknown experiment id; nothing runs
/// then.
pub fn sweep(ctx: &ExpCtx, ids: &[&str], jobs: usize) -> Result<Sweep, String> {
    let ids = if ids.contains(&"all") {
        experiments::ids()
    } else {
        ids.to_vec()
    };
    let mut plan = Vec::new();
    let mut points = Vec::new();
    for id in ids {
        let exp = experiments::by_id(id).ok_or_else(|| format!("unknown experiment '{id}'"))?;
        let start = points.len();
        points.extend((exp.points)(ctx));
        plan.push((exp, start..points.len()));
    }
    let run = run_points(ctx, &points, jobs);
    Ok(Sweep {
        ctx: ctx.clone(),
        points,
        run,
        plan,
    })
}

impl Sweep {
    /// Every selected experiment's points, in declaration order.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// The scheduled results, one per point, and the scheduler's figures.
    pub fn run(&self) -> &SchedulerRun {
        &self.run
    }

    /// Prints the harness notes (keyspace shrinks etc.) to stderr, then
    /// renders each experiment's tables and CSVs from its points paired
    /// with their results, all in declaration order: never interleaved by
    /// worker threads.
    pub fn render(&self) {
        for note in self.run.results.iter().filter_map(|r| r.note.as_ref()) {
            eprintln!("{note}");
        }
        for (exp, range) in &self.plan {
            println!("## {}", exp.id);
            let points = &self.points[range.clone()];
            let rows: Vec<_> = points
                .iter()
                .zip(&self.run.results[range.clone()])
                .collect();
            (exp.render)(&self.ctx, &rows);
        }
    }

    /// The machine-readable run summary (`summary.json`).
    pub fn summary(&self) -> RunSummary {
        build_summary(&self.ctx, &self.points, &self.run)
    }

    /// Each unique simulation's trace (its representative point only), in
    /// declaration order.
    pub fn traces(&self) -> Vec<(&str, &[TraceEvent])> {
        let points = self.points.iter().zip(&self.run.results);
        points
            .filter_map(|(p, r)| Some((p.key.as_str(), r.trace.as_deref()?)))
            .collect()
    }

    /// Each unique simulation's timeline (its representative point only),
    /// in declaration order.
    pub fn timelines(&self) -> Vec<(&str, &[StateSample])> {
        let points = self.points.iter().zip(&self.run.results);
        points
            .filter_map(|(p, r)| Some((p.key.as_str(), r.timeline.as_deref()?)))
            .collect()
    }

    /// Writes [`Self::traces`] to `path`, as Chrome trace-event JSON when
    /// the path ends in `.json` and as JSONL otherwise, and returns the
    /// format's name.
    ///
    /// # Errors
    ///
    /// Returns the error of the file write.
    pub fn write_trace(&self, path: &Path) -> io::Result<&'static str> {
        let named = self.traces();
        let (body, format) = if path.extension().is_some_and(|e| e == "json") {
            (trace::write_chrome(&named), "chrome")
        } else {
            (trace::write_jsonl(&named), "jsonl")
        };
        std::fs::write(path, body).map(|()| format)
    }

    /// Writes [`Self::timelines`] to `path`, as CSV when the path ends in
    /// `.csv` and as JSONL otherwise, and returns the format's name.
    ///
    /// # Errors
    ///
    /// Returns the error of the file write.
    pub fn write_timeline(&self, path: &Path) -> io::Result<&'static str> {
        let named = self.timelines();
        let (body, format) = if path.extension().is_some_and(|e| e == "csv") {
            (timeline::write_csv(&named), "csv")
        } else {
            (timeline::write_jsonl(&named), "jsonl")
        };
        std::fs::write(path, body).map(|()| format)
    }
}
