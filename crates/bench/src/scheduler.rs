//! The deterministic parallel experiment scheduler.
//!
//! Every experiment module declares its work as a flat list of [`Point`]s —
//! one isolated discrete-virtual-time simulation each (engine + workload +
//! run recipe + seed salt) — instead of running simulations inline. This
//! module executes those points on a `std::thread::scope` worker pool with
//! a bounded work queue and collects the results **in declaration order**,
//! so `--jobs N` and `--jobs 1` produce byte-identical CSVs: each point is
//! a self-contained simulation with its own seeded RNGs and engine
//! instance, and nothing about thread interleaving can leak into its
//! output. Rendering (tables, CSVs, notes) happens strictly after
//! collection, on the declared order: each experiment's renderer gets its
//! points paired with their results and takes its row labels from the
//! points. The [`Point`] constructors own the point-key format and the
//! workloads × evaluated-systems grid the paper's figures share.
//!
//! Identical points are deduplicated before execution: several paper
//! figures re-run the same (engine, workload, recipe) triple (e.g. Figure
//! 10's latency CDFs and Figure 11's reads-per-GET histograms come from
//! the same runs), and determinism guarantees the results are
//! interchangeable, so each unique simulation runs once and its result is
//! fanned back out to every requesting point.
//!
//! Wall-clock timing is confined to this file: the workspace's
//! `clippy::disallowed_types` bans `std::time` everywhere else (see
//! `clippy.toml`), keeping the simulation itself on virtual nanoseconds.

#![allow(clippy::disallowed_types)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use anykey_core::runner::{waf_from, DEFAULT_QUEUE_DEPTH};
use anykey_core::{
    run_with, warm_up, DeviceConfig, EngineKind, KvEngine, KvError, MetadataStats, RunReport,
    SampleCfg,
};
use anykey_metrics::summary::{PointSummary, RunSummary, SCHEMA_VERSION};
use anykey_metrics::timeline::{
    detect_steady_state, StateSample, DEFAULT_STEADY_TOL, DEFAULT_STEADY_WINDOW,
};
use anykey_metrics::trace::TraceEvent;
use anykey_workload::{ops::fill_ops, KeyDist, OpStreamBuilder, WorkloadSpec};

use crate::common::ExpCtx;

/// The measured-phase recipe of a [`RunKind::Measure`] point.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasureSpec {
    /// Key-popularity distribution of the measured phase.
    pub dist: KeyDist,
    /// Fraction of measured requests that are PUTs.
    pub write_ratio: f64,
    /// Optional scan mix: `(scan_ratio, scan_len)`.
    pub scans: Option<(f64, u32)>,
    /// Device-config override; `None` uses the standard scale config.
    pub cfg: Option<Box<DeviceConfig>>,
    /// Warm-up keyspace override; `None` derives it from the scale.
    pub keyspace: Option<u64>,
    /// Measured-op-count override; `None` derives it from the scale.
    pub ops: Option<u64>,
    /// XOR salt applied to the scale seed for the measured op stream.
    pub seed_salt: u64,
}

impl Default for MeasureSpec {
    fn default() -> Self {
        Self {
            dist: KeyDist::default(),
            write_ratio: 0.2,
            scans: None,
            cfg: None,
            keyspace: None,
            ops: None,
            seed_salt: 0xBEEF,
        }
    }
}

/// What a point actually simulates.
#[derive(Debug, Clone, PartialEq)]
pub enum RunKind {
    /// Warm up to the scale keyspace, then drive a measured phase.
    Measure(MeasureSpec),
    /// Warm up only and snapshot metadata (Table 1's measured columns).
    WarmUpOnly,
    /// Insert unique pairs until the device reports full (Figure 14).
    FillUntilFull,
}

/// One declarative experiment point: a single isolated simulation and the
/// identity of the output row it feeds.
#[derive(Debug, Clone)]
pub struct Point {
    /// Output row key, unique within a run
    /// (`experiment/workload/system[/variant]`).
    pub key: String,
    /// Owning experiment id (`fig10`, `table3`, ...).
    pub experiment: &'static str,
    /// System under test.
    pub kind: EngineKind,
    /// Workload definition.
    pub spec: WorkloadSpec,
    /// The run recipe.
    pub run: RunKind,
}

impl MeasureSpec {
    /// The default measured-phase recipe on the device `cfg`.
    pub fn on(cfg: DeviceConfig) -> Self {
        Self {
            cfg: Some(Box::new(cfg)),
            ..Default::default()
        }
    }
}

impl From<MeasureSpec> for RunKind {
    fn from(m: MeasureSpec) -> Self {
        RunKind::Measure(m)
    }
}

impl Point {
    /// A point keyed `experiment/workload/system`.
    pub fn new(
        experiment: &'static str,
        kind: EngineKind,
        spec: WorkloadSpec,
        run: impl Into<RunKind>,
    ) -> Self {
        Self::with_key(
            format!("{experiment}/{}/{}", spec.name, kind.label()),
            experiment,
            kind,
            spec,
            run.into(),
        )
    }

    /// A point keyed `experiment/workload/system/variant`, one of several
    /// runs of the same system on the same workload.
    pub fn variant(
        experiment: &'static str,
        kind: EngineKind,
        spec: WorkloadSpec,
        variant: &str,
        run: impl Into<RunKind>,
    ) -> Self {
        let mut p = Self::new(experiment, kind, spec, run);
        p.key = format!("{}/{variant}", p.key);
        p
    }

    /// One `run` per workload and [`EngineKind::EVALUATED`] system,
    /// workload-major: the grid of the paper's three-system figures.
    pub fn grid(
        experiment: &'static str,
        workloads: impl IntoIterator<Item = WorkloadSpec>,
        run: impl Into<RunKind>,
    ) -> Vec<Self> {
        let run = run.into();
        workloads
            .into_iter()
            .flat_map(|w| EngineKind::EVALUATED.map(|kind| (w, kind)))
            .map(|(w, kind)| Self::new(experiment, kind, w, run.clone()))
            .collect()
    }

    /// A fully explicit point.
    pub fn with_key(
        key: String,
        experiment: &'static str,
        kind: EngineKind,
        spec: WorkloadSpec,
        run: RunKind,
    ) -> Self {
        Self {
            key,
            experiment,
            kind,
            spec,
            run,
        }
    }

    /// Whether two points describe the *same simulation* (identical
    /// engine, workload, and recipe) and may therefore share one
    /// execution. Keys and owning experiments are display identity and do
    /// not participate.
    pub fn same_work(&self, other: &Point) -> bool {
        self.kind == other.kind && self.spec == other.spec && self.run == other.run
    }
}

/// The outcome of one executed point.
#[derive(Debug, Clone)]
pub struct PointResult {
    /// Measured-phase report (counters only for points without a measured
    /// phase).
    pub report: RunReport,
    /// Metadata snapshot at the end of the run.
    pub meta: MetadataStats,
    /// Write amplification of the point (flash programs ÷ minimal host
    /// data pages; 0 when nothing was written).
    pub waf: f64,
    /// Host wall-clock seconds this point's simulation took. The only
    /// non-deterministic field; never rendered into CSVs.
    pub wall_secs: f64,
    /// Deterministic harness note (e.g. a keyspace shrink), printed after
    /// collection in point order.
    pub note: Option<String>,
    /// Recorded trace events of the measured phase (`--trace` only; `None`
    /// when tracing was off, for non-measure points, and for deduplicated
    /// repeats of the same simulation).
    pub trace: Option<Vec<TraceEvent>>,
    /// Periodic state samples of the measured phase (`--timeline` only;
    /// `None` when sampling was off, for non-measure points, and for
    /// deduplicated repeats of the same simulation).
    pub timeline: Option<Vec<StateSample>>,
    /// Mean cumulative WAF over the detected steady-state window of the
    /// measured phase, from the always-on WAF curve (0 when never settled
    /// or no measured writes).
    pub converged_waf: f64,
    /// Virtual ns of burn-in before the steady-state window (0 when never
    /// settled or not applicable).
    pub burnin_ns: u64,
}

/// A completed scheduled sweep.
#[derive(Debug)]
pub struct SchedulerRun {
    /// One result per requested point, in declaration order.
    pub results: Vec<PointResult>,
    /// Unique simulations actually executed (after deduplication).
    pub executed: usize,
    /// Worker threads used.
    pub jobs: usize,
    /// Wall-clock seconds for the whole sweep.
    pub wall_secs: f64,
}

/// Executes `points` on `jobs` worker threads and returns the results in
/// declaration order.
///
/// The work queue is bounded by construction: it is the fixed list of
/// unique points, with a single atomic cursor handing out the next index.
/// Workers never allocate new work and never block on each other; results
/// land in pre-allocated per-point slots, so collection order is the
/// declaration order regardless of completion order.
///
/// # Panics
///
/// Propagates a panic from any point's simulation: a point that cannot
/// complete even at half keyspace panics, and so does one that fails with
/// any error other than [`KvError::DeviceFull`].
pub fn run_points(ctx: &ExpCtx, points: &[Point], jobs: usize) -> SchedulerRun {
    let t0 = Instant::now();

    // Deduplicate identical simulations, preserving first-seen order:
    // `unique[slot]` is the representative point index, `assign[i]` the
    // slot feeding point `i`.
    let mut unique: Vec<usize> = Vec::new();
    let mut assign: Vec<usize> = Vec::with_capacity(points.len());
    for (i, p) in points.iter().enumerate() {
        match unique.iter().position(|&u| points[u].same_work(p)) {
            Some(slot) => assign.push(slot),
            None => {
                assign.push(unique.len());
                unique.push(i);
            }
        }
    }

    let jobs = jobs.clamp(1, unique.len().max(1));
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<PointResult>>> = unique.iter().map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&point_idx) = unique.get(i) else {
                    break;
                };
                let result = execute_point(ctx, &points[point_idx]);
                if let Ok(mut slot) = slots[i].lock() {
                    *slot = Some(result);
                }
            });
        }
    });

    // Fan results back out to every requesting point; the first
    // (representative) point of each slot takes its captures, so a trace
    // file lists each unique simulation exactly once, in declaration
    // order, independent of `--jobs`, and no capture is ever copied.
    let mut slots: Vec<PointResult> = slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("scheduler slot poisoned")
                .expect("scheduler slot not filled")
        })
        .collect();
    let results = assign
        .iter()
        .map(|&slot| {
            let r = &mut slots[slot];
            let (trace, timeline) = (r.trace.take(), r.timeline.take());
            PointResult {
                trace,
                timeline,
                ..r.clone()
            }
        })
        .collect();

    SchedulerRun {
        results,
        executed: unique.len(),
        jobs,
        wall_secs: t0.elapsed().as_secs_f64(),
    }
}

/// Executes one point's simulation (on the calling thread) and times it.
pub fn execute_point(ctx: &ExpCtx, point: &Point) -> PointResult {
    let t0 = Instant::now();
    let r = match &point.run {
        RunKind::Measure(m) => execute_measure(ctx, point, m),
        RunKind::WarmUpOnly => execute_warm_up(ctx, point),
        RunKind::FillUntilFull => execute_fill(ctx, point),
    };
    PointResult {
        wall_secs: t0.elapsed().as_secs_f64(),
        ..r
    }
}

/// The point's write amplification over the minimal pages for the host
/// bytes it wrote: the measured PUT/DELETE stream when there was one, the
/// live unique bytes (as that many 1-byte writes) for fill and warm-up
/// points.
fn waf_of(report: &RunReport, meta: &MetadataStats, spec: WorkloadSpec, cfg: &DeviceConfig) -> f64 {
    let (ops, bytes) = match report.writes.count() {
        0 => (meta.live_unique_bytes, 1),
        n => (n, spec.pair_bytes()),
    };
    let payload = u64::from(cfg.page_payload());
    waf_from(report.counters.total_writes(), ops, bytes, payload)
}

impl PointResult {
    /// A measurement-free result (warm-up-only and fill points), not yet
    /// timed.
    fn bare(report: RunReport, meta: MetadataStats, waf: f64) -> Self {
        Self {
            report,
            meta,
            waf,
            wall_secs: 0.0,
            note: None,
            trace: None,
            timeline: None,
            converged_waf: 0.0,
            burnin_ns: 0,
        }
    }
}

/// Runs the steady-state detector over a report's always-on WAF curve
/// (timestamps rebased to the measured-phase start) and returns
/// `(converged_waf, burnin_ns)` — `(0, 0)` when the curve never settled.
fn steady_metrics(report: &RunReport, pair_bytes: u64, page_payload: u64) -> (f64, u64) {
    let curve: Vec<(u64, f64)> = report
        .waf_curve
        .iter()
        .map(|w| {
            (
                w.ts_ns.saturating_sub(report.start),
                waf_from(w.flash_writes, w.write_ops, pair_bytes, page_payload),
            )
        })
        .collect();
    match detect_steady_state(&curve, DEFAULT_STEADY_WINDOW, DEFAULT_STEADY_TOL) {
        Some(s) => (s.converged_waf, s.start_ns),
        None => (0.0, 0),
    }
}

fn execute_measure(ctx: &ExpCtx, point: &Point, m: &MeasureSpec) -> PointResult {
    let spec = point.spec;
    let cfg = m
        .cfg
        .as_deref()
        .cloned()
        .unwrap_or_else(|| ctx.scale.device(point.kind, spec));
    let base_keyspace = m.keyspace.unwrap_or_else(|| ctx.scale.keyspace(spec));
    let n = m.ops.unwrap_or_else(|| ctx.scale.measured_ops(spec));
    // A configuration can sit so close to a system's capacity limit that
    // updates during the measured phase fill the device (that limit is
    // itself a result — Figure 14); rather than abort the whole suite,
    // retry with a slightly smaller keyspace. Only `DeviceFull` retries:
    // any other error is a defect and panics (`or_full`).
    for shrink in [1.0, 0.85, 0.7, 0.5] {
        let mut dev = cfg.build_engine();
        let keyspace = ((base_keyspace as f64 * shrink) as u64).max(1_000);
        let warm = warm_up(dev.as_mut(), spec, keyspace, ctx.scale.seed);
        if or_full(point, warm).is_none() {
            continue;
        }
        let mut builder = OpStreamBuilder::new(spec, keyspace)
            .write_ratio(m.write_ratio)
            .dist(m.dist.clone())
            .seed(ctx.scale.seed ^ m.seed_salt);
        if let Some((ratio, len)) = m.scans {
            builder = builder.scans(ratio, len);
        }
        let ops = builder.build();
        // Tracing and sampling are pure observation (virtual time is
        // untouched), so the report is identical in all four combinations;
        // only what gets recorded on the side differs.
        let sample_cfg = SampleCfg {
            interval_ns: ctx.timeline_interval_ns,
            pair_bytes: spec.pair_bytes(),
            page_payload: u64::from(cfg.page_payload()),
        };
        let sample = (ctx.timeline_interval_ns > 0).then_some(&sample_cfg);
        let outcome = run_with(dev.as_mut(), ops, n, DEFAULT_QUEUE_DEPTH, ctx.trace, sample);
        let Some((report, trace, timeline)) = or_full(point, outcome) else {
            continue;
        };
        let note = (shrink < 1.0).then(|| {
            format!(
                "note: {} on {} ran at {:.0}% keyspace (device-full at target fill)",
                point.kind,
                spec.name,
                shrink * 100.0
            )
        });
        let meta = dev.metadata();
        let waf = waf_of(&report, &meta, spec, &cfg);
        let (converged_waf, burnin_ns) =
            steady_metrics(&report, spec.pair_bytes(), u64::from(cfg.page_payload()));
        return PointResult {
            report,
            meta,
            waf,
            wall_secs: 0.0,
            note,
            trace,
            timeline,
            converged_waf,
            burnin_ns,
        };
    }
    panic!(
        "{} could not complete {} even at half keyspace",
        point.kind, spec.name
    );
}

/// A phase's value, or `None` when it stopped on [`KvError::DeviceFull`]
/// (the caller retries at a smaller keyspace).
///
/// # Panics
///
/// Panics on any other error, naming the point and the error.
fn or_full<T>(point: &Point, r: Result<T, KvError>) -> Option<T> {
    match r {
        Ok(v) => Some(v),
        Err(KvError::DeviceFull) => None,
        Err(e) => panic!("{} failed: {e}", point.key),
    }
}

fn execute_warm_up(ctx: &ExpCtx, point: &Point) -> PointResult {
    let spec = point.spec;
    let cfg = ctx.scale.device(point.kind, spec);
    let mut dev = cfg.build_engine();
    let keyspace = ctx.scale.keyspace(spec);
    warm_up(dev.as_mut(), spec, keyspace, ctx.scale.seed).expect("warm-up-only point failed");
    snapshot_result(dev.as_ref(), point, &cfg)
}

fn execute_fill(ctx: &ExpCtx, point: &Point) -> PointResult {
    let spec = point.spec;
    let cfg = ctx.scale.device(point.kind, spec);
    let mut dev = cfg.build_engine();
    let huge = 4 * ctx.scale.capacity / spec.pair_bytes();
    for op in fill_ops(spec, huge, ctx.scale.seed) {
        let at = dev.horizon();
        match dev.execute(&op, at) {
            Ok(_) => {}
            Err(KvError::DeviceFull) => break,
            Err(e) => panic!("unexpected error during fill: {e}"),
        }
    }
    snapshot_result(dev.as_ref(), point, &cfg)
}

/// The result of a point with no measured phase: the counters and
/// metadata its warm-up or fill left on `dev`.
fn snapshot_result(dev: &dyn KvEngine, point: &Point, cfg: &DeviceConfig) -> PointResult {
    let mut report = RunReport::empty(dev.horizon());
    report.counters = dev.counters();
    let meta = dev.metadata();
    let waf = waf_of(&report, &meta, point.spec, cfg);
    PointResult::bare(report, meta, waf)
}

/// Assembles the machine-readable run summary from a scheduled sweep.
/// Point order (and therefore JSON order) is the declaration order.
pub fn build_summary(ctx: &ExpCtx, points: &[Point], run: &SchedulerRun) -> RunSummary {
    use anykey_flash::OpCause;
    let points = points
        .iter()
        .zip(&run.results)
        .map(|(p, r)| {
            let rep = &r.report;
            let c = &rep.counters;
            PointSummary {
                key: p.key.clone(),
                experiment: p.experiment.to_string(),
                workload: p.spec.name.to_string(),
                system: p.kind.label().to_string(),
                ops: rep.ops,
                read_ops: rep.reads.count(),
                write_ops: rep.writes.count(),
                scan_ops: rep.scans.count(),
                virtual_ns: rep.end.saturating_sub(rep.start),
                iops: if rep.ops > 0 { rep.iops() } else { 0.0 },
                p50_read_ns: rep.reads.p50(),
                p95_read_ns: rep.reads.p95(),
                p99_read_ns: rep.reads.p99(),
                p50_write_ns: rep.writes.p50(),
                p95_write_ns: rep.writes.p95(),
                p99_write_ns: rep.writes.p99(),
                waf: r.waf,
                converged_waf: r.converged_waf,
                burnin_ns: r.burnin_ns,
                host_reads: c.reads(OpCause::HostRead),
                host_writes: c.writes(OpCause::HostWrite),
                meta_reads: c.reads(OpCause::MetaRead),
                meta_writes: c.writes(OpCause::MetaWrite),
                comp_reads: c.reads(OpCause::CompactionRead),
                comp_writes: c.writes(OpCause::CompactionWrite),
                gc_reads: c.reads(OpCause::GcRead),
                gc_writes: c.writes(OpCause::GcWrite),
                log_reads: c.reads(OpCause::LogRead),
                log_writes: c.writes(OpCause::LogWrite),
                erases: c.erases(),
                retry_reads: c.total_retry_reads(),
                phase_queue_ns: rep.phases.queue_wait.total(),
                phase_meta_ns: rep.phases.meta_read.total(),
                phase_data_ns: rep.phases.data_read.total(),
                phase_log_ns: rep.phases.log_read.total(),
                phase_engine_ns: rep.phases.engine.total(),
                phase_queue_p99_ns: rep.phases.queue_wait.p99(),
                phase_meta_p99_ns: rep.phases.meta_read.p99(),
                phase_data_p99_ns: rep.phases.data_read.p99(),
                phase_log_p99_ns: rep.phases.log_read.p99(),
                phase_engine_p99_ns: rep.phases.engine.p99(),
                wall_secs: r.wall_secs,
            }
        })
        .collect();
    RunSummary {
        schema_version: SCHEMA_VERSION,
        capacity_bytes: ctx.scale.capacity,
        seed: ctx.scale.seed,
        total_wall_secs: run.wall_secs,
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::Scale;

    #[test]
    #[should_panic(expected = "test/k1/AnyKey failed: key id")]
    fn a_point_that_fails_with_another_error_panics_with_it() {
        // 1-byte keys cannot hold the warm-up's ids past 255.
        let ctx = ExpCtx::new(Scale::default().quick());
        let spec = WorkloadSpec::synthetic("k1", 1, 32);
        let point = Point::new("test", EngineKind::AnyKey, spec, MeasureSpec::default());
        execute_point(&ctx, &point);
    }
}
