//! One benchmark run: repeats of one point for a time budget, the
//! correctness gate across repeats, and the metrics it reports.

use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use anykey_core::runner::waf_from;
use anykey_flash::OpCause;
use anykey_metrics::summary::{PointSummary, RunSummary, SCHEMA_VERSION};
use anykey_metrics::trace::write_chrome;
use anykey_workload::rng::mix64;

use crate::adapters::CallClass;
use crate::plan::{Plan, Size, Workload};
use crate::point::{run_point, Phase, PointRun};

/// Fewest repeats a run makes, however short its time budget.
const MIN_REPEATS: usize = 3;

/// Set-up samples taken before each repeat; `setup_s` is the median of all
/// of them.
const SETUP_SAMPLES_PER_REPEAT: usize = 3;

/// A run starts no repeat that, as long as its longest repeat so far,
/// would end past this many times its time budget, so a slow host cannot
/// stretch a run without bound.
const OVERRUN: f64 = 1.15;

/// Host seconds one set-up sample should last at least. Building the
/// engine alone takes about a microsecond (it allocates lazily), so where
/// there is no Zipfian ζ to precompute a sample times a batch of builds.
const SETUP_SAMPLE_S: f64 = 1e-3;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Time budget: sets the number of repeats (see [`Plan::repeats`]),
    /// fewer if the host is too slow to fit them (see [`OVERRUN`]).
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Run size.
    pub size: Size,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything a run measured.
#[derive(Debug)]
pub struct Outcome {
    /// What ran.
    pub plan: Plan,
    /// Every repeat, in order; traced and untraced alternate in a traced run.
    pub runs: Vec<PointRun>,
    /// Host seconds per build of each set-up sample.
    pub setup_samples: Vec<f64>,
    /// Operations attempted over all repeats.
    pub attempted: u64,
    /// Operations that failed: returned an error, or belong to a phase
    /// whose correctness gate failed.
    pub failed: u64,
    /// Why phases failed, one line each.
    pub failures: Vec<String>,
    /// Digest of the first repeat's simulation; every repeat matched it
    /// unless `failures` says otherwise.
    pub sim_digest: u64,
    /// The reported metrics: end-to-end ones for an untraced run,
    /// per-layer ones for a traced run.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Whether every phase of every repeat passed its gate.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The value of metric `name`, if reported.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Where traced runs write their summary and spans: `out/` beside this
/// package's manifest, so it stays inside the checkout being measured.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Runs the benchmark described by `opts`.
pub fn run(opts: &Options) -> Outcome {
    let plan = Plan::new(opts.workload, opts.size, opts.seed);
    let origin = Instant::now();
    let set_up = |builds: u32| {
        let t = Instant::now();
        for _ in 0..builds {
            let built = (
                plan.cfg.build_engine(),
                (!plan.workload.is_fill()).then(|| plan.run_stream()),
            );
            drop(black_box(built));
        }
        t.elapsed().as_secs_f64() / f64::from(builds)
    };
    let one = set_up(1);
    let batch = (SETUP_SAMPLE_S / one.max(1e-9)).ceil().clamp(1.0, 4096.0) as u32;
    let mut setup_samples: Vec<f64> = Vec::new();

    let mut runs: Vec<PointRun> = Vec::new();
    let mut longest = 0.0f64;
    for i in 0..plan.repeats(opts.seconds, MIN_REPEATS) {
        let at = origin.elapsed().as_secs_f64();
        if i >= MIN_REPEATS && at + longest > opts.seconds * OVERRUN {
            break;
        }
        // Set-up samples are spread over the run, so they see the same
        // mix of quiet and contended host time as the repeats.
        setup_samples.extend((0..SETUP_SAMPLES_PER_REPEAT).map(|_| set_up(batch)));
        // A traced run alternates traced and untraced repeats, traced
        // first so its memory figures come from a fresh process.
        let r = run_point(&plan, opts.trace && i % 2 == 0, origin);
        longest = longest.max(origin.elapsed().as_secs_f64() - at);
        let broken = !r.ok();
        runs.push(r);
        if broken {
            break;
        }
    }

    // Correctness gate: every repeat, traced or not, must reproduce the
    // first repeat's simulation exactly.
    let (load0, run0) = (runs[0].load.digest, runs[0].run.digest);
    for r in &mut runs[1..] {
        for (phase, want) in [(&mut r.load, load0), (&mut r.run, run0)] {
            if phase.failure.is_none() && phase.digest != want {
                phase.failure = Some(format!(
                    "digest {:016x} differs from the first repeat's {want:016x}",
                    phase.digest
                ));
            }
        }
    }
    let mut attempted = 0;
    let mut failed = 0;
    let mut failures = Vec::new();
    for (i, r) in runs.iter().enumerate() {
        for (name, phase) in [("load", &r.load), ("run", &r.run)] {
            attempted += phase.ops;
            if let Some(why) = &phase.failure {
                failed += phase.ops.max(1);
                failures.push(format!("repeat {i} {name}: {why}"));
            }
        }
    }

    let metrics = if opts.trace {
        per_layer(&plan, &runs, attempted, failed, opts.seed)
    } else {
        end_to_end(&runs, &setup_samples)
    };
    Outcome {
        sim_digest: mix64(load0 ^ mix64(run0)),
        plan,
        runs,
        setup_samples,
        attempted,
        failed,
        failures,
        metrics,
    }
}

/// Median of `v` (0 when empty); the mean of the middle two for even sizes.
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn rate(p: &Phase) -> Option<f64> {
    (p.wall_s > 0.0 && p.failure.is_none()).then(|| p.ops as f64 / p.wall_s)
}

fn median_rate<'a>(phases: impl Iterator<Item = &'a Phase>) -> f64 {
    median(phases.filter_map(rate).collect())
}

/// Ops per second of a phase repeated several times. Every repeat does the
/// same work chunk for chunk, so each chunk's time is its fastest over the
/// repeats, and the phase time is the sum of those minima. On a shared
/// host, neighbours slow this process by up to half for seconds at a time
/// and only ever add time, so the fastest repeat of a chunk is the
/// steadiest estimate of its cost; a median moves with how much of the run
/// was contended. Falls back to the median whole-repeat rate if the
/// chunkings differ.
fn chunked_rate(phases: &[&Phase]) -> f64 {
    let ok: Vec<&Phase> = phases
        .iter()
        .copied()
        .filter(|p| p.failure.is_none())
        .collect();
    let Some(first) = ok.first() else {
        return 0.0;
    };
    if ok
        .iter()
        .any(|p| p.chunks_s.len() != first.chunks_s.len() || p.ops != first.ops)
    {
        return median_rate(ok.into_iter());
    }
    let wall: f64 = (0..first.chunks_s.len())
        .map(|i| {
            ok.iter()
                .map(|p| p.chunks_s[i])
                .fold(f64::INFINITY, f64::min)
        })
        .sum();
    first.ops as f64 / wall
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

fn end_to_end(runs: &[PointRun], setup_samples: &[f64]) -> Vec<Metric> {
    let runs_of = |f: fn(&PointRun) -> &Phase| runs.iter().map(f).collect::<Vec<_>>();
    vec![
        metric("run_ops_per_s", chunked_rate(&runs_of(|r| &r.run)), "1/s"),
        metric("load_ops_per_s", chunked_rate(&runs_of(|r| &r.load)), "1/s"),
        metric("setup_s", median(setup_samples.to_vec()), "s"),
        // Over the whole run: how much memory the allocator holds on to
        // varies from repeat to repeat, and the peak over many repeats
        // varies least.
        metric("peak_rss_mb", runs[runs.len() - 1].peak_rss_mb, "MB"),
    ]
}

/// Host ns per op of draining `n` ops from `ops` with nothing else running.
fn drain_ns_per_op(ops: impl Iterator<Item = anykey_workload::Op>, n: u64) -> f64 {
    let t = Instant::now();
    let drained = ops
        .take(usize::try_from(n).unwrap_or(usize::MAX))
        .map(black_box)
        .count();
    t.elapsed().as_nanos() as f64 / drained.max(1) as f64
}

fn per_layer(
    plan: &Plan,
    runs: &[PointRun],
    attempted: u64,
    failed: u64,
    seed: u64,
) -> Vec<Metric> {
    let traced: Vec<&PointRun> = runs.iter().filter(|r| r.traced).collect();
    let untraced = runs.iter().filter(|r| !r.traced).map(|r| &r.run);
    // The traced repeat with the median run-phase wall time supplies every
    // per-layer figure, so they add up within one repeat.
    let mut by_wall = traced.clone();
    by_wall.sort_by(|a, b| a.run.wall_s.total_cmp(&b.run.wall_s));
    let m = by_wall[by_wall.len() / 2];

    let gen_load = drain_ns_per_op(plan.load_stream(), plan.load_ops);
    let gen_run = if plan.workload.is_fill() {
        let mut s = plan.load_stream();
        s.by_ref()
            .take(usize::try_from(plan.load_ops).unwrap_or(usize::MAX))
            .for_each(drop);
        drain_ns_per_op(s, m.run.ops)
    } else {
        drain_ns_per_op(plan.run_stream(), plan.run_ops)
    };

    let key = format!("{}/seed{seed}", plan.workload.name());
    let t = Instant::now();
    let written = point_summary(plan, &key, &m.run)
        .write(out_dir().join(format!("summary-{}-seed{seed}.json", plan.workload.name())));
    let summary_write_s = t.elapsed().as_secs_f64();
    let trace_path = out_dir().join(format!("trace-{}-seed{seed}.json", plan.workload.name()));
    let spans = write_chrome(&[(key, m.spans.clone())]);
    if let Err(e) = written.and_then(|()| std::fs::write(&trace_path, spans)) {
        eprintln!(
            "hostbench: could not write under {}: {e}",
            out_dir().display()
        );
    }

    let mut out = vec![
        metric(
            "workload.build_s",
            median(runs.iter().map(|r| r.gen_build_s).collect()),
            "s",
        ),
        metric("workload.gen_ns_per_op.load", gen_load, "ns"),
        metric("workload.gen_ns_per_op.run", gen_run, "ns"),
    ];
    for (name, p) in [("load", &m.load), ("run", &m.run)] {
        out.extend(phase_layers(plan, name, p));
    }
    out.extend([
        metric("metrics.summary_write_s", summary_write_s, "s"),
        metric("mem.rss_after_setup_mb", m.rss_after_setup_mb, "MB"),
        metric("mem.rss_after_load_mb", m.rss_after_load_mb, "MB"),
        metric(
            "bench.trace_overhead",
            median_rate(traced.iter().map(|r| &r.run)) / median_rate(untraced),
            "ratio",
        ),
        metric(
            "bench.failed_op_ratio",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
        ),
    ]);
    out
}

/// The per-layer metrics of one traced phase, each suffixed `.load` or
/// `.run`.
fn phase_layers(plan: &Plan, phase: &str, p: &Phase) -> Vec<Metric> {
    let e = &p.engine;
    let engine_s = e.total_ns() as f64 / 1e9;
    let gen_s = p.gen_ns as f64 / 1e9;
    let per_op = |x: u64| x as f64 / p.ops.max(1) as f64;
    let m =
        |name: &str, value: f64, unit: &'static str| metric(format!("{name}.{phase}"), value, unit);
    let mut out = vec![
        m("bench.phase_s", p.wall_s, "s"),
        m("workload.gen_s", gen_s, "s"),
        m("runner.self_s", p.wall_s - engine_s - gen_s, "s"),
        m("engine.put_ns_p50", e.put.p50() as f64, "ns"),
        m("engine.put_ns_p99", e.put.p99() as f64, "ns"),
    ];
    if phase == "run" {
        out.extend([
            m("engine.get_ns_p50", e.get.p50() as f64, "ns"),
            m("engine.get_ns_p99", e.get.p99() as f64, "ns"),
            m("engine.scan_ns_p50", e.scan.p50() as f64, "ns"),
            m("engine.scan_ns_p99", e.scan.p99() as f64, "ns"),
        ]);
    }
    for class in [CallClass::Fg, CallClass::Compaction, CallClass::Gc] {
        out.push(m(&format!("engine.{}_s", class.name()), e.secs(class), "s"));
        out.push(m(
            &format!("engine.{}_calls", class.name()),
            e.calls(class) as f64,
            "count",
        ));
    }
    let meta = &p.meta;
    out.extend([
        m("engine.audit_s", p.audit_s, "s"),
        m(
            "engine.meta_dram_bytes",
            (meta
                .level_list_bytes
                .saturating_sub(meta.level_list_flash_bytes)
                + meta.hash_list_resident_bytes
                + meta.meta_segment_dram_bytes) as f64,
            "bytes",
        ),
        m(
            "engine.meta_flash_bytes",
            (meta.level_list_flash_bytes + meta.meta_segment_flash_bytes) as f64,
            "bytes",
        ),
    ]);
    if let Some(r) = &p.report {
        let c = &r.counters;
        out.extend([
            m("flash.reads_per_op", per_op(c.total_reads()), "1/op"),
            m("flash.programs_per_op", per_op(c.total_writes()), "1/op"),
            m("flash.erases", c.erases() as f64, "count"),
            m(
                "flash.waf",
                waf_from(
                    c.total_writes(),
                    r.writes.count(),
                    plan.spec.pair_bytes(),
                    u64::from(plan.cfg.page_payload()),
                ),
                "ratio",
            ),
        ]);
        if phase == "run" {
            out.push(m("flash.reads_per_get", r.mean_reads_per_get(), "1/op"));
        }
    }
    out
}

/// The run phase as a `summary.json` point, through the bench harness's
/// schema.
fn point_summary(plan: &Plan, key: &str, p: &Phase) -> RunSummary {
    let empty = crate::point::empty_report(0);
    let r = p.report.as_ref().unwrap_or(&empty);
    let c = &r.counters;
    let point = PointSummary {
        key: key.to_string(),
        experiment: "hostbench".to_string(),
        workload: plan.spec.name.to_string(),
        system: plan.cfg.engine.label().to_string(),
        ops: r.ops,
        read_ops: r.reads.count(),
        write_ops: r.writes.count(),
        scan_ops: r.scans.count(),
        virtual_ns: r.end.saturating_sub(r.start),
        iops: r.iops(),
        p50_read_ns: r.reads.p50(),
        p95_read_ns: r.reads.p95(),
        p99_read_ns: r.reads.p99(),
        p50_write_ns: r.writes.p50(),
        p95_write_ns: r.writes.p95(),
        p99_write_ns: r.writes.p99(),
        waf: waf_from(
            c.total_writes(),
            r.writes.count(),
            plan.spec.pair_bytes(),
            u64::from(plan.cfg.page_payload()),
        ),
        converged_waf: 0.0,
        burnin_ns: 0,
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
        phase_queue_ns: r.phases.queue_wait.total(),
        phase_meta_ns: r.phases.meta_read.total(),
        phase_data_ns: r.phases.data_read.total(),
        phase_log_ns: r.phases.log_read.total(),
        phase_engine_ns: r.phases.engine.total(),
        phase_queue_p99_ns: r.phases.queue_wait.p99(),
        phase_meta_p99_ns: r.phases.meta_read.p99(),
        phase_data_p99_ns: r.phases.data_read.p99(),
        phase_log_p99_ns: r.phases.log_read.p99(),
        phase_engine_p99_ns: r.phases.engine.p99(),
        wall_secs: p.wall_s,
    };
    RunSummary {
        schema_version: SCHEMA_VERSION,
        capacity_bytes: plan.cfg.capacity_bytes(),
        seed: plan.seed,
        total_wall_secs: p.wall_s,
        points: vec![point],
    }
}
