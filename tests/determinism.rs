//! The bench pipeline's determinism contract, checked on the code
//! `anykey-bench` runs ([`anykey_bench::sweep`]):
//!
//! - **Scheduler.** A multi-experiment sweep renders byte-identical CSVs
//!   and an identical `summary.json` (modulo the host wall-time fields)
//!   whatever `--jobs` is; identical points are deduplicated into one
//!   execution; the `bench-diff` tolerance logic passes clean runs and
//!   fails injected regressions.
//! - **Traces.** Trace files (JSONL and Chrome trace-event JSON) are
//!   byte-identical for any `--jobs`; tracing is pure observation; the
//!   per-phase breakdown lands in `summary.json`; an engine that never
//!   enabled tracing yields no events.
//! - **Timelines.** Timeline files (JSONL and CSV) are byte-identical for
//!   any `--jobs`; sampling is pure observation and `--timeline-interval
//!   0` is indistinguishable from never enabling it; the steady-state
//!   fields land in `summary.json` (schema v3); the final point of every
//!   captured cumulative-WAF curve equals the summary's `waf` token for
//!   token.
//!
//! All timestamps in traces and timelines are virtual nanoseconds; the
//! workspace's `clippy::disallowed_types` lint holds this file to that
//! discipline too.

mod common;

use std::collections::BTreeMap;

use anykey::core::runner::DEFAULT_QUEUE_DEPTH;
use anykey::core::{run, run_with, EngineKind, KvEngine};
use anykey::metrics::summary::{self, DEFAULT_WALL_BAND, WALL_FIELDS};
use anykey::metrics::timeline::{self as tl, write_jsonl};
use anykey::metrics::trace::{self, TraceEvent};
use anykey::metrics::Json;
use anykey::workload::{spec, OpStreamBuilder};
use anykey_bench::common::{ExpCtx, Scale};
use anykey_bench::scheduler::{build_summary, run_points, Point, RunKind};
use anykey_bench::{sweep, Sweep};

/// The scheduler tests' seed.
const SCHED_SEED: u64 = 0xA17_5EED;
/// The trace and timeline tests' seed.
const OBS_SEED: u64 = 0x7_1ACE;

/// A tiny scale so a sweep stays test-sized: the 64 MiB minimum device
/// (one block per chip), lightly filled, with a short measured phase.
/// Output goes under the per-process temp dir `tag`.
fn tiny_ctx(tag: &str, seed: u64) -> ExpCtx {
    let out = std::env::temp_dir().join(format!("anykey_det_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    std::fs::create_dir_all(&out).expect("create test out dir");
    ExpCtx::new(Scale {
        capacity: 64 << 20,
        fill: 0.15,
        ops_factor: 0.1,
        out_dir: out,
        seed,
    })
}

/// A sweep's output files, by name.
type Files = BTreeMap<String, Vec<u8>>;

/// Runs `ids` through the bench pipeline at `jobs`, as `anykey-bench`
/// does: schedule, render, then export the trace and the timeline in
/// every format (`trace.jsonl`, `trace.json`, `timeline.jsonl`,
/// `timeline.csv`). Returns the sweep, every file of its output
/// directory (which is then removed), and its parsed summary.
fn run_sweep(ctx: &ExpCtx, ids: &[&str], jobs: usize) -> (Sweep, Files, Json) {
    let s = sweep(ctx, ids, jobs).expect("known experiments");
    s.render();
    let out = |name: &str| ctx.scale.out(name);
    for name in ["trace.jsonl", "trace.json"] {
        s.write_trace(&out(name)).expect("write trace");
    }
    for name in ["timeline.jsonl", "timeline.csv"] {
        s.write_timeline(&out(name)).expect("write timeline");
    }
    let mut files = Files::new();
    for entry in std::fs::read_dir(&ctx.scale.out_dir)
        .expect("read out dir")
        .flatten()
    {
        let name = entry.file_name().to_string_lossy().into_owned();
        files.insert(name, std::fs::read(entry.path()).expect("read result file"));
    }
    let _ = std::fs::remove_dir_all(&ctx.scale.out_dir);
    let parsed = summary::parse(&s.summary().to_json()).expect("parse summary");
    (s, files, parsed)
}

/// A parsed summary with the wall-time fields removed, from the run and
/// from every point, for exact comparison of everything deterministic.
fn without_wall(parsed: &Json) -> Json {
    match parsed {
        Json::Object(fields) => Json::Object(
            fields
                .iter()
                .filter(|(n, _)| !WALL_FIELDS.contains(&n.as_str()))
                .map(|(n, v)| (n.clone(), without_wall(v)))
                .collect(),
        ),
        Json::Array(items) => Json::Array(items.iter().map(without_wall).collect()),
        scalar => scalar.clone(),
    }
}

/// A parsed summary's points.
fn points(parsed: &Json) -> &[Json] {
    parsed.get("points").map_or(&[], Json::items)
}

/// The raw token of field `name` of a parsed summary or point.
fn field<'a>(obj: &'a Json, name: &str) -> Option<&'a str> {
    match obj.get(name) {
        Some(Json::Scalar(tok)) => Some(tok),
        _ => None,
    }
}

/// A file of a sweep as text.
fn text<'a>(files: &'a Files, name: &str) -> &'a str {
    std::str::from_utf8(&files[name]).expect("utf-8 export")
}

// --- scheduler --------------------------------------------------------------

const SWEEP: [&str; 3] = ["table1", "multitenant", "scalability"];

#[test]
fn sweep_is_byte_identical_across_jobs() {
    let (_, files1, summary1) = run_sweep(&tiny_ctx("j1", SCHED_SEED), &SWEEP, 1);
    let (_, files4, summary4) = run_sweep(&tiny_ctx("j4", SCHED_SEED), &SWEEP, 4);

    // Every rendered CSV must be byte-identical.
    assert_eq!(
        files1.keys().collect::<Vec<_>>(),
        files4.keys().collect::<Vec<_>>(),
        "the two runs rendered different file sets"
    );
    for (name, bytes) in &files1 {
        assert_eq!(
            bytes, &files4[name],
            "{name} differs between --jobs 1 and --jobs 4"
        );
    }

    // The summaries must agree on every deterministic field; only the
    // wall-time fields may differ.
    assert_eq!(
        without_wall(&summary1),
        without_wall(&summary4),
        "summary.json differs beyond wall-time fields"
    );
}

#[test]
fn identical_points_are_deduplicated() {
    let ctx = tiny_ctx("dedup", SCHED_SEED);
    let w = spec::ALL[0];
    let kind = EngineKind::AnyKey;
    // Two experiments declaring the same simulation (as fig10/fig11 and
    // fig12/fig13 do): one execution, fanned out to both points.
    let declared = vec![
        Point::with_key("expA/row".into(), "expA", kind, w, RunKind::WarmUpOnly),
        Point::with_key("expB/row".into(), "expB", kind, w, RunKind::WarmUpOnly),
    ];
    let run = run_points(&ctx, &declared, 2);
    assert_eq!(run.executed, 1, "identical points were not deduplicated");
    assert_eq!(run.results.len(), 2);

    let s = build_summary(&ctx, &declared, &run);
    let parsed = summary::parse(&s.to_json()).expect("parse dedup summary");
    let strip = |i: usize| match &points(&parsed)[i] {
        Json::Object(fields) => fields
            .iter()
            .filter(|(n, _)| n != "key" && n != "experiment" && !WALL_FIELDS.contains(&n.as_str()))
            .cloned()
            .collect::<Vec<_>>(),
        other => panic!("point {i} is not an object: {other:?}"),
    };
    assert_eq!(strip(0), strip(1), "deduplicated results diverge");
    let _ = std::fs::remove_dir_all(&ctx.scale.out_dir);
}

// --- bench-diff tolerance logic ---------------------------------------------

fn synthetic(erases: u64, wall: f64) -> Json {
    synthetic_with(erases, wall, "", "")
}

/// [`synthetic`] with `run_extra` and `point_extra` fields inserted after
/// the run's `seed` and the point's `ops`.
fn synthetic_with(erases: u64, wall: f64, run_extra: &str, point_extra: &str) -> Json {
    let text = format!(
        "{{\n  \"schema_version\": 1,\n  \"capacity_bytes\": 1024,\n  \"seed\": 7,\n  \
         {run_extra}\"total_wall_secs\": {wall:.6},\n  \"points\": [\n    {{\n      \"key\": \"e/w/s\",\n      \
         \"ops\": 10,\n      {point_extra}\"erases\": {erases},\n      \"wall_secs\": {wall:.6}\n    }}\n  ]\n}}\n"
    );
    summary::parse(&text).expect("parse synthetic summary")
}

#[test]
fn bench_diff_passes_identical_summaries() {
    let d = summary::diff(&synthetic(5, 2.0), &synthetic(5, 2.0), DEFAULT_WALL_BAND);
    assert!(d.pass(), "unexpected failures: {:?}", d.failures);
}

#[test]
fn bench_diff_fails_on_exact_metric_change() {
    let d = summary::diff(&synthetic(5, 2.0), &synthetic(6, 2.0), DEFAULT_WALL_BAND);
    assert!(!d.pass());
    assert!(
        d.failures.iter().any(|f| f.metric == "erases" && !f.banded),
        "expected an exact `erases` failure, got {:?}",
        d.failures
    );
}

#[test]
fn bench_diff_fails_when_wall_band_exceeded() {
    // 2.0s baseline × 5 band = 10s allowance; 11s must fail (and only on
    // the banded wall fields).
    let d = summary::diff(&synthetic(5, 2.0), &synthetic(5, 11.0), DEFAULT_WALL_BAND);
    assert!(!d.pass());
    assert!(d.failures.iter().all(|f| f.banded));
    assert!(d.failures.iter().any(|f| f.metric == "wall_secs"));
}

#[test]
fn bench_diff_fails_on_candidate_only_fields() {
    // A metric added without a schema bump must not pass silently, at the
    // run level or inside a point.
    let base = synthetic(5, 2.0);
    let cand = synthetic_with(
        5,
        2.0,
        "\"new_run_metric\": 1,\n  ",
        "\"new_point_metric\": 2,\n      ",
    );
    let d = summary::diff(&base, &cand, DEFAULT_WALL_BAND);
    assert!(!d.pass());
    let failed: Vec<(&str, &str)> = d
        .failures
        .iter()
        .map(|f| (f.key.as_str(), f.metric.as_str()))
        .collect();
    assert_eq!(
        failed,
        [("", "new_run_metric"), ("e/w/s", "new_point_metric")]
    );
    // Matching field sets compare exactly the baseline's fields.
    let same = summary::diff(&base, &base, DEFAULT_WALL_BAND);
    assert_eq!(same.compared, 4 + 3);
}

// --- traces -----------------------------------------------------------------

/// The `multitenant` sweep at `jobs` with tracing on.
fn traced_sweep(jobs: usize, tag: &str) -> (Sweep, Files, Json) {
    let mut ctx = tiny_ctx(tag, OBS_SEED);
    ctx.trace = true;
    run_sweep(&ctx, &["multitenant"], jobs)
}

#[test]
fn trace_files_are_byte_identical_across_jobs() {
    let (sweep1, files1, _) = traced_sweep(1, "trace_j1");
    let (_, files4, _) = traced_sweep(4, "trace_j4");
    let named1 = sweep1.traces();

    assert!(
        !named1.is_empty() && named1.iter().any(|(_, t)| !t.is_empty()),
        "traced sweep produced no events"
    );
    assert_eq!(
        files1["trace.jsonl"], files4["trace.jsonl"],
        "JSONL trace differs between --jobs 1 and --jobs 4"
    );
    assert_eq!(
        files1["trace.json"], files4["trace.json"],
        "Chrome trace differs between --jobs 1 and --jobs 4"
    );

    // The exported document reads back through the analyzer's reader.
    let mut points = 0;
    trace::visit_jsonl(files1["trace.jsonl"].as_slice(), |_, event| {
        points += usize::from(event.is_none());
    })
    .expect("exported JSONL must parse");
    assert_eq!(points, named1.len());
}

#[test]
fn tracing_is_pure_observation() {
    let (_, _, traced) = traced_sweep(2, "trace_obs_on");

    // The same sweep with tracing off: every deterministic summary field
    // must match, and no point may carry a trace buffer.
    let (plain, _, untraced) = run_sweep(&tiny_ctx("trace_obs_off", OBS_SEED), &["multitenant"], 2);
    assert!(
        plain.run().results.iter().all(|r| r.trace.is_none()),
        "tracing disabled but the scheduler captured events"
    );

    assert_eq!(
        without_wall(&traced),
        without_wall(&untraced),
        "tracing perturbed measured results"
    );
}

#[test]
fn summary_carries_phase_fields() {
    let (_, _, parsed) = traced_sweep(1, "trace_schema");
    assert_eq!(field(&parsed, "schema_version"), Some("3"));
    let point = points(&parsed).first().expect("at least one point");
    for name in [
        "phase_queue_ns",
        "phase_meta_ns",
        "phase_data_ns",
        "phase_log_ns",
        "phase_engine_ns",
        "phase_queue_p99_ns",
        "phase_engine_p99_ns",
    ] {
        assert!(
            point.get(name).is_some(),
            "summary point is missing `{name}`"
        );
    }
}

fn tiny_engine(kind: EngineKind) -> Box<dyn KvEngine> {
    common::test_device(kind).key_len(24).build().build_engine()
}

#[test]
fn engine_without_tracing_yields_no_events() {
    for kind in [EngineKind::AnyKey, EngineKind::Pink] {
        let mut dev = tiny_engine(kind);
        let ops = OpStreamBuilder::new(spec::ALL[0], 500)
            .seed(1)
            .build()
            .take(200);
        run(dev.as_mut(), ops, 200, DEFAULT_QUEUE_DEPTH).expect("untraced run");
        assert!(
            dev.take_trace().is_empty(),
            "{kind:?} recorded events without set_tracing(true)"
        );
    }
}

#[test]
fn traced_run_report_matches_untraced_run() {
    for kind in [EngineKind::AnyKey, EngineKind::Pink] {
        let mk_ops = || {
            OpStreamBuilder::new(spec::ALL[1], 500)
                .seed(9)
                .build()
                .take(300)
        };
        let mut a = tiny_engine(kind);
        let plain = run(a.as_mut(), mk_ops(), 300, DEFAULT_QUEUE_DEPTH).expect("plain run");
        let mut b = tiny_engine(kind);
        let (traced, events, _) =
            run_with(b.as_mut(), mk_ops(), 300, DEFAULT_QUEUE_DEPTH, true, None)
                .expect("traced run");
        let events = events.expect("trace requested");
        assert_eq!(plain.ops, traced.ops, "{kind:?}: op count changed");
        assert_eq!(plain.end, traced.end, "{kind:?}: virtual end changed");
        let requests = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Request { .. }))
            .count();
        assert_eq!(requests as u64, traced.ops, "one request event per op");
    }
}

// --- timelines --------------------------------------------------------------

const INTERVAL: u64 = 1_000_000; // 1 ms virtual

/// The `multitenant` sweep at `jobs`, sampled every `interval_ns`.
fn sampled_sweep(jobs: usize, tag: &str, interval_ns: u64) -> (Sweep, Files, Json) {
    let mut ctx = tiny_ctx(tag, OBS_SEED);
    ctx.timeline_interval_ns = interval_ns;
    run_sweep(&ctx, &["multitenant"], jobs)
}

#[test]
fn timeline_files_are_byte_identical_across_jobs() {
    let (sweep1, files1, _) = sampled_sweep(1, "tl_j1", INTERVAL);
    let (_, files4, _) = sampled_sweep(4, "tl_j4", INTERVAL);
    let named1 = sweep1.timelines();

    assert!(
        !named1.is_empty() && named1.iter().all(|(_, t)| t.len() >= 2),
        "sampled sweep produced no timelines"
    );
    assert_eq!(
        files1["timeline.jsonl"], files4["timeline.jsonl"],
        "JSONL timeline differs between --jobs 1 and --jobs 4"
    );
    assert_eq!(
        files1["timeline.csv"], files4["timeline.csv"],
        "CSV timeline differs between --jobs 1 and --jobs 4"
    );

    // The exported document round-trips through the analyzer's parser:
    // parse-then-rewrite reproduces the original bytes.
    let jsonl1 = text(&files1, "timeline.jsonl");
    let parsed = tl::parse_jsonl(jsonl1.as_bytes()).expect("exported JSONL must parse");
    assert_eq!(parsed.len(), named1.len());
    assert_eq!(write_jsonl(&parsed), jsonl1);
}

#[test]
fn sampling_is_pure_observation() {
    let (sweep, _, sampled) = sampled_sweep(2, "tl_obs_on", INTERVAL);
    assert!(!sweep.timelines().is_empty(), "no timelines captured");

    // The same sweep with interval 0 — the subsystem never engages: no
    // point carries samples, and every deterministic summary field (the
    // steady-state fields included, since they come from the always-on
    // WAF curve) must match token for token.
    let (off, _, plain) = sampled_sweep(2, "tl_obs_off", 0);
    assert!(
        off.timelines().is_empty(),
        "interval 0 but the scheduler captured samples"
    );
    assert_eq!(
        without_wall(&sampled),
        without_wall(&plain),
        "timeline sampling perturbed measured results"
    );
}

#[test]
fn summary_schema_v3_carries_steady_state_and_p95_fields() {
    let (_, _, parsed) = sampled_sweep(1, "tl_schema", 0);
    assert_eq!(field(&parsed, "schema_version"), Some("3"));
    let point = points(&parsed).first().expect("at least one point");
    for name in [
        "p95_read_ns",
        "p95_write_ns",
        "converged_waf",
        "burnin_ns",
        "waf",
    ] {
        assert!(
            point.get(name).is_some(),
            "summary point is missing `{name}`"
        );
    }
    // At this tiny scale the op-stride WAF curve is still climbing, so the
    // detector rightly refuses to call a steady state — but every point
    // must carry well-formed values (convergence itself is asserted on the
    // finer-grained captured timeline below, and on the quick sweep in CI).
    for p in points(&parsed) {
        let cw: f64 = field(p, "converged_waf")
            .and_then(|v| v.parse().ok())
            .expect("converged_waf parses");
        assert!(cw >= 0.0, "negative converged_waf");
        let _: u64 = field(p, "burnin_ns")
            .and_then(|v| v.parse().ok())
            .expect("burnin_ns parses");
    }
}

#[test]
fn final_timeline_waf_equals_summary_waf_and_counters_are_monotone() {
    let (sweep, files, parsed) = sampled_sweep(1, "tl_prop", INTERVAL);
    let named = sweep.timelines();
    assert!(!named.is_empty());
    let mut checked = 0;
    for (key, samples) in &named {
        // Cumulative per-cause counters are monotone non-decreasing.
        for w in samples.windows(2) {
            let (p, c) = (&w[0], &w[1]);
            for (name, a, b) in [
                ("host_reads", p.host_reads, c.host_reads),
                ("host_writes", p.host_writes, c.host_writes),
                ("meta_reads", p.meta_reads, c.meta_reads),
                ("meta_writes", p.meta_writes, c.meta_writes),
                ("comp_reads", p.comp_reads, c.comp_reads),
                ("comp_writes", p.comp_writes, c.comp_writes),
                ("gc_reads", p.gc_reads, c.gc_reads),
                ("gc_writes", p.gc_writes, c.gc_writes),
                ("log_reads", p.log_reads, c.log_reads),
                ("log_writes", p.log_writes, c.log_writes),
                ("erases", p.erases, c.erases),
            ] {
                assert!(a <= b, "{key}: cumulative `{name}` decreased ({a} -> {b})");
            }
        }
        // The final sample's cumulative WAF is the summary's WAF, exactly
        // (same integers, same arithmetic, same f64 — same token).
        let last = samples.last().expect("non-empty timeline");
        let point = points(&parsed)
            .iter()
            .find(|p| p.get("key").and_then(Json::str).as_deref() == Some(*key))
            .expect("summary point for timeline");
        let write_ops: u64 = field(point, "write_ops")
            .and_then(|v| v.parse().ok())
            .expect("write_ops field");
        if write_ops == 0 {
            continue; // summary substitutes fill bytes; no mid-run analogue
        }
        assert_eq!(
            field(point, "waf"),
            Some(format!("{:.6}", last.cum_waf).as_str()),
            "{key}: final timeline WAF diverges from summary waf"
        );
        checked += 1;
    }
    assert!(checked > 0, "no point had measured writes to check");

    // The detector finds a steady state on the captured (time-sampled)
    // timelines: at 1 ms resolution every point's WAF curve flattens well
    // within the run, even at this tiny scale.
    let timelines = tl::parse_jsonl(files["timeline.jsonl"].as_slice()).expect("parse");
    let steady = timelines.iter().any(|(_, samples)| {
        let base = samples.first().map_or(0, |s| s.ts_ns);
        let curve: Vec<(u64, f64)> = samples
            .iter()
            .map(|s| (s.ts_ns - base, s.cum_waf))
            .collect();
        tl::detect_steady_state(&curve, tl::DEFAULT_STEADY_WINDOW, tl::DEFAULT_STEADY_TOL).is_some()
    });
    assert!(
        steady,
        "detector found no steady state on any captured timeline"
    );
}

#[test]
fn engine_state_fields_are_populated() {
    let (sweep, _, _) = sampled_sweep(1, "tl_state", INTERVAL);
    let named = sweep.timelines();
    let (key, samples) = named.first().expect("at least one timeline");
    let last = samples.last().expect("non-empty timeline");
    assert!(last.dram_capacity > 0, "{key}: no DRAM capacity sampled");
    assert!(last.dram_used > 0, "{key}: no DRAM usage sampled");
    assert!(!last.levels.is_empty(), "{key}: no level occupancy sampled");
    assert!(last.group_count > 0, "{key}: no placement units sampled");
    assert!(last.free_blocks > 0, "{key}: no free-block depth sampled");
    assert!(
        samples.iter().any(|s| s.interval_ops > 0),
        "{key}: no interval ever recorded ops"
    );
}
