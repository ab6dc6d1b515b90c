//! The trace subsystem's determinism contract: trace files (JSONL and
//! Chrome trace-event JSON) are byte-identical for any `--jobs` level,
//! tracing is pure observation (it never changes measured results), the
//! per-phase breakdown lands in `summary.json`, and an engine that never
//! enabled tracing yields no events.
//!
//! All timestamps in a trace are virtual nanoseconds; the workspace's
//! `clippy::disallowed_types` lint holds this file to that discipline too.

use anykey::core::runner::DEFAULT_QUEUE_DEPTH;
use anykey::core::{run, run_with, DeviceConfig, EngineKind, KvEngine};
use anykey::metrics::summary::{self, ParsedSummary, WALL_FIELDS};
use anykey::metrics::trace::{parse_jsonl, write_chrome, write_jsonl, TraceEvent};
use anykey::workload::{spec, OpStreamBuilder};
use anykey_bench::common::{ExpCtx, Scale};
use anykey_bench::experiments;
use anykey_bench::scheduler::{build_summary, run_points};

/// A tiny scale so the sweep stays test-sized (same shape as the
/// scheduler determinism suite). Output goes under the per-process temp
/// dir `tag`.
fn tiny_ctx(tag: &str, trace: bool) -> ExpCtx {
    let out = std::env::temp_dir().join(format!("anykey_trace_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    std::fs::create_dir_all(&out).expect("create test out dir");
    let mut ctx = ExpCtx::new(Scale {
        capacity: 64 << 20,
        fill: 0.15,
        ops_factor: 0.1,
        out_dir: out,
        seed: 0x7_1ACE,
    });
    ctx.trace = trace;
    ctx
}

/// Runs one experiment's points at the given parallelism with tracing on,
/// returning the named per-point traces (representatives only, in
/// declaration order — exactly what `anykey-bench --trace` exports) and
/// the parsed summary.
fn traced_sweep(jobs: usize, tag: &str) -> (Vec<(String, Vec<TraceEvent>)>, ParsedSummary) {
    let ctx = tiny_ctx(tag, true);
    let exp = experiments::by_id("multitenant").expect("known experiment");
    let points = (exp.points)(&ctx);
    let run = run_points(&ctx, &points, jobs);
    let named: Vec<(String, Vec<TraceEvent>)> = points
        .iter()
        .zip(&run.results)
        .filter_map(|(p, r)| r.trace.as_ref().map(|t| (p.key.clone(), t.clone())))
        .collect();
    let parsed =
        summary::parse(&build_summary(&ctx, &points, &run).to_json()).expect("parse summary");
    let _ = std::fs::remove_dir_all(&ctx.scale.out_dir);
    (named, parsed)
}

/// A parsed summary with the wall-time fields removed, for exact
/// comparison of everything deterministic.
fn without_wall(parsed: &ParsedSummary) -> ParsedSummary {
    let mut out = parsed.clone();
    out.fields
        .retain(|(n, _)| !WALL_FIELDS.contains(&n.as_str()));
    for p in &mut out.points {
        p.fields.retain(|(n, _)| !WALL_FIELDS.contains(&n.as_str()));
    }
    out
}

#[test]
fn trace_files_are_byte_identical_across_jobs() {
    let (named1, _) = traced_sweep(1, "j1");
    let (named4, _) = traced_sweep(4, "j4");

    assert!(
        !named1.is_empty() && named1.iter().any(|(_, t)| !t.is_empty()),
        "traced sweep produced no events"
    );
    let (jsonl1, jsonl4) = (write_jsonl(&named1), write_jsonl(&named4));
    assert_eq!(
        jsonl1, jsonl4,
        "JSONL trace differs between --jobs 1 and --jobs 4"
    );
    assert_eq!(
        write_chrome(&named1),
        write_chrome(&named4),
        "Chrome trace differs between --jobs 1 and --jobs 4"
    );

    // The exported document round-trips through the analyzer's parser.
    let parsed = parse_jsonl(&jsonl1).expect("exported JSONL must parse");
    assert_eq!(parsed.points.len(), named1.len());
}

#[test]
fn tracing_is_pure_observation() {
    let (_, traced) = traced_sweep(2, "obs_on");

    // The same sweep with tracing off: every deterministic summary field
    // must match, and no point may carry a trace buffer.
    let ctx = tiny_ctx("obs_off", false);
    let exp = experiments::by_id("multitenant").expect("known experiment");
    let points = (exp.points)(&ctx);
    let run = run_points(&ctx, &points, 2);
    assert!(
        run.results.iter().all(|r| r.trace.is_none()),
        "tracing disabled but the scheduler captured events"
    );
    let untraced =
        summary::parse(&build_summary(&ctx, &points, &run).to_json()).expect("parse summary");
    let _ = std::fs::remove_dir_all(&ctx.scale.out_dir);

    assert_eq!(
        without_wall(&traced),
        without_wall(&untraced),
        "tracing perturbed measured results"
    );
}

#[test]
fn summary_carries_phase_fields() {
    let (_, parsed) = traced_sweep(1, "schema");
    let field = |p: &ParsedSummary, name: &str| {
        p.fields
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.clone())
    };
    assert_eq!(field(&parsed, "schema_version").as_deref(), Some("3"));
    let point = parsed.points.first().expect("at least one point");
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
            point.fields.iter().any(|(n, _)| n == name),
            "summary point is missing `{name}`"
        );
    }
}

fn tiny_engine(kind: EngineKind) -> Box<dyn KvEngine> {
    DeviceConfig::builder()
        .capacity_bytes(16 << 20)
        .page_size(8 << 10)
        .pages_per_block(16)
        .group_pages(8)
        .engine(kind)
        .key_len(24)
        .build()
        .build_engine()
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
