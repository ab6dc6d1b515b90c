//! The bench scheduler's determinism contract: a multi-experiment sweep
//! must produce byte-identical CSVs and an identical `summary.json`
//! (modulo the host wall-time fields) whatever `--jobs` is, identical
//! points must be deduplicated into one execution, and the `bench-diff`
//! tolerance logic must pass clean runs and fail injected regressions.

use std::collections::BTreeMap;
use std::path::Path;

use anykey::metrics::summary::{self, ParsedSummary, RunSummary, DEFAULT_WALL_BAND, WALL_FIELDS};
use anykey_bench::common::{ExpCtx, Scale};
use anykey_bench::experiments;
use anykey_bench::scheduler::{build_summary, run_points, Point, RunKind};

/// A tiny scale so the sweep stays test-sized: the 64 MiB minimum device
/// (one block per chip), lightly filled, with a short measured phase.
/// Output goes under the per-process temp dir `tag`.
fn tiny_ctx(tag: &str) -> ExpCtx {
    let out = std::env::temp_dir().join(format!("anykey_sched_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    std::fs::create_dir_all(&out).expect("create test out dir");
    ExpCtx::new(Scale {
        capacity: 64 << 20,
        fill: 0.15,
        ops_factor: 0.1,
        out_dir: out,
        seed: 0xA17_5EED,
    })
}

/// Reads every regular file under `dir` into a name → bytes map.
fn dir_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("read out dir").flatten() {
        let path = entry.path();
        if path.is_file() {
            let name = path
                .file_name()
                .expect("file has a name")
                .to_string_lossy()
                .into_owned();
            out.insert(name, std::fs::read(&path).expect("read result file"));
        }
    }
    out
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

/// Runs a multi-experiment sweep end to end (points → schedule → render →
/// summary) at the given parallelism, returning the rendered files and
/// the run summary.
fn sweep(ids: &[&str], jobs: usize, tag: &str) -> (BTreeMap<String, Vec<u8>>, RunSummary) {
    let ctx = tiny_ctx(tag);
    let mut plan = Vec::new();
    let mut points = Vec::new();
    for id in ids {
        let exp = experiments::by_id(id).expect("known experiment");
        let start = points.len();
        points.extend((exp.points)(&ctx));
        plan.push((exp, start..points.len()));
    }
    let run = run_points(&ctx, &points, jobs);
    for (exp, range) in &plan {
        (exp.render)(&ctx, &run.results[range.clone()]);
    }
    let summary = build_summary(&ctx, &points, &run);
    let files = dir_files(&ctx.scale.out_dir);
    let _ = std::fs::remove_dir_all(&ctx.scale.out_dir);
    (files, summary)
}

const SWEEP: [&str; 3] = ["table1", "multitenant", "scalability"];

#[test]
fn sweep_is_byte_identical_across_jobs() {
    let (files1, summary1) = sweep(&SWEEP, 1, "j1");
    let (files4, summary4) = sweep(&SWEEP, 4, "j4");

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
    let p1 = summary::parse(&summary1.to_json()).expect("parse jobs-1 summary");
    let p4 = summary::parse(&summary4.to_json()).expect("parse jobs-4 summary");
    assert_eq!(
        without_wall(&p1),
        without_wall(&p4),
        "summary.json differs beyond wall-time fields"
    );
}

#[test]
fn identical_points_are_deduplicated() {
    let ctx = tiny_ctx("dedup");
    let w = anykey::workload::spec::ALL[0];
    let kind = anykey::core::EngineKind::AnyKey;
    // Two experiments declaring the same simulation (as fig10/fig11 and
    // fig12/fig13 do): one execution, fanned out to both points.
    let points = vec![
        Point::with_key(
            "expA/row".into(),
            "expA",
            kind,
            w,
            RunKind::WarmUpOnly { cfg: None },
        ),
        Point::with_key(
            "expB/row".into(),
            "expB",
            kind,
            w,
            RunKind::WarmUpOnly { cfg: None },
        ),
    ];
    let run = run_points(&ctx, &points, 2);
    assert_eq!(run.executed, 1, "identical points were not deduplicated");
    assert_eq!(run.results.len(), 2);

    let s = build_summary(&ctx, &points, &run);
    let parsed = summary::parse(&s.to_json()).expect("parse dedup summary");
    let strip = |i: usize| {
        let mut p = parsed.points[i].clone();
        p.fields
            .retain(|(n, _)| n != "key" && n != "experiment" && !WALL_FIELDS.contains(&n.as_str()));
        p.key.clear();
        p
    };
    assert_eq!(strip(0), strip(1), "deduplicated results diverge");
    let _ = std::fs::remove_dir_all(&ctx.scale.out_dir);
}

// --- bench-diff tolerance logic -------------------------------------------

fn synthetic(erases: u64, wall: f64) -> ParsedSummary {
    let text = format!(
        "{{\n  \"schema_version\": 1,\n  \"capacity_bytes\": 1024,\n  \"seed\": 7,\n  \
         \"total_wall_secs\": {wall:.6},\n  \"points\": [\n    {{\n      \"key\": \"e/w/s\",\n      \
         \"ops\": 10,\n      \"erases\": {erases},\n      \"wall_secs\": {wall:.6}\n    }}\n  ]\n}}\n"
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
    let mut cand = synthetic(5, 2.0);
    cand.fields.push(("new_run_metric".into(), "1".into()));
    cand.points[0]
        .fields
        .push(("new_point_metric".into(), "2".into()));
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
