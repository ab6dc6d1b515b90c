//! `cargo run -p xtask -- bench-diff <baseline> <candidate>` — the CI
//! perf-regression gate.
//!
//! Compares two `summary.json` documents written by `anykey-bench` using
//! the tolerance model in [`anykey_metrics::summary`]: every metric of the
//! discrete-virtual-time simulation (IOPS, percentiles, WAF, flash op
//! counts, virtual time) must match the baseline **exactly** — any drift
//! is a real behaviour change, not noise — while the host wall-time
//! fields (`wall_secs`, `total_wall_secs`) get a multiplicative tolerance
//! band (`--wall-band`, default 5×; getting faster never fails).
//!
//! Exit codes: 0 pass, 1 regression, 2 usage/IO/parse error.

use std::io;

use anykey_metrics::summary::{diff, parse, DiffReport, DEFAULT_WALL_BAND};
use anykey_metrics::Json;

fn usage() -> i32 {
    eprintln!(
        "usage: cargo run -p xtask -- bench-diff <baseline.json> <candidate.json> [--wall-band F]\n\
         \n\
         Compares two anykey-bench summary.json files. Deterministic\n\
         simulation metrics must match exactly; wall-time fields pass while\n\
         candidate <= baseline * F (default {DEFAULT_WALL_BAND})."
    );
    2
}

fn print_report(report: &DiffReport, baseline: &str, candidate: &str) {
    if report.pass() {
        println!(
            "bench-diff: PASS — {} metrics compared, no regressions ({candidate} vs {baseline})",
            report.compared
        );
        return;
    }
    for key in &report.missing {
        eprintln!("bench-diff: MISSING point `{key}` (in baseline, not in candidate)");
    }
    for key in &report.extra {
        eprintln!("bench-diff: EXTRA point `{key}` (in candidate, not in baseline)");
    }
    if !report.failures.is_empty() {
        eprintln!(
            "{:<42} {:<14} {:>16} {:>16}  mode",
            "point", "metric", "baseline", "candidate"
        );
        for f in &report.failures {
            eprintln!(
                "{:<42} {:<14} {:>16} {:>16}  {}",
                if f.key.is_empty() { "(run)" } else { &f.key },
                f.metric,
                f.baseline,
                f.candidate,
                if f.banded { "band" } else { "exact" }
            );
        }
    }
    eprintln!(
        "bench-diff: FAIL — {} failing metric(s), {} missing, {} extra point(s) out of {} compared ({candidate} vs {baseline})",
        report.failures.len(),
        report.missing.len(),
        report.extra.len(),
        report.compared
    );
}

/// Runs the `bench-diff` subcommand over `args` (everything after the
/// subcommand name). Returns the process exit code.
pub(crate) fn run_cli(args: &[String]) -> i32 {
    let mut paths: Vec<&str> = Vec::new();
    let mut wall_band = DEFAULT_WALL_BAND;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--wall-band" => {
                i += 1;
                let Some(v) = args.get(i).and_then(|v| v.parse::<f64>().ok()) else {
                    return usage();
                };
                if v.is_nan() || v < 1.0 {
                    eprintln!("bench-diff: --wall-band must be >= 1.0");
                    return 2;
                }
                wall_band = v;
            }
            a if !a.starts_with('-') => paths.push(a),
            _ => return usage(),
        }
        i += 1;
    }
    let [baseline_path, candidate_path] = paths[..] else {
        return usage();
    };

    let read = |path| {
        crate::load(path, |r| match io::read_to_string(r) {
            Ok(src) => parse(&src).map_err(|e| e.to_string()),
            Err(e) => Err(e.to_string()),
        })
    };
    let (baseline, candidate) = match (read(baseline_path), read(candidate_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (b, c) => {
            for r in [b.err(), c.err()].into_iter().flatten() {
                eprintln!("bench-diff: {r}");
            }
            return 2;
        }
    };

    // Different schema versions are incomparable documents, not a perf
    // regression: fail loudly with the versions rather than drowning the
    // user in per-field noise.
    let version = |doc: &Json| match doc.get("schema_version") {
        Some(Json::Scalar(tok)) => tok.clone(),
        _ => "(absent)".to_string(),
    };
    let (bs, cs) = (version(&baseline), version(&candidate));
    if bs != cs {
        eprintln!(
            "bench-diff: schema_version mismatch — baseline {baseline_path} has {bs}, \
             candidate {candidate_path} has {cs}; regenerate the baseline with the \
             current anykey-bench before comparing"
        );
        return 2;
    }

    let report = diff(&baseline, &candidate, wall_band);
    print_report(&report, baseline_path, candidate_path);
    i32::from(!report.pass())
}
