//! `cargo run -p xtask -- timeline <timeline.jsonl>` — the timeline
//! analyzer.
//!
//! Parses a JSONL timeline written by `anykey-bench --timeline` and prints
//! the report from [`anykey_metrics::timeline::analyze`]: per-point
//! burn-in/steady-state detection (sliding-window WAF-slope test),
//! converged-WAF values, and compaction-storm / GC-debt windows. All
//! timestamps are virtual — the report is byte-identical for any `--jobs`
//! level the timeline was captured with.
//!
//! Exit codes: 0 ok, 1 `--assert-converged` failed, 2 usage/IO/parse
//! error.

use anykey_metrics::timeline::{analyze, parse_jsonl, DEFAULT_STEADY_TOL, DEFAULT_STEADY_WINDOW};

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
    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("timeline: {path}: {e}");
            return 2;
        }
    };
    let parsed = match parse_jsonl(&src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("timeline: {path}: {e}");
            return 2;
        }
    };
    let a = analyze(&parsed, window, tol);
    print!("{a}");
    if assert_converged && !a.all_converged() {
        eprintln!(
            "timeline: --assert-converged failed: at least one point never reached steady state"
        );
        return 1;
    }
    0
}
