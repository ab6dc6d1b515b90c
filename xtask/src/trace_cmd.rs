//! `cargo run -p xtask -- trace <trace.jsonl>` — the trace analyzer.
//!
//! Parses a JSONL trace written by `anykey-bench --trace` and prints the
//! phase-breakdown report from [`anykey_metrics::trace::analyze`]:
//! per-phase p50/p99/p999 latency attribution, the top-K longest flash
//! stall windows (ops that waited for a busy chip), and per-cause chip
//! busy/stall totals. Everything is virtual time — the report is
//! byte-identical for any `--jobs` level the trace was captured with.
//!
//! Exit codes: 0 ok, 2 usage/IO/parse error.

use anykey_metrics::trace::{analyze, parse_jsonl};

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
    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("trace: {path}: {e}");
            return 2;
        }
    };
    let parsed = match parse_jsonl(&src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("trace: {path}: {e}");
            return 2;
        }
    };
    print!("{}", analyze(&parsed, top_k));
    0
}
