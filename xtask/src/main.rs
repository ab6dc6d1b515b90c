//! `cargo run -p xtask -- <command> ...` — repo-specific tooling.
//!
//! - [`deps`]: the hermeticity guard — no registry or git package in the
//!   resolved `Cargo.lock`. The other static rules are compiler lint
//!   levels (workspace `Cargo.toml`, `clippy.toml`; DESIGN.md §8).
//! - [`bench_diff`]: the CI perf-regression gate comparing two
//!   `summary.json` documents from `anykey-bench` with per-metric
//!   tolerance bands.
//! - [`trace_cmd`]: the virtual-time trace analyzer summarizing JSONL
//!   traces captured with `anykey-bench --trace`.
//! - [`timeline_cmd`]: the timeline analyzer — burn-in/steady-state
//!   detection over JSONL timelines captured with `anykey-bench
//!   --timeline`, with a `--assert-converged` CI gate.
//! - [`bench_record`]: the host-cost trajectory recorder — runs the
//!   `BENCHMARK.json` command for every workload (optionally paired with a
//!   parent checkout) and writes `BENCH_<n>.json`. It reads
//!   `BENCHMARK.json` and hostbench's result lines as
//!   `anykey_metrics::Json`, the one parsed form `bench-diff` compares
//!   and `trace` and `timeline` read each JSONL line as.
//! - [`loc`]: non-test lines per crate under `crates/` and in `xtask/src`,
//!   or per given path, the size figures ROADMAP.md and CHANGES.md quote.
//!
//! `anykey-metrics` owns the document formats (writers and parsers); the
//! analyses of parsed documents — `bench-diff`'s tolerance model aside —
//! live here, in the commands that print them.

mod bench_diff;
mod bench_record;
mod deps;
mod loc;
mod timeline_cmd;
mod trace_cmd;

use std::fmt::Display;
use std::fs::File;
use std::io::BufReader;

/// Opens the document at `path` for `parse` to read through a buffer. An
/// error is `"<path>: <reason>"`, for the command to print after its name.
fn load<T, E: Display>(
    path: &str,
    parse: impl FnOnce(BufReader<File>) -> Result<T, E>,
) -> Result<T, String> {
    let file = File::open(path).map_err(|e| format!("{path}: {e}"))?;
    parse(BufReader::new(file)).map_err(|e| format!("{path}: {e}"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("deps") => deps::run_cli(),
        Some("bench-diff") => bench_diff::run_cli(&args[1..]),
        Some("bench-record") => bench_record::run_cli(&args[1..]),
        Some("trace") => trace_cmd::run_cli(&args[1..]),
        Some("timeline") => timeline_cmd::run_cli(&args[1..]),
        Some("loc") => loc::run_cli(&args[1..]),
        _ => {
            eprintln!(
                "usage: cargo run -p xtask -- <command>\n\
                 commands:\n\
                   deps                                  hermeticity guard (Cargo.lock)\n\
                   bench-diff <baseline> <candidate>     summary.json regression gate\n\
                   bench-record <n> [--parent DIR]       write BENCH_<n>.json (hostbench medians)\n\
                   trace <trace.jsonl> [--top K]         trace analyzer (phase breakdown)\n\
                   timeline <timeline.jsonl>             timeline analyzer (steady state)\n\
                   loc [PATH...]                         non-test lines per crate and xtask,\n\
                                                         or per PATH"
            );
            2
        }
    };
    std::process::exit(code)
}

/// Tier-1 guards for the static rules (DESIGN.md §8): `cargo test` runs no
/// lints, so these fail if the configuration that enforces a rule is removed.
#[cfg(test)]
mod lint {
    mod tests {
        const CLIPPY_TOML: &str = include_str!("../../clippy.toml");

        fn squash(src: &str) -> String {
            src.split_whitespace().collect()
        }

        fn engine_crates_deny(lints: &[&str]) {
            for src in [
                include_str!("../../crates/core/src/lib.rs"),
                include_str!("../../crates/flash/src/lib.rs"),
            ] {
                let src = squash(src);
                let (_, denied) = src.split_once("#![deny(").expect("crate-level deny");
                let denied = denied.split_once(")]").expect("closed deny").0;
                for lint in lints {
                    assert!(denied.split(',').any(|l| l == *lint), "{lint} not denied");
                }
            }
        }

        #[test]
        fn flags_unwrap_in_engine_code() {
            engine_crates_deny(&["clippy::unwrap_used", "clippy::unreachable"]);
        }

        #[test]
        fn flags_expect_and_panic() {
            engine_crates_deny(&["clippy::expect_used", "clippy::panic"]);
        }

        #[test]
        fn allows_unwrap_inside_cfg_test() {
            for key in ["unwrap", "expect", "panic"] {
                assert!(squash(CLIPPY_TOML).contains(&format!("allow-{key}-in-tests=true")));
            }
        }

        #[test]
        fn flags_bare_cast_in_flash_geometry() {
            for src in [
                include_str!("../../crates/flash/src/address.rs"),
                include_str!("../../crates/flash/src/geometry.rs"),
                include_str!("../../crates/flash/src/allocator.rs"),
            ] {
                assert!(src.contains("\n#![deny(clippy::as_conversions)]\n"));
            }
        }

        #[test]
        fn flags_std_time_in_simulation_crate() {
            for ty in ["Instant", "SystemTime", "Duration"] {
                assert!(squash(CLIPPY_TOML).contains(&format!("path=\"std::time::{ty}\"")));
            }
        }

        #[test]
        fn flags_random_seeded_hash_map() {
            for method in ["new", "with_capacity"] {
                let path = format!("path=\"std::collections::HashMap::{method}\"");
                assert!(squash(CLIPPY_TOML).contains(&path));
            }
        }

        #[test]
        fn flags_undocumented_public_fn() {
            let root = squash(include_str!("../../Cargo.toml"));
            assert!(root.contains("missing_docs=\"deny\""));
            assert!(root.contains("unreachable_pub=\"deny\""));
            for manifest in [
                include_str!("../../Cargo.toml"),
                include_str!("../../crates/bench/Cargo.toml"),
                include_str!("../../crates/core/Cargo.toml"),
                include_str!("../../crates/flash/Cargo.toml"),
                include_str!("../../crates/metrics/Cargo.toml"),
                include_str!("../../crates/workload/Cargo.toml"),
                include_str!("../Cargo.toml"),
            ] {
                assert!(squash(manifest).contains("[lints]workspace=true"));
            }
        }
    }
}
