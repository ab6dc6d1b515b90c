//! `anykey-bench` — regenerates the AnyKey paper's tables and figures.
//!
//! ```text
//! anykey-bench <experiment|all> [--capacity-mb N] [--fill F]
//!              [--ops-factor F] [--out DIR] [--seed S] [--jobs N] [--quick]
//!              [--trace PATH] [--timeline PATH] [--timeline-interval NS]
//! ```
//!
//! The output path names the format: a `--trace` path ending in `.json`
//! gets Chrome trace-event JSON, a `--timeline` path ending in `.csv` gets
//! CSV, and any other path gets JSONL.
//!
//! Experiments declare [`Point`](anykey_bench::Point)s; the scheduler runs
//! them (optionally in parallel) and hands results back in declaration
//! order, so the rendered CSVs and `summary.json` are byte-identical for
//! any `--jobs` value. Wall-clock timing lives in the scheduler, not here.

use anykey_bench::common::Scale;
use anykey_bench::experiments::{self, Experiment};
use anykey_bench::scheduler::{build_summary, run_points, Point};
use anykey_bench::ExpCtx;

fn usage() -> ! {
    eprintln!(
        "usage: anykey-bench <experiment|all> [options]\n\
         experiments: {}\n\
         options:\n\
           --capacity-mb N   device capacity in MiB (default 128)\n\
           --fill F          warm-up fill fraction (default 0.55)\n\
           --ops-factor F    measured ops as multiple of capacity (default 2.0)\n\
           --out DIR         CSV output directory (default results/)\n\
           --seed S          RNG seed\n\
           --jobs N          worker threads for the point scheduler (default 1)\n\
           --quick           small/fast smoke scale (64 MiB, fill 0.45, ops-factor\n\
                             0.5); explicit --capacity-mb/--fill/--ops-factor win\n\
           --trace PATH      record measured-phase trace events to PATH: JSONL,\n\
                             or Chrome trace-event JSON (open in Perfetto) when\n\
                             PATH ends in .json\n\
           --timeline PATH   record periodic state-sample timelines to PATH:\n\
                             JSONL, or CSV when PATH ends in .csv\n\
           --timeline-interval NS  virtual ns between samples (default\n\
                             10000000 with --timeline; 0 disables sampling)",
        experiments::ids().join(" ")
    );
    std::process::exit(2)
}

/// One requested experiment and the slice of the global point list it
/// declared.
struct PlanEntry {
    id: String,
    exp: &'static Experiment,
    range: std::ops::Range<usize>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let mut ids: Vec<String> = Vec::new();
    // `--quick` only picks the starting scale, so explicit flags override
    // it wherever they appear on the command line.
    let mut scale = Scale::default();
    if args.iter().any(|a| a == "--quick") {
        scale = scale.quick();
    }
    let mut jobs = 1usize;
    let mut trace_path: Option<std::path::PathBuf> = None;
    let mut timeline_path: Option<std::path::PathBuf> = None;
    let mut timeline_interval: Option<u64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--capacity-mb" => {
                i += 1;
                scale.capacity = args
                    .get(i)
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or_else(|| usage())
                    << 20;
            }
            "--fill" => {
                i += 1;
                scale.fill = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--ops-factor" => {
                i += 1;
                scale.ops_factor = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--out" => {
                i += 1;
                scale.out_dir = args.get(i).map(Into::into).unwrap_or_else(|| usage());
            }
            "--seed" => {
                i += 1;
                scale.seed = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--jobs" => {
                i += 1;
                jobs = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage());
            }
            "--trace" => {
                i += 1;
                trace_path = Some(args.get(i).map(Into::into).unwrap_or_else(|| usage()));
            }
            "--timeline" => {
                i += 1;
                timeline_path = Some(args.get(i).map(Into::into).unwrap_or_else(|| usage()));
            }
            "--timeline-interval" => {
                i += 1;
                timeline_interval = Some(
                    args.get(i)
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--quick" => {}
            id if !id.starts_with('-') => ids.push(id.to_string()),
            _ => usage(),
        }
        i += 1;
    }
    if ids.is_empty() {
        usage();
    }
    if ids.iter().any(|i| i == "all") {
        ids = experiments::ids().iter().map(|s| s.to_string()).collect();
    }

    let mut ctx = ExpCtx::new(scale);
    ctx.trace = trace_path.is_some();
    // --timeline implies a default sampling interval of 10 ms virtual;
    // --timeline-interval 0 turns sampling off entirely (zero overhead).
    ctx.timeline_interval_ns = match (timeline_interval, &timeline_path) {
        (Some(ns), _) => ns,
        (None, Some(_)) => 10_000_000,
        (None, None) => 0,
    };
    println!(
        "# AnyKey reproduction harness — capacity {} MiB, DRAM {} KiB (0.1%), fill {:.0}%, seed {}\n",
        ctx.scale.capacity >> 20,
        (ctx.scale.capacity / 1024) >> 10,
        ctx.scale.fill * 100.0,
        ctx.scale.seed
    );

    // Gather every selected experiment's declared points into one global
    // list so the scheduler can dedup and balance across all of them.
    let mut plan: Vec<PlanEntry> = Vec::new();
    let mut points: Vec<Point> = Vec::new();
    for id in &ids {
        let Some(exp) = experiments::by_id(id) else {
            eprintln!("unknown experiment '{id}'");
            usage();
        };
        let start = points.len();
        points.extend((exp.points)(&ctx));
        plan.push(PlanEntry {
            id: id.clone(),
            exp,
            range: start..points.len(),
        });
    }

    let run = run_points(&ctx, &points, jobs);

    // Harness notes (keyspace shrinks etc.) surface after the sweep, in
    // declaration order — never interleaved by worker threads.
    for r in &run.results {
        if let Some(note) = &r.note {
            eprintln!("{note}");
        }
    }

    for entry in &plan {
        println!("## {}", entry.id);
        (entry.exp.render)(&ctx, &run.results[entry.range.clone()]);
    }

    let summary = build_summary(&ctx, &points, &run);
    let path = ctx.scale.out("summary.json");
    match summary.write(&path) {
        Ok(()) => println!("  -> {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }

    // Trace export: each unique simulation once (its representative point),
    // in declaration order — byte-identical for any `--jobs` value.
    if let Some(path) = trace_path {
        let named: Vec<(String, Vec<anykey_metrics::TraceEvent>)> = points
            .iter()
            .zip(&run.results)
            .filter_map(|(p, r)| r.trace.as_ref().map(|t| (p.key.clone(), t.clone())))
            .collect();
        let (body, format) = if path.extension().is_some_and(|e| e == "json") {
            (anykey_metrics::trace::write_chrome(&named), "chrome")
        } else {
            (anykey_metrics::trace::write_jsonl(&named), "jsonl")
        };
        match std::fs::write(&path, body) {
            Ok(()) => println!("  -> {} ({format} trace)", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
    // Timeline export: each unique simulation once, in declaration order —
    // byte-identical for any `--jobs` value, like the trace export.
    if let Some(path) = timeline_path {
        let named: Vec<(String, Vec<anykey_metrics::StateSample>)> = points
            .iter()
            .zip(&run.results)
            .filter_map(|(p, r)| r.timeline.as_ref().map(|t| (p.key.clone(), t.clone())))
            .collect();
        let (body, format) = if path.extension().is_some_and(|e| e == "csv") {
            (anykey_metrics::timeline::write_csv(&named), "csv")
        } else {
            (anykey_metrics::timeline::write_jsonl(&named), "jsonl")
        };
        match std::fs::write(&path, body) {
            Ok(()) => println!("  -> {} ({format} timeline)", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
    println!(
        "\nscheduled {} points ({} unique simulations) on {} jobs in {:.1}s",
        points.len(),
        run.executed,
        run.jobs,
        run.wall_secs
    );
}
