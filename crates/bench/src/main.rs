//! `anykey-bench` — regenerates the AnyKey paper's tables and figures.
//!
//! ```text
//! anykey-bench <experiment|all> [--capacity-mb N] [--fill F]
//!              [--ops-factor F] [--out DIR] [--seed S] [--jobs N] [--quick]
//!              [--trace PATH] [--timeline PATH [--timeline-interval NS]]
//! ```
//!
//! The output path names the format: a `--trace` path ending in `.json`
//! gets Chrome trace-event JSON, a `--timeline` path ending in `.csv` gets
//! CSV, and any other path gets JSONL.
//!
//! `--timeline-interval` needs `--timeline`: samples with nowhere to go
//! would only slow the sweep.
//!
//! This binary parses flags and prints the scale header, the output paths
//! and the closing scheduler line; the sweep itself (schedule, render,
//! summarise, export) is [`anykey_bench::sweep`], the same code the
//! determinism tests drive.

use std::io;
use std::path::{Path, PathBuf};

use anykey_bench::common::Scale;
use anykey_bench::experiments;
use anykey_bench::{sweep, ExpCtx};
use anykey_core::DeviceConfig;

/// The capacity step of the standard device: one erase block on each
/// chip of its flash geometry. A capacity off this step cannot be laid
/// out as whole blocks per chip.
fn capacity_granule() -> u64 {
    let geometry = DeviceConfig::builder().build().flash.geometry;
    u64::from(geometry.chips()) * geometry.block_bytes()
}

fn usage() -> ! {
    eprintln!(
        "usage: anykey-bench <experiment|all> [options]\n\
         experiments: {}\n\
         options:\n\
           --capacity-mb N   device capacity in MiB (default 128; a positive\n\
                             multiple of {} MiB)\n\
           --fill F          warm-up fill fraction, in (0, 1] (default 0.55)\n\
           --ops-factor F    measured ops as a positive multiple of capacity\n\
                             (default 2.0)\n\
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
           --timeline-interval NS  virtual ns between samples; needs\n\
                             --timeline (default 10000000; 0 disables sampling)",
        experiments::ids().join(" "),
        capacity_granule() >> 20
    );
    std::process::exit(2)
}

/// Prints where an output landed, or warns that it could not be written.
fn report(path: &Path, written: io::Result<String>) {
    match written {
        Ok(what) => println!("  -> {}{what}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
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
    let mut trace_path: Option<PathBuf> = None;
    let mut timeline_path: Option<PathBuf> = None;
    let mut timeline_interval: Option<u64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--capacity-mb" => {
                i += 1;
                scale.capacity = args
                    .get(i)
                    .and_then(|v| v.parse::<u64>().ok())
                    .and_then(|mb| mb.checked_mul(1 << 20))
                    .filter(|&bytes| bytes > 0 && bytes % capacity_granule() == 0)
                    .unwrap_or_else(|| usage());
            }
            "--fill" => {
                i += 1;
                scale.fill = args
                    .get(i)
                    .and_then(|v| v.parse::<f64>().ok())
                    .filter(|&f| f > 0.0 && f <= 1.0)
                    .unwrap_or_else(|| usage());
            }
            "--ops-factor" => {
                i += 1;
                scale.ops_factor = args
                    .get(i)
                    .and_then(|v| v.parse::<f64>().ok())
                    .filter(|&f| f.is_finite() && f > 0.0)
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
    if timeline_interval.is_some() && timeline_path.is_none() {
        usage();
    }

    let mut ctx = ExpCtx::new(scale);
    ctx.trace = trace_path.is_some();
    // --timeline samples every 10 ms virtual by default; --timeline-interval
    // 0 turns sampling off entirely (zero overhead).
    ctx.timeline_interval_ns = match timeline_path {
        Some(_) => timeline_interval.unwrap_or(10_000_000),
        None => 0,
    };
    println!(
        "# AnyKey reproduction harness — capacity {} MiB, DRAM {} KiB (0.1%), fill {:.0}%, seed {}\n",
        ctx.scale.capacity >> 20,
        ctx.scale.dram_bytes() >> 10,
        ctx.scale.fill * 100.0,
        ctx.scale.seed
    );

    let ids: Vec<&str> = ids.iter().map(String::as_str).collect();
    let sweep = sweep(&ctx, &ids, jobs).unwrap_or_else(|e| {
        eprintln!("{e}");
        usage()
    });
    sweep.render();
    let path = ctx.scale.out("summary.json");
    report(&path, sweep.summary().write(&path).map(|()| String::new()));
    if let Some(path) = trace_path {
        let written = sweep.write_trace(&path);
        report(&path, written.map(|format| format!(" ({format} trace)")));
    }
    if let Some(path) = timeline_path {
        let written = sweep.write_timeline(&path);
        report(&path, written.map(|format| format!(" ({format} timeline)")));
    }
    println!(
        "\nscheduled {} points ({} unique simulations) on {} jobs in {:.1}s",
        sweep.points().len(),
        sweep.run().executed,
        sweep.run().jobs,
        sweep.run().wall_secs
    );
}
