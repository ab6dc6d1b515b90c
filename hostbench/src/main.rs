//! `hostbench --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]`
//!
//! Prints one information line (run environment, sizes, simulated-DRAM
//! footprint, `sim_digest`), then as its last line the result object
//! `{"correct", "attempted", "failed", "metrics"}`. Exits 2 on bad usage.

use std::hint::black_box;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use anykey_hostbench::bench::{self, Options, Outcome};
use anykey_hostbench::plan::{Size, Workload};
use anykey_workload::rng::mix64;

const USAGE: &str = "usage: hostbench --workload <rtdata-anykeyplus|rtdata-pink|rtdata-fill-anykeyplus|udb-scan-anykeyplus> --seed <n> [--seconds <s>] [--trace <0|1>]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = value.parse::<f64>().map_err(|_| bad())?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        size: Size::Standard,
    })
}

/// Host ns of a fixed loop of 2^24 integer mixes: a reference for how fast
/// this machine was during the run. Reported, never compared.
fn calibration_ns() -> u128 {
    let t = Instant::now();
    let mut x = 0u64;
    for i in 0..1u64 << 24 {
        x = mix64(black_box(x ^ i));
    }
    black_box(x);
    t.elapsed().as_nanos()
}

/// The commit the benchmark was built from, read from the checkout's git
/// metadata when there is any.
fn commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(&git.join("HEAD")) {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&git.join(r)).unwrap_or_else(|| head.clone()),
            None => head,
        },
        None => "unknown".to_string(),
    }
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn info_line(opts: &Options, out: &Outcome) -> String {
    let p = &out.plan;
    let m = out.runs[0].run.meta;
    let traced = out.runs.iter().filter(|r| r.traced).count();
    let failures: Vec<String> = out.failures.iter().map(|f| format!("{f:?}")).collect();
    let notes: Vec<String> = [&out.runs[0].load, &out.runs[0].run]
        .iter()
        .filter_map(|p| p.note.as_ref().map(|n| format!("{n:?}")))
        .collect();
    format!(
        concat!(
            "{{\"info\":{{\"workload\":\"{}\",\"seed\":{},\"nproc\":{},\"profile\":\"{}\",",
            "\"commit\":\"{}\",\"calibration_ns\":{},\"sim_digest\":\"{:016x}\",",
            "\"repeats\":{},\"traced_repeats\":{},\"setup_samples\":{},\"failed_op_ratio\":{},",
            "\"failures\":[{}],\"notes\":[{}],",
            "\"scale\":{{\"engine\":\"{}\",\"workload\":\"{}\",\"key_bytes\":{},\"value_bytes\":{},",
            "\"capacity_bytes\":{},\"load_ops\":{},\"run_ops\":{},\"queue_depth\":{}}},",
            "\"dram\":{{\"capacity_bytes\":{},\"write_buffer_bytes\":{},\"used_bytes\":{},",
            "\"level_list_bytes\":{},\"level_list_flash_bytes\":{},",
            "\"hash_list_total_bytes\":{},\"hash_list_resident_bytes\":{},",
            "\"meta_segment_dram_bytes\":{},\"meta_segment_flash_bytes\":{}}}}}}}"
        ),
        p.workload.name(),
        opts.seed,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        commit(),
        calibration_ns(),
        out.sim_digest,
        out.runs.len(),
        traced,
        out.setup_samples.len(),
        num(out.failed as f64 / out.attempted.max(1) as f64),
        failures.join(","),
        notes.join(","),
        p.cfg.engine.label(),
        p.spec.name,
        p.spec.key_len,
        p.spec.value_len,
        p.cfg.capacity_bytes(),
        p.load_ops,
        if p.workload.is_fill() { out.runs[0].run.ops } else { p.run_ops },
        anykey_core::runner::DEFAULT_QUEUE_DEPTH,
        m.dram_capacity,
        p.cfg.write_buffer_bytes,
        m.dram_used,
        m.level_list_bytes,
        m.level_list_flash_bytes,
        m.hash_list_total_bytes,
        m.hash_list_resident_bytes,
        m.meta_segment_dram_bytes,
        m.meta_segment_flash_bytes,
    )
}

fn result_line(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        metrics.join(",")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("hostbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = bench::run(&opts);
    println!("{}", info_line(&opts, &out));
    println!("{}", result_line(&out));
    ExitCode::SUCCESS
}
