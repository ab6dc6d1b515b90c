//! Command-line tests of the `anykey-bench` binary.

use std::io::Read;
use std::process::{Command, Stdio};

/// Runs `fig2` at a tiny scale with `args` and returns its header line.
fn header(args: &[&str]) -> String {
    let out_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(args.concat());
    let output = Command::new(env!("CARGO_BIN_EXE_anykey-bench"))
        .arg("fig2")
        .args(args)
        .args(["--ops-factor", "0.01", "--out"])
        .arg(&out_dir)
        .output()
        .expect("run anykey-bench");
    assert!(output.status.success(), "anykey-bench failed: {output:?}");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");
    stdout.lines().next().expect("header line").to_string()
}

/// `--quick` picks the starting scale wherever it appears; explicit flags
/// always override it.
#[test]
fn explicit_flags_win_over_quick_in_either_order() {
    for args in [
        ["--capacity-mb", "128", "--fill", "0.02", "--quick"],
        ["--quick", "--capacity-mb", "128", "--fill", "0.02"],
    ] {
        let line = header(&args);
        assert!(line.contains("capacity 128 MiB"), "{args:?}: {line}");
        assert!(line.contains("fill 2%"), "{args:?}: {line}");
    }
}

/// The output path names the format: `.json` traces are Chrome trace-event
/// JSON, `.csv` timelines are CSV, and anything else is JSONL.
#[test]
fn trace_and_timeline_formats_follow_the_path_extension() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("formats");
    std::fs::create_dir_all(&dir).expect("create output dir");
    let jsonl = "{\"event\":\"header\"";
    for [trace, timeline, trace_start, timeline_start] in [
        ["t.json", "t.csv", "[\n{\"name\":", "point,"],
        ["t.jsonl", "tl.jsonl", jsonl, jsonl],
    ] {
        let (trace, timeline) = (dir.join(trace), dir.join(timeline));
        let output = Command::new(env!("CARGO_BIN_EXE_anykey-bench"))
            .args(["fig2", "--quick", "--fill", "0.02", "--ops-factor", "0.01"])
            .args(["--out".as_ref(), dir.as_os_str()])
            .args(["--trace".as_ref(), trace.as_os_str()])
            .args(["--timeline".as_ref(), timeline.as_os_str()])
            .output()
            .expect("run anykey-bench");
        assert!(output.status.success(), "anykey-bench failed: {output:?}");
        for (path, start) in [(&trace, trace_start), (&timeline, timeline_start)] {
            let body = std::fs::read_to_string(path).expect("read output file");
            assert!(body.starts_with(start), "{path:?}: {:?}", body.get(..40));
        }
    }
}

/// Runs `anykey-bench` with `args`, expecting the usage error (exit 2),
/// and returns its stderr. The wait is bounded: a value that slipped
/// through would start a sweep, and an infinite one must fail the test
/// rather than hang it.
fn usage_error(args: &[&str]) -> String {
    let out_dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("usage");
    let mut child = Command::new(env!("CARGO_BIN_EXE_anykey-bench"))
        .args(args)
        .args(["--out".as_ref(), out_dir.as_os_str()])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run anykey-bench");
    // 600 polls 50 ms apart: 30 s for a process that should exit at once.
    // The wall clock bounds a host process here; no simulation reads it.
    #[allow(clippy::disallowed_types)]
    let status = (0..600).find_map(|_| {
        let status = child.try_wait().expect("poll anykey-bench");
        if status.is_none() {
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        status
    });
    let Some(status) = status else {
        let _ = child.kill();
        let _ = child.wait();
        panic!("{args:?}: still running after 30 s, not rejected");
    };
    let mut stderr = String::new();
    let mut pipe = child.stderr.take().expect("piped stderr");
    pipe.read_to_string(&mut stderr).expect("utf-8 stderr");
    assert_eq!(status.code(), Some(2), "{args:?}: {status:?}: {stderr}");
    assert!(stderr.contains("usage: anykey-bench"), "{args:?}: {stderr}");
    stderr
}

/// A sampling interval without a timeline to write the samples to is
/// rejected before anything runs.
#[test]
fn timeline_interval_needs_timeline() {
    usage_error(&["fig2", "--timeline-interval", "1000"]);
}

/// An unknown experiment id is rejected, by name, before anything runs.
#[test]
fn unknown_experiment_is_named() {
    let stderr = usage_error(&["fig2", "nosuchfig"]);
    assert!(
        stderr.contains("unknown experiment 'nosuchfig'"),
        "{stderr}"
    );
}

/// A capacity that is not a positive whole number of erase blocks on
/// every chip (64 MiB for the standard geometry) is a usage error, not a
/// geometry panic, even for the analytic experiment.
#[test]
fn capacity_off_the_block_granule_is_a_usage_error() {
    for mb in ["100", "0"] {
        let stderr = usage_error(&["scalability", "--capacity-mb", mb]);
        assert!(stderr.contains("multiple of 64 MiB"), "{mb}: {stderr}");
    }
}

/// A fill fraction outside (0, 1] and an ops factor that is not a finite
/// positive number are usage errors. Accepted, an infinite ops factor
/// sized the measured phase at `u64::MAX` ops, and the others ran with a
/// nonsense fill or measured nothing.
#[test]
fn out_of_range_fill_and_ops_factor_are_usage_errors() {
    for (flag, values) in [
        ("--fill", ["2", "-0.5", "NaN", "0"]),
        ("--ops-factor", ["inf", "-1", "NaN", "0"]),
    ] {
        for value in values {
            usage_error(&["fig2", flag, value]);
        }
    }
}
