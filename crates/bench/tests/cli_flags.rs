//! Command-line tests of the `anykey-bench` binary.

use std::process::Command;

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
