//! `xtask bench-diff` as CI runs it: the built binary's exit codes (0 pass,
//! 1 regression, 2 usage/IO/parse error) and its failure report, byte for
//! byte.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// One test's scratch directory, removed when dropped.
struct Dir(PathBuf);

impl Dir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("xtask_bench_diff_{}_{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create test dir");
        Self(dir)
    }

    /// Writes `text` to `name` in the directory.
    fn file(&self, name: &str, text: &str) -> PathBuf {
        let path = self.0.join(name);
        std::fs::write(&path, text).expect("write summary");
        path
    }
}

impl Drop for Dir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A two-point summary; `erases_b` is point `e/w/b`'s `erases`, `schema`
/// the run's `schema_version`.
fn summary(schema: u64, erases_b: u64) -> String {
    let point = |key: &str, erases: u64| {
        format!(
            "    {{\n      \"key\": \"{key}\",\n      \"ops\": 10,\n      \
             \"erases\": {erases},\n      \"wall_secs\": 1.000000\n    }}"
        )
    };
    format!(
        "{{\n  \"schema_version\": {schema},\n  \"capacity_bytes\": 1024,\n  \"seed\": 7,\n  \
         \"total_wall_secs\": 2.000000,\n  \"points\": [\n{},\n{}\n  ]\n}}\n",
        point("e/w/a", 5),
        point("e/w/b", erases_b)
    )
}

/// Runs `xtask bench-diff <baseline> <candidate>`.
fn bench_diff(baseline: &Path, candidate: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xtask"))
        .arg("bench-diff")
        .args([baseline, candidate])
        .output()
        .expect("run xtask")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("exit code")
}

#[test]
fn identical_summaries_pass() {
    let dir = Dir::new("same");
    let base = dir.file("base.json", &summary(3, 5));
    let cand = dir.file("cand.json", &summary(3, 5));
    let out = bench_diff(&base, &cand);
    assert_eq!(code(&out), 0, "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.starts_with("bench-diff: PASS — 10 metrics compared"),
        "{stdout}"
    );
}

#[test]
fn changed_exact_metric_fails_with_its_report() {
    let dir = Dir::new("changed");
    let base = dir.file("base.json", &summary(3, 5));
    let cand = dir.file("cand.json", &summary(3, 6));
    let out = bench_diff(&base, &cand);
    assert_eq!(code(&out), 1, "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
    let expected = format!(
        "point                                      metric                 baseline        \
         candidate  mode\n\
         e/w/b                                      erases                        5                \
         6  exact\n\
         bench-diff: FAIL — 1 failing metric(s), 0 missing, 0 extra point(s) out of 10 compared \
         ({} vs {})\n",
        cand.display(),
        base.display()
    );
    assert_eq!(String::from_utf8_lossy(&out.stderr), expected);
}

#[test]
fn missing_point_fails() {
    let dir = Dir::new("missing");
    let base = dir.file("base.json", &summary(3, 5));
    let text = summary(3, 5);
    let (head, _) = text.split_once(",\n    {").expect("two points");
    let cand = dir.file("cand.json", &format!("{head}\n  ]\n}}\n"));
    let out = bench_diff(&base, &cand);
    assert_eq!(code(&out), 1, "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("bench-diff: MISSING point `e/w/b`"),
        "{stderr}"
    );
}

#[test]
fn schema_version_mismatch_is_a_usage_error() {
    let dir = Dir::new("schema");
    let base = dir.file("base.json", &summary(3, 5));
    let cand = dir.file("cand.json", &summary(2, 5));
    let out = bench_diff(&base, &cand);
    assert_eq!(code(&out), 2, "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("schema_version mismatch"), "{stderr}");
}

#[test]
fn malformed_documents_are_rejected() {
    let dir = Dir::new("malformed");
    let base = dir.file("base.json", &summary(3, 5));
    let nested_point = summary(3, 5).replace("\"ops\": 10", "\"ops\": [10]");
    let cases = [
        ("array", "[1, 2]\n".to_string()),
        ("scalar", "3\n".to_string()),
        ("nested_point", nested_point),
        (
            "nested_run",
            summary(3, 5).replace("\"seed\": 7", "\"seed\": {\"a\": 7}"),
        ),
        (
            "points_scalar",
            "{\"schema_version\": 3, \"points\": 1}\n".to_string(),
        ),
        (
            "point_scalar",
            "{\"schema_version\": 3, \"points\": [1]}\n".to_string(),
        ),
        (
            "null",
            summary(3, 5).replace("\"seed\": 7", "\"seed\": null"),
        ),
        ("trailing", summary(3, 5) + "x"),
    ];
    for (name, text) in cases {
        let cand = dir.file(&format!("{name}.json"), &text);
        for (b, c) in [(&base, &cand), (&cand, &base)] {
            let out = bench_diff(b, c);
            assert_eq!(code(&out), 2, "{name}: {out:?}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains("parse error"), "{name}: {stderr}");
        }
    }
}

#[test]
fn unreadable_path_is_a_usage_error() {
    let dir = Dir::new("unreadable");
    let base = dir.file("base.json", &summary(3, 5));
    let out = bench_diff(&base, &dir.0.join("no_such_summary.json"));
    assert_eq!(code(&out), 2, "{out:?}");
}
