//! `cargo run -p xtask -- loc [PATH…]` — non-test lines per crate under
//! `crates/`, then in `xtask/src`; given paths, one row per path instead.
//!
//! The first column is the rule ROADMAP.md and CHANGES.md quote sizes by:
//! every line of each `src/**/*.rs` file up to its inline
//! `#[cfg(test)] mod … {` (the `mod` maybe `pub`, `pub(crate)` or
//! `pub(super)`), with files named `tests.rs` skipped. An
//! out-of-line `#[cfg(test)] mod tests;` or an indented `#[cfg(test)]`
//! item does not end the count. The second column counts the code among
//! those lines: the non-blank lines that are not `//` comments only.
//! `total` sums the crates under `crates/` only; the `xtask` row after it
//! is counted by the same rule but kept out of the total. A `PATH` (a
//! directory or one `.rs` file, relative to the workspace root) is counted
//! by the same rule, with no total.
//!
//! Exit codes: 0 counted, 2 IO error.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// Runs the `loc` subcommand over `paths` (none: every crate). Returns the
/// process exit code.
pub(crate) fn run_cli(paths: &[String]) -> i32 {
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."));
    let text = if paths.is_empty() {
        report(root).map_err(|e| format!("{}: {e}", root.display()))
    } else {
        report_paths(root, paths)
    };
    match text {
        Ok(text) => {
            print!("{text}");
            0
        }
        Err(e) => {
            eprintln!("xtask loc: cannot read {e}");
            2
        }
    }
}

/// The table `loc` prints for the workspace at `root`: a row per crate
/// under `crates/`, their `total`, then the `xtask` row.
fn report(root: &Path) -> io::Result<String> {
    let counts = count_crates(&root.join("crates"))?;
    let xtask = count_dir(&root.join("xtask/src"))?;
    let total: usize = counts.iter().map(|(_, n)| n.0).sum();
    let code: usize = counts.iter().map(|(_, n)| n.1).sum();
    let mut out = String::new();
    for (name, (n, c)) in &counts {
        let _ = writeln!(out, "crates/{name:<10} {n:>6} {c:>6}");
    }
    let _ = writeln!(out, "{:<17} {total:>6} {code:>6}", "total");
    let _ = writeln!(out, "{:<17} {:>6} {:>6}", "xtask", xtask.0, xtask.1);
    Ok(out)
}

/// One row per path of `paths`, each resolved against `root`: the path as
/// given, then its non-test and code lines. An error names the path.
fn report_paths(root: &Path, paths: &[String]) -> Result<String, String> {
    let width = paths.iter().map(String::len).max().unwrap_or(0).max(17);
    let mut out = String::new();
    for path in paths {
        let (n, c) = count_dir(&root.join(path)).map_err(|e| format!("{path}: {e}"))?;
        let _ = writeln!(out, "{path:<width$} {n:>6} {c:>6}");
    }
    Ok(out)
}

/// `(crate directory name, (non-test lines, code lines))` for every crate.
fn count_crates(crates: &Path) -> io::Result<Vec<(String, (usize, usize))>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(crates)? {
        let dir = entry?.path();
        let src = dir.join("src");
        if src.is_dir() {
            let name = dir.file_name().map(|n| n.to_string_lossy().into_owned());
            out.push((name.unwrap_or_default(), count_dir(&src)?));
        }
    }
    out.sort();
    Ok(out)
}

/// Non-test and code lines of `path`: of every `.rs` file under it when
/// it is a directory, else of the file itself (none for a `tests.rs` or a
/// file that is not Rust).
fn count_dir(path: &Path) -> io::Result<(usize, usize)> {
    if !fs::metadata(path)?.is_dir() {
        let counted = path.extension().is_some_and(|e| e == "rs")
            && path.file_name().is_some_and(|f| f != "tests.rs");
        return match counted {
            true => Ok(non_test_lines(&fs::read_to_string(path)?)),
            false => Ok((0, 0)),
        };
    }
    let mut n = (0, 0);
    for entry in fs::read_dir(path)? {
        let (lines, code) = count_dir(&entry?.path())?;
        n = (n.0 + lines, n.1 + code);
    }
    Ok(n)
}

/// Lines of `src` before its first unindented `#[cfg(test)]` whose next
/// non-blank line opens an inline module (`mod … {`, maybe after `pub`,
/// `pub(crate)` or `pub(super)`), and the code lines among them.
fn non_test_lines(src: &str) -> (usize, usize) {
    let lines: Vec<&str> = src.lines().collect();
    let inline_mod = |rest: &[&str]| {
        let next = rest.iter().find(|l| !l.trim().is_empty());
        next.is_some_and(|l| {
            let vis = ["pub ", "pub(crate) ", "pub(super) "];
            let l = vis.iter().find_map(|v| l.strip_prefix(v)).unwrap_or(l);
            l.starts_with("mod ") && l.trim_end().ends_with('{')
        })
    };
    let n = (0..lines.len())
        .find(|&i| lines[i].trim_end() == "#[cfg(test)]" && inline_mod(&lines[i + 1..]))
        .unwrap_or(lines.len());
    let code = lines[..n].iter().map(|l| l.trim());
    let code = code.filter(|l| !l.is_empty() && !l.starts_with("//"));
    (n, code.count())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_up_to_the_inline_test_module_only() {
        let src = "\
//! A module.

#[cfg(test)]
mod tests;

fn f() {
    #[cfg(test)]
    fn helper() {}
}

#[cfg(test)]
mod unit {
    #[test]
    fn t() {}
}
";
        assert_eq!(non_test_lines(src), (10, 6));
        let visible = "fn a() {}\n#[cfg(test)]\npub(crate) mod tests {\n}\n";
        assert_eq!(non_test_lines(visible), (1, 1));
        assert_eq!(non_test_lines("fn a() {}\n\nfn b() {}\n"), (3, 2));
        let commented = "//! Doc.\n/// Item doc.\nfn a() {} // trailing\n    // note\n";
        assert_eq!(non_test_lines(commented), (4, 1));
    }

    #[test]
    fn xtask_row_follows_a_total_of_the_crates_only() {
        let root = std::env::temp_dir().join(format!("xtask-loc-{}", std::process::id()));
        let files = [
            ("crates/a/src/lib.rs", "fn a() {}\n"),
            ("crates/b/src/lib.rs", "//! B.\n\nfn b() {}\n"),
            (
                "xtask/src/main.rs",
                "fn main() {}\n// note\n#[cfg(test)]\nmod t {\n}\n",
            ),
        ];
        for (path, src) in files {
            let path = root.join(path);
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(path, src).unwrap();
        }
        let text = report(&root);
        let paths = ["crates/b/src", "xtask/src/main.rs", "crates"].map(String::from);
        let rows = report_paths(&root, &paths);
        let missing = report_paths(&root, &["crates/c".to_string()]);
        fs::remove_dir_all(&root).unwrap();
        assert_eq!(
            text.unwrap(),
            "crates/a               1      1\n\
             crates/b               3      1\n\
             total                  4      2\n\
             xtask                  2      1\n"
        );
        assert_eq!(
            rows.unwrap(),
            "crates/b/src           3      1\n\
             xtask/src/main.rs      2      1\n\
             crates                 4      2\n"
        );
        assert!(missing.is_err_and(|e| e.starts_with("crates/c: ")));
    }
}
