//! `cargo run -p xtask -- loc` — non-test lines per crate under `crates/`,
//! then in `xtask/src`.
//!
//! The first column is the rule ROADMAP.md and CHANGES.md quote sizes by:
//! every line of each `src/**/*.rs` file up to its inline
//! `#[cfg(test)] mod … {`, with files named `tests.rs` skipped. An
//! out-of-line `#[cfg(test)] mod tests;` or an indented `#[cfg(test)]`
//! item does not end the count. The second column counts the code among
//! those lines: the non-blank lines that are not `//` comments only.
//! `total` sums the crates under `crates/` only; the `xtask` row after it
//! is counted by the same rule but kept out of the total.
//!
//! Exit codes: 0 counted, 2 IO error.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// Runs the `loc` subcommand. Returns the process exit code.
pub(crate) fn run_cli() -> i32 {
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."));
    match report(root) {
        Ok(text) => {
            print!("{text}");
            0
        }
        Err(e) => {
            eprintln!("xtask loc: cannot read {}: {e}", root.display());
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

/// Non-test and code lines of every `.rs` file under `dir`.
fn count_dir(dir: &Path) -> io::Result<(usize, usize)> {
    let mut n = (0, 0);
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        let (lines, code) = if path.is_dir() {
            count_dir(&path)?
        } else if path.extension().is_some_and(|e| e == "rs")
            && path.file_name().is_some_and(|f| f != "tests.rs")
        {
            non_test_lines(&fs::read_to_string(&path)?)
        } else {
            continue;
        };
        n = (n.0 + lines, n.1 + code);
    }
    Ok(n)
}

/// Lines of `src` before its first unindented `#[cfg(test)]` whose next
/// non-blank line opens an inline module, and the code lines among them.
fn non_test_lines(src: &str) -> (usize, usize) {
    let lines: Vec<&str> = src.lines().collect();
    let inline_mod = |rest: &[&str]| {
        let next = rest.iter().find(|l| !l.trim().is_empty());
        next.is_some_and(|l| l.starts_with("mod ") && l.trim_end().ends_with('{'))
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
        fs::remove_dir_all(&root).unwrap();
        assert_eq!(
            text.unwrap(),
            "crates/a               1      1\n\
             crates/b               3      1\n\
             total                  4      2\n\
             xtask                  2      1\n"
        );
    }
}
