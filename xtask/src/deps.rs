//! `cargo run -p xtask -- deps` — the hermeticity guard.
//!
//! Tier-1 verify must build offline, so every resolved package must be a
//! path package of this workspace. The root `Cargo.lock` lists the whole
//! resolved graph (dev and optional dependencies included), and only
//! registry and git packages carry a `source = ` entry.
//!
//! Exit codes: 0 hermetic, 1 external package found, 2 IO error.

/// Runs the `deps` subcommand. Returns the process exit code.
pub(crate) fn run_cli() -> i32 {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.lock");
    let Ok(lock) = std::fs::read_to_string(path) else {
        eprintln!("xtask deps: cannot read {path}");
        return 2;
    };
    let external = external_packages(&lock);
    for p in &external {
        eprintln!("xtask deps: external package {p}; only path dependencies are allowed");
    }
    if external.is_empty() {
        0
    } else {
        1
    }
}

/// `name (source)` of every lockfile package that has a `source`.
fn external_packages(lock: &str) -> Vec<String> {
    let mut name = "";
    let mut out = Vec::new();
    for line in lock.lines() {
        if let Some(v) = line.strip_prefix("name = ") {
            name = v.trim_matches('"');
        } else if let Some(v) = line.strip_prefix("source = ") {
            out.push(format!("{name} ({})", v.trim_matches('"')));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::external_packages;

    const PATH_ONLY: &str = "[[package]]\nname = \"app\"\nversion = \"0.1.0\"\n";

    #[test]
    fn rejects_registry_and_git_packages_by_name() {
        for (name, source) in [
            ("rand", "registry+https://example.com/crates-index"),
            ("serde", "git+https://example.com/serde#0123abcd"),
        ] {
            let lock = format!(
                "{PATH_ONLY}\n[[package]]\nname = \"{name}\"\nversion = \"1.0.0\"\nsource = \"{source}\"\n"
            );
            assert_eq!(external_packages(&lock), [format!("{name} ({source})")]);
        }
    }

    #[test]
    fn accepts_path_only_lockfiles_including_the_workspace_one() {
        assert!(external_packages(PATH_ONLY).is_empty());
        let workspace = include_str!("../../Cargo.lock");
        assert!(workspace.contains("name = \"anykey-core\""));
        assert!(external_packages(workspace).is_empty());
    }
}
