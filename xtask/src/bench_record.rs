//! `cargo run -p xtask -- bench-record <n> [--runs R] [--parent DIR]
//! [--seconds S] [--claim WORKLOAD/METRIC]` — records one `BENCH_<n>.json`
//! point of the host-cost trajectory.
//!
//! It reads `BENCHMARK.json` in the current directory and runs its command
//! once per workload and run (`--workload <name> --seed <run> --seconds
//! <run_seconds> --trace 0`), with `CARGO_TARGET_DIR=.bench_build` in the
//! checkout it runs in. With `--parent DIR` every run is a pair: the same
//! command and seed in `DIR` (a checkout of the parent commit) and here,
//! the order alternating between runs so drift on the host falls on both
//! sides alike. The file holds, per side and workload, each end-to-end
//! metric's values with their median and quartiles, the failed-op ratio,
//! and, with a parent, how many pairs the change won per metric and
//! whether both sides simulated the same thing (`same_sim`: every seed's
//! `sim_digest` equal; a warning is printed when not), and which metrics
//! the parent's own spread leaves unresolved (`unresolved`: interquartile
//! range over [`UNRESOLVED_IQR`] of the median; one warning each), and
//! which metrics got worse than the parent's by more than their
//! `BENCHMARK.json` `bound` (`worse`, see [`worse`]; one warning each, and
//! exit 1); plus the commits,
//! `nproc`, and the median `calibration_ns` of each side. A side's commit
//! is its checkout's `HEAD`, marked `-dirty` when tracked files differ
//! from it (see `commit_label`); a directory git cannot read keeps the
//! commit the benchmark's own info line reports.
//!
//! `--claim WORKLOAD/METRIC` (with `--parent`) judges a claimed gain on one
//! end-to-end metric by the claim rule and writes it as the record's
//! `claim`: the change must win at least nine tenths of the pairs, its
//! median must beat the parent's by more than the parent's interquartile
//! range, and there must be at least [`CLAIM_PAIRS`] pairs, twice that when
//! the metric is `unresolved` on that workload (see [`judge`]).
//!
//! `BENCHMARK.json` and each run's result line are read through the
//! metrics crate's JSON codec ([`Json`]), and every name the record writes
//! is escaped with its [`esc`]; the run's info line is scanned instead
//! (see `scan_field`).
//!
//! Exit codes: 0 written, 1 a run failed or reported failed ops, a metric
//! is worse than its bound allows, or the claim is not met, 2
//! usage/IO/parse error.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

use anykey_metrics::{esc, Json};

fn usage() -> i32 {
    eprintln!(
        "usage: cargo run -p xtask -- bench-record <n> [--runs R] [--parent DIR] [--seconds S]\n\
         \x20      [--claim WORKLOAD/METRIC]\n\
         \n\
         Runs the BENCHMARK.json command for every workload R times (default 5)\n\
         and writes BENCH_<n>.json. With --parent, each run is an alternating\n\
         pair with the checkout in DIR, and a metric worse than the parent's by\n\
         more than its bound exits 1. --seconds overrides run_seconds.\n\
         --claim (needs --parent) judges a claimed gain on one end-to-end\n\
         metric of one workload and exits 1 when it is not met."
    );
    2
}

/// What `BENCHMARK.json` declares.
struct Spec {
    command: Vec<String>,
    run_seconds: f64,
    workloads: Vec<String>,
    /// End-to-end metric names with whether higher is better.
    metrics: Vec<(String, bool)>,
    /// Each end-to-end metric's `bound`, in `metrics` order: the share by
    /// which it may get worse than the parent's (infinite when unset).
    bounds: Vec<f64>,
}

fn read_spec(src: &str) -> Result<Spec, String> {
    let doc = Json::read(src).map_err(|e| e.to_string())?;
    let items = |key: &str| doc.get(key).map_or(&[][..], Json::items);
    let (metrics, bounds) = items("end_to_end")
        .iter()
        .filter_map(|m| {
            let named = (m.get("name")?.str()?, m.get("better")?.str()? == "higher");
            Some((
                named,
                m.get("bound").and_then(Json::to).unwrap_or(f64::INFINITY),
            ))
        })
        .unzip();
    let spec = Spec {
        command: items("command").iter().filter_map(Json::str).collect(),
        run_seconds: doc
            .get("run_seconds")
            .and_then(Json::to)
            .ok_or("BENCHMARK.json has no run_seconds")?,
        workloads: items("workloads")
            .iter()
            .filter_map(|w| w.get("name")?.str())
            .collect(),
        metrics,
        bounds,
    };
    if spec.command.is_empty() || spec.workloads.is_empty() || spec.metrics.is_empty() {
        return Err("BENCHMARK.json lacks a command, workloads or end_to_end metrics".into());
    }
    Ok(spec)
}

/// One run's figures: the end-to-end metrics in spec order, the failed-op
/// ratio, and the info line's commit, calibration time and digest of the
/// simulated work.
#[derive(Debug, Clone, PartialEq)]
struct RunResult {
    metrics: Vec<f64>,
    failed_ratio: f64,
    commit: String,
    calibration_ns: f64,
    sim_digest: Option<String>,
}

/// The raw text after `"key":` in a JSON line, up to the next `,` or `}`
/// (strings lose their quotes). The info line is scanned rather than
/// parsed, so a free-form note in it cannot break the record.
fn scan_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let at = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &line[at..];
    match rest.strip_prefix('"') {
        Some(s) => s.split('"').next(),
        None => rest.split([',', '}']).next(),
    }
}

/// Reads a benchmark run's output: the `info` line first, the result last.
fn read_run(stdout: &str, metrics: &[(String, bool)]) -> Result<RunResult, String> {
    let mut lines = stdout.lines().filter(|l| !l.trim().is_empty());
    let info = lines.next().ok_or("no output")?;
    let result = lines.next_back().ok_or("no result line")?;
    let result = Json::read(result).map_err(|e| e.to_string())?;
    let num = |v: Option<&Json>, what: &str| v.and_then(Json::to).ok_or(format!("no {what}"));
    let m = result.get("metrics");
    let values = metrics
        .iter()
        .map(|(name, _)| num(m.and_then(|m| m.get(name)?.get("value")), name))
        .collect::<Result<Vec<_>, _>>()?;
    let failed = num(result.get("failed"), "failed")?;
    let attempted = num(result.get("attempted"), "attempted")?;
    Ok(RunResult {
        metrics: values,
        failed_ratio: failed / attempted.max(1.0),
        commit: scan_field(info, "commit").unwrap_or("unknown").to_string(),
        calibration_ns: scan_field(info, "calibration_ns")
            .and_then(|s| s.parse().ok())
            .unwrap_or(0.0),
        sim_digest: scan_field(info, "sim_digest").map(str::to_string),
    })
}

/// The share of its median a metric's interquartile range on the parent
/// side may reach before a median shift of that size is called unresolved.
const UNRESOLVED_IQR: f64 = 0.10;

/// The end-to-end metrics the `parent` runs of one workload cannot
/// resolve: those whose interquartile range exceeds [`UNRESOLVED_IQR`] of
/// their median, in spec order.
fn unresolved<'a>(spec: &'a Spec, parent: &[RunResult]) -> Vec<&'a str> {
    let spread = |mi: usize| {
        let xs: Vec<f64> = parent.iter().map(|r| r.metrics[mi]).collect();
        let iqr = quantile(&xs, 0.75) - quantile(&xs, 0.25);
        iqr > UNRESOLVED_IQR * quantile(&xs, 0.5).abs()
    };
    let names = spec.metrics.iter().enumerate();
    names
        .filter(|&(mi, _)| spread(mi))
        .map(|(_, (name, _))| name.as_str())
        .collect()
}

/// The end-to-end metrics whose `change` median is worse than the
/// `parent` median of one workload by more than the metric's bound, in the
/// worse direction: `change/parent` over `1 + bound` for a lower-is-better
/// metric, `parent/change` for a higher-is-better one. In spec order.
fn worse<'a>(spec: &'a Spec, change: &[RunResult], parent: &[RunResult]) -> Vec<&'a str> {
    let median = |runs: &[RunResult], mi: usize| {
        let xs: Vec<f64> = runs.iter().map(|r| r.metrics[mi]).collect();
        quantile(&xs, 0.5)
    };
    let metrics = spec.metrics.iter().zip(&spec.bounds).enumerate();
    metrics
        .filter(|&(mi, ((_, higher), bound))| {
            let (c, p) = (median(change, mi), median(parent, mi));
            let (num, den) = if *higher { (p, c) } else { (c, p) };
            num > den * (1.0 + bound)
        })
        .map(|(_, ((name, _), _))| name.as_str())
        .collect()
}

/// The fewest pairs a claim rests on; twice as many when the metric is
/// unresolved on the claimed workload.
const CLAIM_PAIRS: usize = 10;

/// A claimed gain: the indices of its workload and end-to-end metric in
/// the spec.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Claim {
    workload: usize,
    metric: usize,
}

/// Parses `--claim`'s `WORKLOAD/METRIC` against the spec's names.
fn parse_claim(spec: &Spec, arg: &str) -> Option<Claim> {
    let (w, m) = arg.split_once('/')?;
    Some(Claim {
        workload: spec.workloads.iter().position(|x| x == w)?,
        metric: spec.metrics.iter().position(|(x, _)| x == m)?,
    })
}

/// What [`judge`] found for a claim.
#[derive(Debug, Clone, PartialEq)]
struct Verdict {
    pairs: usize,
    wins: usize,
    /// The change's median minus the parent's, signed so that a gain is
    /// positive.
    median_gap: f64,
    parent_iqr: f64,
    pairs_needed: usize,
    met: bool,
}

/// Judges `claim` over the paired runs: met when the change wins at least
/// nine tenths of the pairs (ties count for neither side), the median gap
/// in the better direction exceeds the parent's interquartile range, and
/// there are at least [`CLAIM_PAIRS`] pairs, twice that when the parent's
/// spread leaves the metric [`unresolved`].
fn judge(spec: &Spec, claim: Claim, change: &Side, parent: &Side) -> Verdict {
    let (mi, wi) = (claim.metric, claim.workload);
    let (name, higher) = &spec.metrics[mi];
    let values = |side: &Side| -> Vec<f64> { side[wi].iter().map(|r| r.metrics[mi]).collect() };
    let (c, p) = (values(change), values(parent));
    let better = |a: f64, b: f64| if *higher { a > b } else { a < b };
    let pairs = c.len().min(p.len());
    let wins = c.iter().zip(&p).filter(|&(&a, &b)| better(a, b)).count();
    let gap = quantile(&c, 0.5) - quantile(&p, 0.5);
    let median_gap = if *higher { gap } else { -gap };
    let parent_iqr = quantile(&p, 0.75) - quantile(&p, 0.25);
    let noisy = unresolved(spec, &parent[wi]).contains(&name.as_str());
    let pairs_needed = if noisy { 2 * CLAIM_PAIRS } else { CLAIM_PAIRS };
    Verdict {
        pairs,
        wins,
        median_gap,
        parent_iqr,
        pairs_needed,
        met: pairs >= pairs_needed && wins * 10 >= pairs * 9 && median_gap > parent_iqr,
    }
}

/// Whether two sides' runs of one workload simulated the same work: every
/// seed reports a digest, and the same one on both sides.
fn same_sim(change: &[RunResult], parent: &[RunResult]) -> bool {
    change.len() == parent.len()
        && change
            .iter()
            .zip(parent)
            .all(|(c, p)| c.sim_digest.is_some() && c.sim_digest == p.sim_digest)
}

/// The `q`-quantile of `xs` by linear interpolation between order
/// statistics (0.5 is the median).
fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Runs the spec's command for `workload` in checkout `dir`.
fn run_once(
    spec: &Spec,
    dir: &Path,
    workload: &str,
    seed: usize,
    seconds: f64,
) -> Result<RunResult, String> {
    let out = Command::new(&spec.command[0])
        .args(&spec.command[1..])
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .current_dir(dir)
        .env("CARGO_TARGET_DIR", dir.join(".bench_build"))
        .output()
        .map_err(|e| format!("{}: {e}", spec.command[0]))?;
    if !out.status.success() {
        return Err(format!(
            "{workload} in {} exited with {}: {}",
            dir.display(),
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    read_run(&String::from_utf8_lossy(&out.stdout), &spec.metrics)
}

/// A checkout's commit label: the `HEAD` sha (`git rev-parse HEAD`
/// output), with `-dirty` appended when `status` (`git status --porcelain
/// --untracked-files=no` output) lists a changed tracked file.
fn commit_label(head: &str, status: &str) -> String {
    let sha = head.trim();
    if status.trim().is_empty() {
        sha.to_string()
    } else {
        format!("{sha}-dirty")
    }
}

/// The [`commit_label`] of the git checkout in `dir`, or `None` when git
/// cannot read one there.
fn checkout_label(dir: &Path) -> Option<String> {
    let git = |args: &[&str]| {
        let out = Command::new("git")
            .arg("-C")
            .arg(dir)
            .args(args)
            .output()
            .ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).into_owned())
    };
    let head = git(&["rev-parse", "HEAD"])?;
    let status = git(&["status", "--porcelain", "--untracked-files=no"])?;
    Some(commit_label(&head, &status))
}

/// One side's runs of every workload, `[workload][run]`.
type Side = Vec<Vec<RunResult>>;

fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

fn side_json(out: &mut String, spec: &Spec, runs: &[RunResult]) {
    out.push('{');
    for (mi, (name, _)) in spec.metrics.iter().enumerate() {
        let xs: Vec<f64> = runs.iter().map(|r| r.metrics[mi]).collect();
        let values: Vec<String> = xs.iter().map(|&x| num(x)).collect();
        let _ = write!(
            out,
            "\n        \"{}\": {{\"median\": {}, \"q1\": {}, \"q3\": {}, \"values\": [{}]}},",
            esc(name),
            num(quantile(&xs, 0.5)),
            num(quantile(&xs, 0.25)),
            num(quantile(&xs, 0.75)),
            values.join(",")
        );
    }
    let worst = runs.iter().map(|r| r.failed_ratio).fold(0.0, f64::max);
    let _ = write!(
        out,
        "\n        \"failed_op_ratio\": {}\n      }}",
        num(worst)
    );
}

/// Renders the record: sides, per-workload figures, then the judged
/// claim, if any.
fn render(
    n: u32,
    spec: &Spec,
    seconds: f64,
    sides: &[(&str, &Side)],
    claim: Option<&(Claim, Verdict)>,
) -> String {
    let quoted: Vec<String> = spec
        .command
        .iter()
        .map(|c| format!("\"{}\"", esc(c)))
        .collect();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let runs = sides[0].1.first().map_or(0, Vec::len);
    let mut out = format!(
        "{{\n  \"bench\": {n},\n  \"command\": [{}],\n  \"run_seconds\": {},\n  \
         \"runs\": {runs},\n  \"nproc\": {nproc},\n  \"sides\": {{",
        quoted.join(", "),
        num(seconds)
    );
    for (i, (name, side)) in sides.iter().enumerate() {
        let all: Vec<&RunResult> = side.iter().flatten().collect();
        let cal: Vec<f64> = all.iter().map(|r| r.calibration_ns).collect();
        let commit = all.first().map_or("unknown", |r| r.commit.as_str());
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n    \"{}\": {{\"commit\": \"{}\", \"calibration_ns\": {}}}",
            esc(name),
            esc(commit),
            num(quantile(&cal, 0.5))
        );
    }
    out.push_str("\n  },\n  \"workloads\": {");
    for (wi, w) in spec.workloads.iter().enumerate() {
        let sep = if wi == 0 { "" } else { "," };
        let _ = write!(out, "{sep}\n    \"{}\": {{", esc(w));
        for (si, (name, side)) in sides.iter().enumerate() {
            let sep = if si == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n      \"{}\": ", esc(name));
            side_json(&mut out, spec, &side[wi]);
        }
        if let [(_, change), (_, parent)] = sides {
            // Pairs the change won, per metric, in its better direction.
            out.push_str(",\n      \"change_wins\": {");
            for (mi, (name, higher)) in spec.metrics.iter().enumerate() {
                let wins = change[wi]
                    .iter()
                    .zip(&parent[wi])
                    .filter(|(c, p)| (c.metrics[mi] > p.metrics[mi]) == *higher)
                    .filter(|(c, p)| c.metrics[mi] != p.metrics[mi])
                    .count();
                let sep = if mi == 0 { "" } else { ", " };
                let _ = write!(out, "{sep}\"{}\": {wins}", esc(name));
            }
            let same = same_sim(&change[wi], &parent[wi]);
            let _ = write!(out, "}},\n      \"same_sim\": {same}");
            let names = unresolved(spec, &parent[wi]);
            let names: Vec<String> = names.iter().map(|n| format!("\"{}\"", esc(n))).collect();
            let _ = write!(out, ",\n      \"unresolved\": [{}]", names.join(", "));
            let names = worse(spec, &change[wi], &parent[wi]);
            let names: Vec<String> = names.iter().map(|n| format!("\"{}\"", esc(n))).collect();
            let _ = write!(out, ",\n      \"worse\": [{}]", names.join(", "));
        }
        out.push_str("\n    }");
    }
    out.push_str("\n  }");
    if let Some((claim, v)) = claim {
        let _ = write!(
            out,
            ",\n  \"claim\": {{\"workload\": \"{}\", \"metric\": \"{}\", \"pairs\": {}, \
             \"wins\": {}, \"median_gap\": {}, \"parent_iqr\": {}, \"pairs_needed\": {}, \
             \"met\": {}}}",
            esc(&spec.workloads[claim.workload]),
            esc(&spec.metrics[claim.metric].0),
            v.pairs,
            v.wins,
            num(v.median_gap),
            num(v.parent_iqr),
            v.pairs_needed,
            v.met
        );
    }
    out.push_str("\n}\n");
    out
}

/// Runs the `bench-record` subcommand. Returns the process exit code.
pub(crate) fn run_cli(args: &[String]) -> i32 {
    let Some(n) = args.first().and_then(|a| a.parse::<u32>().ok()) else {
        return usage();
    };
    let (mut runs, mut parent, mut seconds, mut claim_arg) = (5usize, None, None, None);
    let mut rest = args[1..].iter();
    while let Some(flag) = rest.next() {
        let value = rest.next();
        match (flag.as_str(), value) {
            ("--runs", Some(v)) => match v.parse() {
                Ok(r) if r > 0 => runs = r,
                _ => return usage(),
            },
            ("--parent", Some(v)) => parent = Some(Path::new(v).to_path_buf()),
            ("--seconds", Some(v)) => match v.parse::<f64>() {
                Ok(s) if s > 0.0 => seconds = Some(s),
                _ => return usage(),
            },
            ("--claim", Some(v)) => claim_arg = Some(v.as_str()),
            _ => return usage(),
        }
    }
    if claim_arg.is_some() && parent.is_none() {
        return usage();
    }
    let spec = match std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e}"))
        .and_then(|s| read_spec(&s))
    {
        Ok(s) => s,
        Err(e) => {
            eprintln!("xtask bench-record: {e}");
            return 2;
        }
    };
    let claim = match claim_arg.map(|a| parse_claim(&spec, a)) {
        None => None,
        Some(Some(c)) => Some(c),
        Some(None) => {
            eprintln!("xtask bench-record: --claim names no BENCHMARK.json workload/metric");
            return usage();
        }
    };
    let seconds = seconds.unwrap_or(spec.run_seconds);
    let here = Path::new(".").to_path_buf();
    let here_label = checkout_label(&here);
    let parent_label = parent.as_deref().and_then(checkout_label);
    let mut change: Side = vec![Vec::new(); spec.workloads.len()];
    let mut base: Side = vec![Vec::new(); spec.workloads.len()];
    for run in 0..runs {
        for (wi, w) in spec.workloads.iter().enumerate() {
            // Alternate which side goes first, so host drift falls on both.
            let mut order = vec![(&here, &here_label, &mut change)];
            if let Some(p) = &parent {
                order.push((p, &parent_label, &mut base));
                if run % 2 == 0 {
                    order.reverse();
                }
            }
            for (dir, label, side) in order {
                match run_once(&spec, dir, w, run + 1, seconds) {
                    Ok(mut r) => {
                        if let Some(label) = label {
                            r.commit.clone_from(label);
                        }
                        eprintln!(
                            "run {}/{runs} {w} in {}: {:?}",
                            run + 1,
                            dir.display(),
                            r.metrics
                        );
                        side[wi].push(r);
                    }
                    Err(e) => {
                        eprintln!("xtask bench-record: {e}");
                        return 1;
                    }
                }
            }
        }
    }
    let mut sides: Vec<(&str, &Side)> = vec![("change", &change)];
    let mut regressed = false;
    if parent.is_some() {
        sides.push(("parent", &base));
        for (wi, w) in spec.workloads.iter().enumerate() {
            if !same_sim(&change[wi], &base[wi]) {
                eprintln!("xtask bench-record: warning: {w} simulated different work (sim_digest differs from the parent's)");
            }
            for name in unresolved(&spec, &base[wi]) {
                eprintln!("xtask bench-record: warning: {w} {name} is unresolved (the parent's interquartile range exceeds {:.0} % of its median)", UNRESOLVED_IQR * 100.0);
            }
            for name in worse(&spec, &change[wi], &base[wi]) {
                eprintln!("xtask bench-record: warning: {w} {name} is worse than the parent's by more than its bound");
                regressed = true;
            }
        }
    }
    let verdict = claim.map(|c| (c, judge(&spec, c, &change, &base)));
    let doc = render(n, &spec, seconds, &sides, verdict.as_ref());
    let path = format!("BENCH_{n}.json");
    if let Err(e) = std::fs::write(&path, doc) {
        eprintln!("xtask bench-record: {path}: {e}");
        return 2;
    }
    println!("bench-record: wrote {path}");
    let failed = sides
        .iter()
        .flat_map(|(_, s)| s.iter().flatten())
        .any(|r| r.failed_ratio > 0.0);
    let unmet = verdict.is_some_and(|(c, v)| {
        let (w, m) = (&spec.workloads[c.workload], &spec.metrics[c.metric].0);
        println!(
            "bench-record: claim {w}/{m}: {} of {} pairs won (need {}), median gap {} against parent IQR {}: {}",
            v.wins,
            v.pairs,
            v.pairs_needed,
            v.median_gap,
            v.parent_iqr,
            if v.met { "met" } else { "NOT met" }
        );
        !v.met
    });
    i32::from(failed || regressed || unmet)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{"command": ["cargo", "run", "--"], "paths": ["hostbench"],
        "run_seconds": 25, "workloads": [{"name": "a", "why": "x"}, {"name": "b"}],
        "end_to_end": [{"name": "ops", "better": "higher", "bound": 0.25},
                       {"name": "rss", "better": "lower", "bound": 0.25}]}"#;

    #[test]
    fn reads_the_benchmark_spec() {
        let s = read_spec(SPEC).unwrap();
        assert_eq!(s.command, ["cargo", "run", "--"]);
        assert_eq!(s.run_seconds, 25.0);
        assert_eq!(s.workloads, ["a", "b"]);
        assert_eq!(s.metrics, [("ops".into(), true), ("rss".into(), false)]);
        assert!(read_spec(r#"{"run_seconds": 1}"#).is_err());
    }

    #[test]
    fn reads_the_committed_benchmark_json() {
        let s = read_spec(include_str!("../../BENCHMARK.json")).unwrap();
        assert_eq!(s.command[..3], ["cargo", "run", "--release"]);
        assert_eq!(s.command.last().map(String::as_str), Some("--"));
        assert_eq!(s.run_seconds, 25.0);
        let workloads = [
            "rtdata-anykeyplus",
            "rtdata-pink",
            "rtdata-fill-anykeyplus",
            "udb-scan-anykeyplus",
        ];
        assert_eq!(s.workloads, workloads);
        let metrics = [
            ("run_ops_per_s", true),
            ("load_ops_per_s", true),
            ("setup_s", false),
            ("peak_rss_mb", false),
        ];
        let metrics = metrics.map(|(n, h)| (n.to_string(), h));
        assert_eq!(s.metrics, metrics);
    }

    #[test]
    fn reads_a_run_from_its_info_and_result_lines() {
        let s = read_spec(SPEC).unwrap();
        let out = concat!(
            "{\"info\":{\"workload\":\"a\",\"nproc\":2,\"commit\":\"abc123\",",
            "\"calibration_ns\":4567,\"failures\":[],\"notes\":[]}}\n",
            "{\"correct\":true,\"attempted\":100,\"failed\":1,\"metrics\":{",
            "\"ops\":{\"value\":10.5,\"unit\":\"1/s\"},\"rss\":{\"value\":3,\"unit\":\"MB\"}}}\n"
        );
        let r = read_run(out, &s.metrics).unwrap();
        assert_eq!(r.metrics, [10.5, 3.0]);
        assert_eq!(r.failed_ratio, 0.01);
        assert_eq!(r.commit, "abc123");
        assert_eq!(r.calibration_ns, 4567.0);
        assert!(read_run("{\"info\":{}}\n{\"metrics\":{}}", &s.metrics).is_err());
    }

    #[test]
    fn compares_sim_digests_seed_by_seed() {
        let s = read_spec(SPEC).unwrap();
        let result = "{\"attempted\":1,\"failed\":0,\"metrics\":{\"ops\":{\"value\":1},\"rss\":{\"value\":1}}}";
        let run = |digest: &str| {
            let info = format!("{{\"info\":{{\"commit\":\"c\",\"sim_digest\":\"{digest}\"}}}}");
            read_run(&format!("{info}\n{result}\n"), &s.metrics).unwrap()
        };
        assert_eq!(run("00ab").sim_digest.as_deref(), Some("00ab"));
        let change: Side = vec![vec![run("1"), run("2")], vec![run("1"), run("2")]];
        let parent: Side = vec![vec![run("1"), run("2")], vec![run("1"), run("3")]];
        assert!(same_sim(&change[0], &parent[0]));
        assert!(!same_sim(&change[1], &parent[1]));
        // Runs without a digest prove nothing.
        let bare = [read_run(&format!("{{}}\n{result}"), &s.metrics).unwrap()];
        assert!(!same_sim(&bare, &bare));
        let doc = render(
            7,
            &s,
            25.0,
            &[("change", &change), ("parent", &parent)],
            None,
        );
        let doc = Json::read(&doc).unwrap();
        let same = |w| doc.get("workloads")?.get(w)?.get("same_sim")?.to::<bool>();
        assert_eq!(same("a"), Some(true));
        assert_eq!(same("b"), Some(false));
    }

    #[test]
    fn labels_a_checkout_with_tracked_changes_dirty() {
        let sha = "ae1d965732902f3d166b28a14f5c89472af24b36";
        let head = format!("{sha}\n");
        assert_eq!(commit_label(&head, ""), sha);
        assert_eq!(commit_label(&head, "\n"), sha);
        let dirty = format!("{sha}-dirty");
        assert_eq!(commit_label(&head, " M crates/core/src/key.rs\n"), dirty);
        assert_eq!(commit_label(&head, "D  README.md\nA  x.rs\n"), dirty);
        assert_eq!(checkout_label(Path::new("/nonexistent/checkout")), None);
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.5), 2.5);
        assert_eq!(quantile(&xs, 0.25), 1.75);
        assert_eq!(quantile(&[7.0], 0.75), 7.0);
    }

    /// A run of commit `c`, digest `d`, with metrics `ops` and `rss`.
    fn run(ops: f64, rss: f64) -> RunResult {
        RunResult {
            metrics: vec![ops, rss],
            failed_ratio: 0.0,
            commit: "c".into(),
            calibration_ns: 1.0,
            sim_digest: Some("d".into()),
        }
    }

    #[test]
    fn renders_pairs_with_wins_in_the_better_direction() {
        let s = read_spec(SPEC).unwrap();
        let change: Side = vec![vec![run(2.0, 1.0), run(2.0, 5.0)], vec![run(1.0, 1.0); 2]];
        let parent: Side = vec![vec![run(1.0, 2.0), run(3.0, 2.0)], vec![run(1.0, 1.0); 2]];
        let doc = render(
            7,
            &s,
            25.0,
            &[("change", &change), ("parent", &parent)],
            None,
        );
        let v = Json::read(&doc).unwrap();
        let at = |path: &[&str]| {
            let leaf = path.iter().try_fold(&v, |v, name| v.get(name));
            leaf.and_then(Json::to::<f64>)
        };
        assert_eq!(at(&["bench"]), Some(7.0));
        assert_eq!(at(&["workloads", "a", "change_wins", "ops"]), Some(1.0));
        assert_eq!(at(&["workloads", "a", "change_wins", "rss"]), Some(1.0));
        assert_eq!(at(&["workloads", "b", "change_wins", "ops"]), Some(0.0));
        assert_eq!(
            at(&["workloads", "a", "change", "ops", "median"]),
            Some(2.0)
        );
    }

    #[test]
    fn names_metrics_the_parent_spread_leaves_unresolved() {
        let s = read_spec(SPEC).unwrap();
        // `ops` is tight (IQR 1 of median 100); `rss` is wide (IQR 7.5 of
        // median 12.5). Workload `b` is tight on both.
        let parent: Side = vec![
            vec![
                run(99.0, 5.0),
                run(100.0, 10.0),
                run(100.0, 15.0),
                run(101.0, 20.0),
            ],
            vec![run(100.0, 10.0); 4],
        ];
        let change: Side = vec![vec![run(100.0, 10.0); 4]; 2];
        assert_eq!(unresolved(&s, &parent[0]), ["rss"]);
        assert!(unresolved(&s, &parent[1]).is_empty());
        // The change side's spread does not count.
        assert!(unresolved(&s, &change[0]).is_empty());
        let doc = render(
            7,
            &s,
            25.0,
            &[("change", &change), ("parent", &parent)],
            None,
        );
        let doc = Json::read(&doc).unwrap();
        let names = |w| {
            let list = doc.get("workloads")?.get(w)?.get("unresolved")?.items();
            list.iter().map(Json::str).collect::<Option<Vec<_>>>()
        };
        assert_eq!(names("a"), Some(vec!["rss".to_string()]));
        assert_eq!(names("b"), Some(vec![]));
        // Without a parent there is nothing to resolve against.
        let alone = Json::read(&render(7, &s, 25.0, &[("change", &change)], None)).unwrap();
        let a = alone.get("workloads").and_then(|w| w.get("a")).unwrap();
        assert!(a.get("unresolved").is_none());
    }

    #[test]
    fn names_metrics_worse_than_the_parent_by_more_than_their_bound() {
        let s = read_spec(SPEC).unwrap();
        assert_eq!(s.bounds, [0.25, 0.25]);
        let sides = |c: RunResult, p: RunResult| (vec![c; 3], vec![p; 3]);
        // `ops` 1.30× worse (parent/change), `rss` 1.20× worse
        // (change/parent): only the first exceeds its bound of 0.25.
        let (c, p) = sides(run(100.0, 12.0), run(130.0, 10.0));
        assert_eq!(worse(&s, &c, &p), ["ops"]);
        let (c, p) = sides(run(100.0, 13.0), run(120.0, 10.0));
        assert_eq!(worse(&s, &c, &p), ["rss"]);
        // Better is never worse, however far.
        let (c, p) = sides(run(200.0, 5.0), run(100.0, 10.0));
        assert!(worse(&s, &c, &p).is_empty());
        // The record lists them per workload, only against a parent.
        let change: Side = vec![vec![run(100.0, 13.0)], vec![run(200.0, 5.0)]];
        let parent: Side = vec![vec![run(130.0, 10.0)], vec![run(100.0, 10.0)]];
        let doc = render(
            7,
            &s,
            25.0,
            &[("change", &change), ("parent", &parent)],
            None,
        );
        let doc = Json::read(&doc).unwrap();
        let names = |w| {
            let list = doc.get("workloads")?.get(w)?.get("worse")?.items();
            list.iter().map(Json::str).collect::<Option<Vec<_>>>()
        };
        let both = ["ops", "rss"].map(String::from).to_vec();
        assert_eq!(names("a"), Some(both));
        assert_eq!(names("b"), Some(vec![]));
        let alone = Json::read(&render(7, &s, 25.0, &[("change", &change)], None)).unwrap();
        let a = alone.get("workloads").and_then(|w| w.get("a")).unwrap();
        assert!(a.get("worse").is_none());
        // A metric without a bound is never worse.
        let unbounded = read_spec(&SPEC.replace(", \"bound\": 0.25", "")).unwrap();
        assert_eq!(unbounded.bounds, [f64::INFINITY; 2]);
        assert!(worse(&unbounded, &change[0], &parent[0]).is_empty());
    }

    /// Ten pairs of one workload: `parent` values with the change's
    /// values `change`, the other metric equal on both sides.
    fn claimed(change: &[f64], parent: &[f64]) -> (Side, Side) {
        let side = |xs: &[f64]| -> Side { vec![xs.iter().map(|&x| run(x, 1.0)).collect()] };
        (side(change), side(parent))
    }

    #[test]
    fn judges_a_claim_by_wins_gap_and_pair_count() {
        let mut s = read_spec(SPEC).unwrap();
        s.workloads.truncate(1);
        assert_eq!(
            parse_claim(&s, "a/ops"),
            Some(Claim {
                workload: 0,
                metric: 0
            })
        );
        assert_eq!(
            parse_claim(&s, "a/rss"),
            Some(Claim {
                workload: 0,
                metric: 1
            })
        );
        for bad in ["a", "b/ops", "a/nope", "/ops"] {
            assert_eq!(parse_claim(&s, bad), None, "{bad}");
        }
        let ops = Claim {
            workload: 0,
            metric: 0,
        };
        // Met: 9 of 10 pairs won, median gap 10 against a parent IQR of 2.
        let parent = [
            99.0, 100.0, 101.0, 98.0, 102.0, 100.0, 99.0, 101.0, 100.0, 100.0,
        ];
        let mut change: Vec<f64> = parent.iter().map(|p| p + 10.0).collect();
        change[3] = 97.0;
        let (c, p) = claimed(&change, &parent);
        let v = judge(&s, ops, &c, &p);
        assert_eq!((v.pairs, v.wins, v.pairs_needed), (10, 9, 10));
        assert!(v.median_gap > v.parent_iqr && v.met, "{v:?}");
        // A lower-is-better metric gains by falling.
        let rss = Claim {
            workload: 0,
            metric: 1,
        };
        let side = |xs: &[f64]| -> Side { vec![xs.iter().map(|&x| run(1.0, x)).collect()] };
        let (c, p) = (
            side(&[30.0; 10]),
            side(&[49.0, 49.5, 49.3, 49.9, 49.4, 49.6, 49.2, 49.8, 49.5, 49.7]),
        );
        let v = judge(&s, rss, &c, &p);
        assert!(v.met && v.wins == 10 && v.median_gap > 19.0, "{v:?}");
        // Like PR 39: every pair won and the median 11 % up, but the
        // parent's IQR is 12 % of its median, so the gap is within it, and
        // the metric is unresolved, so 10 pairs are not enough either.
        let parent = [
            88.0, 90.0, 94.0, 94.0, 97.0, 103.0, 106.0, 106.0, 110.0, 112.0,
        ];
        let change: Vec<f64> = parent.iter().map(|p| p * 1.11).collect();
        let (c, p) = claimed(&change, &parent);
        let v = judge(&s, ops, &c, &p);
        assert_eq!((v.wins, v.pairs_needed), (10, 20));
        assert!((v.parent_iqr - 12.0).abs() < 1e-9, "{v:?}");
        assert!(v.median_gap < v.parent_iqr && !v.met, "{v:?}");
        // The record carries the verdict.
        let doc = render(
            7,
            &s,
            25.0,
            &[("change", &c), ("parent", &p)],
            Some(&(ops, v)),
        );
        let doc = Json::read(&doc).unwrap();
        let claim = doc.get("claim").unwrap();
        assert_eq!(
            claim.get("metric").and_then(Json::str).as_deref(),
            Some("ops")
        );
        assert_eq!(claim.get("met").and_then(Json::to::<bool>), Some(false));
        assert_eq!(
            claim.get("pairs_needed").and_then(Json::to::<u32>),
            Some(20)
        );
        let plain = render(7, &s, 25.0, &[("change", &c), ("parent", &p)], None);
        assert!(Json::read(&plain).unwrap().get("claim").is_none());
    }

    #[test]
    fn render_escapes_every_name_it_writes() {
        let odd = "we\"ird\\";
        let mut s = read_spec(SPEC).unwrap();
        s.command[0] = odd.into();
        s.workloads = vec![odd.into()];
        s.metrics[0].0 = odd.into();
        let run = RunResult {
            metrics: vec![1.0, 2.0],
            failed_ratio: 0.0,
            commit: odd.into(),
            calibration_ns: 1.0,
            sim_digest: None,
        };
        let side: Side = vec![vec![run]];
        let doc = render(7, &s, 25.0, &[(odd, &side), ("parent", &side)], None);
        let v = Json::read(&doc).unwrap();
        assert_eq!(
            v.get("command").unwrap().items()[0].str().as_deref(),
            Some(odd)
        );
        let commit = v
            .get("sides")
            .and_then(|s| s.get(odd)?.get("commit")?.str());
        assert_eq!(commit.as_deref(), Some(odd));
        let w = v.get("workloads").and_then(|w| w.get(odd)).unwrap();
        let median = w
            .get(odd)
            .and_then(|s| s.get(odd)?.get("median")?.to::<f64>());
        assert_eq!(median, Some(1.0));
        assert_eq!(
            w.get("change_wins").unwrap().get(odd).unwrap().to::<u32>(),
            Some(0)
        );
    }
}
