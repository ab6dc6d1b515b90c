//! `cargo run -p xtask -- bench-record <n> [--runs R] [--parent DIR]
//! [--seconds S]` — records one `BENCH_<n>.json` point of the host-cost
//! trajectory.
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
//! `sim_digest` equal; a warning is printed when not); plus the commits,
//! `nproc`, and the median `calibration_ns` of each side.
//!
//! Exit codes: 0 written, 1 a run failed or reported failed ops, 2
//! usage/IO/parse error.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

fn usage() -> i32 {
    eprintln!(
        "usage: cargo run -p xtask -- bench-record <n> [--runs R] [--parent DIR] [--seconds S]\n\
         \n\
         Runs the BENCHMARK.json command for every workload R times (default 5)\n\
         and writes BENCH_<n>.json. With --parent, each run is an alternating\n\
         pair with the checkout in DIR. --seconds overrides run_seconds."
    );
    2
}

/// A parsed JSON value: the subset `BENCHMARK.json` and hostbench's result
/// line use.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }
}

/// Parses one JSON document.
fn parse(src: &str) -> Result<Json, String> {
    let mut p = Parser {
        s: src.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(format!("trailing input at byte {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        self.ws();
        let hit = self.s.get(self.i) == Some(&c);
        self.i += usize::from(hit);
        hit
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                if self.eat(b'}') {
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let k = self.string()?;
                    if !self.eat(b':') {
                        return Err(format!("expected ':' at byte {}", self.i));
                    }
                    fields.push((k, self.value()?));
                    if self.eat(b'}') {
                        return Ok(Json::Obj(fields));
                    }
                    if !self.eat(b',') {
                        return Err(format!("expected ',' or '}}' at byte {}", self.i));
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                if self.eat(b']') {
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    if self.eat(b']') {
                        return Ok(Json::Arr(items));
                    }
                    if !self.eat(b',') {
                        return Err(format!("expected ',' or ']' at byte {}", self.i));
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(_) => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad number at byte {start}"))
            }
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.s.get(self.i) != Some(&b'"') {
            return Err(format!("expected a string at byte {}", self.i));
        }
        self.i += 1;
        let mut out = Vec::new();
        loop {
            match self.s.get(self.i) {
                Some(b'"') => break,
                Some(b'\\') => {
                    let c = *self.s.get(self.i + 1).ok_or("unterminated escape")?;
                    out.push(match c {
                        b'n' => b'\n',
                        b't' => b'\t',
                        b'r' => b'\r',
                        other => other,
                    });
                    self.i += 2;
                }
                Some(&c) => {
                    out.push(c);
                    self.i += 1;
                }
                None => return Err("unterminated string".to_string()),
            }
        }
        self.i += 1;
        String::from_utf8(out).map_err(|e| e.to_string())
    }
}

/// What `BENCHMARK.json` declares.
struct Spec {
    command: Vec<String>,
    run_seconds: f64,
    workloads: Vec<String>,
    /// End-to-end metric names with whether higher is better.
    metrics: Vec<(String, bool)>,
}

fn read_spec(src: &str) -> Result<Spec, String> {
    let doc = parse(src)?;
    let strings = |key: &str, field: Option<&str>| -> Vec<String> {
        doc.get(key)
            .map(Json::arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|v| match field {
                Some(f) => v.get(f).and_then(Json::str),
                None => v.str(),
            })
            .map(str::to_string)
            .collect()
    };
    let spec = Spec {
        command: strings("command", None),
        run_seconds: doc
            .get("run_seconds")
            .and_then(Json::num)
            .ok_or("BENCHMARK.json has no run_seconds")?,
        workloads: strings("workloads", Some("name")),
        metrics: doc
            .get("end_to_end")
            .map(Json::arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|m| {
                let name = m.get("name")?.str()?.to_string();
                Some((name, m.get("better")?.str()? == "higher"))
            })
            .collect(),
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
    let result = parse(lines.next_back().ok_or("no result line")?)?;
    let num = |v: Option<&Json>, what: &str| v.and_then(Json::num).ok_or(format!("no {what}"));
    let m = result.get("metrics");
    let values = metrics
        .iter()
        .map(|(name, _)| {
            num(
                m.and_then(|m| m.get(name)).and_then(|v| v.get("value")),
                name,
            )
        })
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
            "\n        \"{name}\": {{\"median\": {}, \"q1\": {}, \"q3\": {}, \"values\": [{}]}},",
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

/// Renders the record: sides, then per-workload figures.
fn render(n: u32, spec: &Spec, seconds: f64, sides: &[(&str, &Side)]) -> String {
    let quoted: Vec<String> = spec.command.iter().map(|c| format!("\"{c}\"")).collect();
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
            "{sep}\n    \"{name}\": {{\"commit\": \"{commit}\", \"calibration_ns\": {}}}",
            num(quantile(&cal, 0.5))
        );
    }
    out.push_str("\n  },\n  \"workloads\": {");
    for (wi, w) in spec.workloads.iter().enumerate() {
        let sep = if wi == 0 { "" } else { "," };
        let _ = write!(out, "{sep}\n    \"{w}\": {{");
        for (si, (name, side)) in sides.iter().enumerate() {
            let sep = if si == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n      \"{name}\": ");
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
                let _ = write!(out, "{sep}\"{name}\": {wins}");
            }
            let same = same_sim(&change[wi], &parent[wi]);
            let _ = write!(out, "}},\n      \"same_sim\": {same}");
        }
        out.push_str("\n    }");
    }
    out.push_str("\n  }\n}\n");
    out
}

/// Runs the `bench-record` subcommand. Returns the process exit code.
pub(crate) fn run_cli(args: &[String]) -> i32 {
    let Some(n) = args.first().and_then(|a| a.parse::<u32>().ok()) else {
        return usage();
    };
    let (mut runs, mut parent, mut seconds) = (5usize, None, None);
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
            _ => return usage(),
        }
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
    let seconds = seconds.unwrap_or(spec.run_seconds);
    let here = Path::new(".").to_path_buf();
    let mut change: Side = vec![Vec::new(); spec.workloads.len()];
    let mut base: Side = vec![Vec::new(); spec.workloads.len()];
    for run in 0..runs {
        for (wi, w) in spec.workloads.iter().enumerate() {
            // Alternate which side goes first, so host drift falls on both.
            let mut order = vec![(&here, &mut change)];
            if let Some(p) = &parent {
                order.push((p, &mut base));
                if run % 2 == 0 {
                    order.reverse();
                }
            }
            for (dir, side) in order {
                match run_once(&spec, dir, w, run + 1, seconds) {
                    Ok(r) => {
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
    if parent.is_some() {
        sides.push(("parent", &base));
        for (wi, w) in spec.workloads.iter().enumerate() {
            if !same_sim(&change[wi], &base[wi]) {
                eprintln!("xtask bench-record: warning: {w} simulated different work (sim_digest differs from the parent's)");
            }
        }
    }
    let doc = render(n, &spec, seconds, &sides);
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
    i32::from(failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{"command": ["cargo", "run", "--"], "paths": ["hostbench"],
        "run_seconds": 25, "workloads": [{"name": "a", "why": "x"}, {"name": "b"}],
        "end_to_end": [{"name": "ops", "better": "higher", "bound": 0.25},
                       {"name": "rss", "better": "lower", "bound": 0.25}]}"#;

    #[test]
    fn parses_nested_json() {
        let v = parse(r#"{"a": [1, -2.5e1, "s\"q"], "b": {"c": true, "d": null}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().arr()[1], Json::Num(-25.0));
        assert_eq!(v.get("a").unwrap().arr()[2].str(), Some("s\"q"));
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Json::Bool(true)));
        assert!(parse("{\"a\": 1} x").is_err());
        assert!(parse("[1, 2").is_err());
    }

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
        let doc = render(7, &s, 25.0, &[("change", &change), ("parent", &parent)]);
        let w = parse(&doc).unwrap().get("workloads").unwrap().clone();
        assert_eq!(w.get("a").unwrap().get("same_sim"), Some(&Json::Bool(true)));
        assert_eq!(
            w.get("b").unwrap().get("same_sim"),
            Some(&Json::Bool(false))
        );
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.5), 2.5);
        assert_eq!(quantile(&xs, 0.25), 1.75);
        assert_eq!(quantile(&[7.0], 0.75), 7.0);
    }

    #[test]
    fn renders_pairs_with_wins_in_the_better_direction() {
        let s = read_spec(SPEC).unwrap();
        let run = |ops, rss| RunResult {
            metrics: vec![ops, rss],
            failed_ratio: 0.0,
            commit: "c".into(),
            calibration_ns: 1.0,
            sim_digest: Some("d".into()),
        };
        let change: Side = vec![vec![run(2.0, 1.0), run(2.0, 5.0)], vec![run(1.0, 1.0); 2]];
        let parent: Side = vec![vec![run(1.0, 2.0), run(3.0, 2.0)], vec![run(1.0, 1.0); 2]];
        let doc = render(7, &s, 25.0, &[("change", &change), ("parent", &parent)]);
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("bench"), Some(&Json::Num(7.0)));
        let a = v.get("workloads").unwrap().get("a").unwrap();
        let wins = a.get("change_wins").unwrap();
        assert_eq!(wins.get("ops"), Some(&Json::Num(1.0)));
        assert_eq!(wins.get("rss"), Some(&Json::Num(1.0)));
        let b = v.get("workloads").unwrap().get("b").unwrap();
        assert_eq!(
            b.get("change_wins").unwrap().get("ops"),
            Some(&Json::Num(0.0))
        );
        let ops = a.get("change").unwrap().get("ops").unwrap();
        assert_eq!(ops.get("median"), Some(&Json::Num(2.0)));
    }
}
