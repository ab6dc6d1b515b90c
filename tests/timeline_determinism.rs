//! The timeline subsystem's determinism contract: timeline files (JSONL
//! and CSV) are byte-identical for any `--jobs` level, sampling is pure
//! observation (a sampling-enabled run produces bit-identical summaries to
//! a disabled one), `--timeline-interval 0` is indistinguishable from
//! never enabling the subsystem, the steady-state fields land in
//! `summary.json` (schema v3), and the final point of every captured
//! cumulative-WAF curve equals the summary's `waf` field token for token.
//!
//! All timestamps in a timeline are virtual nanoseconds; the workspace's
//! `clippy::disallowed_types` lint holds this file to that discipline too.

use anykey::metrics::summary::{self, ParsedSummary, WALL_FIELDS};
use anykey::metrics::timeline::{parse_jsonl, write_csv, write_jsonl, StateSample};
use anykey_bench::common::{ExpCtx, Scale};
use anykey_bench::experiments;
use anykey_bench::scheduler::{build_summary, run_points};

/// A tiny scale so the sweep stays test-sized (same shape as the trace
/// determinism suite). Output goes under the per-process temp dir `tag`.
fn tiny_ctx(tag: &str, interval_ns: u64) -> ExpCtx {
    let out = std::env::temp_dir().join(format!("anykey_tl_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    std::fs::create_dir_all(&out).expect("create test out dir");
    let mut ctx = ExpCtx::new(Scale {
        capacity: 64 << 20,
        fill: 0.15,
        ops_factor: 0.1,
        out_dir: out,
        seed: 0x7_1ACE,
    });
    ctx.timeline_interval_ns = interval_ns;
    ctx
}

/// Runs one experiment's points at the given parallelism, returning the
/// named per-point timelines (representatives only, in declaration order —
/// exactly what `anykey-bench --timeline` exports) and the parsed summary.
fn sampled_sweep(
    jobs: usize,
    tag: &str,
    interval_ns: u64,
) -> (Vec<(String, Vec<StateSample>)>, ParsedSummary) {
    let ctx = tiny_ctx(tag, interval_ns);
    let exp = experiments::by_id("multitenant").expect("known experiment");
    let points = (exp.points)(&ctx);
    let run = run_points(&ctx, &points, jobs);
    let named: Vec<(String, Vec<StateSample>)> = points
        .iter()
        .zip(&run.results)
        .filter_map(|(p, r)| r.timeline.as_ref().map(|t| (p.key.clone(), t.clone())))
        .collect();
    let parsed =
        summary::parse(&build_summary(&ctx, &points, &run).to_json()).expect("parse summary");
    let _ = std::fs::remove_dir_all(&ctx.scale.out_dir);
    (named, parsed)
}

/// A parsed summary with the wall-time fields removed, for exact
/// comparison of everything deterministic.
fn without_wall(parsed: &ParsedSummary) -> ParsedSummary {
    let mut out = parsed.clone();
    out.fields
        .retain(|(n, _)| !WALL_FIELDS.contains(&n.as_str()));
    for p in &mut out.points {
        p.fields.retain(|(n, _)| !WALL_FIELDS.contains(&n.as_str()));
    }
    out
}

const INTERVAL: u64 = 1_000_000; // 1 ms virtual

#[test]
fn timeline_files_are_byte_identical_across_jobs() {
    let (named1, _) = sampled_sweep(1, "j1", INTERVAL);
    let (named4, _) = sampled_sweep(4, "j4", INTERVAL);

    assert!(
        !named1.is_empty() && named1.iter().all(|(_, t)| t.len() >= 2),
        "sampled sweep produced no timelines"
    );
    let (jsonl1, jsonl4) = (write_jsonl(&named1), write_jsonl(&named4));
    assert_eq!(
        jsonl1, jsonl4,
        "JSONL timeline differs between --jobs 1 and --jobs 4"
    );
    assert_eq!(
        write_csv(&named1),
        write_csv(&named4),
        "CSV timeline differs between --jobs 1 and --jobs 4"
    );

    // The exported document round-trips through the analyzer's parser:
    // parse-then-rewrite reproduces the original bytes.
    let parsed = parse_jsonl(&jsonl1).expect("exported JSONL must parse");
    assert_eq!(parsed.points.len(), named1.len());
    assert_eq!(write_jsonl(&parsed.points), jsonl1);
}

#[test]
fn sampling_is_pure_observation() {
    let (named, sampled) = sampled_sweep(2, "obs_on", INTERVAL);
    assert!(!named.is_empty(), "no timelines captured");

    // The same sweep with interval 0 — the subsystem never engages: no
    // point carries samples, and every deterministic summary field (the
    // steady-state fields included, since they come from the always-on
    // WAF curve) must match token for token.
    let (named_off, plain) = sampled_sweep(2, "obs_off", 0);
    assert!(
        named_off.is_empty(),
        "interval 0 but the scheduler captured samples"
    );
    assert_eq!(
        without_wall(&sampled),
        without_wall(&plain),
        "timeline sampling perturbed measured results"
    );
}

#[test]
fn summary_schema_v3_carries_steady_state_and_p95_fields() {
    let (_, parsed) = sampled_sweep(1, "schema", 0);
    assert_eq!(parsed.field("schema_version"), Some("3"));
    let point = parsed.points.first().expect("at least one point");
    for name in [
        "p95_read_ns",
        "p95_write_ns",
        "converged_waf",
        "burnin_ns",
        "waf",
    ] {
        assert!(
            point.fields.iter().any(|(n, _)| n == name),
            "summary point is missing `{name}`"
        );
    }
    // At this tiny scale the op-stride WAF curve is still climbing, so the
    // detector rightly refuses to call a steady state — but every point
    // must carry well-formed values (convergence itself is asserted on the
    // finer-grained captured timeline below, and on the quick sweep in CI).
    for p in &parsed.points {
        let cw: f64 = p
            .field("converged_waf")
            .and_then(|v| v.parse().ok())
            .expect("converged_waf parses");
        assert!(cw >= 0.0, "negative converged_waf");
        let _: u64 = p
            .field("burnin_ns")
            .and_then(|v| v.parse().ok())
            .expect("burnin_ns parses");
    }
}

#[test]
fn final_timeline_waf_equals_summary_waf_and_counters_are_monotone() {
    let (named, parsed) = sampled_sweep(1, "prop", INTERVAL);
    assert!(!named.is_empty());
    let mut checked = 0;
    for (key, samples) in &named {
        // Cumulative per-cause counters are monotone non-decreasing.
        for w in samples.windows(2) {
            let (p, c) = (&w[0], &w[1]);
            for (name, a, b) in [
                ("host_reads", p.host_reads, c.host_reads),
                ("host_writes", p.host_writes, c.host_writes),
                ("meta_reads", p.meta_reads, c.meta_reads),
                ("meta_writes", p.meta_writes, c.meta_writes),
                ("comp_reads", p.comp_reads, c.comp_reads),
                ("comp_writes", p.comp_writes, c.comp_writes),
                ("gc_reads", p.gc_reads, c.gc_reads),
                ("gc_writes", p.gc_writes, c.gc_writes),
                ("log_reads", p.log_reads, c.log_reads),
                ("log_writes", p.log_writes, c.log_writes),
                ("erases", p.erases, c.erases),
            ] {
                assert!(a <= b, "{key}: cumulative `{name}` decreased ({a} -> {b})");
            }
        }
        // The final sample's cumulative WAF is the summary's WAF, exactly
        // (same integers, same arithmetic, same f64 — same token).
        let last = samples.last().expect("non-empty timeline");
        let point = parsed
            .points
            .iter()
            .find(|p| &p.key == key)
            .expect("summary point for timeline");
        let write_ops: u64 = point
            .field("write_ops")
            .and_then(|v| v.parse().ok())
            .expect("write_ops field");
        if write_ops == 0 {
            continue; // summary substitutes fill bytes; no mid-run analogue
        }
        assert_eq!(
            point.field("waf"),
            Some(format!("{:.6}", last.cum_waf).as_str()),
            "{key}: final timeline WAF diverges from summary waf"
        );
        checked += 1;
    }
    assert!(checked > 0, "no point had measured writes to check");

    // The analyzer finds a steady state on the captured (time-sampled)
    // timelines: at 1 ms resolution every point's WAF curve flattens well
    // within the run, even at this tiny scale.
    let analysis = anykey::metrics::timeline::analyze(
        &parse_jsonl(&write_jsonl(&named)).expect("parse"),
        anykey::metrics::timeline::DEFAULT_STEADY_WINDOW,
        anykey::metrics::timeline::DEFAULT_STEADY_TOL,
    );
    assert!(
        analysis.points.iter().any(|p| p.steady.is_some()),
        "analyzer found no steady state on any captured timeline"
    );
}

#[test]
fn engine_state_fields_are_populated() {
    let (named, _) = sampled_sweep(1, "state", INTERVAL);
    let (key, samples) = named.first().expect("at least one timeline");
    let last = samples.last().expect("non-empty timeline");
    assert!(last.dram_capacity > 0, "{key}: no DRAM capacity sampled");
    assert!(last.dram_used > 0, "{key}: no DRAM usage sampled");
    assert!(!last.levels.is_empty(), "{key}: no level occupancy sampled");
    assert!(last.group_count > 0, "{key}: no placement units sampled");
    assert!(last.free_blocks > 0, "{key}: no free-block depth sampled");
    assert!(
        samples.iter().any(|s| s.interval_ops > 0),
        "{key}: no interval ever recorded ops"
    );
}
