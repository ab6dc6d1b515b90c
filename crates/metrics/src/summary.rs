//! Machine-readable run summaries (`summary.json`) and the
//! tolerance-band comparison behind `xtask bench-diff`.
//!
//! Every benchmark run emits one [`RunSummary`]: a stable, line-oriented
//! JSON document with one entry per experiment [`PointSummary`] (the
//! scheduler's unit of work). The schema is deliberately flat — every
//! metric is a top-level field of its point — so [`parse`] reads it back
//! as a [`Json`] object whose points are flat objects, and [`diff`]
//! compares each point's `(metric, raw-token)` pairs: *raw serialized
//! tokens* for the deterministic metrics. That sidesteps any float
//! round-trip concern: two runs of the same simulation produce the same
//! bits, hence the same serialized token.
//!
//! Two metric classes exist:
//!
//! - **Exact** (everything except wall time): products of the
//!   discrete-virtual-time simulation. Any difference is a real behaviour
//!   change and fails the diff.
//! - **Wall time** (`wall_secs`, `total_wall_secs`): host-machine
//!   measurements. Compared with a multiplicative band (candidate may not
//!   exceed `baseline × band`); getting *faster* never fails.
//!
//! Reading and writing go through the crate's one JSON codec (`json.rs`),
//! shared with the trace and timeline documents; [`Json`] is the only
//! parsed form.

use std::io;
use std::path::Path;

use crate::json::{Json, ParseError, Val};

/// Version stamp of the `summary.json` schema. Bump on any field change so
/// `bench-diff` can refuse to compare incompatible documents.
///
/// v2 added the per-point phase-breakdown fields (`phase_*_ns`,
/// `phase_*_p99_ns`) so the regression gate can localize *which phase* of
/// the request path regressed, not just that end-to-end latency moved.
///
/// v3 added `p95_read_ns`/`p95_write_ns` (the paper reports p95 tails) and
/// the steady-state fields `converged_waf`/`burnin_ns` derived from the
/// runner's always-on cumulative-WAF curve, so the gate can tell a
/// converged measurement from one still in burn-in.
pub const SCHEMA_VERSION: u64 = 3;

/// Default multiplicative tolerance for wall-time metrics: the candidate
/// may take up to 5× the baseline's wall seconds before the diff fails.
/// Deliberately loose — CI runners and developer machines differ widely,
/// and the deterministic metrics are the real gate.
pub const DEFAULT_WALL_BAND: f64 = 5.0;

/// Field names whose values are host wall-time measurements and therefore
/// compared with a band instead of exactly.
pub const WALL_FIELDS: [&str; 2] = ["wall_secs", "total_wall_secs"];

/// Absolute floor (seconds) of the wall-time tolerance: a candidate below
/// this never fails, whatever the baseline. Sub-second points inflate
/// several-fold from scheduling noise alone (e.g. `--jobs 4` on one core),
/// which says nothing about the simulation.
pub const WALL_FLOOR_SECS: f64 = 1.0;

/// One scheduled experiment point's metrics, as written to `summary.json`.
///
/// All latency metrics are virtual nanoseconds; `wall_secs` is the only
/// host-clock field.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PointSummary {
    /// Unique row key within the run (`experiment/workload/system[/variant]`).
    pub key: String,
    /// Experiment id (`fig10`, `table3`, ...).
    pub experiment: String,
    /// Workload name.
    pub workload: String,
    /// System under test (display label, e.g. `AnyKey+`).
    pub system: String,
    /// Operations executed in the measured phase (0 for warm-up/fill
    /// points).
    pub ops: u64,
    /// Measured GET operations.
    pub read_ops: u64,
    /// Measured PUT/DELETE operations.
    pub write_ops: u64,
    /// Measured SCAN operations.
    pub scan_ops: u64,
    /// Virtual-time span of the point (end − start of the measured phase,
    /// or the device horizon for warm-up/fill points).
    pub virtual_ns: u64,
    /// Operations per virtual second over the measured phase.
    pub iops: f64,
    /// Median GET latency (virtual ns).
    pub p50_read_ns: u64,
    /// 95th-percentile GET latency (virtual ns).
    pub p95_read_ns: u64,
    /// 99th-percentile GET latency (virtual ns).
    pub p99_read_ns: u64,
    /// Median PUT/DELETE latency (virtual ns).
    pub p50_write_ns: u64,
    /// 95th-percentile PUT/DELETE latency (virtual ns).
    pub p95_write_ns: u64,
    /// 99th-percentile PUT/DELETE latency (virtual ns).
    pub p99_write_ns: u64,
    /// Write amplification: flash page programs ÷ minimal pages for the
    /// host bytes written (see the bench scheduler for the denominator).
    pub waf: f64,
    /// Mean cumulative WAF over the detected steady-state window of the
    /// measured phase (0 when the curve never settled or the point has no
    /// measured ops).
    pub converged_waf: f64,
    /// Virtual ns from measured-phase start to the steady-state window (0
    /// when never settled or not applicable).
    pub burnin_ns: u64,
    /// Flash page reads servicing host GETs/SCANs.
    pub host_reads: u64,
    /// Flash page programs of host data outside compaction.
    pub host_writes: u64,
    /// Flash reads of flash-resident metadata on the GET path.
    pub meta_reads: u64,
    /// Flash programs of flash-resident metadata.
    pub meta_writes: u64,
    /// Flash reads issued by compaction.
    pub comp_reads: u64,
    /// Flash programs issued by compaction.
    pub comp_writes: u64,
    /// Flash reads issued by garbage collection.
    pub gc_reads: u64,
    /// Flash programs issued by garbage collection.
    pub gc_writes: u64,
    /// Value-log page reads.
    pub log_reads: u64,
    /// Value-log page programs.
    pub log_writes: u64,
    /// Block erases.
    pub erases: u64,
    /// Media read-retry steps (nonzero only under fault injection).
    pub retry_reads: u64,
    /// Total virtual ns measured requests spent queue-waiting (the
    /// unattributed residual: flush stalls, closed-loop head-of-line).
    pub phase_queue_ns: u64,
    /// Total virtual ns measured requests spent in metadata flash reads.
    pub phase_meta_ns: u64,
    /// Total virtual ns measured requests spent in data flash reads.
    pub phase_data_ns: u64,
    /// Total virtual ns measured requests spent in value-log flash reads.
    pub phase_log_ns: u64,
    /// Total virtual ns measured requests spent in engine CPU bookkeeping.
    pub phase_engine_ns: u64,
    /// p99 of the per-request queue-wait phase (virtual ns).
    pub phase_queue_p99_ns: u64,
    /// p99 of the per-request metadata-read phase (virtual ns).
    pub phase_meta_p99_ns: u64,
    /// p99 of the per-request data-read phase (virtual ns).
    pub phase_data_p99_ns: u64,
    /// p99 of the per-request value-log-read phase (virtual ns).
    pub phase_log_p99_ns: u64,
    /// p99 of the per-request engine-bookkeeping phase (virtual ns).
    pub phase_engine_p99_ns: u64,
    /// Host wall-clock seconds the point took to simulate (band-compared).
    pub wall_secs: f64,
}

/// A whole benchmark run's summary: scale identity plus one
/// [`PointSummary`] per scheduled point, in deterministic point order.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Device capacity in bytes the run was scaled to.
    pub capacity_bytes: u64,
    /// RNG seed of the run.
    pub seed: u64,
    /// Host wall-clock seconds for the whole sweep (band-compared).
    pub total_wall_secs: f64,
    /// Per-point metrics, in scheduler point order.
    pub points: Vec<PointSummary>,
}

impl PointSummary {
    /// The point's fields in `summary.json` order.
    fn fields(&self) -> [(&'static str, Val<'_>); 42] {
        [
            ("key", Val::S(&self.key)),
            ("experiment", Val::S(&self.experiment)),
            ("workload", Val::S(&self.workload)),
            ("system", Val::S(&self.system)),
            ("ops", Val::U(self.ops)),
            ("read_ops", Val::U(self.read_ops)),
            ("write_ops", Val::U(self.write_ops)),
            ("scan_ops", Val::U(self.scan_ops)),
            ("virtual_ns", Val::U(self.virtual_ns)),
            ("iops", Val::F(self.iops)),
            ("p50_read_ns", Val::U(self.p50_read_ns)),
            ("p95_read_ns", Val::U(self.p95_read_ns)),
            ("p99_read_ns", Val::U(self.p99_read_ns)),
            ("p50_write_ns", Val::U(self.p50_write_ns)),
            ("p95_write_ns", Val::U(self.p95_write_ns)),
            ("p99_write_ns", Val::U(self.p99_write_ns)),
            ("waf", Val::F(self.waf)),
            ("converged_waf", Val::F(self.converged_waf)),
            ("burnin_ns", Val::U(self.burnin_ns)),
            ("host_reads", Val::U(self.host_reads)),
            ("host_writes", Val::U(self.host_writes)),
            ("meta_reads", Val::U(self.meta_reads)),
            ("meta_writes", Val::U(self.meta_writes)),
            ("comp_reads", Val::U(self.comp_reads)),
            ("comp_writes", Val::U(self.comp_writes)),
            ("gc_reads", Val::U(self.gc_reads)),
            ("gc_writes", Val::U(self.gc_writes)),
            ("log_reads", Val::U(self.log_reads)),
            ("log_writes", Val::U(self.log_writes)),
            ("erases", Val::U(self.erases)),
            ("retry_reads", Val::U(self.retry_reads)),
            ("phase_queue_ns", Val::U(self.phase_queue_ns)),
            ("phase_meta_ns", Val::U(self.phase_meta_ns)),
            ("phase_data_ns", Val::U(self.phase_data_ns)),
            ("phase_log_ns", Val::U(self.phase_log_ns)),
            ("phase_engine_ns", Val::U(self.phase_engine_ns)),
            ("phase_queue_p99_ns", Val::U(self.phase_queue_p99_ns)),
            ("phase_meta_p99_ns", Val::U(self.phase_meta_p99_ns)),
            ("phase_data_p99_ns", Val::U(self.phase_data_p99_ns)),
            ("phase_log_p99_ns", Val::U(self.phase_log_p99_ns)),
            ("phase_engine_p99_ns", Val::U(self.phase_engine_p99_ns)),
            ("wall_secs", Val::F(self.wall_secs)),
        ]
    }
}

/// `items` one per line at `indent`, comma-separated.
fn block(indent: &str, items: impl Iterator<Item = String>) -> String {
    let lines: Vec<String> = items.map(|item| format!("{indent}{item}")).collect();
    lines.join(",\n") + if lines.is_empty() { "" } else { "\n" }
}

impl RunSummary {
    /// Renders the summary as stable, human-diffable JSON: one point per
    /// block, fixed field order, fixed float precision.
    pub fn to_json(&self) -> String {
        let field = |(name, v): (&str, Val<'_>)| format!("\"{name}\": {v}");
        let points = self.points.iter().map(|p| {
            let body = block("      ", p.fields().into_iter().map(field));
            format!("{{\n{body}    }}")
        });
        let run = [
            ("schema_version", Val::U(self.schema_version)),
            ("capacity_bytes", Val::U(self.capacity_bytes)),
            ("seed", Val::U(self.seed)),
            ("total_wall_secs", Val::F(self.total_wall_secs)),
        ];
        let points = format!("\"points\": [\n{}  ]", block("    ", points));
        let fields = run.into_iter().map(field).chain([points]);
        format!("{{\n{}}}\n", block("  ", fields))
    }

    /// Writes the JSON rendering to `path`, creating parent directories.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from directory creation or the write.
    pub fn write<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        if let Some(parent) = path.as_ref().parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_json())
    }
}

/// Parses a `summary.json` document produced by [`RunSummary::to_json`]
/// (or a hand-edited equivalent: field order is free, unknown fields are
/// kept and compared like any other) into a [`Json`] object.
///
/// # Errors
///
/// A [`ParseError`] on malformed JSON, or at line 0 for a document not
/// shaped `{scalars..., "points": [{scalars...}...]}` (one `points`).
pub fn parse(src: &str) -> Result<Json, ParseError> {
    let doc = Json::read(src)?;
    let shaped = match &doc {
        Json::Object(fields) => {
            fields.iter().filter(|(n, _)| n == "points").count() <= 1
                && fields.iter().all(|(name, v)| match v {
                    Json::Array(points) => {
                        name == "points" && points.iter().all(Json::is_flat_object)
                    }
                    v => name != "points" && matches!(v, Json::Scalar(_)),
                })
        }
        _ => false,
    };
    if !shaped {
        return Err(ParseError {
            msg: "not a summary: expected {scalars..., \"points\": [{scalars...}...]}".into(),
            line: 0,
        });
    }
    Ok(doc)
}

// ---------------------------------------------------------------------------
// Diffing
// ---------------------------------------------------------------------------

/// One compared metric that fell outside tolerance.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// Point key (empty for top-level fields).
    pub key: String,
    /// Metric name.
    pub metric: String,
    /// Baseline raw token (empty when missing).
    pub baseline: String,
    /// Candidate raw token (empty when missing).
    pub candidate: String,
    /// Whether a band (wall-time) comparison was used instead of exact.
    pub banded: bool,
}

/// The outcome of comparing two summaries.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DiffReport {
    /// Every failed comparison (passing rows are not recorded to keep the
    /// report proportional to the damage).
    pub failures: Vec<DiffRow>,
    /// Point keys present in the baseline but not the candidate.
    pub missing: Vec<String>,
    /// Point keys present in the candidate but not the baseline.
    pub extra: Vec<String>,
    /// Metrics compared in total (both exact and banded).
    pub compared: usize,
}

impl DiffReport {
    /// Whether the candidate is free of regressions.
    pub fn pass(&self) -> bool {
        self.failures.is_empty() && self.missing.is_empty() && self.extra.is_empty()
    }
}

fn band_ok(base: &str, cand: &str, band: f64) -> bool {
    match (base.parse::<f64>(), cand.parse::<f64>()) {
        (Ok(b), Ok(c)) => c <= (b * band).max(WALL_FLOOR_SECS),
        _ => false,
    }
}

/// Compares `candidate` against `baseline`, two documents [`parse`]
/// accepted.
///
/// Exact metrics (everything but [`WALL_FIELDS`]) must match token for
/// token; wall-time metrics pass while `candidate ≤ baseline × wall_band`
/// (with a small absolute floor so near-zero baselines do not flap).
/// Points are matched by `key`; missing or extra points fail the diff, and
/// so does a field only the candidate has.
pub fn diff(baseline: &Json, candidate: &Json, wall_band: f64) -> DiffReport {
    let mut report = DiffReport::default();
    compare(&mut report, "", baseline, candidate, wall_band);
    let (base, cand) = (keyed_points(baseline), keyed_points(candidate));
    for (key, bp) in &base {
        match cand.iter().find(|(k, _)| k == key) {
            Some((_, cp)) => compare(&mut report, key, bp, cp, wall_band),
            None => report.missing.push(key.clone()),
        }
    }
    let extra = cand
        .iter()
        .filter(|(k, _)| !base.iter().any(|(b, _)| b == k));
    report.extra = extra.map(|(k, _)| k.clone()).collect();
    report
}

/// A summary's points with their unescaped `key` (empty when absent).
fn keyed_points(doc: &Json) -> Vec<(String, &Json)> {
    let points = doc.get("points").map_or(&[][..], Json::items);
    points
        .iter()
        .map(|p| (p.get("key").and_then(Json::str).unwrap_or_default(), p))
        .collect()
}

/// An object's scalar fields as `(name, token)`, in document order: a
/// point's fields, or the run's without its `points` array.
fn scalars(obj: &Json) -> Vec<(&str, &str)> {
    let Json::Object(fields) = obj else {
        return Vec::new();
    };
    fields
        .iter()
        .filter_map(|(n, v)| match v {
            Json::Scalar(tok) => Some((n.as_str(), tok.as_str())),
            _ => None,
        })
        .collect()
}

/// Compares one object's scalars (a point's, or the run's with an empty
/// `key`): every baseline field against the candidate's, plus every field
/// only the candidate has, which fails (added without a schema bump).
fn compare(report: &mut DiffReport, key: &str, base: &Json, cand: &Json, wall_band: f64) {
    let (base, cand) = (scalars(base), scalars(cand));
    fn token<'a>(fields: &[(&str, &'a str)], name: &str) -> Option<&'a str> {
        fields.iter().find(|(n, _)| *n == name).map(|(_, t)| *t)
    }
    let shared = base
        .iter()
        .map(|&(n, b)| (n, b, token(&cand, n).unwrap_or("")));
    let cand_only = cand
        .iter()
        .filter(|(n, _)| token(&base, n).is_none())
        .map(|&(n, c)| (n, "", c));
    for (metric, base, cand) in shared.chain(cand_only).filter(|(n, ..)| *n != "key") {
        let banded = WALL_FIELDS.contains(&metric);
        let ok = if banded {
            band_ok(base, cand, wall_band)
        } else {
            !base.is_empty() && base == cand
        };
        report.compared += 1;
        if !ok {
            report.failures.push(DiffRow {
                key: key.to_string(),
                metric: metric.to_string(),
                baseline: base.to_string(),
                candidate: cand.to_string(),
                banded,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_point(key: &str, iops: f64, wall: f64) -> PointSummary {
        PointSummary {
            key: key.to_string(),
            experiment: "fig10".into(),
            workload: "ZippyDB".into(),
            system: "AnyKey+".into(),
            ops: 1000,
            read_ops: 800,
            write_ops: 200,
            scan_ops: 0,
            virtual_ns: 5_000_000,
            iops,
            p50_read_ns: 100,
            p95_read_ns: 700,
            p99_read_ns: 900,
            p50_write_ns: 110,
            p95_write_ns: 750,
            p99_write_ns: 950,
            waf: 2.5,
            converged_waf: 2.4,
            burnin_ns: 1_000_000,
            host_reads: 10,
            host_writes: 2,
            meta_reads: 3,
            meta_writes: 4,
            comp_reads: 5,
            comp_writes: 6,
            gc_reads: 0,
            gc_writes: 0,
            log_reads: 7,
            log_writes: 8,
            erases: 9,
            retry_reads: 0,
            phase_queue_ns: 11,
            phase_meta_ns: 12,
            phase_data_ns: 13,
            phase_log_ns: 14,
            phase_engine_ns: 15,
            phase_queue_p99_ns: 21,
            phase_meta_p99_ns: 22,
            phase_data_p99_ns: 23,
            phase_log_p99_ns: 24,
            phase_engine_p99_ns: 25,
            wall_secs: wall,
        }
    }

    fn sample(iops: f64, wall: f64) -> RunSummary {
        RunSummary {
            schema_version: SCHEMA_VERSION,
            capacity_bytes: 64 << 20,
            seed: 42,
            total_wall_secs: wall * 2.0,
            points: vec![
                sample_point("fig10/ZippyDB/AnyKey+", iops, wall),
                sample_point("fig10/ZippyDB/PinK", iops / 3.0, wall),
            ],
        }
    }

    /// Field `name`'s raw token.
    fn token<'a>(v: &'a Json, name: &str) -> Option<&'a str> {
        match v.get(name) {
            Some(Json::Scalar(tok)) => Some(tok),
            _ => None,
        }
    }

    #[test]
    fn json_roundtrip_preserves_fields() {
        let s = sample(123456.789, 1.5);
        let parsed = parse(&s.to_json()).unwrap();
        let points = parsed.get("points").unwrap().items();
        assert_eq!(token(&parsed, "schema_version"), Some("3"));
        assert_eq!(token(&points[0], "phase_data_ns"), Some("13"));
        assert_eq!(token(&points[0], "p95_read_ns"), Some("700"));
        assert_eq!(token(&points[0], "converged_waf"), Some("2.400000"));
        assert_eq!(token(&points[0], "burnin_ns"), Some("1000000"));
        assert_eq!(token(&parsed, "seed"), Some("42"));
        assert_eq!(points.len(), 2);
        assert_eq!(token(&points[0], "key"), Some("\"fig10/ZippyDB/AnyKey+\""));
        assert_eq!(token(&points[0], "iops"), Some("123456.789000"));
        assert_eq!(token(&points[0], "erases"), Some("9"));
    }

    #[test]
    fn parse_rejects_other_shapes() {
        for doc in [
            "[1]",
            "{\"seed\": [1]}",
            "{\"seed\": {}}",
            "{\"points\": 1}",
            "{\"points\": [1]}",
            "{\"points\": [{\"a\": {}}]}",
            "{\"points\": [], \"points\": []}",
        ] {
            let err = parse(doc).expect_err(doc);
            assert!(
                err.line == 0 && err.msg.contains("not a summary"),
                "{doc}: {err}"
            );
        }
    }

    #[test]
    fn identical_summaries_pass() {
        let s = sample(1000.0, 1.0);
        let a = parse(&s.to_json()).unwrap();
        let b = parse(&s.to_json()).unwrap();
        let d = diff(&a, &b, DEFAULT_WALL_BAND);
        assert!(d.pass(), "unexpected failures: {:?}", d.failures);
        assert!(d.compared > 50);
    }

    #[test]
    fn exact_metric_mismatch_fails() {
        let base = sample(1000.0, 1.0);
        let mut cand = sample(1000.0, 1.0);
        cand.points[1].erases += 1;
        let d = diff(
            &parse(&base.to_json()).unwrap(),
            &parse(&cand.to_json()).unwrap(),
            DEFAULT_WALL_BAND,
        );
        assert!(!d.pass());
        assert_eq!(d.failures.len(), 1);
        assert_eq!(d.failures[0].metric, "erases");
        assert_eq!(d.failures[0].key, "fig10/ZippyDB/PinK");
        assert!(!d.failures[0].banded);
    }

    #[test]
    fn wall_time_within_band_passes() {
        let base = sample(1000.0, 1.0);
        let mut cand = sample(1000.0, 1.0);
        // 3× slower: inside the default 5× band. Also exercise "faster
        // never fails".
        cand.points[0].wall_secs = 3.0;
        cand.points[1].wall_secs = 0.01;
        cand.total_wall_secs = 3.01;
        let d = diff(
            &parse(&base.to_json()).unwrap(),
            &parse(&cand.to_json()).unwrap(),
            DEFAULT_WALL_BAND,
        );
        assert!(d.pass(), "unexpected failures: {:?}", d.failures);
    }

    #[test]
    fn wall_time_band_exceeded_fails() {
        let base = sample(1000.0, 1.0);
        let mut cand = sample(1000.0, 1.0);
        cand.points[0].wall_secs = 6.0; // > 5× baseline
        let d = diff(
            &parse(&base.to_json()).unwrap(),
            &parse(&cand.to_json()).unwrap(),
            DEFAULT_WALL_BAND,
        );
        assert!(!d.pass());
        assert_eq!(d.failures.len(), 1);
        assert!(d.failures[0].banded);
        assert_eq!(d.failures[0].metric, "wall_secs");
    }

    #[test]
    fn missing_and_extra_points_fail() {
        let base = sample(1000.0, 1.0);
        let mut cand = sample(1000.0, 1.0);
        cand.points[1].key = "fig10/ZippyDB/AnyKey".into();
        let d = diff(
            &parse(&base.to_json()).unwrap(),
            &parse(&cand.to_json()).unwrap(),
            DEFAULT_WALL_BAND,
        );
        assert!(!d.pass());
        assert_eq!(d.missing, vec!["fig10/ZippyDB/PinK".to_string()]);
        assert_eq!(d.extra, vec!["fig10/ZippyDB/AnyKey".to_string()]);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let mut s = sample(1.0, 1.0);
        s.points[0].key = "odd \"key\"\nwith\\stuff".into();
        s.points[0].workload = "w,1".into();
        let parsed = parse(&s.to_json()).unwrap();
        let key = parsed.get("points").unwrap().items()[0].get("key");
        assert_eq!(
            key.and_then(Json::str).as_deref(),
            Some("odd \"key\"\nwith\\stuff")
        );
    }

    #[test]
    fn near_zero_wall_baseline_does_not_flap() {
        let mut base = sample(1.0, 0.0);
        base.total_wall_secs = 0.0;
        let mut cand = sample(1.0, 0.0);
        cand.total_wall_secs = 0.0005;
        cand.points[0].wall_secs = 0.0009;
        let d = diff(
            &parse(&base.to_json()).unwrap(),
            &parse(&cand.to_json()).unwrap(),
            DEFAULT_WALL_BAND,
        );
        assert!(d.pass(), "unexpected failures: {:?}", d.failures);
    }
}
