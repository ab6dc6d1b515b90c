//! Virtual-time telemetry timelines: periodic device-state samples, the
//! JSONL/CSV exporters, the parser, and the steady-state detector.
//!
//! The paper's headline claims are *steady-state* claims — AnyKey's wins
//! over PinK materialize only once the tree, hash lists, and value log
//! reach equilibrium — and a single end-of-run summary cannot show whether
//! a measurement ever got there. A timeline is the missing axis: the
//! runner snapshots a [`StateSample`] at a configurable virtual-time
//! interval, capturing how level occupancy, the DRAM budget split, the
//! value-log garbage ratio, the free-block pool, and the cumulative
//! per-cause write/read amplification evolved over the measured phase.
//!
//! Every timestamp is virtual nanoseconds. Like the trace module, this
//! module must never touch the host clock (the workspace's
//! `clippy::disallowed_types` bans `std::time` here too), so captures are
//! byte-identical across runs, machines, and `--jobs` levels. Sampling is
//! pure observation: a run with sampling enabled produces bit-identical
//! reports, CSVs, and traces to one without.
//!
//! Two serializations share the sample model: line-oriented JSONL
//! (schema-versioned; per-level occupancy rides as companion `level`
//! lines) parsed back by
//! [`parse_jsonl`](crate::timeline::parse_jsonl), and a flat CSV of the
//! scalar fields for plotting. The detector
//! ([`detect_steady_state`](crate::timeline::detect_steady_state)) finds
//! the burn-in → steady-state transition of a WAF curve with a
//! sliding-window slope test; the scheduler runs it for `summary.json`'s
//! `converged_waf` and `burnin_ns`. The report-only analysis of a parsed
//! timeline (per-point convergence, compaction-storm and GC-debt windows)
//! lives in `xtask timeline`.

use std::fmt::Write as _;
use std::io::BufRead;

use crate::json::{self, line, Json, ParseError, Val};
use Num::{F, U};

/// Version stamp of the JSONL timeline schema. Bump on any field change so
/// `xtask timeline` can refuse files it does not understand.
pub const TIMELINE_SCHEMA_VERSION: u64 = 1;

/// Default sliding-window length (in samples) of the steady-state
/// detector.
pub const DEFAULT_STEADY_WINDOW: usize = 8;

/// Default relative WAF-slope tolerance of the steady-state detector: a
/// window is "flat" when the cumulative WAF moved less than this fraction
/// across it.
pub const DEFAULT_STEADY_TOL: f64 = 0.05;

/// One LSM level's occupancy inside a [`StateSample`].
///
/// `entries` counts the level's placement units — data segment groups for
/// AnyKey, meta segments for PinK. `phys_bytes` is the flash footprint of
/// those units; `meta_bytes` the level's DRAM-facing metadata (level-list
/// bytes for both engines).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LevelSample {
    /// Level index (0 = top).
    pub level: u32,
    /// Placement units in the level (groups / meta segments).
    pub entries: u64,
    /// Logical KV bytes the level references.
    pub kv_bytes: u64,
    /// Physical flash bytes the level's units occupy.
    pub phys_bytes: u64,
    /// Level-list metadata bytes the level contributes.
    pub meta_bytes: u64,
}

/// One periodic snapshot of device state during a measured run.
///
/// The runner fills the identity, interval, and cumulative-traffic fields;
/// [`KvEngine::sample_state`](../../anykey_core/engine/trait.KvEngine.html)
/// fills the engine-state fields. All counters are cumulative since the
/// start of the measured phase (so they are monotone non-decreasing across
/// a point's samples); interval metrics cover only the span since the
/// previous sample.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StateSample {
    /// Sample sequence number within the point (0 = phase start).
    pub seq: u64,
    /// Virtual ns of the snapshot.
    pub ts_ns: u64,
    /// Operations completed since the previous sample.
    pub interval_ops: u64,
    /// Operations per virtual second over the interval.
    pub interval_iops: f64,
    /// p99 GET latency over the interval (virtual ns).
    pub interval_read_p99_ns: u64,
    /// p99 PUT/DELETE latency over the interval (virtual ns).
    pub interval_write_p99_ns: u64,
    /// Cumulative flash page reads servicing host GETs/SCANs.
    pub host_reads: u64,
    /// Cumulative flash page programs of host data.
    pub host_writes: u64,
    /// Cumulative metadata flash reads.
    pub meta_reads: u64,
    /// Cumulative metadata flash programs.
    pub meta_writes: u64,
    /// Cumulative compaction flash reads.
    pub comp_reads: u64,
    /// Cumulative compaction flash programs.
    pub comp_writes: u64,
    /// Cumulative GC flash reads.
    pub gc_reads: u64,
    /// Cumulative GC flash programs.
    pub gc_writes: u64,
    /// Cumulative value-log flash reads.
    pub log_reads: u64,
    /// Cumulative value-log flash programs.
    pub log_writes: u64,
    /// Cumulative block erases.
    pub erases: u64,
    /// Cumulative write amplification: total flash programs ÷ minimal
    /// pages for the host bytes written so far (0 before the first write).
    pub cum_waf: f64,
    /// Cumulative read amplification: total flash reads ÷ host GETs so far
    /// (0 before the first read).
    pub cum_raf: f64,
    /// Configured DRAM capacity in bytes.
    pub dram_capacity: u64,
    /// DRAM bytes currently in use (write buffer + resident metadata).
    pub dram_used: u64,
    /// Level-list bytes across all levels.
    pub level_list_bytes: u64,
    /// Total AnyKey hash-list bytes (resident or not; 0 for PinK).
    pub hash_list_total_bytes: u64,
    /// Hash-list bytes currently DRAM-resident (0 for PinK).
    pub hash_list_resident_bytes: u64,
    /// PinK meta-segment bytes resident in DRAM (0 for AnyKey).
    pub meta_segment_dram_bytes: u64,
    /// PinK meta-segment bytes spilled to flash (0 for AnyKey).
    pub meta_segment_flash_bytes: u64,
    /// Total placement units across all levels (groups / meta segments).
    pub group_count: u64,
    /// Live value bytes parked in the value log (0 without a log).
    pub value_log_live_bytes: u64,
    /// Stale (superseded, not yet reclaimed) value-log bytes.
    pub value_log_stale_bytes: u64,
    /// Free erase blocks across the engine's regions — the headroom GC
    /// watches.
    pub free_blocks: u64,
    /// Minimum completed P/E cycles over all blocks.
    pub wear_min: u64,
    /// Maximum completed P/E cycles over all blocks.
    pub wear_max: u64,
    /// Total completed P/E cycles over all blocks.
    pub wear_total: u64,
    /// Per-level occupancy, top level first.
    pub levels: Vec<LevelSample>,
}

/// One point of the always-on cumulative-WAF curve the runner records
/// regardless of timeline export (it feeds the steady-state fields of
/// `summary.json`). Kept as raw integers so the WAF can be recomputed with
/// the same arithmetic the summary uses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WafPoint {
    /// Virtual ns of the curve point.
    pub ts_ns: u64,
    /// Measured PUT/DELETE operations completed so far.
    pub write_ops: u64,
    /// Total flash page programs since the measured phase began.
    pub flash_writes: u64,
}

// ---------------------------------------------------------------------------
// JSONL export
// ---------------------------------------------------------------------------

/// One numeric [`StateSample`] field, borrowed mutably so the parser can
/// fill it and the writers can read it.
enum Num<'a> {
    U(&'a mut u64),
    F(&'a mut f64),
}

/// Selects one numeric field of a sample.
type Field = for<'a> fn(&'a mut StateSample) -> Num<'a>;

/// [`StateSample`]'s scalar fields, in file order: JSONL name, CSV column,
/// and the field. The JSONL writer, the CSV writer and the JSONL parser all
/// walk this one list; per-level occupancy is JSONL-only.
const SAMPLE_FIELDS: [(&str, &str, Field); 33] = [
    ("seq", "seq", |s| U(&mut s.seq)),
    ("ts", "ts_ns", |s| U(&mut s.ts_ns)),
    ("interval_ops", "interval_ops", |s| U(&mut s.interval_ops)),
    (
        "interval_iops",
        "interval_iops",
        |s| F(&mut s.interval_iops),
    ),
    ("interval_read_p99", "interval_read_p99_ns", |s| {
        U(&mut s.interval_read_p99_ns)
    }),
    ("interval_write_p99", "interval_write_p99_ns", |s| {
        U(&mut s.interval_write_p99_ns)
    }),
    ("host_reads", "host_reads", |s| U(&mut s.host_reads)),
    ("host_writes", "host_writes", |s| U(&mut s.host_writes)),
    ("meta_reads", "meta_reads", |s| U(&mut s.meta_reads)),
    ("meta_writes", "meta_writes", |s| U(&mut s.meta_writes)),
    ("comp_reads", "comp_reads", |s| U(&mut s.comp_reads)),
    ("comp_writes", "comp_writes", |s| U(&mut s.comp_writes)),
    ("gc_reads", "gc_reads", |s| U(&mut s.gc_reads)),
    ("gc_writes", "gc_writes", |s| U(&mut s.gc_writes)),
    ("log_reads", "log_reads", |s| U(&mut s.log_reads)),
    ("log_writes", "log_writes", |s| U(&mut s.log_writes)),
    ("erases", "erases", |s| U(&mut s.erases)),
    ("cum_waf", "cum_waf", |s| F(&mut s.cum_waf)),
    ("cum_raf", "cum_raf", |s| F(&mut s.cum_raf)),
    (
        "dram_capacity",
        "dram_capacity",
        |s| U(&mut s.dram_capacity),
    ),
    ("dram_used", "dram_used", |s| U(&mut s.dram_used)),
    ("level_list_bytes", "level_list_bytes", |s| {
        U(&mut s.level_list_bytes)
    }),
    ("hash_list_total_bytes", "hash_list_total_bytes", |s| {
        U(&mut s.hash_list_total_bytes)
    }),
    (
        "hash_list_resident_bytes",
        "hash_list_resident_bytes",
        |s| U(&mut s.hash_list_resident_bytes),
    ),
    ("meta_segment_dram_bytes", "meta_segment_dram_bytes", |s| {
        U(&mut s.meta_segment_dram_bytes)
    }),
    (
        "meta_segment_flash_bytes",
        "meta_segment_flash_bytes",
        |s| U(&mut s.meta_segment_flash_bytes),
    ),
    ("group_count", "group_count", |s| U(&mut s.group_count)),
    ("value_log_live_bytes", "value_log_live_bytes", |s| {
        U(&mut s.value_log_live_bytes)
    }),
    ("value_log_stale_bytes", "value_log_stale_bytes", |s| {
        U(&mut s.value_log_stale_bytes)
    }),
    ("free_blocks", "free_blocks", |s| U(&mut s.free_blocks)),
    ("wear_min", "wear_min", |s| U(&mut s.wear_min)),
    ("wear_max", "wear_max", |s| U(&mut s.wear_max)),
    ("wear_total", "wear_total", |s| U(&mut s.wear_total)),
];

/// `s`'s scalar fields as `(JSONL name, CSV column, value)`.
fn sample_values(
    s: &StateSample,
) -> impl Iterator<Item = (&'static str, &'static str, Val<'static>)> {
    // The field accessors take `&mut`: read from a copy of the scalars.
    let mut s = StateSample {
        levels: Vec::new(),
        ..*s
    };
    SAMPLE_FIELDS.iter().map(move |(name, column, field)| {
        let v = match field(&mut s) {
            U(v) => Val::U(*v),
            F(v) => Val::F(*v),
        };
        (*name, *column, v)
    })
}

/// Appends one sample's line followed by its per-level companion lines.
/// Field order is fixed so captures are byte-comparable.
fn write_sample(out: &mut String, s: &StateSample) {
    let mut fields = vec![("event", Val::S("sample"))];
    fields.extend(sample_values(s).map(|(name, _, v)| (name, v)));
    line(out, &fields);
    for l in &s.levels {
        line(
            out,
            &[
                ("event", Val::S("level")),
                ("seq", Val::U(s.seq)),
                ("level", Val::U(u64::from(l.level))),
                ("entries", Val::U(l.entries)),
                ("kv_bytes", Val::U(l.kv_bytes)),
                ("phys_bytes", Val::U(l.phys_bytes)),
                ("meta_bytes", Val::U(l.meta_bytes)),
            ],
        );
    }
}

/// Renders a whole timeline document — header line, then for each point a
/// marker line followed by its samples (each with its level lines) — as
/// JSONL.
pub fn write_jsonl<K: AsRef<str>, S: AsRef<[StateSample]>>(points: &[(K, S)]) -> String {
    json::write_jsonl(TIMELINE_SCHEMA_VERSION, points, write_sample)
}

/// Renders a timeline as a flat CSV of the scalar sample fields, one row
/// per sample, point key in the first column.
pub fn write_csv<K: AsRef<str>, S: AsRef<[StateSample]>>(points: &[(K, S)]) -> String {
    let mut out = String::from("point");
    for (_, column, _) in &SAMPLE_FIELDS {
        out.push(',');
        out.push_str(column);
    }
    out.push('\n');
    for (key, samples) in points {
        for s in samples.as_ref() {
            out.push_str(key.as_ref());
            for (_, _, v) in sample_values(s) {
                let _ = write!(out, ",{v}");
            }
            out.push('\n');
        }
    }
    out
}

/// Decodes one `sample` or `level` line onto its point's samples; a level
/// line belongs to the sample just before it.
fn read_line(kind: &str, f: &Json, samples: &mut Vec<StateSample>) -> Result<(), String> {
    match kind {
        "sample" => {
            let mut s = StateSample::default();
            for (name, _, field) in &SAMPLE_FIELDS {
                match field(&mut s) {
                    U(v) => *v = f.required(name, Json::to)?,
                    F(v) => *v = f.required(name, Json::to)?,
                }
            }
            samples.push(s);
        }
        "level" => {
            let seq: u64 = f.required("seq", Json::to)?;
            let l = LevelSample {
                level: f.required("level", Json::to)?,
                entries: f.required("entries", Json::to)?,
                kv_bytes: f.required("kv_bytes", Json::to)?,
                phys_bytes: f.required("phys_bytes", Json::to)?,
                meta_bytes: f.required("meta_bytes", Json::to)?,
            };
            match samples.last_mut().filter(|s| s.seq == seq) {
                Some(s) => s.levels.push(l),
                None => {
                    return Err(format!(
                        "level line for seq {seq} does not follow its sample"
                    ))
                }
            }
        }
        other => return Err(format!("unknown event kind '{other}'")),
    }
    Ok(())
}

/// Parses a JSONL timeline document produced by [`write_jsonl`] into its
/// `(point key, samples)` pairs, in document order.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed lines, a missing or incompatible
/// header, samples before the first point marker, or a `level` line that
/// does not follow its sample.
pub fn parse_jsonl(src: impl BufRead) -> Result<Vec<(String, Vec<StateSample>)>, ParseError> {
    json::parse_jsonl(src, "timeline", TIMELINE_SCHEMA_VERSION, read_line)
}

// ---------------------------------------------------------------------------
// Steady-state detection
// ---------------------------------------------------------------------------

/// The detected burn-in → steady-state transition of one WAF curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SteadyState {
    /// Index of the first sample inside the steady-state window.
    pub start_idx: usize,
    /// Virtual ns of that sample — the burn-in horizon.
    pub start_ns: u64,
    /// Mean cumulative WAF over the steady-state window.
    pub converged_waf: f64,
}

/// Sliding-window WAF-slope steady-state detector.
///
/// A window of `window` consecutive samples is *flat* when the cumulative
/// WAF changed by less than `tol` (relative to its end value) across it.
/// The steady state begins at the earliest sample from which **every**
/// subsequent window is flat — a single late compaction storm therefore
/// pushes the burn-in horizon past itself, which is exactly the semantics
/// the paper's steady-state claims need. Returns `None` when the curve is
/// shorter than one window or never settles.
pub fn detect_steady_state(curve: &[(u64, f64)], window: usize, tol: f64) -> Option<SteadyState> {
    let window = window.max(2);
    let n = curve.len();
    if n < window {
        return None;
    }
    // Walk window starts from the end; the steady start is the first
    // sample of the longest all-flat suffix of windows.
    let mut start: Option<usize> = None;
    for i in (0..=n - window).rev() {
        let a = curve[i].1;
        let b = curve[i + window - 1].1;
        let rel = (b - a).abs() / b.abs().max(1e-12);
        if rel < tol {
            start = Some(i);
        } else {
            break;
        }
    }
    let start_idx = start?;
    let steady = &curve[start_idx..];
    let converged_waf = steady.iter().map(|(_, w)| w).sum::<f64>() / steady.len() as f64;
    Some(SteadyState {
        start_idx,
        start_ns: curve[start_idx].0,
        converged_waf,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seq: u64, ts: u64, waf: f64) -> StateSample {
        StateSample {
            seq,
            ts_ns: ts,
            interval_ops: 100,
            interval_iops: 12345.5,
            interval_read_p99_ns: 900,
            interval_write_p99_ns: 950,
            host_reads: 10 * (seq + 1),
            host_writes: 5 * (seq + 1),
            comp_writes: 2 * seq,
            gc_writes: seq,
            erases: seq,
            cum_waf: waf,
            cum_raf: 1.25,
            dram_capacity: 1 << 16,
            dram_used: 1 << 14,
            level_list_bytes: 512,
            group_count: 4,
            value_log_live_bytes: 4096,
            value_log_stale_bytes: 128 * seq,
            free_blocks: 100 - seq,
            wear_max: 3,
            wear_total: 7,
            levels: vec![LevelSample {
                level: 0,
                entries: 4,
                kv_bytes: 1 << 14,
                phys_bytes: 1 << 15,
                meta_bytes: 512,
            }],
            ..StateSample::default()
        }
    }

    fn doc() -> Vec<(String, Vec<StateSample>)> {
        vec![(
            "fig10/ZippyDB/AnyKey+".to_string(),
            (0..4).map(|i| sample(i, i * 1_000_000, 2.5)).collect(),
        )]
    }

    #[test]
    fn jsonl_roundtrips_byte_identically() {
        let points = doc();
        let text = write_jsonl(&points);
        let parsed = parse_jsonl(text.as_bytes()).expect("parse");
        assert_eq!(parsed, points);
        assert_eq!(write_jsonl(&parsed), text);
    }

    #[test]
    fn jsonl_escapes_point_keys() {
        let text = write_jsonl(&[("we\"ird\nkey".to_string(), Vec::new())]);
        let parsed = parse_jsonl(text.as_bytes()).expect("parse");
        assert_eq!(parsed[0].0, "we\"ird\nkey");
    }

    #[test]
    fn parse_rejects_missing_header_and_wrong_schema() {
        let err = parse_jsonl(&b"{\"event\":\"point\",\"key\":\"x\"}\n"[..]).unwrap_err();
        assert!(err.msg.contains("header"), "{err}");
        let err = parse_jsonl(&b"{\"event\":\"header\",\"schema_version\":99}\n"[..]).unwrap_err();
        assert!(err.msg.contains("unsupported"), "{err}");
    }

    #[test]
    fn parse_rejects_orphan_sample_and_level() {
        // Drop the point marker (line 1), then the first sample (line 2).
        let text = write_jsonl(&doc());
        for (drop, msg) in [(1, "point marker"), (2, "does not follow")] {
            let mut lines: Vec<&str> = text.lines().collect();
            lines.remove(drop);
            let err = parse_jsonl(lines.join("\n").as_bytes()).unwrap_err();
            assert!(err.msg.contains(msg), "{err}");
        }
    }

    #[test]
    fn csv_has_header_and_one_row_per_sample() {
        let text = write_csv(&doc());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].starts_with("point,seq,ts_ns,"));
        assert_eq!(lines[0].split(',').count(), 1 + SAMPLE_FIELDS.len());
        assert!(lines[1].starts_with("fig10/ZippyDB/AnyKey+,0,0,100,12345.500000,"));
    }

    #[test]
    fn steady_state_detects_burn_in_boundary() {
        // WAF climbs for 6 samples, then flattens at 3.0.
        let curve: Vec<(u64, f64)> = (0..20)
            .map(|i| {
                let waf = if i < 6 { 0.5 * i as f64 } else { 3.0 };
                (i * 10, waf)
            })
            .collect();
        let s = detect_steady_state(&curve, 4, 0.05).expect("converged");
        assert_eq!(s.start_idx, 6);
        assert_eq!(s.start_ns, 60);
        assert!((s.converged_waf - 3.0).abs() < 1e-9);
    }

    #[test]
    fn steady_state_rejects_unsettled_and_short_curves() {
        let rising: Vec<(u64, f64)> = (0..20).map(|i| (i, 1.0 + i as f64)).collect();
        assert_eq!(detect_steady_state(&rising, 4, 0.05), None);
        let short = [(0u64, 1.0), (1, 1.0)];
        assert_eq!(detect_steady_state(&short, 4, 0.05), None);
    }

    #[test]
    fn flat_zero_curve_is_steady_from_the_start() {
        let flat: Vec<(u64, f64)> = (0..10).map(|i| (i, 0.0)).collect();
        let s = detect_steady_state(&flat, 4, 0.05).expect("flat is steady");
        assert_eq!(s.start_idx, 0);
        assert_eq!(s.converged_waf, 0.0);
    }
}
