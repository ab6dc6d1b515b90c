//! Virtual-time tracing: flash-op lifecycle events, engine spans,
//! per-request phase breakdown, and the JSONL / Chrome-trace exporters.
//!
//! The simulator runs on a discrete virtual clock, so a trace is not a
//! *sample* of behaviour the way a wall-clock profiler's output is — it is
//! the behaviour, bit for bit. Every timestamp below is virtual
//! nanoseconds; none of this module may ever touch the host clock (the
//! workspace's `clippy::disallowed_types` bans `std::time`). As a
//! consequence, traces are byte-identical across runs, machines, and
//! `--jobs` levels.
//!
//! Three event kinds exist, one per layer of the stack:
//!
//! - [`TraceEvent::FlashOp`] — one flash operation's lifecycle as the chip
//!   scheduler saw it: issue time, dispatch (start) time, completion, the
//!   cause tag, and the chip/channel it ran on. `start − issued` is the
//!   queueing stall the op suffered behind other traffic.
//! - [`TraceEvent::Span`] — one background activity window in an engine:
//!   a flush, compaction, or GC relocation, with the level/group it worked
//!   on and the flash pages it moved.
//! - [`TraceEvent::Request`] — one host request with its final
//!   [`PhaseBreakdown`]: where, phase by phase, its latency went.
//!
//! Two export formats share the same event model: line-oriented JSONL
//! (schema-versioned, read back one event at a time by
//! [`visit_jsonl`](crate::trace::visit_jsonl)) and Chrome trace-event JSON
//! loadable in Perfetto, with one track per chip and flow arrows from
//! compaction/GC spans to the flash traffic they cause. The analysis of a
//! parsed trace is report-only and lives in `xtask trace`.

use crate::hist::LatencyHist;
use std::io::BufRead;

use crate::json::{self, esc, line, Json, ParseError, Val};

/// Version stamp of the JSONL trace schema. Bump on any event-shape
/// change so `xtask trace` can refuse files it does not understand.
pub const TRACE_SCHEMA_VERSION: u64 = 1;

/// Where one request's latency went, phase by phase, in virtual ns.
///
/// The four attributed phases are accumulated on the request's critical
/// path as the engine executes it; `queue_wait` is the exact residual
/// `latency − (attributed sum)`, which is where head-of-line blocking
/// (e.g. a PUT stalling behind a buffer flush) lands. The five fields
/// therefore always sum to the request's end-to-end latency.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Unattributed residual: queueing and head-of-line blocking.
    pub queue_wait: u64,
    /// Flash reads of engine metadata (level lists, spilled segments).
    pub meta_read: u64,
    /// Flash reads of key/value data pages.
    pub data_read: u64,
    /// Flash reads of the value log.
    pub log_read: u64,
    /// Engine CPU bookkeeping (hashing, DRAM index operations).
    pub engine: u64,
}

impl PhaseBreakdown {
    /// Sum of the explicitly attributed phases (everything but
    /// `queue_wait`).
    pub fn attributed(&self) -> u64 {
        self.meta_read
            .saturating_add(self.data_read)
            .saturating_add(self.log_read)
            .saturating_add(self.engine)
    }

    /// Closes the breakdown for a request of total latency `latency_ns`:
    /// sets `queue_wait` to the unattributed residual.
    pub fn finish(&mut self, latency_ns: u64) {
        self.queue_wait = latency_ns.saturating_sub(self.attributed());
    }

    /// Sum of all five phases — the request's end-to-end latency once
    /// [`PhaseBreakdown::finish`] ran.
    pub fn total(&self) -> u64 {
        self.queue_wait.saturating_add(self.attributed())
    }
}

/// Per-phase latency histograms over a run's measured requests.
///
/// This is the *aggregate* the bench harness keeps always-on (it feeds the
/// `phase_*` fields of `summary.json` v2); raw [`TraceEvent`] streams are
/// only collected when tracing is requested.
#[derive(Debug, Clone, Default)]
pub struct PhaseHists {
    /// Queue-wait phase samples, one per request.
    pub queue_wait: LatencyHist,
    /// Metadata-read phase samples, one per request.
    pub meta_read: LatencyHist,
    /// Data-read phase samples, one per request.
    pub data_read: LatencyHist,
    /// Value-log-read phase samples, one per request.
    pub log_read: LatencyHist,
    /// Engine-bookkeeping phase samples, one per request.
    pub engine: LatencyHist,
}

impl PhaseHists {
    /// Empty histograms.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one request's breakdown (one sample into each phase hist).
    pub fn record(&mut self, pb: &PhaseBreakdown) {
        self.queue_wait.record(pb.queue_wait);
        self.meta_read.record(pb.meta_read);
        self.data_read.record(pb.data_read);
        self.log_read.record(pb.log_read);
        self.engine.record(pb.engine);
    }

    /// Merges another set of phase histograms into this one.
    pub fn merge(&mut self, other: &PhaseHists) {
        self.queue_wait.merge(&other.queue_wait);
        self.meta_read.merge(&other.meta_read);
        self.data_read.merge(&other.data_read);
        self.log_read.merge(&other.log_read);
        self.engine.merge(&other.engine);
    }

    /// `(name, hist)` pairs in canonical display order.
    pub fn named(&self) -> [(&'static str, &LatencyHist); 5] {
        [
            ("queue-wait", &self.queue_wait),
            ("meta-read", &self.meta_read),
            ("data-read", &self.data_read),
            ("log-read", &self.log_read),
            ("engine", &self.engine),
        ]
    }
}

/// One trace event, in virtual time.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// One flash operation's lifecycle on a chip.
    FlashOp {
        /// Operation kind: `read`, `program`, or `erase`.
        op: String,
        /// Cause tag (`host-read`, `compaction-write`, ...).
        cause: String,
        /// Chip index the op ran on.
        chip: u32,
        /// Channel the chip belongs to.
        channel: u32,
        /// Virtual ns the op was issued (entered the chip queue).
        issued: u64,
        /// Virtual ns the chip started executing the op.
        start: u64,
        /// Virtual ns the op completed.
        done: u64,
        /// Media retry steps the op needed (fault injection).
        retries: u32,
    },
    /// One engine background-activity window (flush / compaction / GC).
    Span {
        /// Span kind: `flush`, `compaction`, or `gc`.
        kind: String,
        /// Detail label within the kind (e.g. `inline-rewrite`).
        label: String,
        /// Level / group the span worked on (0 when not applicable).
        level: u32,
        /// Monotone span id, unique within one engine's trace.
        id: u64,
        /// Virtual ns the span began.
        start: u64,
        /// Virtual ns the span ended.
        end: u64,
        /// Flash pages read during the span.
        pages_read: u64,
        /// Flash pages programmed during the span.
        pages_written: u64,
    },
    /// One host request with its final phase attribution.
    Request {
        /// Request kind: `get`, `put`, `delete`, or `scan`.
        op: String,
        /// Zero-based request sequence number within the run.
        seq: u64,
        /// Virtual ns the request was issued.
        issued: u64,
        /// Virtual ns the request completed.
        done: u64,
        /// Whether the key was found (GET/DELETE; `true` for PUT/SCAN).
        found: bool,
        /// Flash page reads on the request's critical path.
        flash_reads: u32,
        /// Final phase breakdown; fields sum to `done − issued`.
        phases: PhaseBreakdown,
    },
}

impl TraceEvent {
    /// The event's primary timestamp, used for timeline ordering: issue
    /// time for flash ops and requests, start time for spans.
    pub fn ts(&self) -> u64 {
        match self {
            TraceEvent::FlashOp { issued, .. } => *issued,
            TraceEvent::Span { start, .. } => *start,
            TraceEvent::Request { issued, .. } => *issued,
        }
    }
}

/// Sorts a merged event buffer into canonical order: primary timestamp,
/// then a total tie-break over every discriminating field. The order must
/// not depend on recording order at all — engines may enumerate internal
/// hash tables while issuing same-instant ops (e.g. a bulk erase touching
/// many chips), and byte-identical traces across runs and `--jobs` levels
/// require that such ties land deterministically.
pub fn sort_events(events: &mut [TraceEvent]) {
    events.sort_by(|a, b| canonical_key(a).cmp(&canonical_key(b)));
}

/// Total-order key for [`sort_events`]: timestamp, event-kind rank, then
/// enough fields to discriminate any two distinct events (span ids and
/// request seqs are unique per trace; flash ops are told apart by chip,
/// completion, op and cause — two ops identical in all of those render
/// identical lines, so their relative order cannot matter).
fn canonical_key(e: &TraceEvent) -> (u64, u8, u64, u64, u64, &str, &str) {
    match e {
        TraceEvent::FlashOp {
            op,
            cause,
            chip,
            issued,
            start,
            done,
            ..
        } => (
            *issued,
            0,
            *done,
            u64::from(*chip),
            *start,
            op.as_str(),
            cause.as_str(),
        ),
        TraceEvent::Span { id, start, .. } => (*start, 1, *id, 0, 0, "", ""),
        TraceEvent::Request { seq, issued, .. } => (*issued, 2, *seq, 0, 0, "", ""),
    }
}

// ---------------------------------------------------------------------------
// JSONL export
// ---------------------------------------------------------------------------

/// Appends one event line. Field order is fixed so traces are
/// byte-comparable.
fn write_event(out: &mut String, e: &TraceEvent) {
    match e {
        TraceEvent::FlashOp {
            op,
            cause,
            chip,
            channel,
            issued,
            start,
            done,
            retries,
        } => line(
            out,
            &[
                ("event", Val::S("flash")),
                ("op", Val::S(op)),
                ("cause", Val::S(cause)),
                ("chip", Val::U(u64::from(*chip))),
                ("channel", Val::U(u64::from(*channel))),
                ("issued", Val::U(*issued)),
                ("start", Val::U(*start)),
                ("done", Val::U(*done)),
                ("retries", Val::U(u64::from(*retries))),
            ],
        ),
        TraceEvent::Span {
            kind,
            label,
            level,
            id,
            start,
            end,
            pages_read,
            pages_written,
        } => line(
            out,
            &[
                ("event", Val::S("span")),
                ("kind", Val::S(kind)),
                ("label", Val::S(label)),
                ("level", Val::U(u64::from(*level))),
                ("id", Val::U(*id)),
                ("start", Val::U(*start)),
                ("end", Val::U(*end)),
                ("pages_read", Val::U(*pages_read)),
                ("pages_written", Val::U(*pages_written)),
            ],
        ),
        TraceEvent::Request {
            op,
            seq,
            issued,
            done,
            found,
            flash_reads,
            phases,
        } => line(
            out,
            &[
                ("event", Val::S("request")),
                ("op", Val::S(op)),
                ("seq", Val::U(*seq)),
                ("issued", Val::U(*issued)),
                ("done", Val::U(*done)),
                ("found", Val::B(*found)),
                ("flash_reads", Val::U(u64::from(*flash_reads))),
                ("queue_wait", Val::U(phases.queue_wait)),
                ("meta_read", Val::U(phases.meta_read)),
                ("data_read", Val::U(phases.data_read)),
                ("log_read", Val::U(phases.log_read)),
                ("engine", Val::U(phases.engine)),
            ],
        ),
    }
}

/// Renders a whole trace document — header line, then for each point a
/// marker line followed by its events — as JSONL.
pub fn write_jsonl<K: AsRef<str>, E: AsRef<[TraceEvent]>>(points: &[(K, E)]) -> String {
    json::write_jsonl(TRACE_SCHEMA_VERSION, points, write_event)
}

// ---------------------------------------------------------------------------
// Chrome trace-event (Perfetto) export
// ---------------------------------------------------------------------------

/// Formats virtual ns as the microsecond decimal Chrome's `ts`/`dur`
/// fields expect, without going through floats (exact, deterministic).
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Renders a trace as Chrome trace-event JSON, loadable in Perfetto or
/// `chrome://tracing`.
///
/// Track layout per experiment point (one Perfetto "process" per point):
/// tid 0 carries requests as async begin/end pairs, tid 1 carries engine
/// spans (flush/compaction/GC) as complete events, and tid `2 + chip`
/// carries that chip's flash ops, named by cause. Each engine span also
/// emits a flow arrow (`s`/`f`) to the first flash op it caused, so
/// Perfetto draws the interference visually.
pub fn write_chrome<K: AsRef<str>, E: AsRef<[TraceEvent]>>(points: &[(K, E)]) -> String {
    let mut out = String::from("[\n");
    let mut push = |line: String| {
        if out.len() > 2 {
            out.push_str(",\n");
        }
        out.push_str(&line);
    };
    for (pid, (key, events)) in points.iter().enumerate() {
        let (key, events) = (key.as_ref(), events.as_ref());
        let meta = |what: &str, tid: u64, name: &str| {
            format!(
                "{{\"name\":\"{what}\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                esc(name)
            )
        };
        push(meta("process_name", 0, key));
        for (tid, name) in [(0, "requests"), (1, "engine")] {
            push(meta("thread_name", tid, name));
        }
        let mut chips: Vec<u32> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::FlashOp { chip, .. } => Some(*chip),
                _ => None,
            })
            .collect();
        chips.sort_unstable();
        chips.dedup();
        for chip in chips {
            push(meta(
                "thread_name",
                2 + u64::from(chip),
                &format!("chip {chip}"),
            ));
        }
        for e in events {
            match e {
                TraceEvent::FlashOp {
                    op,
                    cause,
                    chip,
                    channel,
                    issued,
                    start,
                    done,
                    retries,
                } => push(format!(
                    "{{\"name\":\"{}\",\"cat\":\"flash\",\"ph\":\"X\",\"pid\":{},\
                     \"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"op\":\"{}\",\
                     \"channel\":{},\"stall_ns\":{},\"retries\":{}}}}}",
                    esc(cause),
                    pid,
                    2 + u64::from(*chip),
                    us(*start),
                    us(done.saturating_sub(*start)),
                    esc(op),
                    channel,
                    start.saturating_sub(*issued),
                    retries
                )),
                TraceEvent::Span {
                    kind,
                    label,
                    level,
                    id,
                    start,
                    end,
                    pages_read,
                    pages_written,
                } => {
                    push(format!(
                        "{{\"name\":\"{}:{}\",\"cat\":\"engine\",\"ph\":\"X\",\
                         \"pid\":{},\"tid\":1,\"ts\":{},\"dur\":{},\
                         \"args\":{{\"level\":{},\"pages_read\":{},\
                         \"pages_written\":{}}}}}",
                        esc(kind),
                        esc(label),
                        pid,
                        us(*start),
                        us(end.saturating_sub(*start)),
                        level,
                        pages_read,
                        pages_written
                    ));
                    // Flow arrow from the span to the first flash op it
                    // caused (matched by cause prefix inside the window).
                    let prefix = match kind.as_str() {
                        "gc" => "gc-",
                        "flush" => "log-",
                        _ => "compaction-",
                    };
                    let target = events.iter().find_map(|f| match f {
                        TraceEvent::FlashOp {
                            cause,
                            chip,
                            start: fs,
                            ..
                        } if cause.starts_with(prefix) && *fs >= *start && *fs < *end => {
                            Some((*chip, *fs))
                        }
                        _ => None,
                    });
                    if let Some((chip, fs)) = target {
                        push(format!(
                            "{{\"name\":\"{}\",\"cat\":\"bg-flow\",\"ph\":\"s\",\
                             \"pid\":{},\"tid\":1,\"ts\":{},\"id\":{}}}",
                            esc(kind),
                            pid,
                            us(*start),
                            id
                        ));
                        push(format!(
                            "{{\"name\":\"{}\",\"cat\":\"bg-flow\",\"ph\":\"f\",\
                             \"bp\":\"e\",\"pid\":{},\"tid\":{},\"ts\":{},\"id\":{}}}",
                            esc(kind),
                            pid,
                            2 + u64::from(chip),
                            us(fs),
                            id
                        ));
                    }
                }
                TraceEvent::Request {
                    op,
                    seq,
                    issued,
                    done,
                    found,
                    flash_reads,
                    phases,
                } => {
                    push(format!(
                        "{{\"name\":\"{}\",\"cat\":\"request\",\"ph\":\"b\",\
                         \"pid\":{},\"tid\":0,\"ts\":{},\"id\":{}}}",
                        esc(op),
                        pid,
                        us(*issued),
                        seq
                    ));
                    push(format!(
                        "{{\"name\":\"{}\",\"cat\":\"request\",\"ph\":\"e\",\
                         \"pid\":{},\"tid\":0,\"ts\":{},\"id\":{},\
                         \"args\":{{\"found\":{},\"flash_reads\":{},\
                         \"queue_wait\":{},\"meta_read\":{},\"data_read\":{},\
                         \"log_read\":{},\"engine\":{}}}}}",
                        esc(op),
                        pid,
                        us(*done),
                        seq,
                        found,
                        flash_reads,
                        phases.queue_wait,
                        phases.meta_read,
                        phases.data_read,
                        phases.log_read,
                        phases.engine
                    ));
                }
            }
        }
    }
    out.push_str("\n]\n");
    out
}

// ---------------------------------------------------------------------------
// JSONL parsing
// ---------------------------------------------------------------------------

/// Decodes one event line of kind `kind`.
fn read_event(kind: &str, f: &Json) -> Result<TraceEvent, String> {
    Ok(match kind {
        "flash" => TraceEvent::FlashOp {
            op: f.required("op", Json::str)?,
            cause: f.required("cause", Json::str)?,
            chip: f.required("chip", Json::to)?,
            channel: f.required("channel", Json::to)?,
            issued: f.required("issued", Json::to)?,
            start: f.required("start", Json::to)?,
            done: f.required("done", Json::to)?,
            retries: f.required("retries", Json::to)?,
        },
        "span" => TraceEvent::Span {
            kind: f.required("kind", Json::str)?,
            label: f.required("label", Json::str)?,
            level: f.required("level", Json::to)?,
            id: f.required("id", Json::to)?,
            start: f.required("start", Json::to)?,
            end: f.required("end", Json::to)?,
            pages_read: f.required("pages_read", Json::to)?,
            pages_written: f.required("pages_written", Json::to)?,
        },
        "request" => TraceEvent::Request {
            op: f.required("op", Json::str)?,
            seq: f.required("seq", Json::to)?,
            issued: f.required("issued", Json::to)?,
            done: f.required("done", Json::to)?,
            found: f.required("found", Json::to)?,
            flash_reads: f.required("flash_reads", Json::to)?,
            phases: PhaseBreakdown {
                queue_wait: f.required("queue_wait", Json::to)?,
                meta_read: f.required("meta_read", Json::to)?,
                data_read: f.required("data_read", Json::to)?,
                log_read: f.required("log_read", Json::to)?,
                engine: f.required("engine", Json::to)?,
            },
        },
        other => return Err(format!("unknown event kind '{other}'")),
    })
}

/// Streams a JSONL trace document produced by [`write_jsonl`] without
/// keeping it: `visit` sees each point's key at its marker (with `None`),
/// then each of its events with that key, in document order. Only one
/// line is held at a time, so memory does not grow with the trace.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed lines, a missing or incompatible
/// header, or events appearing before the first point marker.
pub fn visit_jsonl(
    src: impl BufRead,
    mut visit: impl FnMut(&str, Option<TraceEvent>),
) -> Result<(), ParseError> {
    json::read_jsonl(src, "trace", TRACE_SCHEMA_VERSION, |point, line| {
        visit(
            point,
            line.map(|(kind, f)| read_event(kind, f)).transpose()?,
        );
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::FlashOp {
                op: "read".into(),
                cause: "host-read".into(),
                chip: 3,
                channel: 1,
                issued: 100,
                start: 150,
                done: 250,
                retries: 0,
            },
            TraceEvent::Span {
                kind: "compaction".into(),
                label: "keep".into(),
                level: 1,
                id: 7,
                start: 90,
                end: 900,
                pages_read: 12,
                pages_written: 8,
            },
            TraceEvent::FlashOp {
                op: "program".into(),
                cause: "compaction-write".into(),
                chip: 0,
                channel: 0,
                issued: 200,
                start: 400,
                done: 700,
                retries: 1,
            },
            TraceEvent::Request {
                op: "get".into(),
                seq: 0,
                issued: 100,
                done: 260,
                found: true,
                flash_reads: 1,
                phases: PhaseBreakdown {
                    queue_wait: 50,
                    meta_read: 0,
                    data_read: 100,
                    log_read: 0,
                    engine: 10,
                },
            },
        ]
    }

    #[test]
    fn phase_breakdown_residual_is_exact() {
        let mut pb = PhaseBreakdown {
            meta_read: 10,
            data_read: 20,
            log_read: 5,
            engine: 3,
            ..PhaseBreakdown::default()
        };
        pb.finish(100);
        assert_eq!(pb.queue_wait, 62);
        assert_eq!(pb.total(), 100);
        // Attribution overshooting latency clamps to zero instead of
        // wrapping.
        let mut pb2 = PhaseBreakdown {
            engine: 10,
            ..PhaseBreakdown::default()
        };
        pb2.finish(5);
        assert_eq!(pb2.queue_wait, 0);
    }

    /// Collects a JSONL trace through [`visit_jsonl`] into the `(point
    /// key, events)` pairs [`write_jsonl`] takes.
    fn collect(doc: &str) -> Vec<(String, Vec<TraceEvent>)> {
        let mut points: Vec<(String, Vec<TraceEvent>)> = Vec::new();
        visit_jsonl(doc.as_bytes(), |point, event| {
            match (event, points.last_mut()) {
                (Some(e), Some((_, events))) => events.push(e),
                _ => points.push((point.to_string(), Vec::new())),
            }
        })
        .unwrap();
        points
    }

    #[test]
    fn jsonl_roundtrips() {
        let doc = write_jsonl(&[("fig10/Zippy/AnyKey+".to_string(), sample_events())]);
        let parsed = collect(&doc);
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].0, "fig10/Zippy/AnyKey+");
        assert_eq!(parsed[0].1, sample_events());
        // Re-serializing the parse gives the same bytes.
        assert_eq!(write_jsonl(&parsed), doc);
    }

    #[test]
    fn jsonl_escapes_point_keys() {
        let doc = write_jsonl(&[("we\"ird\nkey".to_string(), Vec::new())]);
        let parsed = collect(&doc);
        assert_eq!(parsed[0].0, "we\"ird\nkey");
    }

    #[test]
    fn chrome_export_has_tracks_and_flows() {
        let doc = write_chrome(&[("p0".to_string(), sample_events())]);
        // Chip tracks are announced as thread_name metadata.
        assert!(doc.contains("\"name\":\"chip 3\""));
        assert!(doc.contains("\"name\":\"chip 0\""));
        // The compaction span links to its compaction-write op.
        assert!(doc.contains("\"ph\":\"s\""));
        assert!(doc.contains("\"ph\":\"f\""));
        // Request async pair present.
        assert!(doc.contains("\"ph\":\"b\""));
        assert!(doc.contains("\"ph\":\"e\""));
        // Microsecond timestamps keep sub-us precision as decimals.
        assert!(doc.contains("\"ts\":0.150"));
        // Valid JSON array bracketing (cheap sanity, not a JSON parser).
        assert!(doc.starts_with("[\n"));
        assert!(doc.trim_end().ends_with(']'));
    }

    #[test]
    fn sort_events_is_stable_by_timestamp() {
        let mut evs = sample_events();
        sort_events(&mut evs);
        let ts: Vec<u64> = evs.iter().map(TraceEvent::ts).collect();
        assert_eq!(ts, vec![90, 100, 100, 200]);
        // The two ts=100 events keep their original relative order
        // (flash op recorded before the request).
        assert!(matches!(evs[1], TraceEvent::FlashOp { .. }));
        assert!(matches!(evs[2], TraceEvent::Request { .. }));
    }
}
