//! The host driver: a closed-loop, queue-depth-64 request pipeline over
//! virtual time (the paper's uNVMe + FIO setup, Section 5.1).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use anykey_flash::{FlashCounters, Ns, OpCause, SECOND};
use anykey_metrics::timeline::{StateSample, WafPoint};
use anykey_metrics::trace::{sort_events, PhaseHists, TraceEvent};
use anykey_metrics::LatencyHist;
use anykey_workload::Op;

use crate::engine::KvEngine;
use crate::error::KvError;

/// The paper's I/O queue depth: 64 outstanding requests, enough to keep
/// all 64 flash chips busy.
pub const DEFAULT_QUEUE_DEPTH: usize = 64;

/// Maximum per-GET flash reads tracked in the Figure 11b histogram.
pub const MAX_TRACKED_READS: usize = 9;

/// Target number of points on the always-on cumulative-WAF curve every
/// run records (op-stride sampled, so the cost is ~64 counter snapshots
/// per stage regardless of run length).
pub const WAF_CURVE_POINTS: u64 = 64;

/// Configuration of periodic state sampling: the virtual-time interval
/// plus the two workload constants the cumulative-WAF computation needs
/// (so a sample's `cum_waf` uses exactly the arithmetic `summary.json`'s
/// `waf` field uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleCfg {
    /// Virtual ns between samples (must be > 0 to sample).
    pub interval_ns: Ns,
    /// Logical bytes one written key-value pair contributes.
    pub pair_bytes: u64,
    /// Usable payload bytes per flash page.
    pub page_payload: u64,
}

/// Everything measured over one execution stage.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Latencies of GET operations.
    pub reads: LatencyHist,
    /// Latencies of PUT/DELETE operations.
    pub writes: LatencyHist,
    /// Latencies of SCAN operations.
    pub scans: LatencyHist,
    /// Operations executed.
    pub ops: u64,
    /// GETs that found their key.
    pub found: u64,
    /// GETs that missed.
    pub not_found: u64,
    /// Virtual time the stage started at.
    pub start: Ns,
    /// Virtual time the last request completed at.
    pub end: Ns,
    /// Flash traffic of the stage (counters delta).
    pub counters: FlashCounters,
    /// Histogram of flash reads per GET: index *i* counts GETs that needed
    /// *i* flash page reads (the last bucket aggregates ≥ MAX_TRACKED_READS)
    /// — the paper's Figure 11b.
    pub reads_per_get: [u64; MAX_TRACKED_READS + 1],
    /// Per-phase latency histograms over every executed request (one
    /// sample per phase per request); the source of `summary.json`'s
    /// `phase_*` fields. Always on — this is cheap aggregate arithmetic,
    /// unlike raw event tracing.
    pub phases: PhaseHists,
    /// Op-stride cumulative-WAF curve (~[`WAF_CURVE_POINTS`] points plus a
    /// final point that matches `counters` exactly). Always on — it feeds
    /// the steady-state fields of `summary.json` whether or not timeline
    /// export is enabled, keeping the summary identical either way.
    pub waf_curve: Vec<WafPoint>,
}

impl RunReport {
    /// A report of no operations, starting and ending at virtual time
    /// `at`.
    pub fn empty(at: Ns) -> Self {
        Self {
            reads: LatencyHist::new(),
            writes: LatencyHist::new(),
            scans: LatencyHist::new(),
            ops: 0,
            found: 0,
            not_found: 0,
            start: at,
            end: at,
            counters: FlashCounters::new(),
            reads_per_get: [0; MAX_TRACKED_READS + 1],
            phases: PhaseHists::new(),
            waf_curve: Vec::new(),
        }
    }

    /// Operations per virtual second.
    pub fn iops(&self) -> f64 {
        let span = self.end.saturating_sub(self.start).max(1);
        self.ops as f64 * SECOND as f64 / span as f64
    }

    /// Read-retry steps the media needed during the stage (0 on perfect
    /// media; nonzero only under fault injection).
    pub fn media_retries(&self) -> u64 {
        self.counters.total_retry_reads()
    }

    /// Mean flash reads per GET.
    pub fn mean_reads_per_get(&self) -> f64 {
        let total: u64 = self.reads_per_get.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let weighted: u64 = self
            .reads_per_get
            .iter()
            .enumerate()
            .map(|(i, &c)| i as u64 * c)
            .sum();
        weighted as f64 / total as f64
    }
}

/// Drives `n_ops` operations from `ops` through `engine` with a closed-loop
/// pipeline of `queue_depth` outstanding requests.
///
/// Issue times are the completion times of freed pipeline slots, so
/// foreground requests queue behind background compaction exactly as they
/// would on hardware.
///
/// # Errors
///
/// Returns [`KvError::DeviceFull`] if the device fills mid-run.
pub fn run(
    engine: &mut dyn KvEngine,
    ops: impl Iterator<Item = Op>,
    n_ops: u64,
    queue_depth: usize,
) -> Result<RunReport, KvError> {
    run_inner(engine, ops, n_ops, queue_depth, None, None)
}

/// Like [`run`], optionally recording on the side: with `trace`, the
/// merged event stream — flash op lifecycles and engine spans from the
/// engine, one request event per executed operation from the pipeline — in
/// canonical timestamp order; with `sample`, a [`StateSample`] at every
/// `interval_ns` of virtual time plus one at the start and one at the end
/// of the stage. Returns the report plus whichever of the two was asked
/// for.
///
/// Both are pure observation (neither touches the virtual clock), so the
/// report is identical to what [`run`] would have produced.
///
/// # Errors
///
/// Returns [`KvError::DeviceFull`] if the device fills mid-run.
#[allow(clippy::type_complexity)]
pub fn run_with(
    engine: &mut dyn KvEngine,
    ops: impl Iterator<Item = Op>,
    n_ops: u64,
    queue_depth: usize,
    trace: bool,
    sample: Option<&SampleCfg>,
) -> Result<(RunReport, Option<Vec<TraceEvent>>, Option<Vec<StateSample>>), KvError> {
    let mut events = trace.then(Vec::new);
    let mut samples = sample.map(|_| Vec::new());
    if trace {
        engine.set_tracing(true);
    }
    let report = run_inner(
        engine,
        ops,
        n_ops,
        queue_depth,
        events.as_mut(),
        sample.zip(samples.as_mut()),
    );
    if let Some(events) = events.as_mut() {
        let mut merged = engine.take_trace();
        engine.set_tracing(false);
        merged.append(events);
        sort_events(&mut merged);
        *events = merged;
    }
    Ok((report?, events, samples))
}

fn op_name(op: &Op) -> &'static str {
    match op {
        Op::Get { .. } => "get",
        Op::Put { .. } => "put",
        Op::Delete { .. } => "delete",
        Op::Scan { .. } => "scan",
    }
}

/// The interval state of periodic sampling inside [`run_inner`]: the next
/// grid boundary plus the per-interval op count and latency histograms
/// that reset on every emitted sample.
struct Sampler<'a> {
    cfg: &'a SampleCfg,
    out: &'a mut Vec<StateSample>,
    next_ts: Ns,
    interval_start: Ns,
    interval_ops: u64,
    interval_reads: LatencyHist,
    interval_writes: LatencyHist,
    seq: u64,
}

impl Sampler<'_> {
    /// Emits one sample at virtual time `ts`: engine state from
    /// [`KvEngine::sample_state`], cumulative traffic as the counter delta
    /// since the stage began, and the interval metrics gathered since the
    /// previous sample (which this call resets).
    fn emit(&mut self, engine: &dyn KvEngine, before: &FlashCounters, report: &RunReport, ts: Ns) {
        let delta = engine.counters().since(before);
        let mut s = engine.sample_state();
        s.seq = self.seq;
        s.ts_ns = ts;
        s.interval_ops = self.interval_ops;
        let span = ts.saturating_sub(self.interval_start).max(1);
        s.interval_iops = self.interval_ops as f64 * SECOND as f64 / span as f64;
        s.interval_read_p99_ns = self.interval_reads.p99();
        s.interval_write_p99_ns = self.interval_writes.p99();
        s.host_reads = delta.reads(OpCause::HostRead);
        s.host_writes = delta.writes(OpCause::HostWrite);
        s.meta_reads = delta.reads(OpCause::MetaRead);
        s.meta_writes = delta.writes(OpCause::MetaWrite);
        s.comp_reads = delta.reads(OpCause::CompactionRead);
        s.comp_writes = delta.writes(OpCause::CompactionWrite);
        s.gc_reads = delta.reads(OpCause::GcRead);
        s.gc_writes = delta.writes(OpCause::GcWrite);
        s.log_reads = delta.reads(OpCause::LogRead);
        s.log_writes = delta.writes(OpCause::LogWrite);
        s.erases = delta.erases();
        s.cum_waf = waf_from(
            delta.total_writes(),
            report.writes.count(),
            self.cfg.pair_bytes,
            self.cfg.page_payload,
        );
        let read_ops = report.reads.count();
        s.cum_raf = if read_ops > 0 {
            delta.total_reads() as f64 / read_ops as f64
        } else {
            0.0
        };
        self.seq += 1;
        self.interval_start = ts;
        self.interval_ops = 0;
        self.interval_reads = LatencyHist::new();
        self.interval_writes = LatencyHist::new();
        self.out.push(s);
    }
}

/// Cumulative write amplification with exactly the arithmetic the bench
/// scheduler uses for `summary.json`'s `waf` field: flash programs over
/// the minimal pages for `write_ops` pairs of `pair_bytes` logical bytes.
/// Zero before the first measured write (the scheduler substitutes the
/// fill's live bytes there; a mid-run sample has no such substitute).
pub fn waf_from(flash_writes: u64, write_ops: u64, pair_bytes: u64, page_payload: u64) -> f64 {
    if write_ops == 0 {
        return 0.0;
    }
    let payload = page_payload.max(1);
    let denom = (write_ops * pair_bytes).div_ceil(payload).max(1);
    flash_writes as f64 / denom as f64
}

fn run_inner(
    engine: &mut dyn KvEngine,
    ops: impl Iterator<Item = Op>,
    n_ops: u64,
    queue_depth: usize,
    mut trace: Option<&mut Vec<TraceEvent>>,
    sampler: Option<(&SampleCfg, &mut Vec<StateSample>)>,
) -> Result<RunReport, KvError> {
    let start = engine.horizon();
    let mut report = RunReport::empty(start);
    let counters_before = engine.counters();
    let mut inflight: BinaryHeap<Reverse<Ns>> = BinaryHeap::new();
    let curve_stride = n_ops.div_ceil(WAF_CURVE_POINTS).max(1);
    let mut sampler = sampler.map(|(cfg, out)| Sampler {
        cfg,
        out,
        next_ts: start + cfg.interval_ns.max(1),
        interval_start: start,
        interval_ops: 0,
        interval_reads: LatencyHist::new(),
        interval_writes: LatencyHist::new(),
        seq: 0,
    });
    if let Some(s) = sampler.as_mut() {
        // The seq-0 sample captures the post-warm-up baseline state.
        s.emit(&*engine, &counters_before, &report, start);
    }

    for op in ops.take(n_ops as usize) {
        let at = if inflight.len() >= queue_depth {
            inflight
                .pop()
                .ok_or(KvError::Internal {
                    context: "full pipeline with no in-flight request",
                })?
                .0
        } else {
            start
        };
        let outcome = engine.execute(&op, at)?;
        let latency = outcome.latency();
        match op {
            Op::Get { .. } => {
                report.reads.record(latency);
                if outcome.found {
                    report.found += 1;
                } else {
                    report.not_found += 1;
                }
                let bucket = (outcome.flash_reads as usize).min(MAX_TRACKED_READS);
                report.reads_per_get[bucket] += 1;
            }
            Op::Put { .. } | Op::Delete { .. } => report.writes.record(latency),
            Op::Scan { .. } => report.scans.record(latency),
        }
        report.phases.record(&outcome.phases);
        if let Some(events) = trace.as_deref_mut() {
            events.push(TraceEvent::Request {
                op: op_name(&op).to_string(),
                seq: report.ops,
                issued: outcome.issued_at,
                done: outcome.done_at,
                found: outcome.found,
                flash_reads: outcome.flash_reads,
                phases: outcome.phases,
            });
        }
        report.ops += 1;
        report.end = report.end.max(outcome.done_at);
        inflight.push(Reverse(outcome.done_at));
        if report.ops.is_multiple_of(curve_stride) {
            report.waf_curve.push(WafPoint {
                ts_ns: report.end,
                write_ops: report.writes.count(),
                flash_writes: engine.counters().since(&counters_before).total_writes(),
            });
        }
        if let Some(s) = sampler.as_mut() {
            match op {
                Op::Get { .. } => s.interval_reads.record(latency),
                Op::Put { .. } | Op::Delete { .. } => s.interval_writes.record(latency),
                Op::Scan { .. } => {}
            }
            s.interval_ops += 1;
            while s.next_ts <= report.end {
                let ts = s.next_ts;
                s.emit(&*engine, &counters_before, &report, ts);
                s.next_ts = ts + s.cfg.interval_ns.max(1);
            }
        }
    }
    report.counters = engine.counters().since(&counters_before);
    if report.ops > 0 {
        let last = WafPoint {
            ts_ns: report.end,
            write_ops: report.writes.count(),
            flash_writes: report.counters.total_writes(),
        };
        if report.waf_curve.last() != Some(&last) {
            report.waf_curve.push(last);
        }
    }
    if let Some(s) = sampler.as_mut() {
        // A closing sample pinned to the stage end, so the series' final
        // cum_waf matches the report's counters exactly.
        if s.out.last().map(|p| p.ts_ns) != Some(report.end) {
            s.emit(&*engine, &counters_before, &report, report.end);
        }
    }
    Ok(report)
}

/// The warm-up stage (paper Section 5.1): inserts every key of the
/// workload once (shuffled), bringing the device to steady state, then
/// resets the flash counters.
///
/// # Errors
///
/// Returns [`KvError::DeviceFull`] if the keyspace does not fit the device.
pub fn warm_up(
    engine: &mut dyn KvEngine,
    spec: anykey_workload::WorkloadSpec,
    keyspace: u64,
    seed: u64,
) -> Result<(), KvError> {
    let fill = anykey_workload::ops::fill_ops(spec, keyspace, seed);
    run(engine, fill, keyspace, DEFAULT_QUEUE_DEPTH)?;
    engine.reset_counters();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DeviceConfig, EngineKind};
    use anykey_workload::{spec, OpStreamBuilder};

    #[test]
    fn pipeline_reports_iops_and_latencies() {
        let mut dev = DeviceConfig::builder()
            .capacity_bytes(64 << 20)
            .engine(EngineKind::AnyKey)
            .key_len(20)
            .build()
            .build_engine();
        let w = spec::by_name("Dedup").unwrap();
        warm_up(dev.as_mut(), w, 20_000, 1).unwrap();
        let ops = OpStreamBuilder::new(w, 20_000).seed(2).build();
        let report = run(dev.as_mut(), ops, 5_000, DEFAULT_QUEUE_DEPTH).unwrap();
        assert_eq!(report.ops, 5_000);
        assert!(report.iops() > 0.0);
        assert!(report.reads.count() > 3_000);
        assert!(report.writes.count() > 500);
        // Warm-up inserted every key: GETs should overwhelmingly hit.
        assert!(report.found > report.not_found * 50);
        assert!(report.end > report.start);
    }

    #[test]
    fn phase_breakdowns_cover_every_request() {
        let mut dev = DeviceConfig::builder()
            .capacity_bytes(64 << 20)
            .engine(EngineKind::AnyKey)
            .key_len(20)
            .build()
            .build_engine();
        let w = spec::by_name("Dedup").unwrap();
        warm_up(dev.as_mut(), w, 10_000, 5).unwrap();
        let ops = OpStreamBuilder::new(w, 10_000).seed(6).build();
        let report = run(dev.as_mut(), ops, 2_000, DEFAULT_QUEUE_DEPTH).unwrap();
        // One sample per phase per request, and total phase time equals
        // total latency (the breakdown is exact, not approximate).
        for (_, h) in report.phases.named() {
            assert_eq!(h.count(), report.ops);
        }
        let latency_total = report.reads.total() + report.writes.total() + report.scans.total();
        let phase_total: u64 = report.phases.named().iter().map(|(_, h)| h.total()).sum();
        assert_eq!(phase_total, latency_total);
    }

    #[test]
    fn per_op_phases_sum_to_latency() {
        let mut dev = DeviceConfig::builder()
            .capacity_bytes(64 << 20)
            .engine(EngineKind::Pink)
            .key_len(20)
            .build()
            .build_engine();
        let w = spec::by_name("Dedup").unwrap();
        warm_up(dev.as_mut(), w, 5_000, 7).unwrap();
        let ops = OpStreamBuilder::new(w, 5_000).seed(8).build();
        for op in ops.take(500) {
            let at = dev.horizon();
            let outcome = dev.execute(&op, at).unwrap();
            assert_eq!(
                outcome.phases.total(),
                outcome.latency(),
                "phase fields must sum exactly to the op latency"
            );
        }
    }

    #[test]
    fn run_traced_report_matches_untraced_run() {
        for kind in [EngineKind::AnyKey, EngineKind::Pink] {
            let build = || {
                DeviceConfig::builder()
                    .capacity_bytes(64 << 20)
                    .engine(kind)
                    .key_len(20)
                    .build()
                    .build_engine()
            };
            let w = spec::by_name("Dedup").unwrap();
            let mut a = build();
            warm_up(a.as_mut(), w, 10_000, 9).unwrap();
            let ops = OpStreamBuilder::new(w, 10_000).seed(10).build();
            let plain = run(a.as_mut(), ops, 1_000, DEFAULT_QUEUE_DEPTH).unwrap();

            let mut b = build();
            warm_up(b.as_mut(), w, 10_000, 9).unwrap();
            let ops = OpStreamBuilder::new(w, 10_000).seed(10).build();
            let (traced, events, _) =
                run_with(b.as_mut(), ops, 1_000, DEFAULT_QUEUE_DEPTH, true, None).unwrap();
            let events = events.unwrap();

            // Tracing is pure observation: identical timings either way.
            assert_eq!(traced.ops, plain.ops, "{kind:?}: op count changed");
            assert_eq!(traced.start, plain.start, "{kind:?}");
            assert_eq!(traced.end, plain.end, "{kind:?}: virtual end changed");
            assert_eq!(traced.reads.total(), plain.reads.total(), "{kind:?}");
            assert_eq!(traced.writes.total(), plain.writes.total(), "{kind:?}");

            // One request event per op, and the stream is timestamp-sorted.
            let requests = events
                .iter()
                .filter(|e| matches!(e, TraceEvent::Request { .. }))
                .count() as u64;
            assert_eq!(requests, traced.ops, "{kind:?}: one request event per op");
            assert!(
                events.windows(2).all(|w| w[0].ts() <= w[1].ts()),
                "{kind:?}"
            );
            // Flash-op events appear too.
            assert!(
                events
                    .iter()
                    .any(|e| matches!(e, TraceEvent::FlashOp { .. })),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn sampled_run_is_pure_observation_and_curve_matches_counters() {
        let build = || {
            DeviceConfig::builder()
                .capacity_bytes(64 << 20)
                .engine(EngineKind::AnyKey)
                .key_len(20)
                .build()
                .build_engine()
        };
        let w = spec::by_name("Dedup").unwrap();
        let mut a = build();
        warm_up(a.as_mut(), w, 10_000, 9).unwrap();
        let ops = OpStreamBuilder::new(w, 10_000).seed(10).build();
        let plain = run(a.as_mut(), ops, 2_000, DEFAULT_QUEUE_DEPTH).unwrap();

        let mut b = build();
        warm_up(b.as_mut(), w, 10_000, 9).unwrap();
        let ops = OpStreamBuilder::new(w, 10_000).seed(10).build();
        let cfg = SampleCfg {
            interval_ns: 50_000,
            pair_bytes: 1_044,
            page_payload: 32_704,
        };
        let (sampled, _, samples) = run_with(
            b.as_mut(),
            ops,
            2_000,
            DEFAULT_QUEUE_DEPTH,
            false,
            Some(&cfg),
        )
        .unwrap();
        let samples = samples.unwrap();

        // Sampling is pure observation: identical timings and counters.
        assert_eq!(sampled.ops, plain.ops);
        assert_eq!(sampled.end, plain.end);
        assert_eq!(sampled.reads.total(), plain.reads.total());
        assert_eq!(sampled.counters, plain.counters);
        assert_eq!(sampled.waf_curve, plain.waf_curve);

        // Baseline + closing samples, grid in between, monotone seq/ts.
        assert!(samples.len() >= 3, "expected a grid of samples");
        assert_eq!(samples[0].seq, 0);
        assert_eq!(samples[0].ts_ns, sampled.start);
        assert!(samples
            .windows(2)
            .all(|w| w[0].seq + 1 == w[1].seq && w[0].ts_ns <= w[1].ts_ns));
        let last = samples.last().unwrap();
        assert_eq!(last.ts_ns, sampled.end);
        // The closing sample's cumulative traffic equals the report delta
        // bit-for-bit, so its WAF is the summary's WAF.
        assert_eq!(
            last.host_writes
                + last.meta_writes
                + last.comp_writes
                + last.gc_writes
                + last.log_writes,
            sampled.counters.total_writes()
        );
        assert_eq!(
            last.cum_waf,
            waf_from(
                sampled.counters.total_writes(),
                sampled.writes.count(),
                cfg.pair_bytes,
                cfg.page_payload
            )
        );

        // Cumulative per-cause counters are monotone non-decreasing.
        for w in samples.windows(2) {
            let (p, c) = (&w[0], &w[1]);
            assert!(c.host_reads >= p.host_reads && c.host_writes >= p.host_writes);
            assert!(c.comp_writes >= p.comp_writes && c.gc_writes >= p.gc_writes);
            assert!(c.log_writes >= p.log_writes && c.erases >= p.erases);
        }

        // The always-on WAF curve closes on the report counters too.
        let tail = plain.waf_curve.last().unwrap();
        assert_eq!(tail.flash_writes, plain.counters.total_writes());
        assert_eq!(tail.write_ops, plain.writes.count());
        assert_eq!(tail.ts_ns, plain.end);
    }

    #[test]
    fn reads_per_get_histogram_accumulates() {
        let mut dev = DeviceConfig::builder()
            .capacity_bytes(64 << 20)
            .engine(EngineKind::AnyKeyPlus)
            .key_len(48)
            .build()
            .build_engine();
        let w = spec::by_name("ZippyDB").unwrap();
        warm_up(dev.as_mut(), w, 10_000, 3).unwrap();
        let ops = OpStreamBuilder::new(w, 10_000).seed(4).build();
        let report = run(dev.as_mut(), ops, 2_000, DEFAULT_QUEUE_DEPTH).unwrap();
        let total: u64 = report.reads_per_get.iter().sum();
        assert_eq!(total, report.found + report.not_found);
        assert!(report.mean_reads_per_get() < MAX_TRACKED_READS as f64);
    }
}
