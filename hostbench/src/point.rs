//! One simulated point, run once: set-up, a load phase and a run phase,
//! each timed on the host clock and checked for correctness.

use std::iter::once;
use std::time::Instant;

use anykey_core::runner::{self, DEFAULT_QUEUE_DEPTH, MAX_TRACKED_READS};
use anykey_core::{KvEngine, KvError, MetadataStats, RunReport};
use anykey_flash::{FlashCounters, Ns, OpCause};
use anykey_metrics::trace::{PhaseHists, TraceEvent};
use anykey_metrics::LatencyHist;
use anykey_workload::Op;

use crate::adapters::{EngineStats, TimedEngine, TimedOps};
use crate::plan::Plan;

/// Inserts between two invariant audits in the fill's run phase. The
/// audit after the final, rejected insert is not a gate (see
/// [`Phase::note`]), so these checkpoints are what audits the GC regime.
pub const FILL_AUDIT_EVERY: u64 = 32_768;

/// The outcome of one phase of one point.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Operations the phase attempted. A failed phase counts all of them
    /// as failed; the fill's run phase counts its final, rejected insert.
    pub ops: u64,
    /// Phase-clock seconds from the first op to the last completion.
    pub wall_s: f64,
    /// Phase-clock seconds of each run of [`crate::adapters::CHUNK`] ops,
    /// in order; they add up to `wall_s`.
    pub chunks_s: Vec<f64>,
    /// Hash of everything the simulation produced in the phase.
    pub digest: u64,
    /// Why the phase failed its correctness gate, if it did.
    pub failure: Option<String>,
    /// A check that failed outside the gate: `check_invariants()` after
    /// the fill's rejected insert. `DeviceFull` can strike mid-compaction
    /// and leave the value log's live bytes out of step with the levels.
    pub note: Option<String>,
    /// The runner's report; `None` for the untraced warm-up, since
    /// `runner::warm_up` returns none.
    pub report: Option<RunReport>,
    /// Metadata snapshot at the end of the phase.
    pub meta: MetadataStats,
    /// Host seconds of one `check_invariants()` at the end of the phase.
    pub audit_s: f64,
    /// Host time inside `execute`, by class and op (traced runs only;
    /// empty otherwise).
    pub engine: EngineStats,
    /// Host ns inside the op iterator's `next` (traced runs only).
    pub gen_ns: u64,
}

/// One point, run once.
#[derive(Debug, Clone)]
pub struct PointRun {
    /// Whether the engine and op streams were traced.
    pub traced: bool,
    /// Host seconds to build the op generators (the Zipfian ζ precompute).
    pub gen_build_s: f64,
    /// Resident memory right after set-up, in MiB.
    pub rss_after_setup_mb: f64,
    /// Resident memory right after the load phase, in MiB.
    pub rss_after_load_mb: f64,
    /// Peak resident memory of the process so far, in MiB.
    pub peak_rss_mb: f64,
    /// The load phase: warm-up inserts, or the fill's first inserts.
    pub load: Phase,
    /// The run phase: the measured mix, or the rest of the fill.
    pub run: Phase,
    /// Traced runs only: the adapter's kept spans (host-ns timestamps).
    pub spans: Vec<TraceEvent>,
}

impl PointRun {
    /// Whether both phases passed their correctness gates.
    pub fn ok(&self) -> bool {
        self.load.failure.is_none() && self.run.failure.is_none()
    }
}

/// Resident memory figures of this process, in MiB: `(current, peak)`.
pub fn rss_mb() -> (f64, f64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |name: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    };
    (field("VmRSS:"), field("VmHWM:"))
}

/// Runs `plan` once. With `traced`, every `execute` and `next` call is
/// timed (span timestamps relative to `origin`); the simulation, and
/// therefore every digest, is the same either way.
pub fn run_point(plan: &Plan, traced: bool, origin: Instant) -> PointRun {
    let mut dev = plan.cfg.build_engine();
    let t_gen = Instant::now();
    let mixed = (!plan.workload.is_fill()).then(|| plan.run_stream());
    let gen_build_s = t_gen.elapsed().as_secs_f64();
    let rss_after_setup_mb = rss_mb().0;

    let mut te = TimedEngine::new(dev.as_mut(), traced, origin);
    let mut fill = TimedOps::new(plan.load_stream(), traced);
    let mut load = measure(&mut te, plan.load_ops, |te| match (&mixed, traced) {
        (Some(_), false) => runner::warm_up(te, plan.spec, plan.load_ops, plan.seed)
            .map(|()| Ran::unhashed(plan.load_ops, None))
            .map_err(|e| format!("warm-up failed: {e}")),
        (Some(_), true) => {
            // `runner::warm_up` with its op stream exposed to the timing
            // adapter; the digests show the two agree.
            let report = runner::run(te, &mut fill, plan.load_ops, DEFAULT_QUEUE_DEPTH);
            te.reset_counters();
            report
                .map(|r| Ran::unhashed(plan.load_ops, Some(r)))
                .map_err(|e| format!("warm-up failed: {e}"))
        }
        (None, _) => Ok(fill_loop(te, &mut fill, plan.load_ops, false)),
    });
    load.gen_ns = std::mem::take(&mut fill.ns);
    let rss_after_load_mb = rss_mb().0;

    let run = if load.failure.is_some() {
        let ops = if plan.workload.is_fill() {
            1
        } else {
            plan.run_ops
        };
        measure(&mut te, ops, |_| Err("load phase failed".to_string()))
    } else if let Some(ops) = mixed {
        let mut ops = TimedOps::new(ops, traced);
        let mut run = measure(&mut te, plan.run_ops, |te| {
            let report = runner::run(te, &mut ops, plan.run_ops, DEFAULT_QUEUE_DEPTH)
                .map_err(|e| format!("run failed: {e}"))?;
            // Every key was warmed and the mix has no deletes, so every
            // GET must find its key.
            let failure = (report.not_found > 0)
                .then(|| format!("{} GETs missed a warmed key", report.not_found));
            Ok(Ran {
                failure,
                ..Ran::hashed(plan.run_ops, report)
            })
        });
        run.gen_ns = ops.ns;
        run
    } else {
        let mut run = measure(&mut te, 1, |te| {
            Ok(fill_loop(te, &mut fill, u64::MAX, true))
        });
        run.gen_ns = fill.ns;
        run
    };
    PointRun {
        traced,
        gen_build_s,
        rss_after_setup_mb,
        rss_after_load_mb,
        peak_rss_mb: rss_mb().1,
        load,
        run,
        spans: te.into_spans(),
    }
}

/// What a phase body produced, before the end-of-phase gate.
struct Ran {
    ops: u64,
    report: Option<RunReport>,
    /// Whether `report` enters the digest. The untraced warm-up has no
    /// report, so a warm-up's digest covers its end state only.
    hashed: bool,
    failure: Option<String>,
    /// The fill ended at `DeviceFull`, so the end-of-phase audit is
    /// reported as a note; the in-phase checkpoints were the gate.
    ended_full: bool,
}

impl Ran {
    fn unhashed(ops: u64, report: Option<RunReport>) -> Ran {
        Ran {
            ops,
            report,
            hashed: false,
            failure: None,
            ended_full: false,
        }
    }

    fn hashed(ops: u64, report: RunReport) -> Ran {
        Ran {
            hashed: true,
            ..Ran::unhashed(ops, Some(report))
        }
    }
}

/// Times `body` on the phase clock, then audits the engine and hashes the
/// end state. `planned` is the op count a body error fails.
fn measure(
    te: &mut TimedEngine<'_>,
    planned: u64,
    body: impl FnOnce(&mut TimedEngine<'_>) -> Result<Ran, String>,
) -> Phase {
    let start = te.clock();
    let ran = body(te);
    let end = te.clock();
    let (engine, marks) = te.take_phase();
    let clock: Vec<f64> = once(start).chain(marks).chain(once(end)).collect();
    let t = Instant::now();
    let audit = te
        .check_invariants()
        .err()
        .map(|e| format!("audit failed: {e}"));
    let audit_s = t.elapsed().as_secs_f64();
    let meta = te.metadata();
    let mut phase = Phase {
        ops: planned,
        wall_s: end - start,
        chunks_s: clock.windows(2).map(|w| w[1] - w[0]).collect(),
        digest: 0,
        failure: None,
        note: None,
        report: None,
        meta,
        audit_s,
        engine,
        gen_ns: 0,
    };
    match ran {
        Ok(ran) => {
            let hashed = ran.report.as_ref().filter(|_| ran.hashed);
            phase.digest = digest(hashed, te.horizon(), &meta);
            phase.ops = ran.ops;
            phase.report = ran.report;
            if ran.ended_full {
                phase.failure = ran.failure;
                phase.note = audit.map(|a| format!("after DeviceFull: {a}"));
            } else {
                phase.failure = ran.failure.or(audit);
            }
        }
        Err(why) => phase.failure = Some(why),
    }
    phase
}

/// Inserts ops from `ops` one at a time at the device horizon (the
/// Figure 14 fill loop), at most `limit` of them. With `until_full`, the
/// phase ends at the first `DeviceFull`, its expected end, and audits the
/// engine every [`FILL_AUDIT_EVERY`] inserts on the way; any other error,
/// a failed audit, or running dry fails it.
fn fill_loop(
    te: &mut TimedEngine<'_>,
    ops: &mut dyn Iterator<Item = Op>,
    limit: u64,
    until_full: bool,
) -> Ran {
    let start = te.horizon();
    let before = te.counters();
    let mut writes = LatencyHist::new();
    let mut phases = PhaseHists::new();
    let mut end = start;
    let mut stop = None;
    let mut audit = None;
    for op in ops.take(usize::try_from(limit).unwrap_or(usize::MAX)) {
        let at = te.horizon();
        match te.execute(&op, at) {
            Ok(o) => {
                writes.record(o.latency());
                phases.record(&o.phases);
                end = end.max(o.done_at);
            }
            Err(e) => {
                stop = Some(e);
                break;
            }
        }
        if until_full && writes.count().is_multiple_of(FILL_AUDIT_EVERY) {
            if let Err(e) = te.paused(|e| e.check_invariants()) {
                audit = Some(format!(
                    "audit after {} inserts failed: {e}",
                    writes.count()
                ));
                break;
            }
        }
    }
    let done = writes.count();
    let ended_full = until_full && stop == Some(KvError::DeviceFull);
    let failure = audit.or(match (stop, until_full) {
        (Some(KvError::DeviceFull), true) => None,
        (None, true) => Some("fill stream ran dry before DeviceFull".to_string()),
        (None, false) if done == limit => None,
        (None, false) => Some(format!("fill stream ran dry after {done} inserts")),
        (Some(e), _) => Some(format!("insert {done} failed: {e}")),
    });
    let report = RunReport {
        writes,
        ops: done,
        end,
        counters: te.counters().since(&before),
        phases,
        ..empty_report(start)
    };
    Ran {
        failure,
        ended_full,
        // The fill's run phase attempts one more insert than it completes:
        // the one `DeviceFull` rejects.
        ..Ran::hashed(if until_full { done + 1 } else { limit }, report)
    }
}

/// A report of no operations, anchored at virtual time `at`.
pub fn empty_report(at: Ns) -> RunReport {
    RunReport {
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

/// FNV-1a over the little-endian bytes of `words`.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn counter_words(c: &FlashCounters) -> Vec<u64> {
    let mut v: Vec<u64> = OpCause::ALL
        .iter()
        .flat_map(|&cause| [c.reads(cause), c.writes(cause)])
        .collect();
    v.push(c.erases());
    v
}

fn meta_words(m: &MetadataStats) -> [u64; 16] {
    [
        m.level_list_bytes,
        m.level_list_flash_bytes,
        m.hash_list_total_bytes,
        m.hash_list_resident_bytes,
        m.meta_segment_dram_bytes,
        m.meta_segment_flash_bytes,
        m.dram_capacity,
        m.dram_used,
        m.levels as u64,
        m.live_unique_bytes,
        m.value_log_used_bytes,
        m.retry_reads,
        m.program_fails,
        m.erase_fails,
        m.retired_blocks,
        m.free_blocks,
    ]
}

/// The simulation digest of one phase: ops, GETs found, virtual span,
/// per-cause flash counters, latency-histogram counts, totals and p99s,
/// the reads-per-GET histogram (all from `report`, when given), the end
/// horizon, and the metadata snapshot.
pub fn digest(report: Option<&RunReport>, horizon: Ns, meta: &MetadataStats) -> u64 {
    let mut words = vec![horizon];
    if let Some(r) = report {
        words.extend([r.ops, r.found, r.not_found, r.end.saturating_sub(r.start)]);
        words.extend(counter_words(&r.counters));
        for h in [&r.reads, &r.writes, &r.scans] {
            words.extend([h.count(), h.total(), h.p99()]);
        }
        words.extend(r.reads_per_get);
    }
    words.extend(meta_words(meta));
    fnv(words)
}
