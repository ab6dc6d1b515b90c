//! Outside-in timing adapters: a [`KvEngine`] wrapper that marks the host
//! clock every [`CHUNK`] `execute` calls and, in a traced run, also times
//! every call and classifies it by the flash traffic it caused; and an
//! iterator wrapper that times op generation. Both are pure observation:
//! they forward every call unchanged.

use std::time::{Duration, Instant};

use anykey_core::{AuditError, EngineKind, KvEngine, KvError, MetadataStats, OpOutcome};
use anykey_flash::{FlashCounters, Ns, OpCause};
use anykey_metrics::timeline::StateSample;
use anykey_metrics::trace::TraceEvent;
use anykey_metrics::LatencyHist;
use anykey_workload::Op;

/// `execute` calls between two marks of the host clock. Each phase is
/// timed as a series of chunks of this many ops, so repeats can be
/// compared chunk by chunk. Small enough that a chunk lasts at most a few
/// ms even on the scan workload, so a burst of host contention spoils few
/// chunks; large enough that reading the clock costs under 0.1 %.
pub const CHUNK: u64 = 64;

/// Every this-many foreground calls, one is kept as a span; every
/// compaction and GC call is kept.
pub const FG_SPAN_EVERY: u64 = 4096;

/// What an `execute` call did besides serving its op, judged by the flash
/// counters around it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallClass {
    /// Served the op and nothing else.
    Fg,
    /// Also ran a flush, compaction or metadata write.
    Compaction,
    /// Also ran garbage collection.
    Gc,
}

impl CallClass {
    /// Classifies a call by its counters delta: any GC traffic makes it
    /// `Gc`; otherwise any compaction traffic or metadata write makes it
    /// `Compaction`.
    pub fn of(delta: &FlashCounters) -> CallClass {
        let any = |c: OpCause| delta.reads(c) + delta.writes(c) > 0;
        if any(OpCause::GcRead) || any(OpCause::GcWrite) {
            CallClass::Gc
        } else if any(OpCause::CompactionRead)
            || any(OpCause::CompactionWrite)
            || delta.writes(OpCause::MetaWrite) > 0
        {
            CallClass::Compaction
        } else {
            CallClass::Fg
        }
    }

    /// The metric and span name of the class.
    pub fn name(self) -> &'static str {
        match self {
            CallClass::Fg => "fg",
            CallClass::Compaction => "compaction",
            CallClass::Gc => "gc",
        }
    }

    fn idx(self) -> usize {
        self as usize
    }
}

/// Host time spent inside `execute` during one phase.
#[derive(Debug, Clone)]
pub struct EngineStats {
    /// Host ns per class, indexed by [`CallClass`].
    pub class_ns: [u64; 3],
    /// Calls per class, indexed by [`CallClass`].
    pub class_calls: [u64; 3],
    /// Host ns of GET calls.
    pub get: LatencyHist,
    /// Host ns of PUT/DELETE calls.
    pub put: LatencyHist,
    /// Host ns of SCAN calls.
    pub scan: LatencyHist,
}

impl Default for EngineStats {
    fn default() -> Self {
        Self {
            class_ns: [0; 3],
            class_calls: [0; 3],
            get: LatencyHist::new(),
            put: LatencyHist::new(),
            scan: LatencyHist::new(),
        }
    }
}

impl EngineStats {
    /// Host ns inside `execute`, all classes.
    pub fn total_ns(&self) -> u64 {
        self.class_ns.iter().sum()
    }

    /// Calls of `class`.
    pub fn calls(&self, class: CallClass) -> u64 {
        self.class_calls[class.idx()]
    }

    /// Host seconds in calls of `class`.
    pub fn secs(&self, class: CallClass) -> f64 {
        self.class_ns[class.idx()] as f64 / 1e9
    }
}

/// A [`KvEngine`] that marks the host clock every [`CHUNK`] calls of the
/// engine it wraps and, when tracing, times each `execute` call.
///
/// Its phase clock reads host seconds since `origin`, less the time spent
/// in [`TimedEngine::paused`], so checks made mid-phase are not phase time.
pub struct TimedEngine<'a> {
    inner: &'a mut dyn KvEngine,
    origin: Instant,
    paused: Duration,
    trace: bool,
    calls: u64,
    marks: Vec<f64>,
    phase: u32,
    stats: EngineStats,
    fg_seen: u64,
    seq: u64,
    spans: Vec<TraceEvent>,
}

impl<'a> TimedEngine<'a> {
    /// Wraps `inner`; with `trace`, times every call, keeping spans with
    /// host-ns timestamps since `origin`.
    pub fn new(inner: &'a mut dyn KvEngine, trace: bool, origin: Instant) -> Self {
        Self {
            inner,
            origin,
            paused: Duration::ZERO,
            trace,
            calls: 0,
            marks: Vec::new(),
            phase: 0,
            stats: EngineStats::default(),
            fg_seen: 0,
            seq: 0,
            spans: Vec::new(),
        }
    }

    /// The phase clock, in seconds.
    pub fn clock(&self) -> f64 {
        self.origin
            .elapsed()
            .saturating_sub(self.paused)
            .as_secs_f64()
    }

    /// Runs `f` on the wrapped engine with the phase clock stopped.
    pub fn paused<R>(&mut self, f: impl FnOnce(&dyn KvEngine) -> R) -> R {
        let t = Instant::now();
        let r = f(&*self.inner);
        self.paused += t.elapsed();
        r
    }

    /// Ends the current phase: returns its stats and the phase clock at
    /// every [`CHUNK`]-th call, and starts counting the next phase. Spans
    /// record the phase number as their `level`.
    pub fn take_phase(&mut self) -> (EngineStats, Vec<f64>) {
        self.phase += 1;
        self.calls = 0;
        (
            std::mem::take(&mut self.stats),
            std::mem::take(&mut self.marks),
        )
    }

    fn tick(&mut self) {
        self.calls += 1;
        if self.calls.is_multiple_of(CHUNK) {
            self.marks.push(self.clock());
        }
    }

    /// The kept spans, in call order.
    pub fn into_spans(self) -> Vec<TraceEvent> {
        self.spans
    }

    fn since_origin(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }
}

impl KvEngine for TimedEngine<'_> {
    fn kind(&self) -> EngineKind {
        self.inner.kind()
    }

    fn execute(&mut self, op: &Op, at: Ns) -> Result<OpOutcome, KvError> {
        if !self.trace {
            let result = self.inner.execute(op, at);
            self.tick();
            return result;
        }
        let before = self.inner.counters();
        let t0 = Instant::now();
        let result = self.inner.execute(op, at);
        let t1 = Instant::now();
        let delta = self.inner.counters().since(&before);
        let ns = u64::try_from(t1.duration_since(t0).as_nanos()).unwrap_or(u64::MAX);
        let class = CallClass::of(&delta);
        self.stats.class_ns[class.idx()] += ns;
        self.stats.class_calls[class.idx()] += 1;
        let (hist, label) = match op {
            Op::Get { .. } => (&mut self.stats.get, "get"),
            Op::Put { .. } => (&mut self.stats.put, "put"),
            Op::Delete { .. } => (&mut self.stats.put, "delete"),
            Op::Scan { .. } => (&mut self.stats.scan, "scan"),
        };
        hist.record(ns);
        let keep = match class {
            CallClass::Fg => {
                self.fg_seen += 1;
                self.fg_seen % FG_SPAN_EVERY == 1
            }
            _ => true,
        };
        if keep {
            self.spans.push(TraceEvent::Span {
                kind: class.name().to_string(),
                label: label.to_string(),
                level: self.phase,
                id: self.seq,
                start: self.since_origin(t0),
                end: self.since_origin(t1),
                pages_read: delta.total_reads(),
                pages_written: delta.total_writes(),
            });
        }
        self.seq += 1;
        self.tick();
        result
    }

    fn scan_keys(&mut self, start: u64, len: u32, at: Ns) -> (Vec<u64>, OpOutcome) {
        self.inner.scan_keys(start, len, at)
    }

    fn metadata(&self) -> MetadataStats {
        self.inner.metadata()
    }

    fn counters(&self) -> FlashCounters {
        self.inner.counters()
    }

    fn reset_counters(&mut self) {
        self.inner.reset_counters();
    }

    fn horizon(&self) -> Ns {
        self.inner.horizon()
    }

    fn capacity_bytes(&self) -> u64 {
        self.inner.capacity_bytes()
    }

    fn check_invariants(&self) -> Result<(), AuditError> {
        self.inner.check_invariants()
    }

    fn set_tracing(&mut self, on: bool) {
        self.inner.set_tracing(on);
    }

    fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.inner.take_trace()
    }

    fn sample_state(&self) -> StateSample {
        self.inner.sample_state()
    }
}

/// An op iterator that, when timing, adds up the host time spent
/// generating ops.
pub struct TimedOps<I> {
    inner: I,
    timed: bool,
    /// Host ns inside `next`.
    pub ns: u64,
}

impl<I> TimedOps<I> {
    /// Wraps `inner`; only counts time when `timed`.
    pub fn new(inner: I, timed: bool) -> Self {
        Self {
            inner,
            timed,
            ns: 0,
        }
    }
}

impl<I: Iterator<Item = Op>> Iterator for TimedOps<I> {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        if !self.timed {
            return self.inner.next();
        }
        let t0 = Instant::now();
        let op = self.inner.next();
        self.ns += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        op
    }
}
