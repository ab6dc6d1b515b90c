//! The virtual-time flash scheduler.
//!
//! Op-lifecycle recording is always compiled in and switched at run time by
//! [`FlashSim::set_tracing`]; it never changes the timeline.

use crate::trace::{FlashEvent, FlashOpKind};
use crate::{
    BlockId, FaultModel, FlashCounters, FlashGeometry, LatencyModel, Ns, OpCause, PageKind, Ppa,
};

/// Residual delay cap a foreground operation pays when it preempts
/// in-flight background work on its chip — the NAND program/erase suspend
/// latency (~100 µs on modern TLC).
pub const BG_RESIDUAL_NS: Ns = 100_000;

/// Configuration of a simulated flash device: geometry, latency model, and
/// fault model.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FlashConfig {
    /// Physical layout.
    pub geometry: FlashGeometry,
    /// NAND timing parameters.
    pub latency: LatencyModel,
    /// Seed-driven media error model; [`FaultModel::disabled`] (the
    /// default) reproduces the paper's perfect-media FEMU behaviour.
    pub fault: FaultModel,
}

impl FlashConfig {
    /// The paper's device shape at a given raw capacity.
    pub fn paper_shape(raw_bytes: u64, page_size: u32, pages_per_block: u32) -> Self {
        Self {
            geometry: FlashGeometry::paper_shape(raw_bytes, page_size, pages_per_block),
            latency: LatencyModel::paper_tlc(),
            fault: FaultModel::disabled(),
        }
    }

    /// A tiny 64 MiB device for unit tests.
    pub fn small_test() -> Self {
        Self::paper_shape(64 << 20, 8 << 10, 128)
    }
}

/// Media status of a completed flash operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlashOpStatus {
    /// The operation succeeded. Reads always land here: transient read
    /// errors are resolved inside the simulator by stepped read-retry,
    /// which lengthens the completion time instead.
    Ok,
    /// The page program failed; the caller must re-issue the page at a
    /// fresh physical location. The failed attempt still occupied the chip.
    ProgramFail,
    /// The block erase failed; the caller must retire the block via
    /// [`crate::BlockAllocator::retire`] instead of freeing it.
    EraseFail,
}

impl FlashOpStatus {
    /// Whether the media reported success.
    pub fn is_ok(self) -> bool {
        matches!(self, FlashOpStatus::Ok)
    }
}

/// Outcome of a flash operation: when it completed on the chip timeline and
/// whether the media reported success.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use = "a flash operation may have failed; check the status"]
pub struct FlashOpResult {
    /// Time the chip started executing the operation; `start − issue time`
    /// is the queueing stall the op suffered behind other traffic.
    pub start: Ns,
    /// Completion time, including any read-retry steps.
    pub done: Ns,
    /// Media status; failed operations still consumed chip time.
    pub status: FlashOpStatus,
}

/// Scheduling class of an operation.
///
/// Foreground operations (host-issued reads on the GET/SCAN critical path)
/// have priority: they queue only behind other foreground work plus a
/// bounded residual of whatever background page the chip is currently
/// executing (modern NAND supports program/erase suspend). Background
/// operations (compaction, GC, buffered writes) accumulate per-chip
/// backlog that drains in foreground-idle gaps — so they consume real
/// device time and slow the host down through write stalls, without every
/// read queueing behind an entire compaction burst.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lane {
    Fg,
    Bg,
}

impl OpCause {
    fn lane(self) -> Lane {
        match self {
            // GET/SCAN critical-path reads.
            OpCause::HostRead | OpCause::MetaRead | OpCause::LogRead => Lane::Fg,
            // Everything else is device-internal/buffered.
            _ => Lane::Bg,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Chip {
    /// Time the chip becomes free of foreground work.
    fg_free: Ns,
    /// Time the chip finishes all queued background work.
    bg_done: Ns,
}

/// The erase-count spread over all blocks (the wear-leveling signal the
/// paper's GC discussion reasons about) that telemetry timelines sample.
/// Produced by [`FlashSim::sample_state`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlashStateSample {
    /// Minimum completed P/E cycles over all blocks.
    pub wear_min: u64,
    /// Maximum completed P/E cycles over all blocks.
    pub wear_max: u64,
    /// Total completed P/E cycles over all blocks.
    pub wear_total: u64,
}

/// A flash device with one two-lane timeline per chip.
#[derive(Debug, Clone)]
pub struct FlashSim {
    cfg: FlashConfig,
    chips: Vec<Chip>,
    /// The latest `fg_free`/`bg_done` over all chips. `schedule` only ever
    /// raises those, so the running max is the horizon.
    horizon: Ns,
    counters: FlashCounters,
    /// Completed P/E cycles per global block: the one wear ledger. It
    /// drives the wear-dependent fault probabilities, the timeline's wear
    /// spread and the engines' least-erased-first allocation under a fault
    /// model (the device sees every erase).
    wear: Vec<u32>,
    /// Monotone operation sequence number mixed into fault draws so two
    /// ops on the same page at different points of the run draw
    /// independently.
    op_seq: u64,
    /// Recorded op-lifecycle events; populated only while tracing is on.
    events: Vec<FlashEvent>,
    /// Whether op-lifecycle recording is active.
    tracing: bool,
}

impl FlashSim {
    /// Creates an idle device.
    pub fn new(cfg: FlashConfig) -> Self {
        let chips = cfg.geometry.chips() as usize;
        let blocks = cfg.geometry.blocks() as usize;
        Self {
            cfg,
            chips: vec![Chip::default(); chips],
            horizon: 0,
            counters: FlashCounters::new(),
            wear: vec![0; blocks],
            op_seq: 0,
            events: Vec::new(),
            tracing: false,
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &FlashConfig {
        &self.cfg
    }

    /// The device geometry.
    pub fn geometry(&self) -> &FlashGeometry {
        &self.cfg.geometry
    }

    /// Accumulated operation counters.
    pub fn counters(&self) -> &FlashCounters {
        &self.counters
    }

    /// The time at which the busiest chip finishes all queued work
    /// (foreground plus backlog).
    pub fn horizon(&self) -> Ns {
        self.horizon
    }

    /// Places one op of `latency` on a chip's lane timeline; returns its
    /// `(start, done)` pair on the chip timeline.
    fn schedule(&mut self, chip_idx: u32, lane: Lane, latency: Ns, at: Ns) -> (Ns, Ns) {
        let chip = &mut self.chips[chip_idx as usize];
        let span = match lane {
            Lane::Fg => {
                let mut start = at.max(chip.fg_free);
                if chip.bg_done > start {
                    // The chip is inside a background window. Only a read
                    // arriving at a foreground-idle chip can find a
                    // background page op mid-flight and pay the suspend
                    // residual; back-to-back foreground reads keep the chip
                    // and pay nothing extra. Either way the stolen chip
                    // time pushes the background window out.
                    if at >= chip.fg_free {
                        let resid = (chip.bg_done - start).min(BG_RESIDUAL_NS);
                        start += resid;
                    }
                    chip.bg_done += latency;
                }
                chip.fg_free = start + latency;
                (start, chip.fg_free)
            }
            Lane::Bg => {
                // Background work runs whenever the chip is free of
                // foreground work, after previously queued background work.
                let start = at.max(chip.bg_done).max(chip.fg_free);
                chip.bg_done = start + latency;
                (start, chip.bg_done)
            }
        };
        self.horizon = self.horizon.max(chip.fg_free.max(chip.bg_done));
        span
    }

    /// Enables or disables flash-op lifecycle recording. Enabling clears
    /// any previously recorded events.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
        if on {
            self.events.clear();
        }
    }

    /// Whether op-lifecycle recording is currently active.
    pub fn is_tracing(&self) -> bool {
        self.tracing
    }

    /// Drains the recorded op-lifecycle events (empty when tracing was
    /// never enabled).
    pub fn take_trace_events(&mut self) -> Vec<FlashEvent> {
        std::mem::take(&mut self.events)
    }

    /// Reads one page; returns its completion time and status.
    ///
    /// Reads always succeed: when the fault model injects a transient read
    /// error, the simulator resolves it internally with stepped read-retry
    /// — each step re-pays one page sense on the chip timeline and
    /// increments the cause-tagged `retry_reads` counter — so the caller
    /// only sees a longer completion time.
    pub fn read(&mut self, ppa: Ppa, cause: OpCause, at: Ns) -> FlashOpResult {
        debug_assert!(cause.is_read(), "read issued with write cause {cause}");
        self.issue(FlashOpKind::Read, Some(cause), ppa, at)
    }

    /// Programs one page; returns its completion time and status.
    ///
    /// A [`FlashOpStatus::ProgramFail`] still occupies the chip for the
    /// full program latency and is counted as a write; the caller must
    /// re-issue the page at a fresh physical location.
    pub fn program(&mut self, ppa: Ppa, cause: OpCause, at: Ns) -> FlashOpResult {
        debug_assert!(!cause.is_read(), "program issued with read cause {cause}");
        self.issue(FlashOpKind::Program, Some(cause), ppa, at)
    }

    /// Erases a block; returns its completion time and status.
    ///
    /// A successful erase completes one P/E cycle of block wear. A
    /// [`FlashOpStatus::EraseFail`] means the block has grown bad; the
    /// caller must retire it from its allocator instead of freeing it.
    pub fn erase(&mut self, block: BlockId, at: Ns) -> FlashOpResult {
        self.issue(FlashOpKind::Erase, None, Ppa { block, page: 0 }, at)
    }

    /// The one path of every op, issued at `at`: a page read or program
    /// with its cause, or a block erase (no cause; `ppa.page` unused). It
    /// takes the op sequence number, draws and counts the op's fault when
    /// the model is on (out of the hot path), counts the op (a good erase
    /// completes a P/E cycle), places the op on its cause's lane (an erase
    /// in the background) and records its lifecycle while tracing.
    #[inline(always)]
    fn issue(
        &mut self,
        op: FlashOpKind,
        cause: Option<OpCause>,
        ppa: Ppa,
        at: Ns,
    ) -> FlashOpResult {
        let chip = self.cfg.geometry.chip_of_block(ppa.block.0);
        let seq = self.op_seq;
        self.op_seq += 1;
        let (retries, status) = if self.cfg.fault.is_enabled() {
            self.fault(op, cause, ppa, seq)
        } else {
            (0, FlashOpStatus::Ok)
        };
        let (lat, kind) = (&self.cfg.latency, PageKind::of_page(ppa.page));
        let (latency, lane) = match cause {
            Some(cause) if op == FlashOpKind::Read => {
                self.counters.count_read(cause);
                let steps = u64::from(retries) * lat.read_sense(kind);
                (lat.read(kind) + steps, cause.lane())
            }
            Some(cause) => {
                self.counters.count_write(cause);
                (lat.program(kind), cause.lane())
            }
            None => {
                self.counters.count_erase();
                if status.is_ok() {
                    if let Some(w) = self.wear.get_mut(ppa.block.0 as usize) {
                        *w = w.saturating_add(1);
                    }
                }
                (lat.erase(), Lane::Bg)
            }
        };
        let (start, done) = self.schedule(chip, lane, latency, at);
        if self.tracing {
            self.events.push(FlashEvent {
                op,
                cause,
                chip,
                issued: at,
                start,
                done,
                retries,
            });
        }
        FlashOpResult {
            start,
            done,
            status,
        }
    }

    /// Draws and counts the fault of op number `seq` at its block's wear:
    /// read-retry steps for a read, a failure for a program or an erase.
    #[cold]
    fn fault(
        &mut self,
        op: FlashOpKind,
        cause: Option<OpCause>,
        ppa: Ppa,
        seq: u64,
    ) -> (u32, FlashOpStatus) {
        let (fault, wear) = (&self.cfg.fault, self.block_wear(ppa.block));
        let (block, page) = (ppa.block.0, ppa.page);
        match (op, cause) {
            (FlashOpKind::Read, Some(cause)) => {
                let retries = fault.read_retries(wear, block, page, seq);
                self.counters.count_retry_reads(cause, u64::from(retries));
                (retries, FlashOpStatus::Ok)
            }
            (FlashOpKind::Program, _) if fault.program_fails(wear, block, page, seq) => {
                self.counters.count_program_fail();
                (0, FlashOpStatus::ProgramFail)
            }
            (FlashOpKind::Erase, _) if fault.erase_fails(wear, block, seq) => {
                self.counters.count_erase_fail();
                (0, FlashOpStatus::EraseFail)
            }
            _ => (0, FlashOpStatus::Ok),
        }
    }

    /// Reads a set of independent pages in parallel; returns the time the
    /// last one completes (reads always succeed, see [`FlashSim::read`]).
    ///
    /// Pages on different chips overlap fully; pages on the same chip
    /// serialize on that chip's timeline.
    pub fn read_many<I>(&mut self, ppas: I, cause: OpCause, at: Ns) -> Ns
    where
        I: IntoIterator<Item = Ppa>,
    {
        let mut done = at;
        for ppa in ppas {
            done = done.max(self.read(ppa, cause, at).done);
        }
        done
    }

    /// Completed P/E cycles of a block, as seen by the device.
    pub fn block_wear(&self, block: BlockId) -> u32 {
        self.wear.get(block.0 as usize).copied().unwrap_or(0)
    }

    /// Snapshots the erase-count spread over all blocks a telemetry
    /// timeline samples. Pure observation — never mutates chip timelines,
    /// counters, or wear.
    pub fn sample_state(&self) -> FlashStateSample {
        let wear = || self.wear.iter().map(|&w| u64::from(w));
        FlashStateSample {
            wear_min: wear().min().unwrap_or(0),
            wear_max: wear().max().unwrap_or(0),
            wear_total: wear().sum(),
        }
    }

    /// Resets the counters (e.g. at the end of warm-up) without touching
    /// the chip timelines.
    pub fn reset_counters(&mut self) {
        self.counters = FlashCounters::new();
    }

    /// Test-only corruption hook forwarding to
    /// [`FlashCounters::desync_for_test`]; exists so the negative-path
    /// auditor tests can desynchronize a live engine's counters.
    #[doc(hidden)]
    pub fn desync_counters_for_test(&mut self) {
        self.counters.desync_for_test();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim() -> FlashSim {
        FlashSim::new(FlashConfig::small_test())
    }

    #[test]
    fn same_chip_fg_ops_serialize() {
        let mut s = sim();
        let p = Ppa::new(0, 0);
        let d1 = s.read(p, OpCause::HostRead, 0).done;
        let d2 = s.read(p, OpCause::HostRead, 0).done;
        assert!(d2 >= 2 * d1 - 1, "second op must queue behind the first");
    }

    #[test]
    fn different_chips_overlap() {
        let mut s = sim();
        // Block 0 and block 1 live on different chips (striping).
        let d1 = s.read(Ppa::new(0, 0), OpCause::HostRead, 0).done;
        let d2 = s.read(Ppa::new(1, 0), OpCause::HostRead, 0).done;
        assert_eq!(d1, d2, "independent chips should not queue");
    }

    #[test]
    fn completion_is_monotone_in_issue_time() {
        let mut a = sim();
        let mut b = sim();
        let p = Ppa::new(3, 4);
        let early = a.read(p, OpCause::HostRead, 100).done;
        let late = b.read(p, OpCause::HostRead, 5_000_000).done;
        assert!(late > early);
    }

    #[test]
    fn foreground_pays_only_bounded_residual_of_background() {
        let mut s = sim();
        // Pile a huge compaction burst on chip 0.
        for page in 0..64 {
            let _ = s.program(Ppa::new(0, page), OpCause::CompactionWrite, 0);
        }
        let read_done = s.read(Ppa::new(0, 0), OpCause::HostRead, 0).done;
        let plain = LatencyModel::paper_tlc().read(PageKind::Lsb);
        assert!(
            read_done <= plain + BG_RESIDUAL_NS,
            "read {read_done} must not wait for the whole burst"
        );
        assert!(read_done > plain, "read must pay some residual");
    }

    #[test]
    fn background_backlog_drains_in_idle_gaps() {
        let mut s = sim();
        let est = s.program(Ppa::new(0, 0), OpCause::CompactionWrite, 0).done;
        // A read issued long after the backlog finished pays nothing.
        let read_done = s
            .read(Ppa::new(0, 0), OpCause::HostRead, est + 10_000_000)
            .done;
        let plain = LatencyModel::paper_tlc().read(PageKind::Lsb);
        assert_eq!(read_done, est + 10_000_000 + plain);
    }

    #[test]
    fn background_completion_reflects_backlog() {
        let mut s = sim();
        let d1 = s.program(Ppa::new(0, 0), OpCause::CompactionWrite, 0).done;
        let d2 = s.program(Ppa::new(0, 0), OpCause::CompactionWrite, 0).done;
        assert!(d2 > d1, "backlog accumulates");
    }

    #[test]
    fn erase_counts_and_advances_time() {
        let mut s = sim();
        let r = s.erase(BlockId(0), 0);
        assert_eq!(r.done, LatencyModel::paper_tlc().erase());
        assert!(r.status.is_ok());
        assert_eq!(s.counters().erases(), 1);
        assert_eq!(s.block_wear(BlockId(0)), 1, "clean erase completes a P/E");
    }

    #[test]
    fn read_many_parallelism_bounded_by_chips() {
        let mut s = sim();
        let chips = s.geometry().chips();
        let ppas: Vec<Ppa> = (0..chips).map(|b| Ppa::new(b, 0)).collect();
        let done = s.read_many(ppas.iter().copied(), OpCause::HostRead, 0);
        let single = LatencyModel::paper_tlc().read(PageKind::Lsb);
        assert_eq!(done, single);
    }

    #[test]
    fn horizon_tracks_total_outstanding_work() {
        let mut s = sim();
        assert_eq!(s.horizon(), 0);
        let done = s.program(Ppa::new(0, 0), OpCause::LogWrite, 0).done;
        assert_eq!(s.horizon(), done);
        let read_done = s.read(Ppa::new(1, 0), OpCause::HostRead, 0).done;
        assert!(s.horizon() >= read_done.min(done));
    }

    #[test]
    fn kept_horizon_equals_chip_scan() {
        let scan = |s: &FlashSim| {
            s.chips
                .iter()
                .map(|c| c.fg_free.max(c.bg_done))
                .max()
                .unwrap_or(0)
        };
        let mut s = faulty_sim(200_000);
        let mut rng = 0x5EED_u64;
        for i in 0..2_000u64 {
            rng = rng.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let r = rng >> 33;
            let ppa = Ppa::new((r % 64) as u32, ((r >> 6) % 128) as u32);
            let at = i * 20_000;
            let _ = match r % 5 {
                0 => s.read(ppa, OpCause::HostRead, at),
                1 => s.read(ppa, OpCause::GcRead, at),
                2 => s.program(ppa, OpCause::HostWrite, at),
                3 => s.program(ppa, OpCause::CompactionWrite, at),
                _ => s.erase(BlockId((r % 64) as u32), at),
            };
            assert_eq!(s.horizon(), scan(&s), "op {i}");
        }
        let c = s.counters();
        assert!(c.total_retry_reads() + c.program_fails() + c.erase_fails() > 0);
    }

    /// Folds `s` into an FNV-1a digest.
    fn fold(digest: &mut u64, s: &str) {
        for b in s.bytes() {
            *digest ^= u64::from(b);
            *digest = digest.wrapping_mul(0x0100_0000_01B3);
        }
    }

    #[test]
    fn faulty_traced_op_mix_is_pinned() {
        // A seeded mix of every op kind and lane under a fault model, with
        // tracing on: each op's result, each recorded event, the counters
        // (retries and failures too) and the wear spread are folded into
        // one digest. A change to the order of fault draws, counting,
        // scheduling or recording moves it.
        let mut s = faulty_sim(300_000);
        s.set_tracing(true);
        let (mut rng, mut digest) = (0x00D1_6E57_u64, 0xCBF2_9CE4_8422_2325_u64);
        for i in 0..3_000u64 {
            rng = rng.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let r = rng >> 33;
            let ppa = Ppa::new((r % 64) as u32, ((r >> 6) % 128) as u32);
            let at = i * 15_000;
            let res = match r % 7 {
                0 => s.read(ppa, OpCause::HostRead, at),
                1 => s.read(ppa, OpCause::LogRead, at),
                2 => s.read(ppa, OpCause::GcRead, at),
                3 => s.program(ppa, OpCause::HostWrite, at),
                4 => s.program(ppa, OpCause::CompactionWrite, at),
                5 => s.erase(BlockId((r % 64) as u32), at),
                _ => s.erase(BlockId((r % 8) as u32), at),
            };
            fold(&mut digest, &format!("{res:?}"));
        }
        let events = s.take_trace_events();
        assert_eq!(events.len(), 3_000);
        for ev in &events {
            fold(&mut digest, &format!("{ev:?}"));
        }
        fold(&mut digest, &format!("{:?}", s.counters()));
        fold(&mut digest, &format!("{:?}", s.sample_state()));
        let c = s.counters();
        assert!(c.total_retry_reads() > 0 && c.program_fails() > 0 && c.erase_fails() > 0);
        assert_eq!(digest, 3_788_289_076_036_980_156, "flash op results moved");
    }

    #[test]
    fn reset_counters_keeps_timelines() {
        let mut s = sim();
        let _ = s.read(Ppa::new(0, 0), OpCause::HostRead, 0);
        s.reset_counters();
        assert_eq!(s.counters().total_reads(), 0);
        assert!(s.horizon() > 0);
    }

    fn faulty_sim(read_ppm: u32) -> FlashSim {
        let mut cfg = FlashConfig::small_test();
        cfg.fault = FaultModel::uniform(0xF00D, read_ppm);
        FlashSim::new(cfg)
    }

    #[test]
    fn read_retries_lengthen_reads_and_are_counted() {
        let mut s = faulty_sim(500_000);
        let plain = LatencyModel::paper_tlc().read(PageKind::Lsb);
        let mut slowed = 0;
        for block in 0..64 {
            let r = s.read(
                Ppa::new(block % 8, 0),
                OpCause::HostRead,
                1_000_000_000 * u64::from(block),
            );
            assert!(r.status.is_ok(), "reads always resolve");
            if r.done > 1_000_000_000 * u64::from(block) + plain {
                slowed += 1;
            }
        }
        assert!(slowed > 0, "a 50% error rate must slow some reads");
        assert!(s.counters().total_retry_reads() > 0);
        assert_eq!(
            s.counters().retry_reads(OpCause::HostRead),
            s.counters().total_retry_reads()
        );
        assert_eq!(s.counters().audit(), Ok(()));
    }

    #[test]
    fn program_failures_are_reported_and_counted() {
        let mut s = faulty_sim(1_000_000);
        let mut failed = 0;
        for page in 0..64 {
            let r = s.program(Ppa::new(0, page), OpCause::LogWrite, 0);
            if !r.status.is_ok() {
                assert_eq!(r.status, FlashOpStatus::ProgramFail);
                failed += 1;
            }
        }
        assert!(
            failed > 0,
            "a 12.5% program-fail rate must fire in 64 tries"
        );
        assert_eq!(s.counters().program_fails(), failed);
        // Failed programs still count as writes (they occupied the chip).
        assert_eq!(s.counters().total_writes(), 64);
    }

    #[test]
    fn erase_failures_are_reported_and_skip_wear() {
        // Three erase rounds over all 64 blocks at a 6.25 % (plus wear)
        // fail rate: only the clean erases add to a block's wear.
        let mut s = faulty_sim(1_000_000);
        let mut failed = 0;
        let mut completed = 0;
        for _ in 0..3 {
            for block in 0..s.geometry().blocks() {
                let r = s.erase(BlockId(block), 0);
                if r.status.is_ok() {
                    completed += 1;
                } else {
                    assert_eq!(r.status, FlashOpStatus::EraseFail);
                    failed += 1;
                }
            }
        }
        assert_eq!((completed, failed), (175, 17));
        assert_eq!(s.counters().erase_fails(), failed);
        assert_eq!(s.counters().erases(), 192);
        let spread = FlashStateSample {
            wear_min: 2,
            wear_max: 3,
            wear_total: completed,
        };
        assert_eq!(s.sample_state(), spread, "only clean erases complete a P/E");
    }

    #[test]
    fn fault_injection_is_deterministic_across_runs() {
        let run = || {
            let mut s = faulty_sim(200_000);
            for i in 0..256u32 {
                let ppa = Ppa::new(i % 64, i % 128);
                let _ = s.program(ppa, OpCause::CompactionWrite, u64::from(i));
                let _ = s.read(ppa, OpCause::HostRead, u64::from(i) * 2);
                if i % 16 == 0 {
                    let _ = s.erase(BlockId(i % 64), u64::from(i));
                }
            }
            (s.counters().clone(), s.horizon())
        };
        let (c1, h1) = run();
        let (c2, h2) = run();
        assert_eq!(c1, c2, "same seed + same op sequence => same counters");
        assert_eq!(h1, h2, "same seed + same op sequence => same horizon");
    }

    #[test]
    fn tracing_off_records_nothing() {
        let mut s = sim();
        let _ = s.read(Ppa::new(0, 0), OpCause::HostRead, 0);
        assert!(!s.is_tracing());
        assert!(s.take_trace_events().is_empty());
    }

    #[test]
    fn tracing_records_lifecycle_without_perturbing_time() {
        let mut traced = sim();
        let mut plain = sim();
        traced.set_tracing(true);
        assert!(traced.is_tracing());
        let t1 = traced.read(Ppa::new(0, 0), OpCause::HostRead, 0);
        let p1 = plain.read(Ppa::new(0, 0), OpCause::HostRead, 0);
        assert_eq!(t1, p1, "tracing must not change the timeline");
        let _ = traced.program(Ppa::new(0, 1), OpCause::CompactionWrite, 0);
        let _ = traced.erase(BlockId(1), 0);
        let events = traced.take_trace_events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].op, FlashOpKind::Read);
        assert_eq!(events[0].cause_str(), "host-read");
        assert_eq!(events[0].issued, 0);
        assert_eq!(events[0].done, t1.done);
        assert!(events[0].issued <= events[0].start && events[0].start <= events[0].done);
        assert_eq!(events[2].op, FlashOpKind::Erase);
        assert_eq!(events[2].cause_str(), "erase");
        // Drained: the buffer is empty until re-enabled work arrives.
        assert!(traced.take_trace_events().is_empty());
        // Disabling stops recording.
        traced.set_tracing(false);
        let _ = traced.read(Ppa::new(0, 0), OpCause::HostRead, 0);
        assert!(traced.take_trace_events().is_empty());
    }

    #[test]
    fn fg_op_start_reflects_queueing_stall() {
        let mut s = sim();
        s.set_tracing(true);
        let r1 = s.read(Ppa::new(0, 0), OpCause::HostRead, 0);
        let r2 = s.read(Ppa::new(0, 0), OpCause::HostRead, 0);
        assert_eq!(r1.start, 0, "first op starts immediately");
        assert_eq!(r2.start, r1.done, "second op stalls behind the first");
        let events = s.take_trace_events();
        assert_eq!(events[1].start - events[1].issued, r1.done);
    }

    #[test]
    fn disabled_fault_model_is_zero_cost() {
        let mut plain = sim();
        let mut explicit = FlashSim::new(FlashConfig {
            fault: FaultModel::disabled(),
            ..FlashConfig::small_test()
        });
        for i in 0..128u32 {
            let ppa = Ppa::new(i % 64, i % 128);
            let a = plain.read(ppa, OpCause::HostRead, u64::from(i));
            let b = explicit.read(ppa, OpCause::HostRead, u64::from(i));
            assert_eq!(a, b);
        }
        assert_eq!(plain.counters(), explicit.counters());
        assert_eq!(plain.counters().total_retry_reads(), 0);
    }
}
