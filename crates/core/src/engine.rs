//! The engine trait every KV-SSD design implements, and its one
//! implementation for the two designs of this crate.
//!
//! [`KvEngine`] is the request front end a host drives. PinK and AnyKey
//! share everything of it, and the LSM lifecycle behind it, but the
//! metadata layout, so each supplies only the crate-private `Engine`
//! hooks: its levels, the level walk of a GET that missed the write
//! buffer, the scan from a valid start key, the run a flush builds, the
//! merge into a level, the level sizes, the GC allocator and one
//! collection step, the metadata and timeline snapshots, the full and
//! boundary audits, and its per-request key-hash cost. `impl<E: Engine>
//! KvEngine for E` does the request side once: key checking, the request
//! CPU model, the write-buffer probe, the PUT path with its flush trigger,
//! and the forwarders into the shared device scaffold. `Engine`'s provided
//! methods do the lifecycle once: the flush, the size-ratio cascade, the
//! GC headroom loop, a compaction's opening headroom and close, and the
//! walks over the levels.

use anykey_flash::{BlockAllocator, FlashCounters, FlashSim, Ns, OpCause, Ppa};
use anykey_metrics::timeline::StateSample;
use anykey_metrics::trace::{PhaseBreakdown, TraceEvent};
use anykey_workload::Op;

use crate::audit::AuditError;
use crate::config::{EngineKind, DRAM_OP_NS, LEVEL_RATIO, RESERVE_BLOCKS, SORT_NS_PER_ENTITY};
use crate::device::DeviceCore;
use crate::error::KvError;
use crate::key::Key;
use crate::level::{Entry, Level, Unit};

/// Per-page overhead reserved for ECC/headers in every flash page; the
/// usable payload is `page_size - PAGE_HEADER_BYTES`.
pub const PAGE_HEADER_BYTES: u32 = 64;

/// Result of executing one host operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpOutcome {
    /// Virtual time the operation was issued.
    pub issued_at: Ns,
    /// Virtual time the operation completed.
    pub done_at: Ns,
    /// Whether the key was found (GET/DELETE) or accepted (PUT); for scans,
    /// whether at least one key was returned.
    pub found: bool,
    /// Number of flash page reads on this operation's critical path — the
    /// paper's Figure 11b metric (flash accesses per read request).
    pub flash_reads: u32,
    /// Where the operation's latency went, phase by phase: the five fields
    /// sum exactly to `done_at − issued_at`. Always populated — phase
    /// attribution is cheap arithmetic on the critical path, unlike raw
    /// event tracing.
    pub phases: PhaseBreakdown,
}

impl OpOutcome {
    /// The operation's latency.
    pub fn latency(&self) -> Ns {
        self.done_at - self.issued_at
    }
}

/// Snapshot of an engine's metadata footprint and placement — the inputs to
/// the paper's Table 1 and Figure 11a.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetadataStats {
    /// Bytes of level lists (both engines).
    pub level_list_bytes: u64,
    /// Level-list bytes that did **not** fit in DRAM (PinK under low-v/k).
    pub level_list_flash_bytes: u64,
    /// Total bytes of AnyKey hash lists (resident or not).
    pub hash_list_total_bytes: u64,
    /// Hash-list bytes currently resident in DRAM.
    pub hash_list_resident_bytes: u64,
    /// PinK meta-segment bytes resident in DRAM.
    pub meta_segment_dram_bytes: u64,
    /// PinK meta-segment bytes stored in flash.
    pub meta_segment_flash_bytes: u64,
    /// Configured DRAM capacity.
    pub dram_capacity: u64,
    /// DRAM currently in use (write buffer reservation + resident
    /// metadata).
    pub dram_used: u64,
    /// Number of LSM levels currently populated.
    pub levels: usize,
    /// Bytes of live, unique user KV data — the numerator of the Figure 14
    /// storage-utilization metric: the key and value of each key's newest
    /// version in the write buffer and the levels, tombstones excepted,
    /// walked on each [`KvEngine::metadata`] call.
    pub live_unique_bytes: u64,
    /// Bytes of values currently parked in the value log (AnyKey).
    pub value_log_used_bytes: u64,
    /// Read-retry steps the media needed so far (0 on perfect media).
    pub retry_reads: u64,
    /// Page programs that failed and were re-issued elsewhere.
    pub program_fails: u64,
    /// Block erases that failed.
    pub erase_fails: u64,
    /// Blocks permanently retired as grown bad blocks (all regions).
    pub retired_blocks: u64,
    /// Free erase blocks remaining across the engine's regions — the
    /// headroom the GC triggers watch; shrinks as blocks retire.
    pub free_blocks: u64,
}

impl MetadataStats {
    /// All metadata bytes that want DRAM (the paper's Table 1 "Sum").
    pub fn metadata_bytes(&self) -> u64 {
        self.level_list_bytes
            + self.hash_list_resident_bytes
            + self.meta_segment_dram_bytes
            + self.meta_segment_flash_bytes
    }

    /// Metadata bytes resident in DRAM: the level lists that fit, resident
    /// hash lists and pinned meta segments. The DRAM audit checks the
    /// budget's claims against exactly this sum.
    pub fn dram_resident_bytes(&self) -> u64 {
        self.level_list_bytes - self.level_list_flash_bytes
            + self.hash_list_resident_bytes
            + self.meta_segment_dram_bytes
    }
}

/// A simulated key-value SSD.
///
/// All three systems of the paper (PinK, AnyKey, AnyKey+) get this trait
/// from one generic implementation over their `Engine` hooks (see the
/// [module docs](self)); the runner and benchmark harness drive them
/// uniformly, and a host-side wrapper can implement it too. Operations
/// carry an *issue time* in virtual nanoseconds and return a completion
/// time; engines schedule their flash traffic (foreground and background)
/// on the shared per-chip timelines, which is how background compaction
/// delays foreground requests.
pub trait KvEngine {
    /// Which design this engine is.
    fn kind(&self) -> EngineKind;

    /// Executes one host operation issued at virtual time `at`.
    ///
    /// # Errors
    ///
    /// Returns [`KvError::DeviceFull`] when a PUT cannot be accepted,
    /// [`KvError::ValueTooLarge`] for a PUT whose value is longer than the
    /// device stores, and [`KvError::KeyTooLarge`] for ill-formed key ids.
    fn execute(&mut self, op: &Op, at: Ns) -> Result<OpOutcome, KvError>;

    /// Runs a range scan and returns the key ids found (in key order) with
    /// the outcome; used by correctness tests and the Figure 18 experiment.
    fn scan_keys(&mut self, start: u64, len: u32, at: Ns) -> (Vec<u64>, OpOutcome);

    /// Metadata footprint snapshot.
    fn metadata(&self) -> MetadataStats;

    /// Flash traffic counters (reads/writes/erases per cause).
    fn counters(&self) -> FlashCounters;

    /// Resets the flash counters (end of warm-up).
    fn reset_counters(&mut self);

    /// The virtual time at which all in-flight flash work completes.
    fn horizon(&self) -> Ns;

    /// Raw flash capacity of this engine's region in bytes.
    fn capacity_bytes(&self) -> u64;

    /// Audits the engine's structural invariants: level-list key ordering
    /// and non-overlap, directory sortedness, DRAM budget conservation,
    /// cause-tagged flash counter conservation, and live-byte accounting.
    ///
    /// On AnyKey it first builds, and keeps, every group layout no read has
    /// built yet, so every group is audited whole and a second call builds
    /// nothing (DESIGN.md §8). The test suites call it directly. The audits
    /// at flush/compaction/GC boundaries in builds with debug assertions
    /// (`cargo test`, `cargo run`) are a separate entry that builds no
    /// layout, so those builds stay as lazy as `--release`.
    ///
    /// # Errors
    ///
    /// Returns the first [`AuditError`] found, naming the violated
    /// invariant with its observed and expected values.
    fn check_invariants(&self) -> Result<(), AuditError>;

    /// Enables or disables trace-event recording (flash-op lifecycles and
    /// engine background spans).
    fn set_tracing(&mut self, on: bool);

    /// Drains the recorded trace events, converted to the serializable
    /// metrics model and sorted by timestamp.
    fn take_trace(&mut self) -> Vec<TraceEvent>;

    /// Snapshots the engine-state half of a telemetry [`StateSample`]:
    /// per-level occupancy, DRAM budget consumers, value-log live/stale
    /// bytes, free-block depth, and erase-count spread. The runner fills
    /// the identity, interval, and cumulative-traffic fields on top.
    ///
    /// Pure observation — implementations must not mutate any state.
    fn sample_state(&self) -> StateSample;

    /// Inserts (or updates) a key at the current horizon — convenience for
    /// examples and tests.
    ///
    /// # Errors
    ///
    /// Returns [`KvError::DeviceFull`] when the device cannot accept the
    /// write, and [`KvError::ValueTooLarge`] when no device of its geometry
    /// could.
    fn put(&mut self, key: u64, value_len: u32) -> Result<OpOutcome, KvError> {
        let at = self.horizon();
        self.execute(&Op::Put { key, value_len }, at)
    }

    /// Looks a key up at the current horizon — convenience for examples and
    /// tests. A key id that does not fit the configured key length cannot
    /// have been stored, so it is reported as not found.
    fn get(&mut self, key: u64) -> OpOutcome {
        let at = self.horizon();
        match self.execute(&Op::Get { key }, at) {
            Ok(outcome) => outcome,
            Err(_) => OpOutcome {
                issued_at: at,
                done_at: at,
                found: false,
                flash_reads: 0,
                phases: PhaseBreakdown::default(),
            },
        }
    }

    /// Deletes a key at the current horizon — convenience for examples and
    /// tests.
    ///
    /// # Errors
    ///
    /// Returns [`KvError::DeviceFull`] when the tombstone cannot be
    /// buffered.
    fn delete(&mut self, key: u64) -> Result<OpOutcome, KvError> {
        let at = self.horizon();
        self.execute(&Op::Delete { key }, at)
    }
}

/// What a KV-SSD design supplies to get [`KvEngine`] and the shared LSM
/// lifecycle (this trait's provided methods): the parts where PinK and
/// AnyKey differ.
pub(crate) trait Engine {
    /// CPU time to hash a key, charged up front on every request: AnyKey's
    /// level lists and hash lists are keyed by it, PinK hashes nothing.
    const HASH_NS: Ns;

    /// The entries of the engine's [`Level`]s.
    type Entry: Entry;
    /// The units cutting them.
    type Unit: Unit;
    /// One level: its [`Level`] and what the engine keeps beside it.
    type Level: Default + AsRef<Level<Self::Entry, Self::Unit>>;

    /// The shared device scaffold.
    fn core(&self) -> &DeviceCore;

    /// The shared device scaffold, mutably.
    fn core_mut(&mut self) -> &mut DeviceCore;

    /// The LSM levels, shallowest (newest) first.
    fn levels(&self) -> &[Self::Level];

    /// The LSM levels, mutably.
    fn levels_mut(&mut self) -> &mut Vec<Self::Level>;

    /// Each level's [`Level`], shallowest first.
    fn runs(&self) -> impl Iterator<Item = &Level<Self::Entry, Self::Unit>> {
        self.levels().iter().map(AsRef::as_ref)
    }

    /// Looks `key` up in the LSM levels after it missed the write buffer,
    /// charging its flash reads to `req`. Returns `Some(found)` when a
    /// version in the levels settles the GET at `req.t`, and `None` when
    /// none does; the front end then charges the closing DRAM operation of
    /// a miss.
    fn get_levels(&mut self, key: Key, req: &mut Request) -> Option<bool>;

    /// Scans up to `len` live keys from key id `start`, newest version
    /// first across the write buffer and the levels, charging its flash
    /// reads to `req`. The key ids found, in key order, are the hits of
    /// the device's [`DeviceCore::scan_plan`] until the next scan.
    fn scan_levels(&mut self, start: u64, len: u32, req: &mut Request);

    /// Drains the write buffer from `at` into a run, writing what it points
    /// at, and merges the run into L1; returns when the merge lands.
    fn flush_run(&mut self, at: Ns) -> Result<Ns, KvError>;

    /// Merges level `i` into level `i + 1` from `at`; returns when it lands.
    fn merge_down(&mut self, i: usize, at: Ns) -> Result<Ns, KvError>;

    /// The size of level `i` that its threshold is measured against;
    /// `None` past the deepest level.
    fn level_bytes(&self, i: usize) -> Option<u64>;

    /// Appends an empty deepest level.
    fn push_level(&mut self) {
        self.levels_mut().push(Self::Level::default());
    }

    /// Whether no level below `dst` holds a unit: a merge into `dst`
    /// writes the bottom level, and drops its tombstones.
    fn is_bottom(&self, dst: usize) -> bool {
        self.runs().skip(dst + 1).all(Level::is_empty)
    }

    /// The number of levels holding a unit.
    fn populated_levels(&self) -> usize {
        self.runs().filter(|l| !l.is_empty()).count()
    }

    /// The block allocator whose free blocks GC keeps above the reserve.
    fn gc_alloc(&self) -> &BlockAllocator;

    /// Reclaims one victim block from `at`; returns when that is done, or
    /// [`KvError::DeviceFull`] when no block can be reclaimed.
    fn collect(&mut self, at: Ns) -> Result<Ns, KvError>;

    /// The metadata snapshot behind [`KvEngine::metadata`], all but its
    /// live bytes: the audits and timeline samples read it.
    fn stats(&self) -> MetadataStats;

    /// [`MetadataStats::live_unique_bytes`]: [`DeviceCore::live_bytes`]
    /// over every level's whole array.
    fn live_bytes(&self) -> u64 {
        self.core().live_bytes(self.levels())
    }

    /// The engine-state half of a timeline sample for the snapshot `meta`:
    /// per-level occupancy and the engine's own fields, on top of
    /// [`DeviceCore::sample_state`]. The front end adds the group count.
    fn sample_levels(&self, meta: &MetadataStats) -> StateSample;

    /// Audits every structural invariant: [`KvEngine::check_invariants`].
    fn audit(&self) -> Result<(), AuditError>;

    /// The audit builds with debug assertions run at flush, compaction and
    /// GC boundaries: [`Self::audit`], unless the full audit builds state
    /// that release builds leave lazy.
    fn boundary_audit(&self) -> Result<(), AuditError> {
        self.audit()
    }

    /// Flushes the full write buffer from `at`: restores GC headroom,
    /// builds the run, merges it into L1 and cascades. Returns when the
    /// buffer is free again, or [`KvError::DeviceFull`].
    fn flush(&mut self, at: Ns) -> Result<Ns, KvError> {
        let snap = self.core().span_snapshot();
        let t = self.gc_for_headroom(at, 0)?;
        #[cfg(debug_assertions)]
        self.boundary_audit()?;
        let t_ack = self.flush_run(t)?;
        // Deeper merges are pipelined background work: they take chip
        // time, and so delay later flushes through the background queues,
        // but the buffer is free again once the L0->L1 merge lands.
        self.maintain(t_ack)?;
        self.core_mut()
            .push_span(snap, "flush", "buffer", 0, at, t_ack);
        #[cfg(debug_assertions)]
        self.boundary_audit()?;
        Ok(t_ack)
    }

    /// Whether level `i` is over its threshold, the write buffer times
    /// `LEVEL_RATIO^(i+1)`; `None` past the deepest level.
    fn over_threshold(&self, i: usize) -> Option<bool> {
        let threshold = self.core().cfg.write_buffer_bytes * LEVEL_RATIO.pow(i as u32 + 1);
        self.level_bytes(i).map(|bytes| bytes > threshold)
    }

    /// Cascades tree compactions from `at` while a level is over its
    /// threshold, adding a deepest level when the last one overflows.
    fn maintain(&mut self, at: Ns) -> Result<Ns, KvError> {
        let (mut t, mut i) = (at, 0);
        while let Some(over) = self.over_threshold(i) {
            if !over {
                i += 1;
                continue;
            }
            if self.level_bytes(i + 1).is_none() {
                self.push_level();
            }
            t = self.merge_down(i, t)?;
        }
        Ok(t)
    }

    /// Keeps at least [`RESERVE_BLOCKS`] plus `extra` blocks of
    /// [`Self::gc_alloc`] free, one collection at a time from `at`; a merge
    /// asks for `extra` blocks of headroom before its inputs are freed.
    /// Returns when the last collection completes, or
    /// [`KvError::DeviceFull`] when nothing can be reclaimed or after twice
    /// as many collections as the allocator has blocks.
    fn gc_for_headroom(&mut self, at: Ns, extra: usize) -> Result<Ns, KvError> {
        let (mut t, mut guard) = (at, 0usize);
        while self.gc_alloc().free_count() < RESERVE_BLOCKS + extra {
            guard += 1;
            if guard > self.gc_alloc().len() * 2 {
                return Err(KvError::DeviceFull);
            }
            t = self.collect(t)?;
        }
        Ok(t)
    }

    /// Restores GC headroom from `at` for a compaction whose output may
    /// outgrow its inputs by `growth` bytes before they are freed, plus two
    /// blocks of packing slack; returns when the compaction can start.
    fn open_compaction(&mut self, growth: u64, at: Ns) -> Result<Ns, KvError> {
        let blocks = growth / self.core().flash.geometry().block_bytes();
        Ok(self.gc_for_headroom(at, blocks as usize + 2)?.max(at))
    }

    /// Closes a compaction whose flash work ended at `done`: the merge-sort
    /// CPU of `entries` entries, GC headroom, then the `compaction` span
    /// `label` on `level` from `start` against `snap`. Returns when done.
    fn close_compaction(
        &mut self,
        snap: Option<(u64, u64)>,
        label: &str,
        level: usize,
        start: Ns,
        done: Ns,
        entries: u64,
    ) -> Result<Ns, KvError> {
        let done = done + entries * SORT_NS_PER_ENTITY;
        let done = done.max(self.gc_for_headroom(done, 0)?);
        #[cfg(debug_assertions)]
        self.boundary_audit()?;
        self.core_mut()
            .push_span(snap, "compaction", label, level as u32, start, done);
        Ok(done)
    }
}

/// A request in flight: how far its virtual clock has run, the flash
/// pages read on its critical path, and where the time went. The engines
/// charge their reads to it only through `charge` and `read`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Request {
    /// Virtual time the request has reached.
    pub(crate) t: Ns,
    /// Flash page reads on the critical path so far.
    pub(crate) reads: u32,
    /// Latency attributed so far.
    pub(crate) phases: PhaseBreakdown,
}

impl Request {
    /// A request starting at `at` with `cpu_ns` of engine CPU time.
    fn new(at: Ns, cpu_ns: Ns) -> Self {
        Self {
            t: at + cpu_ns,
            reads: 0,
            phases: PhaseBreakdown {
                engine: cpu_ns,
                ..PhaseBreakdown::default()
            },
        }
    }

    /// Charges a set of `pages` reads of `cause` issued together, the last
    /// done at `done`: every page is counted, the clock moves to `done` if
    /// that is later, and the cause's phase is charged with how far it
    /// moved (`MetaRead` to `meta_read`, `LogRead` to `log_read`, and
    /// `HostRead` to `data_read`). Of two sets issued at the same time, the
    /// one charged second adds only the tail it runs past the first.
    pub(crate) fn charge(&mut self, cause: OpCause, (done, pages): (Ns, u32)) {
        let moved = done.saturating_sub(self.t);
        self.t += moved;
        self.reads += pages;
        let phase = match cause {
            OpCause::MetaRead => &mut self.phases.meta_read,
            OpCause::LogRead => &mut self.phases.log_read,
            _ => &mut self.phases.data_read,
        };
        *phase += moved;
    }

    /// Reads `ppas` in parallel at the request's clock and charges them.
    pub(crate) fn read(
        &mut self,
        flash: &mut FlashSim,
        cause: OpCause,
        ppas: impl IntoIterator<Item = Ppa>,
    ) {
        let mut pages = 0;
        let counted = ppas.into_iter().inspect(|_| pages += 1);
        let done = flash.read_many(counted, cause, self.t);
        self.charge(cause, (done, pages));
    }

    /// The outcome of the request issued at `at` and done now; the latency
    /// the phases do not attribute lands in queue-wait.
    fn finish(mut self, at: Ns, found: bool) -> OpOutcome {
        self.phases.finish(self.t - at);
        OpOutcome {
            issued_at: at,
            done_at: self.t,
            found,
            flash_reads: self.reads,
            phases: self.phases,
        }
    }
}

/// A GET: the key hash, then the write buffer, then the levels; a key no
/// version settles costs a closing DRAM operation.
fn get<E: Engine>(e: &mut E, id: u64, at: Ns) -> Result<OpOutcome, KvError> {
    let key = e.core().make_key(id)?;
    let mut req = Request::new(at, E::HASH_NS);
    let found = match e.core().buffer.get(id) {
        Some(b) => !b.tombstone,
        None => match e.get_levels(key, &mut req) {
            Some(found) => return Ok(req.finish(at, found)),
            None => false,
        },
    };
    req.t += DRAM_OP_NS;
    req.phases.engine += DRAM_OP_NS;
    Ok(req.finish(at, found))
}

/// A PUT, or with `tombstone` a DELETE: the key hash and one DRAM
/// operation into the write buffer. The buffer it fills is flushed; with a
/// double-buffered L0 the request stalls only while the previous flush is
/// still in flight, and the stall lands in queue-wait.
fn put<E: Engine>(
    e: &mut E,
    id: u64,
    value_len: u32,
    tombstone: bool,
    at: Ns,
) -> Result<OpOutcome, KvError> {
    // The buffer stores the id; building its key rejects an id the key
    // length cannot hold.
    e.core().make_key(id)?;
    let max = e.core().max_value_len;
    if value_len > max {
        return Err(KvError::ValueTooLarge { value_len, max });
    }
    let start = e.core_mut().buffer_put(id, value_len, tombstone, at);
    if let Some(start) = start {
        let done = e.flush(start)?;
        e.core_mut().flush_done = done;
    }
    let cpu = E::HASH_NS + DRAM_OP_NS;
    Ok(Request::new(start.unwrap_or(at), cpu).finish(at, true))
}

/// A range scan: the key hash, then the engine's scan, whose key ids stay
/// in the device's scan plan.
fn scan<E: Engine>(e: &mut E, id: u64, len: u32, at: Ns) -> Result<OpOutcome, KvError> {
    e.core().make_key(id)?; // rejects an id the key length cannot hold
    let mut req = Request::new(at, E::HASH_NS);
    e.scan_levels(id, len, &mut req);
    let found = !e.core().scan_plan.hits.is_empty();
    Ok(req.finish(at, found))
}

impl<E: Engine> KvEngine for E {
    fn kind(&self) -> EngineKind {
        self.core().cfg.engine
    }

    fn execute(&mut self, op: &Op, at: Ns) -> Result<OpOutcome, KvError> {
        match *op {
            Op::Get { key } => get(self, key, at),
            Op::Put { key, value_len } => put(self, key, value_len, false, at),
            Op::Delete { key } => put(self, key, 0, true, at),
            Op::Scan { start, len } => scan(self, start, len, at),
        }
    }

    fn scan_keys(&mut self, start: u64, len: u32, at: Ns) -> (Vec<u64>, OpOutcome) {
        // An ill-formed start key cannot match any stored key, so the scan
        // is empty rather than a panic.
        match scan(self, start, len, at) {
            Ok(outcome) => {
                let hits = &self.core().scan_plan.hits;
                (hits.iter().map(|&(id, _)| id).collect(), outcome)
            }
            Err(_) => (Vec::new(), Request::new(at, 0).finish(at, false)),
        }
    }

    fn metadata(&self) -> MetadataStats {
        MetadataStats {
            live_unique_bytes: self.live_bytes(),
            ..self.stats()
        }
    }

    fn counters(&self) -> FlashCounters {
        self.core().flash.counters().clone()
    }

    fn reset_counters(&mut self) {
        self.core_mut().flash.reset_counters();
    }

    fn horizon(&self) -> Ns {
        self.core().flash.horizon()
    }

    fn capacity_bytes(&self) -> u64 {
        self.core().cfg.capacity_bytes()
    }

    fn check_invariants(&self) -> Result<(), AuditError> {
        self.audit()
    }

    fn set_tracing(&mut self, on: bool) {
        self.core_mut().set_tracing(on);
    }

    fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.core_mut().take_trace()
    }

    fn sample_state(&self) -> StateSample {
        let s = self.sample_levels(&self.stats());
        StateSample {
            group_count: s.levels.iter().map(|l| l.entries).sum(),
            ..s
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DeviceConfig, DRAM_OP_NS, HASH_NS};

    /// The request CPU model: AnyKey hashes the key on every request, PinK
    /// does not, and a request that touches the write buffer or ends a
    /// lookup pays one DRAM operation. No flash is read and the whole
    /// latency is engine time.
    #[test]
    fn request_cpu_charges_are_pinned() {
        let kinds = [
            (EngineKind::AnyKey, HASH_NS),
            (EngineKind::AnyKeyPlus, HASH_NS),
            (EngineKind::AnyKeyNoLog, HASH_NS),
            (EngineKind::Pink, 0),
        ];
        for (kind, hash) in kinds {
            let mut dev = DeviceConfig::builder()
                .capacity_bytes(16 << 20)
                .page_size(8 << 10)
                .pages_per_block(16)
                .group_pages(8)
                .engine(kind)
                .key_len(16)
                .build()
                .build_engine();
            let at = dev.horizon();
            let miss = dev.get(2);
            let (_, scan) = dev.scan_keys(0, 10, at);
            let put = dev.put(1, 100).expect("put");
            let hit = dev.get(1);
            let cases = [
                ("put", put, true, hash + DRAM_OP_NS),
                ("buffer hit", hit, true, hash + DRAM_OP_NS),
                ("empty miss", miss, false, hash + DRAM_OP_NS),
                ("empty scan", scan, false, hash),
            ];
            for (what, o, found, cpu) in cases {
                let want = PhaseBreakdown {
                    engine: cpu,
                    ..PhaseBreakdown::default()
                };
                assert_eq!(o.latency(), cpu, "{kind:?} {what}");
                assert_eq!(o.phases, want, "{kind:?} {what}");
                assert_eq!(o.found, found, "{kind:?} {what}");
                assert_eq!(o.flash_reads, 0, "{kind:?} {what}");
            }
        }
    }

    /// A value at the device's bound is stored, read back whole and audited
    /// on every engine; one byte more is refused with `ValueTooLarge` and
    /// changes nothing. At 128 pages per block the erase block sets the
    /// bound, at 512 the 255 pages an extent counts.
    #[test]
    fn a_value_over_the_bound_is_refused_and_changes_nothing() {
        use crate::anykey::entity::ENTITY_HEADER_BYTES;
        let kinds = [
            EngineKind::Pink,
            EngineKind::AnyKey,
            EngineKind::AnyKeyPlus,
            EngineKind::AnyKeyNoLog,
        ];
        for pages_per_block in [128u64, 512] {
            for kind in kinds {
                let ctx = format!("{kind:?}, {pages_per_block} pages per block");
                let cfg = DeviceConfig::builder()
                    .pages_per_block(pages_per_block as u32)
                    .engine(kind)
                    .key_len(24)
                    .build();
                let payload = u64::from(cfg.page_payload());
                let record = ((pages_per_block - 1) * payload).min(254 * payload + 1);
                let want = (record - 24 - ENTITY_HEADER_BYTES) as u32;
                let mut dev = cfg.build_engine();
                let refused = dev.put(0, u32::MAX);
                let Err(KvError::ValueTooLarge { max, .. }) = refused else {
                    panic!("{ctx}: a 4 GiB value got {refused:?}");
                };
                assert_eq!(max, want, "{ctx}: bound");
                for id in 0..100 {
                    dev.put(id, 100).expect("small put");
                }
                // The value outgrows the write buffer, so it is flushed.
                dev.put(100, max).expect("a put at the bound");
                let got = dev.get(100);
                assert!(got.found, "{ctx}: the value at the bound is lost");
                assert!(
                    u64::from(got.flash_reads) >= u64::from(max).div_ceil(payload),
                    "{ctx}: {} flash reads cannot read a {max}-byte value",
                    got.flash_reads
                );
                assert_eq!(dev.check_invariants(), Ok(()), "{ctx}: audit");

                let before = (dev.horizon(), dev.counters(), dev.metadata());
                let over = dev.put(101, max + 1);
                let want_err = KvError::ValueTooLarge {
                    value_len: max + 1,
                    max,
                };
                assert_eq!(over.map(|_| ()), Err(want_err), "{ctx}: one byte over");
                let after = (dev.horizon(), dev.counters(), dev.metadata());
                assert_eq!(after, before, "{ctx}: the refused put changed the store");
                assert!(
                    (0..=100).all(|id| dev.get(id).found),
                    "{ctx}: a key is lost"
                );
                assert!(!dev.get(101).found, "{ctx}: the refused key is stored");
            }
        }
    }

    /// A 16 MiB store of `kind` with a 32 KiB write buffer, so that
    /// `put_stream` builds at least three levels.
    fn cascaded(kind: EngineKind) -> DeviceConfig {
        DeviceConfig::builder()
            .capacity_bytes(16 << 20)
            .page_size(8 << 10)
            .pages_per_block(16)
            .group_pages(8)
            .engine(kind)
            .key_len(24)
            .value_log_bytes(2 << 20)
            .write_buffer_bytes(32 << 10)
            .build()
    }

    /// 20 k sequential inserts, then 40 k seeded uniform updates.
    fn put_stream(dev: &mut impl KvEngine) {
        let mut rng = anykey_workload::SplitMix64::new(0x0CA5_CADE);
        for i in 0..60_000u64 {
            let key = if i < 20_000 {
                i
            } else {
                rng.next_bounded(20_000)
            };
            let value_len = 8 + rng.next_bounded(300) as u32;
            dev.put(key, value_len).expect("put");
        }
    }

    /// The size-ratio policy: once the cascade settles, every level's
    /// size (physical bytes for AnyKey, logical for PinK) is at most the
    /// write buffer times `LEVEL_RATIO^(i+1)` and `over_threshold` agrees;
    /// every level's cached logical size is the sum over its entries; and
    /// the metadata snapshot counts exactly the non-empty levels.
    #[test]
    fn cascade_keeps_every_level_within_its_ratio_threshold() {
        use crate::anykey::AnyKeyStore;
        use crate::config::LEVEL_RATIO;
        use crate::pink::PinkStore;
        /// (size, over threshold, empty) per level, past-the-end probe.
        fn shape<E: Engine>(dev: &E, sizes: Vec<(u64, bool)>) -> Vec<(u64, Option<bool>, bool)> {
            assert_eq!(dev.over_threshold(sizes.len()), None);
            let key_len = dev.core().cfg.key_len;
            for (i, l) in dev.runs().enumerate() {
                let sum: u64 = l.ents.iter().map(|e| e.kv_bytes(key_len)).sum();
                assert_eq!(l.kv_bytes(), sum, "level {i} cached kv_bytes");
            }
            let sizes = sizes.into_iter().enumerate();
            sizes
                .map(|(i, (b, e))| (b, dev.over_threshold(i), e))
                .collect()
        }
        let kinds = [
            EngineKind::Pink,
            EngineKind::AnyKey,
            EngineKind::AnyKeyPlus,
            EngineKind::AnyKeyNoLog,
        ];
        for kind in kinds {
            let cfg = cascaded(kind);
            let buffer = cfg.write_buffer_bytes;
            let (levels, meta) = if kind == EngineKind::Pink {
                let mut dev = PinkStore::new(cfg);
                put_stream(&mut dev);
                let l = dev
                    .levels
                    .iter()
                    .map(|l| (l.run.kv_bytes(), l.run.is_empty()));
                (shape(&dev, l.collect()), dev.metadata())
            } else {
                let mut dev = AnyKeyStore::new(cfg);
                put_stream(&mut dev);
                let l = dev.levels.iter().map(|l| (l.phys_bytes(), l.is_empty()));
                (shape(&dev, l.collect()), dev.metadata())
            };
            let populated = levels.iter().filter(|l| !l.2).count();
            assert!(
                levels.len() >= 3,
                "{kind:?}: only {} levels built",
                levels.len()
            );
            assert_eq!(meta.levels, populated, "{kind:?}: metadata level count");
            for (i, &(bytes, over, _)) in levels.iter().enumerate() {
                let threshold = buffer * LEVEL_RATIO.pow(i as u32 + 1);
                assert!(
                    bytes <= threshold,
                    "{kind:?}: level {i} holds {bytes} B over its threshold {threshold} B at rest"
                );
                assert_eq!(over, Some(false), "{kind:?}: level {i} over its threshold");
            }
        }
    }

    #[test]
    fn outcome_latency_is_delta() {
        let o = OpOutcome {
            issued_at: 10,
            done_at: 150,
            found: true,
            flash_reads: 2,
            phases: PhaseBreakdown::default(),
        };
        assert_eq!(o.latency(), 140);
    }

    #[test]
    fn metadata_sum_matches_table1_definition() {
        let m = MetadataStats {
            level_list_bytes: 10,
            hash_list_resident_bytes: 20,
            meta_segment_dram_bytes: 5,
            meta_segment_flash_bytes: 7,
            ..MetadataStats::default()
        };
        assert_eq!(m.metadata_bytes(), 42);
    }

    #[test]
    fn dram_resident_bytes_excludes_flash_copies() {
        let m = MetadataStats {
            level_list_bytes: 100,
            level_list_flash_bytes: 30,
            hash_list_total_bytes: 50,
            hash_list_resident_bytes: 20,
            meta_segment_dram_bytes: 5,
            meta_segment_flash_bytes: 7,
            ..MetadataStats::default()
        };
        assert_eq!(m.dram_resident_bytes(), 100 - 30 + 20 + 5);
    }
}
