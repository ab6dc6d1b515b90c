//! The AnyKey engine (paper Sections 4.1–4.7).

/// Flush and tree/log-triggered compaction.
pub mod compaction;
/// Entities: key, hash, and value location.
pub mod entity;
/// Group placement and group-area GC.
pub mod gc;
/// Data segment groups and their directories.
pub mod group;
/// LSM levels over data segment groups.
pub mod level;
#[cfg(test)]
mod tests;

use anykey_flash::{BlockAllocator, FlashCounters, Ns, OpCause, Ppa};
use anykey_metrics::timeline::{LevelSample, StateSample};
use anykey_metrics::trace::{PhaseBreakdown, TraceEvent};
use anykey_workload::Op;

use crate::audit::AuditError;
use crate::bytelog::ByteLog;
use crate::config::{DeviceConfig, EngineKind, DRAM_OP_NS, HASH_NS, LEVEL_RATIO};
use crate::device::{empty_outcome, outcome, put_outcome, scan_outcome, DeviceCore, ScanCand};
use crate::engine::{KvEngine, MetadataStats, OpOutcome};
use crate::error::KvError;
use crate::pagearea::PageArea;

use entity::ValueLoc;
use level::Level;

/// The AnyKey key-value SSD (also AnyKey+ and AnyKey− via
/// [`EngineKind`]).
///
/// See the [crate docs](crate) and `DESIGN.md` for the architecture; in
/// short: DRAM holds the write buffer, group-granular level lists, and
/// best-effort hash lists; flash holds data segment groups (keys +
/// inline values or log pointers) and the value log.
#[derive(Debug)]
pub struct AnyKeyStore {
    pub(crate) core: DeviceCore,
    pub(crate) levels: Vec<Level>,
    /// Where data segment groups live: one stream, blocks drawn from
    /// `group_alloc`.
    pub(crate) area: PageArea,
    /// The group area's blocks (every block outside the value log).
    pub(crate) group_alloc: BlockAllocator,
    /// The value log (Section 4.3; `None` for AnyKey−). Entities hold
    /// pointers into it; values move back into groups only through
    /// log-triggered compaction, the one mechanism that reclaims log
    /// space (no standalone GC runs in the log — Section 4.4.4).
    pub(crate) log: Option<ByteLog>,
}

impl AnyKeyStore {
    /// Builds an AnyKey device from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration selects the PinK engine.
    pub fn new(cfg: DeviceConfig) -> Self {
        assert_ne!(cfg.engine, EngineKind::Pink, "use PinkStore for PinK");
        let core = DeviceCore::new(cfg);
        let geometry = core.cfg.flash.geometry;
        let total_blocks = geometry.blocks();
        let log_blocks = (core.cfg.value_log_bytes.div_ceil(geometry.block_bytes())) as u32;
        assert!(
            log_blocks < total_blocks,
            "value log ({log_blocks} blocks) must leave room for groups ({total_blocks} total)"
        );
        let log = (log_blocks > 0).then(|| {
            let la = core.allocator(total_blocks - log_blocks..total_blocks);
            ByteLog::new(
                la,
                core.page_payload,
                geometry.pages_per_block,
                OpCause::LogWrite,
            )
        });
        Self {
            levels: vec![Level::new(core.cfg.write_buffer_bytes * LEVEL_RATIO)],
            area: PageArea::new(geometry.pages_per_block, "group area"),
            group_alloc: core.allocator(0..(total_blocks - log_blocks)),
            log,
            core,
        }
    }

    /// Whether this instance runs the AnyKey+ compaction enhancement.
    pub(crate) fn is_plus(&self) -> bool {
        self.core.cfg.engine == EngineKind::AnyKeyPlus
    }

    fn do_put(
        &mut self,
        id: u64,
        value_len: u32,
        tombstone: bool,
        at: Ns,
    ) -> Result<OpOutcome, KvError> {
        let key = self.core.make_key(id)?;
        let start = self.core.buffer_put(key, value_len, tombstone, at);
        if let Some(start) = start {
            self.core.flush_done = self.flush(start)?;
        }
        let cpu = HASH_NS + DRAM_OP_NS;
        Ok(put_outcome(at, start, cpu))
    }

    fn do_get(&mut self, id: u64, at: Ns) -> Result<OpOutcome, KvError> {
        let key = self.core.make_key(id)?;
        let hash = key.hash32();
        let mut t = at + HASH_NS;
        let mut reads = 0u32;
        let mut phases = PhaseBreakdown {
            engine: HASH_NS,
            ..PhaseBreakdown::default()
        };

        if let Some(e) = self.core.buffer.get(&key) {
            let done = t + DRAM_OP_NS;
            phases.engine += DRAM_OP_NS;
            return Ok(outcome(at, done, !e.tombstone, 0, phases));
        }

        for li in 0..self.levels.len() {
            let Some(gi) = self.levels[li].candidate(key) else {
                continue;
            };
            // Hash-list check (free when resident; Section 4.2).
            let g = &self.levels[li].groups[gi];
            if g.hash_list_resident && !g.content.contains_hash(hash) {
                continue;
            }
            // Read the routed page, walking backwards over 16-bit prefix
            // ambiguity and cross-page hash collisions (Figure 7).
            let layout = g.content.layout();
            let mut p = g.content.route_page(hash);
            loop {
                let before = t;
                t = self
                    .core
                    .flash
                    .read(g.data_ppa(p), OpCause::HostRead, t)
                    .done;
                phases.data_read += t - before;
                reads += 1;
                if let Some(i) = g.content.search_page(p, hash, key) {
                    let e = &g.content.ents[i];
                    // Inline values may spill into following pages.
                    let span = usize::from(layout.span[i]);
                    reads += span as u32;
                    let before = t;
                    let spilled = (p + 1..=p + span).map(|i| g.data_ppa(i));
                    t = self.core.flash.read_many(spilled, OpCause::HostRead, t);
                    phases.data_read += t - before;
                    if e.tombstone {
                        return Ok(outcome(at, t, false, reads, phases));
                    }
                    let done = match e.loc {
                        ValueLoc::Inline => t,
                        ValueLoc::Logged(ptr) => {
                            reads += ptr.pages as u32;
                            let d = self.core.flash.read_many(ptr.pages(), OpCause::LogRead, t);
                            phases.log_read += d - t;
                            d
                        }
                    };
                    return Ok(outcome(at, done, true, reads, phases));
                }
                let first = layout.page_first_hash[p];
                if p > 0 && (hash < first || (hash == first && layout.collision[p].continued_prev))
                {
                    p -= 1;
                    continue;
                }
                break;
            }
        }
        let done = t + DRAM_OP_NS;
        phases.engine += DRAM_OP_NS;
        Ok(outcome(at, done, false, reads, phases))
    }

    fn do_scan(
        &mut self,
        start_id: u64,
        len: u32,
        at: Ns,
    ) -> Result<(Vec<u64>, OpOutcome), KvError> {
        let start = self.core.make_key(start_id)?;
        // Candidates carry their data page and value location; the index
        // pages are the group directory pages the collection walked
        // (Section 4.4.5).
        let (levels, page_payload) = (&self.levels, self.core.page_payload);
        let plan = self.core.scan(
            start,
            len as usize,
            levels.len(),
            |li, budget, cands, pages| {
                let level = &levels[li];
                let mut taken = 0usize;
                // Groups hold disjoint, ascending key ranges, so only the
                // first group visited can hold keys below `start`.
                let first = level.scan_start(start);
                let mut gi = first;
                while taken < budget && gi < level.groups.len() {
                    let g = &level.groups[gi];
                    let from = if gi == first {
                        g.content.dir_lower_bound(start)
                    } else {
                        0
                    };
                    let ents = &g.content.ents;
                    if from < ents.len() {
                        pages.push(g.dir_ppa(from, page_payload));
                    }
                    let page_of = &g.content.layout().page_of;
                    for (e, &p) in ents[from..]
                        .iter()
                        .zip(&page_of[from..])
                        .take(budget - taken)
                    {
                        cands.push(ScanCand {
                            key: e.key,
                            tombstone: e.tombstone,
                            payload: (g.data_ppa(p as usize), e.loc),
                        });
                        taken += 1;
                    }
                    gi += 1;
                }
                Ok(taken)
            },
        )?;

        // Flash timing: directory pages first, then data + log pages.
        let t0 = at + HASH_NS;
        let mut phases = PhaseBreakdown {
            engine: HASH_NS,
            ..PhaseBreakdown::default()
        };
        let (t, dir_reads) = self.core.read_set(plan.index_pages, OpCause::HostRead, t0);
        phases.data_read += t - t0;
        let mut data_ppas: Vec<Ppa> = Vec::new();
        let mut log_ppas: Vec<Ppa> = Vec::new();
        for &(_, payload) in &plan.hits {
            if let Some((data_ppa, loc)) = payload {
                data_ppas.push(data_ppa);
                if let ValueLoc::Logged(ptr) = loc {
                    log_ppas.extend(ptr.pages());
                }
            }
        }
        let (t_data, data_reads) = self.core.read_set(data_ppas, OpCause::HostRead, t);
        let (t_log, log_reads) = self.core.read_set(log_ppas, OpCause::LogRead, t);
        let done = t_data.max(t_log);
        // Data and log reads overlap; attribute the critical path — data
        // reads in full, log reads only for the tail they add past them —
        // so the phases still sum exactly to the latency.
        phases.data_read += t_data - t;
        phases.log_read += done - t_data;
        Ok(scan_outcome(
            &plan.hits,
            at,
            done,
            dir_reads + data_reads + log_reads,
            phases,
        ))
    }

    /// Recomputes DRAM placement: level lists are mandatory; hash lists are
    /// granted top level first until the metadata budget runs out
    /// (Section 4.2).
    pub(crate) fn rebalance_dram(&mut self) {
        self.core.dram.clear_claims();
        let level_lists: u64 = self.levels.iter().map(Level::meta_bytes).sum();
        if !self.core.dram.try_claim(level_lists) {
            // AnyKey's design keeps level lists DRAM-resident by
            // construction; a configuration that violates it fills the
            // budget with level lists (see `level_list_overflowed`).
            self.core.dram.metadata_used = self.core.dram.metadata_budget();
            for level in &mut self.levels {
                for g in &mut level.groups {
                    g.hash_list_resident = false;
                }
            }
            return;
        }
        let mut exhausted = false;
        for level in &mut self.levels {
            for g in &mut level.groups {
                if exhausted {
                    g.hash_list_resident = false;
                } else if self.core.dram.try_claim(g.content.hash_list_bytes()) {
                    g.hash_list_resident = true;
                } else {
                    g.hash_list_resident = false;
                    exhausted = true;
                }
            }
        }
    }

    /// Whether the level lists outgrow the DRAM metadata budget — exactly
    /// when `rebalance_dram`'s level-list claim fails. Diagnostics;
    /// it stays `false` under AnyKey's design guarantee.
    pub fn level_list_overflowed(&self) -> bool {
        let level_lists: u64 = self.levels.iter().map(Level::meta_bytes).sum();
        level_lists > self.core.dram.metadata_budget()
    }

    /// Direct access to the value log (benchmarks and tests).
    pub fn value_log(&self) -> Option<&ByteLog> {
        self.log.as_ref()
    }
}

impl KvEngine for AnyKeyStore {
    fn kind(&self) -> EngineKind {
        self.core.cfg.engine
    }

    fn execute(&mut self, op: &Op, at: Ns) -> Result<OpOutcome, KvError> {
        match *op {
            Op::Get { key } => self.do_get(key, at),
            Op::Put { key, value_len } => self.do_put(key, value_len, false, at),
            Op::Delete { key } => self.do_put(key, 0, true, at),
            Op::Scan { start, len } => self.do_scan(start, len, at).map(|(_, o)| o),
        }
    }

    fn scan_keys(&mut self, start: u64, len: u32, at: Ns) -> (Vec<u64>, OpOutcome) {
        // An ill-formed start key cannot match any stored key, so the scan
        // is empty rather than a panic.
        self.do_scan(start, len, at)
            .unwrap_or_else(|_| (Vec::new(), empty_outcome(at)))
    }

    fn metadata(&self) -> MetadataStats {
        let level_list_bytes: u64 = self.levels.iter().map(Level::meta_bytes).sum();
        let (mut hash_list_total, mut hash_list_resident) = (0u64, 0u64);
        for g in self.levels.iter().flat_map(|l| &l.groups) {
            let bytes = g.content.hash_list_bytes();
            hash_list_total += bytes;
            if g.hash_list_resident {
                hash_list_resident += bytes;
            }
        }
        MetadataStats {
            level_list_bytes,
            level_list_flash_bytes: level_list_bytes
                .saturating_sub(self.core.dram.metadata_budget()),
            hash_list_total_bytes: hash_list_total,
            hash_list_resident_bytes: hash_list_resident,
            levels: self.levels.iter().filter(|l| !l.is_empty()).count(),
            value_log_used_bytes: self.log.as_ref().map_or(0, ByteLog::valid_bytes),
            retired_blocks: (self.group_alloc.retired_count()
                + self
                    .log
                    .as_ref()
                    .map_or(0, |l| l.allocator().retired_count()))
                as u64,
            free_blocks: (self.group_alloc.free_count()
                + self.log.as_ref().map_or(0, |l| l.allocator().free_count()))
                as u64,
            ..self.core.metadata()
        }
    }

    fn sample_state(&self) -> StateSample {
        let meta = self.metadata();
        let log_capacity = self.log.as_ref().map_or(0, ByteLog::capacity_bytes);
        let log_free = self.log.as_ref().map_or(0, ByteLog::free_bytes);
        StateSample {
            group_count: self
                .levels
                .iter()
                .map(|l| l.groups.len() as u64)
                .sum::<u64>(),
            value_log_stale_bytes: log_capacity
                .saturating_sub(meta.value_log_used_bytes)
                .saturating_sub(log_free),
            levels: self
                .levels
                .iter()
                .enumerate()
                .map(|(i, l)| LevelSample {
                    level: i as u32,
                    entries: l.groups.len() as u64,
                    kv_bytes: l.kv_bytes,
                    phys_bytes: l.phys_bytes,
                    meta_bytes: l.meta_bytes(),
                })
                .collect(),
            ..self.core.sample_state(&meta)
        }
    }

    fn counters(&self) -> FlashCounters {
        self.core.counters()
    }

    fn reset_counters(&mut self) {
        self.core.reset_counters();
    }

    fn horizon(&self) -> Ns {
        self.core.horizon()
    }

    fn capacity_bytes(&self) -> u64 {
        self.core.capacity_bytes()
    }

    fn check_invariants(&self) -> Result<(), AuditError> {
        self.verify_invariants()
    }

    fn set_tracing(&mut self, on: bool) {
        self.core.set_tracing(on);
    }

    fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.core.take_trace()
    }
}
