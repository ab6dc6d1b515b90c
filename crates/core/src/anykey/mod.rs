//! The AnyKey engine (paper Sections 4.1–4.7).

/// Tree- and log-triggered compaction.
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

use anykey_flash::{BlockAllocator, Ns, OpCause};
use anykey_metrics::timeline::{LevelSample, StateSample};

use crate::audit::{audit_retirement, AuditError};
use crate::bytelog::ByteLog;
use crate::config::{DeviceConfig, EngineKind, HASH_NS};
use crate::device::{DeviceCore, Source};
use crate::engine::{Engine, MetadataStats, Request};
use crate::error::KvError;
use crate::key::Key;
use crate::pagearea::PageArea;

use compaction::InlinePolicy;
use entity::{Entity, ValueLoc};
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
            ByteLog::new(
                BlockAllocator::new(total_blocks - log_blocks..total_blocks),
                core.page_payload,
                geometry.pages_per_block,
                OpCause::LogWrite,
                "value log",
            )
        });
        let groups = 0..total_blocks - log_blocks;
        Self {
            levels: vec![Level::default()],
            area: PageArea::new(groups.clone(), geometry.pages_per_block, "group area"),
            group_alloc: BlockAllocator::new(groups),
            log,
            core,
        }
    }

    /// Whether this instance runs the AnyKey+ compaction enhancement.
    pub(crate) fn is_plus(&self) -> bool {
        self.core.cfg.engine == EngineKind::AnyKeyPlus
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
                } else if self.core.dram.try_claim(g.hash_list_bytes()) {
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

impl Engine for AnyKeyStore {
    const HASH_NS: Ns = HASH_NS;

    fn core(&self) -> &DeviceCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut DeviceCore {
        &mut self.core
    }

    fn get_levels(&mut self, key: Key, req: &mut Request) -> Option<bool> {
        let (id, hash) = (key.id(), key.hash32());
        for level in &self.levels {
            let Some(gi) = level.candidate(id) else {
                continue;
            };
            // Hash-list check (free when resident; Section 4.2).
            let (g, all) = (&level.groups[gi], &level.ents[..]);
            if g.hash_list_resident && !g.contains_hash(all, hash) {
                continue;
            }
            // Read the routed page, walking backwards over 16-bit prefix
            // ambiguity and cross-page hash collisions (Figure 7), then the
            // pages an inline value spills into.
            let flash = &mut self.core.flash;
            let found = g.lookup(all, hash, id, |pages| {
                req.read(flash, OpCause::HostRead, pages.map(|p| g.data_ppa(p)));
            });
            if let Some(i) = found {
                let e = &all[i];
                if e.tombstone {
                    return Some(false);
                }
                if let ValueLoc::Logged(ptr) = e.loc() {
                    req.read(flash, OpCause::LogRead, ptr.pages());
                }
                return Some(true);
            }
        }
        None
    }

    fn scan_levels(&mut self, start: u64, len: u32, req: &mut Request) -> Vec<u64> {
        // Each level's run is its entity array from the first entity ≥
        // `start`; the budget walk starts at the group holding it. The
        // index pages are the group directory pages the walk visits
        // (Section 4.4.5).
        let levels = &self.levels;
        let mut starts: Vec<(usize, usize)> = levels.iter().map(|l| l.scan_from(start)).collect();
        let runs = levels.iter().zip(&starts);
        let plan = self.core.scan(
            start,
            len as usize,
            runs.map(|(level, &(_, from))| (&level.ents[..], from)),
            |e: &Entity| (e.id, e.tombstone, e.value_len),
            |li, budget, pages| {
                let (level, (first, from)) = (&levels[li], starts[li]);
                let mut left = budget;
                for g in &level.groups[first..] {
                    if left == 0 {
                        break;
                    }
                    let from = from.max(g.start);
                    pages.push(g.dir_ppa(from - g.start));
                    let n = g.end - from;
                    if n >= left {
                        return Some(level.ents[from + left - 1].id);
                    }
                    left -= n;
                }
                None
            },
        );

        // Flash timing: directory pages first, then the data and log
        // pages of the hits.
        let dirs = self
            .core
            .read_set(plan.index_pages, OpCause::HostRead, req.t);
        req.charge(OpCause::HostRead, dirs);
        // A level's hits come in key order, so each one's group is found
        // by walking on from the previous one's, from the scan's start.
        let (mut data_ppas, mut log_ppas) = (Vec::new(), Vec::new());
        for pos in plan.hits.iter().filter_map(|&(_, pos)| pos) {
            let (level, gi) = (&levels[pos.level], &mut starts[pos.level].0);
            while level.groups[*gi].end <= pos.index {
                *gi += 1;
            }
            let g = &level.groups[*gi];
            data_ppas.push(g.data_ppa(g.page_of(&level.ents, pos.index)));
            if let ValueLoc::Logged(ptr) = level.ents[pos.index].loc() {
                log_ppas.extend(ptr.pages());
            }
        }
        // Data and log reads overlap: the data reads are charged in full,
        // the log reads only for the tail they add past them, so the
        // phases still sum exactly to the latency.
        let data = self.core.read_set(data_ppas, OpCause::HostRead, req.t);
        let log = self.core.read_set(log_ppas, OpCause::LogRead, req.t);
        req.charge(OpCause::HostRead, data);
        req.charge(OpCause::LogRead, log);
        plan.hits.iter().map(|&(id, _)| id).collect()
    }

    /// Secures value-log space first, then appends each buffered value to
    /// the log (Section 4.4.2), or keeps it inline for AnyKey−; the run
    /// holds the entities (an L0→L1 compaction).
    fn flush_run(&mut self, mut t: Ns) -> Result<Ns, KvError> {
        // Log-triggered compaction trigger (Section 4.4.3).
        let need = self.core.buffer.pending_value_bytes();
        let mut rounds = 0usize;
        while self.log.as_ref().is_some_and(|l| l.free_bytes() < need) {
            // Each round inlines the logged values of at least one level,
            // so a log that still overflows after more rounds than there
            // are levels (plus slack) cannot be relieved.
            rounds += 1;
            if rounds > self.levels.len() + 2 {
                return Err(KvError::DeviceFull);
            }
            t = self.log_triggered_compaction(t)?;
        }
        let entries = self.core.buffer.drain();
        let mut ents = Vec::with_capacity(entries.len());
        let mut t_log = t;
        for (id, be) in entries {
            let loc = match self.log.as_mut() {
                Some(log) if !be.tombstone && be.value_len > 0 => {
                    let (ptr, done) =
                        log.append(&mut self.core.flash, u64::from(be.value_len), t)?;
                    t_log = t_log.max(done);
                    ValueLoc::Logged(ptr)
                }
                _ => ValueLoc::Inline,
            };
            let hash = self.core.make_key(id)?.hash32();
            ents.push(Entity::new(id, hash, be.value_len, loc, be.tombstone));
        }
        self.compact(Source::Flush(ents), 0, InlinePolicy::Keep, t_log)
    }

    fn merge_down(&mut self, i: usize, at: Ns) -> Result<Ns, KvError> {
        self.compact(Source::Level(i), i + 1, InlinePolicy::Keep, at)
    }

    /// Physical bytes: log-triggered inlining grows a level.
    fn level_bytes(&self, i: usize) -> Option<u64> {
        self.levels.get(i).map(Level::phys_bytes)
    }

    fn push_level(&mut self) {
        self.levels.push(Level::default());
    }

    fn gc_alloc(&self) -> &BlockAllocator {
        &self.group_alloc
    }

    /// Relocates the groups of the group area's victim block.
    fn collect(&mut self, at: Ns) -> Result<Ns, KvError> {
        let (victim, _) = self.area.ledger.victim().ok_or(KvError::DeviceFull)?;
        self.relocate_block(victim, at)
    }

    fn stats(&self) -> MetadataStats {
        let level_list_bytes: u64 = self.levels.iter().map(Level::meta_bytes).sum();
        let (mut hash_list_total, mut hash_list_resident) = (0u64, 0u64);
        for g in self.levels.iter().flat_map(|l| &l.groups) {
            let bytes = g.hash_list_bytes();
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
                + self.log.as_ref().map_or(0, |l| l.alloc.retired_count()))
                as u64,
            free_blocks: (self.group_alloc.free_count()
                + self.log.as_ref().map_or(0, |l| l.alloc.free_count()))
                as u64,
            ..self.core.metadata()
        }
    }

    fn live_bytes(&self) -> u64 {
        let runs = self.levels.iter().map(|l| &l.ents[..]);
        self.core
            .live_bytes(runs, |e: &Entity| (e.id, e.tombstone, e.value_len))
    }

    fn sample_levels(&self, meta: &MetadataStats) -> StateSample {
        let log_capacity = self.log.as_ref().map_or(0, ByteLog::capacity_bytes);
        let log_free = self.log.as_ref().map_or(0, ByteLog::free_bytes);
        StateSample {
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
                    kv_bytes: l.kv_bytes(),
                    phys_bytes: l.phys_bytes(),
                    meta_bytes: l.meta_bytes(),
                })
                .collect(),
            ..self.core.sample_state(meta)
        }
    }

    /// Builds, and keeps, every group layout no read has built yet, so
    /// every group is audited whole, then runs the boundary audit.
    fn audit(&self) -> Result<(), AuditError> {
        for l in &self.levels {
            for g in &l.groups {
                g.layout(&l.ents);
            }
        }
        self.boundary_audit()
    }

    /// The full audit without building any group layout: it checks the
    /// layouts that exist, so builds with debug assertions keep release's
    /// laziness. A layout is built from its group's entities alone, so one
    /// that no read has built holds no state to damage; the next full
    /// audit checks it.
    fn boundary_audit(&self) -> Result<(), AuditError> {
        for (li, level) in self.levels.iter().enumerate() {
            level.audit(li)?;
        }

        // What rebalance_dram claimed must equal what is marked resident.
        self.core.dram.audit(self.stats().dram_resident_bytes())?;

        // Per area: its blocks' counts, recounted from the levels, then no
        // live logged value or group in a retired block. A group's pages
        // never leave the block of its first page.
        if let Some(log) = &self.log {
            let logged = || {
                let ents = self.levels.iter().flat_map(|l| &l.ents);
                ents.filter_map(|e| match e.loc() {
                    ValueLoc::Logged(ptr) => Some((ptr.block, u64::from(e.value_len))),
                    ValueLoc::Inline => None,
                })
            };
            log.ledger.recount(logged())?;
            let blocks = logged().map(|(b, _)| (b, "value log"));
            audit_retirement(&log.alloc, "value log", blocks)?;
        }
        let groups = || self.levels.iter().flat_map(|l| &l.groups);
        let pages = groups().map(|g| (g.first_ppa.block, u64::from(g.total_pages())));
        self.area.ledger.recount(pages)?;
        let blocks = groups().map(|g| (g.first_ppa.block, "group area"));
        audit_retirement(&self.group_alloc, "group area", blocks)?;

        self.core.flash.counters().audit()?;
        Ok(())
    }
}
