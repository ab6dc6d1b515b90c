//! The PinK baseline engine.
//!
//! PinK is the state-of-the-art LSM-tree key-value SSD the paper evaluates
//! against. Its metadata is per-KV-pair: sorted *meta segments* of
//! `(key, PPA)` entries with a *level list* entry per segment. Under
//! high-v/k workloads this metadata is small and the hot part stays in
//! DRAM; under low-v/k workloads it outgrows DRAM, and every GET pays
//! flash reads just to locate the pair — the degradation AnyKey fixes
//! (paper Sections 2–3).

/// PinK's merge and DRAM placement.
pub mod compaction;
/// PinK's data/meta-block garbage collection.
pub mod gc;
/// Meta segments.
pub mod segment;

#[cfg(test)]
mod tests;

use anykey_flash::{BlockAllocator, Ns, OpCause, Ppa};
use anykey_metrics::timeline::{LevelSample, StateSample};

use crate::audit::{audit_retirement, AuditError};
use crate::bytelog::{ByteLog, Extent};
use crate::config::{DeviceConfig, EngineKind};
use crate::device::{DeviceCore, Source};
use crate::engine::{Engine, MetadataStats, Request};
use crate::error::KvError;
use crate::key::Key;
use crate::level::Level;
use crate::pagearea::PageArea;

use segment::{SegEntry, Segment, LIST_ENTRY_OVERHEAD};

/// One PinK LSM level: its entries cut into meta segments, and its level
/// list's placement.
#[derive(Debug, Clone, Default)]
pub struct PinkLevel {
    /// The level's entries and the meta segments that tile them.
    pub(crate) run: Level<SegEntry, Segment>,
    /// Flash pages of the spilled level list; empty exactly when the list
    /// is DRAM-resident.
    pub(crate) list_pages: Vec<Ppa>,
}

impl PinkLevel {
    /// Bytes of this level's level list, its keys being `key_len` bytes
    /// long.
    pub fn list_bytes(&self, key_len: u16) -> u64 {
        self.run.units.len() as u64 * (u64::from(key_len) + LIST_ENTRY_OVERHEAD)
    }
}

impl AsRef<Level<SegEntry, Segment>> for PinkLevel {
    fn as_ref(&self) -> &Level<SegEntry, Segment> {
        &self.run
    }
}

/// The PinK key-value SSD.
#[derive(Debug)]
pub struct PinkStore {
    pub(crate) core: DeviceCore,
    pub(crate) levels: Vec<PinkLevel>,
    /// Spilled meta segments and level-list pages, one stream per level:
    /// a level's pages die together at its next rebuild, so they share
    /// blocks that then free wholesale.
    pub(crate) meta: PageArea,
    /// The data area. It owns the device's one block allocator, which
    /// meta pages draw from too.
    pub(crate) data: ByteLog,
}

impl PinkStore {
    /// Builds a PinK device from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration selects an AnyKey engine.
    pub fn new(cfg: DeviceConfig) -> Self {
        assert_eq!(cfg.engine, EngineKind::Pink, "use AnyKeyStore for AnyKey");
        let core = DeviceCore::new(cfg);
        let geometry = core.cfg.flash.geometry;
        let blocks = 0..geometry.blocks();
        Self {
            levels: vec![PinkLevel::default()],
            meta: PageArea::new(blocks.clone(), geometry.pages_per_block, "meta area"),
            data: ByteLog::new(
                BlockAllocator::new(blocks),
                core.page_payload,
                geometry.pages_per_block,
                OpCause::CompactionWrite,
                "data area",
            ),
            core,
        }
    }

    fn list_entries_per_page(&self) -> u64 {
        let key_len = u64::from(self.core.cfg.key_len);
        (self.core.page_payload / (key_len + LIST_ENTRY_OVERHEAD)).max(1)
    }
}

impl Engine for PinkStore {
    const HASH_NS: Ns = 0;
    type Entry = SegEntry;
    type Unit = Segment;
    type Level = PinkLevel;

    fn core(&self) -> &DeviceCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut DeviceCore {
        &mut self.core
    }

    fn levels(&self) -> &[PinkLevel] {
        &self.levels
    }

    fn levels_mut(&mut self) -> &mut Vec<PinkLevel> {
        &mut self.levels
    }

    fn get_levels(&mut self, key: Key, req: &mut Request) -> Option<bool> {
        let id = key.id();
        for li in 0..self.levels.len() {
            let (Some(si), pos) = self.levels[li].run.seek(id) else {
                continue;
            };
            // Level-list probe: free in DRAM, one flash read when spilled.
            let list_pages = &self.levels[li].list_pages;
            if !list_pages.is_empty() {
                let per_page = self.list_entries_per_page() as usize;
                let ppa = list_pages[(si / per_page).min(list_pages.len() - 1)];
                req.read(&mut self.core.flash, OpCause::MetaRead, [ppa]);
            }
            // Meta-segment access: free when pinned, one flash read when
            // spilled.
            let flash = &mut self.core.flash;
            let run = &self.levels[li].run;
            req.read(flash, OpCause::MetaRead, run.units[si].ppa);
            if let Some(e) = run.entry_at(pos, id) {
                // A tombstone ends the lookup like a miss.
                if e.tombstone {
                    return None;
                }
                req.read(flash, OpCause::HostRead, e.ptr.pages());
                return Some(true);
            }
        }
        None
    }

    fn scan_levels(&mut self, start: u64, len: u32, req: &mut Request) {
        // The budget walk starts at the segment holding the level's first
        // entry ≥ `start`. The index pages are the spilled level lists and
        // meta segments the walk visits.
        let levels = &self.levels;
        let mut plan = self.core.scan(
            start,
            len as usize,
            levels,
            |li, (first, from), budget, pages| {
                let (level, run) = (&levels[li], &levels[li].run);
                if run.is_empty() {
                    return None;
                }
                pages.extend(level.list_pages.first());
                let mut left = budget;
                for seg in &run.units[first..] {
                    if left == 0 {
                        break;
                    }
                    pages.extend(seg.ppa);
                    let from = from.max(seg.start);
                    let n = seg.end - from;
                    if n >= left {
                        return Some(run.ents[from + left - 1].id);
                    }
                    left -= n;
                }
                None
            },
        );
        let pages = plan.index_pages.drain(..);
        let metas = self.core.read_set(pages, OpCause::MetaRead, req.t);
        req.charge(OpCause::MetaRead, metas);

        // Read the data pages of the selected pairs. In PinK these are
        // scattered over the data area (values are placed in buffer-arrival
        // order), which is why long scans cost it dearly (Figure 18).
        let hits = plan.hits.iter().filter_map(|&(_, pos)| pos);
        let data_ppas = hits.flat_map(|pos| self.levels[pos.level].run.ents[pos.index].ptr.pages());
        let data = self.core.read_set(data_ppas, OpCause::HostRead, req.t);
        req.charge(OpCause::HostRead, data);
        self.core.scan_plan = plan;
    }

    /// Appends each buffered pair to the data area; the run holds its
    /// index entries.
    fn flush_run(&mut self, mut t: Ns) -> Result<Ns, KvError> {
        let entries = self.core.buffer.drain();
        let key_len = self.core.cfg.key_len;
        let mut run = Vec::with_capacity(entries.len());
        for (id, be) in entries {
            let mut e = SegEntry {
                id,
                value_len: be.value_len,
                ptr: Extent::default(),
                tombstone: be.tombstone,
            };
            if !e.tombstone {
                let bytes = e.data_bytes(key_len);
                let (ptr, td) = self.data.append(&mut self.core.flash, bytes, t)?;
                t = t.max(td);
                e.ptr = ptr;
            }
            run.push(e);
        }
        self.merge_levels(Source::Flush(run), 0, t)
    }

    fn merge_down(&mut self, i: usize, at: Ns) -> Result<Ns, KvError> {
        self.merge_levels(Source::Level(i), i + 1, at)
    }

    /// Logical KV bytes of the pairs the level indexes.
    fn level_bytes(&self, i: usize) -> Option<u64> {
        self.levels.get(i).map(|l| l.run.kv_bytes())
    }

    fn gc_alloc(&self) -> &BlockAllocator {
        &self.data.alloc
    }

    /// Collects the data or meta block with the smaller live fraction.
    fn collect(&mut self, at: Ns) -> Result<Ns, KvError> {
        let pages = u64::from(self.core.flash.geometry().pages_per_block);
        let block_payload = (self.core.page_payload * pages) as f64;
        let meta = self.meta.ledger.victim();
        let meta_frac = meta.map_or(f64::MAX, |(_, live)| live as f64 / pages as f64);
        match (self.data.ledger.victim(), meta) {
            (Some((victim, valid)), _) if valid as f64 / block_payload <= meta_frac => {
                if valid as f64 / block_payload >= 0.999 {
                    // Everything is live: relocation recovers nothing.
                    return Err(KvError::DeviceFull);
                }
                self.relocate_data_block(victim, at)
            }
            (_, Some((victim, _))) => self.relocate_meta_block(victim, at),
            (_, None) => Err(KvError::DeviceFull),
        }
    }

    fn stats(&self) -> MetadataStats {
        let key_len = self.core.cfg.key_len;
        let level_list_bytes: u64 = self.levels.iter().map(|l| l.list_bytes(key_len)).sum();
        let level_list_flash: u64 = self
            .levels
            .iter()
            .filter(|l| !l.list_pages.is_empty())
            .map(|l| l.list_bytes(key_len))
            .sum();
        let (mut seg_dram, mut seg_flash) = (0u64, 0u64);
        for seg in self.levels.iter().flat_map(|l| &l.run.units) {
            if seg.ppa.is_none() {
                seg_dram += seg.bytes(key_len);
            } else {
                seg_flash += seg.bytes(key_len);
            }
        }
        MetadataStats {
            level_list_bytes,
            level_list_flash_bytes: level_list_flash,
            meta_segment_dram_bytes: seg_dram,
            meta_segment_flash_bytes: seg_flash,
            levels: self.populated_levels(),
            retired_blocks: self.data.alloc.retired_count() as u64,
            free_blocks: self.data.alloc.free_count() as u64,
            ..self.core.metadata()
        }
    }

    fn sample_levels(&self, meta: &MetadataStats) -> StateSample {
        let key_len = self.core.cfg.key_len;
        StateSample {
            levels: self
                .levels
                .iter()
                .enumerate()
                .map(|(i, l)| LevelSample {
                    level: i as u32,
                    entries: l.run.units.len() as u64,
                    kv_bytes: l.run.kv_bytes(),
                    phys_bytes: l.run.ents.len() as u64 * SegEntry::seg_bytes(key_len),
                    meta_bytes: l.list_bytes(key_len),
                })
                .collect(),
            ..self.core.sample_state(meta)
        }
    }

    /// Audits every structural invariant of the store; see the
    /// [audit module docs](crate::audit) for the list. It is also the
    /// boundary audit.
    fn audit(&self) -> Result<(), AuditError> {
        for (li, level) in self.levels.iter().enumerate() {
            level.run.audit(li)?;
        }

        // What `rebalance` claimed must equal what is marked resident.
        self.core.dram.audit(self.stats().dram_resident_bytes())?;

        self.data.ledger.audit_overfull()?;
        // One page per spilled meta segment and level-list page.
        let spilled = self.levels.iter().flat_map(|l| {
            let segs = l.run.units.iter().filter_map(|s| s.ppa);
            segs.chain(l.list_pages.iter().copied())
        });
        self.meta.ledger.recount(spilled.map(|p| (p.block, 1)))?;

        // No level-list page, meta segment or live data pointer sits in a
        // retired block.
        let live = self.levels.iter().flat_map(|l| {
            let lists = l.list_pages.iter().map(|p| (p.block, "level list"));
            let segs = l.run.units.iter().filter_map(|s| s.ppa);
            let data = l.run.ents.iter().filter(|e| !e.tombstone);
            lists
                .chain(segs.map(|p| (p.block, "meta segment")))
                .chain(data.map(|e| (e.ptr.block, "data area")))
        });
        audit_retirement(&self.data.alloc, "PinK", live)?;

        self.core.flash.counters().audit()?;
        Ok(())
    }
}
