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

use crate::audit::{audit_retirement, audit_run, AuditError};
use crate::bytelog::{ByteLog, Extent};
use crate::config::{DeviceConfig, EngineKind};
use crate::device::{DeviceCore, Source};
use crate::engine::{Engine, MetadataStats, Request};
use crate::error::KvError;
use crate::key::{self, Key};
use crate::pagearea::PageArea;

use segment::{SegEntry, Segment, LIST_ENTRY_OVERHEAD};

/// One PinK LSM level: one key-ordered entry run, the meta segments that
/// slice it, and its level list's placement. Its threshold follows from
/// its index (`Engine::over_threshold`).
#[derive(Debug, Clone, Default)]
pub struct PinkLevel {
    /// The level's entries, strictly key-ordered.
    pub entries: Vec<SegEntry>,
    /// Page-sized meta segments tiling `entries` in order.
    pub segs: Vec<Segment>,
    /// Logical KV bytes referenced by this level, the sum over `entries`
    /// that [`set_run`](Self::set_run) caches.
    pub kv_bytes: u64,
    /// Flash pages of the spilled level list; empty exactly when the list
    /// is DRAM-resident.
    pub list_pages: Vec<Ppa>,
}

impl PinkLevel {
    /// Searches the level for key `id`: the level list (each segment's
    /// cached first key) for the segment whose key range holds it, then
    /// that segment by interpolation between its first key and the next
    /// segment's ([`key::lower_bound`]; a plain binary search in the last
    /// segment). Returns that segment, `None` when `id` precedes the
    /// level, and the index in `entries` of the first entry ≥ `id`.
    pub fn seek(&self, id: u64) -> (Option<usize>, usize) {
        let Some(si) = self.segs.partition_point(|s| s.first <= id).checked_sub(1) else {
            return (None, 0);
        };
        let seg = &self.segs[si];
        let hi = self.segs.get(si + 1).map_or(seg.first, |s| s.first);
        let at = key::lower_bound(seg.entries(&self.entries), id, seg.first, hi, |e| e.id);
        (Some(si), seg.start + at)
    }

    /// Where a scan from key `id` starts: the first segment holding an
    /// entry ≥ `id` (the sought one, or the next when every key of the
    /// sought one is below `id`) and that entry's index in `entries`.
    pub fn scan_from(&self, id: u64) -> (usize, usize) {
        let (seg, from) = self.seek(id);
        let first = seg.map_or(0, |si| si + usize::from(from == self.segs[si].end));
        (first, from)
    }

    /// The entry at `pos`, a [`seek`](Self::seek) result, when it holds
    /// key `id`.
    pub fn entry_at(&self, pos: usize, id: u64) -> Option<&SegEntry> {
        self.entries.get(pos).filter(|e| e.id == id)
    }

    /// Bytes of this level's level list, its keys being `key_len` bytes
    /// long.
    pub fn list_bytes(&self, key_len: u16) -> u64 {
        self.segs.len() as u64 * (u64::from(key_len) + LIST_ENTRY_OVERHEAD)
    }

    /// Replaces the level's run of entries with `key_len`-byte keys and
    /// cuts it into unplaced segments of at most `payload` bytes; caches
    /// the logical size.
    pub fn set_run(&mut self, entries: Vec<SegEntry>, payload: u64, key_len: u16) {
        self.segs = segment::cut_segments(&entries, payload, key_len);
        self.kv_bytes = entries.iter().map(|e| e.kv_bytes(key_len)).sum();
        self.entries = entries;
    }

    /// Whether the level holds no segments.
    pub fn is_empty(&self) -> bool {
        self.segs.is_empty()
    }

    /// Audits the level of `key_len`-byte keys, naming it `level`: its
    /// meta segments tile the entry run and cache their first keys, the
    /// run strictly ascends, and the segments cache their
    /// exact byte counts.
    ///
    /// # Errors
    ///
    /// Returns the first [`AuditError`] found.
    pub fn audit(&self, level: usize, key_len: u16) -> Result<(), AuditError> {
        let units = self.segs.iter().map(|s| (s.start, s.end, s.first));
        let tiling = |segment| AuditError::SegmentTiling { level, segment };
        let fence = |segment| AuditError::SegmentFence { level, segment };
        audit_run(level, &self.entries, |e| e.id, units, tiling, fence)?;
        for (si, seg) in self.segs.iter().enumerate() {
            let actual = (seg.end - seg.start) as u64 * SegEntry::seg_bytes(key_len);
            if seg.bytes != actual {
                return Err(AuditError::SegmentBytes {
                    level,
                    segment: si,
                    cached: seg.bytes,
                    actual,
                });
            }
        }
        Ok(())
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

    fn core(&self) -> &DeviceCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut DeviceCore {
        &mut self.core
    }

    fn get_levels(&mut self, key: Key, req: &mut Request) -> Option<bool> {
        let id = key.id();
        for li in 0..self.levels.len() {
            let (Some(si), pos) = self.levels[li].seek(id) else {
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
            req.read(flash, OpCause::MetaRead, self.levels[li].segs[si].ppa);
            let level = &self.levels[li];
            if let Some(e) = level.entry_at(pos, id) {
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

    fn scan_levels(&mut self, start: u64, len: u32, req: &mut Request) -> Vec<u64> {
        // Each level's run is its entry array from the first entry ≥
        // `start`; the budget walk starts at the segment holding it. The
        // index pages are the spilled level lists and meta segments the
        // walk visits.
        let levels = &self.levels;
        let starts: Vec<(usize, usize)> = levels.iter().map(|l| l.scan_from(start)).collect();
        let runs = levels
            .iter()
            .zip(&starts)
            .map(|(level, &(_, from))| (&level.entries[..], from));
        let plan = self.core.scan(
            start,
            len as usize,
            runs,
            |e: &SegEntry| (e.id, e.tombstone, e.value_len),
            |li, budget, pages| {
                let (level, (first, from)) = (&levels[li], starts[li]);
                if level.is_empty() {
                    return None;
                }
                pages.extend(level.list_pages.first());
                let mut left = budget;
                for seg in &level.segs[first..] {
                    if left == 0 {
                        break;
                    }
                    pages.extend(seg.ppa);
                    let from = from.max(seg.start);
                    let n = seg.end - from;
                    if n >= left {
                        return Some(level.entries[from + left - 1].id);
                    }
                    left -= n;
                }
                None
            },
        );
        let metas = self
            .core
            .read_set(plan.index_pages, OpCause::MetaRead, req.t);
        req.charge(OpCause::MetaRead, metas);

        // Read the data pages of the selected pairs. In PinK these are
        // scattered over the data area (values are placed in buffer-arrival
        // order), which is why long scans cost it dearly (Figure 18).
        let data_ppas = plan
            .hits
            .iter()
            .filter_map(|&(_, pos)| pos)
            .flat_map(|pos| self.levels[pos.level].entries[pos.index].ptr.pages());
        let data = self.core.read_set(data_ppas, OpCause::HostRead, req.t);
        req.charge(OpCause::HostRead, data);
        plan.hits.iter().map(|&(id, _)| id).collect()
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
        self.levels.get(i).map(|l| l.kv_bytes)
    }

    fn push_level(&mut self) {
        self.levels.push(PinkLevel::default());
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
        for seg in self.levels.iter().flat_map(|l| &l.segs) {
            if seg.ppa.is_none() {
                seg_dram += seg.bytes();
            } else {
                seg_flash += seg.bytes();
            }
        }
        MetadataStats {
            level_list_bytes,
            level_list_flash_bytes: level_list_flash,
            meta_segment_dram_bytes: seg_dram,
            meta_segment_flash_bytes: seg_flash,
            levels: self.levels.iter().filter(|l| !l.is_empty()).count(),
            retired_blocks: self.data.alloc.retired_count() as u64,
            free_blocks: self.data.alloc.free_count() as u64,
            ..self.core.metadata()
        }
    }

    fn live_bytes(&self) -> u64 {
        let levels = self.levels.iter();
        let runs = levels.map(|l| &l.entries[..]);
        self.core
            .live_bytes(runs, |e: &SegEntry| (e.id, e.tombstone, e.value_len))
    }

    fn sample_levels(&self, meta: &MetadataStats) -> StateSample {
        StateSample {
            levels: self
                .levels
                .iter()
                .enumerate()
                .map(|(i, l)| LevelSample {
                    level: i as u32,
                    entries: l.segs.len() as u64,
                    kv_bytes: l.kv_bytes,
                    phys_bytes: l.segs.iter().map(Segment::bytes).sum(),
                    meta_bytes: l.list_bytes(self.core.cfg.key_len),
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
            level.audit(li, self.core.cfg.key_len)?;
        }

        // What `rebalance` claimed must equal what is marked resident.
        self.core.dram.audit(self.stats().dram_resident_bytes())?;

        self.data.ledger.audit_overfull()?;
        // One page per spilled meta segment and level-list page.
        let spilled = self.levels.iter().flat_map(|l| {
            let segs = l.segs.iter().filter_map(|s| s.ppa);
            segs.chain(l.list_pages.iter().copied())
        });
        self.meta.ledger.recount(spilled.map(|p| (p.block, 1)))?;

        // No level-list page, meta segment or live data pointer sits in a
        // retired block.
        let live = self.levels.iter().flat_map(|l| {
            let lists = l.list_pages.iter().map(|p| (p.block, "level list"));
            let segs = l.segs.iter().filter_map(|s| s.ppa);
            let data = l.entries.iter().filter(|e| !e.tombstone);
            lists
                .chain(segs.map(|p| (p.block, "meta segment")))
                .chain(data.map(|e| (e.ptr.block, "data area")))
        });
        audit_retirement(&self.data.alloc, "PinK", live)?;

        self.core.flash.counters().audit()?;
        Ok(())
    }
}
