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
use crate::config::{DeviceConfig, EngineKind, LEVEL_RATIO};
use crate::device::{DeviceCore, Source};
use crate::engine::{Engine, MetadataStats, Request};
use crate::error::KvError;
use crate::key::{self, Key};
use crate::pagearea::PageArea;

use segment::{SegEntry, Segment, LIST_ENTRY_OVERHEAD};

/// One PinK LSM level: one key-ordered entry run, the meta segments that
/// slice it, and its level list's placement.
#[derive(Debug, Clone, Default)]
pub struct PinkLevel {
    /// The level's entries, strictly key-ordered.
    pub entries: Vec<SegEntry>,
    /// Page-sized meta segments tiling `entries` in order.
    pub segs: Vec<Segment>,
    /// Logical KV bytes referenced by this level.
    pub kv_bytes: u64,
    /// Tree-compaction threshold.
    pub threshold: u64,
    /// Flash pages of the spilled level list; empty exactly when the list
    /// is DRAM-resident.
    pub list_pages: Vec<Ppa>,
}

impl PinkLevel {
    /// An empty level with the given threshold.
    pub fn new(threshold: u64) -> Self {
        Self {
            threshold,
            ..Self::default()
        }
    }

    /// Searches the level for `key`: the level list (each segment's
    /// cached first key) for the segment whose key range holds it, then
    /// that segment by interpolation between its first key and the next
    /// segment's ([`key::lower_bound`]; a plain binary search in the last
    /// segment). Returns that segment, `None` when `key` precedes the
    /// level, and the index in `entries` of the first entry ≥ `key`.
    pub fn seek(&self, key: Key) -> (Option<usize>, usize) {
        let Some(si) = self.segs.partition_point(|s| s.first <= key).checked_sub(1) else {
            return (None, 0);
        };
        let seg = &self.segs[si];
        let lo = seg.first.id();
        let hi = self.segs.get(si + 1).map_or(lo, |s| s.first.id());
        let at = key::lower_bound(seg.entries(&self.entries), key, lo, hi, |e| e.key);
        (Some(si), seg.start + at)
    }

    /// Where a scan from `key` starts: the first segment holding an entry
    /// ≥ `key` (the sought one, or the next when every key of the sought
    /// one is below `key`) and that entry's index in `entries`.
    pub fn scan_from(&self, key: Key) -> (usize, usize) {
        let (seg, from) = self.seek(key);
        let first = seg.map_or(0, |si| si + usize::from(from == self.segs[si].end));
        (first, from)
    }

    /// The entry at `pos`, a [`seek`](Self::seek) result, when it holds
    /// `key`.
    pub fn entry_at(&self, pos: usize, key: Key) -> Option<&SegEntry> {
        self.entries.get(pos).filter(|e| e.key == key)
    }

    /// Bytes of this level's level list.
    pub fn list_bytes(&self) -> u64 {
        self.segs
            .iter()
            .map(|s| s.first.len() as u64 + LIST_ENTRY_OVERHEAD)
            .sum()
    }

    /// Replaces the level's run and cuts it into unplaced segments of at
    /// most `payload` bytes; recomputes the logical size.
    pub fn set_run(&mut self, entries: Vec<SegEntry>, payload: u64) {
        self.segs = segment::cut_segments(&entries, payload);
        self.entries = entries;
        self.recount();
    }

    /// Recomputes logical size.
    pub fn recount(&mut self) {
        self.kv_bytes = self.entries.iter().map(SegEntry::kv_bytes).sum();
    }

    /// Whether the level holds no segments.
    pub fn is_empty(&self) -> bool {
        self.segs.is_empty()
    }

    /// Whether the level outgrew its threshold.
    pub fn over_threshold(&self) -> bool {
        self.kv_bytes > self.threshold
    }

    /// Audits the level, naming it `level`: its meta segments tile the
    /// entry run, cache their first keys, hold disjoint ascending key
    /// ranges, cache their exact byte counts and are each key-sorted.
    ///
    /// # Errors
    ///
    /// Returns the first [`AuditError`] found.
    pub fn audit(&self, level: usize) -> Result<(), AuditError> {
        let mut next = 0usize;
        for (si, seg) in self.segs.iter().enumerate() {
            if seg.start != next || seg.end <= seg.start || seg.end > self.entries.len() {
                return Err(AuditError::SegmentTiling { level, segment: si });
            }
            next = seg.end;
        }
        if next != self.entries.len() {
            let segment = self.segs.len();
            return Err(AuditError::SegmentTiling { level, segment });
        }
        if let Some(segment) = self
            .segs
            .iter()
            .position(|s| s.first != self.entries[s.start].key)
        {
            return Err(AuditError::SegmentFence { level, segment });
        }
        for (index, w) in self.segs.windows(2).enumerate() {
            if self.entries[w[0].end - 1].key >= self.entries[w[1].start].key {
                return Err(AuditError::LevelOrder { level, index });
            }
        }
        for (si, seg) in self.segs.iter().enumerate() {
            let entries = seg.entries(&self.entries);
            let actual = entries.iter().map(SegEntry::seg_bytes).sum();
            if seg.bytes != actual {
                return Err(AuditError::SegmentBytes {
                    level,
                    segment: si,
                    cached: seg.bytes,
                    actual,
                });
            }
            if entries.windows(2).any(|w| w[0].key >= w[1].key) {
                return Err(AuditError::DirectoryOrder { level, group: si });
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
    /// The data area. It owns the device's one block allocator; meta pages
    /// draw from the same pool through [`ByteLog::allocator_mut`].
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
        Self {
            levels: vec![PinkLevel::new(core.cfg.write_buffer_bytes * LEVEL_RATIO)],
            meta: PageArea::new(geometry.pages_per_block, "meta area"),
            data: ByteLog::new(
                BlockAllocator::new(0..geometry.blocks()),
                core.page_payload,
                geometry.pages_per_block,
                OpCause::CompactionWrite,
            ),
            core,
        }
    }

    fn list_entries_per_page(&self, key_len: u64) -> u64 {
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
        for li in 0..self.levels.len() {
            let (Some(si), pos) = self.levels[li].seek(key) else {
                continue;
            };
            // Level-list probe: free in DRAM, one flash read when spilled.
            let list_pages = &self.levels[li].list_pages;
            if !list_pages.is_empty() {
                let key_len = self.levels[li].segs[si].first.len() as u64;
                let per_page = self.list_entries_per_page(key_len) as usize;
                let ppa = list_pages[(si / per_page).min(list_pages.len() - 1)];
                req.read(&mut self.core.flash, OpCause::MetaRead, [ppa]);
            }
            // Meta-segment access: free when pinned, one flash read when
            // spilled.
            let flash = &mut self.core.flash;
            req.read(flash, OpCause::MetaRead, self.levels[li].segs[si].ppa);
            let level = &self.levels[li];
            if let Some(e) = level.entry_at(pos, key) {
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

    fn scan_levels(&mut self, start: Key, len: u32, req: &mut Request) -> Vec<u64> {
        // Each level's run is its entry array from the first entry ≥
        // `start`; the budget walk starts at the segment holding it. The
        // index pages are the spilled level lists and meta segments the
        // walk visits.
        let levels = &self.levels;
        let starts: Vec<(usize, usize)> = levels.iter().map(|l| l.scan_from(start)).collect();
        let runs = levels
            .iter()
            .zip(&starts)
            .map(|(level, &(_, from))| std::iter::once((0, from, &level.entries[from..])));
        let plan = self.core.scan(
            start,
            len as usize,
            runs,
            |e: &SegEntry| (e.key, e.tombstone, e.value_len),
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
                        return Some(level.entries[from + left - 1].key);
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
        plan.hits.iter().map(|(k, _)| k.id()).collect()
    }

    /// Appends each buffered pair to the data area; the run holds its
    /// index entries.
    fn flush_run(&mut self, mut t: Ns) -> Result<Ns, KvError> {
        let entries = self.core.buffer.drain();
        let mut run = Vec::with_capacity(entries.len());
        for (key, be) in entries {
            let mut e = SegEntry {
                key,
                value_len: be.value_len,
                ptr: Extent::default(),
                tombstone: be.tombstone,
            };
            if !e.tombstone {
                let (ptr, td) = self.data.append(&mut self.core.flash, e.data_bytes(), t)?;
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

    fn over_threshold(&self, i: usize) -> Option<bool> {
        self.levels.get(i).map(PinkLevel::over_threshold)
    }

    fn push_level(&mut self, threshold: u64) {
        self.levels.push(PinkLevel::new(threshold));
    }

    fn gc_alloc(&self) -> &BlockAllocator {
        self.data.allocator()
    }

    /// Collects the data or meta block with the smaller live fraction.
    fn collect(&mut self, at: Ns) -> Result<Ns, KvError> {
        let pages = u64::from(self.core.flash.geometry().pages_per_block);
        let block_payload = (self.core.page_payload * pages) as f64;
        let meta = self.meta.victim();
        let meta_frac = meta.map_or(f64::MAX, |(_, live)| live as f64 / pages as f64);
        match (self.data.victim(), meta) {
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
        let level_list_bytes: u64 = self.levels.iter().map(PinkLevel::list_bytes).sum();
        let level_list_flash: u64 = self
            .levels
            .iter()
            .filter(|l| !l.list_pages.is_empty())
            .map(PinkLevel::list_bytes)
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
            retired_blocks: self.data.allocator().retired_count() as u64,
            free_blocks: self.data.allocator().free_count() as u64,
            ..self.core.metadata()
        }
    }

    fn live_bytes(&self) -> u64 {
        let levels = self.levels.iter();
        let runs = levels.map(|l| std::iter::once((0, 0, &l.entries[..])));
        self.core
            .live_bytes(runs, |e: &SegEntry| (e.key, e.tombstone, e.value_len))
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
                    meta_bytes: l.list_bytes(),
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
            level.audit(li)?;
        }

        // What `rebalance` claimed must equal what is marked resident.
        self.core.dram.audit(self.stats().dram_resident_bytes())?;

        self.data.audit_overfull("data area")?;
        self.meta.audit_overfull()?;

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
        audit_retirement(self.data.allocator(), "PinK", live)?;

        self.core.flash.counters().audit()?;
        Ok(())
    }
}
