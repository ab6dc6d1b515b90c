//! PinK's on-flash structures: meta segments, the data area, and the meta
//! page area.
//!
//! PinK (the state-of-the-art baseline the paper compares against) keeps a
//! sorted array of `(key, PPA)` pairs — a *meta segment* — per page-sized
//! unit of its LSM-tree levels, plus a *level list* entry (first key +
//! location) per segment. Upper-level meta segments are pinned in DRAM;
//! the rest live in flash and cost a flash read per probe. KV pairs
//! themselves are packed into *data segments* (plain flash pages) of a
//! [`ByteLog`](crate::bytelog::ByteLog), the data area.

use std::collections::HashMap;

use anykey_flash::{BlockAllocator, BlockId, FlashSim, Ns, Ppa};

use crate::bytelog::{erase_block, Extent};
use crate::error::KvError;
use crate::key::Key;

/// Fixed per-entry overhead in a meta segment beyond the key bytes: a
/// 4-byte PPA and 2 bytes of length/flags.
pub const SEG_ENTRY_OVERHEAD: u64 = 6;
/// Bytes per level-list entry beyond the first key: segment location.
pub const LIST_ENTRY_OVERHEAD: u64 = 5;

/// One sorted entry of a meta segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegEntry {
    /// The key.
    pub key: Key,
    /// Value length (0 for tombstones).
    pub value_len: u32,
    /// Where the KV pair lives in the data area (no pages for tombstones).
    pub ptr: Extent,
    /// Deletion marker.
    pub tombstone: bool,
}

impl SegEntry {
    /// Logical KV bytes of this entry.
    pub fn kv_bytes(&self) -> u64 {
        if self.tombstone {
            self.key.len() as u64
        } else {
            self.key.len() as u64 + self.value_len as u64
        }
    }

    /// Bytes this entry occupies in its meta segment.
    pub fn seg_bytes(&self) -> u64 {
        self.key.len() as u64 + SEG_ENTRY_OVERHEAD
    }

    /// Bytes the KV pair occupies in the data area.
    pub fn data_bytes(&self) -> u64 {
        if self.tombstone {
            0
        } else {
            self.key.len() as u64 + self.value_len as u64 + SEG_ENTRY_OVERHEAD
        }
    }
}

/// A page-sized sorted run of `(key, PPA)` entries.
#[derive(Debug, Clone)]
pub struct Segment {
    /// Key-sorted entries.
    pub entries: Vec<SegEntry>,
    /// Whether the segment is pinned in DRAM (then it has no flash copy).
    pub resident: bool,
    /// Flash location when spilled.
    pub ppa: Option<Ppa>,
}

impl Segment {
    /// First key of the segment (its level-list key).
    pub fn first_key(&self) -> Key {
        self.entries[0].key
    }

    /// Bytes of this segment's entries.
    pub fn bytes(&self) -> u64 {
        self.entries.iter().map(SegEntry::seg_bytes).sum()
    }

    /// Binary-searches the segment for `key`.
    pub fn find(&self, key: Key) -> Option<&SegEntry> {
        self.entries
            .binary_search_by(|e| e.key.cmp(&key))
            .ok()
            .map(|i| &self.entries[i])
    }
}

/// The flash area holding spilled meta segments and spilled level-list
/// pages, with per-page liveness so emptied blocks can be erased.
#[derive(Debug, Clone, Default)]
pub struct MetaArea {
    /// One open block per stream (stream = LSM level), so that a level's
    /// meta pages — which die together at that level's next rebuild — are
    /// packed into the same blocks and free wholesale.
    opens: HashMap<usize, (BlockId, u32)>,
    live_pages: HashMap<BlockId, u32>,
    pages_per_block: u32,
}

impl MetaArea {
    /// A meta area for blocks of the given size.
    pub fn new(pages_per_block: u32) -> Self {
        Self {
            opens: HashMap::new(),
            live_pages: HashMap::new(),
            pages_per_block,
        }
    }

    fn is_open(&self, block: BlockId) -> bool {
        self.opens.values().any(|&(b, _)| b == block)
    }

    /// Allocates one meta page in the given stream (level).
    ///
    /// # Errors
    ///
    /// Returns [`KvError::DeviceFull`] when the shared allocator is
    /// exhausted.
    pub fn alloc_page(
        &mut self,
        alloc: &mut BlockAllocator,
        stream: usize,
    ) -> Result<Ppa, KvError> {
        if let Some(&(block, next)) = self.opens.get(&stream) {
            if next < self.pages_per_block {
                self.opens.insert(stream, (block, next + 1));
                *self.live_pages.entry(block).or_insert(0) += 1;
                return Ok(Ppa { block, page: next });
            }
            self.opens.remove(&stream);
        }
        let block = alloc.alloc().ok_or(KvError::DeviceFull)?;
        self.live_pages.insert(block, 1);
        self.opens.insert(stream, (block, 1));
        Ok(Ppa { block, page: 0 })
    }

    /// Releases a meta page; erases and frees the block when it empties.
    /// An erase failure retires the block from the allocator instead of
    /// returning it to the free pool.
    ///
    /// # Errors
    ///
    /// Returns [`KvError::UntrackedBlock`] when the page's block is not
    /// tracked — a freed meta page must have been allocated here — and
    /// [`KvError::LiveCountSkew`] when the block has no live page left to
    /// free.
    pub fn free_page(
        &mut self,
        alloc: &mut BlockAllocator,
        flash: &mut FlashSim,
        ppa: Ppa,
        at: Ns,
    ) -> Result<Ns, KvError> {
        let live = self
            .live_pages
            .get_mut(&ppa.block)
            .ok_or(KvError::UntrackedBlock {
                block: ppa.block.0,
                owner: "meta area",
            })?;
        *live = live.checked_sub(1).ok_or(KvError::LiveCountSkew {
            block: ppa.block.0,
            owner: "meta area",
        })?;
        if *live == 0 && !self.is_open(ppa.block) {
            self.live_pages.remove(&ppa.block);
            return Ok(erase_block(flash, alloc, ppa.block, at)?.0);
        }
        Ok(at)
    }

    /// Number of blocks the meta area currently holds.
    pub fn block_count(&self) -> usize {
        self.live_pages.len()
    }

    /// The sealed meta block with the fewest live pages (GC victim).
    pub fn victim(&self) -> Option<(BlockId, u32)> {
        self.live_pages
            .iter()
            .filter(|(&b, _)| !self.is_open(b))
            .map(|(&b, &live)| (b, live))
            .min_by_key(|&(b, live)| (live, b))
    }

    /// Forgets a tracked block whose pages were all freed while it was
    /// still a stream's open block (it can then be erased by the caller).
    ///
    /// # Errors
    ///
    /// Returns [`KvError::LiveCountSkew`] if the block is untracked or
    /// still has live pages; it then stays as it was.
    pub fn forget_empty(&mut self, block: BlockId) -> Result<(), KvError> {
        if self.live_pages.get(&block) != Some(&0) {
            return Err(KvError::LiveCountSkew {
                block: block.0,
                owner: "meta area",
            });
        }
        self.live_pages.remove(&block);
        self.opens.retain(|_, &mut (b, _)| b != block);
        Ok(())
    }

    /// Live meta pages in `block` (0 if untracked).
    pub fn live_in(&self, block: BlockId) -> u32 {
        self.live_pages.get(&block).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytelog::ByteLog;
    use anykey_flash::{FlashConfig, OpCause};

    /// A flash device and a data area built the way PinK builds it.
    fn setup() -> (FlashSim, ByteLog) {
        (
            FlashSim::new(FlashConfig::small_test()),
            ByteLog::new(
                BlockAllocator::new(0..8),
                8128,
                128,
                OpCause::CompactionWrite,
            ),
        )
    }

    #[test]
    fn data_append_packs_pages() {
        let (mut flash, mut data) = setup();
        let (a, _) = data.append(&mut flash, 100, 0).unwrap();
        let (b, _) = data.append(&mut flash, 100, 0).unwrap();
        assert_eq!(a.block, b.block);
        assert_eq!(a.page, b.page);
        assert_eq!(data.valid_bytes(), 200);
    }

    #[test]
    fn data_pairs_span_pages() {
        let (mut flash, mut data) = setup();
        data.append(&mut flash, 8000, 0).unwrap();
        let (p, _) = data.append(&mut flash, 1000, 0).unwrap();
        assert_eq!(p.pages, 2);
        assert_eq!(p.pages().count(), 2);
    }

    #[test]
    fn data_victim_prefers_least_valid() {
        let (mut flash, mut data) = setup();
        // Fill one block and invalidate most of it.
        let block_payload = 8128 * 128u64;
        let mut first = None;
        let mut used = 0;
        while used + 8000 <= block_payload + 8000 {
            let (p, _) = data.append(&mut flash, 8000, 0).unwrap();
            if first.is_none() {
                first = Some(p.block);
            }
            if p.block == first.unwrap() {
                data.invalidate(p, 8000);
            }
            used += 8000;
        }
        let (victim, valid) = data.victim().unwrap();
        assert_eq!(victim, first.unwrap());
        assert_eq!(valid, 0);
    }

    #[test]
    fn meta_area_allocates_and_recycles_pages() {
        let (mut flash, mut data) = setup();
        let alloc = data.allocator_mut();
        let mut meta = MetaArea::new(128);
        let pages: Vec<Ppa> = (0..130)
            .map(|_| meta.alloc_page(alloc, 0).unwrap())
            .collect();
        // 130 pages span two blocks.
        assert_eq!(meta.block_count(), 2);
        assert_ne!(pages[0].block, pages[129].block);
        // Free the first block's pages; it should be erased.
        let freed = alloc.free_count();
        for p in &pages[..128] {
            meta.free_page(alloc, &mut flash, *p, 0).unwrap();
        }
        assert_eq!(alloc.free_count(), freed + 1);
        assert_eq!(flash.counters().erases(), 1);
    }

    #[test]
    fn meta_page_double_free_is_an_error() {
        let (mut flash, mut data) = setup();
        let alloc = data.allocator_mut();
        let mut meta = MetaArea::new(128);
        let p = meta.alloc_page(alloc, 0).unwrap();
        meta.free_page(alloc, &mut flash, p, 0).unwrap();
        assert_eq!(
            meta.free_page(alloc, &mut flash, p, 0),
            Err(KvError::LiveCountSkew {
                block: p.block.0,
                owner: "meta area",
            })
        );
        assert_eq!(meta.live_in(p.block), 0);
    }

    #[test]
    fn forgetting_a_live_meta_block_is_an_error() {
        let (_, mut data) = setup();
        let mut meta = MetaArea::new(128);
        let p = meta.alloc_page(data.allocator_mut(), 0).unwrap();
        assert!(matches!(
            meta.forget_empty(p.block),
            Err(KvError::LiveCountSkew { .. })
        ));
        assert_eq!(meta.live_in(p.block), 1, "the block stays tracked");
    }

    #[test]
    fn segment_find_is_exact() {
        let entries: Vec<SegEntry> = (0..100u64)
            .map(|id| SegEntry {
                key: Key::new(id * 2, 16).unwrap(),
                value_len: 50,
                ptr: Extent {
                    block: BlockId(0),
                    page: 0,
                    pages: 1,
                },
                tombstone: false,
            })
            .collect();
        let seg = Segment {
            entries,
            resident: true,
            ppa: None,
        };
        assert!(seg.find(Key::new(42, 16).unwrap()).is_some());
        assert!(seg.find(Key::new(43, 16).unwrap()).is_none());
        assert_eq!(seg.first_key().id(), 0);
    }
}
