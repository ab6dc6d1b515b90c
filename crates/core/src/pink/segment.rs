//! PinK's meta segments.
//!
//! PinK (the state-of-the-art baseline the paper compares against) keeps a
//! sorted array of `(key, PPA)` pairs — a *meta segment* — per page-sized
//! unit of its LSM-tree levels, plus a *level list* entry (first key +
//! location) per segment. Upper-level meta segments are pinned in DRAM;
//! the rest live in flash, in meta pages of a
//! [`PageArea`](crate::pagearea::PageArea), and cost a flash read per
//! probe. KV pairs themselves are packed into *data segments* (plain flash
//! pages) of a [`ByteLog`](crate::bytelog::ByteLog), the data area.

use anykey_flash::Ppa;

use crate::bytelog::Extent;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytelog::ByteLog;
    use crate::error::KvError;
    use crate::pagearea::PageArea;
    use anykey_flash::{BlockAllocator, BlockId, FlashConfig, FlashSim, OpCause};

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

    /// Releases a meta page the way PinK does, erasing its block once it
    /// is empty and sealed.
    fn free_page(meta: &mut PageArea, alloc: &mut BlockAllocator, flash: &mut FlashSim, p: Ppa) {
        if meta.release(p.block, 1).unwrap() {
            meta.erase_empty(alloc, flash, p.block, 0).unwrap();
        }
    }

    #[test]
    fn meta_area_allocates_and_recycles_pages() {
        let (mut flash, mut data) = setup();
        let alloc = data.allocator_mut();
        let mut meta = PageArea::new(128, "meta area");
        let pages: Vec<Ppa> = (0..130).map(|_| meta.place(alloc, 0, 1).unwrap()).collect();
        // 130 pages span two blocks.
        assert_eq!(alloc.allocated_count(), 2);
        assert_ne!(pages[0].block, pages[129].block);
        // Free the first block's pages; it should be erased.
        let freed = alloc.free_count();
        for p in &pages[..128] {
            free_page(&mut meta, alloc, &mut flash, *p);
        }
        assert_eq!(alloc.free_count(), freed + 1);
        assert_eq!(flash.counters().erases(), 1);
    }

    #[test]
    fn meta_page_double_free_is_an_error() {
        let (mut flash, mut data) = setup();
        let alloc = data.allocator_mut();
        let mut meta = PageArea::new(128, "meta area");
        let p = meta.place(alloc, 0, 1).unwrap();
        free_page(&mut meta, alloc, &mut flash, p);
        assert_eq!(
            meta.release(p.block, 1),
            Err(KvError::LiveCountSkew {
                block: p.block.0,
                owner: "meta area",
            })
        );
        assert_eq!(meta.units_in(p.block), 0);
    }

    #[test]
    fn forgetting_a_live_meta_block_is_an_error() {
        let (mut flash, mut data) = setup();
        let alloc = data.allocator_mut();
        let mut meta = PageArea::new(128, "meta area");
        let p = meta.place(alloc, 0, 1).unwrap();
        assert!(matches!(
            meta.erase_empty(alloc, &mut flash, p.block, 0),
            Err(KvError::LiveCountSkew { .. })
        ));
        assert_eq!(meta.units_in(p.block), 1, "the block stays tracked");
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
