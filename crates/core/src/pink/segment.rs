//! PinK's on-flash structures: meta segments, the data area, and the meta
//! page area.
//!
//! PinK (the state-of-the-art baseline the paper compares against) keeps a
//! sorted array of `(key, PPA)` pairs — a *meta segment* — per page-sized
//! unit of its LSM-tree levels, plus a *level list* entry (first key +
//! location) per segment. Upper-level meta segments are pinned in DRAM;
//! the rest live in flash and cost a flash read per probe. KV pairs
//! themselves are packed into *data segments* (plain flash pages).

use std::collections::HashMap;

use anykey_flash::{BlockAllocator, BlockId, FlashSim, Ns, OpCause, Ppa};

use crate::error::KvError;
use crate::key::Key;

/// Fixed per-entry overhead in a meta segment beyond the key bytes: a
/// 4-byte PPA and 2 bytes of length/flags.
pub const SEG_ENTRY_OVERHEAD: u64 = 6;
/// Bytes per level-list entry beyond the first key: segment location.
pub const LIST_ENTRY_OVERHEAD: u64 = 5;

/// Location of a KV pair in the data area.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataPtr {
    /// Data block.
    pub block: BlockId,
    /// Page the pair starts in.
    pub page: u32,
    /// Pages the pair touches (> 1 only when a pair exceeds the page
    /// payload, e.g. 4 KiB pages with 4 KiB values).
    pub span: u8,
}

impl DataPtr {
    /// The flash pages this pair occupies.
    pub fn pages(self) -> impl Iterator<Item = Ppa> {
        (0..self.span as u32).map(move |i| Ppa {
            block: self.block,
            page: self.page + i,
        })
    }
}

/// One sorted entry of a meta segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegEntry {
    /// The key.
    pub key: Key,
    /// Value length (0 for tombstones).
    pub value_len: u32,
    /// Where the KV pair lives in the data area.
    pub ptr: DataPtr,
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
    /// tracked — a freed meta page must have been allocated here.
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
        debug_assert!(*live > 0);
        *live -= 1;
        if *live == 0 && !self.is_open(ppa.block) {
            self.live_pages.remove(&ppa.block);
            let r = flash.erase(ppa.block, at);
            if r.status.is_ok() {
                alloc.free(ppa.block)?;
            } else {
                alloc.retire(ppa.block)?;
            }
            return Ok(r.done);
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
    /// # Panics
    ///
    /// Panics if the block still has live pages.
    pub fn forget_empty(&mut self, block: BlockId) {
        let live = self.live_pages.remove(&block);
        assert_eq!(live, Some(0), "forget_empty on a live block");
        self.opens.retain(|_, &mut (b, _)| b != block);
    }

    /// Live meta pages in `block` (0 if untracked).
    pub fn live_in(&self, block: BlockId) -> u32 {
        self.live_pages.get(&block).copied().unwrap_or(0)
    }
}

/// The flash area KV pairs are packed into, byte-continuous with per-block
/// valid-byte accounting (for GC victim selection).
#[derive(Debug, Clone, Default)]
pub struct DataArea {
    open: Option<OpenData>,
    blocks: HashMap<BlockId, u64>,
    pages_per_block: u32,
    page_payload: u64,
}

#[derive(Debug, Clone, Copy)]
struct OpenData {
    block: BlockId,
    next_page: u32,
    page_fill: u64,
}

impl DataArea {
    /// A data area for blocks of the given shape.
    pub fn new(pages_per_block: u32, page_payload: u64) -> Self {
        Self {
            open: None,
            blocks: HashMap::new(),
            pages_per_block,
            page_payload,
        }
    }

    /// Appends a KV pair of `bytes` bytes; returns its pointer and the
    /// completion time of any page programs. Pairs may span pages but not
    /// blocks.
    ///
    /// A page-program failure breaks the pair's contiguity, so the whole
    /// pair is re-placed starting at the next page (rolling into a fresh
    /// block when the current one runs out); the failed attempt's pages
    /// stay dead and the failed program remains visible in the counters.
    ///
    /// # Errors
    ///
    /// Returns [`KvError::DeviceFull`] when the shared allocator is
    /// exhausted.
    pub fn append(
        &mut self,
        alloc: &mut BlockAllocator,
        flash: &mut FlashSim,
        bytes: u64,
        cause: OpCause,
        at: Ns,
    ) -> Result<(DataPtr, Ns), KvError> {
        assert!(bytes > 0, "empty pairs are never stored");
        assert!(
            bytes <= self.pages_per_block as u64 * self.page_payload,
            "pair of {bytes} bytes exceeds the erase-block payload"
        );
        let mut done = at;
        'place: loop {
            let mut o = match self.open {
                Some(o) => o,
                None => self.open_block(alloc)?,
            };
            let remaining =
                (self.pages_per_block - o.next_page) as u64 * self.page_payload - o.page_fill;
            if bytes > remaining {
                done = done.max(self.seal(flash, at));
                o = self.open_block(alloc)?;
            }
            let start_page = o.next_page;
            let mut left = bytes;
            let mut span = 0u8;
            while left > 0 {
                let take = left.min(self.page_payload - o.page_fill);
                o.page_fill += take;
                left -= take;
                span += 1;
                if o.page_fill == self.page_payload {
                    let r = flash.program(
                        Ppa {
                            block: o.block,
                            page: o.next_page,
                        },
                        cause,
                        at,
                    );
                    done = done.max(r.done);
                    o.next_page += 1;
                    o.page_fill = 0;
                    if !r.status.is_ok() {
                        // Re-issue the pair past the bad page.
                        self.open = Some(o);
                        continue 'place;
                    }
                }
            }
            self.open = Some(o);
            *self
                .blocks
                .get_mut(&o.block)
                .ok_or(KvError::UntrackedBlock {
                    block: o.block.0,
                    owner: "data area",
                })? += bytes;
            if o.next_page == self.pages_per_block {
                done = done.max(self.seal(flash, at));
            }
            return Ok((
                DataPtr {
                    block: o.block,
                    page: start_page,
                    span,
                },
                done,
            ));
        }
    }

    fn open_block(&mut self, alloc: &mut BlockAllocator) -> Result<OpenData, KvError> {
        let block = alloc.alloc().ok_or(KvError::DeviceFull)?;
        self.blocks.insert(block, 0);
        let o = OpenData {
            block,
            next_page: 0,
            page_fill: 0,
        };
        self.open = Some(o);
        Ok(o)
    }

    /// Programs the partial open page (if any) and closes the open block
    /// reference so GC may consider it. A program failure re-issues the
    /// partial page at the next page while the block has room.
    pub fn seal(&mut self, flash: &mut FlashSim, at: Ns) -> Ns {
        let Some(mut o) = self.open.take() else {
            return at;
        };
        let mut done = at;
        if o.page_fill > 0 {
            while o.next_page < self.pages_per_block {
                let r = flash.program(
                    Ppa {
                        block: o.block,
                        page: o.next_page,
                    },
                    OpCause::CompactionWrite,
                    at,
                );
                done = done.max(r.done);
                o.next_page += 1;
                if r.status.is_ok() {
                    break;
                }
            }
        }
        done
    }

    /// Marks `bytes` of the pair at `ptr` dead.
    pub fn invalidate(&mut self, ptr: DataPtr, bytes: u64) {
        if let Some(v) = self.blocks.get_mut(&ptr.block) {
            *v = v.saturating_sub(bytes);
        }
    }

    /// The sealed block with the least valid data (GC victim), if any.
    pub fn victim(&self) -> Option<(BlockId, u64)> {
        let open = self.open.map(|o| o.block);
        self.blocks
            .iter()
            .filter(|(&b, _)| Some(b) != open)
            .map(|(&b, &v)| (b, v))
            .min_by_key(|&(b, v)| (v, b))
    }

    /// Forgets a block after GC erased it.
    pub fn remove_block(&mut self, block: BlockId) {
        self.blocks.remove(&block);
    }

    /// Valid bytes currently tracked in `block`.
    pub fn valid_in(&self, block: BlockId) -> u64 {
        self.blocks.get(&block).copied().unwrap_or(0)
    }

    /// Number of blocks the data area currently holds.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anykey_flash::FlashConfig;

    fn setup() -> (FlashSim, BlockAllocator, DataArea) {
        (
            FlashSim::new(FlashConfig::small_test()),
            BlockAllocator::new(0..8),
            DataArea::new(128, 8128),
        )
    }

    #[test]
    fn data_append_packs_pages() {
        let (mut flash, mut alloc, mut data) = setup();
        let (a, _) = data
            .append(&mut alloc, &mut flash, 100, OpCause::CompactionWrite, 0)
            .unwrap();
        let (b, _) = data
            .append(&mut alloc, &mut flash, 100, OpCause::CompactionWrite, 0)
            .unwrap();
        assert_eq!(a.block, b.block);
        assert_eq!(a.page, b.page);
        assert_eq!(data.valid_in(a.block), 200);
    }

    #[test]
    fn data_pairs_span_pages() {
        let (mut flash, mut alloc, mut data) = setup();
        data.append(&mut alloc, &mut flash, 8000, OpCause::CompactionWrite, 0)
            .unwrap();
        let (p, _) = data
            .append(&mut alloc, &mut flash, 1000, OpCause::CompactionWrite, 0)
            .unwrap();
        assert_eq!(p.span, 2);
        assert_eq!(p.pages().count(), 2);
    }

    #[test]
    fn data_victim_prefers_least_valid() {
        let (mut flash, mut alloc, mut data) = setup();
        // Fill one block and invalidate most of it.
        let block_payload = 8128 * 128u64;
        let mut first = None;
        let mut used = 0;
        while used + 8000 <= block_payload + 8000 {
            let (p, _) = data
                .append(&mut alloc, &mut flash, 8000, OpCause::CompactionWrite, 0)
                .unwrap();
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
        let (mut flash, mut alloc, _) = setup();
        let mut meta = MetaArea::new(128);
        let pages: Vec<Ppa> = (0..130)
            .map(|_| meta.alloc_page(&mut alloc, 0).unwrap())
            .collect();
        // 130 pages span two blocks.
        assert_eq!(meta.block_count(), 2);
        assert_ne!(pages[0].block, pages[129].block);
        // Free the first block's pages; it should be erased.
        let freed = alloc.free_count();
        for p in &pages[..128] {
            meta.free_page(&mut alloc, &mut flash, *p, 0).unwrap();
        }
        assert_eq!(alloc.free_count(), freed + 1);
        assert_eq!(flash.counters().erases(), 1);
    }

    #[test]
    fn segment_find_is_exact() {
        let entries: Vec<SegEntry> = (0..100u64)
            .map(|id| SegEntry {
                key: Key::new(id * 2, 16).unwrap(),
                value_len: 50,
                ptr: DataPtr {
                    block: BlockId(0),
                    page: 0,
                    span: 1,
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
