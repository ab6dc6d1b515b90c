//! Erase-block allocation and bad-block retirement.

#![deny(clippy::as_conversions)]

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::ops::Range;

use crate::BlockId;

/// Misuse reported by [`BlockAllocator::free`] and
/// [`BlockAllocator::retire`]: the block cannot change state as requested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FreeError {
    /// The block id is outside this allocator's range.
    OutOfRange {
        /// The offending global block id.
        block: u32,
    },
    /// The block is not currently allocated (double free / double retire).
    NotAllocated {
        /// The offending global block id.
        block: u32,
    },
    /// The block was retired as a bad block and can never re-enter the
    /// free pool.
    Retired {
        /// The offending global block id.
        block: u32,
    },
}

impl fmt::Display for FreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FreeError::OutOfRange { block } => {
                write!(f, "block B{block} is outside the allocator range")
            }
            FreeError::NotAllocated { block } => {
                write!(f, "block B{block} is not allocated (double free)")
            }
            FreeError::Retired { block } => {
                write!(f, "block B{block} is retired and cannot be freed")
            }
        }
    }
}

impl std::error::Error for FreeError {}

/// Conservation failure reported by [`BlockAllocator::audit`]: the free
/// heap and the per-block states no longer partition the block range, or
/// the retired counter disagrees with them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocSkew {
    /// Blocks sitting in the free heap.
    pub free: usize,
    /// Blocks in the allocated state.
    pub allocated: usize,
    /// Blocks counted as retired.
    pub retired: usize,
    /// Total blocks in the range.
    pub total: usize,
}

impl fmt::Display for AllocSkew {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "block accounting skew: free {} + allocated {} + retired {} != total {}",
            self.free, self.allocated, self.retired, self.total
        )
    }
}

impl std::error::Error for AllocSkew {}

/// Allocates erase blocks from a contiguous range of global block ids.
///
/// Each FTL region (data segment groups, value log, PinK meta area) owns an
/// allocator over its share of the device; in multi-tenant experiments
/// (paper Section 6.9) each tenant's engine gets a disjoint range, so two
/// engines can share one [`crate::FlashSim`] without stepping on each other.
///
/// Free blocks are handed out lowest `(key, id)` first, where the key is
/// whatever the caller passed to [`BlockAllocator::free`] (0 for blocks
/// never freed). With every key 0 that is lowest-id-first: since global
/// block ids are striped across chips, sequentially allocated blocks land
/// on different chips and a compaction writing several blocks gets chip
/// parallelism for free. The engines key a freed block by its P/E count
/// from [`crate::FlashSim::block_wear`] when the fault model is on, which
/// makes the order least-erased-first; the allocator itself keeps no wear.
///
/// The allocator also owns the grown-bad-block list: [`BlockAllocator::retire`]
/// permanently removes a block from rotation after an erase failure, which
/// shrinks the free-block headroom the engines' GC triggers watch.
#[derive(Debug, Clone)]
pub struct BlockAllocator {
    range: Range<u32>,
    /// Min-heap keyed by `(caller key, id)`.
    free: BinaryHeap<Reverse<(u32, u32)>>,
    /// Each block's state, indexed from the start of the range.
    slots: Vec<Slot>,
    retired_count: usize,
}

/// The state of one block of a [`BlockAllocator`]: exactly one at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// In the free heap.
    Free,
    /// Handed out by [`BlockAllocator::alloc`].
    Allocated,
    /// Out of rotation for good (a grown bad block).
    Retired,
}

impl BlockAllocator {
    /// An allocator owning every block id in `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn new(range: Range<u32>) -> Self {
        assert!(!range.is_empty(), "block allocator range must be non-empty");
        let free = range.clone().map(|id| Reverse((0, id))).collect();
        let slots = vec![Slot::Free; range.len()];
        Self {
            range,
            free,
            slots,
            retired_count: 0,
        }
    }

    /// Checked index of an in-range block id into the per-slot states.
    fn slot_index(&self, id: u32) -> usize {
        debug_assert!(self.range.contains(&id));
        // A u32 offset always fits usize on the simulator's targets; the
        // saturation fallback exists only to avoid a bare cast.
        usize::try_from(id - self.range.start).unwrap_or(usize::MAX)
    }

    /// Takes the free block with the lowest `(key, id)`, or `None` when the
    /// region is exhausted.
    pub fn alloc(&mut self) -> Option<BlockId> {
        let Reverse((_, id)) = self.free.pop()?;
        let slot = self.slot_index(id);
        self.slots[slot] = Slot::Allocated;
        Some(BlockId(id))
    }

    /// Returns an erased block to the free pool under `key`: lower keys
    /// are allocated first, equal keys lowest id first.
    pub fn free(&mut self, block: BlockId, key: u32) -> Result<(), FreeError> {
        let idx = self.checked_slot(block)?;
        self.slots[idx] = Slot::Free;
        self.free.push(Reverse((key, block.0)));
        Ok(())
    }

    /// Permanently retires an allocated block (grown bad block after an
    /// erase failure). The block never re-enters the free pool, shrinking
    /// the region's usable capacity.
    pub fn retire(&mut self, block: BlockId) -> Result<(), FreeError> {
        let idx = self.checked_slot(block)?;
        self.slots[idx] = Slot::Retired;
        self.retired_count += 1;
        Ok(())
    }

    /// Validates that `block` is in range, allocated, and not retired.
    fn checked_slot(&self, block: BlockId) -> Result<usize, FreeError> {
        if !self.range.contains(&block.0) {
            return Err(FreeError::OutOfRange { block: block.0 });
        }
        let idx = self.slot_index(block.0);
        match self.slots[idx] {
            Slot::Allocated => Ok(idx),
            Slot::Retired => Err(FreeError::Retired { block: block.0 }),
            Slot::Free => Err(FreeError::NotAllocated { block: block.0 }),
        }
    }

    /// Number of blocks currently free.
    pub fn free_count(&self) -> usize {
        self.free.len()
    }

    /// Number of blocks currently allocated.
    pub fn allocated_count(&self) -> usize {
        self.len() - self.free_count() - self.retired_count
    }

    /// Number of blocks permanently retired as bad.
    pub fn retired_count(&self) -> usize {
        self.retired_count
    }

    /// Whether `block` has been retired. Blocks outside the range are not
    /// retired by definition.
    pub fn is_retired(&self, block: BlockId) -> bool {
        self.range.contains(&block.0) && self.slots[self.slot_index(block.0)] == Slot::Retired
    }

    /// Verifies block-state conservation: the free heap and the allocated
    /// and retired blocks must partition the range, and the retired
    /// counter must match the retired blocks.
    pub fn audit(&self) -> Result<(), AllocSkew> {
        let count = |state| self.slots.iter().filter(|&&s| s == state).count();
        let (allocated, retired) = (count(Slot::Allocated), count(Slot::Retired));
        if retired != self.retired_count || self.free.len() + allocated + retired != self.len() {
            return Err(AllocSkew {
                free: self.free.len(),
                allocated,
                retired: self.retired_count,
                total: self.len(),
            });
        }
        Ok(())
    }

    /// Test-only corruption hook: bumps the retired counter without
    /// retiring a block, so [`BlockAllocator::audit`] must fail. Exists for
    /// the negative-path auditor tests.
    #[doc(hidden)]
    pub fn desync_retired_for_test(&mut self) {
        self.retired_count += 1;
    }

    /// Total number of blocks in the region.
    pub fn len(&self) -> usize {
        self.range.len()
    }

    /// Whether the region has no blocks (never true for a constructed
    /// allocator).
    pub fn is_empty(&self) -> bool {
        self.range.is_empty()
    }

    /// The range of block ids this allocator owns.
    pub fn range(&self) -> Range<u32> {
        self.range.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocates_lowest_first() {
        let mut a = BlockAllocator::new(10..14);
        assert_eq!(a.alloc(), Some(BlockId(10)));
        assert_eq!(a.alloc(), Some(BlockId(11)));
        a.free(BlockId(10), 0).unwrap();
        assert_eq!(a.alloc(), Some(BlockId(10)));
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut a = BlockAllocator::new(0..2);
        assert!(a.alloc().is_some());
        assert!(a.alloc().is_some());
        assert_eq!(a.alloc(), None);
        assert_eq!(a.free_count(), 0);
        assert_eq!(a.allocated_count(), 2);
    }

    #[test]
    fn double_free_is_reported() {
        let mut a = BlockAllocator::new(0..2);
        let b = a.alloc().unwrap();
        assert_eq!(a.free(b, 0), Ok(()));
        assert_eq!(a.free(b, 0), Err(FreeError::NotAllocated { block: b.0 }));
    }

    #[test]
    fn foreign_block_is_reported() {
        let mut a = BlockAllocator::new(0..2);
        assert_eq!(
            a.free(BlockId(5), 0),
            Err(FreeError::OutOfRange { block: 5 })
        );
        assert_eq!(
            a.retire(BlockId(5)),
            Err(FreeError::OutOfRange { block: 5 })
        );
    }

    #[test]
    fn counts_are_consistent() {
        let mut a = BlockAllocator::new(0..8);
        let blocks: Vec<_> = (0..5).map(|_| a.alloc().unwrap()).collect();
        assert_eq!(a.free_count(), 3);
        assert_eq!(a.allocated_count(), 5);
        for b in blocks {
            a.free(b, 0).unwrap();
        }
        assert_eq!(a.free_count(), 8);
        assert_eq!(a.audit(), Ok(()));
    }

    #[test]
    fn retire_removes_block_from_rotation() {
        let mut a = BlockAllocator::new(0..3);
        let b = a.alloc().unwrap();
        a.retire(b).unwrap();
        assert_eq!(a.retired_count(), 1);
        assert!(a.is_retired(b));
        assert_eq!(a.free(b, 0), Err(FreeError::Retired { block: b.0 }));
        assert_eq!(a.retire(b), Err(FreeError::Retired { block: b.0 }));
        let mut seen = Vec::new();
        while let Some(x) = a.alloc() {
            seen.push(x);
        }
        assert!(!seen.contains(&b), "retired block must never be handed out");
        assert_eq!(seen.len(), 2);
        assert_eq!(a.audit(), Ok(()));
    }

    #[test]
    fn lower_keys_allocate_first() {
        let mut a = BlockAllocator::new(0..3);
        let b0 = a.alloc().unwrap();
        let b1 = a.alloc().unwrap();
        a.free(b0, 2).unwrap();
        a.free(b1, 1).unwrap();
        // Untouched block 2 (key 0) beats both, then b1's lower key wins
        // over b0's lower id.
        assert_eq!(a.alloc(), Some(BlockId(2)), "key 0 beats freed blocks");
        assert_eq!(a.alloc(), Some(b1), "lower key beats lower id");
        assert_eq!(a.alloc(), Some(b0));
    }

    #[test]
    fn equal_keys_allocate_lowest_id_first() {
        let mut a = BlockAllocator::new(0..3);
        let blocks: Vec<_> = (0..3).map(|_| a.alloc().unwrap()).collect();
        for &b in blocks.iter().rev() {
            a.free(b, 1).unwrap();
        }
        let order: Vec<_> = (0..3).map(|_| a.alloc().unwrap()).collect();
        assert_eq!(order, blocks, "key ties break by lowest id, not free order");
    }

    #[test]
    fn audit_catches_retirement_desync() {
        let mut a = BlockAllocator::new(0..4);
        assert_eq!(a.audit(), Ok(()));
        a.desync_retired_for_test();
        let skew = a.audit().unwrap_err();
        assert_eq!(skew.total, 4);
        assert!(skew.to_string().contains("accounting skew"));
    }
}
