//! The page-granular flash area both engines keep their index units in:
//! AnyKey's data segment groups (paper Section 4.4.4) and PinK's spilled
//! meta pages.
//!
//! A unit is a run of consecutive pages placed into one *stream*'s open
//! block. Each tracked block counts its live units and pages, so the owner
//! can erase a block as soon as a release empties it, or pick a GC victim
//! ([`PageArea::victim`](crate::pagearea::PageArea::victim)). The area
//! draws blocks from an allocator its owner lends it on every call.

use std::collections::HashMap;

use anykey_flash::{BlockAllocator, BlockId, FlashSim, Ns, Ppa};

use crate::audit::AuditError;
use crate::bytelog::erase_block;
use crate::error::KvError;

/// A page-granular area with one open block per stream.
///
/// Every tracked block that is no stream's open block is sealed.
#[derive(Debug, Clone)]
pub struct PageArea {
    /// Per stream: its open block and that block's next free page.
    opens: Vec<Option<(BlockId, u32)>>,
    /// Per tracked block: (live units, live pages).
    blocks: HashMap<BlockId, (u32, u32)>,
    pages_per_block: u32,
    /// Names the area in errors and audits.
    owner: &'static str,
}

impl PageArea {
    /// An empty area for blocks of `pages_per_block` pages, named `owner`
    /// in errors and audits.
    pub fn new(pages_per_block: u32, owner: &'static str) -> Self {
        Self {
            opens: Vec::new(),
            blocks: HashMap::new(),
            pages_per_block,
            owner,
        }
    }

    fn is_open(&self, block: BlockId) -> bool {
        self.opens
            .iter()
            .any(|o| o.is_some_and(|(b, _)| b == block))
    }

    /// Reserves `pages` consecutive pages for one unit in `stream`'s open
    /// block, first opening a fresh block from `alloc` when the open one
    /// cannot fit the unit.
    ///
    /// # Errors
    ///
    /// Returns [`KvError::DeviceFull`] when `alloc` has no free block.
    pub fn place(
        &mut self,
        alloc: &mut BlockAllocator,
        stream: usize,
        pages: u32,
    ) -> Result<Ppa, KvError> {
        if self.opens.len() <= stream {
            self.opens.resize(stream + 1, None);
        }
        let (block, page) = match self.opens[stream] {
            Some((block, next)) if self.pages_per_block - next >= pages => (block, next),
            _ => {
                self.opens[stream] = None;
                (alloc.alloc().ok_or(KvError::DeviceFull)?, 0)
            }
        };
        self.opens[stream] = Some((block, page + pages));
        let e = self.blocks.entry(block).or_insert((0, 0));
        e.0 += 1;
        e.1 += pages;
        Ok(Ppa { block, page })
    }

    /// Seals `stream`'s open block, so its next unit opens a fresh one.
    pub fn seal(&mut self, stream: usize) {
        if let Some(o) = self.opens.get_mut(stream) {
            *o = None;
        }
    }

    /// Releases one `pages`-page unit of `block`; returns `true` when the
    /// block is now empty and no stream's open block (ready for
    /// [`Self::erase_empty`]).
    ///
    /// # Errors
    ///
    /// Returns [`KvError::UntrackedBlock`] when `block` is not tracked — a
    /// released unit must have been placed here — and
    /// [`KvError::LiveCountSkew`] when it holds no unit or fewer than
    /// `pages` live pages to release (the block then stays as it was).
    pub fn release(&mut self, block: BlockId, pages: u32) -> Result<bool, KvError> {
        let e = self.blocks.get_mut(&block).ok_or(KvError::UntrackedBlock {
            block: block.0,
            owner: self.owner,
        })?;
        let (Some(units), Some(left)) = (e.0.checked_sub(1), e.1.checked_sub(pages)) else {
            return Err(KvError::LiveCountSkew {
                block: block.0,
                owner: self.owner,
            });
        };
        *e = (units, left);
        Ok(units == 0 && !self.is_open(block))
    }

    /// Stops tracking an empty block and erases it, returning it to
    /// `alloc` (or retiring it there when the erase fails); returns the
    /// erase completion time. A stream whose open block it was opens a
    /// fresh one next.
    ///
    /// # Errors
    ///
    /// Returns [`KvError::UntrackedBlock`] for an untracked block and
    /// [`KvError::LiveCountSkew`] for one that still holds units (it then
    /// stays as it was), and [`KvError::BlockFree`] if `alloc` rejects the
    /// free or retire.
    pub fn erase_empty(
        &mut self,
        alloc: &mut BlockAllocator,
        flash: &mut FlashSim,
        block: BlockId,
        at: Ns,
    ) -> Result<Ns, KvError> {
        let (units, _) = *self.blocks.get(&block).ok_or(KvError::UntrackedBlock {
            block: block.0,
            owner: self.owner,
        })?;
        if units > 0 {
            return Err(KvError::LiveCountSkew {
                block: block.0,
                owner: self.owner,
            });
        }
        self.blocks.remove(&block);
        for o in &mut self.opens {
            if o.is_some_and(|(b, _)| b == block) {
                *o = None;
            }
        }
        Ok(erase_block(flash, alloc, block, at)?.0)
    }

    /// The sealed block with the fewest live pages (lowest id on a tie) —
    /// the GC victim. A block with no unit left is a victim too: it was
    /// emptied while still open, and collecting it relocates nothing.
    pub fn victim(&self) -> Option<(BlockId, u32)> {
        self.blocks
            .iter()
            .filter(|(&b, _)| !self.is_open(b))
            .map(|(&b, &(_, pages))| (b, pages))
            .min_by_key(|&(b, pages)| (pages, b))
    }

    /// Live units in `block` (0 if untracked).
    pub fn units_in(&self, block: BlockId) -> u32 {
        self.blocks.get(&block).map_or(0, |e| e.0)
    }

    /// Audits that no block claims more live pages than an erase block
    /// holds.
    ///
    /// # Errors
    ///
    /// Returns [`AuditError::BlockOverfull`], naming this area, for the
    /// lowest overfull block.
    pub fn audit_overfull(&self) -> Result<(), AuditError> {
        match self
            .blocks
            .iter()
            .filter(|(_, &(_, pages))| pages > self.pages_per_block)
            .min_by_key(|(&b, _)| b)
        {
            Some((&b, &(_, pages))) => Err(AuditError::BlockOverfull {
                owner: self.owner,
                block: b.0,
                pages,
                pages_per_block: self.pages_per_block,
            }),
            None => Ok(()),
        }
    }

    /// Test-only corruption hook: credits one tracked block with more live
    /// pages than an erase block holds. Returns whether a block was
    /// tracked.
    #[cfg(test)]
    pub(crate) fn overfill_for_test(&mut self) -> bool {
        let pages = self.pages_per_block + 1;
        self.blocks
            .values_mut()
            .next()
            .map(|e| e.1 = pages)
            .is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anykey_flash::FlashConfig;

    #[test]
    fn streams_fill_their_own_blocks() {
        let mut alloc = BlockAllocator::new(0..4);
        let mut a = PageArea::new(128, "test area");
        let p = a.place(&mut alloc, 0, 1).unwrap();
        let q = a.place(&mut alloc, 2, 1).unwrap();
        let r = a.place(&mut alloc, 0, 1).unwrap();
        assert_ne!(p.block, q.block);
        assert_eq!((r.block, r.page), (p.block, 1));
        assert_eq!(a.units_in(p.block), 2);
        assert_eq!(alloc.allocated_count(), 2);
    }

    #[test]
    fn erasing_a_block_that_holds_units_is_an_error() {
        let mut alloc = BlockAllocator::new(0..4);
        let mut flash = FlashSim::new(FlashConfig::small_test());
        let mut a = PageArea::new(128, "test area");
        let p = a.place(&mut alloc, 0, 4).unwrap();
        a.seal(0);
        assert_eq!(
            a.erase_empty(&mut alloc, &mut flash, p.block, 0),
            Err(KvError::LiveCountSkew {
                block: p.block.0,
                owner: "test area",
            })
        );
        assert_eq!(a.units_in(p.block), 1, "the block stays tracked");
        assert_eq!(flash.counters().erases(), 0);
    }

    #[test]
    fn releasing_more_pages_than_a_block_holds_is_an_error() {
        let mut alloc = BlockAllocator::new(0..4);
        let mut a = PageArea::new(128, "test area");
        let p = a.place(&mut alloc, 0, 4).unwrap();
        assert_eq!(
            a.release(p.block, 8),
            Err(KvError::LiveCountSkew {
                block: p.block.0,
                owner: "test area",
            })
        );
        assert_eq!(a.units_in(p.block), 1, "the block stays as it was");
        assert_eq!(a.release(p.block, 4), Ok(false));
    }

    #[test]
    fn a_block_emptied_while_open_is_the_next_victim() {
        let mut alloc = BlockAllocator::new(0..4);
        let mut a = PageArea::new(128, "test area");
        let full = a.place(&mut alloc, 0, 128).unwrap();
        let p = a.place(&mut alloc, 0, 8).unwrap();
        assert!(!a.release(p.block, 8).unwrap(), "open blocks stay");
        assert_eq!(a.victim(), Some((full.block, 128)));
        a.seal(0);
        assert_eq!(a.victim(), Some((p.block, 0)));
    }

    #[test]
    fn victim_ties_go_to_the_lowest_block_every_run() {
        // Blocks come from the allocator in a fixed order but are tracked
        // in a hash map: the tie must not be broken by iteration order.
        let victim = || {
            let mut alloc = BlockAllocator::new(0..16);
            let mut a = PageArea::new(128, "test area");
            // Twelve full blocks of two 64-page units each; one unit
            // released from two of them ties those at 64 live pages.
            let units: Vec<Ppa> = (0..24)
                .map(|_| a.place(&mut alloc, 0, 64).unwrap())
                .collect();
            a.seal(0);
            let (x, y) = (units[17].block, units[6].block);
            assert_ne!(x, y);
            a.release(x, 64).unwrap();
            a.release(y, 64).unwrap();
            (a.victim(), x.min(y))
        };
        let (first, lowest) = victim();
        assert_eq!(first, Some((lowest, 64)));
        for _ in 0..20 {
            assert_eq!(victim().0, first);
        }
    }
    #[test]
    fn overfull_audit_reports_the_lowest_block_every_run() {
        // Two overfull blocks in a hash map: the report must not follow
        // iteration order.
        let reported = || {
            let mut alloc = BlockAllocator::new(0..16);
            let mut a = PageArea::new(128, "test area");
            let units: Vec<Ppa> = (0..24)
                .map(|_| a.place(&mut alloc, 0, 64).unwrap())
                .collect();
            let (x, y) = (units[17].block, units[6].block);
            for b in [x, y] {
                a.blocks.insert(b, (2, 129));
            }
            (a.audit_overfull(), x.min(y))
        };
        let (first, lowest) = reported();
        assert!(matches!(first, Err(AuditError::BlockOverfull { block, .. }) if block == lowest.0));
        for _ in 0..20 {
            assert_eq!(reported().0, first);
        }
    }
}
