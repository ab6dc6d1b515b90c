//! The page-granular flash area both engines keep their index units in:
//! AnyKey's data segment groups (paper Section 4.4.4) and PinK's spilled
//! meta pages.
//!
//! A unit is a run of consecutive pages placed into one *stream*'s open
//! block. Each tracked block counts its live units and pages. The area
//! owns the page lifecycle of both engines: `write`, `free` and
//! `relocate` (of the GC
//! [`PageArea::victim`](crate::pagearea::PageArea::victim)). It draws
//! blocks from an allocator its owner lends it on every call.

use std::collections::HashMap;

use anykey_flash::{BlockAllocator, BlockId, FlashSim, Ns, OpCause, Ppa};

use crate::audit::AuditError;
use crate::bytelog::erase_block;
use crate::error::KvError;

/// Upper bound on the placements of one unit after program failures;
/// past it the media fails essentially every program, and the write
/// gives up with [`KvError::DeviceFull`] rather than spinning.
pub const MAX_PLACE_ATTEMPTS: usize = 512;

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

    /// Places a `pages`-page unit in `stream` and programs its pages at
    /// `at` as `cause`; returns its first page and when the last program
    /// or recovery erase completes. A failed program releases the whole
    /// unit, erases its block at once if that left it with no unit (even
    /// while it is open), and places the unit again.
    ///
    /// # Errors
    ///
    /// [`KvError::DeviceFull`] when `alloc` has no free block or after
    /// [`MAX_PLACE_ATTEMPTS`] placements; an erase's errors.
    pub fn write(
        &mut self,
        alloc: &mut BlockAllocator,
        flash: &mut FlashSim,
        stream: usize,
        pages: u32,
        cause: OpCause,
        at: Ns,
    ) -> Result<(Ppa, Ns), KvError> {
        let mut done = at;
        'place: for _ in 0..MAX_PLACE_ATTEMPTS {
            let first = self.place(alloc, stream, pages)?;
            for i in 0..pages {
                let r = flash.program(first.offset(i), cause, at);
                done = done.max(r.done);
                if !r.status.is_ok() {
                    if self.release(first.block, pages)? == 0 {
                        done = done.max(self.erase_empty(alloc, flash, first.block, at)?);
                    }
                    continue 'place;
                }
            }
            return Ok((first, done));
        }
        Err(KvError::DeviceFull)
    }

    /// Releases one `pages`-page unit of `block`, erasing the block at
    /// `at` once it is empty and sealed; returns when that erase
    /// completes, or `at`. A block emptied while open stays tracked with
    /// no unit until [`Self::victim`] hands it to GC.
    ///
    /// # Errors
    ///
    /// [`KvError::UntrackedBlock`] for an untracked block;
    /// [`KvError::LiveCountSkew`] when it holds no unit or fewer than
    /// `pages` live pages (it then stays as it was); an erase's errors.
    pub fn free(
        &mut self,
        alloc: &mut BlockAllocator,
        flash: &mut FlashSim,
        block: BlockId,
        pages: u32,
        at: Ns,
    ) -> Result<Ns, KvError> {
        if self.release(block, pages)? == 0 && !self.is_open(block) {
            self.erase_empty(alloc, flash, block, at)
        } else {
            Ok(at)
        }
    }

    /// Collects `victim`, whose live units are `units` — each `(stream,
    /// first page, pages)`, in the owner's order. Reads their pages at
    /// `at` as GC reads, [`Self::write`]s each copy to its stream as a GC
    /// write when the reads end, calls `patch(i, first page of copy i)`
    /// and releases the old unit, and erases the victim last, when the
    /// last program ends; returns when that erase completes. A failed
    /// copy leaves the units not yet copied where they were, counted.
    ///
    /// # Errors
    ///
    /// [`Self::write`]'s and [`Self::free`]'s, and
    /// [`KvError::LiveCountSkew`] when `units` omits a live unit.
    pub fn relocate(
        &mut self,
        alloc: &mut BlockAllocator,
        flash: &mut FlashSim,
        victim: BlockId,
        units: &[(usize, Ppa, u32)],
        at: Ns,
        mut patch: impl FnMut(usize, Ppa),
    ) -> Result<Ns, KvError> {
        let reads = units
            .iter()
            .flat_map(|&(_, first, pages)| (0..pages).map(move |i| first.offset(i)));
        let t_read = flash.read_many(reads, OpCause::GcRead, at);
        let mut done = t_read;
        for (i, &(stream, _, pages)) in units.iter().enumerate() {
            let (new, td) = self.write(alloc, flash, stream, pages, OpCause::GcWrite, t_read)?;
            done = done.max(td);
            patch(i, new);
            self.release(victim, pages)?;
        }
        Ok(done.max(self.erase_empty(alloc, flash, victim, done)?))
    }

    /// Reserves `pages` consecutive pages for one unit in `stream`'s open
    /// block, opening a fresh block from `alloc` (or failing with
    /// [`KvError::DeviceFull`]) when the open one cannot fit the unit.
    fn place(
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

    /// Releases one `pages`-page unit of `block`; returns its units left.
    fn release(&mut self, block: BlockId, pages: u32) -> Result<u32, KvError> {
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
        Ok(units)
    }

    /// Stops tracking an empty block and erases it (retiring it when the
    /// erase fails); returns the erase completion time. A stream whose
    /// open block it was opens a fresh one next.
    ///
    /// # Errors
    ///
    /// [`KvError::UntrackedBlock`] for an untracked block,
    /// [`KvError::LiveCountSkew`] for one that holds units (it then stays
    /// as it was), and [`KvError::BlockFree`] if `alloc` rejects it.
    fn erase_empty(
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
    use anykey_flash::{FaultModel, FlashConfig};

    /// An allocator over `blocks` blocks and an empty area of 128-page
    /// blocks.
    fn area(blocks: u32) -> (BlockAllocator, PageArea) {
        (
            BlockAllocator::new(0..blocks),
            PageArea::new(128, "test area"),
        )
    }

    #[test]
    fn place_packs_groups_into_blocks() {
        let (mut al, mut a) = area(4);
        let p1 = a.place(&mut al, 0, 33).unwrap();
        let p2 = a.place(&mut al, 0, 33).unwrap();
        let p3 = a.place(&mut al, 0, 33).unwrap();
        assert_eq!(p1.block, p2.block);
        assert_eq!(p2.block, p3.block);
        assert_eq!(p3.page, 66);
        // A fourth 33-page group does not fit 128 pages: new block.
        let p4 = a.place(&mut al, 0, 33).unwrap();
        assert_ne!(p4.block, p1.block);
        assert_eq!(a.units_in(p1.block), 3);
    }

    #[test]
    fn release_reports_empty_only_when_sealed() {
        let (mut al, mut a) = area(3);
        let mut flash = FlashSim::new(FlashConfig::small_test());
        let p = a.place(&mut al, 0, 33).unwrap();
        assert_eq!(a.free(&mut al, &mut flash, p.block, 33, 7), Ok(7));
        assert_eq!(
            flash.counters().erases(),
            0,
            "open block must not be erased"
        );
        let q = a.place(&mut al, 0, 128).unwrap(); // forces a new block, sealing p's
        assert_ne!(p.block, q.block);
        assert_eq!(a.victim(), Some((p.block, 0)));
    }

    #[test]
    fn seal_then_release_allows_erase() {
        let (mut al, mut a) = area(2);
        let mut flash = FlashSim::new(FlashConfig::small_test());
        let p = a.place(&mut al, 0, 33).unwrap();
        a.seal(0);
        assert!(a.free(&mut al, &mut flash, p.block, 33, 0).unwrap() > 0);
        assert_eq!(flash.counters().erases(), 1);
        assert_eq!((a.victim(), al.allocated_count()), (None, 0));
    }

    #[test]
    fn victim_prefers_fewest_valid_pages() {
        let (mut al, mut a) = area(4);
        let p1 = a.place(&mut al, 0, 64).unwrap();
        let _p2 = a.place(&mut al, 0, 64).unwrap(); // same block, 2 groups = 128 pages
        let q = a.place(&mut al, 0, 64).unwrap(); // new block, 64 pages
        a.seal(0);
        assert_ne!(p1.block, q.block);
        assert_eq!(a.victim().unwrap().0, q.block);
        // Releasing one group from p1's block drops it to 64 pages: tie;
        // lowest block id wins.
        a.release(p1.block, 64).unwrap();
        let (v, pages) = a.victim().unwrap();
        assert_eq!(pages, 64);
        assert_eq!(v, p1.block.min(q.block));
    }

    #[test]
    fn double_release_is_an_error() {
        let (mut al, mut a) = area(2);
        let p = a.place(&mut al, 0, 33).unwrap();
        a.seal(0);
        assert_eq!(a.release(p.block, 33), Ok(0));
        assert_eq!(
            a.release(p.block, 33),
            Err(KvError::LiveCountSkew {
                block: p.block.0,
                owner: "test area",
            })
        );
        assert_eq!(a.units_in(p.block), 0);
    }

    #[test]
    fn exhaustion_is_device_full() {
        let (mut al, mut a) = area(1);
        a.place(&mut al, 0, 128).unwrap();
        assert_eq!(a.place(&mut al, 0, 1).unwrap_err(), KvError::DeviceFull);
    }

    #[test]
    fn write_gives_up_after_the_attempt_bound_and_erases_what_it_emptied() {
        let (mut al, mut a) = area(4);
        let mut cfg = FlashConfig::small_test();
        cfg.fault = FaultModel {
            program_fail_ppm: 1_000_000,
            ..FaultModel::disabled()
        };
        let mut flash = FlashSim::new(cfg);
        assert_eq!(
            a.write(&mut al, &mut flash, 0, 4, OpCause::CompactionWrite, 0),
            Err(KvError::DeviceFull)
        );
        // Every attempt failed on its first page, emptied its fresh block
        // and erased it back into the pool.
        let c = flash.counters();
        assert_eq!(c.program_fails(), MAX_PLACE_ATTEMPTS as u64);
        assert_eq!(c.erases(), MAX_PLACE_ATTEMPTS as u64);
        assert_eq!(a.victim(), None, "no block stays tracked");
        assert_eq!((al.allocated_count(), al.free_count()), (0, 4));
    }

    #[test]
    fn relocating_an_empty_victim_only_erases_it() {
        let (mut al, mut a) = area(4);
        let mut flash = FlashSim::new(FlashConfig::small_test());
        let cause = OpCause::CompactionWrite;
        let (p, _) = a.write(&mut al, &mut flash, 0, 4, cause, 0).unwrap();
        assert_eq!(a.free(&mut al, &mut flash, p.block, 4, 0), Ok(0), "open");
        a.seal(0);
        assert_eq!(a.victim(), Some((p.block, 0)));
        let done = a
            .relocate(&mut al, &mut flash, p.block, &[], 1_000, |_, _| {
                panic!("nothing to patch")
            })
            .unwrap();
        assert!(done > 1_000);
        let c = flash.counters();
        assert_eq!(c.reads(OpCause::GcRead), 0);
        assert_eq!(c.writes(OpCause::GcWrite), 0);
        assert_eq!(c.erases(), 1);
        assert_eq!((a.victim(), al.allocated_count()), (None, 0));
    }

    #[test]
    fn relocate_copies_units_in_order_then_erases_the_victim() {
        let (mut al, mut a) = area(4);
        let mut flash = FlashSim::new(FlashConfig::small_test());
        let cause = OpCause::CompactionWrite;
        let units = [(0, 8), (1, 2)].map(|(stream, pages)| {
            let first = a.write(&mut al, &mut flash, 0, pages, cause, 0).unwrap().0;
            (stream, first, pages)
        });
        let victim = units[0].1.block;
        a.seal(0);
        let mut copies = Vec::new();
        let done = a
            .relocate(&mut al, &mut flash, victim, &units, 0, |i, p| {
                copies.push((i, p));
            })
            .unwrap();
        assert_eq!(copies.iter().map(|c| c.0).collect::<Vec<_>>(), [0, 1]);
        for (&(_, p), (stream, _, _)) in copies.iter().zip(units) {
            assert_ne!(p.block, victim);
            assert_eq!(a.units_in(p.block), 1, "stream {stream} has its own block");
        }
        let c = flash.counters();
        assert_eq!(
            (c.reads(OpCause::GcRead), c.writes(OpCause::GcWrite)),
            (10, 10)
        );
        assert_eq!(c.erases(), 1);
        assert_eq!(a.units_in(victim), 0);
        assert!(done > 0);
    }

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
        assert_eq!(a.release(p.block, 4), Ok(0));
    }

    #[test]
    fn a_block_emptied_while_open_is_the_next_victim() {
        let mut alloc = BlockAllocator::new(0..4);
        let mut a = PageArea::new(128, "test area");
        let full = a.place(&mut alloc, 0, 128).unwrap();
        let p = a.place(&mut alloc, 0, 8).unwrap();
        assert_eq!(a.release(p.block, 8), Ok(0));
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
