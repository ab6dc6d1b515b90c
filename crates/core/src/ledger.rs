//! The per-block books of the four flash areas (AnyKey's value log and
//! group area, PinK's data and meta areas) that GC picks victims from
//! (paper Sections 4.3 and 4.4.4). A [`crate::ledger::Ledger`] is dense
//! over its allocator's block range, so every scan walks blocks in
//! ascending id; it allocates its array when it opens its first block, so
//! building an engine allocates nothing.

use std::ops::Range;

use anykey_flash::{BlockAllocator, BlockId, FlashSim, Ns};

use crate::audit::AuditError;
use crate::error::KvError;

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum State {
    /// Free, retired, or drawn by another area of the same allocator.
    #[default]
    Untracked,
    Open,
    /// Takes no more units: a GC victim candidate.
    Sealed,
}

#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    live: u64,
    units: u32,
    state: State,
}

/// Per-block live units and live count of one area: a page area's units
/// (groups, meta pages) and their pages, or a byte log's valid bytes (it
/// counts no units).
#[derive(Debug, Clone)]
pub struct Ledger {
    range: Range<u32>,
    /// The live count an erase block holds.
    capacity: u64,
    /// Names the area in errors and audits.
    owner: &'static str,
    /// Indexed by `block - range.start`; empty until the first open.
    slots: Vec<Slot>,
}

impl Ledger {
    /// An empty ledger over `range`, whose erase blocks hold `capacity`.
    pub fn new(range: Range<u32>, capacity: u64, owner: &'static str) -> Self {
        Self {
            range,
            capacity,
            owner,
            slots: Vec::new(),
        }
    }

    fn index(&self, block: BlockId) -> usize {
        block.0.wrapping_sub(self.range.start) as usize
    }

    /// This area's error for `block`: untracked, or a live-count skew.
    fn error(&self, block: BlockId, untracked: bool) -> KvError {
        let (block, owner) = (block.0, self.owner);
        if untracked {
            KvError::UntrackedBlock { block, owner }
        } else {
            KvError::LiveCountSkew { block, owner }
        }
    }

    fn slot_mut(&mut self, block: BlockId) -> Result<&mut Slot, KvError> {
        let (i, e) = (self.index(block), self.error(block, true));
        let s = self.slots.get_mut(i);
        s.filter(|s| s.state != State::Untracked).ok_or(e)
    }

    /// Tracks `block`, fresh from the allocator, as open with nothing live.
    pub fn open(&mut self, block: BlockId) {
        if self.slots.is_empty() {
            self.slots.resize(self.range.len(), Slot::default());
        }
        let i = self.index(block);
        self.slots[i].state = State::Open;
    }

    /// Seals an open block.
    pub fn seal(&mut self, block: BlockId) {
        if let Ok(s) = self.slot_mut(block) {
            s.state = State::Sealed;
        }
    }

    /// `block`'s live units and count, if tracked.
    pub fn get(&self, block: BlockId) -> Option<(u32, u64)> {
        let s = self.slots.get(self.index(block))?;
        (s.state != State::Untracked).then_some((s.units, s.live))
    }

    /// Adds `units` units of `live` count to `block`.
    ///
    /// # Errors
    ///
    /// [`KvError::UntrackedBlock`] for an untracked block.
    pub fn credit(&mut self, block: BlockId, units: u32, live: u64) -> Result<(), KvError> {
        let s = self.slot_mut(block)?;
        (s.units, s.live) = (s.units + units, s.live + live);
        Ok(())
    }

    /// Removes `units` units of `live` count from `block`; returns its
    /// units left.
    ///
    /// # Errors
    ///
    /// [`KvError::UntrackedBlock`]; [`KvError::LiveCountSkew`] when it
    /// holds less (it then stays as it was).
    pub fn debit(&mut self, block: BlockId, units: u32, live: u64) -> Result<u32, KvError> {
        let e = self.error(block, false);
        let s = self.slot_mut(block)?;
        let (Some(u), Some(l)) = (s.units.checked_sub(units), s.live.checked_sub(live)) else {
            return Err(e);
        };
        (s.units, s.live) = (u, l);
        Ok(u)
    }

    /// The live count summed over every block.
    pub fn total_live(&self) -> u64 {
        self.slots.iter().map(|s| s.live).sum()
    }

    /// Every sealed block and its live count, in ascending id.
    pub fn sealed(&self) -> impl Iterator<Item = (BlockId, u64)> + '_ {
        let slots = self.slots.iter().zip(self.range.clone());
        let sealed = slots.filter(|(s, _)| s.state == State::Sealed);
        sealed.map(|(s, b)| (BlockId(b), s.live))
    }

    /// The sealed block with the least live count, lowest id on a tie:
    /// the GC victim. One with nothing live is erased without relocation.
    pub fn victim(&self) -> Option<(BlockId, u64)> {
        self.sealed().min_by_key(|&(b, live)| (live, b))
    }

    /// Stops tracking `block` and erases it: the one place an erased
    /// block goes back to `alloc`'s pool, or retires as a grown bad block.
    /// Under a fault model the pool is keyed by P/E count
    /// ([`FlashSim::block_wear`]) and hands out the least-erased block
    /// first; with no faults, the lowest id. Returns the erase completion
    /// time and whether the block was freed.
    ///
    /// # Errors
    ///
    /// [`KvError::UntrackedBlock`]; [`KvError::LiveCountSkew`] for a
    /// block that holds units (it then stays as it was);
    /// [`KvError::BlockFree`] if `alloc` rejects the free or retire.
    pub fn erase(
        &mut self,
        flash: &mut FlashSim,
        alloc: &mut BlockAllocator,
        block: BlockId,
        at: Ns,
    ) -> Result<(Ns, bool), KvError> {
        let e = self.error(block, false);
        let s = self.slot_mut(block)?;
        if s.units > 0 {
            return Err(e);
        }
        *s = Slot::default();
        let r = flash.erase(block, at);
        let (freed, faulty) = (r.status.is_ok(), flash.config().fault.is_enabled());
        match (freed, faulty) {
            (false, _) => alloc.retire(block)?,
            (true, true) => alloc.free(block, flash.block_wear(block))?,
            (true, false) => alloc.free(block, 0)?,
        }
        Ok((r.done, freed))
    }

    /// Audits that no block counts more live than an erase block holds.
    ///
    /// # Errors
    ///
    /// [`AuditError::BlockOverfull`] for the lowest overfull block.
    pub fn audit_overfull(&self) -> Result<(), AuditError> {
        let mut slots = self.slots.iter().zip(self.range.clone());
        match slots.find(|(s, _)| s.live > self.capacity) {
            Some((s, block)) => Err(AuditError::BlockOverfull {
                owner: self.owner,
                block,
                live: s.live,
                capacity: self.capacity,
            }),
            None => Ok(()),
        }
    }

    /// Runs [`Self::audit_overfull`], then audits every block's live
    /// count against `index`: the block and live count of each unit the
    /// owner's index references.
    ///
    /// # Errors
    ///
    /// [`AuditError::BlockOverfull`]; [`AuditError::RecountSkew`] for the
    /// lowest block whose counts differ, or for an indexed block outside
    /// the range.
    pub fn recount(&self, index: impl Iterator<Item = (BlockId, u64)>) -> Result<(), AuditError> {
        self.audit_overfull()?;
        let skew = |block: u32, ledger, index| AuditError::RecountSkew {
            owner: self.owner,
            block,
            ledger,
            index,
        };
        let mut counts = vec![0u64; self.range.len()];
        for (b, live) in index {
            let c = counts.get_mut(self.index(b));
            *c.ok_or(skew(b.0, 0, live))? += live;
        }
        let live = |i: usize| self.slots.get(i).map_or(0, |s| s.live);
        match counts.iter().enumerate().find(|&(i, &c)| c != live(i)) {
            Some((i, &c)) => Err(skew(self.range.start + i as u32, live(i), c)),
            None => Ok(()),
        }
    }

    /// Corruption hook: lowers by one the live count of the first block
    /// that has any. Returns whether such a block existed.
    #[doc(hidden)]
    pub fn skew_for_test(&mut self) -> bool {
        let first = self.slots.iter_mut().find(|s| s.live > 0);
        first.map(|s| s.live -= 1).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn victim_overfull_and_recount_report_the_lowest_block() {
        // Blocks 13..16 of a range starting at 10, opened out of order.
        let mut l = Ledger::new(10..20, 128, "test area");
        for (b, live) in [(15, 64), (13, 64), (14, 96)] {
            l.open(BlockId(b));
            l.credit(BlockId(b), 1, live).unwrap();
            l.seal(BlockId(b));
        }
        // The victim tie goes to the lowest id; an open block is never
        // the victim, even with nothing live.
        l.open(BlockId(11));
        assert_eq!(l.victim(), Some((BlockId(13), 64)));
        // The recount names the first block whose counts differ.
        let index = [(15, 63), (14, 95), (13, 64)].map(|(b, n)| (BlockId(b), n));
        assert_eq!(
            l.recount(index.into_iter()),
            Err(AuditError::RecountSkew {
                owner: "test area",
                block: 14,
                ledger: 96,
                index: 95,
            })
        );
        let index = [(15, 64), (14, 96), (13, 64)].map(|(b, n)| (BlockId(b), n));
        assert_eq!(l.recount(index.into_iter()), Ok(()));
        assert!(matches!(
            l.recount([(BlockId(20), 1)].into_iter()),
            Err(AuditError::RecountSkew { block: 20, .. })
        ));
        // Two overfull blocks: the lowest is reported, before any recount.
        for b in [15, 14] {
            l.credit(BlockId(b), 0, 100).unwrap();
        }
        assert!(matches!(
            l.recount(std::iter::empty()),
            Err(AuditError::BlockOverfull { block: 14, .. })
        ));
    }
}
