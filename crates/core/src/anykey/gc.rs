//! Group-area block management and garbage collection.
//!
//! Compaction invalidates whole data segment groups, and a compaction's
//! output goes to freshly-opened blocks, so blocks overwhelmingly hold
//! groups of a single level and become *entirely* invalid together — the
//! paper's observation (Section 4.4.4) that most victim blocks in AnyKey
//! can be erased without relocating anything. The GC here handles the
//! remainder: it relocates surviving groups wholesale (a unit of multiple
//! pages) and patches the group's PPA in the level list.

use std::collections::HashMap;

use anykey_flash::{BlockAllocator, BlockId, FlashSim, Ns, OpCause, Ppa};

use crate::anykey::AnyKeyStore;
use crate::bytelog::erase_block;
use crate::config::RESERVE_BLOCKS;
use crate::error::KvError;

/// The erase-block region that data segment groups live in.
#[derive(Debug, Clone)]
pub struct GroupArea {
    alloc: BlockAllocator,
    open: Option<(BlockId, u32)>,
    /// Per block: (valid groups, valid pages). GC victims are chosen by
    /// valid pages, so fragmented blocks are compacted before full ones.
    valid: HashMap<BlockId, (u32, u32)>,
    pages_per_block: u32,
}

impl GroupArea {
    /// An area over the given block range.
    pub fn new(alloc: BlockAllocator, pages_per_block: u32) -> Self {
        Self {
            alloc,
            open: None,
            valid: HashMap::new(),
            pages_per_block,
        }
    }

    /// Number of free blocks remaining.
    pub fn free_blocks(&self) -> usize {
        self.alloc.free_count()
    }

    /// Total blocks in the area.
    pub fn total_blocks(&self) -> usize {
        self.alloc.len()
    }

    /// Reserves `pages` consecutive pages for a group; opens a new block
    /// when the current one cannot fit the group.
    ///
    /// # Errors
    ///
    /// Returns [`KvError::DeviceFull`] when no block is available.
    pub fn place(&mut self, pages: u32) -> Result<Ppa, KvError> {
        if let Some((block, next)) = self.open {
            if self.pages_per_block - next >= pages {
                self.open = Some((block, next + pages));
                let e = self.valid.entry(block).or_insert((0, 0));
                e.0 += 1;
                e.1 += pages;
                return Ok(Ppa { block, page: next });
            }
            self.open = None;
        }
        let block = self.alloc.alloc().ok_or(KvError::DeviceFull)?;
        self.valid.insert(block, (1, pages));
        self.open = Some((block, pages));
        Ok(Ppa { block, page: 0 })
    }

    /// Seals the open block (compaction output boundaries — keeps blocks
    /// single-level).
    pub fn seal(&mut self) {
        self.open = None;
    }

    /// Marks one `pages`-page group of `block` invalid; returns `true`
    /// when the block is now empty and sealed (ready to erase).
    ///
    /// # Errors
    ///
    /// Returns [`KvError::UntrackedBlock`] when `block` is not tracked by
    /// the area — a released group must have been placed here — and
    /// [`KvError::LiveCountSkew`] when it holds no group to release.
    pub fn release(&mut self, block: BlockId, pages: u32) -> Result<bool, KvError> {
        let e = self.valid.get_mut(&block).ok_or(KvError::UntrackedBlock {
            block: block.0,
            owner: "group area",
        })?;
        e.0 = e.0.checked_sub(1).ok_or(KvError::LiveCountSkew {
            block: block.0,
            owner: "group area",
        })?;
        e.1 = e.1.saturating_sub(pages);
        Ok(e.0 == 0 && self.open.map(|(b, _)| b) != Some(block))
    }

    /// Erases and frees a block that [`Self::release`] reported empty. A
    /// block whose erase fails is retired as a grown bad block instead of
    /// returning to the free pool.
    ///
    /// # Errors
    ///
    /// As [`erase_block`].
    pub fn erase_empty(
        &mut self,
        flash: &mut FlashSim,
        block: BlockId,
        at: Ns,
    ) -> Result<Ns, KvError> {
        debug_assert_eq!(self.valid.get(&block).map(|e| e.0), Some(0));
        self.valid.remove(&block);
        if self.open.map(|(b, _)| b) == Some(block) {
            self.open = None;
        }
        Ok(erase_block(flash, &mut self.alloc, block, at)?.0)
    }

    /// The sealed block with the fewest valid *pages* (but at least one
    /// group) — the GC victim: fragmented blocks compact first. Blocks
    /// with zero valid groups were already erased by [`Self::erase_empty`].
    pub fn victim(&self) -> Option<(BlockId, u32)> {
        let open = self.open.map(|(b, _)| b);
        self.valid
            .iter()
            .filter(|(&b, &(c, _))| Some(b) != open && c > 0)
            .map(|(&b, &(_, pages))| (b, pages))
            .min_by_key(|&(b, pages)| (pages, b))
    }

    /// Number of valid groups tracked for `block` (testing/diagnostics).
    pub fn valid_in(&self, block: BlockId) -> u32 {
        self.valid.get(&block).map(|e| e.0).unwrap_or(0)
    }

    /// Number of blocks retired as grown bad blocks.
    pub fn retired_blocks(&self) -> usize {
        self.alloc.retired_count()
    }

    /// The area's block allocator (reliability stats and audits).
    pub fn allocator(&self) -> &BlockAllocator {
        &self.alloc
    }

    /// Test-only corruption hook: retires `block` regardless of media
    /// state.
    #[doc(hidden)]
    pub fn retire_for_test(&mut self, block: BlockId) {
        let _ = self.alloc.retire(block);
    }

    /// Test-only corruption hook: desynchronizes the allocator's
    /// retired-block count (forwards to
    /// [`anykey_flash::BlockAllocator::desync_retired_for_test`]).
    #[doc(hidden)]
    pub fn desync_retired_for_test(&mut self) {
        self.alloc.desync_retired_for_test();
    }

    /// The first block claiming more valid pages than an erase block
    /// holds, as `(block id, valid pages, pages per block)` — `None` on a
    /// healthy area. Used by the invariant auditor.
    pub fn first_overfull_block(&self) -> Option<(u32, u32, u32)> {
        self.valid
            .iter()
            .find(|(_, &(_, pages))| pages > self.pages_per_block)
            .map(|(&b, &(_, pages))| (b.0, pages, self.pages_per_block))
    }

    /// Test-only corruption hook: credits one tracked block with more
    /// valid pages than an erase block holds. Returns whether a block was
    /// tracked.
    #[cfg(test)]
    pub(crate) fn overfill_for_test(&mut self) -> bool {
        let pages = self.pages_per_block + 1;
        self.valid
            .values_mut()
            .next()
            .map(|e| e.1 = pages)
            .is_some()
    }
}

/// Upper bound on consecutive placement retries after program failures;
/// exceeding it means the media is failing essentially every program, and
/// the device gives up with [`KvError::DeviceFull`] rather than spinning.
const MAX_PLACE_ATTEMPTS: usize = 512;

impl AnyKeyStore {
    /// Places a `pages`-page group and programs all of its pages,
    /// re-placing the whole group when any page program fails (groups must
    /// be page-contiguous). Failed spans stay consumed in their block; a
    /// block left with no valid groups by the recovery is erased (or
    /// retired) immediately so it cannot leak.
    pub(crate) fn place_group(
        &mut self,
        pages: u32,
        cause: OpCause,
        at: Ns,
    ) -> Result<(Ppa, Ns), KvError> {
        let mut done = at;
        let mut attempts = 0usize;
        'place: loop {
            attempts += 1;
            if attempts > MAX_PLACE_ATTEMPTS {
                return Err(KvError::DeviceFull);
            }
            let first = self.area.place(pages)?;
            for i in 0..pages {
                let r = self.core.flash.program(first.offset(i), cause, at);
                done = done.max(r.done);
                if !r.status.is_ok() {
                    let sealed_empty = self.area.release(first.block, pages)?;
                    if sealed_empty || self.area.valid_in(first.block) == 0 {
                        done = done.max(self.area.erase_empty(
                            &mut self.core.flash,
                            first.block,
                            at,
                        )?);
                    }
                    continue 'place;
                }
            }
            return Ok((first, done));
        }
    }

    /// Ensures at least [`RESERVE_BLOCKS`] free blocks exist in the group
    /// area, relocating valid groups out of the fullest-garbage blocks when
    /// needed.
    ///
    /// # Errors
    ///
    /// Returns [`KvError::DeviceFull`] when GC cannot recover enough
    /// blocks.
    pub(crate) fn gc_if_needed(&mut self, at: Ns) -> Result<Ns, KvError> {
        self.gc_for_headroom(at, 0)
    }

    /// Like [`Self::gc_if_needed`], but clears `extra` additional blocks —
    /// the transient headroom a large compaction needs before its source
    /// blocks free up.
    pub(crate) fn gc_for_headroom(&mut self, at: Ns, extra: usize) -> Result<Ns, KvError> {
        let reserve = RESERVE_BLOCKS + extra;
        let mut t = at;
        let mut guard = 0usize;
        while self.area.free_blocks() < reserve {
            let Some((victim, _)) = self.area.victim() else {
                return Err(KvError::DeviceFull);
            };
            guard += 1;
            if guard > self.area.total_blocks() * 2 {
                return Err(KvError::DeviceFull);
            }
            t = self.relocate_block(victim, t)?;
        }
        Ok(t)
    }

    /// Relocates every group of `victim` to fresh space and erases it.
    fn relocate_block(&mut self, victim: BlockId, at: Ns) -> Result<Ns, KvError> {
        let snap = self.core.span_snapshot();
        // Find the groups living in the victim block.
        let mut homes: Vec<(usize, usize)> = Vec::new();
        for (li, level) in self.levels.iter().enumerate() {
            for (gi, g) in level.groups.iter().enumerate() {
                if g.first_ppa.block == victim {
                    homes.push((li, gi));
                }
            }
        }
        // Read all pages of the relocating groups.
        let mut read_ppas = Vec::new();
        for &(li, gi) in &homes {
            read_ppas.extend(self.levels[li].groups[gi].all_ppas());
        }
        let t_read = self.core.flash.read_many(read_ppas, OpCause::GcRead, at);

        // Rewrite them and patch the level-list PPAs.
        let mut done = t_read;
        for &(li, gi) in &homes {
            let pages = self.levels[li].groups[gi].content.total_pages();
            let (new_ppa, td) = self.place_group(pages, OpCause::GcWrite, t_read)?;
            done = done.max(td);
            self.levels[li].groups[gi].first_ppa = new_ppa;
            // Deferred: the victim is erased below once all groups are out.
            self.area.release(victim, pages)?;
        }
        debug_assert_eq!(self.area.valid_in(victim), 0);
        done = done.max(self.area.erase_empty(&mut self.core.flash, victim, done)?);
        self.core.push_span(snap, "gc", "relocate", 0, at, done);
        #[cfg(debug_assertions)]
        self.verify_invariants()?;
        Ok(done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn area(blocks: u32) -> GroupArea {
        GroupArea::new(BlockAllocator::new(0..blocks), 128)
    }

    #[test]
    fn place_packs_groups_into_blocks() {
        let mut a = area(4);
        let p1 = a.place(33).unwrap();
        let p2 = a.place(33).unwrap();
        let p3 = a.place(33).unwrap();
        assert_eq!(p1.block, p2.block);
        assert_eq!(p2.block, p3.block);
        assert_eq!(p3.page, 66);
        // A fourth 33-page group does not fit 128 pages: new block.
        let p4 = a.place(33).unwrap();
        assert_ne!(p4.block, p1.block);
        assert_eq!(a.valid_in(p1.block), 3);
    }

    #[test]
    fn release_reports_empty_only_when_sealed() {
        let mut a = area(3);
        let p = a.place(33).unwrap();
        assert!(
            !a.release(p.block, 33).unwrap(),
            "open block must not be erased"
        );
        let q = a.place(128).unwrap(); // forces a new block, sealing p's
        assert_ne!(p.block, q.block);
    }

    #[test]
    fn seal_then_release_allows_erase() {
        let mut a = area(2);
        let p = a.place(33).unwrap();
        a.seal();
        assert!(a.release(p.block, 33).unwrap());
    }

    #[test]
    fn victim_prefers_fewest_valid_pages() {
        let mut a = area(4);
        let p1 = a.place(64).unwrap();
        let _p2 = a.place(64).unwrap(); // same block, 2 groups = 128 pages
        let q = a.place(64).unwrap(); // new block, 64 pages
        a.seal();
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
        let mut a = area(2);
        let p = a.place(33).unwrap();
        a.seal();
        assert!(a.release(p.block, 33).unwrap());
        assert_eq!(
            a.release(p.block, 33),
            Err(KvError::LiveCountSkew {
                block: p.block.0,
                owner: "group area",
            })
        );
        assert_eq!(a.valid_in(p.block), 0);
    }

    #[test]
    fn exhaustion_is_device_full() {
        let mut a = area(1);
        a.place(128).unwrap();
        assert_eq!(a.place(1).unwrap_err(), KvError::DeviceFull);
    }
}
