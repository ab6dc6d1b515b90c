//! Group placement and garbage collection in the group area.
//!
//! Compaction invalidates whole data segment groups, and a compaction's
//! output goes to freshly-opened blocks, so blocks overwhelmingly hold
//! groups of a single level and become *entirely* invalid together — the
//! paper's observation (Section 4.4.4) that most victim blocks in AnyKey
//! can be erased without relocating anything. The GC here handles the
//! remainder: it relocates surviving groups wholesale (a unit of multiple
//! pages) and patches the group's PPA in the level list.

use anykey_flash::{BlockId, Ns, OpCause, Ppa};

use crate::anykey::AnyKeyStore;
use crate::error::KvError;

/// The group area's one stream: groups of every level share the open
/// block, and compaction seals it at its output boundary instead.
pub(crate) const GROUP_STREAM: usize = 0;

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
            let first = self
                .area
                .place(&mut self.group_alloc, GROUP_STREAM, pages)?;
            for i in 0..pages {
                let r = self.core.flash.program(first.offset(i), cause, at);
                done = done.max(r.done);
                if !r.status.is_ok() {
                    // `place` made `first.block` the open block, so
                    // `release` never reports it ready; erase it here
                    // when the failure left it empty.
                    self.area.release(first.block, pages)?;
                    if self.area.units_in(first.block) == 0 {
                        done = done.max(self.area.erase_empty(
                            &mut self.group_alloc,
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

    /// Relocates every group of `victim` to fresh space and erases it.
    pub(crate) fn relocate_block(&mut self, victim: BlockId, at: Ns) -> Result<Ns, KvError> {
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
        done = done.max(self.area.erase_empty(
            &mut self.group_alloc,
            &mut self.core.flash,
            victim,
            done,
        )?);
        self.core.push_span(snap, "gc", "relocate", 0, at, done);
        Ok(done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anykey_flash::BlockAllocator;

    use crate::config::{DeviceConfig, EngineKind, RESERVE_BLOCKS};
    use crate::engine::Engine;
    use crate::pagearea::PageArea;

    /// An allocator and a page area as AnyKey builds them.
    fn area(blocks: u32) -> (BlockAllocator, PageArea) {
        (
            BlockAllocator::new(0..blocks),
            PageArea::new(128, "group area"),
        )
    }

    #[test]
    fn place_packs_groups_into_blocks() {
        let (mut al, mut a) = area(4);
        let p1 = a.place(&mut al, GROUP_STREAM, 33).unwrap();
        let p2 = a.place(&mut al, GROUP_STREAM, 33).unwrap();
        let p3 = a.place(&mut al, GROUP_STREAM, 33).unwrap();
        assert_eq!(p1.block, p2.block);
        assert_eq!(p2.block, p3.block);
        assert_eq!(p3.page, 66);
        // A fourth 33-page group does not fit 128 pages: new block.
        let p4 = a.place(&mut al, GROUP_STREAM, 33).unwrap();
        assert_ne!(p4.block, p1.block);
        assert_eq!(a.units_in(p1.block), 3);
    }

    #[test]
    fn release_reports_empty_only_when_sealed() {
        let (mut al, mut a) = area(3);
        let p = a.place(&mut al, GROUP_STREAM, 33).unwrap();
        assert!(
            !a.release(p.block, 33).unwrap(),
            "open block must not be erased"
        );
        let q = a.place(&mut al, GROUP_STREAM, 128).unwrap(); // forces a new block, sealing p's
        assert_ne!(p.block, q.block);
    }

    #[test]
    fn seal_then_release_allows_erase() {
        let (mut al, mut a) = area(2);
        let p = a.place(&mut al, GROUP_STREAM, 33).unwrap();
        a.seal(GROUP_STREAM);
        assert!(a.release(p.block, 33).unwrap());
    }

    #[test]
    fn victim_prefers_fewest_valid_pages() {
        let (mut al, mut a) = area(4);
        let p1 = a.place(&mut al, GROUP_STREAM, 64).unwrap();
        let _p2 = a.place(&mut al, GROUP_STREAM, 64).unwrap(); // same block, 2 groups = 128 pages
        let q = a.place(&mut al, GROUP_STREAM, 64).unwrap(); // new block, 64 pages
        a.seal(GROUP_STREAM);
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
        let p = a.place(&mut al, GROUP_STREAM, 33).unwrap();
        a.seal(GROUP_STREAM);
        assert!(a.release(p.block, 33).unwrap());
        assert_eq!(
            a.release(p.block, 33),
            Err(KvError::LiveCountSkew {
                block: p.block.0,
                owner: "group area",
            })
        );
        assert_eq!(a.units_in(p.block), 0);
    }

    #[test]
    fn exhaustion_is_device_full() {
        let (mut al, mut a) = area(1);
        a.place(&mut al, GROUP_STREAM, 128).unwrap();
        assert_eq!(
            a.place(&mut al, GROUP_STREAM, 1).unwrap_err(),
            KvError::DeviceFull
        );
    }

    #[test]
    fn blocks_emptied_while_open_are_erased_by_gc_without_relocation() {
        let mut s = AnyKeyStore::new(
            DeviceConfig::builder()
                .capacity_bytes(64 << 20)
                .engine(EngineKind::AnyKey)
                .build(),
        );
        let ppb = s.core.flash.geometry().pages_per_block;
        let free = s.group_alloc.free_count();
        // Emptied while open, then left by a `place` that needs a fresh
        // block.
        let p = s.area.place(&mut s.group_alloc, GROUP_STREAM, 8).unwrap();
        assert!(!s.area.release(p.block, 8).unwrap(), "p's block is open");
        let q = s.area.place(&mut s.group_alloc, GROUP_STREAM, ppb).unwrap();
        assert_ne!(q.block, p.block);
        assert_eq!(s.area.victim(), Some((p.block, 0)));
        // Emptied while open, then left by a `seal`.
        let r = s.area.place(&mut s.group_alloc, GROUP_STREAM, 8).unwrap();
        assert!(!s.area.release(r.block, 8).unwrap(), "r's block is open");
        s.area.seal(GROUP_STREAM);
        assert_eq!(s.area.victim(), Some((p.block.min(r.block), 0)));

        // Demand exactly the two empty blocks back.
        let extra = free - 1 - RESERVE_BLOCKS;
        s.gc_for_headroom(0, extra).unwrap();
        assert_eq!(s.group_alloc.free_count(), free - 1);
        assert_eq!(s.group_alloc.allocated_count(), 1, "only q's block is left");
        assert_eq!(s.area.victim(), Some((q.block, ppb)));
        let c = s.core.flash.counters();
        assert_eq!(c.reads(OpCause::GcRead), 0);
        assert_eq!(c.writes(OpCause::GcWrite), 0);
        assert_eq!(c.erases(), 2);
    }
}
