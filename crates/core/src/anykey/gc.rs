//! Garbage collection in the group area.
//!
//! Compaction invalidates whole data segment groups, and a compaction's
//! output goes to freshly-opened blocks, so blocks overwhelmingly hold
//! groups of a single level and become *entirely* invalid together — the
//! paper's observation (Section 4.4.4) that most victim blocks in AnyKey
//! can be erased without relocating anything. The GC here handles the
//! remainder: [`PageArea::relocate`](crate::pagearea::PageArea::relocate)
//! moves surviving groups wholesale (a unit of multiple pages), and the
//! engine patches each group's PPA in the level list.

use anykey_flash::{BlockId, Ns};

use crate::anykey::AnyKeyStore;
use crate::error::KvError;

/// The group area's one stream: groups of every level share the open
/// block, and compaction seals it at its output boundary instead.
pub(crate) const GROUP_STREAM: usize = 0;

impl AnyKeyStore {
    /// Relocates every group of `victim` to fresh space, patches their
    /// level-list PPAs and erases the victim.
    pub(crate) fn relocate_block(&mut self, victim: BlockId, at: Ns) -> Result<Ns, KvError> {
        let snap = self.core.span_snapshot();
        let (mut owners, mut units) = (Vec::new(), Vec::new());
        for g in self.levels.iter_mut().flat_map(|l| &mut l.units) {
            if g.first_ppa.block == victim {
                units.push((GROUP_STREAM, g.first_ppa, g.total_pages()));
                owners.push(&mut g.first_ppa);
            }
        }
        let (alloc, flash) = (&mut self.group_alloc, &mut self.core.flash);
        let done = self
            .area
            .relocate(alloc, flash, victim, &units, at, |i, ppa| *owners[i] = ppa)?;
        self.core.push_span(snap, "gc", "relocate", 0, at, done);
        Ok(done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anykey_flash::OpCause;

    use crate::config::{DeviceConfig, EngineKind, RESERVE_BLOCKS};
    use crate::engine::Engine;

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
        let cause = OpCause::CompactionWrite;
        let write = |s: &mut AnyKeyStore, pages| {
            let (alloc, flash) = (&mut s.group_alloc, &mut s.core.flash);
            s.area
                .write(alloc, flash, GROUP_STREAM, pages, cause, 0)
                .unwrap()
                .0
        };
        let free_unit = |s: &mut AnyKeyStore, p: anykey_flash::Ppa, pages| {
            let (alloc, flash) = (&mut s.group_alloc, &mut s.core.flash);
            s.area.free(alloc, flash, p.block, pages, 0).unwrap();
        };
        // Emptied while open, then left by a write that needs a fresh
        // block.
        let p = write(&mut s, 8);
        free_unit(&mut s, p, 8);
        assert_eq!(s.area.units_in(p.block), 0);
        let q = write(&mut s, ppb);
        assert_ne!(q.block, p.block);
        assert_eq!(s.area.ledger.victim(), Some((p.block, 0)));
        // Emptied while open, then left by a `seal`.
        let r = write(&mut s, 8);
        free_unit(&mut s, r, 8);
        s.area.seal(GROUP_STREAM);
        assert_eq!(s.area.ledger.victim(), Some((p.block.min(r.block), 0)));
        assert_eq!(s.core.flash.counters().erases(), 0, "open blocks stay");

        // Demand exactly the two empty blocks back.
        let extra = free - 1 - RESERVE_BLOCKS;
        s.gc_for_headroom(0, extra).unwrap();
        assert_eq!(s.group_alloc.free_count(), free - 1);
        assert_eq!(s.group_alloc.allocated_count(), 1, "only q's block is left");
        assert_eq!(s.area.ledger.victim(), Some((q.block, u64::from(ppb))));
        let c = s.core.flash.counters();
        assert_eq!(c.reads(OpCause::GcRead), 0);
        assert_eq!(c.writes(OpCause::GcWrite), 0);
        assert_eq!(c.erases(), 2);
    }
}
