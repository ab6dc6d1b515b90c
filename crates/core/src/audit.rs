//! Runtime invariant auditing.
//!
//! Both engines expose [`crate::KvEngine::check_invariants`], a single pass
//! over their in-DRAM metadata that verifies the structural invariants the
//! simulation's correctness rests on. Each structure audits its own
//! layout:
//!
//! * a level's shape, in either engine: its key-sorted array and the units
//!   that tile it, AnyKey's groups or PinK's meta segments
//!   ([`crate::level::Level::audit`]);
//! * the layouts of AnyKey's groups
//!   ([`crate::anykey::group::Group::audit`]);
//! * each flash area's per-block ledger: no block counts more live than
//!   an erase block holds ([`crate::ledger::Ledger::audit_overfull`]),
//!   and, in every area but PinK's data area, each count equals the one
//!   recounted from the index ([`crate::ledger::Ledger::recount`]);
//! * the DRAM claims ([`crate::dram::DramBudget::audit`]), against the
//!   engine's published [`crate::MetadataStats::dram_resident_bytes`];
//! * the flash counters' per-cause ledgers
//!   ([`anykey_flash::FlashCounters::audit`]).
//!
//! Each engine's `Engine::audit` runs these. This module keeps the ledger
//! both share, retirement: every block allocator's free/allocated/retired
//! partition sums to its block count, and no live structure (group,
//! logged value, meta segment, level-list page, or data pointer)
//! references a block retired as a grown bad block.
//!
//! The engines invoke the audit automatically at flush / compaction / GC
//! boundaries whenever debug assertions are on (`cargo test` and
//! `cargo run`), through the one `Engine::boundary_audit` hook;
//! `--release` builds pay nothing. There AnyKey audits the group layouts
//! reads have built and builds none, so test builds stay as lazy as
//! release; `check_invariants` builds every missing layout, then runs the
//! same audit. The corruption hooks at the bottom of this module exist
//! solely so the negative-path integration tests can prove each check
//! actually fires.

use std::error::Error;
use std::fmt;

use anykey_flash::{BlockAllocator, BlockId, CounterSkew};

use crate::anykey::group::LayoutFault;
use crate::anykey::level::Level;
use crate::anykey::AnyKeyStore;
use crate::pink::PinkStore;

/// A violated structural invariant, naming the structure and the observed
/// vs expected values. Each variant has a distinct diagnostic so a failing
/// audit immediately identifies which bookkeeping went wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditError {
    /// Adjacent groups or segments of a level are out of key order, or
    /// their key ranges overlap.
    LevelOrder {
        /// The level holding the offending pair.
        level: usize,
        /// Index of the first group/segment of the out-of-order pair.
        index: usize,
    },
    /// A group's key-sorted directory (or a segment's entry list) is not
    /// strictly sorted.
    DirectoryOrder {
        /// The level holding the group/segment.
        level: usize,
        /// The group/segment index within the level.
        group: usize,
    },
    /// A unit's level-list key, its level's first key for it, differs
    /// from the key of its first entry.
    FenceMismatch {
        /// The level holding the unit.
        level: usize,
        /// What the unit is: `"group"` or `"meta segment"`.
        unit: &'static str,
        /// The unit index within the level.
        index: usize,
    },
    /// A group's per-page first hashes, whose top 16 bits are the routing
    /// prefixes, differ from the hashes its pages start with, so
    /// [`crate::anykey::group::Group::lookup`] would misroute.
    RoutingOrder {
        /// The level holding the group.
        level: usize,
        /// The group index within the level.
        group: usize,
    },
    /// `metadata_used` does not equal the byte sum of the structures
    /// currently marked DRAM-resident.
    DramMismatch {
        /// The budget's claimed byte count.
        used: u64,
        /// The byte sum of the resident structures.
        expected: u64,
    },
    /// Resident metadata exceeds the metadata budget.
    DramOverBudget {
        /// The budget's claimed byte count.
        used: u64,
        /// The metadata budget (capacity minus write-buffer reservation).
        budget: u64,
    },
    /// A block's ledger counts more live than an erase block holds:
    /// valid bytes in a byte log (the value log, PinK's data area), valid
    /// pages in a page area (AnyKey's group area, PinK's meta area).
    BlockOverfull {
        /// Which area holds the block.
        owner: &'static str,
        /// The offending global block id.
        block: u32,
        /// The live count the block's ledger claims.
        live: u64,
        /// The live count an erase block actually holds.
        capacity: u64,
    },
    /// A block's ledger count differs from the one recounted from the
    /// index ([`crate::ledger::Ledger::recount`]).
    RecountSkew {
        /// Which area holds the block.
        owner: &'static str,
        /// The offending global block id.
        block: u32,
        /// The live count the block's ledger claims.
        ledger: u64,
        /// The live count the index references in the block.
        index: u64,
    },
    /// A flash per-cause counter ledger no longer sums to its independent
    /// total (see [`anykey_flash::FlashCounters::audit`]).
    CounterSkew {
        /// Which ledger diverged: `"reads"` or `"writes"`.
        ledger: &'static str,
        /// Sum over the per-cause entries.
        per_cause_sum: u64,
        /// The independently maintained grand total.
        total: u64,
    },
    /// A level's units (AnyKey's groups, PinK's meta segments) do not
    /// tile its entry array: a unit is empty, out of bounds, or does not
    /// start where the previous one ended, or the last one stops short of
    /// the array's end.
    UnitTiling {
        /// The level holding the unit.
        level: usize,
        /// What the unit is: `"group"` or `"meta segment"`.
        unit: &'static str,
        /// The unit index (the unit count when the array is not covered
        /// to its end).
        index: usize,
    },
    /// An AnyKey group's page starts decrease, do not start at 0, or do
    /// not end at its entity count.
    PageStartSkew {
        /// The level holding the group.
        level: usize,
        /// The group index within the level.
        group: usize,
    },
    /// An AnyKey group's slot index is not a permutation of its entities,
    /// or lists an entity in a data page other than the one it records.
    SlotIndexSkew {
        /// The level holding the group.
        level: usize,
        /// The group index within the level.
        group: usize,
    },
    /// An AnyKey group's hash list is not sorted or not exactly the hashes
    /// of its entities in slot order.
    HashListMismatch {
        /// The level holding the group.
        level: usize,
        /// The group index within the level.
        group: usize,
    },
    /// A live structure still references a block that was retired as a
    /// grown bad block.
    RetiredBlockLive {
        /// The retired block id.
        block: u32,
        /// Which region's metadata still references it.
        owner: &'static str,
    },
    /// A block allocator's free/allocated/retired partition no longer sums
    /// to its block count (see [`anykey_flash::BlockAllocator::audit`]).
    RetirementSkew {
        /// Which region's allocator diverged.
        owner: &'static str,
        /// Blocks in the free pool.
        free: usize,
        /// Blocks marked allocated.
        allocated: usize,
        /// Blocks marked retired.
        retired: usize,
        /// Total blocks the allocator manages.
        total: usize,
    },
}

/// Audits `alloc`'s free/allocated/retired partition, naming it `owner`,
/// then that no block in `live` is retired; `live` yields each live
/// structure's block with the owner its error names.
pub(crate) fn audit_retirement(
    alloc: &BlockAllocator,
    owner: &'static str,
    live: impl IntoIterator<Item = (BlockId, &'static str)>,
) -> Result<(), AuditError> {
    if let Err(s) = alloc.audit() {
        return Err(AuditError::RetirementSkew {
            owner,
            free: s.free,
            allocated: s.allocated,
            retired: s.retired,
            total: s.total,
        });
    }
    // Exact, not a skipped check: the partition audit already failed
    // unless the retired count equals the retired flags, so with none
    // counted no live block can be retired.
    if alloc.retired_count() == 0 {
        return Ok(());
    }
    match live.into_iter().find(|&(b, _)| alloc.is_retired(b)) {
        Some((block, owner)) => Err(AuditError::RetiredBlockLive {
            block: block.0,
            owner,
        }),
        None => Ok(()),
    }
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditError::LevelOrder { level, index } => write!(
                f,
                "level {level} is out of key order at index {index}: ranges must be sorted and disjoint"
            ),
            AuditError::DirectoryOrder { level, group } => write!(
                f,
                "group {group} of level {level} has an unsorted key directory"
            ),
            AuditError::FenceMismatch { level, unit, index } => write!(
                f,
                "{unit} {index} of level {level} has a level-list key that is not its first entry's key"
            ),
            AuditError::RoutingOrder { level, group } => write!(
                f,
                "group {group} of level {level} has unsorted page-routing hash prefixes"
            ),
            AuditError::DramMismatch { used, expected } => write!(
                f,
                "DRAM accounting skew: metadata_used is {used} but resident structures total {expected}"
            ),
            AuditError::DramOverBudget { used, budget } => write!(
                f,
                "DRAM over budget: metadata_used {used} exceeds the {budget}-byte metadata budget"
            ),
            AuditError::BlockOverfull {
                owner,
                block,
                live,
                capacity,
            } => write!(
                f,
                "{owner} block B{block} claims {live} live, beyond the {capacity} an erase block holds"
            ),
            AuditError::RecountSkew {
                owner,
                block,
                ledger,
                index,
            } => write!(
                f,
                "{owner} block B{block} has a ledger count of {ledger} but its index references {index}"
            ),
            AuditError::CounterSkew {
                ledger,
                per_cause_sum,
                total,
            } => write!(
                f,
                "flash {ledger} counter skew: per-cause sum {per_cause_sum} != independent total {total}"
            ),
            AuditError::UnitTiling { level, unit, index } => write!(
                f,
                "{unit} {index} of level {level} does not tile the level's entry array"
            ),
            AuditError::PageStartSkew { level, group } => write!(
                f,
                "group {group} of level {level} has page starts that decrease or miss its entity bounds"
            ),
            AuditError::SlotIndexSkew { level, group } => write!(
                f,
                "group {group} of level {level} has a slot index that is not a permutation of its entities or lists one outside its recorded data page"
            ),
            AuditError::HashListMismatch { level, group } => write!(
                f,
                "group {group} of level {level} has a hash list that is unsorted or differs from its entities' hashes"
            ),
            AuditError::RetiredBlockLive { block, owner } => write!(
                f,
                "retired block B{block} is still referenced by live {owner} metadata"
            ),
            AuditError::RetirementSkew {
                owner,
                free,
                allocated,
                retired,
                total,
            } => write!(
                f,
                "{owner} retirement accounting skew: free {free} + allocated {allocated} + retired {retired} != {total} total blocks"
            ),
        }
    }
}

impl Error for AuditError {}

impl From<CounterSkew> for AuditError {
    fn from(s: CounterSkew) -> Self {
        AuditError::CounterSkew {
            ledger: s.ledger,
            per_cause_sum: s.per_cause_sum,
            total: s.total,
        }
    }
}

impl AnyKeyStore {
    /// Test-only corruption hook: gives the last entity of the first
    /// group, in the first level holding at least two, the key of the
    /// second group's first entity, so the level's array no longer ascends
    /// across that group boundary. Returns whether a level with enough
    /// groups existed.
    #[doc(hidden)]
    pub fn corrupt_level_order_for_test(&mut self) -> bool {
        let level = self.levels.iter_mut().find(|l| l.units.len() >= 2);
        let seam = |l: &mut Level| l.ents[l.units[0].end - 1].id = l.firsts[1];
        level.map(seam).is_some()
    }

    /// Test-only corruption hook: sets the level-list key of the first
    /// group holding at least two entities to its largest key, so it no
    /// longer matches the group's directory. Returns whether such a group
    /// existed.
    #[doc(hidden)]
    pub fn corrupt_group_fence_for_test(&mut self) -> bool {
        let two = |l: &Level| l.units.iter().position(|g| g.entity_count() >= 2);
        let group = self.levels.iter_mut().find_map(|l| Some((two(l)?, l)));
        group
            .map(|(gi, l)| l.firsts[gi] = l.ents[l.units[gi].end - 1].id)
            .is_some()
    }

    /// Test-only corruption hook: ends the first group of the first level
    /// holding at least two one entity early, so the group records no
    /// longer tile the level's array. Returns whether such a level
    /// existed.
    #[doc(hidden)]
    pub fn corrupt_group_range_for_test(&mut self) -> bool {
        let level = self.levels.iter_mut().find(|l| l.units.len() >= 2);
        level.map(|l| l.units[0].end -= 1).is_some()
    }

    /// Test-only corruption hook: makes the first group's page starts end
    /// one entity short of its entity count. Returns whether a group
    /// existed.
    #[doc(hidden)]
    pub fn corrupt_page_start_for_test(&mut self) -> bool {
        self.corrupt_first_layout(LayoutFault::PageStart)
    }

    /// Test-only corruption hook: swaps the first slot of a group's first
    /// data page with the first slot after that page, so each slot lists
    /// an entity recorded in another page. Returns whether a group with
    /// slots in two pages existed.
    #[doc(hidden)]
    pub fn corrupt_slot_index_for_test(&mut self) -> bool {
        self.levels.iter_mut().any(|l| {
            let mut groups = l.units.iter_mut();
            groups.any(|g| g.corrupt_layout_for_test(&l.ents, LayoutFault::SlotIndex))
        })
    }

    /// Test-only corruption hook: changes the first hash-list entry of the
    /// first group so it no longer matches its entity. Returns whether a
    /// group existed.
    #[doc(hidden)]
    pub fn corrupt_hash_list_for_test(&mut self) -> bool {
        self.corrupt_first_layout(LayoutFault::HashList)
    }

    /// Test-only corruption hook: raises one data page's first hash by one
    /// in the first group, keeping the per-page first hashes sorted, so the
    /// routing prefix no longer matches the page's content. Returns whether
    /// the first group had a page whose first hash could rise.
    #[doc(hidden)]
    pub fn corrupt_routing_prefix_for_test(&mut self) -> bool {
        self.corrupt_first_layout(LayoutFault::RoutingPrefix)
    }

    /// Applies `fault` to the first group's layout; `false` when there is
    /// no group or the fault does not apply to it.
    fn corrupt_first_layout(&mut self, fault: LayoutFault) -> bool {
        let level = self.levels.iter_mut().find(|l| !l.is_empty());
        level.is_some_and(|l| l.units[0].corrupt_layout_for_test(&l.ents, fault))
    }

    /// Test-only corruption hook: over-claims the DRAM budget past both
    /// the resident-structure sum and the metadata budget.
    #[doc(hidden)]
    pub fn overclaim_dram_for_test(&mut self) {
        self.core.dram.metadata_used = self.core.dram.metadata_budget() + (1 << 20);
    }

    /// Test-only corruption hook: desynchronizes the flash counters' read
    /// total from its per-cause ledger (forwards to
    /// [`anykey_flash::FlashSim::desync_counters_for_test`]).
    #[doc(hidden)]
    pub fn desync_counters_for_test(&mut self) {
        self.core.flash.desync_counters_for_test();
    }

    /// Test-only corruption hook: retires the block backing the first live
    /// group without relocating it, leaving a live PPA pointing into a
    /// retired block. Returns whether a live group existed.
    #[doc(hidden)]
    pub fn retire_live_block_for_test(&mut self) -> bool {
        let group = self.levels.iter().find_map(|l| l.units.first());
        let victim = group.map(|g| g.first_ppa.block);
        victim.map(|b| self.group_alloc.retire(b)).is_some()
    }

    /// Test-only corruption hook: desynchronizes the group-area
    /// allocator's retired-block count from its per-block flags.
    #[doc(hidden)]
    pub fn desync_retirement_for_test(&mut self) {
        self.group_alloc.desync_retired_for_test();
    }

    /// Test-only corruption hook: lowers by one the live count of the
    /// first block that has any, in the value log's ledger if `log` and
    /// the store has one, else in the group area's. Returns whether such a
    /// block existed.
    #[doc(hidden)]
    pub fn skew_ledger_for_test(&mut self, log: bool) -> bool {
        let log = self.log.as_mut().filter(|_| log).map(|l| &mut l.ledger);
        log.unwrap_or(&mut self.area.ledger).skew_for_test()
    }
}

impl PinkStore {
    /// Test-only corruption hook: desynchronizes the flash counters (see
    /// [`AnyKeyStore::desync_counters_for_test`]).
    #[doc(hidden)]
    pub fn desync_counters_for_test(&mut self) {
        self.core.flash.desync_counters_for_test();
    }

    /// Test-only corruption hook: retires the data block of the first live
    /// entry without relocating it, leaving a live data pointer into a
    /// retired block. Returns whether a live entry existed.
    #[doc(hidden)]
    pub fn retire_live_block_for_test(&mut self) -> bool {
        let victim = self
            .levels
            .iter()
            .flat_map(|l| &l.run.ents)
            .find(|e| !e.tombstone)
            .map(|e| e.ptr.block);
        victim.map(|b| self.data.alloc.retire(b)).is_some()
    }

    /// Test-only corruption hook: desynchronizes the allocator's
    /// retired-block count from its per-block flags.
    #[doc(hidden)]
    pub fn desync_retirement_for_test(&mut self) {
        self.data.alloc.desync_retired_for_test();
    }

    /// Test-only corruption hook: lowers by one the live pages the meta
    /// area's ledger counts in its first block that has any. Returns
    /// whether such a block existed.
    #[doc(hidden)]
    pub fn skew_meta_ledger_for_test(&mut self) -> bool {
        self.meta.ledger.skew_for_test()
    }

    /// Test-only corruption hook: ends the first segment of the first level
    /// holding at least two one entry early, so the segments no longer
    /// tile the level's run. Returns whether such a level existed.
    #[doc(hidden)]
    pub fn corrupt_segment_range_for_test(&mut self) -> bool {
        let level = self.levels.iter_mut().find(|l| l.run.units.len() >= 2);
        level.map(|l| l.run.units[0].end -= 1).is_some()
    }

    /// Test-only corruption hook: sets the level-list key of the first
    /// segment holding at least two entries to its second entry's key, as
    /// if the first entry had left without the level list noticing.
    /// Returns whether such a segment existed.
    #[doc(hidden)]
    pub fn corrupt_segment_fence_for_test(&mut self) -> bool {
        let seg = self.levels.iter_mut().find_map(|l| {
            let l = &mut l.run;
            let si = l.units.iter().position(|s| s.end - s.start >= 2)?;
            Some((si, l))
        });
        seg.map(|(si, l)| l.firsts[si] = l.ents[l.units[si].start + 1].id)
            .is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DeviceConfig, EngineKind};
    use crate::ledger::Ledger;
    use crate::KvEngine;

    fn store(kind: EngineKind) -> AnyKeyStore {
        AnyKeyStore::new(
            DeviceConfig::builder()
                .capacity_bytes(64 << 20)
                .engine(kind)
                .key_len(16)
                .build(),
        )
    }

    fn filled(kind: EngineKind) -> AnyKeyStore {
        let mut s = store(kind);
        for id in 0..30_000u64 {
            s.put(id, 60).unwrap();
        }
        s
    }

    fn filled_pink() -> PinkStore {
        filled_pink_with((64 << 20) / 1024) // the builder's default
    }

    fn filled_pink_with(dram_bytes: u64) -> PinkStore {
        let mut p = PinkStore::new(
            DeviceConfig::builder()
                .capacity_bytes(64 << 20)
                .engine(EngineKind::Pink)
                .key_len(16)
                .dram_bytes(dram_bytes)
                .build(),
        );
        for id in 0..30_000u64 {
            p.put(id, 60).unwrap();
        }
        p
    }

    #[test]
    fn fresh_store_passes_audit() {
        assert_eq!(store(EngineKind::AnyKey).check_invariants(), Ok(()));
    }

    #[test]
    fn filled_store_passes_audit() {
        let s = filled(EngineKind::AnyKeyPlus);
        assert!(s.levels.iter().any(|l| !l.is_empty()), "data must land");
        assert_eq!(s.check_invariants(), Ok(()));
    }

    #[test]
    fn level_order_corruption_is_detected() {
        let mut s = filled(EngineKind::AnyKey);
        assert!(s.corrupt_level_order_for_test(), "need >= 2 groups");
        assert!(matches!(
            s.check_invariants(),
            Err(AuditError::LevelOrder { .. })
        ));
    }

    #[test]
    fn dram_overclaim_is_detected() {
        let mut s = filled(EngineKind::AnyKey);
        s.overclaim_dram_for_test();
        assert!(matches!(
            s.check_invariants(),
            Err(AuditError::DramMismatch { .. } | AuditError::DramOverBudget { .. })
        ));
    }

    #[test]
    fn counter_desync_is_detected() {
        let mut s = filled(EngineKind::AnyKey);
        s.desync_counters_for_test();
        assert!(matches!(
            s.check_invariants(),
            Err(AuditError::CounterSkew { .. })
        ));
    }

    #[test]
    fn retired_block_with_live_group_is_detected() {
        let mut s = filled(EngineKind::AnyKey);
        assert!(s.retire_live_block_for_test(), "need a live group");
        assert!(matches!(
            s.check_invariants(),
            Err(AuditError::RetiredBlockLive {
                owner: "group area",
                ..
            })
        ));
    }

    #[test]
    fn retiring_an_unused_block_keeps_the_audit_clean() {
        // Each allocator counts a retired block, so the audit walks every
        // live structure and must find none in it.
        let mut s = filled(EngineKind::AnyKeyPlus);
        for alloc in [&mut s.group_alloc, &mut s.log.as_mut().unwrap().alloc] {
            let b = alloc.alloc().unwrap();
            alloc.retire(b).unwrap();
        }
        assert_eq!(s.check_invariants(), Ok(()));
        let mut p = filled_pink();
        let alloc = &mut p.data.alloc;
        let b = alloc.alloc().unwrap();
        alloc.retire(b).unwrap();
        assert_eq!(alloc.retired_count(), 1);
        assert_eq!(p.check_invariants(), Ok(()));
    }

    #[test]
    fn retired_blocks_with_spilled_pink_metadata_are_detected() {
        // A 2 KiB DRAM spills every meta segment and the deeper level
        // list. Each level walks its list pages before its segments, so
        // the segment's block must hold no list page.
        let spilled = |p: &PinkStore, owner| {
            let lists = || p.levels.iter().flat_map(|l| &l.list_pages);
            let segs = p
                .levels
                .iter()
                .flat_map(|l| &l.run.units)
                .filter_map(|s| s.ppa);
            match owner {
                "meta segment" => segs
                    .map(|x| x.block)
                    .find(|&b| lists().all(|x| x.block != b)),
                _ => lists().map(|x| x.block).next(),
            }
        };
        for owner in ["meta segment", "level list"] {
            let mut p = filled_pink_with(2 << 10);
            let b = spilled(&p, owner).expect("the fill must spill");
            p.data.alloc.retire(b).unwrap();
            assert_eq!(
                p.check_invariants(),
                Err(AuditError::RetiredBlockLive { block: b.0, owner })
            );
        }
    }

    #[test]
    fn retirement_desync_is_detected() {
        let mut s = filled(EngineKind::AnyKey);
        s.desync_retirement_for_test();
        assert!(matches!(
            s.check_invariants(),
            Err(AuditError::RetirementSkew { .. })
        ));
    }

    /// Credits the ledger's first tracked block with more than an erase
    /// block holds. Returns whether the ledger tracked a block.
    fn overfill(l: &mut Ledger) -> bool {
        (0..1 << 16).any(|b| l.credit(BlockId(b), 0, 1 << 40).is_ok())
    }

    #[test]
    fn overfull_blocks_are_detected() {
        let mut s = filled(EngineKind::AnyKey);
        assert!(overfill(&mut s.area.ledger), "need a group block");
        assert!(matches!(
            s.check_invariants(),
            Err(AuditError::BlockOverfull {
                owner: "group area",
                ..
            })
        ));
        // The value log is audited before the group area.
        assert!(s.log.as_mut().is_some_and(|l| overfill(&mut l.ledger)));
        assert!(matches!(
            s.check_invariants(),
            Err(AuditError::BlockOverfull {
                owner: "value log",
                ..
            })
        ));
    }

    #[test]
    fn pink_overfull_data_block_is_detected() {
        let mut p = filled_pink();
        assert!(overfill(&mut p.data.ledger), "need a data block");
        assert!(matches!(
            p.check_invariants(),
            Err(AuditError::BlockOverfull {
                owner: "data area",
                ..
            })
        ));
    }

    #[test]
    fn pink_overfull_meta_block_is_detected() {
        let mut p = filled_pink();
        assert!(overfill(&mut p.meta.ledger), "need a meta block");
        assert!(matches!(
            p.check_invariants(),
            Err(AuditError::BlockOverfull {
                owner: "meta area",
                ..
            })
        ));
    }

    #[test]
    fn pink_passes_audit_after_fill() {
        let mut p = filled_pink();
        assert_eq!(p.check_invariants(), Ok(()));
        p.desync_counters_for_test();
        assert!(matches!(
            p.check_invariants(),
            Err(AuditError::CounterSkew { .. })
        ));
    }

    #[test]
    fn audit_errors_have_distinct_diagnostics() {
        let msgs = [
            AuditError::LevelOrder { level: 1, index: 0 }.to_string(),
            AuditError::DramOverBudget {
                used: 10,
                budget: 5,
            }
            .to_string(),
            AuditError::CounterSkew {
                ledger: "reads",
                per_cause_sum: 3,
                total: 4,
            }
            .to_string(),
            AuditError::RetiredBlockLive {
                block: 7,
                owner: "group area",
            }
            .to_string(),
            AuditError::RetirementSkew {
                owner: "PinK",
                free: 1,
                allocated: 2,
                retired: 3,
                total: 7,
            }
            .to_string(),
            AuditError::UnitTiling {
                level: 1,
                unit: "meta segment",
                index: 0,
            }
            .to_string(),
            AuditError::PageStartSkew { level: 1, group: 0 }.to_string(),
            AuditError::HashListMismatch { level: 1, group: 0 }.to_string(),
            AuditError::FenceMismatch {
                level: 1,
                unit: "meta segment",
                index: 0,
            }
            .to_string(),
            AuditError::FenceMismatch {
                level: 1,
                unit: "group",
                index: 0,
            }
            .to_string(),
            AuditError::UnitTiling {
                level: 1,
                unit: "group",
                index: 0,
            }
            .to_string(),
        ];
        assert!(msgs[0].contains("key order"));
        assert!(msgs[1].contains("over budget"));
        assert!(msgs[2].contains("counter skew"));
        assert!(msgs[3].contains("retired block B7"));
        assert!(msgs[4].contains("retirement accounting skew"));
        assert!(msgs[5].starts_with("meta segment 0") && msgs[5].contains("does not tile"));
        assert!(msgs[6].contains("page starts"));
        assert!(msgs[7].contains("hash list"));
        assert!(msgs[8].starts_with("meta segment 0") && msgs[8].contains("level-list key"));
        assert!(msgs[9].starts_with("group 0") && msgs[9].contains("first entry's key"));
        assert!(msgs[10].starts_with("group 0") && msgs[10].contains("entry array"));
        for i in 0..msgs.len() {
            for j in i + 1..msgs.len() {
                assert_ne!(msgs[i], msgs[j]);
            }
        }
    }
}
