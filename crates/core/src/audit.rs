//! Runtime invariant auditing.
//!
//! Both engines expose [`crate::KvEngine::check_invariants`], a single pass
//! over their in-DRAM metadata that verifies the structural invariants the
//! simulation's correctness rests on. Each structure audits its own
//! layout:
//!
//! * an AnyKey group ([`crate::anykey::group::GroupContent::audit`]) and
//!   level ([`crate::anykey::level::Level::audit`]);
//! * a PinK level and its meta segments
//!   ([`crate::pink::PinkLevel::audit`]);
//! * a byte log's and a page area's per-block counts
//!   ([`crate::bytelog::ByteLog::audit_overfull`],
//!   [`crate::pagearea::PageArea::audit_overfull`]);
//! * the DRAM claims ([`crate::dram::DramBudget::audit`]), against the
//!   engine's published [`crate::MetadataStats::dram_resident_bytes`];
//! * the flash counters' per-cause ledgers
//!   ([`anykey_flash::FlashCounters::audit`]).
//!
//! Each engine's `Engine::audit` runs these and its own cross-structure
//! ledgers (AnyKey's value-log live bytes against the logged bytes the
//! levels reference). This module keeps the ledger both share,
//! retirement: every block allocator's free/allocated/retired partition
//! sums to its block count, and no live structure (group, logged value,
//! meta segment, level-list page, or data pointer) references a block
//! retired as a grown bad block.
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
    /// A group's cached smallest/largest key (its level-list fences) differ
    /// from the first/last key of its directory.
    FenceMismatch {
        /// The level holding the group.
        level: usize,
        /// The group index within the level.
        group: usize,
    },
    /// A group's per-page first hashes, whose top 16 bits are the routing
    /// prefixes, differ from the hashes its pages start with, so
    /// [`crate::anykey::group::GroupContent::lookup`] would misroute.
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
    /// The value log's live bytes diverged from the logged bytes the
    /// levels reference.
    LogBytesMismatch {
        /// Live bytes tracked by the value log.
        log: u64,
        /// Logged bytes summed over the levels' groups.
        levels: u64,
    },
    /// A block of a byte log (the value log or PinK's data area) claims
    /// more valid bytes than an erase block holds.
    LogBlockOverfull {
        /// Which byte log holds the block.
        owner: &'static str,
        /// The offending global block id.
        block: u32,
        /// Valid bytes the block claims.
        valid: u64,
        /// Payload bytes an erase block actually holds.
        payload: u64,
    },
    /// A block of a page area (AnyKey's group area or PinK's meta area)
    /// claims more valid pages than an erase block holds.
    BlockOverfull {
        /// Which page area holds the block.
        owner: &'static str,
        /// The offending global block id.
        block: u32,
        /// Valid pages the block claims.
        pages: u32,
        /// Pages an erase block actually holds.
        pages_per_block: u32,
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
    /// A PinK level's meta segments do not tile its entry run: a segment
    /// is empty, out of bounds, or does not start where the previous one
    /// ended, or the last one stops short of the run's end.
    SegmentTiling {
        /// The level holding the segment.
        level: usize,
        /// The segment index (the segment count when the run is not
        /// covered to its end).
        segment: usize,
    },
    /// A PinK meta segment's cached first key (its level-list key)
    /// differs from the key of its first entry.
    SegmentFence {
        /// The level holding the segment.
        level: usize,
        /// The segment index within the level.
        segment: usize,
    },
    /// A PinK meta segment's cached byte count differs from the bytes of
    /// its entries.
    SegmentBytes {
        /// The level holding the segment.
        level: usize,
        /// The segment index within the level.
        segment: usize,
        /// The cached byte count.
        cached: u64,
        /// The byte sum of the segment's entries.
        actual: u64,
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
            AuditError::FenceMismatch { level, group } => write!(
                f,
                "group {group} of level {level} has cached key fences that differ from its directory's first and last keys"
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
            AuditError::LogBytesMismatch { log, levels } => write!(
                f,
                "value-log live bytes {log} diverged from the {levels} logged bytes the levels reference"
            ),
            AuditError::LogBlockOverfull {
                owner,
                block,
                valid,
                payload,
            } => write!(
                f,
                "{owner} block B{block} claims {valid} valid bytes, beyond its {payload}-byte payload"
            ),
            AuditError::BlockOverfull {
                owner,
                block,
                pages,
                pages_per_block,
            } => write!(
                f,
                "{owner} block B{block} claims {pages} valid pages, beyond the {pages_per_block} an erase block holds"
            ),
            AuditError::CounterSkew {
                ledger,
                per_cause_sum,
                total,
            } => write!(
                f,
                "flash {ledger} counter skew: per-cause sum {per_cause_sum} != independent total {total}"
            ),
            AuditError::SegmentTiling { level, segment } => write!(
                f,
                "meta segment {segment} of level {level} does not tile the level's entry run"
            ),
            AuditError::SegmentFence { level, segment } => write!(
                f,
                "meta segment {segment} of level {level} has a level-list key that is not its first entry's key"
            ),
            AuditError::SegmentBytes {
                level,
                segment,
                cached,
                actual,
            } => write!(
                f,
                "meta segment {segment} of level {level} caches {cached} bytes but its entries hold {actual}"
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
    /// Test-only corruption hook: swaps the first two groups of the first
    /// level holding at least two, breaking the level-list key order.
    /// Returns whether a level with enough groups existed.
    #[doc(hidden)]
    pub fn corrupt_level_order_for_test(&mut self) -> bool {
        let level = self.levels.iter_mut().find(|l| l.groups.len() >= 2);
        level.map(|l| l.groups.swap(0, 1)).is_some()
    }

    /// Test-only corruption hook: sets the cached smallest key of the first
    /// group holding at least two entities to its largest key, so the
    /// level-list fence no longer matches the group's directory. Returns
    /// whether such a group existed.
    #[doc(hidden)]
    pub fn corrupt_group_fence_for_test(&mut self) -> bool {
        for level in &mut self.levels {
            if let Some(g) = level
                .groups
                .iter_mut()
                .find(|g| g.content.entity_count() >= 2)
            {
                g.content.smallest = g.content.largest;
                return true;
            }
        }
        false
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
        self.levels
            .iter_mut()
            .flat_map(|l| l.groups.iter_mut())
            .any(|g| g.content.corrupt_layout_for_test(LayoutFault::SlotIndex))
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
        let group = self.levels.iter_mut().find_map(|l| l.groups.first_mut());
        group.is_some_and(|g| g.content.corrupt_layout_for_test(fault))
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
        let group = self.levels.iter().find_map(|l| l.groups.first());
        let victim = group.map(|g| g.first_ppa.block);
        victim.map(|b| self.group_alloc.retire(b)).is_some()
    }

    /// Test-only corruption hook: desynchronizes the group-area
    /// allocator's retired-block count from its per-block flags.
    #[doc(hidden)]
    pub fn desync_retirement_for_test(&mut self) {
        self.group_alloc.desync_retired_for_test();
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
            .flat_map(|l| &l.entries)
            .find(|e| !e.tombstone)
            .map(|e| e.ptr.block);
        victim
            .map(|b| self.data.allocator_mut().retire(b))
            .is_some()
    }

    /// Test-only corruption hook: desynchronizes the allocator's
    /// retired-block count from its per-block flags.
    #[doc(hidden)]
    pub fn desync_retirement_for_test(&mut self) {
        self.data.allocator_mut().desync_retired_for_test();
    }

    /// Test-only corruption hook: ends the first segment of the first level
    /// holding at least two one entry early, so the segments no longer
    /// tile the level's run. Returns whether such a level existed.
    #[doc(hidden)]
    pub fn corrupt_segment_range_for_test(&mut self) -> bool {
        let level = self.levels.iter_mut().find(|l| l.segs.len() >= 2);
        level.map(|l| l.segs[0].end -= 1).is_some()
    }

    /// Test-only corruption hook: sets the cached first key of the first
    /// segment holding at least two entries to its second entry's key, as
    /// if the first entry had left without the level list noticing.
    /// Returns whether such a segment existed.
    #[doc(hidden)]
    pub fn corrupt_segment_fence_for_test(&mut self) -> bool {
        let seg = self.levels.iter_mut().find_map(|l| {
            let s = l.segs.iter_mut().find(|s| s.end - s.start >= 2)?;
            let second = l.entries[s.start + 1].id;
            Some((s, second))
        });
        seg.map(|(s, second)| s.first = second).is_some()
    }

    /// Test-only corruption hook: inflates the cached byte count of the
    /// first segment. Returns whether a segment existed.
    #[doc(hidden)]
    pub fn corrupt_segment_bytes_for_test(&mut self) -> bool {
        let seg = self.levels.iter_mut().find_map(|l| l.segs.first_mut());
        seg.map(|s| s.bytes += 1).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytelog::ByteLog;
    use crate::config::{DeviceConfig, EngineKind};
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
        for alloc in [&mut s.group_alloc, s.log.as_mut().unwrap().allocator_mut()] {
            let b = alloc.alloc().unwrap();
            alloc.retire(b).unwrap();
        }
        assert_eq!(s.check_invariants(), Ok(()));
        let mut p = filled_pink();
        let alloc = p.data.allocator_mut();
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
            let segs = p.levels.iter().flat_map(|l| &l.segs).filter_map(|s| s.ppa);
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
            p.data.allocator_mut().retire(b).unwrap();
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

    #[test]
    fn overfull_blocks_are_detected() {
        let mut s = filled(EngineKind::AnyKey);
        assert!(s.area.overfill_for_test(), "need a group block");
        assert!(matches!(
            s.check_invariants(),
            Err(AuditError::BlockOverfull {
                owner: "group area",
                ..
            })
        ));
        // The value log is audited before the group area.
        assert!(s.log.as_mut().is_some_and(ByteLog::overfill_for_test));
        assert!(matches!(
            s.check_invariants(),
            Err(AuditError::LogBlockOverfull {
                owner: "value log",
                ..
            })
        ));
    }

    #[test]
    fn pink_overfull_data_block_is_detected() {
        let mut p = filled_pink();
        assert!(p.data.overfill_for_test(), "need a data block");
        assert!(matches!(
            p.check_invariants(),
            Err(AuditError::LogBlockOverfull {
                owner: "data area",
                ..
            })
        ));
    }

    #[test]
    fn pink_overfull_meta_block_is_detected() {
        let mut p = filled_pink();
        assert!(p.meta.overfill_for_test(), "need a meta block");
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
            AuditError::SegmentTiling {
                level: 1,
                segment: 0,
            }
            .to_string(),
            AuditError::SegmentBytes {
                level: 1,
                segment: 0,
                cached: 9,
                actual: 8,
            }
            .to_string(),
            AuditError::PageStartSkew { level: 1, group: 0 }.to_string(),
            AuditError::HashListMismatch { level: 1, group: 0 }.to_string(),
            AuditError::SegmentFence {
                level: 1,
                segment: 0,
            }
            .to_string(),
            AuditError::FenceMismatch { level: 1, group: 0 }.to_string(),
        ];
        assert!(msgs[0].contains("key order"));
        assert!(msgs[1].contains("over budget"));
        assert!(msgs[2].contains("counter skew"));
        assert!(msgs[3].contains("retired block B7"));
        assert!(msgs[4].contains("retirement accounting skew"));
        assert!(msgs[5].contains("does not tile"));
        assert!(msgs[6].contains("caches 9 bytes"));
        assert!(msgs[7].contains("page starts"));
        assert!(msgs[8].contains("hash list"));
        assert!(msgs[9].contains("level-list key"));
        assert!(msgs[10].contains("key fences"));
        for i in 0..msgs.len() {
            for j in i + 1..msgs.len() {
                assert_ne!(msgs[i], msgs[j]);
            }
        }
    }
}
