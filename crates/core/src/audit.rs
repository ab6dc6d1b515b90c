//! Runtime invariant auditing.
//!
//! Both engines expose [`crate::KvEngine::check_invariants`], a single pass
//! over their in-DRAM metadata that verifies the structural invariants the
//! simulation's correctness rests on:
//!
//! * **Level ordering** — groups (AnyKey) and meta segments (PinK) within a
//!   level are key-sorted with disjoint ranges, every group directory /
//!   segment entry list is itself sorted, and each group's cached
//!   smallest/largest key matches its directory.
//! * **Flat runs** — a PinK level's meta segments tile its one entry run
//!   in order, each non-empty and caching its exact byte count; an AnyKey
//!   group's page starts rise to its entity count, its slot index is a
//!   permutation of its key-ordered entities that lists each in the data
//!   page it records, and its hash list is sorted and exactly the slots'
//!   hashes (GET's page search goes through it).
//! * **DRAM conservation** — [`crate::dram::DramBudget::metadata_used`]
//!   equals the byte sum of the structures currently marked DRAM-resident
//!   and never exceeds the metadata budget.
//! * **Value-log accounting** — the log's live bytes equal the logged bytes
//!   referenced by the levels, and no block of the value log or of PinK's
//!   data area claims more valid bytes than an erase block holds.
//! * **Counter conservation** — the flash counters' per-cause ledgers sum
//!   to their independent totals ([`anykey_flash::FlashCounters::audit`]).
//! * **Block accounting** — no block of AnyKey's group area or PinK's
//!   meta area claims more valid pages than an erase block holds.
//! * **Retirement accounting** — every block allocator's
//!   free/allocated/retired partition sums to its block count, and no live
//!   structure (group, logged value, meta segment, level-list page, or
//!   data pointer) references a block retired as a grown bad block.
//!
//! The engines invoke the audit automatically at flush / compaction / GC
//! boundaries whenever debug assertions are on (`cargo test` and
//! `cargo run`); `--release` builds pay nothing. The corruption hooks at
//! the bottom of this module exist solely so the negative-path integration
//! tests can prove each check actually fires.

use std::error::Error;
use std::fmt;

use anykey_flash::CounterSkew;

use crate::anykey::group::GroupContent;
use crate::anykey::level::Level;
use crate::anykey::AnyKeyStore;
use crate::pink::segment::SegEntry;
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
    /// A group's per-page 16-bit routing hash prefixes are not sorted, so
    /// [`crate::anykey::group::GroupContent::route_page`] would misroute.
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
    /// A structure marked as spilled to flash has no flash location.
    MissingSpillLocation {
        /// The level holding the structure.
        level: usize,
        /// The structure's index within the level.
        index: usize,
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

/// Whether a group's slot index is a permutation of its entities that
/// lists each entity in the data page `page_of` records for it. Assumes
/// the page starts rise from 0 to the entity count.
fn slot_index_holds(g: &GroupContent) -> bool {
    let n = g.ents.len();
    if g.slots.len() != n || g.page_of.len() != n {
        return false;
    }
    let mut seen = vec![false; n];
    (0..g.data_pages() as usize).all(|p| {
        g.page(p).iter().all(|&i| {
            let i = i as usize;
            i < n && !std::mem::replace(&mut seen[i], true) && usize::from(g.page_of[i]) == p
        })
    })
}

/// Wraps an allocator's [`anykey_flash::AllocSkew`] with its owning region.
fn retirement_skew(owner: &'static str, s: anykey_flash::AllocSkew) -> AuditError {
    AuditError::RetirementSkew {
        owner,
        free: s.free,
        allocated: s.allocated,
        retired: s.retired,
        total: s.total,
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
            AuditError::MissingSpillLocation { level, index } => write!(
                f,
                "spilled structure {index} of level {level} has no flash location"
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
    /// Audits every structural invariant of the store; see the
    /// [module docs](crate::audit) for the list.
    ///
    /// # Errors
    ///
    /// Returns the first [`AuditError`] found.
    pub fn verify_invariants(&self) -> Result<(), AuditError> {
        // Per-group structure, then level-list ordering over the cached
        // fences the structure check vouches for.
        for (li, level) in self.levels.iter().enumerate() {
            for (gi, g) in level.groups.iter().enumerate() {
                // The flat layout first: the slot and hash-list checks
                // index entities through the page starts.
                let (ents, starts) = (&g.content.ents, &g.content.page_start);
                if starts.first() != Some(&0)
                    || starts.last().map(|&e| e as usize) != Some(ents.len())
                    || starts.windows(2).any(|w| w[0] > w[1])
                {
                    return Err(AuditError::PageStartSkew {
                        level: li,
                        group: gi,
                    });
                }
                if !slot_index_holds(&g.content) {
                    return Err(AuditError::SlotIndexSkew {
                        level: li,
                        group: gi,
                    });
                }
                let hashes = &g.content.hashes;
                if hashes.len() != ents.len()
                    || hashes.windows(2).any(|w| w[0] > w[1])
                    || hashes
                        .iter()
                        .zip(&g.content.slots)
                        .any(|(&h, &i)| h != ents[i as usize].hash)
                {
                    return Err(AuditError::HashListMismatch {
                        level: li,
                        group: gi,
                    });
                }
                let mut prev = None;
                for e in g.content.iter_key_order() {
                    if prev.is_some_and(|p| p >= e.key) {
                        return Err(AuditError::DirectoryOrder {
                            level: li,
                            group: gi,
                        });
                    }
                    prev = Some(e.key);
                }
                let first = g.content.iter_key_order().next().map(|e| e.key);
                if first != Some(g.content.smallest()) || prev != Some(g.content.largest()) {
                    return Err(AuditError::FenceMismatch {
                        level: li,
                        group: gi,
                    });
                }
                if g.content.page_first_hash16.windows(2).any(|w| w[0] > w[1]) {
                    return Err(AuditError::RoutingOrder {
                        level: li,
                        group: gi,
                    });
                }
            }
            for (gi, w) in level.groups.windows(2).enumerate() {
                if w[0].content.largest() >= w[1].content.smallest() {
                    return Err(AuditError::LevelOrder {
                        level: li,
                        index: gi,
                    });
                }
            }
        }

        // DRAM budget conservation: what rebalance_dram claimed must equal
        // what is actually marked resident.
        let expected = if self.level_list_overflowed() {
            self.core.dram.metadata_budget()
        } else {
            let lists: u64 = self.levels.iter().map(Level::meta_bytes).sum();
            let hash_lists: u64 = self
                .levels
                .iter()
                .flat_map(|l| l.groups.iter())
                .filter(|g| g.hash_list_resident)
                .map(|g| g.content.hash_list_bytes())
                .sum();
            lists + hash_lists
        };
        if self.core.dram.metadata_used != expected {
            return Err(AuditError::DramMismatch {
                used: self.core.dram.metadata_used,
                expected,
            });
        }
        if self.core.dram.metadata_used > self.core.dram.metadata_budget() {
            return Err(AuditError::DramOverBudget {
                used: self.core.dram.metadata_used,
                budget: self.core.dram.metadata_budget(),
            });
        }

        // Value-log live-byte conservation.
        if let Some(log) = &self.log {
            log.audit_overfull("value log")?;
            let referenced: u64 = self.levels.iter().map(|l| l.logged_bytes).sum();
            if log.valid_bytes() != referenced {
                return Err(AuditError::LogBytesMismatch {
                    log: log.valid_bytes(),
                    levels: referenced,
                });
            }
        }

        // Group-area block accounting.
        self.area.audit_overfull()?;

        // Retirement accounting: allocator partitions conserve, and no
        // live group or logged value sits in a retired block.
        if let Err(s) = self.group_alloc.audit() {
            return Err(retirement_skew("group area", s));
        }
        for level in &self.levels {
            for g in &level.groups {
                for ppa in g.all_ppas() {
                    if self.group_alloc.is_retired(ppa.block) {
                        return Err(AuditError::RetiredBlockLive {
                            block: ppa.block.0,
                            owner: "group area",
                        });
                    }
                }
            }
        }
        if let Some(log) = &self.log {
            if let Err(s) = log.allocator().audit() {
                return Err(retirement_skew("value log", s));
            }
            for level in &self.levels {
                for g in &level.groups {
                    for e in g.content.iter_key_order() {
                        if let crate::anykey::entity::ValueLoc::Logged(ptr) = e.loc {
                            if log.allocator().is_retired(ptr.block) {
                                return Err(AuditError::RetiredBlockLive {
                                    block: ptr.block.0,
                                    owner: "value log",
                                });
                            }
                        }
                    }
                }
            }
        }

        // Cause-tagged flash counter conservation.
        self.core.flash.counters().audit()?;
        Ok(())
    }

    /// Test-only corruption hook: swaps the first two groups of the first
    /// level holding at least two, breaking the level-list key order.
    /// Returns whether a level with enough groups existed.
    #[doc(hidden)]
    pub fn corrupt_level_order_for_test(&mut self) -> bool {
        for level in &mut self.levels {
            if level.groups.len() >= 2 {
                level.groups.swap(0, 1);
                return true;
            }
        }
        false
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
        match self.levels.iter_mut().find_map(|l| l.groups.first_mut()) {
            Some(g) => {
                if let Some(end) = g.content.page_start.last_mut() {
                    *end -= 1;
                }
                true
            }
            None => false,
        }
    }

    /// Test-only corruption hook: swaps the first slot of a group's first
    /// data page with the first slot after that page, so each slot lists
    /// an entity recorded in another page. Returns whether a group with
    /// slots in two pages existed.
    #[doc(hidden)]
    pub fn corrupt_slot_index_for_test(&mut self) -> bool {
        for g in self.levels.iter_mut().flat_map(|l| l.groups.iter_mut()) {
            let c = &mut g.content;
            let next = c.page_start[1] as usize;
            if next < c.slots.len() {
                c.slots.swap(0, next);
                return true;
            }
        }
        false
    }

    /// Test-only corruption hook: changes the first hash-list entry of the
    /// first group so it no longer matches its entity. Returns whether a
    /// group existed.
    #[doc(hidden)]
    pub fn corrupt_hash_list_for_test(&mut self) -> bool {
        match self.levels.iter_mut().find_map(|l| l.groups.first_mut()) {
            Some(g) => {
                g.content.hashes[0] ^= 1;
                true
            }
            None => false,
        }
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
        let mut victim = None;
        for level in &self.levels {
            if let Some(g) = level.groups.first() {
                victim = Some(g.first_ppa.block);
                break;
            }
        }
        match victim {
            Some(b) => {
                let _ = self.group_alloc.retire(b);
                true
            }
            None => false,
        }
    }

    /// Test-only corruption hook: desynchronizes the group-area
    /// allocator's retired-block count from its per-block flags.
    #[doc(hidden)]
    pub fn desync_retirement_for_test(&mut self) {
        self.group_alloc.desync_retired_for_test();
    }
}

impl PinkStore {
    /// Audits every structural invariant of the store; see the
    /// [module docs](crate::audit) for the list.
    ///
    /// # Errors
    ///
    /// Returns the first [`AuditError`] found.
    pub fn verify_invariants(&self) -> Result<(), AuditError> {
        // Segment tiling and cached bytes, level ordering, per-segment
        // sortedness and spill locations.
        for (li, level) in self.levels.iter().enumerate() {
            let mut next = 0usize;
            for (si, seg) in level.segs.iter().enumerate() {
                if seg.start != next || seg.end <= seg.start || seg.end > level.entries.len() {
                    return Err(AuditError::SegmentTiling {
                        level: li,
                        segment: si,
                    });
                }
                next = seg.end;
            }
            if next != level.entries.len() {
                return Err(AuditError::SegmentTiling {
                    level: li,
                    segment: level.segs.len(),
                });
            }
            for (si, w) in level.segs.windows(2).enumerate() {
                if level.entries[w[0].end - 1].key >= level.entries[w[1].start].key {
                    return Err(AuditError::LevelOrder {
                        level: li,
                        index: si,
                    });
                }
            }
            for (si, seg) in level.segs.iter().enumerate() {
                let entries = seg.entries(&level.entries);
                let actual = entries.iter().map(SegEntry::seg_bytes).sum();
                if seg.bytes != actual {
                    return Err(AuditError::SegmentBytes {
                        level: li,
                        segment: si,
                        cached: seg.bytes,
                        actual,
                    });
                }
                if entries.windows(2).any(|w| w[0].key >= w[1].key) {
                    return Err(AuditError::DirectoryOrder {
                        level: li,
                        group: si,
                    });
                }
                if !seg.resident && seg.ppa.is_none() {
                    return Err(AuditError::MissingSpillLocation {
                        level: li,
                        index: si,
                    });
                }
            }
            if !level.list_resident && !level.is_empty() && level.list_pages.is_empty() {
                return Err(AuditError::MissingSpillLocation {
                    level: li,
                    index: usize::MAX,
                });
            }
        }

        // DRAM budget conservation, mirroring `rebalance`: resident level
        // lists first, then resident meta segments.
        let mut expected = 0u64;
        for level in &self.levels {
            if level.list_resident {
                expected += level.list_bytes();
            }
            for seg in &level.segs {
                if seg.resident {
                    expected += seg.bytes();
                }
            }
        }
        if self.core.dram.metadata_used != expected {
            return Err(AuditError::DramMismatch {
                used: self.core.dram.metadata_used,
                expected,
            });
        }
        if self.core.dram.metadata_used > self.core.dram.metadata_budget() {
            return Err(AuditError::DramOverBudget {
                used: self.core.dram.metadata_used,
                budget: self.core.dram.metadata_budget(),
            });
        }

        self.data.audit_overfull("data area")?;
        self.meta.audit_overfull()?;

        // Retirement accounting: the allocator partition conserves, and no
        // live data pointer, meta segment, or level-list page sits in a
        // retired block.
        let alloc = self.data.allocator();
        if let Err(s) = alloc.audit() {
            return Err(retirement_skew("PinK", s));
        }
        for level in &self.levels {
            for ppa in &level.list_pages {
                if alloc.is_retired(ppa.block) {
                    return Err(AuditError::RetiredBlockLive {
                        block: ppa.block.0,
                        owner: "level list",
                    });
                }
            }
            for seg in &level.segs {
                if let Some(ppa) = seg.ppa {
                    if alloc.is_retired(ppa.block) {
                        return Err(AuditError::RetiredBlockLive {
                            block: ppa.block.0,
                            owner: "meta segment",
                        });
                    }
                }
            }
            for e in &level.entries {
                if !e.tombstone && alloc.is_retired(e.ptr.block) {
                    return Err(AuditError::RetiredBlockLive {
                        block: e.ptr.block.0,
                        owner: "data area",
                    });
                }
            }
        }

        // Cause-tagged flash counter conservation.
        self.core.flash.counters().audit()?;
        Ok(())
    }

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
        match victim {
            Some(b) => {
                let _ = self.data.allocator_mut().retire(b);
                true
            }
            None => false,
        }
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
        match self.levels.iter_mut().find(|l| l.segs.len() >= 2) {
            Some(level) => {
                level.segs[0].end -= 1;
                true
            }
            None => false,
        }
    }

    /// Test-only corruption hook: inflates the cached byte count of the
    /// first segment. Returns whether a segment existed.
    #[doc(hidden)]
    pub fn corrupt_segment_bytes_for_test(&mut self) -> bool {
        match self.levels.iter_mut().find_map(|l| l.segs.first_mut()) {
            Some(seg) => {
                seg.bytes += 1;
                true
            }
            None => false,
        }
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
        let mut p = PinkStore::new(
            DeviceConfig::builder()
                .capacity_bytes(64 << 20)
                .engine(EngineKind::Pink)
                .key_len(16)
                .build(),
        );
        for id in 0..30_000u64 {
            p.put(id, 60).unwrap();
        }
        p
    }

    #[test]
    fn fresh_store_passes_audit() {
        assert_eq!(store(EngineKind::AnyKey).verify_invariants(), Ok(()));
    }

    #[test]
    fn filled_store_passes_audit() {
        let s = filled(EngineKind::AnyKeyPlus);
        assert!(s.levels.iter().any(|l| !l.is_empty()), "data must land");
        assert_eq!(s.verify_invariants(), Ok(()));
    }

    #[test]
    fn level_order_corruption_is_detected() {
        let mut s = filled(EngineKind::AnyKey);
        assert!(s.corrupt_level_order_for_test(), "need >= 2 groups");
        assert!(matches!(
            s.verify_invariants(),
            Err(AuditError::LevelOrder { .. })
        ));
    }

    #[test]
    fn dram_overclaim_is_detected() {
        let mut s = filled(EngineKind::AnyKey);
        s.overclaim_dram_for_test();
        assert!(matches!(
            s.verify_invariants(),
            Err(AuditError::DramMismatch { .. } | AuditError::DramOverBudget { .. })
        ));
    }

    #[test]
    fn counter_desync_is_detected() {
        let mut s = filled(EngineKind::AnyKey);
        s.desync_counters_for_test();
        assert!(matches!(
            s.verify_invariants(),
            Err(AuditError::CounterSkew { .. })
        ));
    }

    #[test]
    fn retired_block_with_live_group_is_detected() {
        let mut s = filled(EngineKind::AnyKey);
        assert!(s.retire_live_block_for_test(), "need a live group");
        assert!(matches!(
            s.verify_invariants(),
            Err(AuditError::RetiredBlockLive {
                owner: "group area",
                ..
            })
        ));
    }

    #[test]
    fn retirement_desync_is_detected() {
        let mut s = filled(EngineKind::AnyKey);
        s.desync_retirement_for_test();
        assert!(matches!(
            s.verify_invariants(),
            Err(AuditError::RetirementSkew { .. })
        ));
    }

    #[test]
    fn overfull_blocks_are_detected() {
        let mut s = filled(EngineKind::AnyKey);
        assert!(s.area.overfill_for_test(), "need a group block");
        assert!(matches!(
            s.verify_invariants(),
            Err(AuditError::BlockOverfull {
                owner: "group area",
                ..
            })
        ));
        // The value log is audited before the group area.
        assert!(s.log.as_mut().is_some_and(ByteLog::overfill_for_test));
        assert!(matches!(
            s.verify_invariants(),
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
            p.verify_invariants(),
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
            p.verify_invariants(),
            Err(AuditError::BlockOverfull {
                owner: "meta area",
                ..
            })
        ));
    }

    #[test]
    fn pink_passes_audit_after_fill() {
        let mut p = filled_pink();
        assert_eq!(p.verify_invariants(), Ok(()));
        p.desync_counters_for_test();
        assert!(matches!(
            p.verify_invariants(),
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
        for i in 0..msgs.len() {
            for j in i + 1..msgs.len() {
                assert_ne!(msgs[i], msgs[j]);
            }
        }
    }
}
