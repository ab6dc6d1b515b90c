//! One LSM level of either engine.
//!
//! The paper draws PinK's levels (Sections 2–3) and AnyKey's (Section 4.1,
//! Figure 7) the same way: a level list of first keys over page-sized
//! units, meta segments in PinK and data segment groups in AnyKey. A
//! [`Level`](crate::level::Level) is that shape once: the level's entries in one strictly
//! key-ascending array, the unit records that tile it in order, and each
//! unit's first key in one dense array, the level list's keys the DRAM
//! search compares against. It owns the one first-key search
//! ([`Level::seek`](crate::level::Level::seek)), the level's logical KV bytes and the shape audit;
//! each engine keeps what its units hold beside it (AnyKey's group
//! layouts, PinK's spilled level-list pages).

use std::ops::Range;

use crate::audit::AuditError;
use crate::key;

/// An entry of a level's array, as the level search, the scan merge and
/// the compaction merge read it.
pub trait Entry: Copy {
    /// The key id.
    fn id(&self) -> u64;
    /// Whether the entry is a deletion marker.
    fn tombstone(&self) -> bool;
    /// The value length in bytes (0 for tombstones).
    fn value_len(&self) -> u32;
    /// Logical KV bytes of the entry, its key being `key_len` bytes long:
    /// the key and value, the key alone for a tombstone. Level thresholds
    /// are measured in them, wherever the value physically lives.
    fn kv_bytes(&self, key_len: u16) -> u64 {
        let value = if self.tombstone() {
            0
        } else {
            self.value_len()
        };
        u64::from(key_len) + u64::from(value)
    }
}

/// A unit record cutting a level's array: a data segment group or a meta
/// segment.
pub trait Unit {
    /// What the audit calls a unit.
    const NAME: &'static str;
    /// The unit's range of its level's array.
    fn range(&self) -> Range<usize>;
}

/// One LSM level: a key-sorted entry array cut into units. Its threshold
/// follows from its index (`Engine::over_threshold`).
#[derive(Debug, Clone)]
pub struct Level<E, U> {
    /// The level's entries, strictly key-ordered.
    pub(crate) ents: Vec<E>,
    /// Unit records tiling `ents` in order.
    pub(crate) units: Vec<U>,
    /// Each unit's first key, in unit order: the level list's keys. Built
    /// with the units, by [`Level::with_kv_bytes`] only.
    pub(crate) firsts: Vec<u64>,
    /// Logical KV bytes of `ents` ([`Entry::kv_bytes`] summed).
    kv_bytes: u64,
}

impl<E, U> Default for Level<E, U> {
    fn default() -> Self {
        Self {
            ents: Vec::new(),
            units: Vec::new(),
            firsts: Vec::new(),
            kv_bytes: 0,
        }
    }
}

impl<E, U> AsRef<Level<E, U>> for Level<E, U> {
    fn as_ref(&self) -> &Self {
        self
    }
}

impl<E: Entry, U: Unit> Level<E, U> {
    /// The level of the key-sorted array `ents` of entries with
    /// `key_len`-byte keys, cut into `units`, whose ranges tile it in
    /// order, its KV bytes summed in a pass of their own.
    #[cfg(test)]
    pub(crate) fn new(ents: Vec<E>, units: Vec<U>, key_len: u16) -> Self {
        let kv_bytes = ents.iter().map(|e| e.kv_bytes(key_len)).sum();
        Self::with_kv_bytes(ents, units, kv_bytes)
    }

    /// The level of the key-sorted array `ents`, cut into `units`, whose
    /// ranges tile it in order, and whose logical KV bytes
    /// ([`Entry::kv_bytes`] summed) are known to be `kv_bytes`: a merge
    /// sums them as it emits each kept entry.
    pub(crate) fn with_kv_bytes(ents: Vec<E>, units: Vec<U>, kv_bytes: u64) -> Self {
        let firsts = units.iter().map(|u| ents[u.range().start].id()).collect();
        Self {
            ents,
            units,
            firsts,
            kv_bytes,
        }
    }

    /// Index of the unit whose key range (`[first_i, first_{i+1})`)
    /// contains key `id`: what the DRAM level-list search yields. `None`
    /// when the key precedes the first unit (or the level is empty). The
    /// search interpolates over the first keys, between the first unit's
    /// and the level's last key ([`key::lower_bound`] of `id + 1`).
    pub fn candidate(&self, id: u64) -> Option<usize> {
        let Some(above) = id.checked_add(1) else {
            return self.firsts.len().checked_sub(1);
        };
        let (Some(&lo), Some(hi)) = (self.firsts.first(), self.ents.last()) else {
            return None;
        };
        key::lower_bound(&self.firsts, above, lo, hi.id(), |&f| f).checked_sub(1)
    }

    /// Searches the level for key `id`: the level list for the candidate
    /// unit, then that unit by interpolation between its first key and the
    /// next unit's (its own last key's in the last unit;
    /// [`key::lower_bound`]). Returns the candidate, `None` when `id`
    /// precedes the level, and the index in the array of the first entry
    /// ≥ `id`.
    pub fn seek(&self, id: u64) -> (Option<usize>, usize) {
        let Some(ui) = self.candidate(id) else {
            return (None, 0);
        };
        let range = self.units[ui].range();
        let (lo, start) = (self.firsts[ui], range.start);
        let hi = match self.firsts.get(ui + 1) {
            Some(&next) => next,
            None => self.ents[range.end - 1].id(),
        };
        let at = key::lower_bound(&self.ents[range], id, lo, hi, E::id);
        (Some(ui), start + at)
    }

    /// Where a scan from key `id` starts: the first unit holding an entry
    /// ≥ `id` (the candidate, or the next when every key of the candidate
    /// is below `id`) and that entry's index in the array.
    pub fn scan_from(&self, id: u64) -> (usize, usize) {
        let (unit, from) = self.seek(id);
        let first = unit.map_or(0, |ui| ui + usize::from(from == self.units[ui].range().end));
        (first, from)
    }

    /// The entry at `pos`, a [`seek`](Self::seek) result, when it holds
    /// key `id`.
    pub fn entry_at(&self, pos: usize, id: u64) -> Option<&E> {
        self.ents.get(pos).filter(|e| e.id() == id)
    }

    /// Whether the level holds no units.
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// Logical KV bytes in this level.
    pub fn kv_bytes(&self) -> u64 {
        self.kv_bytes
    }

    /// Audits the level's shape, naming it `level`: its units tile the
    /// array in order, each non-empty (else `UnitTiling` of the unit, or
    /// of the unit count when they stop short of the end), and each one's
    /// level-list key is its first entry's key (else `FenceMismatch`).
    /// Then the whole array strictly ascends: a break is `LevelOrder` at
    /// the boundary after a unit, `DirectoryOrder` inside one.
    ///
    /// # Errors
    ///
    /// Returns the first [`AuditError`] found.
    pub fn audit(&self, level: usize) -> Result<(), AuditError> {
        let unit = U::NAME;
        let mut next = 0;
        for (index, u) in self.units.iter().enumerate() {
            let Range { start, end } = u.range();
            if start != next || end <= start || end > self.ents.len() {
                return Err(AuditError::UnitTiling { level, unit, index });
            }
            if self.firsts.get(index) != Some(&self.ents[start].id()) {
                return Err(AuditError::FenceMismatch { level, unit, index });
            }
            next = end;
        }
        if next != self.ents.len() {
            let index = self.units.len();
            return Err(AuditError::UnitTiling { level, unit, index });
        }
        let ents = &self.ents;
        let Some(k) = ents.windows(2).position(|w| w[0].id() >= w[1].id()) else {
            return Ok(());
        };
        let i = self.units.partition_point(|u| u.range().end <= k);
        Err(if self.units[i].range().end == k + 1 {
            AuditError::LevelOrder { level, index: i }
        } else {
            AuditError::DirectoryOrder { level, group: i }
        })
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use anykey_flash::BlockId;
    use anykey_workload::SplitMix64;

    use super::*;
    use crate::anykey::entity::{Entity, ValueLoc};
    use crate::anykey::group::{Group, GroupPacker};
    use crate::bytelog::Extent;
    use crate::key::Key;
    use crate::pink::segment::{cut_segments, SegEntry, Segment};

    /// An AnyKey level of one group per run of ids, 16-byte keys and
    /// 10-byte inline values.
    fn groups(runs: impl IntoIterator<Item = Vec<u64>>) -> Level<Entity, Group> {
        let (mut ents, mut groups) = (Vec::new(), Vec::new());
        for ids in runs {
            let mut packer = GroupPacker::new(8128, u32::MAX, 16, ents.len());
            for id in ids {
                let hash = Key::new(id, 16).unwrap().hash32();
                ents.push(Entity::new(id, hash, 10, ValueLoc::Inline, false));
                packer.push(&ents[ents.len() - 1]);
            }
            groups.extend(packer.finish());
        }
        Level::new(ents, groups, 16)
    }

    /// A PinK level of `ids` with `key_len`-byte keys, cut into segments of
    /// `per` entries.
    fn segments(ids: &[u64], key_len: u16, per: u64) -> Level<SegEntry, Segment> {
        let ptr = Extent {
            block: BlockId(0),
            page: 0,
            pages: 1,
        };
        let entry = |id| SegEntry {
            id,
            value_len: 50,
            ptr,
            tombstone: false,
        };
        let entries: Vec<SegEntry> = ids.iter().map(|&id| entry(id)).collect();
        let segs = cut_segments(&entries, per * SegEntry::seg_bytes(key_len), key_len);
        Level::new(entries, segs, key_len)
    }

    /// Three groups of ten: 10..20, 30..40 and 50..60.
    fn three() -> Level<Entity, Group> {
        groups([(10..20).collect(), (30..40).collect(), (50..60).collect()])
    }

    /// A seeded strictly ascending run of `n` ids: gaps of 1..=4, with a
    /// few wide jumps between clusters.
    fn ids(rng: &mut SplitMix64, n: usize) -> Vec<u64> {
        let mut id = rng.next_bounded(50);
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            id += 1 + rng.next_bounded(4);
            if rng.next_bounded(100) == 0 {
                id += 10_000;
            }
            out.push(id);
        }
        out
    }

    /// The probes for a run of `ids` cut into units starting at `starts`:
    /// ids before the first unit, on and around each unit's first key (the
    /// gaps between units), on and beside every entry (inside units), and
    /// past the end.
    fn probes(ids: &[u64], starts: &[usize]) -> BTreeSet<u64> {
        let last = ids.last().copied().unwrap_or(0);
        let mut out = BTreeSet::from([0, u64::MAX - 1, u64::MAX]);
        out.extend([last.saturating_add(1), last.saturating_add(2)]);
        for &s in starts {
            out.extend(ids[s].saturating_sub(2)..=ids[s].saturating_add(2));
        }
        for &id in ids {
            out.extend(id.saturating_sub(1)..=id.saturating_add(1));
        }
        out
    }

    /// What a level search must yield for key `id` over the run `ids` cut
    /// at `starts`, by `partition_point` over the whole run: the unit whose
    /// first key is the last ≤ `id` (`None` before the first), the index
    /// of the first entry ≥ `id`, and the first unit holding an entry ≥
    /// `id` (the unit count when none does).
    fn reference(ids: &[u64], starts: &[usize], id: u64) -> (Option<usize>, usize, usize) {
        let candidate = starts.partition_point(|&s| ids[s] <= id).checked_sub(1);
        let from = ids.partition_point(|&k| k < id);
        let end = |u: usize| starts.get(u + 1).copied().unwrap_or(ids.len());
        let first = (0..starts.len()).take_while(|&u| end(u) <= from).count();
        (candidate, from, first)
    }

    /// Checks every search of `l` against [`reference`] at every probe:
    /// the level list's search ([`Level::candidate`]) below the first
    /// key, on and beside each unit's first key and at `u64::MAX`, and
    /// the searches inside units on and beside every key.
    fn assert_searches_match<E: Entry, U: Unit>(l: &Level<E, U>, ctx: &str) {
        let ids: Vec<u64> = l.ents.iter().map(E::id).collect();
        let starts: Vec<usize> = l.units.iter().map(|u| u.range().start).collect();
        for id in probes(&ids, &starts) {
            let (candidate, from, first) = reference(&ids, &starts, id);
            assert_eq!(l.candidate(id), candidate, "{ctx}, key {id}: candidate");
            assert_eq!(l.seek(id), (candidate, from), "{ctx}, key {id}: seek");
            assert_eq!(
                l.scan_from(id),
                (first, from),
                "{ctx}, key {id}: scan start"
            );
            let hit = ids.get(from).filter(|&&k| k == id).map(|_| from);
            let got = l.entry_at(from, id).map(|_| from);
            assert_eq!(got, hit, "{ctx}, key {id}: entry");
        }
    }

    #[test]
    fn search_matches_partition_point_on_seeded_cuts() {
        let mut rng = SplitMix64::new(0x1E7E1);
        for seed in 0..32u64 {
            let n = [0, 1, 2, 40, 3_000][seed as usize % 5] + rng.next_bounded(200) as usize;
            let mut ids = ids(&mut rng, n);
            if seed % 4 == 3 {
                // At the top of the id space: the last key is u64::MAX.
                let shift = u64::MAX - ids.last().copied().unwrap_or(0);
                ids.iter_mut().for_each(|id| *id += shift);
            }
            // AnyKey-like: units of random sizes.
            let max_unit = [1, 3, 40, 700][rng.next_bounded(4) as usize];
            let mut runs = Vec::new();
            let mut rest = &ids[..];
            while !rest.is_empty() {
                let k = (1 + rng.next_bounded(max_unit) as usize).min(rest.len());
                runs.push(rest[..k].to_vec());
                rest = &rest[k..];
            }
            let anykey = groups(runs);
            assert_searches_match(&anykey, &format!("seed {seed}: groups, {n} entries"));
            // PinK's fixed-count cut.
            let key_len = [16u16, 24, 48][rng.next_bounded(3) as usize];
            let per = [1, 2, 93, 369][rng.next_bounded(4) as usize];
            let pink = segments(&ids, key_len, per);
            let ctx = format!("seed {seed}: segments of {per}, {n} entries");
            assert_searches_match(&pink, &ctx);
        }
        assert_searches_match(&Level::<Entity, Group>::default(), "empty groups");
        assert_searches_match(&segments(&[], 16, 4), "empty segments");
        // A unit whose first key is u64::MAX.
        let top = [u64::MAX - 5, u64::MAX - 1, u64::MAX];
        let ctx = "a last group of u64::MAX alone";
        assert_searches_match(&groups([top[..2].to_vec(), vec![u64::MAX]]), ctx);
        assert_searches_match(&groups([vec![u64::MAX]]), "one group of u64::MAX");
        assert_searches_match(&segments(&top, 16, 1), "segments of one at the top");
    }

    #[test]
    fn candidate_routes_by_smallest_key() {
        let l = three();
        assert_eq!(l.candidate(5), None);
        assert_eq!(l.candidate(10), Some(0));
        assert_eq!(l.candidate(25), Some(0)); // gap: falls in group 0's range
        assert_eq!(l.candidate(30), Some(1));
        assert_eq!(l.candidate(99), Some(2));
    }

    #[test]
    fn scan_start_skips_exhausted_groups() {
        // Even ids only: 10..=28 and 40..=58, ten in each group.
        let l = groups([(10..30).step_by(2).collect(), (40..60).step_by(2).collect()]);
        assert_eq!(l.scan_from(5), (0, 0)); // before everything
        assert_eq!(l.scan_from(10), (0, 0));
        assert_eq!(l.scan_from(15), (0, 3)); // a miss inside group 0
        assert_eq!(l.scan_from(16), (0, 3));
        assert_eq!(l.scan_from(29), (1, 10)); // between the groups
        assert_eq!(l.scan_from(35), (1, 10));
        assert_eq!(l.scan_from(41), (1, 11)); // a miss inside group 1
        assert_eq!(l.scan_from(58), (1, 19));
        assert_eq!(l.scan_from(59), (2, 20)); // past everything
    }

    /// Seeds each shape fault into a level of three units of ten, ids
    /// 10..20, 30..40 and 50..60, and checks the audit names it.
    fn assert_audit_tells_faults<E: Entry, U: Unit>(
        three: impl Fn() -> Level<E, U>,
        set_id: impl Fn(&mut E, u64),
        range: impl Fn(&mut U) -> (&mut usize, &mut usize),
    ) {
        let unit = U::NAME;
        assert_eq!(three().audit(4), Ok(()));
        let mut l = three();
        let id = l.ents[2].id();
        set_id(&mut l.ents[3], id);
        let err = AuditError::DirectoryOrder { level: 4, group: 0 };
        assert_eq!(l.audit(4), Err(err), "{unit}");
        let mut l = three();
        let id = l.ents[20].id();
        set_id(&mut l.ents[19], id);
        let err = AuditError::LevelOrder { level: 4, index: 1 };
        assert_eq!(l.audit(4), Err(err), "{unit}");
        let mut l = three();
        l.firsts[2] += 1;
        let (level, index) = (4, 2);
        let err = AuditError::FenceMismatch { level, unit, index };
        assert_eq!(l.audit(4), Err(err));
        let mut l = three();
        *range(&mut l.units[1]).0 += 1;
        let index = 1;
        assert_eq!(
            l.audit(4),
            Err(AuditError::UnitTiling { level, unit, index })
        );
        let mut l = three();
        *range(&mut l.units[2]).1 -= 1;
        let index = 3;
        assert_eq!(
            l.audit(4),
            Err(AuditError::UnitTiling { level, unit, index })
        );
    }

    #[test]
    fn the_audit_tells_a_break_inside_a_group_from_one_across_groups() {
        assert_audit_tells_faults(three, |e, id| e.id = id, |g| (&mut g.start, &mut g.end));
        let ids: Vec<u64> = [10..20, 30..40, 50..60].into_iter().flatten().collect();
        assert_audit_tells_faults(
            || segments(&ids, 16, 10),
            |e, id| e.id = id,
            |s| (&mut s.start, &mut s.end),
        );
    }
}
