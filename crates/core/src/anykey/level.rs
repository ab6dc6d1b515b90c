//! LSM levels of data segment groups.

use crate::anykey::entity::Entity;
use crate::anykey::group::Group;
use crate::audit::AuditError;
use crate::key::Key;

/// One LSM-tree level: key-range-partitioned data segment groups plus the
/// level's size accounting.
#[derive(Debug, Clone, Default)]
pub struct Level {
    /// Groups sorted by smallest key; key ranges are disjoint.
    pub groups: Vec<Group>,
    /// Logical KV bytes in this level (keys + values, wherever values
    /// live).
    pub kv_bytes: u64,
    /// Physical flash bytes the level's groups occupy — what the
    /// tree-compaction threshold is measured against (so that log-triggered
    /// inlining genuinely grows a level and can start a compaction chain).
    pub phys_bytes: u64,
    /// Bytes of this level's values that are parked in the value log.
    pub logged_bytes: u64,
    /// Size threshold that triggers tree compaction out of this level.
    pub threshold: u64,
}

impl Level {
    /// An empty level with the given compaction threshold.
    pub fn new(threshold: u64) -> Self {
        Self {
            threshold,
            ..Self::default()
        }
    }

    /// Index of the group whose key range (`[smallest_i, smallest_{i+1})`)
    /// contains `key` — what the DRAM level-list search yields. `None` when
    /// the key precedes the first group (or the level is empty).
    pub fn candidate(&self, key: Key) -> Option<usize> {
        let idx = self.groups.partition_point(|g| g.content.smallest() <= key);
        idx.checked_sub(1)
    }

    /// Index of the first group that can contain keys ≥ `key` (for scans).
    pub fn scan_start(&self, key: Key) -> usize {
        match self.candidate(key) {
            Some(i) if self.groups[i].content.largest() >= key => i,
            Some(i) => i + 1,
            None => 0,
        }
    }

    /// The level's key-sorted run from entity `from` of group `first` on,
    /// as the `(group, base, entities)` slices the scan merge reads.
    pub(crate) fn run(
        &self,
        first: usize,
        from: usize,
    ) -> impl Iterator<Item = (usize, usize, &[Entity])> {
        let groups = self.groups[first..].iter().enumerate();
        groups.map(move |(i, g)| {
            let from = if i == 0 { from } else { 0 };
            (first + i, from, &g.content.ents[from..])
        })
    }

    /// Whether the level holds no groups.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Whether the level has outgrown its threshold.
    pub fn over_threshold(&self) -> bool {
        self.phys_bytes > self.threshold
    }

    /// Recomputes size accounting from the groups (after compaction
    /// replaces them).
    pub fn recount(&mut self) {
        self.kv_bytes = self.groups.iter().map(|g| g.content.kv_bytes).sum();
        self.phys_bytes = self.groups.iter().map(|g| g.content.phys_bytes).sum();
        self.logged_bytes = self.groups.iter().map(|g| g.content.logged_bytes).sum();
        debug_assert!(
            self.groups
                .windows(2)
                .all(|w| w[0].content.largest() < w[1].content.smallest()),
            "level groups must be disjoint and sorted"
        );
    }

    /// Total level-list bytes this level contributes to DRAM.
    pub fn meta_bytes(&self) -> u64 {
        self.groups.iter().map(|g| g.content.meta_bytes()).sum()
    }

    /// Audits each group, naming this level `level` (see
    /// [`crate::anykey::group::GroupContent::audit`]), then that the
    /// groups' cached fences, which the group audit vouches for, are
    /// sorted and disjoint.
    ///
    /// # Errors
    ///
    /// Returns the first [`AuditError`] found.
    pub fn audit(&self, level: usize) -> Result<(), AuditError> {
        for (gi, g) in self.groups.iter().enumerate() {
            g.content.audit(level, gi)?;
        }
        match self
            .groups
            .windows(2)
            .position(|w| w[0].content.largest() >= w[1].content.smallest())
        {
            Some(index) => Err(AuditError::LevelOrder { level, index }),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anykey::entity::ValueLoc;
    use crate::anykey::group::GroupContent;
    use anykey_flash::Ppa;

    fn group(ids: std::ops::Range<u64>) -> Group {
        let ents: Vec<Entity> = ids
            .map(|id| {
                let key = Key::new(id, 16).unwrap();
                Entity {
                    key,
                    hash: key.hash32(),
                    value_len: 10,
                    loc: ValueLoc::Inline,
                    tombstone: false,
                }
            })
            .collect();
        Group::new(GroupContent::new(ents, 8128), Ppa::new(0, 0))
    }

    fn level() -> Level {
        let mut l = Level::new(1 << 20);
        l.groups = vec![group(10..20), group(30..40), group(50..60)];
        l.recount();
        l
    }

    fn k(id: u64) -> Key {
        Key::new(id, 16).unwrap()
    }

    #[test]
    fn candidate_routes_by_smallest_key() {
        let l = level();
        assert_eq!(l.candidate(k(5)), None);
        assert_eq!(l.candidate(k(10)), Some(0));
        assert_eq!(l.candidate(k(25)), Some(0)); // gap: falls in group 0's range
        assert_eq!(l.candidate(k(30)), Some(1));
        assert_eq!(l.candidate(k(99)), Some(2));
    }

    #[test]
    fn scan_start_skips_exhausted_groups() {
        let l = level();
        assert_eq!(l.scan_start(k(5)), 0);
        assert_eq!(l.scan_start(k(15)), 0);
        assert_eq!(l.scan_start(k(25)), 1); // past group 0's largest (19)
        assert_eq!(l.scan_start(k(59)), 2);
        assert_eq!(l.scan_start(k(99)), 3); // past everything
    }

    #[test]
    fn recount_sums_groups() {
        let l = level();
        assert_eq!(l.kv_bytes, 30 * (16 + 10));
        assert_eq!(l.logged_bytes, 0);
        assert!(!l.over_threshold());
    }

    #[test]
    fn meta_bytes_is_group_sum() {
        let l = level();
        let per: u64 = l.groups[0].content.meta_bytes();
        assert_eq!(l.meta_bytes(), 3 * per);
    }
}
