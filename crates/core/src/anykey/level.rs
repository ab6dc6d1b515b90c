//! LSM levels of data segment groups.

use crate::anykey::entity::Entity;
use crate::anykey::group::Group;
use crate::audit::AuditError;

/// One LSM-tree level: key-range-partitioned data segment groups. Its
/// sizes are sums of what each group cached when it was built, and its
/// threshold follows from its index (`Engine::over_threshold`).
#[derive(Debug, Clone, Default)]
pub struct Level {
    /// Groups sorted by smallest key; key ranges are disjoint.
    pub groups: Vec<Group>,
}

impl Level {
    /// Index of the group whose key range (`[smallest_i, smallest_{i+1})`)
    /// contains key `id` — what the DRAM level-list search yields. `None`
    /// when the key precedes the first group (or the level is empty).
    pub fn candidate(&self, id: u64) -> Option<usize> {
        let idx = self.groups.partition_point(|g| g.content.smallest() <= id);
        idx.checked_sub(1)
    }

    /// Where a scan from key `id` starts: the first group that can hold
    /// keys ≥ `id` (the candidate, or the next when every key of the
    /// candidate is below `id`) and the index of its first entity ≥ `id`.
    pub fn scan_from(&self, id: u64) -> (usize, usize) {
        match self.candidate(id) {
            Some(i) if self.groups[i].content.largest() >= id => {
                (i, self.groups[i].content.dir_lower_bound(id))
            }
            Some(i) => (i + 1, 0),
            None => (0, 0),
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

    /// Logical KV bytes in this level (keys + values, wherever values
    /// live).
    pub fn kv_bytes(&self) -> u64 {
        self.groups.iter().map(|g| g.content.kv_bytes).sum()
    }

    /// Physical flash bytes the level's groups occupy — what the
    /// tree-compaction threshold is measured against (so that log-triggered
    /// inlining genuinely grows a level and can start a compaction chain).
    pub fn phys_bytes(&self) -> u64 {
        self.groups.iter().map(|g| g.content.phys_bytes).sum()
    }

    /// Bytes of this level's values that are parked in the value log.
    pub fn logged_bytes(&self) -> u64 {
        self.groups.iter().map(|g| g.content.logged_bytes).sum()
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
    use crate::key::Key;
    use anykey_flash::Ppa;

    fn group(ids: impl Iterator<Item = u64>) -> Group {
        let ents: Vec<Entity> = ids
            .map(|id| {
                let hash = Key::new(id, 16).unwrap().hash32();
                Entity::new(id, hash, 10, ValueLoc::Inline, false)
            })
            .collect();
        Group::new(GroupContent::new(ents, 8128, 16), Ppa::new(0, 0))
    }

    fn level() -> Level {
        Level {
            groups: vec![group(10..20), group(30..40), group(50..60)],
        }
    }

    #[test]
    fn candidate_routes_by_smallest_key() {
        let l = level();
        assert_eq!(l.candidate(5), None);
        assert_eq!(l.candidate(10), Some(0));
        assert_eq!(l.candidate(25), Some(0)); // gap: falls in group 0's range
        assert_eq!(l.candidate(30), Some(1));
        assert_eq!(l.candidate(99), Some(2));
    }

    #[test]
    fn scan_start_skips_exhausted_groups() {
        // Even ids only: 10..=28 and 40..=58.
        let l = Level {
            groups: vec![group((10..30).step_by(2)), group((40..60).step_by(2))],
        };
        assert_eq!(l.scan_from(5), (0, 0)); // before everything
        assert_eq!(l.scan_from(10), (0, 0));
        assert_eq!(l.scan_from(15), (0, 3)); // a miss inside group 0
        assert_eq!(l.scan_from(16), (0, 3));
        assert_eq!(l.scan_from(29), (1, 0)); // between the groups
        assert_eq!(l.scan_from(35), (1, 0));
        assert_eq!(l.scan_from(41), (1, 1)); // a miss inside group 1
        assert_eq!(l.scan_from(58), (1, 9));
        assert_eq!(l.scan_from(59), (2, 0)); // past everything
    }

    #[test]
    fn sizes_are_sums_over_groups() {
        let l = level();
        assert_eq!(l.kv_bytes(), 30 * (16 + 10));
        assert_eq!(l.logged_bytes(), 0);
        let phys: u64 = l.groups.iter().map(|g| g.content.phys_bytes).sum();
        assert_eq!(l.phys_bytes(), phys);
        assert!(phys > 0);
        assert_eq!(Level::default().phys_bytes(), 0);
    }

    #[test]
    fn meta_bytes_is_group_sum() {
        let l = level();
        let per: u64 = l.groups[0].content.meta_bytes();
        assert_eq!(l.meta_bytes(), 3 * per);
    }
}
