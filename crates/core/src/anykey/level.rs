//! LSM levels of data segment groups.

use crate::anykey::entity::Entity;
use crate::anykey::group::Group;
use crate::audit::{audit_run, AuditError};

/// One LSM-tree level: one key-sorted entity array, cut by key range into
/// data segment groups (paper Section 4.1, Figure 7), as PinK's level is
/// cut into meta segments. Its sizes are sums of what each group record
/// counted when it was cut, and its threshold follows from its index
/// (`Engine::over_threshold`).
#[derive(Debug, Clone, Default)]
pub struct Level {
    /// The level's entities, strictly key-ordered.
    pub(crate) ents: Vec<Entity>,
    /// Group records tiling `ents` in order.
    pub groups: Vec<Group>,
    /// Each group's first key, in group order: the level list's keys,
    /// which the DRAM search compares against. Built with the groups, by
    /// [`Level::new`] only.
    pub(crate) firsts: Vec<u64>,
}

impl Level {
    /// The level of the key-sorted array `ents` cut into `groups`, whose
    /// ranges tile it in order.
    pub(crate) fn new(ents: Vec<Entity>, groups: Vec<Group>) -> Self {
        let firsts = groups.iter().map(|g| ents[g.start].id).collect();
        Self {
            ents,
            groups,
            firsts,
        }
    }

    /// Index of the group whose key range (`[smallest_i, smallest_{i+1})`)
    /// contains key `id` — what the DRAM level-list search yields. `None`
    /// when the key precedes the first group (or the level is empty).
    pub fn candidate(&self, id: u64) -> Option<usize> {
        self.firsts.partition_point(|&f| f <= id).checked_sub(1)
    }

    /// Where a scan from key `id` starts: the first group that can hold
    /// keys ≥ `id` (the candidate, or the next when every key of the
    /// candidate is below `id`) and the index in `ents` of the first entity
    /// ≥ `id`.
    pub fn scan_from(&self, id: u64) -> (usize, usize) {
        let Some(gi) = self.candidate(id) else {
            return (0, 0);
        };
        let g = &self.groups[gi];
        let from = g.dir_lower_bound(&self.ents, id);
        (gi + usize::from(from == g.end), from)
    }

    /// Whether the level holds no groups.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Logical KV bytes in this level (keys + values, wherever values
    /// live).
    pub fn kv_bytes(&self) -> u64 {
        self.groups.iter().map(|g| g.kv_bytes).sum()
    }

    /// Physical flash bytes the level's groups occupy — what the
    /// tree-compaction threshold is measured against (so that log-triggered
    /// inlining genuinely grows a level and can start a compaction chain).
    pub fn phys_bytes(&self) -> u64 {
        self.groups.iter().map(Group::phys_bytes).sum()
    }

    /// Bytes of this level's values that are parked in the value log.
    pub fn logged_bytes(&self) -> u64 {
        self.groups.iter().map(|g| g.logged_bytes).sum()
    }

    /// Total level-list bytes this level contributes to DRAM.
    pub fn meta_bytes(&self) -> u64 {
        self.groups.iter().map(Group::meta_bytes).sum()
    }

    /// Audits the level, naming it `level`: its group records tile the
    /// entity array and its first keys are their groups' first keys, the
    /// array strictly ascends, and each group's built layout holds
    /// ([`Group::audit`]).
    ///
    /// # Errors
    ///
    /// Returns the first [`AuditError`] found.
    pub fn audit(&self, level: usize) -> Result<(), AuditError> {
        let units = self.groups.iter().zip(&self.firsts);
        let units = units.map(|(g, &first)| (g.start, g.end, first));
        let tiling = |group| AuditError::GroupTiling { level, group };
        let fence = |group| AuditError::FenceMismatch { level, group };
        audit_run(level, &self.ents, |e| e.id, units, tiling, fence)?;
        for (gi, g) in self.groups.iter().enumerate() {
            g.audit(&self.ents, level, gi)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anykey::entity::ValueLoc;
    use crate::anykey::group::GroupPacker;
    use crate::key::Key;

    /// A level of one group per run of ids.
    fn level<const N: usize>(runs: [Vec<u64>; N]) -> Level {
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
        Level::new(ents, groups)
    }

    fn three() -> Level {
        level([(10..20).collect(), (30..40).collect(), (50..60).collect()])
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
        let l = level([(10..30).step_by(2).collect(), (40..60).step_by(2).collect()]);
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

    #[test]
    fn sizes_are_sums_over_groups() {
        let l = three();
        assert_eq!(l.kv_bytes(), 30 * (16 + 10));
        assert_eq!(l.logged_bytes(), 0);
        let phys: u64 = l.groups.iter().map(Group::phys_bytes).sum();
        assert_eq!(l.phys_bytes(), phys);
        assert!(phys > 0);
        assert_eq!(Level::default().phys_bytes(), 0);
    }

    #[test]
    fn meta_bytes_is_group_sum() {
        let l = three();
        let per: u64 = l.groups[0].meta_bytes();
        assert_eq!(l.meta_bytes(), 3 * per);
    }

    #[test]
    fn the_audit_tells_a_break_inside_a_group_from_one_across_groups() {
        assert_eq!(three().audit(4), Ok(()));
        let mut l = three();
        l.ents[3].id = l.ents[2].id;
        let err = AuditError::DirectoryOrder { level: 4, group: 0 };
        assert_eq!(l.audit(4), Err(err));
        let mut l = three();
        l.ents[19].id = l.ents[20].id;
        assert_eq!(
            l.audit(4),
            Err(AuditError::LevelOrder { level: 4, index: 1 })
        );
        let mut l = three();
        l.firsts[2] += 1;
        let err = AuditError::FenceMismatch { level: 4, group: 2 };
        assert_eq!(l.audit(4), Err(err));
        let mut l = three();
        l.groups[1].start += 1;
        let err = AuditError::GroupTiling { level: 4, group: 1 };
        assert_eq!(l.audit(4), Err(err));
        let mut l = three();
        l.groups[2].end -= 1;
        let err = AuditError::GroupTiling { level: 4, group: 3 };
        assert_eq!(l.audit(4), Err(err));
    }
}
