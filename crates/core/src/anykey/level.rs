//! AnyKey's LSM levels: one key-sorted entity array cut into data segment
//! groups.

use crate::anykey::entity::Entity;
use crate::anykey::group::Group;
use crate::audit::AuditError;

/// One AnyKey level: the shared [`crate::level::Level`] of entities cut
/// by key range into data segment groups (paper Section 4.1, Figure 7),
/// as PinK's level is cut into meta segments. Its sizes beyond the
/// logical KV bytes are sums of what each group record counted when it
/// was cut.
pub type Level = crate::level::Level<Entity, Group>;

impl Level {
    /// Physical flash bytes the level's groups occupy — what the
    /// tree-compaction threshold is measured against (so that log-triggered
    /// inlining genuinely grows a level and can start a compaction chain).
    pub fn phys_bytes(&self) -> u64 {
        self.units.iter().map(Group::phys_bytes).sum()
    }

    /// Bytes of this level's values that are parked in the value log.
    pub fn logged_bytes(&self) -> u64 {
        self.units.iter().map(|g| g.logged_bytes).sum()
    }

    /// Total level-list bytes this level contributes to DRAM.
    pub fn meta_bytes(&self) -> u64 {
        self.units.iter().map(Group::meta_bytes).sum()
    }

    /// Audits the level, naming it `level`: its shape
    /// ([`crate::level::Level::audit`]), then each group's built layout
    /// ([`Group::audit`]).
    ///
    /// # Errors
    ///
    /// Returns the first [`AuditError`] found.
    pub fn audit_layouts(&self, level: usize) -> Result<(), AuditError> {
        self.audit(level)?;
        for (gi, g) in self.units.iter().enumerate() {
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

    /// Three groups of ten: 10..20, 30..40 and 50..60, 16-byte keys and
    /// 10-byte inline values.
    fn three() -> Level {
        let (mut ents, mut groups) = (Vec::new(), Vec::new());
        for ids in [10..20, 30..40, 50..60] {
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

    #[test]
    fn sizes_are_sums_over_groups() {
        let l = three();
        assert_eq!(l.kv_bytes(), 30 * (16 + 10));
        assert_eq!(l.logged_bytes(), 0);
        let phys: u64 = l.units.iter().map(Group::phys_bytes).sum();
        assert_eq!(l.phys_bytes(), phys);
        assert!(phys > 0);
        assert_eq!(Level::default().phys_bytes(), 0);
    }

    #[test]
    fn meta_bytes_is_group_sum() {
        let l = three();
        let per: u64 = l.units[0].meta_bytes();
        assert_eq!(l.meta_bytes(), 3 * per);
    }
}
