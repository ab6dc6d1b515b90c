//! KV entities: what a data segment group stores per key.

use crate::bytelog::Extent;
use crate::key::Key;

/// Where an entity's value lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueLoc {
    /// The value is stored inline in the data segment group page.
    Inline,
    /// The value is in the value log; the entity stores an 8-byte pointer.
    Logged(Extent),
}

/// One KV entity inside a data segment group (paper Section 4.1): the key,
/// the 32-bit hash of the key, and the value — inline or as a value-log
/// pointer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entity {
    /// The key.
    pub key: Key,
    /// xxHash32 of the key bytes (entities are sorted by this within a
    /// group).
    pub hash: u32,
    /// Value length in bytes (0 for tombstones).
    pub value_len: u32,
    /// Value placement.
    pub loc: ValueLoc,
    /// Whether this entity is a deletion marker.
    pub tombstone: bool,
}

/// Fixed per-entity header inside a page: hash (4 B) + length/flags (4 B).
pub const ENTITY_HEADER_BYTES: u64 = 8;
/// Size of a value-log pointer stored in place of an inline value.
pub const LOG_PTR_BYTES: u64 = 8;

impl Entity {
    /// Bytes this entity occupies inside its group page.
    pub fn stored_bytes(&self) -> u64 {
        let value = match self.loc {
            ValueLoc::Inline => {
                if self.tombstone {
                    0
                } else {
                    self.value_len as u64
                }
            }
            ValueLoc::Logged(_) => LOG_PTR_BYTES,
        };
        self.key.len() as u64 + ENTITY_HEADER_BYTES + value
    }

    /// Logical KV bytes (key + value) — what level thresholds are measured
    /// in, regardless of where the value physically lives.
    pub fn kv_bytes(&self) -> u64 {
        if self.tombstone {
            self.key.len() as u64
        } else {
            self.key.len() as u64 + self.value_len as u64
        }
    }

    /// Bytes this entity holds in the value log (0 unless logged).
    pub fn logged_bytes(&self) -> u64 {
        match self.loc {
            ValueLoc::Logged(_) => self.value_len as u64,
            ValueLoc::Inline => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anykey_flash::BlockId;

    fn ent(value_len: u32, loc: ValueLoc, tombstone: bool) -> Entity {
        Entity {
            key: Key::new(1, 20).unwrap(),
            hash: 0xABCD,
            value_len,
            loc,
            tombstone,
        }
    }

    #[test]
    fn inline_entity_stores_value_bytes() {
        let e = ent(100, ValueLoc::Inline, false);
        assert_eq!(e.stored_bytes(), 20 + 8 + 100);
        assert_eq!(e.kv_bytes(), 120);
        assert_eq!(e.logged_bytes(), 0);
    }

    #[test]
    fn logged_entity_stores_pointer() {
        let ptr = Extent {
            block: BlockId(3),
            page: 7,
            pages: 1,
        };
        let e = ent(100, ValueLoc::Logged(ptr), false);
        assert_eq!(e.stored_bytes(), 20 + 8 + 8);
        assert_eq!(e.kv_bytes(), 120);
        assert_eq!(e.logged_bytes(), 100);
    }

    #[test]
    fn tombstone_has_no_value_footprint() {
        let e = ent(0, ValueLoc::Inline, true);
        assert_eq!(e.stored_bytes(), 20 + 8);
        assert_eq!(e.kv_bytes(), 20);
    }
}
