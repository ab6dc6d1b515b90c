//! KV entities: what a data segment group stores per key.

use anykey_flash::BlockId;

use crate::bytelog::Extent;
use crate::level::Entry;

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
///
/// It is 24 bytes on the host: the key is its id (the length is the
/// device's), and the value's place is stored flat beside the tombstone
/// flag, an extent of no pages meaning inline (a logged value touches at
/// least one page). [`Self::loc`] reads it back as a [`ValueLoc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entity {
    /// The key id.
    pub id: u64,
    /// xxHash32 of the key bytes (entities are sorted by this within a
    /// group).
    pub hash: u32,
    /// Value length in bytes (0 for tombstones).
    pub value_len: u32,
    /// The logged value's block.
    block: BlockId,
    /// The logged value's first page in its block.
    page: u16,
    /// Pages the logged value touches; 0 when the value is inline.
    pages: u8,
    /// Whether this entity is a deletion marker.
    pub tombstone: bool,
}

const _: () = assert!(std::mem::size_of::<Entity>() == 24);

/// Fixed per-entity header inside a page: hash (4 B) + length/flags (4 B).
pub const ENTITY_HEADER_BYTES: u64 = 8;
/// Size of a value-log pointer stored in place of an inline value.
pub const LOG_PTR_BYTES: u64 = 8;

impl Entity {
    /// An entity of key `id` with the given hash, value and placement.
    pub fn new(id: u64, hash: u32, value_len: u32, loc: ValueLoc, tombstone: bool) -> Self {
        let mut e = Self {
            id,
            hash,
            value_len,
            block: BlockId(0),
            page: 0,
            pages: 0,
            tombstone,
        };
        e.set_loc(loc);
        e
    }

    /// Value placement.
    pub fn loc(&self) -> ValueLoc {
        if self.pages == 0 {
            ValueLoc::Inline
        } else {
            ValueLoc::Logged(Extent {
                block: self.block,
                page: self.page,
                pages: self.pages,
            })
        }
    }

    /// Moves the value to `loc`.
    ///
    /// # Panics
    ///
    /// Panics in builds with debug assertions if `loc` is an extent of no
    /// pages, which would read back as inline.
    pub fn set_loc(&mut self, loc: ValueLoc) {
        let ext = match loc {
            ValueLoc::Inline => Extent::default(),
            ValueLoc::Logged(ext) => {
                debug_assert!(ext.pages > 0, "a logged value touches a page");
                ext
            }
        };
        (self.block, self.page, self.pages) = (ext.block, ext.page, ext.pages);
    }

    /// Bytes this entity occupies inside its group page, its key being
    /// `key_len` bytes long.
    pub fn stored_bytes(&self, key_len: u16) -> u64 {
        let value = match self.loc() {
            ValueLoc::Inline => {
                if self.tombstone {
                    0
                } else {
                    self.value_len as u64
                }
            }
            ValueLoc::Logged(_) => LOG_PTR_BYTES,
        };
        u64::from(key_len) + ENTITY_HEADER_BYTES + value
    }

    /// Bytes this entity holds in the value log (0 unless logged).
    pub fn logged_bytes(&self) -> u64 {
        match self.loc() {
            ValueLoc::Logged(_) => self.value_len as u64,
            ValueLoc::Inline => 0,
        }
    }
}

impl Entry for Entity {
    fn id(&self) -> u64 {
        self.id
    }

    fn tombstone(&self) -> bool {
        self.tombstone
    }

    fn value_len(&self) -> u32 {
        self.value_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ent(value_len: u32, loc: ValueLoc, tombstone: bool) -> Entity {
        Entity::new(1, 0xABCD, value_len, loc, tombstone)
    }

    #[test]
    fn inline_entity_stores_value_bytes() {
        let e = ent(100, ValueLoc::Inline, false);
        assert_eq!(e.stored_bytes(20), 20 + 8 + 100);
        assert_eq!(e.kv_bytes(20), 120);
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
        assert_eq!(e.stored_bytes(20), 20 + 8 + 8);
        assert_eq!(e.kv_bytes(20), 120);
        assert_eq!(e.logged_bytes(), 100);
    }

    #[test]
    fn tombstone_has_no_value_footprint() {
        let e = ent(0, ValueLoc::Inline, true);
        assert_eq!(e.stored_bytes(20), 20 + 8);
        assert_eq!(e.kv_bytes(20), 20);
    }

    /// Every field reads back as built at the extremes of the packed
    /// layout: inline and logged values, a tombstone, a 0-byte live value,
    /// the last page of a 65,536-page block and the most pages an extent
    /// holds.
    #[test]
    fn fields_round_trip_at_the_extremes() {
        let ext = |block, page, pages| {
            ValueLoc::Logged(Extent {
                block: BlockId(block),
                page,
                pages,
            })
        };
        let cases = [
            (0, 0, 10, ValueLoc::Inline, false),
            (
                u64::MAX,
                u32::MAX,
                u32::MAX,
                ext(u32::MAX, 65_535, u8::MAX),
                false,
            ),
            (7, 1, 0, ValueLoc::Inline, true),
            (8, 2, 0, ValueLoc::Inline, false),
            (9, 3, 4096, ext(5, 65_535, 1), false),
            (10, 4, 1, ext(0, 0, u8::MAX), false),
        ];
        for (id, hash, value_len, loc, tombstone) in cases {
            let e = Entity::new(id, hash, value_len, loc, tombstone);
            let got = (e.id, e.hash, e.value_len, e.loc(), e.tombstone);
            assert_eq!(got, (id, hash, value_len, loc, tombstone));
            let mut moved = e;
            moved.set_loc(ValueLoc::Inline);
            assert_eq!(moved.loc(), ValueLoc::Inline);
            moved.set_loc(loc);
            assert_eq!(moved, e, "{loc:?} after a move inline and back");
        }
    }
}
