//! The DRAM write buffer (L0).
//!
//! Both engines buffer incoming PUT/DELETE requests in device DRAM and
//! flush them into L1 via an L0→L1 compaction when the buffer reservation
//! fills (paper Section 4.4.2). Lookups check the buffer first — the newest
//! version of a key always wins. Entries are keyed by key id; the key
//! length is the device's, passed in where bytes are counted.

use std::collections::{btree_map, BTreeMap};
use std::ops::RangeBounds;

/// Per-entry bookkeeping overhead in the buffer (skip-list node, pointers).
pub const BUFFER_ENTRY_OVERHEAD: u64 = 16;

/// One buffered mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufEntry {
    /// Value length in bytes (0 for tombstones).
    pub value_len: u32,
    /// Whether this entry deletes the key.
    pub tombstone: bool,
}

/// A capacity-bounded, key-ordered write buffer.
#[derive(Debug, Clone)]
pub struct WriteBuffer {
    map: BTreeMap<u64, BufEntry>,
    bytes: u64,
    capacity: u64,
}

impl WriteBuffer {
    /// A buffer with the given byte capacity.
    pub fn new(capacity: u64) -> Self {
        Self {
            map: BTreeMap::new(),
            bytes: 0,
            capacity,
        }
    }

    fn entry_bytes(key_len: u16, e: BufEntry) -> u64 {
        u64::from(key_len) + u64::from(e.value_len) + BUFFER_ENTRY_OVERHEAD
    }

    /// Inserts or replaces a mutation for key `id`, whose key is
    /// `key_len` bytes long.
    pub fn insert(&mut self, id: u64, entry: BufEntry, key_len: u16) {
        if let Some(old) = self.map.insert(id, entry) {
            self.bytes -= Self::entry_bytes(key_len, old);
        }
        self.bytes += Self::entry_bytes(key_len, entry);
    }

    /// The buffered mutation for key `id`, if any.
    pub fn get(&self, id: u64) -> Option<&BufEntry> {
        self.map.get(&id)
    }

    /// Whether the buffer has reached its capacity and must flush.
    pub fn is_full(&self) -> bool {
        self.bytes >= self.capacity
    }

    /// Current buffered bytes (including per-entry overhead).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Number of buffered entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Total value bytes of buffered non-tombstone entries — the log space
    /// an L0 flush will need.
    pub fn pending_value_bytes(&self) -> u64 {
        self.map
            .values()
            .filter(|e| !e.tombstone)
            .map(|e| e.value_len as u64)
            .sum()
    }

    /// Takes all entries (key-ordered), leaving the buffer empty.
    pub fn drain(&mut self) -> btree_map::IntoIter<u64, BufEntry> {
        self.bytes = 0;
        std::mem::take(&mut self.map).into_iter()
    }

    /// Buffered entries with key ids in `ids`, in key order — used by
    /// range scans and the live-byte walk to merge L0 results.
    pub fn range(&self, ids: impl RangeBounds<u64>) -> btree_map::Range<'_, u64, BufEntry> {
        self.map.range(ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The key length every test entry has.
    const KEY_LEN: u16 = 16;

    #[test]
    fn insert_then_get() {
        let mut b = WriteBuffer::new(1000);
        b.insert(
            1,
            BufEntry {
                value_len: 100,
                tombstone: false,
            },
            KEY_LEN,
        );
        assert_eq!(b.get(1).unwrap().value_len, 100);
        assert!(b.get(2).is_none());
    }

    #[test]
    fn replacement_does_not_leak_bytes() {
        let mut b = WriteBuffer::new(1000);
        let e = BufEntry {
            value_len: 100,
            tombstone: false,
        };
        b.insert(1, e, KEY_LEN);
        let once = b.bytes();
        b.insert(1, e, KEY_LEN);
        assert_eq!(b.bytes(), once);
        b.insert(
            1,
            BufEntry {
                value_len: 10,
                tombstone: false,
            },
            KEY_LEN,
        );
        assert!(b.bytes() < once);
    }

    #[test]
    fn fills_at_capacity() {
        let mut b = WriteBuffer::new(300);
        let e = BufEntry {
            value_len: 100,
            tombstone: false,
        };
        b.insert(1, e, KEY_LEN);
        assert!(!b.is_full());
        b.insert(2, e, KEY_LEN);
        assert!(!b.is_full());
        b.insert(3, e, KEY_LEN);
        assert!(b.is_full());
    }

    #[test]
    fn drain_returns_sorted_and_resets() {
        let mut b = WriteBuffer::new(1000);
        for id in [5u64, 1, 3] {
            b.insert(
                id,
                BufEntry {
                    value_len: 10,
                    tombstone: false,
                },
                KEY_LEN,
            );
        }
        let ids: Vec<u64> = b.drain().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![1, 3, 5]);
        assert!(b.is_empty());
        assert_eq!(b.bytes(), 0);
    }

    #[test]
    fn tombstones_are_buffered() {
        let mut b = WriteBuffer::new(1000);
        b.insert(
            9,
            BufEntry {
                value_len: 0,
                tombstone: true,
            },
            KEY_LEN,
        );
        assert!(b.get(9).unwrap().tombstone);
    }

    #[test]
    fn range_from_is_inclusive_and_ordered() {
        let mut b = WriteBuffer::new(1000);
        for id in [1u64, 2, 4, 8] {
            b.insert(
                id,
                BufEntry {
                    value_len: 1,
                    tombstone: false,
                },
                KEY_LEN,
            );
        }
        let ids: Vec<u64> = b.range(2..).map(|(&id, _)| id).collect();
        assert_eq!(ids, vec![2, 4, 8]);
    }
}
