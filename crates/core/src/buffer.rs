//! The DRAM write buffer (L0).
//!
//! Both engines buffer incoming PUT/DELETE requests in device DRAM and
//! flush them into L1 via an L0→L1 compaction when the buffer reservation
//! fills (paper Section 4.4.2). Lookups check the buffer first — the newest
//! version of a key always wins. Entries are keyed by key id; the key
//! length is the device's, passed in where bytes are counted.
//!
//! The buffer is read by point lookups, so it is a hash table: a PUT and a
//! GET are one probe each. Key order is needed only by the flush, which
//! sorts the drained entries once, and by range scans, which read a sorted
//! id index beside the table. The first
//! [`range`](crate::buffer::WriteBuffer::range) after a flush builds that
//! index (the same build-on-first-read idiom as an AnyKey group's layout);
//! while it exists each new id is inserted into it by binary search, so a
//! scan never re-sorts the buffer. A fresh buffer allocates nothing.

use std::cell::OnceCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use anykey_workload::rng::mix64;

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

/// Hashes a key id with [`mix64`]: the same on every run and host, unlike
/// std's randomly seeded SipHash, and a few multiplies per probe.
#[derive(Debug, Clone, Copy, Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = mix64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = mix64(self.0 ^ id);
    }
}

type IdMap = HashMap<u64, BufEntry, BuildHasherDefault<IdHasher>>;

/// A capacity-bounded write buffer: a hash table of entries by key id, plus
/// a key-sorted id index built by the first range read after a flush.
#[derive(Debug)]
pub struct WriteBuffer {
    map: IdMap,
    /// Every buffered id in key order, once a range read has built it.
    sorted: OnceCell<Vec<u64>>,
    bytes: u64,
    capacity: u64,
}

impl WriteBuffer {
    /// A buffer with the given byte capacity.
    pub fn new(capacity: u64) -> Self {
        Self {
            map: IdMap::default(),
            sorted: OnceCell::new(),
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
        match self.map.insert(id, entry) {
            Some(old) => self.bytes -= Self::entry_bytes(key_len, old),
            None => {
                if let Some(ids) = self.sorted.get_mut() {
                    ids.insert(ids.partition_point(|&x| x < id), id);
                }
            }
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

    /// Total value bytes of buffered non-tombstone entries — the log space
    /// an L0 flush will need.
    pub fn pending_value_bytes(&self) -> u64 {
        self.map
            .values()
            .filter(|e| !e.tombstone)
            .map(|e| e.value_len as u64)
            .sum()
    }

    /// Takes all entries, sorted by key id, leaving the buffer empty. The
    /// table keeps its capacity for the next fill; the id index is dropped.
    pub fn drain(&mut self) -> std::vec::IntoIter<(u64, BufEntry)> {
        self.bytes = 0;
        self.sorted.take();
        let mut entries: Vec<(u64, BufEntry)> = self.map.drain().collect();
        entries.sort_unstable_by_key(|&(id, _)| id);
        entries.into_iter()
    }

    /// Buffered entries with key ids ≥ `start`, in key order — used by
    /// range scans and the live-byte walk to merge L0 results. Builds the
    /// sorted id index if no range read has since the last drain.
    pub fn range(&self, start: u64) -> Range<'_> {
        let ids = self.sorted.get_or_init(|| {
            let mut ids: Vec<u64> = self.map.keys().copied().collect();
            ids.sort_unstable();
            ids
        });
        let from = ids.partition_point(|&id| id < start);
        Range {
            ids: ids[from..].iter(),
            map: &self.map,
        }
    }
}

/// The entries [`WriteBuffer::range`] yields: the sorted id index from a
/// start id on, each id with its entry.
#[derive(Debug)]
pub struct Range<'a> {
    ids: std::slice::Iter<'a, u64>,
    map: &'a IdMap,
}

impl<'a> Iterator for Range<'a> {
    type Item = (&'a u64, &'a BufEntry);

    fn next(&mut self) -> Option<Self::Item> {
        let id = self.ids.next()?;
        Some((id, &self.map[id]))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ids.size_hint()
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
        assert_eq!(b.range(0).count(), 0);
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
        let ids: Vec<u64> = b.range(2).map(|(&id, _)| id).collect();
        assert_eq!(ids, vec![2, 4, 8]);
    }

    /// Seeded inserts (replacements and tombstones among them), GETs,
    /// range reads from random and extreme starts, and drains, each checked
    /// against a `BTreeMap` model. Range reads fall between inserts, so the
    /// sorted index must follow every new id; drains must reset it.
    #[test]
    fn follows_a_btreemap_model() {
        use anykey_workload::SplitMix64;
        use std::collections::BTreeMap;

        const CAPACITY: u64 = 5_000;
        let mut rng = SplitMix64::new(0xB0FF_E120);
        let mut b = WriteBuffer::new(CAPACITY);
        let mut model: BTreeMap<u64, BufEntry> = BTreeMap::new();
        let draw_id = |rng: &mut SplitMix64| match rng.next_bounded(16) {
            0 => u64::MAX - rng.next_bounded(3),
            1 => rng.next_bounded(3),
            _ => 1_000 + 7 * rng.next_bounded(1_500),
        };
        let model_bytes = |m: &BTreeMap<u64, BufEntry>| -> u64 {
            m.values()
                .map(|&e| WriteBuffer::entry_bytes(KEY_LEN, e))
                .sum()
        };
        let (mut ranges, mut drained) = (0, 0);
        for op in 0..40_000u32 {
            match rng.next_bounded(1024) {
                0..=559 => {
                    let id = draw_id(&mut rng);
                    let tombstone = rng.next_bounded(5) == 0;
                    let value_len = if tombstone {
                        0
                    } else {
                        rng.next_bounded(40) as u32
                    };
                    let e = BufEntry {
                        value_len,
                        tombstone,
                    };
                    b.insert(id, e, KEY_LEN);
                    model.insert(id, e);
                }
                560..=759 => {
                    let id = draw_id(&mut rng);
                    assert_eq!(b.get(id), model.get(&id), "op {op}: get {id}");
                }
                760..=1019 => {
                    let last = model.keys().next_back().copied().unwrap_or(0);
                    let start = match rng.next_bounded(6) {
                        0 => 0,
                        1 => u64::MAX,
                        2 => last.saturating_add(1),
                        3 => last,
                        _ => draw_id(&mut rng),
                    };
                    let got: Vec<(u64, BufEntry)> = b.range(start).map(|(&k, &e)| (k, e)).collect();
                    let want: Vec<(u64, BufEntry)> =
                        model.range(start..).map(|(&k, &e)| (k, e)).collect();
                    assert_eq!(got, want, "op {op}: range from {start}");
                    ranges += 1;
                }
                _ => {
                    let filled = model.len();
                    let got: Vec<(u64, BufEntry)> = b.drain().collect();
                    let want: Vec<(u64, BufEntry)> =
                        std::mem::take(&mut model).into_iter().collect();
                    assert_eq!(got, want, "op {op}: drain");
                    assert!(b.sorted.get().is_none(), "op {op}: index kept");
                    assert!(b.map.capacity() >= filled, "op {op}: capacity dropped");
                    drained += 1;
                }
            }
            assert_eq!(b.bytes(), model_bytes(&model), "op {op}: bytes");
            assert_eq!(b.is_full(), model_bytes(&model) >= CAPACITY, "op {op}");
            let pending = model.values().filter(|e| !e.tombstone);
            let pending: u64 = pending.map(|e| u64::from(e.value_len)).sum();
            assert_eq!(b.pending_value_bytes(), pending, "op {op}: pending");
        }
        assert!(ranges > 5_000 && drained > 100, "{ranges} {drained}");
    }

    #[test]
    fn a_fresh_buffer_holds_no_allocation() {
        let b = WriteBuffer::new(1 << 20);
        assert_eq!(b.map.capacity(), 0);
        assert!(b.sorted.get().is_none());
    }

    /// The table picks a bucket from a hash's low bits and a tag from its
    /// top 7, so ids that share their low bits (or differ only there) must
    /// still spread over both.
    #[test]
    fn the_id_hasher_spreads_ids_that_share_low_bits() {
        use std::collections::HashSet;
        use std::hash::BuildHasher;

        let hash = |id: u64| BuildHasherDefault::<IdHasher>::default().hash_one(id);
        for shift in [0, 12, 20, 32, 48] {
            let hashes: Vec<u64> = (0..4096u64).map(|i| hash(i << shift)).collect();
            // 4096 random draws over 4096 buckets fill about 2,589.
            let buckets: HashSet<u64> = hashes.iter().map(|h| h & 4095).collect();
            assert!(buckets.len() > 2_400, "shift {shift}: {}", buckets.len());
            let tags: HashSet<u64> = hashes.iter().map(|h| h >> 57).collect();
            assert_eq!(tags.len(), 128, "shift {shift}");
        }
    }
}
