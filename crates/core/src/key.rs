//! Synthesized keys.
//!
//! The workloads of Table 2 fix a key length per workload; what varies is
//! the key's identity. We represent a key as a `(u64 id, length)` pair and
//! synthesize its byte image deterministically: a constant filler prefix
//! followed by the big-endian id, so that **lexicographic byte order equals
//! id order** — the property the LSM levels, range scans and data segment
//! group directories sort by. Hashing (xxHash32) runs over the synthesized
//! bytes, so hash collisions occur organically as they would with real key
//! material.

use crate::hash::xxhash32;
use crate::KvError;
use std::fmt;

/// Maximum supported key length in bytes (Table 2's largest is 94; the
/// paper's analysis goes up to 80-byte keys).
pub const MAX_KEY_LEN: usize = 128;

/// A workload key: a 64-bit id rendered at a fixed byte length.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key {
    id: u64,
    len: u16,
}

impl Key {
    /// Creates a key of `len` bytes from `id`.
    ///
    /// # Errors
    ///
    /// Returns [`KvError::KeyTooLarge`] if `id` cannot be encoded in `len`
    /// bytes (only possible for `len < 8`), and [`KvError::KeyTooLarge`]
    /// with `key_len = 0` is never produced because zero-length keys are
    /// rejected by the panic below.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero or exceeds [`MAX_KEY_LEN`].
    pub fn new(id: u64, len: u16) -> Result<Self, KvError> {
        assert!(
            (1..=MAX_KEY_LEN as u16).contains(&len),
            "key length {len} out of range 1..={MAX_KEY_LEN}"
        );
        if (len as usize) < 8 && id >> (8 * len as u32) != 0 {
            return Err(KvError::KeyTooLarge { id, key_len: len });
        }
        Ok(Self { id, len })
    }

    /// The key id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Key length in bytes.
    pub fn len(&self) -> u16 {
        self.len
    }

    /// Whether the key is empty (never true for a constructed key).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Writes the synthesized key bytes into `buf` and returns the filled
    /// prefix.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is shorter than the key length.
    pub fn bytes<'b>(&self, buf: &'b mut [u8]) -> &'b [u8] {
        let len = self.len as usize;
        let out = &mut buf[..len];
        let id_bytes = self.id.to_be_bytes();
        if len >= 8 {
            out[..len - 8].fill(b'k');
            out[len - 8..].copy_from_slice(&id_bytes);
        } else {
            out.copy_from_slice(&id_bytes[8 - len..]);
        }
        out
    }

    /// The 32-bit xxHash of the synthesized key bytes — the hash AnyKey
    /// sorts data segment groups by and stores in hash lists.
    pub fn hash32(&self) -> u32 {
        let mut buf = [0u8; MAX_KEY_LEN];
        xxhash32(self.bytes(&mut buf), 0)
    }
}

/// The index of the first of `items` whose key (`key_of`) is ≥ `key`,
/// exactly `items.partition_point(|e| key_of(e) < key)` for key-sorted
/// `items`, found by interpolation search.
///
/// `lo_id` and `hi_id` are the ids expected at index 0 and just past the
/// last item (the next run's first key, say): the search guesses the
/// position by linear interpolation on the id between them, gallops from
/// the guess to a bracket and binary-searches it with full [`Key`]
/// comparisons. Keys are hash-scrambled or permuted ids, so a lookup
/// usually lands within a few items of the guess, and galloping bounds the
/// worst case at about twice a binary search. With `hi_id <= lo_id` there
/// is nothing to interpolate and the search is a plain binary search. The
/// bounds only steer the guess: the result is exact for any of them.
pub fn lower_bound<T>(
    items: &[T],
    key: Key,
    lo_id: u64,
    hi_id: u64,
    key_of: impl Fn(&T) -> Key,
) -> usize {
    let below = |e: &T| key_of(e) < key;
    let n = items.len();
    // The answer lies in `lo..=hi`: every item before `lo` is below `key`,
    // and `hi` is `n` or an item at or above it.
    let (mut lo, mut hi) = (0, n);
    if hi_id > lo_id && n > 0 {
        let frac = key.id.saturating_sub(lo_id) as f64 / (hi_id - lo_id) as f64;
        let guess = ((frac * n as f64) as usize).min(n - 1);
        // Gallop away from the guess to a bracket.
        let mut step = 1;
        if below(&items[guess]) {
            lo = guess + 1;
            while guess + step < n {
                let probe = guess + step;
                if !below(&items[probe]) {
                    hi = probe;
                    break;
                }
                lo = probe + 1;
                step *= 2;
            }
        } else {
            hi = guess;
            while let Some(probe) = guess.checked_sub(step) {
                if below(&items[probe]) {
                    lo = probe + 1;
                    break;
                }
                hi = probe;
                step *= 2;
            }
        }
    }
    lo + items[lo..hi].partition_point(below)
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Key({}/{}B)", self.id, self.len)
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{}", self.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_order_matches_id_order() {
        let mut prev = Vec::new();
        for id in [0u64, 1, 2, 255, 256, 65535, 1 << 40, u64::MAX] {
            let k = Key::new(id, 24).unwrap();
            let mut buf = [0u8; MAX_KEY_LEN];
            let bytes = k.bytes(&mut buf).to_vec();
            assert!(bytes > prev || prev.is_empty());
            prev = bytes;
        }
    }

    #[test]
    fn ord_impl_matches_byte_order() {
        let a = Key::new(100, 32).unwrap();
        let b = Key::new(200, 32).unwrap();
        assert!(a < b);
        let mut ba = [0u8; MAX_KEY_LEN];
        let mut bb = [0u8; MAX_KEY_LEN];
        assert!(a.bytes(&mut ba) < b.bytes(&mut bb));
    }

    #[test]
    fn short_keys_reject_large_ids() {
        assert!(Key::new(0xFFFF, 2).is_ok());
        assert!(Key::new(0x1_0000, 2).is_err());
    }

    #[test]
    fn bytes_have_declared_length() {
        for len in [1u16, 7, 8, 9, 16, 48, 94, 128] {
            let k = Key::new(42, len).unwrap();
            let mut buf = [0u8; MAX_KEY_LEN];
            assert_eq!(k.bytes(&mut buf).len(), len as usize);
        }
    }

    #[test]
    fn hash_is_deterministic_and_spread() {
        use std::collections::HashSet;
        let hashes: HashSet<u32> = (0..10_000u64)
            .map(|id| Key::new(id, 48).unwrap().hash32())
            .collect();
        // With 10k keys in a 2^32 space, collisions should be absent or
        // nearly so.
        assert!(hashes.len() >= 9_998);
        assert_eq!(
            Key::new(7, 48).unwrap().hash32(),
            Key::new(7, 48).unwrap().hash32()
        );
    }

    #[test]
    fn different_lengths_hash_differently() {
        assert_ne!(
            Key::new(7, 16).unwrap().hash32(),
            Key::new(7, 24).unwrap().hash32()
        );
    }

    /// Checks `lower_bound` against `partition_point` for every target id
    /// from 0 to just past the last item, at both key lengths the items
    /// use, under the bounds `(lo_id, hi_id)`.
    fn check_lower_bound(items: &[Key], lo_id: u64, hi_id: u64, ctx: &str) {
        let last = items.last().map_or(0, Key::id);
        for id in 0..=last + 3 {
            for len in [16u16, 24] {
                let key = Key::new(id, len).unwrap();
                let want = items.partition_point(|k| *k < key);
                let got = lower_bound(items, key, lo_id, hi_id, |k| *k);
                assert_eq!(got, want, "{ctx}: target {key:?}, bounds {lo_id}..{hi_id}");
            }
        }
    }

    #[test]
    fn lower_bound_matches_partition_point() {
        let mut rng = anykey_workload::SplitMix64::new(0x10B);
        let sorted = |mut ids: Vec<u64>| {
            ids.sort_unstable();
            ids.dedup();
            ids.into_iter()
                .map(|id| Key::new(id, 24).unwrap())
                .collect()
        };
        let shapes: [(&str, Vec<Key>); 6] = [
            ("empty", Vec::new()),
            ("single", sorted(vec![40])),
            ("dense", sorted((100..400).collect())),
            (
                "sparse",
                sorted((0..200).map(|_| rng.next_bounded(5_000)).collect()),
            ),
            (
                "clustered",
                sorted(
                    (0..200)
                        .map(|i| [50, 2_000, 2_050][i % 3] + rng.next_bounded(40))
                        .collect(),
                ),
            ),
            (
                // The adversarial case: one far item stretches the id range
                // so every guess lands near the front.
                "outlier",
                sorted((0..200).map(|i| 10 + i).chain([40_000]).collect()),
            ),
        ];
        for (name, items) in &shapes {
            let first = items.first().map_or(0, Key::id);
            let last = items.last().map_or(0, Key::id);
            // Exact bounds, next-run bounds, targets outside both, bounds
            // narrower and wider than the items, and no interpolation.
            for (lo, hi) in [
                (first, last),
                (first, last + 1),
                (first + 10, last.saturating_sub(10)),
                (first.saturating_sub(30), last + 500),
                (first, first),
                (0, u64::MAX),
            ] {
                check_lower_bound(items, lo, hi, name);
            }
        }
        // Equal ids with different key lengths order by length.
        let mixed: Vec<Key> = [(5, 16), (5, 24), (6, 16), (7, 16), (7, 24), (9, 24)]
            .iter()
            .map(|&(id, len)| Key::new(id, len).unwrap())
            .collect();
        for (lo, hi) in [(5, 9), (5, 10), (5, 5), (0, 100)] {
            check_lower_bound(&mixed, lo, hi, "mixed lengths");
        }
    }

    #[test]
    #[should_panic(expected = "key length")]
    fn zero_length_panics() {
        let _ = Key::new(0, 0);
    }
}
