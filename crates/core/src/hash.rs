//! xxHash32, implemented from the specification.
//!
//! AnyKey stores a 32-bit xxHash of every key inside its KV entities, sorts
//! entities within a data segment group by this hash, and fills the hash
//! lists with it (paper Section 4.1; the 79 ns hashing cost on the
//! controller's Cortex-A53 is modeled by [`crate::config::HASH_NS`]). We
//! implement the algorithm from scratch so the simulator has no substrate
//! dependencies, and validate it against the reference test vectors.

const PRIME32_1: u32 = 0x9E37_79B1;
const PRIME32_2: u32 = 0x85EB_CA77;
const PRIME32_3: u32 = 0xC2B2_AE3D;
const PRIME32_4: u32 = 0x27D4_EB2F;
const PRIME32_5: u32 = 0x1656_67B1;

#[inline]
fn read_u32(bytes: &[u8], i: usize) -> u32 {
    u32::from_le_bytes([bytes[i], bytes[i + 1], bytes[i + 2], bytes[i + 3]])
}

#[inline]
fn round(acc: u32, lane: u32) -> u32 {
    acc.wrapping_add(lane.wrapping_mul(PRIME32_2))
        .rotate_left(13)
        .wrapping_mul(PRIME32_1)
}

/// Computes the 32-bit xxHash of `input` with the given seed.
///
/// ```
/// use anykey_core::hash::xxhash32;
///
/// assert_eq!(xxhash32(b"abc", 0), 0x32D1_53FF);
/// ```
pub fn xxhash32(input: &[u8], seed: u32) -> u32 {
    let len = input.len();
    let mut h: u32;
    let mut i = 0;

    if len >= 16 {
        let mut v1 = seed.wrapping_add(PRIME32_1).wrapping_add(PRIME32_2);
        let mut v2 = seed.wrapping_add(PRIME32_2);
        let mut v3 = seed;
        let mut v4 = seed.wrapping_sub(PRIME32_1);
        while i + 16 <= len {
            v1 = round(v1, read_u32(input, i));
            v2 = round(v2, read_u32(input, i + 4));
            v3 = round(v3, read_u32(input, i + 8));
            v4 = round(v4, read_u32(input, i + 12));
            i += 16;
        }
        h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
    } else {
        h = seed.wrapping_add(PRIME32_5);
    }

    h = h.wrapping_add(len as u32);

    while i + 4 <= len {
        h = h
            .wrapping_add(read_u32(input, i).wrapping_mul(PRIME32_3))
            .rotate_left(17)
            .wrapping_mul(PRIME32_4);
        i += 4;
    }
    while i < len {
        h = h
            .wrapping_add((input[i] as u32).wrapping_mul(PRIME32_5))
            .rotate_left(11)
            .wrapping_mul(PRIME32_1);
        i += 1;
    }

    h ^= h >> 15;
    h = h.wrapping_mul(PRIME32_2);
    h ^= h >> 13;
    h = h.wrapping_mul(PRIME32_3);
    h ^= h >> 16;
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vectors() {
        // Published xxHash32 test vectors.
        assert_eq!(xxhash32(b"", 0), 0x02CC_5D05);
        assert_eq!(xxhash32(b"a", 0), 0x550D_7456);
        assert_eq!(xxhash32(b"abc", 0), 0x32D1_53FF);
        assert_eq!(
            xxhash32(b"Nobody inspects the spammish repetition", 0),
            0xE229_3B2F
        );
    }

    #[test]
    fn seed_changes_output() {
        assert_ne!(xxhash32(b"key", 0), xxhash32(b"key", 1));
    }

    #[test]
    fn long_inputs_use_stripe_loop() {
        let data = vec![0xABu8; 1024];
        let h1 = xxhash32(&data, 0);
        let mut data2 = data.clone();
        data2[512] ^= 1;
        assert_ne!(h1, xxhash32(&data2, 0));
    }

    #[test]
    fn every_length_boundary_is_stable() {
        // Exercise the 16-byte stripe, 4-byte lane and tail-byte paths.
        let data: Vec<u8> = (0..64u8).collect();
        let mut seen = std::collections::HashSet::new();
        for l in 0..=64 {
            assert!(seen.insert(xxhash32(&data[..l], 7)), "collision at len {l}");
        }
    }
}
