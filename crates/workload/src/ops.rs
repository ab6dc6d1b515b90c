//! Operation streams: the request mix the host issues to the device.

use crate::rng::SplitMix64;
use crate::spec::WorkloadSpec;
use crate::zipfian::{KeyDist, ZipfianGen};

/// One host request.
///
/// Keys are abstract 64-bit ids in `[0, keyspace)`; the engine synthesizes
/// the actual key bytes (at the workload's fixed key length) from the id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Point lookup.
    Get {
        /// Key id.
        key: u64,
    },
    /// Insert or update.
    Put {
        /// Key id.
        key: u64,
        /// Value length in bytes.
        value_len: u32,
    },
    /// Remove a key.
    Delete {
        /// Key id.
        key: u64,
    },
    /// Range scan: `len` consecutive keys starting at `start` (in key
    /// order).
    Scan {
        /// First key id of the range.
        start: u64,
        /// Number of consecutive keys to return.
        len: u32,
    },
}

/// Builder for a deterministic [`OpStream`].
///
/// Defaults mirror the paper's Section 5.1 configuration: Zipfian θ = 0.99,
/// 20 % writes, no scans. Streams issue no deletes.
#[derive(Debug, Clone)]
pub struct OpStreamBuilder {
    spec: WorkloadSpec,
    keyspace: u64,
    write_ratio: f64,
    scan_ratio: f64,
    scan_len: u32,
    dist: KeyDist,
    seed: u64,
}

impl OpStreamBuilder {
    /// Starts a builder for `spec` over `keyspace` keys.
    pub fn new(spec: WorkloadSpec, keyspace: u64) -> Self {
        Self {
            spec,
            keyspace,
            write_ratio: 0.2,
            scan_ratio: 0.0,
            scan_len: 100,
            dist: KeyDist::default(),
            seed: 0x5EED,
        }
    }

    /// Fraction of operations that are PUTs (paper default: 0.2).
    pub fn write_ratio(mut self, r: f64) -> Self {
        self.write_ratio = r;
        self
    }

    /// Fraction of operations that are SCANs, and their length (Figure 18's
    /// scan-centric UDB workload).
    pub fn scans(mut self, ratio: f64, len: u32) -> Self {
        self.scan_ratio = ratio;
        self.scan_len = len;
        self
    }

    /// Key-popularity distribution (paper default: Zipfian θ = 0.99).
    pub fn dist(mut self, dist: KeyDist) -> Self {
        self.dist = dist;
        self
    }

    /// RNG seed; identical seeds give identical streams.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the infinite operation stream.
    ///
    /// # Panics
    ///
    /// Panics if the ratios sum to more than 1.
    pub fn build(self) -> OpStream {
        let total = self.write_ratio + self.scan_ratio;
        assert!(
            (0.0..=1.0).contains(&total),
            "op ratios must sum to at most 1, got {total}"
        );
        OpStream {
            value_len: self.spec.value_len,
            write_ratio: self.write_ratio,
            scan_ratio: self.scan_ratio,
            scan_len: self.scan_len,
            keys: ZipfianGen::new(self.keyspace, self.dist, self.seed),
            mix_rng: SplitMix64::new(self.seed ^ 0xA11C_E5ED),
        }
    }
}

/// An infinite, deterministic stream of [`Op`]s.
#[derive(Debug, Clone)]
pub struct OpStream {
    value_len: u32,
    write_ratio: f64,
    scan_ratio: f64,
    scan_len: u32,
    keys: ZipfianGen,
    mix_rng: SplitMix64,
}

impl Iterator for OpStream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let key = self.keys.next_key();
        let roll = self.mix_rng.next_f64();
        let op = if roll < self.write_ratio {
            Op::Put {
                key,
                value_len: self.value_len,
            }
        } else if roll < self.write_ratio + self.scan_ratio {
            Op::Scan {
                start: key,
                len: self.scan_len,
            }
        } else {
            Op::Get { key }
        };
        Some(op)
    }
}

/// The warm-up fill sequence: inserts every key in `[0, keyspace)` exactly
/// once, in an order deterministically shuffled by `seed`.
///
/// The paper's warm-up stage fills the device with all KV pairs and runs
/// compaction/GC until steady state; this provides the insertion order.
pub fn fill_ops(spec: WorkloadSpec, keyspace: u64, seed: u64) -> impl Iterator<Item = Op> {
    // A Feistel-like permutation over [0, keyspace) via cycle-walking on the
    // next power of two, so every key appears exactly once.
    let bits = 64 - keyspace.next_power_of_two().leading_zeros().max(1);
    let mask = (1u64 << bits) - 1;
    let k1 = crate::rng::mix64(seed);
    let k2 = crate::rng::mix64(seed ^ 0xDEAD_BEEF);
    let value_len = spec.value_len;
    (0..keyspace).map(move |i| {
        let mut x = i;
        loop {
            // Two rounds of a tiny Feistel network on `bits` bits.
            let half = bits / 2;
            let (mut l, mut r) = (x >> half, x & ((1 << half) - 1));
            for k in [k1, k2] {
                let f = crate::rng::mix64(r ^ k) & ((1 << half) - 1);
                let nl = r;
                r = l ^ f;
                l = nl;
            }
            x = ((l << half) | r) & mask;
            if x < keyspace {
                break;
            }
        }
        Op::Put { key: x, value_len }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    fn etc() -> WorkloadSpec {
        spec::by_name("ETC").unwrap()
    }

    #[test]
    fn stream_is_deterministic() {
        let a: Vec<_> = OpStreamBuilder::new(etc(), 1000)
            .seed(1)
            .build()
            .take(500)
            .collect();
        let b: Vec<_> = OpStreamBuilder::new(etc(), 1000)
            .seed(1)
            .build()
            .take(500)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn write_ratio_is_honored() {
        let ops: Vec<_> = OpStreamBuilder::new(etc(), 10_000)
            .write_ratio(0.2)
            .build()
            .take(100_000)
            .collect();
        let writes = ops.iter().filter(|o| matches!(o, Op::Put { .. })).count();
        let frac = writes as f64 / ops.len() as f64;
        assert!((frac - 0.2).abs() < 0.01, "write fraction {frac}");
    }

    #[test]
    fn puts_use_spec_value_len() {
        let op = OpStreamBuilder::new(etc(), 10)
            .write_ratio(1.0)
            .build()
            .next()
            .unwrap();
        assert_eq!(
            op,
            match op {
                Op::Put { key, .. } => Op::Put {
                    key,
                    value_len: 358
                },
                other => other,
            }
        );
    }

    #[test]
    fn scan_stream_produces_scans() {
        let ops: Vec<_> = OpStreamBuilder::new(etc(), 1000)
            .write_ratio(0.0)
            .scans(1.0, 150)
            .build()
            .take(10)
            .collect();
        assert!(ops.iter().all(|o| matches!(o, Op::Scan { len: 150, .. })));
    }

    #[test]
    fn fill_ops_is_a_permutation() {
        use std::collections::HashSet;
        let n = 1000;
        let keys: HashSet<u64> = fill_ops(etc(), n, 7)
            .map(|op| match op {
                Op::Put { key, .. } => key,
                _ => panic!("fill must only produce puts"),
            })
            .collect();
        assert_eq!(keys.len(), n as usize);
        assert!(keys.iter().all(|&k| k < n));
    }

    #[test]
    fn fill_ops_is_shuffled() {
        let first_ten: Vec<u64> = fill_ops(etc(), 1_000_000, 3)
            .take(10)
            .map(|op| match op {
                Op::Put { key, .. } => key,
                _ => unreachable!(),
            })
            .collect();
        assert_ne!(first_ten, (0..10).collect::<Vec<u64>>());
    }

    #[test]
    #[should_panic(expected = "ratios")]
    fn over_unity_ratios_panic() {
        let _ = OpStreamBuilder::new(etc(), 10)
            .write_ratio(0.8)
            .scans(0.5, 10)
            .build();
    }
}
