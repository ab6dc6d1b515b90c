//! Zipfian and uniform key-popularity distributions.
//!
//! The paper drives every workload with a Zipfian key distribution
//! (θ = 0.99 by default; Figure 17 sweeps θ). We implement the classic
//! YCSB/Gray et al. rejection-free Zipfian generator, with rank scrambling
//! so that popular keys are spread over the whole keyspace instead of
//! clustering at the low ids (which would give LSM levels unrealistic
//! locality).

use crate::rng::{mix64, SplitMix64};

/// Key-popularity distribution over a keyspace of `n` items.
#[derive(Debug, Clone, PartialEq)]
pub enum KeyDist {
    /// Zipfian with parameter θ (YCSB calls this `zipfian constant`).
    Zipfian {
        /// Skew parameter; 0.99 is the paper's default.
        theta: f64,
    },
    /// Every key equally likely.
    Uniform,
}

impl Default for KeyDist {
    fn default() -> Self {
        KeyDist::Zipfian { theta: 0.99 }
    }
}

/// Draws keys in `[0, n)` according to a [`KeyDist`].
///
/// Ranks are scrambled with a 64-bit mix so rank 0 (the hottest key) is an
/// arbitrary id, as in YCSB's `ScrambledZipfianGenerator`.
#[derive(Debug, Clone)]
pub struct ZipfianGen {
    n: u64,
    dist: Dist,
    rng: SplitMix64,
    scramble: bool,
}

#[derive(Debug, Clone)]
enum Dist {
    Zipfian {
        alpha: f64,
        zetan: f64,
        eta: f64,
        /// `1 + 0.5^θ`: a draw whose `u · ζ(n, θ)` falls below it (and
        /// not below 1) is rank 1.
        rank1_bound: f64,
    },
    Uniform,
}

/// Computes the generalized harmonic number ζ(n, θ) = Σ_{i=1..n} 1/i^θ.
fn zeta(n: u64, theta: f64) -> f64 {
    let mut sum = 0.0;
    for i in 1..=n {
        sum += 1.0 / (i as f64).powf(theta);
    }
    sum
}

impl ZipfianGen {
    /// A generator over `n` keys with the given distribution and seed.
    ///
    /// For Zipfian distributions this computes ζ(n, θ) up front, which is
    /// O(n) — a few milliseconds for the multi-million-key spaces used in
    /// the experiments.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or θ is not in `(0, 2)`.
    pub fn new(n: u64, dist: KeyDist, seed: u64) -> Self {
        assert!(n > 0, "keyspace must be non-empty");
        let dist = match dist {
            KeyDist::Zipfian { theta } => {
                assert!(
                    theta > 0.0 && theta < 2.0 && (theta - 1.0).abs() > 1e-9,
                    "theta must be in (0,2) and != 1, got {theta}"
                );
                let zetan = zeta(n, theta);
                let zeta2 = zeta(2, theta);
                let alpha = 1.0 / (1.0 - theta);
                let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
                Dist::Zipfian {
                    alpha,
                    zetan,
                    eta,
                    rank1_bound: 1.0 + 0.5f64.powf(theta),
                }
            }
            KeyDist::Uniform => Dist::Uniform,
        };
        Self {
            n,
            dist,
            rng: SplitMix64::new(seed),
            scramble: true,
        }
    }

    /// Disables rank scrambling (rank 0 becomes key 0) — useful in tests
    /// that assert on the popularity of specific ids.
    pub fn without_scramble(mut self) -> Self {
        self.scramble = false;
        self
    }

    /// Number of keys in the keyspace.
    pub fn keyspace(&self) -> u64 {
        self.n
    }

    /// Draws the next key id in `[0, n)`.
    pub fn next_key(&mut self) -> u64 {
        let rank = match &self.dist {
            // Uniform draws need no scrambling (mix64 % n is not a
            // permutation, so scrambling would skew coverage).
            Dist::Uniform => return self.rng.next_bounded(self.n),
            Dist::Zipfian {
                alpha,
                zetan,
                eta,
                rank1_bound,
            } => {
                let u = self.rng.next_f64();
                let uz = u * zetan;
                if uz < 1.0 {
                    0
                } else if uz < *rank1_bound {
                    1
                } else {
                    let r = (self.n as f64 * (eta * u - eta + 1.0).powf(*alpha)) as u64;
                    r.min(self.n - 1)
                }
            }
        };
        if self.scramble {
            mix64(rank) % self.n
        } else {
            rank
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unscrambled_zipfian_prefers_low_ranks() {
        let mut g = ZipfianGen::new(10_000, KeyDist::Zipfian { theta: 0.99 }, 1).without_scramble();
        let mut rank0 = 0usize;
        let draws = 100_000;
        for _ in 0..draws {
            if g.next_key() == 0 {
                rank0 += 1;
            }
        }
        // With theta=0.99 and n=10k, rank 0 gets ~1/zetan ≈ 9-10% of draws.
        let frac = rank0 as f64 / draws as f64;
        assert!(frac > 0.05, "hottest key got only {frac}");
    }

    #[test]
    fn higher_theta_is_more_skewed() {
        let hot_mass = |theta: f64| {
            let mut g = ZipfianGen::new(100_000, KeyDist::Zipfian { theta }, 5).without_scramble();
            let mut hot = 0usize;
            for _ in 0..50_000 {
                if g.next_key() < 100 {
                    hot += 1;
                }
            }
            hot
        };
        assert!(hot_mass(1.2) > hot_mass(0.6));
    }

    #[test]
    fn uniform_covers_keyspace_evenly() {
        let mut g = ZipfianGen::new(100, KeyDist::Uniform, 3);
        let mut counts = [0u32; 100];
        for _ in 0..100_000 {
            counts[g.next_key() as usize] += 1;
        }
        let (min, max) = (*counts.iter().min().unwrap(), *counts.iter().max().unwrap());
        assert!(max < 2 * min, "uniform draw too lumpy: {min}..{max}");
    }

    #[test]
    fn keys_stay_in_range() {
        for dist in [KeyDist::Zipfian { theta: 0.99 }, KeyDist::Uniform] {
            let mut g = ZipfianGen::new(97, dist, 11);
            for _ in 0..10_000 {
                assert!(g.next_key() < 97);
            }
        }
    }

    #[test]
    fn scrambling_moves_the_hot_key() {
        let mut plain =
            ZipfianGen::new(1_000_000, KeyDist::Zipfian { theta: 0.99 }, 2).without_scramble();
        let mut scrambled = ZipfianGen::new(1_000_000, KeyDist::Zipfian { theta: 0.99 }, 2);
        // Most frequent plain key is 0; scrambled generator should rarely
        // produce 0.
        let mut zero_plain = 0;
        let mut zero_scrambled = 0;
        for _ in 0..10_000 {
            if plain.next_key() == 0 {
                zero_plain += 1;
            }
            if scrambled.next_key() == 0 {
                zero_scrambled += 1;
            }
        }
        assert!(zero_plain > 100);
        assert!(zero_scrambled < zero_plain / 10);
    }

    /// A seeded stream is the one the per-draw formula gives, draw for
    /// draw, with `1 + 0.5^θ` recomputed on every draw.
    #[test]
    fn draws_match_the_per_draw_formula() {
        let n = 100_000u64;
        for (theta, seed) in [(0.5, 3), (0.99, 42), (1.2, 7)] {
            let mut g = ZipfianGen::new(n, KeyDist::Zipfian { theta }, seed);
            let mut rng = SplitMix64::new(seed);
            let zetan = zeta(n, theta);
            let alpha = 1.0 / (1.0 - theta);
            let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2, theta) / zetan);
            let mut rank1 = 0;
            for i in 0..100_000 {
                let u = rng.next_f64();
                let uz = u * zetan;
                let rank = if uz < 1.0 {
                    0
                } else if uz < 1.0 + 0.5f64.powf(theta) {
                    rank1 += 1;
                    1
                } else {
                    ((n as f64 * (eta * u - eta + 1.0).powf(alpha)) as u64).min(n - 1)
                };
                assert_eq!(g.next_key(), mix64(rank) % n, "θ {theta}: draw {i}");
            }
            assert!(rank1 > 0, "θ {theta}: no draw took rank 1");
        }
    }

    #[test]
    #[should_panic(expected = "keyspace")]
    fn empty_keyspace_panics() {
        let _ = ZipfianGen::new(0, KeyDist::Uniform, 0);
    }

    #[test]
    fn zeta_matches_hand_computation() {
        let z = zeta(3, 1.0_f64.next_down());
        // ~ 1 + 1/2 + 1/3
        assert!((z - 1.8333).abs() < 0.01);
    }
}
