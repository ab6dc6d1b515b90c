//! Deterministic, seed-driven NAND fault injection.
//!
//! The paper evaluates on FEMU, a perfect-media emulator: every page read,
//! page program, and block erase succeeds. Real NAND does not behave this
//! way — raw bit-error rates grow with block wear until the on-die ECC
//! needs *stepped read-retry* (re-sensing the page at shifted reference
//! voltages), programs occasionally fail and force the FTL to re-place the
//! page elsewhere, and erase failures grow the bad-block list. Full-system
//! SSD simulators (SimpleSSD, Amber) model these as first-class events;
//! this module brings the same error modes to the AnyKey reproduction.
//!
//! Everything is **deterministic**: fault decisions come from a SplitMix64
//! hash of `(seed, block, page, op-sequence, retry-step)`, never from
//! wall-clock time or an OS entropy source. Two runs with the same seed and
//! the same operation sequence inject byte-identical faults, so latency
//! results under faulty media are exactly reproducible. With the default
//! (all-zero) model the simulator takes none of the fault branches and the
//! device behaves exactly as before — the zero-cost default path.
//!
//! Probabilities are expressed in **parts per million**
//! ([`PPM_SCALE`](crate::fault::PPM_SCALE)) and grow linearly with the
//! block's program/erase (P/E) count, matching the wear-dependent
//! raw-bit-error profiles in the NAND literature.

/// Denominator of every fault probability: draws are uniform in
/// `0..PPM_SCALE`, so a field value of `1_000` means a 0.1 % chance.
pub const PPM_SCALE: u64 = 1_000_000;

/// SplitMix64: a tiny, high-quality 64-bit mixer. Used as a stateless PRNG
/// keyed by the operation's identity rather than as a sequential generator,
/// so fault decisions depend only on `(seed, ppa, op-sequence)`.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One deterministic draw in `0..PPM_SCALE` for the operation identified by
/// the key fields.
fn draw(seed: u64, block: u32, page: u32, seq: u64, step: u32) -> u64 {
    let key = seed
        ^ splitmix64(u64::from(block) << 32 | u64::from(page))
        ^ splitmix64(seq.wrapping_mul(0xA076_1D64_78BD_642F))
        ^ u64::from(step).wrapping_mul(0xE703_7ED1_A0B4_28DB);
    splitmix64(key) % PPM_SCALE
}

/// Seed-driven NAND error model, part of [`crate::FlashConfig`].
///
/// All-zero rates (the [`Default`]) disable injection entirely; the
/// simulator then never consults the model and behaves byte-identically to
/// a fault-free device. Rates are in parts per million and grow linearly
/// with block wear (P/E count), so a long-running workload sees its media
/// degrade over time the way real TLC does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultModel {
    /// Seed mixed into every fault draw. Runs with equal seeds and equal
    /// operation sequences inject identical faults.
    pub seed: u64,
    /// Probability (ppm) that a page read at zero wear needs at least one
    /// retry step before ECC decodes it.
    pub read_error_ppm: u32,
    /// Additional read-error ppm per P/E cycle of the page's block.
    pub read_error_ppm_per_pe: u32,
    /// Upper bound on retry steps per read; after this many shifted-voltage
    /// senses the read is considered hard-decoded and returns data. Each
    /// step re-pays the page sense latency on the chip timeline.
    pub max_read_retries: u32,
    /// Probability (ppm) that a page program fails at zero wear.
    pub program_fail_ppm: u32,
    /// Additional program-failure ppm per P/E cycle of the block.
    pub program_fail_ppm_per_pe: u32,
    /// Probability (ppm) that a block erase fails at zero wear, retiring
    /// the block.
    pub erase_fail_ppm: u32,
    /// Additional erase-failure ppm per P/E cycle of the block.
    pub erase_fail_ppm_per_pe: u32,
}

impl Default for FaultModel {
    fn default() -> Self {
        Self::disabled()
    }
}

impl FaultModel {
    /// The perfect-media model: no faults are ever injected.
    pub fn disabled() -> Self {
        Self {
            seed: 0,
            read_error_ppm: 0,
            read_error_ppm_per_pe: 0,
            max_read_retries: 7,
            program_fail_ppm: 0,
            program_fail_ppm_per_pe: 0,
            erase_fail_ppm: 0,
            erase_fail_ppm_per_pe: 0,
        }
    }

    /// A proportional profile for sweeps: read errors at `read_error_ppm`,
    /// program failures at an eighth of that, erase failures at a
    /// sixteenth, each growing by 1/64 of its base per P/E cycle.
    pub fn uniform(seed: u64, read_error_ppm: u32) -> Self {
        Self {
            seed,
            read_error_ppm,
            read_error_ppm_per_pe: read_error_ppm / 64,
            max_read_retries: 7,
            program_fail_ppm: read_error_ppm / 8,
            program_fail_ppm_per_pe: read_error_ppm / 512,
            erase_fail_ppm: read_error_ppm / 16,
            erase_fail_ppm_per_pe: read_error_ppm / 1024,
        }
    }

    /// Whether any fault class has a nonzero rate. When false the simulator
    /// skips the model entirely.
    pub fn is_enabled(&self) -> bool {
        self.read_error_ppm != 0
            || self.read_error_ppm_per_pe != 0
            || self.program_fail_ppm != 0
            || self.program_fail_ppm_per_pe != 0
            || self.erase_fail_ppm != 0
            || self.erase_fail_ppm_per_pe != 0
    }

    /// Wear-scaled probability in `0..=PPM_SCALE`.
    fn scaled(base: u32, per_pe: u32, wear: u32) -> u64 {
        let grown = u64::from(per_pe).saturating_mul(u64::from(wear));
        u64::from(base).saturating_add(grown).min(PPM_SCALE)
    }

    /// Number of retry steps a read of `(block, page)` at the given wear
    /// needs before it decodes. Step `s` fails with probability
    /// `p >> s` — each shifted-voltage sense is exponentially more likely
    /// to succeed — capped at [`FaultModel::max_read_retries`].
    pub(crate) fn read_retries(&self, wear: u32, block: u32, page: u32, seq: u64) -> u32 {
        let p = Self::scaled(self.read_error_ppm, self.read_error_ppm_per_pe, wear);
        let mut retries = 0;
        while retries < self.max_read_retries {
            if draw(self.seed, block, page, seq, retries) >= p >> retries {
                break;
            }
            retries += 1;
        }
        retries
    }

    /// Whether the program of `(block, page)` at the given wear fails.
    pub(crate) fn program_fails(&self, wear: u32, block: u32, page: u32, seq: u64) -> bool {
        let p = Self::scaled(self.program_fail_ppm, self.program_fail_ppm_per_pe, wear);
        p > 0 && draw(self.seed, block, page, seq, u32::MAX) < p
    }

    /// Whether the erase of `block` at the given wear fails (retiring it).
    pub(crate) fn erase_fails(&self, wear: u32, block: u32, seq: u64) -> bool {
        let p = Self::scaled(self.erase_fail_ppm, self.erase_fail_ppm_per_pe, wear);
        p > 0 && draw(self.seed, block, u32::MAX, seq, u32::MAX) < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_disabled() {
        assert!(!FaultModel::default().is_enabled());
        assert_eq!(FaultModel::default(), FaultModel::disabled());
    }

    #[test]
    fn uniform_is_enabled_and_proportional() {
        let m = FaultModel::uniform(7, 8_000);
        assert!(m.is_enabled());
        assert_eq!(m.program_fail_ppm, 1_000);
        assert_eq!(m.erase_fail_ppm, 500);
    }

    #[test]
    fn draws_are_deterministic() {
        let m = FaultModel::uniform(42, 300_000);
        for seq in 0..64 {
            assert_eq!(m.read_retries(3, 9, 17, seq), m.read_retries(3, 9, 17, seq));
            assert_eq!(
                m.program_fails(3, 9, 17, seq),
                m.program_fails(3, 9, 17, seq)
            );
            assert_eq!(m.erase_fails(3, 9, seq), m.erase_fails(3, 9, seq));
        }
    }

    #[test]
    fn zero_rates_never_fire() {
        let m = FaultModel::disabled();
        for seq in 0..256 {
            assert_eq!(m.read_retries(1000, 1, 2, seq), 0);
            assert!(!m.program_fails(1000, 1, 2, seq));
            assert!(!m.erase_fails(1000, 1, seq));
        }
    }

    #[test]
    fn certain_error_caps_at_max_retries() {
        let m = FaultModel {
            read_error_ppm: 1_000_000,
            max_read_retries: 5,
            ..FaultModel::disabled()
        };
        // Step 0 fails with certainty; later steps halve the probability,
        // so the count is between 1 and the cap and deterministic.
        let r = m.read_retries(0, 0, 0, 0);
        assert!((1..=5).contains(&r), "retries {r} out of range");
    }

    #[test]
    fn wear_raises_error_rates() {
        let m = FaultModel {
            read_error_ppm: 0,
            read_error_ppm_per_pe: 10_000,
            ..FaultModel::disabled()
        };
        let fired_fresh: u32 = (0..512).map(|s| m.read_retries(0, 0, 0, s).min(1)).sum();
        let fired_worn: u32 = (0..512).map(|s| m.read_retries(90, 0, 0, s).min(1)).sum();
        assert_eq!(fired_fresh, 0, "zero wear means zero rate");
        assert!(fired_worn > 0, "wear must grow the error rate");
    }
}
