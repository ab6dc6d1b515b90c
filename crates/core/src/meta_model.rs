//! Analytic metadata-size model (the paper's Table 1 and Section 6.8).
//!
//! Given a device capacity, a DRAM budget and a workload's key/value sizes,
//! these closed-form formulas compute how much metadata PinK and AnyKey
//! need, assuming the device is full of unique KV pairs. The Table 1 and
//! §6.8 experiments print these numbers directly; small-scale empirical
//! checks against the real engines live in the integration tests. Every
//! entry size comes from the engines' own definitions and every device
//! default from [`DeviceConfig`], so the model cannot drift from them.

use crate::anykey::group::{level_list_entry_bytes, HASH_ENTRY_BYTES};
use crate::pink::segment::{LIST_ENTRY_OVERHEAD, SEG_ENTRY_OVERHEAD};
use crate::DeviceConfig;

/// Inputs to the metadata model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetaModel {
    /// Device capacity in bytes (the paper uses 64 GB; §6.8 scales to
    /// 4 TB).
    pub capacity_bytes: u64,
    /// Device DRAM in bytes (64 MB for 64 GB; 4 GB for 4 TB).
    pub dram_bytes: u64,
    /// Usable page payload in bytes.
    pub page_payload: u64,
    /// Pages per data segment group (AnyKey).
    pub group_pages: u64,
    /// Key size in bytes.
    pub key_len: u64,
    /// Value size in bytes.
    pub value_len: u64,
}

/// The metadata footprint of both designs for one configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetaSizes {
    /// Number of KV pairs the full device holds.
    pub pairs: u64,
    /// PinK: total meta-segment bytes (`(key + SEG_ENTRY_OVERHEAD) ×
    /// pairs`).
    pub pink_meta_segments: u64,
    /// PinK: level-list bytes (one `(key + LIST_ENTRY_OVERHEAD)` entry per
    /// page-sized segment).
    pub pink_level_lists: u64,
    /// AnyKey: level-list bytes (one group-granular entry per group).
    pub anykey_level_lists: u64,
    /// AnyKey: hash-list bytes actually kept (fills remaining DRAM, capped
    /// at `HASH_ENTRY_BYTES × pairs`).
    pub anykey_hash_lists: u64,
}

impl MetaSizes {
    /// PinK's total metadata demand (Table 1's "Sum" column).
    pub fn pink_sum(&self) -> u64 {
        self.pink_meta_segments + self.pink_level_lists
    }

    /// AnyKey's total DRAM metadata (never exceeds the DRAM budget by
    /// construction).
    pub fn anykey_sum(&self) -> u64 {
        self.anykey_level_lists + self.anykey_hash_lists
    }
}

impl MetaModel {
    /// The paper's default model shape for a capacity: [`DeviceConfig`]'s
    /// defaults (0.1 % DRAM, 8 KiB pages, 32-page groups) at that
    /// capacity.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not a whole number of blocks on every
    /// chip of the paper's geometry (see [`DeviceConfig::builder`]).
    pub fn paper(capacity_bytes: u64, key_len: u64, value_len: u64) -> Self {
        let cfg = DeviceConfig::builder()
            .capacity_bytes(capacity_bytes)
            .build();
        Self {
            capacity_bytes,
            dram_bytes: cfg.dram_bytes,
            page_payload: u64::from(cfg.page_payload()),
            group_pages: u64::from(cfg.group_pages),
            key_len,
            value_len,
        }
    }

    /// Evaluates the model.
    pub fn sizes(&self) -> MetaSizes {
        let pair = self.key_len + self.value_len;
        let pairs = self.capacity_bytes / pair;

        // PinK: one (key, PPA) entry per pair, packed into page-sized meta
        // segments; one level-list entry per segment.
        let pink_meta_segments = pairs * (self.key_len + SEG_ENTRY_OVERHEAD);
        let segments = pink_meta_segments.div_ceil(self.page_payload);
        let pink_level_lists = segments * (self.key_len + LIST_ENTRY_OVERHEAD);

        // AnyKey: groups of `group_pages` pages; one level-list entry per
        // group.
        let group_bytes = self.group_pages * self.page_payload;
        let groups = self.capacity_bytes.div_ceil(group_bytes);
        let anykey_level_lists = groups * level_list_entry_bytes(self.key_len, self.group_pages);

        // Hash lists fill whatever DRAM remains (Section 4.2).
        let hash_full = pairs * HASH_ENTRY_BYTES;
        let remaining = self.dram_bytes.saturating_sub(anykey_level_lists);
        let anykey_hash_lists = hash_full.min(remaining);

        MetaSizes {
            pairs,
            pink_meta_segments,
            pink_level_lists,
            anykey_level_lists,
            anykey_hash_lists,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB: u64 = 1 << 30;

    /// Table 1's qualitative claims at the paper's scale (64 GB device,
    /// 64 MB DRAM, v/k ∈ {4.0, 2.0, 1.0}).
    #[test]
    fn table1_pink_grows_as_vk_shrinks_anykey_stays_capped() {
        let dram = 64 * (1 << 20);
        let rows = [(160u64, 40u64), (120, 60), (80, 80)];
        let mut prev_pink = 0;
        for (v, k) in rows {
            let m = MetaModel {
                dram_bytes: dram,
                ..MetaModel::paper(64 * GB, k, v)
            };
            let s = m.sizes();
            // PinK's metadata demand exceeds DRAM by orders of magnitude
            // and grows as keys get relatively larger.
            assert!(
                s.pink_sum() > 4 * dram,
                "PinK sum {} too small",
                s.pink_sum()
            );
            assert!(s.pink_sum() > prev_pink);
            prev_pink = s.pink_sum();
            // AnyKey always fits DRAM.
            assert!(
                s.anykey_sum() <= dram,
                "AnyKey sum {} exceeds DRAM {}",
                s.anykey_sum(),
                dram
            );
            // And its level lists alone leave room for hash lists
            // (paper: 29-38 MB of 64 MB).
            assert!(s.anykey_level_lists < dram * 3 / 4);
        }
    }

    /// Section 6.8: a 4 TB device running Crypto1 — PinK's metadata
    /// explodes to tens of GB while AnyKey's stays within a
    /// proportionally-scaled DRAM (4 GB).
    #[test]
    fn section_6_8_scalability() {
        let m = MetaModel {
            dram_bytes: 4 * GB,
            ..MetaModel::paper(4096 * GB, 76, 50)
        };
        let s = m.sizes();
        assert!(
            s.pink_sum() > 100 * GB,
            "PinK demand at 4TB should be far beyond any realistic DRAM"
        );
        assert!(s.anykey_sum() <= 4 * GB);
        assert!(s.anykey_level_lists < 4 * GB);
    }

    #[test]
    fn high_vk_pink_metadata_is_modest() {
        // KVSSD (16B/4096B): PinK's per-pair metadata is tiny relative to
        // the data, which is why PinK was considered fine before this
        // paper.
        let m = MetaModel::paper(64 * GB, 16, 4096);
        let s = m.sizes();
        let ratio = s.pink_sum() as f64 / m.capacity_bytes as f64;
        assert!(ratio < 0.01, "PinK metadata ratio {ratio} should be <1%");
    }

    #[test]
    fn hash_lists_never_exceed_four_bytes_per_pair() {
        let m = MetaModel::paper(GB, 20, 2000);
        let s = m.sizes();
        assert!(s.anykey_hash_lists <= s.pairs * 4);
    }
}
