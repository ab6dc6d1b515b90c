//! Physical layout of the simulated device.

#![deny(clippy::as_conversions)]

/// Physical geometry of a simulated flash device.
///
/// The paper's testbed is an 8-channel device with 8 flash chips per channel
/// and 8 KB pages (Section 5.1); block size is not reported, so we default to
/// 128 pages per block (1 MiB blocks), which gives the same
/// groups-per-block granularity the paper's 32-page data segment groups
/// need.
///
/// Blocks are numbered globally; consecutive block ids are striped across
/// chips so that sequentially allocated blocks exploit chip parallelism,
/// matching how an FTL stripes superblocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlashGeometry {
    /// Number of channels on the device.
    pub channels: u32,
    /// Number of flash chips attached to each channel.
    pub chips_per_channel: u32,
    /// Number of erase blocks on each chip.
    pub blocks_per_chip: u32,
    /// Number of pages in each erase block.
    pub pages_per_block: u32,
    /// Page size in bytes.
    pub page_size: u32,
}

impl FlashGeometry {
    /// Geometry matching the paper's testbed shape (8 channels × 8 chips,
    /// 8 KiB pages) scaled to the requested raw capacity in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `raw_bytes` is not large enough for at least one block per
    /// chip.
    pub fn paper_shape(raw_bytes: u64, page_size: u32, pages_per_block: u32) -> Self {
        let channels: u32 = 8;
        let chips_per_channel: u32 = 8;
        let chips = u64::from(channels * chips_per_channel);
        let block_bytes = u64::from(page_size) * u64::from(pages_per_block);
        let blocks_per_chip = raw_bytes / (chips * block_bytes);
        assert!(
            blocks_per_chip >= 1,
            "raw capacity {raw_bytes} too small for one {block_bytes}-byte block on each of {chips} chips"
        );
        assert!(
            blocks_per_chip * chips * block_bytes == raw_bytes,
            "raw capacity {raw_bytes} must be a multiple of {} (chips x block bytes), or the device would silently shrink",
            chips * block_bytes
        );
        assert!(
            blocks_per_chip <= u64::from(u32::MAX),
            "raw capacity {raw_bytes} implies {blocks_per_chip} blocks per chip, beyond the 32-bit block-id space"
        );
        // Checked above; saturation can never engage.
        let blocks_per_chip = u32::try_from(blocks_per_chip).unwrap_or(u32::MAX);
        Self {
            channels,
            chips_per_channel,
            blocks_per_chip,
            pages_per_block,
            page_size,
        }
    }

    /// Total number of chips on the device.
    pub fn chips(&self) -> u32 {
        self.channels * self.chips_per_channel
    }

    /// Total number of erase blocks on the device.
    pub fn blocks(&self) -> u32 {
        self.chips() * self.blocks_per_chip
    }

    /// Total number of pages on the device.
    pub fn pages(&self) -> u64 {
        u64::from(self.blocks()) * u64::from(self.pages_per_block)
    }

    /// Raw device capacity in bytes.
    pub fn raw_bytes(&self) -> u64 {
        self.pages() * u64::from(self.page_size)
    }

    /// Bytes per erase block.
    pub fn block_bytes(&self) -> u64 {
        u64::from(self.pages_per_block) * u64::from(self.page_size)
    }

    /// The chip that owns a global block id (blocks are striped round-robin
    /// over chips).
    pub fn chip_of_block(&self, block: u32) -> u32 {
        block % self.chips()
    }

    /// The channel a chip hangs off (chips are grouped per channel:
    /// chips `0..chips_per_channel` on channel 0, and so on). Used by the
    /// trace exporters to label chip tracks.
    pub fn channel_of_chip(&self, chip: u32) -> u32 {
        chip / self.chips_per_channel
    }
}

impl Default for FlashGeometry {
    /// A 256 MiB device in the paper's shape — the default experiment scale
    /// (the paper's 64 GB device scaled 256×, with DRAM scaled by the same
    /// ratio elsewhere).
    fn default() -> Self {
        Self::paper_shape(256 << 20, 8 << 10, 128)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_shape_roundtrips_capacity() {
        let g = FlashGeometry::paper_shape(256 << 20, 8 << 10, 128);
        assert_eq!(g.raw_bytes(), 256 << 20);
        assert_eq!(g.chips(), 64);
        assert_eq!(g.block_bytes(), 1 << 20);
        assert_eq!(g.blocks(), 256);
    }

    #[test]
    fn block_striping_covers_all_chips() {
        let g = FlashGeometry::default();
        let mut seen = vec![false; usize::try_from(g.chips()).unwrap()];
        for b in 0..g.chips() {
            seen[usize::try_from(g.chip_of_block(b)).unwrap()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn paper_shape_rejects_tiny_capacity() {
        let _ = FlashGeometry::paper_shape(1 << 20, 8 << 10, 128);
    }

    #[test]
    fn default_is_256mib() {
        assert_eq!(FlashGeometry::default().raw_bytes(), 256 << 20);
    }
}
