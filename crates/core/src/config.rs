//! Device configuration shared by every engine.

use anykey_flash::{FaultModel, FlashConfig, Ns, MICROSECOND};

use crate::anykey::AnyKeyStore;
use crate::engine::KvEngine;
use crate::pink::PinkStore;

/// Which KV-SSD design to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The PinK baseline (state-of-the-art LSM-tree KV-SSD).
    Pink,
    /// Base AnyKey (paper Sections 4.1–4.6).
    AnyKey,
    /// AnyKey with the enhanced log-triggered compaction (Section 4.7);
    /// the paper's best system across all workload types.
    AnyKeyPlus,
    /// AnyKey without a value log — the Section 6.7 "AnyKey−" ablation.
    AnyKeyNoLog,
}

impl EngineKind {
    /// The paper's display name for this system.
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::Pink => "PinK",
            EngineKind::AnyKey => "AnyKey",
            EngineKind::AnyKeyPlus => "AnyKey+",
            EngineKind::AnyKeyNoLog => "AnyKey-",
        }
    }

    /// The three systems compared throughout the paper's evaluation.
    pub const EVALUATED: [EngineKind; 3] =
        [EngineKind::Pink, EngineKind::AnyKey, EngineKind::AnyKeyPlus];
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// LSM level size ratio: level *i+1* holds `LEVEL_RATIO ×` level *i*.
pub const LEVEL_RATIO: u64 = 8;

/// Free erase blocks each engine keeps in reserve for compaction/GC
/// headroom (over-provisioning).
pub const RESERVE_BLOCKS: usize = 6;

/// Controller hash cost per request: one 32-bit xxHash of a 40-byte key
/// on the 1.2 GHz Cortex-A53 (paper Section 4.6; GET and PUT each hash
/// once). All evaluation data includes these controller costs.
pub const HASH_NS: Ns = 79;

/// DRAM/firmware cost of a request served without flash I/O (buffer hits,
/// metadata-only misses).
pub const DRAM_OP_NS: Ns = 2 * MICROSECOND;

/// Merge-sort cost per KV entity during compaction (paper Section 4.6:
/// ~118 µs to merge two 8192-entity groups, 118 µs / 16384 ≈ 7 ns).
pub const SORT_NS_PER_ENTITY: Ns = 7;

/// Full configuration of a simulated KV-SSD.
///
/// Build one with [`DeviceConfig::builder`]; defaults reproduce the paper's
/// Section 5.1 setup scaled to a 256 MiB device (DRAM held at the paper's
/// 0.1 % of capacity).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceConfig {
    /// Flash geometry and latency model.
    pub flash: FlashConfig,
    /// Device-internal DRAM in bytes (paper default: 0.1 % of capacity).
    pub dram_bytes: u64,
    /// Portion of DRAM reserved for the write buffer (L0).
    pub write_buffer_bytes: u64,
    /// Pages per data segment group (AnyKey; paper default 32).
    pub group_pages: u32,
    /// Value-log capacity in bytes (AnyKey; 0 disables the log).
    pub value_log_bytes: u64,
    /// Which engine to build.
    pub engine: EngineKind,
    /// Key length in bytes for synthesized keys (per-workload, Table 2).
    pub key_len: u16,
}

impl DeviceConfig {
    /// Starts a builder with the default (256 MiB, paper-shaped) setup.
    pub fn builder() -> DeviceConfigBuilder {
        DeviceConfigBuilder::default()
    }

    /// Raw flash capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.flash.geometry.raw_bytes()
    }

    /// Usable page payload after the per-page header.
    pub fn page_payload(&self) -> u32 {
        self.flash.geometry.page_size - crate::PAGE_HEADER_BYTES
    }

    /// Instantiates the configured engine with its own flash device.
    pub fn build_engine(&self) -> Box<dyn KvEngine> {
        match self.engine {
            EngineKind::Pink => Box::new(PinkStore::new(self.clone())),
            EngineKind::AnyKey | EngineKind::AnyKeyPlus | EngineKind::AnyKeyNoLog => {
                Box::new(AnyKeyStore::new(self.clone()))
            }
        }
    }
}

impl Default for DeviceConfig {
    fn default() -> Self {
        DeviceConfigBuilder::default().build()
    }
}

/// Builder for [`DeviceConfig`].
#[derive(Debug, Clone)]
pub struct DeviceConfigBuilder {
    capacity_bytes: u64,
    page_size: u32,
    pages_per_block: u32,
    fault: FaultModel,
    dram_bytes: Option<u64>,
    write_buffer_bytes: Option<u64>,
    group_pages: u32,
    value_log_bytes: Option<u64>,
    engine: EngineKind,
    key_len: u16,
}

impl Default for DeviceConfigBuilder {
    fn default() -> Self {
        Self {
            capacity_bytes: 256 << 20,
            page_size: 8 << 10,
            pages_per_block: 128,
            fault: FaultModel::disabled(),
            dram_bytes: None,
            write_buffer_bytes: None,
            group_pages: 32,
            value_log_bytes: None,
            engine: EngineKind::AnyKeyPlus,
            key_len: 32,
        }
    }
}

impl DeviceConfigBuilder {
    /// Raw flash capacity (default 256 MiB).
    pub fn capacity_bytes(&mut self, bytes: u64) -> &mut Self {
        self.capacity_bytes = bytes;
        self
    }

    /// Flash page size (default 8 KiB; Figure 16 sweeps 4–16 KiB).
    pub fn page_size(&mut self, bytes: u32) -> &mut Self {
        self.page_size = bytes;
        self
    }

    /// Pages per erase block (default 128).
    pub fn pages_per_block(&mut self, pages: u32) -> &mut Self {
        self.pages_per_block = pages;
        self
    }

    /// Media fault model (default: disabled, perfect media). A nonzero
    /// model injects deterministic read retries, program failures, and
    /// block-retiring erase failures; it also makes erased blocks return
    /// to their allocators least-erased-first.
    pub fn fault(&mut self, fault: FaultModel) -> &mut Self {
        self.fault = fault;
        self
    }

    /// Device DRAM (default: capacity / 1024, the paper's 0.1 %; Figure 15
    /// sweeps 0.05–0.15 %).
    pub fn dram_bytes(&mut self, bytes: u64) -> &mut Self {
        self.dram_bytes = Some(bytes);
        self
    }

    /// Write-buffer share of DRAM (default: half of DRAM).
    pub fn write_buffer_bytes(&mut self, bytes: u64) -> &mut Self {
        self.write_buffer_bytes = Some(bytes);
        self
    }

    /// Pages per data segment group (default 32).
    pub fn group_pages(&mut self, pages: u32) -> &mut Self {
        self.group_pages = pages;
        self
    }

    /// Value-log capacity (default: 25 % of device capacity — the paper
    /// reserves half of the remaining capacity for the log; Figure 19
    /// sweeps 5–15 %). Ignored for PinK; forced to 0 for AnyKey−.
    pub fn value_log_bytes(&mut self, bytes: u64) -> &mut Self {
        self.value_log_bytes = Some(bytes);
        self
    }

    /// Engine selection.
    pub fn engine(&mut self, engine: EngineKind) -> &mut Self {
        self.engine = engine;
        self
    }

    /// Key length in bytes for synthesized keys.
    pub fn key_len(&mut self, len: u16) -> &mut Self {
        self.key_len = len;
        self
    }

    /// Finalizes the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the group pages do not divide the pages per block, or if a
    /// block has more than 65,536 pages (an [`Extent`] names a page in 16
    /// bits).
    ///
    /// [`Extent`]: crate::bytelog::Extent
    pub fn build(&self) -> DeviceConfig {
        assert!(
            self.pages_per_block <= 1 << 16,
            "pages per block {} exceed 65,536",
            self.pages_per_block
        );
        let mut flash =
            FlashConfig::paper_shape(self.capacity_bytes, self.page_size, self.pages_per_block);
        flash.fault = self.fault;
        let dram_bytes = self.dram_bytes.unwrap_or(self.capacity_bytes / 1024);
        // The buffer gets a floor of 128 KiB so that flush granularity is
        // not distorted at scaled-down capacities (the paper's 64 GB
        // device has a multi-MB buffer); the metadata budget is charged
        // at most half of DRAM regardless (see DramBudget usage).
        let write_buffer_bytes = self
            .write_buffer_bytes
            .unwrap_or_else(|| (dram_bytes / 2).max(128 << 10));
        assert!(
            self.pages_per_block.is_multiple_of(self.group_pages),
            "group pages {} must divide pages per block {}",
            self.group_pages,
            self.pages_per_block
        );
        let value_log_bytes = match self.engine {
            EngineKind::Pink | EngineKind::AnyKeyNoLog => 0,
            _ => self.value_log_bytes.unwrap_or(self.capacity_bytes / 4),
        };
        DeviceConfig {
            flash,
            dram_bytes,
            write_buffer_bytes,
            group_pages: self.group_pages,
            value_log_bytes,
            engine: self.engine,
            key_len: self.key_len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_ratios() {
        let cfg = DeviceConfig::default();
        assert_eq!(cfg.capacity_bytes(), 256 << 20);
        // 0.1% DRAM ratio.
        assert_eq!(cfg.dram_bytes, (256 << 20) / 1024);
        assert_eq!(cfg.write_buffer_bytes, (cfg.dram_bytes / 2).max(128 << 10));
        assert_eq!(cfg.group_pages, 32);
    }

    #[test]
    fn pink_has_no_value_log() {
        let cfg = DeviceConfig::builder().engine(EngineKind::Pink).build();
        assert_eq!(cfg.value_log_bytes, 0);
        let cfg = DeviceConfig::builder()
            .engine(EngineKind::AnyKeyNoLog)
            .value_log_bytes(123 << 20)
            .build();
        assert_eq!(cfg.value_log_bytes, 0);
    }

    #[test]
    fn anykey_default_log_is_quarter_capacity() {
        let cfg = DeviceConfig::builder().engine(EngineKind::AnyKey).build();
        assert_eq!(cfg.value_log_bytes, (256 << 20) / 4);
    }

    #[test]
    fn small_dram_gets_buffer_floor() {
        let cfg = DeviceConfig::builder().dram_bytes(64 << 10).build();
        assert_eq!(cfg.write_buffer_bytes, 128 << 10);
    }

    #[test]
    #[should_panic(expected = "group pages")]
    fn misaligned_group_panics() {
        let _ = DeviceConfig::builder().group_pages(48).build();
    }

    #[test]
    #[should_panic(expected = "pages per block")]
    fn oversized_block_panics() {
        let _ = DeviceConfig::builder()
            .pages_per_block(1 << 17)
            .group_pages(32)
            .build();
    }

    #[test]
    fn fault_and_residual_knobs_reach_flash_config() {
        let fault = FaultModel::uniform(9, 10_000);
        let cfg = DeviceConfig::builder().fault(fault).build();
        assert_eq!(cfg.flash.fault, fault);
        let default = DeviceConfig::default();
        assert!(!default.flash.fault.is_enabled());
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(EngineKind::Pink.label(), "PinK");
        assert_eq!(EngineKind::AnyKeyPlus.label(), "AnyKey+");
        assert_eq!(EngineKind::EVALUATED.len(), 3);
    }
}
