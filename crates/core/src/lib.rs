//! # anykey-core
//!
//! The key-value SSD engines of the AnyKey reproduction (ASPLOS 2025):
//!
//! * [`anykey::AnyKeyStore`] — the paper's contribution. KV pairs are
//!   managed in *data segment groups* (multiple physically-consecutive
//!   flash pages, hash-sorted inside, key-partitioned across); the
//!   DRAM-resident *level lists* keep one entry per **group** (smallest
//!   key, first-page PPA, per-page first-key hash prefixes, hash-collision
//!   bits) instead of one per KV pair, so metadata stays small under any
//!   key size; *hash lists* (sorted key-hash arrays, best-effort top-down
//!   in remaining DRAM) suppress speculative flash reads; a *value log*
//!   detaches values from LSM-tree compaction. Three variants share the
//!   implementation: base **AnyKey**, **AnyKey+** (modified log-triggered
//!   compaction that prevents compaction chains, Section 4.7), and
//!   **AnyKey−** (no value log; the Section 6.7 ablation).
//! * [`pink::PinkStore`] — the state-of-the-art baseline. Per-pair sorted
//!   *meta segments* with level lists, DRAM spill to flash, data segments
//!   holding full KV pairs, full-level compaction, and valid-data GC.
//!
//! Both engines implement [`KvEngine`] and run over the
//! [`anykey_flash::FlashSim`] virtual-time device, so the benchmark harness
//! can measure tail latencies, IOPS, per-cause flash traffic, and storage
//! utilization for each system under identical workloads.
//!
//! ```
//! use anykey_core::{DeviceConfig, EngineKind, KvEngine};
//!
//! let mut dev = DeviceConfig::builder()
//!     .capacity_bytes(64 << 20)
//!     .engine(EngineKind::AnyKey)
//!     .build()
//!     .build_engine();
//! dev.put(1, 100).unwrap();
//! assert!(dev.get(1).found);
//! assert!(!dev.get(2).found);
//! ```

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

/// The AnyKey engine (paper Sections 4.1-4.7).
pub mod anykey;
/// Runtime invariant auditing for both engines.
pub mod audit;
/// The DRAM write buffer.
pub mod buffer;
/// The byte-packed append-only area behind AnyKey's value log and PinK's
/// data area.
pub mod bytelog;
/// Device and engine configuration.
pub mod config;
/// The device scaffold (flash, buffer, DRAM, ledger, scan merge) both
/// engines embed.
mod device;
/// DRAM budget accounting.
pub mod dram;
/// The `KvEngine` trait and operation outcomes.
pub mod engine;
/// Typed engine errors.
pub mod error;
/// The 32-bit key hash.
pub mod hash;
/// Fixed-length ordered keys.
pub mod key;
/// The per-block live counts all four flash areas keep.
pub mod ledger;
/// Analytic metadata-size model (Figure 2).
pub mod meta_model;
/// The page-granular area behind AnyKey's data segment groups and PinK's
/// meta pages.
pub mod pagearea;
/// The PinK baseline engine.
pub mod pink;
/// Trace execution and latency reporting.
pub mod runner;

/// Invariant-audit failure diagnostics.
pub use audit::AuditError;
/// Device configuration and engine selection.
pub use config::{DeviceConfig, DeviceConfigBuilder, EngineKind};
/// The engine trait and its outcome/stat types.
pub use engine::{KvEngine, MetadataStats, OpOutcome, PAGE_HEADER_BYTES};
/// The engine error type.
pub use error::KvError;
/// The key hash function.
pub use hash::xxhash32;
/// The ordered fixed-length key type.
pub use key::Key;
/// Trace runner entry points.
pub use runner::{run, run_with, warm_up, RunReport, SampleCfg};
