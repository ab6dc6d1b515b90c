//! # anykey-flash
//!
//! A virtual-time NAND flash SSD simulator, the hardware substrate for the
//! AnyKey / PinK key-value SSD reproduction.
//!
//! The paper ("AnyKey: A Key-Value SSD for All Workload Types", ASPLOS 2025)
//! evaluates on FEMU, a QEMU-based flash emulator with an 8-channel ×
//! 8-chips-per-channel TLC device. This crate reproduces the part of FEMU
//! the experiments depend on:
//!
//! * device **geometry** (channels, chips, blocks, pages, page size),
//! * a **TLC latency model** (per-page-type read/program latencies and a
//!   block erase latency),
//! * a **virtual-time scheduler**: every chip has a busy-until timeline and
//!   each operation issued at time `t` completes at
//!   `max(t, chip_free) + latency`, so foreground requests queue behind
//!   background compaction and garbage-collection traffic exactly as they
//!   do on real hardware,
//! * **cause-tagged counters** for every page read, page program, and block
//!   erase, which the benchmark harness uses to regenerate the paper's
//!   Table 3 (compaction/GC traffic) and Figure 13 (total page writes).
//!
//! Nothing here stores user data: content lives in the simulated FTL
//! structures of `anykey-core`; this crate provides *time* and *accounting*.
//!
//! ```
//! use anykey_flash::{FlashConfig, FlashSim, OpCause, Ppa};
//!
//! let sim_cfg = FlashConfig::small_test();
//! let mut sim = FlashSim::new(sim_cfg);
//! let r = sim.read(Ppa::new(0, 0), OpCause::HostRead, 0);
//! assert!(r.status.is_ok() && r.done > 0);
//! assert_eq!(sim.counters().reads(OpCause::HostRead), 1);
//! ```
//!
//! A deterministic, seed-driven **fault model** ([`FaultModel`], default
//! off) can additionally inject transient read errors (resolved by stepped
//! read-retry on the chip timeline), program failures, and erase failures
//! that retire blocks — see the [`fault`] module.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

/// Physical page addresses and block identifiers.
pub mod address;
/// Free-block bookkeeping and bad-block retirement.
pub mod allocator;
/// Cause-tagged page/erase counters (the paper's Table 3 accounting).
pub mod counters;
/// Seed-driven NAND fault injection (read-retry, program/erase failures).
pub mod fault;
/// Device shape: channels, chips, blocks, pages.
pub mod geometry;
/// TLC latency model for reads, programs, and erases.
pub mod latency;
/// The virtual-time flash device simulator.
pub mod sim;
/// Flash-op lifecycle events for the tracing subsystem.
pub mod trace;

/// Flash addressing primitives.
pub use address::{BlockId, Ppa};
/// Allocator over a contiguous erase-block range, with retirement errors.
pub use allocator::{AllocSkew, BlockAllocator, FreeError};
/// Operation accounting: per-cause counters and their audit error.
pub use counters::{CounterSkew, FlashCounters, OpCause};
/// Deterministic media error model.
pub use fault::FaultModel;
/// Physical device geometry.
pub use geometry::FlashGeometry;
/// Page-type-aware latency tables.
pub use latency::{LatencyModel, PageKind};
/// Simulator configuration, operation outcomes, and the simulator itself.
pub use sim::{
    FlashConfig, FlashOpResult, FlashOpStatus, FlashSim, FlashStateSample, BG_RESIDUAL_NS,
};
/// Flash-op lifecycle events recorded while tracing.
pub use trace::{FlashEvent, FlashOpKind};

/// Simulated time in nanoseconds since the start of the run.
pub type Ns = u64;

/// One microsecond in [`Ns`].
pub const MICROSECOND: Ns = 1_000;
/// One millisecond in [`Ns`].
pub const MILLISECOND: Ns = 1_000_000;
/// One second in [`Ns`].
pub const SECOND: Ns = 1_000_000_000;
