//! Flash-op lifecycle events for the virtual-time tracing subsystem.
//!
//! The simulator records one [`FlashEvent`] per page read, page program,
//! and block erase while tracing is enabled (see
//! [`crate::FlashSim::set_tracing`]). Recording is pure observation: it
//! never perturbs the chip timelines, so enabling tracing cannot change a
//! run's virtual-time results. Recording is always compiled in and
//! switched at run time; with tracing off each hook is one branch.
//!
//! This crate stays dependency-free, so events here use the crate's own
//! typed vocabulary ([`crate::OpCause`], [`crate::Ns`]); `anykey-core`
//! converts them into the serializable `anykey-metrics` trace model,
//! attaching the channel derived from the geometry.

use crate::{Ns, OpCause};

/// Kind of flash operation a [`FlashEvent`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlashOpKind {
    /// A page read (including any read-retry steps in its latency).
    Read,
    /// A page program.
    Program,
    /// A block erase.
    Erase,
}

impl FlashOpKind {
    /// Stable lowercase name used by the trace exporters.
    pub fn as_str(self) -> &'static str {
        match self {
            FlashOpKind::Read => "read",
            FlashOpKind::Program => "program",
            FlashOpKind::Erase => "erase",
        }
    }
}

/// One flash operation's lifecycle as the chip scheduler saw it.
///
/// `issued ≤ start ≤ done` always holds; `start − issued` is the queueing
/// stall the op suffered behind other traffic on its chip, and
/// `done − start` is the chip-busy time (including read-retry steps).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlashEvent {
    /// Operation kind.
    pub op: FlashOpKind,
    /// Cause tag; `None` for erases (which carry no host-visible cause).
    pub cause: Option<OpCause>,
    /// Chip the operation ran on.
    pub chip: u32,
    /// Virtual ns the operation was issued (entered the chip queue).
    pub issued: Ns,
    /// Virtual ns the chip started executing the operation.
    pub start: Ns,
    /// Virtual ns the operation completed.
    pub done: Ns,
    /// Media read-retry steps the operation needed (fault injection).
    pub retries: u32,
}

impl FlashEvent {
    /// Stable cause name for exporters: the [`OpCause`] tag, or `"erase"`.
    pub fn cause_str(&self) -> &'static str {
        self.cause.map_or("erase", OpCause::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_kind_names_are_stable() {
        assert_eq!(FlashOpKind::Read.as_str(), "read");
        assert_eq!(FlashOpKind::Program.as_str(), "program");
        assert_eq!(FlashOpKind::Erase.as_str(), "erase");
    }

    #[test]
    fn cause_str_falls_back_to_erase() {
        let ev = FlashEvent {
            op: FlashOpKind::Erase,
            cause: None,
            chip: 0,
            issued: 0,
            start: 0,
            done: 1,
            retries: 0,
        };
        assert_eq!(ev.cause_str(), "erase");
        let ev2 = FlashEvent {
            cause: Some(OpCause::GcRead),
            op: FlashOpKind::Read,
            ..ev
        };
        assert_eq!(ev2.cause_str(), "gc-read");
    }
}
