//! Host-cost benchmark of the AnyKey simulator.
//!
//! Measures the wall-clock seconds a researcher pays per simulated point
//! on four reference workloads, through the simulator's public entry
//! points only (`DeviceConfig::build_engine`, the workload generators,
//! `runner::warm_up` / `runner::run`, and `KvEngine`). An untraced run
//! reports the end-to-end metrics; a traced run wraps the engine and the
//! op streams in timing adapters and reports where the time went, layer
//! by layer. See `README.md` beside this package's manifest.

pub mod adapters;
pub mod bench;
pub mod plan;
pub mod point;
