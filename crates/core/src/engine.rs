//! The engine trait every KV-SSD design implements.
//!
//! Tracing and state sampling are required methods; only the
//! `put`/`get`/`delete` conveniences have default bodies.

use anykey_flash::{FlashCounters, Ns};
use anykey_metrics::timeline::StateSample;
use anykey_metrics::trace::{PhaseBreakdown, TraceEvent};
use anykey_workload::Op;

use crate::audit::AuditError;
use crate::config::EngineKind;
use crate::error::KvError;

/// Per-page overhead reserved for ECC/headers in every flash page; the
/// usable payload is `page_size - PAGE_HEADER_BYTES`.
pub const PAGE_HEADER_BYTES: u32 = 64;

/// Result of executing one host operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpOutcome {
    /// Virtual time the operation was issued.
    pub issued_at: Ns,
    /// Virtual time the operation completed.
    pub done_at: Ns,
    /// Whether the key was found (GET/DELETE) or accepted (PUT); for scans,
    /// whether at least one key was returned.
    pub found: bool,
    /// Number of flash page reads on this operation's critical path — the
    /// paper's Figure 11b metric (flash accesses per read request).
    pub flash_reads: u32,
    /// Where the operation's latency went, phase by phase: the five fields
    /// sum exactly to `done_at − issued_at`. Always populated — phase
    /// attribution is cheap arithmetic on the critical path, unlike raw
    /// event tracing.
    pub phases: PhaseBreakdown,
}

impl OpOutcome {
    /// The operation's latency.
    pub fn latency(&self) -> Ns {
        self.done_at - self.issued_at
    }
}

/// Snapshot of an engine's metadata footprint and placement — the inputs to
/// the paper's Table 1 and Figure 11a.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetadataStats {
    /// Bytes of level lists (both engines).
    pub level_list_bytes: u64,
    /// Level-list bytes that did **not** fit in DRAM (PinK under low-v/k).
    pub level_list_flash_bytes: u64,
    /// Total bytes of AnyKey hash lists (resident or not).
    pub hash_list_total_bytes: u64,
    /// Hash-list bytes currently resident in DRAM.
    pub hash_list_resident_bytes: u64,
    /// PinK meta-segment bytes resident in DRAM.
    pub meta_segment_dram_bytes: u64,
    /// PinK meta-segment bytes stored in flash.
    pub meta_segment_flash_bytes: u64,
    /// Configured DRAM capacity.
    pub dram_capacity: u64,
    /// DRAM currently in use (write buffer reservation + resident
    /// metadata).
    pub dram_used: u64,
    /// Number of LSM levels currently populated.
    pub levels: usize,
    /// Bytes of live, unique user KV data — the numerator of the Figure 14
    /// storage-utilization metric.
    pub live_unique_bytes: u64,
    /// Bytes of values currently parked in the value log (AnyKey).
    pub value_log_used_bytes: u64,
    /// Read-retry steps the media needed so far (0 on perfect media).
    pub retry_reads: u64,
    /// Page programs that failed and were re-issued elsewhere.
    pub program_fails: u64,
    /// Block erases that failed.
    pub erase_fails: u64,
    /// Blocks permanently retired as grown bad blocks (all regions).
    pub retired_blocks: u64,
    /// Free erase blocks remaining across the engine's regions — the
    /// headroom the GC triggers watch; shrinks as blocks retire.
    pub free_blocks: u64,
}

impl MetadataStats {
    /// All metadata bytes that want DRAM (the paper's Table 1 "Sum").
    pub fn metadata_bytes(&self) -> u64 {
        self.level_list_bytes
            + self.hash_list_resident_bytes
            + self.meta_segment_dram_bytes
            + self.meta_segment_flash_bytes
    }

    /// Metadata bytes resident in DRAM: the level lists that fit, resident
    /// hash lists and pinned meta segments. The DRAM audit checks the
    /// budget's claims against exactly this sum.
    pub fn dram_resident_bytes(&self) -> u64 {
        self.level_list_bytes - self.level_list_flash_bytes
            + self.hash_list_resident_bytes
            + self.meta_segment_dram_bytes
    }
}

/// A simulated key-value SSD.
///
/// All three systems of the paper (PinK, AnyKey, AnyKey+) implement this
/// trait; the runner and benchmark harness drive them uniformly. Operations
/// carry an *issue time* in virtual nanoseconds and return a completion
/// time; engines schedule their flash traffic (foreground and background)
/// on the shared per-chip timelines, which is how background compaction
/// delays foreground requests.
pub trait KvEngine {
    /// Which design this engine is.
    fn kind(&self) -> EngineKind;

    /// Executes one host operation issued at virtual time `at`.
    ///
    /// # Errors
    ///
    /// Returns [`KvError::DeviceFull`] when a PUT cannot be accepted, and
    /// [`KvError::KeyTooLarge`] for ill-formed key ids.
    fn execute(&mut self, op: &Op, at: Ns) -> Result<OpOutcome, KvError>;

    /// Runs a range scan and returns the key ids found (in key order) with
    /// the outcome; used by correctness tests and the Figure 18 experiment.
    fn scan_keys(&mut self, start: u64, len: u32, at: Ns) -> (Vec<u64>, OpOutcome);

    /// Metadata footprint snapshot.
    fn metadata(&self) -> MetadataStats;

    /// Flash traffic counters (reads/writes/erases per cause).
    fn counters(&self) -> FlashCounters;

    /// Resets the flash counters (end of warm-up).
    fn reset_counters(&mut self);

    /// The virtual time at which all in-flight flash work completes.
    fn horizon(&self) -> Ns;

    /// Raw flash capacity of this engine's region in bytes.
    fn capacity_bytes(&self) -> u64;

    /// Audits the engine's structural invariants: level-list key ordering
    /// and non-overlap, directory sortedness, DRAM budget conservation,
    /// cause-tagged flash counter conservation, and live-byte accounting.
    ///
    /// Cheap relative to a compaction (one pass over in-DRAM metadata);
    /// invoked automatically at flush/compaction/GC boundaries in builds
    /// with debug assertions (`cargo test`, `cargo run`) and called directly
    /// by the test suites.
    ///
    /// # Errors
    ///
    /// Returns the first [`AuditError`] found, naming the violated
    /// invariant with its observed and expected values.
    fn check_invariants(&self) -> Result<(), AuditError>;

    /// Enables or disables trace-event recording (flash-op lifecycles and
    /// engine background spans).
    fn set_tracing(&mut self, on: bool);

    /// Drains the recorded trace events, converted to the serializable
    /// metrics model and sorted by timestamp.
    fn take_trace(&mut self) -> Vec<TraceEvent>;

    /// Snapshots the engine-state half of a telemetry [`StateSample`]:
    /// per-level occupancy, DRAM budget consumers, value-log live/stale
    /// bytes, free-block depth, and erase-count spread. The runner fills
    /// the identity, interval, and cumulative-traffic fields on top.
    ///
    /// Pure observation — implementations must not mutate any state.
    fn sample_state(&self) -> StateSample;

    /// Inserts (or updates) a key at the current horizon — convenience for
    /// examples and tests.
    ///
    /// # Errors
    ///
    /// Returns [`KvError::DeviceFull`] when the device cannot accept the
    /// write.
    fn put(&mut self, key: u64, value_len: u32) -> Result<OpOutcome, KvError> {
        let at = self.horizon();
        self.execute(&Op::Put { key, value_len }, at)
    }

    /// Looks a key up at the current horizon — convenience for examples and
    /// tests. A key id that does not fit the configured key length cannot
    /// have been stored, so it is reported as not found.
    fn get(&mut self, key: u64) -> OpOutcome {
        let at = self.horizon();
        match self.execute(&Op::Get { key }, at) {
            Ok(outcome) => outcome,
            Err(_) => OpOutcome {
                issued_at: at,
                done_at: at,
                found: false,
                flash_reads: 0,
                phases: PhaseBreakdown::default(),
            },
        }
    }

    /// Deletes a key at the current horizon — convenience for examples and
    /// tests.
    ///
    /// # Errors
    ///
    /// Returns [`KvError::DeviceFull`] when the tombstone cannot be
    /// buffered.
    fn delete(&mut self, key: u64) -> Result<OpOutcome, KvError> {
        let at = self.horizon();
        self.execute(&Op::Delete { key }, at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_latency_is_delta() {
        let o = OpOutcome {
            issued_at: 10,
            done_at: 150,
            found: true,
            flash_reads: 2,
            phases: PhaseBreakdown::default(),
        };
        assert_eq!(o.latency(), 140);
    }

    #[test]
    fn metadata_sum_matches_table1_definition() {
        let m = MetadataStats {
            level_list_bytes: 10,
            hash_list_resident_bytes: 20,
            meta_segment_dram_bytes: 5,
            meta_segment_flash_bytes: 7,
            ..MetadataStats::default()
        };
        assert_eq!(m.metadata_bytes(), 42);
    }

    #[test]
    fn dram_resident_bytes_excludes_flash_copies() {
        let m = MetadataStats {
            level_list_bytes: 100,
            level_list_flash_bytes: 30,
            hash_list_total_bytes: 50,
            hash_list_resident_bytes: 20,
            meta_segment_dram_bytes: 5,
            meta_segment_flash_bytes: 7,
            ..MetadataStats::default()
        };
        assert_eq!(m.dram_resident_bytes(), 100 - 30 + 20 + 5);
    }
}
