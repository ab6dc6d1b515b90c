//! Shared experiment plumbing: scaled device configurations, the scan
//! recipe, and table/CSV output helpers.

use std::path::{Path, PathBuf};

use anykey_core::pink::segment::SEG_ENTRY_OVERHEAD;
use anykey_core::{DeviceConfig, DeviceConfigBuilder, EngineKind};
use anykey_metrics::report::fmt_ns;
use anykey_metrics::{LatencyHist, Table};
use anykey_workload::WorkloadSpec;

/// Experiment scale knobs. Defaults reproduce the paper's ratios on a
/// 128 MiB device (the paper's 64 GB scaled down, DRAM at the same 0.1% ratio).
/// Each workload fills toward PinK's analytic full point (the paper runs
/// the device full, which is what makes PinK's GC pathological), capped so
/// the AnyKey variants' group area also fits; the Figure 14 experiment
/// measures the true full points empirically.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Raw device capacity in bytes.
    pub capacity: u64,
    /// Fraction of raw capacity filled with unique KV pairs during
    /// warm-up.
    pub fill: f64,
    /// Measured requests, as a multiple of `capacity / pair_bytes`
    /// (the paper issues 2× the device capacity).
    pub ops_factor: f64,
    /// Output directory for CSV series.
    pub out_dir: PathBuf,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Scale {
    fn default() -> Self {
        Self {
            capacity: 128 << 20,
            fill: 0.55,
            ops_factor: 2.0,
            out_dir: PathBuf::from("results"),
            seed: 0xA17_5EED,
        }
    }
}

impl Scale {
    /// A faster, smaller scale for smoke runs (`--quick`): the smallest
    /// capacity with one 1 MiB block per chip on the paper's 64-chip
    /// geometry.
    pub fn quick(mut self) -> Self {
        self.capacity = 64 << 20;
        self.ops_factor = 0.5;
        self.fill = 0.45;
        self
    }

    /// Effective fill fraction for a workload: the paper fills the device,
    /// so we target ~90% of PinK's analytic full point (PinK stores an
    /// extra `key + SEG_ENTRY_OVERHEAD`-byte meta copy per pair), capped by
    /// `fill` so the AnyKey variants' group area also fits.
    pub fn fill_for(&self, spec: WorkloadSpec) -> f64 {
        let meta_bytes = u64::from(spec.key_len) + SEG_ENTRY_OVERHEAD;
        let meta_ratio = meta_bytes as f64 / spec.pair_bytes() as f64;
        (0.72 / (1.0 + meta_ratio)).min(self.fill)
    }

    /// Number of unique keys a workload's warm-up inserts.
    pub fn keyspace(&self, spec: WorkloadSpec) -> u64 {
        ((self.capacity as f64 * self.fill_for(spec)) / spec.pair_bytes() as f64) as u64
    }

    /// Number of measured operations for a workload.
    pub fn measured_ops(&self, spec: WorkloadSpec) -> u64 {
        ((self.capacity as f64 * self.ops_factor) / spec.pair_bytes() as f64) as u64
    }

    /// The device DRAM every standard configuration gets at this capacity
    /// ([`DeviceConfig`]'s default).
    pub fn dram_bytes(&self) -> u64 {
        DeviceConfig::builder()
            .capacity_bytes(self.capacity)
            .build()
            .dram_bytes
    }

    /// The standard device configuration for one system under one
    /// workload (paper Section 5.1 ratios).
    pub fn device(&self, kind: EngineKind, spec: WorkloadSpec) -> DeviceConfig {
        self.device_builder(kind, spec).build()
    }

    /// The builder of [`Self::device`], for experiments that vary one
    /// knob of the standard configuration.
    pub fn device_builder(&self, kind: EngineKind, spec: WorkloadSpec) -> DeviceConfigBuilder {
        let mut b = DeviceConfig::builder();
        b.capacity_bytes(self.capacity)
            .engine(kind)
            .key_len(spec.key_len as u16);
        b
    }

    /// Joins a file name onto the output directory.
    pub fn out(&self, name: &str) -> PathBuf {
        self.out_dir.join(name)
    }
}

/// Experiment context: scale plus console/file sinks.
#[derive(Debug, Clone)]
pub struct ExpCtx {
    /// Scale knobs.
    pub scale: Scale,
    /// Record raw trace events during measured phases (`--trace`). Pure
    /// observation: the simulated timings are identical either way.
    pub trace: bool,
    /// Virtual ns between periodic state samples during measured phases
    /// (`--timeline-interval`); 0 disables sampling entirely. Pure
    /// observation, like tracing.
    pub timeline_interval_ns: u64,
}

impl ExpCtx {
    /// A context at the given scale, tracing and timeline sampling off.
    pub fn new(scale: Scale) -> Self {
        Self {
            scale,
            trace: false,
            timeline_interval_ns: 0,
        }
    }

    /// The Figure 18 scan recipe: 50 % scans of `scan_len` keys, measured
    /// ops reduced 20× (floor 2 000) because scans are heavy.
    pub fn scan_recipe(&self, spec: WorkloadSpec, scan_len: u32) -> crate::scheduler::MeasureSpec {
        crate::scheduler::MeasureSpec {
            scans: Some((0.5, scan_len)),
            ops: Some((self.scale.measured_ops(spec) / 20).max(2_000)),
            seed_salt: 0x5CA7,
            ..Default::default()
        }
    }

    /// Appends one latency CDF to a [`cdf_table`], one row per point.
    pub fn dump_cdf(
        &self,
        cdf: &mut Table,
        workload: &str,
        system: &str,
        series: &str,
        hist: &LatencyHist,
    ) {
        for (ns, frac) in hist.cdf() {
            cdf.row([
                workload.to_string(),
                system.to_string(),
                series.to_string(),
                format!("{:.1}", ns as f64 / 1000.0),
                format!("{frac:.6}"),
            ]);
        }
    }
}

/// An empty long-form latency-CDF table
/// (`workload,system,series,latency_us,cdf`), filled by
/// [`ExpCtx::dump_cdf`] and [`save`]d without printing.
pub fn cdf_table() -> Table {
    Table::new(
        "latency CDF",
        &["workload", "system", "series", "latency_us", "cdf"],
    )
}

/// Prints a table to stdout and [`save`]s its CSV.
pub fn emit(table: &Table, path: &Path) {
    println!("{table}");
    save(table, path);
}

/// Writes a table's CSV next to the other results, warning on failure.
pub fn save(table: &Table, path: &Path) {
    if let Err(e) = table.write_csv(path) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        println!("  -> {}\n", path.display());
    }
}

/// Formats a latency cell.
pub fn lat(ns: u64) -> String {
    fmt_ns(ns)
}

/// Formats an IOPS cell (virtual-time kIOPS).
pub fn kiops(v: f64) -> String {
    format!("{:.1}", v / 1000.0)
}
