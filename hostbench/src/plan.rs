//! The four reference workloads and the sizes each one runs at.

use anykey_core::{DeviceConfig, EngineKind};
use anykey_workload::ops::fill_ops;
use anykey_workload::{spec, Op, OpStream, OpStreamBuilder, WorkloadSpec};

/// One reference workload. Each one stresses a different layer; see the
/// benchmark's README for which metric each should move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// RTDATA on AnyKey+: metadata fits the device DRAM, so host time goes
    /// to the AnyKey GET path and value-log reads.
    RtdataAnyKeyPlus,
    /// The same op stream on PinK: level lists spill to flash, so host
    /// time goes to meta-segment search and compaction. No AnyKey code runs.
    RtdataPink,
    /// The Figure 14 recipe: unique RTDATA inserts on AnyKey+ from empty
    /// until `DeviceFull`. The only regime with material GC.
    RtdataFillAnyKeyPlus,
    /// The Figure 18 recipe on AnyKey+: UDB with 50 % scans of 100 keys.
    /// The only workload that runs the scan merge.
    UdbScanAnyKeyPlus,
}

impl Workload {
    /// Every workload, in the order the README lists them.
    pub const ALL: [Workload; 4] = [
        Workload::RtdataAnyKeyPlus,
        Workload::RtdataPink,
        Workload::RtdataFillAnyKeyPlus,
        Workload::UdbScanAnyKeyPlus,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RtdataAnyKeyPlus => "rtdata-anykeyplus",
            Workload::RtdataPink => "rtdata-pink",
            Workload::RtdataFillAnyKeyPlus => "rtdata-fill-anykeyplus",
            Workload::UdbScanAnyKeyPlus => "udb-scan-anykeyplus",
        }
    }

    /// Looks a workload up by [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The engine under test.
    pub fn engine(self) -> EngineKind {
        match self {
            Workload::RtdataPink => EngineKind::Pink,
            _ => EngineKind::AnyKeyPlus,
        }
    }

    /// Whether this is the fill-until-full recipe (no mixed run phase).
    pub fn is_fill(self) -> bool {
        self == Workload::RtdataFillAnyKeyPlus
    }

    fn spec(self) -> WorkloadSpec {
        let name = match self {
            Workload::UdbScanAnyKeyPlus => "UDB",
            _ => "RTDATA",
        };
        spec::by_name(name).expect("Table 2 lists RTDATA and UDB")
    }
}

/// How big a run is. `Standard` is what the benchmark measures; `Tiny`
/// keeps the same recipes at a size the tests can afford in a debug build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The measured scale: the `--quick` device of the bench harness.
    Standard,
    /// A smoke-test scale.
    Tiny,
}

/// Everything one simulated point needs: the device, the workload, and
/// how many operations each phase issues.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Which workload this is.
    pub workload: Workload,
    /// The device configuration (engine, capacity, DRAM, key length).
    pub cfg: DeviceConfig,
    /// Key and value sizes.
    pub spec: WorkloadSpec,
    /// Load-phase inserts: the warm-up keyspace, or for the fill the
    /// inserts before the run phase starts.
    pub load_ops: u64,
    /// Run-phase operations; for the fill, an upper bound (it stops at
    /// `DeviceFull`).
    pub run_ops: u64,
    /// Seed of every generated input.
    pub seed: u64,
    /// Host seconds one untraced repeat of the point, with its set-up
    /// samples, takes on the reference machine (a shared 2-vCPU VM at
    /// 2.1 GHz) while neighbours slow it; sets how many repeats fit a
    /// run's time budget, so that even then a run makes them all.
    pub nominal_repeat_s: f64,
}

impl Plan {
    /// The plan of `workload` at `size`, with inputs drawn from `seed`.
    pub fn new(workload: Workload, size: Size, seed: u64) -> Plan {
        let spec = workload.spec();
        // Standard is the harness's `--quick` device: the smallest
        // paper-shaped one, a 1 MiB block on each of 64 chips. The fill
        // runs on half of it (half-size blocks), so that a repeat is short
        // enough for a run to take many repeats. Tiny keeps one block per
        // chip but shrinks blocks to a single 32-page group.
        let (capacity, pages_per_block) = match (size, workload.is_fill()) {
            (Size::Standard, false) => (64 << 20, 128),
            (Size::Standard, true) => (32 << 20, 64),
            (Size::Tiny, _) => (16 << 20, 32),
        };
        let cfg = DeviceConfig::builder()
            .capacity_bytes(capacity)
            .pages_per_block(pages_per_block)
            .engine(workload.engine())
            .key_len(u16::try_from(spec.key_len).expect("Table 2 keys are short"))
            .build();
        // Keyspaces follow the harness's quick scale, where each warm-up
        // fills the device to ~90 % of PinK's analytic full point (RTDATA
        // ~755 k keys, UDB ~196 k). RTDATA is cut to 600 k because PinK then
        // runs its mixed ops without `DeviceFull` (the harness instead
        // retries at a smaller keyspace). The fill's device is full at
        // 424 763 inserts; its load phase inserts 80 % of them, so its run
        // phase is the last stretch to `DeviceFull`, where GC starts.
        let (load_ops, run_ops, nominal_repeat_s) = match (workload, size) {
            (Workload::RtdataAnyKeyPlus, Size::Standard) => (600_000, 400_000, 3.5),
            (Workload::RtdataPink, Size::Standard) => (600_000, 400_000, 1.6),
            (Workload::RtdataFillAnyKeyPlus, Size::Standard) => (340_000, u64::MAX, 2.1),
            (Workload::UdbScanAnyKeyPlus, Size::Standard) => (196_000, 20_000, 2.2),
            (Workload::RtdataFillAnyKeyPlus, Size::Tiny) => (150_000, u64::MAX, 1.0),
            (Workload::UdbScanAnyKeyPlus, Size::Tiny) => (20_000, 500, 0.1),
            (_, Size::Tiny) => (20_000, 5_000, 0.1),
        };
        Plan {
            workload,
            cfg,
            spec,
            load_ops,
            run_ops,
            seed,
            nominal_repeat_s,
        }
    }

    /// Repeats of the point a run of `seconds` makes: as many as fit on the
    /// reference machine, at least `min`. The count depends only on the
    /// plan, so two commits measured with the same `--seconds` take the
    /// same number of samples.
    pub fn repeats(&self, seconds: f64, min: usize) -> usize {
        ((seconds / self.nominal_repeat_s).round() as usize).max(min)
    }

    /// The load-phase insert stream (the warm-up order of `runner::warm_up`).
    /// For the fill it is the first part of the fill stream.
    pub fn load_stream(&self) -> impl Iterator<Item = Op> {
        fill_ops(self.spec, self.fill_keyspace(), self.seed)
    }

    /// The run-phase op stream of a mixed workload: Zipfian θ 0.99 over the
    /// warmed keyspace, 20 % PUT, plus 50 % scans of 100 keys on UDB.
    /// Building it runs the Zipfian ζ precompute.
    pub fn run_stream(&self) -> OpStream {
        let mut b = OpStreamBuilder::new(self.spec, self.load_ops).seed(self.seed ^ 0xBEEF);
        if self.workload == Workload::UdbScanAnyKeyPlus {
            b = b.scans(0.5, 100);
        }
        b.build()
    }

    /// The keyspace `fill_ops` permutes: the warm-up keyspace, or for the
    /// fill four times the pairs the device can hold (the Figure 14
    /// recipe), so the stream never runs dry before `DeviceFull`.
    pub fn fill_keyspace(&self) -> u64 {
        if self.workload.is_fill() {
            4 * self.cfg.capacity_bytes() / self.spec.pair_bytes()
        } else {
            self.load_ops
        }
    }
}
