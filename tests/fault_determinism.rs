//! Fault-injection determinism and safety.
//!
//! The fault model is seeded and stateless: two runs with the same seed
//! and the same operation sequence must inject byte-identical faults, do
//! byte-identical recovery work, and land on the same virtual-time
//! horizon. And no injected fault may ever lose a key — reads always
//! recover via retry, failed programs are re-placed, and retired blocks
//! only leave the pool after their live data has moved.

mod common;

use std::collections::BTreeMap;

use anykey::core::{EngineKind, KvEngine};
use anykey::flash::FaultModel;
use anykey::workload::SplitMix64;

/// A small device with plenty of GC churn, so erases (and therefore
/// erase-failure draws) actually happen within a short test run.
fn faulty_device(kind: EngineKind, fault: FaultModel) -> Box<dyn KvEngine> {
    common::test_device(kind)
        .key_len(20)
        .fault(fault)
        .build()
        .build_engine()
}

/// Drives a deterministic PUT/GET/DELETE mix and returns the logical
/// truth (key → value length) at the end.
fn drive(dev: &mut dyn KvEngine, seed: u64, n_ops: usize) -> BTreeMap<u64, u32> {
    let mut oracle: BTreeMap<u64, u32> = BTreeMap::new();
    let mut rng = SplitMix64::new(seed);
    let keyspace = 4_000u64;
    for i in 0..n_ops {
        let key = rng.next_bounded(keyspace);
        match rng.next_bounded(10) {
            0..=3 => {
                let len = 20 + rng.next_bounded(100) as u32;
                dev.put(key, len)
                    .unwrap_or_else(|e| panic!("put at op {i}: {e}"));
                oracle.insert(key, len);
            }
            4 => {
                dev.delete(key)
                    .unwrap_or_else(|e| panic!("delete at op {i}: {e}"));
                oracle.remove(&key);
            }
            _ => {
                let got = dev.get(key);
                assert_eq!(
                    got.found,
                    oracle.contains_key(&key),
                    "get({key}) diverged at op {i}"
                );
            }
        }
    }
    oracle
}

/// Everything a run can externally observe: final virtual time plus every
/// reliability counter.
type Fingerprint = (u64, u64, u64, u64, u64, u64);

/// A run's [`Fingerprint`]. Two identically-seeded runs must agree exactly.
fn fingerprint(dev: &dyn KvEngine) -> Fingerprint {
    let c = dev.counters();
    let m = dev.metadata();
    (
        dev.horizon(),
        c.total_retry_reads(),
        c.program_fails(),
        c.erase_fails(),
        m.retired_blocks,
        m.free_blocks,
    )
}

/// A harsh profile: every fault class fires often enough to be exercised
/// in a 12k-op run on a 16 MiB device.
fn harsh() -> FaultModel {
    FaultModel {
        seed: 0xFA01_7EED,
        read_error_ppm: 20_000,
        read_error_ppm_per_pe: 500,
        max_read_retries: 7,
        program_fail_ppm: 5_000,
        program_fail_ppm_per_pe: 100,
        erase_fail_ppm: 10_000,
        erase_fail_ppm_per_pe: 100,
    }
}

/// The fingerprint, erase count and total page writes of a harsh-profile
/// [`drive`] of 100k ops (seed 7), per engine. Long enough that every
/// engine erases and reallocates blocks, so the pins move whenever the
/// wear-aware (least-erased-first) allocation order does.
const HARSH_PINS: [(EngineKind, Fingerprint, u64, u64); 3] = [
    (
        EngineKind::Pink,
        (7_772_160_000, 1_331, 5, 0, 0, 100),
        13,
        640,
    ),
    (
        EngineKind::AnyKey,
        (7_507_159_318, 1_254, 2, 3, 3, 105),
        46,
        746,
    ),
    (
        EngineKind::AnyKeyPlus,
        (7_507_159_318, 1_254, 2, 3, 3, 105),
        46,
        746,
    ),
];

#[test]
fn identical_seeds_reproduce_identical_runs() {
    for (kind, pinned, erases, writes) in HARSH_PINS {
        let mut a = faulty_device(kind, harsh());
        let mut b = faulty_device(kind, harsh());
        drive(a.as_mut(), 7, 100_000);
        drive(b.as_mut(), 7, 100_000);
        let fa = fingerprint(a.as_ref());
        let fb = fingerprint(b.as_ref());
        assert_eq!(fa, fb, "{kind}: identically-seeded runs diverged");
        assert!(fa.1 > 0, "{kind}: harsh profile must cause read retries");
        assert_eq!(fa, pinned, "{kind}: fingerprint moved");
        let c = a.counters();
        assert_eq!(c.erases(), erases, "{kind}: erase count moved");
        assert_eq!(c.total_writes(), writes, "{kind}: page writes moved");
    }
}

#[test]
fn different_fault_seeds_diverge() {
    // Sanity check on the fingerprint itself: a different fault seed must
    // move at least the retry counter, otherwise the determinism test
    // above would pass vacuously.
    let mut a = faulty_device(EngineKind::AnyKeyPlus, harsh());
    let mut b = faulty_device(
        EngineKind::AnyKeyPlus,
        FaultModel {
            seed: 0x0DD5_EED5,
            ..harsh()
        },
    );
    drive(a.as_mut(), 7, 100_000);
    drive(b.as_mut(), 7, 100_000);
    assert_ne!(
        fingerprint(a.as_ref()),
        fingerprint(b.as_ref()),
        "different fault seeds produced identical fingerprints"
    );
}

#[test]
fn no_keys_lost_under_faults() {
    for kind in [EngineKind::Pink, EngineKind::AnyKey, EngineKind::AnyKeyPlus] {
        let mut dev = faulty_device(kind, harsh());
        let oracle = drive(dev.as_mut(), 11, 100_000);
        for (&k, _) in oracle.iter() {
            assert!(dev.get(k).found, "{kind} lost key {k} under faults");
        }
        for k in (0..4_000u64).step_by(13) {
            if !oracle.contains_key(&k) {
                assert!(!dev.get(k).found, "{kind} resurrected key {k}");
            }
        }
        dev.check_invariants()
            .unwrap_or_else(|e| panic!("{kind} failed audit after faulty run: {e}"));
    }
}

#[test]
fn recovery_work_is_visible_in_counters() {
    // Erase failures are the rarest class (one draw per GC erase), so give
    // them a high base rate to observe actual block retirement.
    let model = FaultModel {
        seed: 0x0BAD_B0B5,
        program_fail_ppm: 50_000,
        erase_fail_ppm: 40_000,
        ..harsh()
    };
    let mut dev = faulty_device(EngineKind::AnyKeyPlus, model);
    // Large values over a small keyspace: total bytes written exceed the
    // device several times over, so GC runs continuously and erases (the
    // only operations that draw erase faults) happen by the hundreds.
    let mut rng = SplitMix64::new(3);
    for i in 0..8_000usize {
        let key = rng.next_bounded(1_000);
        let len = 1_024 + rng.next_bounded(2_048) as u32;
        dev.put(key, len)
            .unwrap_or_else(|e| panic!("put at op {i}: {e}"));
    }
    let c = dev.counters();
    let m = dev.metadata();
    assert!(c.total_retry_reads() > 0, "no read retries recorded");
    assert!(c.program_fails() > 0, "no program failures recorded");
    assert!(c.erase_fails() > 0, "no erase failures recorded");
    assert_eq!(
        c.erase_fails(),
        m.retired_blocks,
        "every erase failure must retire exactly one block"
    );
    dev.check_invariants()
        .unwrap_or_else(|e| panic!("audit failed after retirement: {e}"));
}

#[test]
fn disabled_model_is_byte_identical_to_default() {
    // `FaultModel::disabled()` must be a true zero-cost default: a device
    // built with it explicitly fingerprints identically to one that never
    // mentions faults at all.
    for kind in [EngineKind::Pink, EngineKind::AnyKeyPlus] {
        let mut plain = common::test_device(kind).key_len(20).build().build_engine();
        let mut gated = faulty_device(kind, FaultModel::disabled());
        drive(plain.as_mut(), 5, 8_000);
        drive(gated.as_mut(), 5, 8_000);
        assert_eq!(
            fingerprint(plain.as_ref()),
            fingerprint(gated.as_ref()),
            "{kind}: disabled fault model changed behaviour"
        );
    }
}
