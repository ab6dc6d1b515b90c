//! Engine correctness against an in-memory oracle.
//!
//! Every engine (PinK, AnyKey, AnyKey+, AnyKey−) is driven with the same
//! randomized stream of PUT/GET/DELETE/SCAN operations while a `BTreeMap`
//! tracks logical truth; every GET's found/not-found outcome and every
//! SCAN's returned key list must match the oracle exactly.

mod common;

use std::collections::BTreeMap;

use anykey::core::{EngineKind, KvEngine};
use anykey::workload::SplitMix64;

fn small_device(kind: EngineKind) -> Box<dyn KvEngine> {
    common::test_device(kind).key_len(20).build().build_engine()
}

fn drive_against_oracle(kind: EngineKind, seed: u64, n_ops: usize) {
    let mut dev = small_device(kind);
    let mut oracle: BTreeMap<u64, u32> = BTreeMap::new();
    let mut rng = SplitMix64::new(seed);
    let keyspace = 4_000u64;

    for i in 0..n_ops {
        let key = rng.next_bounded(keyspace);
        match rng.next_bounded(10) {
            0..=2 => {
                // PUT with a size in 20..=120 bytes.
                let len = 20 + rng.next_bounded(100) as u32;
                dev.put(key, len)
                    .unwrap_or_else(|e| panic!("{kind} put: {e}"));
                oracle.insert(key, len);
            }
            3 => {
                dev.delete(key)
                    .unwrap_or_else(|e| panic!("{kind} delete: {e}"));
                oracle.remove(&key);
            }
            4 if i % 10 == 4 => {
                // SCAN of up to 20 keys.
                let len = 1 + rng.next_bounded(20) as u32;
                let at = dev.horizon();
                let (got, outcome) = dev.scan_keys(key, len, at);
                let want: Vec<u64> = oracle
                    .range(key..)
                    .take(len as usize)
                    .map(|(&k, _)| k)
                    .collect();
                assert_eq!(
                    got, want,
                    "{kind} scan from {key} x{len} diverged at op {i}"
                );
                assert_eq!(outcome.found, !want.is_empty());
            }
            _ => {
                let got = dev.get(key);
                assert_eq!(
                    got.found,
                    oracle.contains_key(&key),
                    "{kind} get({key}) diverged at op {i}"
                );
            }
        }
    }

    // Final sweep: every live key is found, a sample of dead keys is not.
    for (&k, _) in oracle.iter().step_by(7) {
        assert!(dev.get(k).found, "{kind} lost key {k}");
    }
    for k in (0..keyspace).step_by(11) {
        if !oracle.contains_key(&k) {
            assert!(!dev.get(k).found, "{kind} resurrected key {k}");
        }
    }
    dev.check_invariants()
        .unwrap_or_else(|e| panic!("{kind} audit after {n_ops} ops: {e}"));
}

/// Scans across a deleted run longer than the scan. The live keys sit in a
/// deep level and their tombstones in the write buffer, so the first `len`
/// entries the level offers are all shadowed and the scan must widen its
/// per-level budget, doubling it, to find `len` survivors beyond the run. Fresh writes then flush the tombstones into
/// the levels and the same scans run again.
fn scan_across_deleted_run(kind: EngineKind) {
    let mut dev = small_device(kind);
    let mut oracle: BTreeMap<u64, u32> = BTreeMap::new();
    for k in 0..20_000u64 {
        dev.put(k, 64).unwrap_or_else(|e| panic!("{kind} put: {e}"));
        oracle.insert(k, 64);
    }
    for k in 5_000..5_300u64 {
        dev.delete(k)
            .unwrap_or_else(|e| panic!("{kind} delete: {e}"));
        oracle.remove(&k);
    }
    let check = |dev: &mut Box<dyn KvEngine>, oracle: &BTreeMap<u64, u32>, stage: &str| {
        for start in [4_990u64, 5_000, 5_150] {
            for len in [20u32, 50] {
                let at = dev.horizon();
                let (got, _) = dev.scan_keys(start, len, at);
                let want: Vec<u64> = oracle
                    .range(start..)
                    .take(len as usize)
                    .map(|(&k, _)| k)
                    .collect();
                assert_eq!(got, want, "{kind} scan from {start} x{len} ({stage})");
            }
        }
    };
    check(&mut dev, &oracle, "tombstones buffered");
    for k in 20_000..23_000u64 {
        dev.put(k, 64).unwrap_or_else(|e| panic!("{kind} put: {e}"));
        oracle.insert(k, 64);
    }
    check(&mut dev, &oracle, "tombstones flushed");
    dev.check_invariants()
        .unwrap_or_else(|e| panic!("{kind} audit: {e}"));
}

#[test]
fn scans_across_deleted_runs_match_oracle() {
    for kind in [
        EngineKind::Pink,
        EngineKind::AnyKey,
        EngineKind::AnyKeyPlus,
        EngineKind::AnyKeyNoLog,
    ] {
        scan_across_deleted_run(kind);
    }
}

#[test]
fn pink_matches_oracle() {
    drive_against_oracle(EngineKind::Pink, 0xA11CE, 30_000);
}

#[test]
fn anykey_matches_oracle() {
    drive_against_oracle(EngineKind::AnyKey, 0xB0B, 30_000);
}

#[test]
fn anykey_plus_matches_oracle() {
    drive_against_oracle(EngineKind::AnyKeyPlus, 0xCAFE, 30_000);
}

#[test]
fn anykey_no_log_matches_oracle() {
    drive_against_oracle(EngineKind::AnyKeyNoLog, 0xD00D, 30_000);
}

#[test]
fn engines_agree_with_each_other() {
    // All four engines observe the same logical state under one stream.
    let kinds = [
        EngineKind::Pink,
        EngineKind::AnyKey,
        EngineKind::AnyKeyPlus,
        EngineKind::AnyKeyNoLog,
    ];
    let mut devs: Vec<_> = kinds.iter().map(|&k| small_device(k)).collect();
    let mut rng = SplitMix64::new(42);
    for _ in 0..5_000 {
        let key = rng.next_bounded(1_000);
        if rng.next_bounded(4) == 0 {
            for d in &mut devs {
                d.put(key, 64).unwrap();
            }
        } else {
            let answers: Vec<bool> = devs.iter_mut().map(|d| d.get(key).found).collect();
            assert!(
                answers.windows(2).all(|w| w[0] == w[1]),
                "engines disagree on key {key}: {answers:?}"
            );
        }
    }
}
