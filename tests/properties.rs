//! Randomized property tests on core invariants, driven by the
//! in-workspace `SplitMix64` generator (hermetic: no external
//! property-testing framework). Each test sweeps a fixed set of seeds so
//! failures reproduce exactly; on failure the seed is part of the panic
//! message.

use std::collections::BTreeMap;

use anykey::core::{hash::xxhash32, DeviceConfig, EngineKind, KvEngine};
use anykey::metrics::LatencyHist;
use anykey::workload::SplitMix64;

#[derive(Debug, Clone, Copy)]
enum Action {
    Put(u64, u32),
    Delete(u64),
    Get(u64),
    Scan(u64, u32),
}

/// Draws a random action over an 800-key space, mirroring the action mix
/// the seed proptest strategy used.
fn draw_action(rng: &mut SplitMix64) -> Action {
    let key = rng.next_bounded(800);
    match rng.next_bounded(4) {
        0 => Action::Put(key, 1 + rng.next_bounded(200) as u32),
        1 => Action::Delete(key),
        2 => Action::Get(key),
        _ => Action::Scan(key, 1 + rng.next_bounded(12) as u32),
    }
}

fn tiny_device(kind: EngineKind) -> Box<dyn KvEngine> {
    DeviceConfig::builder()
        .capacity_bytes(8 << 20)
        .page_size(8 << 10)
        .pages_per_block(16)
        .group_pages(8)
        .engine(kind)
        .key_len(16)
        .build()
        .build_engine()
}

/// Get-after-put coherence and scan/oracle agreement under arbitrary
/// operation sequences, with the structural auditor run at the end of
/// every sequence.
fn engine_is_coherent(kind: EngineKind, seeds: u64, max_actions: u64) {
    for seed in 0..seeds {
        let mut rng = SplitMix64::new(0xC0FFEE ^ seed);
        let n = 1 + rng.next_bounded(max_actions);
        let mut dev = tiny_device(kind);
        let mut oracle: BTreeMap<u64, u32> = BTreeMap::new();
        for step in 0..n {
            match draw_action(&mut rng) {
                Action::Put(k, v) => {
                    dev.put(k, v).expect("put must succeed");
                    oracle.insert(k, v);
                }
                Action::Delete(k) => {
                    dev.delete(k).expect("delete must succeed");
                    oracle.remove(&k);
                }
                Action::Get(k) => {
                    assert_eq!(
                        dev.get(k).found,
                        oracle.contains_key(&k),
                        "{kind:?} get({k}) diverged (seed {seed}, step {step})"
                    );
                }
                Action::Scan(k, cnt) => {
                    let at = dev.horizon();
                    let (got, _) = dev.scan_keys(k, cnt, at);
                    let want: Vec<u64> = oracle
                        .range(k..)
                        .take(cnt as usize)
                        .map(|(&x, _)| x)
                        .collect();
                    assert_eq!(
                        got, want,
                        "{kind:?} scan({k},{cnt}) diverged (seed {seed}, step {step})"
                    );
                }
            }
        }
        dev.check_invariants()
            .unwrap_or_else(|e| panic!("{kind:?} invariants violated (seed {seed}): {e}"));
    }
}

#[test]
fn anykey_plus_is_coherent() {
    engine_is_coherent(EngineKind::AnyKeyPlus, 24, 400);
}

#[test]
fn pink_is_coherent() {
    engine_is_coherent(EngineKind::Pink, 24, 300);
}

/// xxHash32 matches itself across chunked evaluation boundaries and never
/// varies with extra buffer capacity.
#[test]
fn xxhash_is_stable() {
    let mut rng = SplitMix64::new(7);
    for _ in 0..256 {
        let len = rng.next_bounded(200) as usize;
        let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let seed = rng.next_u64() as u32;
        let h1 = xxhash32(&data, seed);
        let mut padded = data.clone();
        padded.push(0xFF);
        let h2 = xxhash32(&padded[..data.len()], seed);
        assert_eq!(h1, h2, "hash varied with buffer capacity (len {len})");
    }
}

/// Histogram quantiles are order-consistent and bounded by min/max.
#[test]
fn histogram_quantiles_are_ordered() {
    let mut rng = SplitMix64::new(11);
    for case in 0..64 {
        let n = 1 + rng.next_bounded(500);
        let mut h = LatencyHist::new();
        let mut smallest = u64::MAX;
        for _ in 0..n {
            let s = 1 + rng.next_bounded(10_000_000);
            smallest = smallest.min(s);
            h.record(s);
        }
        let q50 = h.quantile(0.5);
        let q95 = h.quantile(0.95);
        let q99 = h.quantile(0.99);
        assert!(q50 <= q95, "q50 {q50} > q95 {q95} (case {case})");
        assert!(q95 <= q99, "q95 {q95} > q99 {q99} (case {case})");
        assert!(q99 <= h.max(), "q99 {q99} > max {} (case {case})", h.max());
        assert!(h.min() <= q50, "min {} > q50 {q50} (case {case})", h.min());
    }
}

/// Quantile estimates stay within the histogram's designed relative error
/// (~3% per octave bucket; 10% is a comfortable envelope).
#[test]
fn histogram_error_is_bounded() {
    let mut rng = SplitMix64::new(13);
    for case in 0..64 {
        let n = 50 + rng.next_bounded(350) as usize;
        let samples: Vec<u64> = (0..n).map(|_| 32 + rng.next_bounded(1_000_000)).collect();
        let mut h = LatencyHist::new();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples;
        sorted.sort_unstable();
        let exact = sorted[(0.95 * (sorted.len() - 1) as f64) as usize];
        let est = h.quantile(0.95);
        let rel = (est as f64 - exact as f64).abs() / exact as f64;
        assert!(
            rel < 0.10,
            "rel err {rel} (est {est}, exact {exact}, case {case})"
        );
    }
}
