//! Micro-benchmarks for the hot controller-side primitives the simulator
//! models: hashing (paper Section 4.6 measures 79 ns per key on a
//! Cortex-A53), group construction (merge-sort + packing), level-list
//! routing, hash-list membership, and Zipfian sampling.
//!
//! This is a self-contained wall-clock harness (`harness = false`) so the
//! tier-1 verify needs no external benchmarking framework. Wall-clock time
//! is permitted here — the bench crate is measurement tooling, not part of the
//! virtual-time simulation (which `xtask lint` keeps `std::time`-free).

use std::hint::black_box;
use std::time::Instant;

use anykey_core::anykey::entity::{Entity, ValueLoc};
use anykey_core::anykey::group::GroupContent;
use anykey_core::hash::xxhash32;
use anykey_core::Key;
use anykey_workload::{KeyDist, ZipfianGen};

/// Times `f` over enough iterations to fill ~20 ms, repeats 5 times, and
/// reports the median nanoseconds per iteration.
fn bench<R>(name: &str, mut f: impl FnMut() -> R) {
    // Calibrate the iteration count on a coarse warm-up pass.
    let mut iters: u64 = 1;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let dt = t0.elapsed();
        if dt.as_millis() >= 5 || iters >= 1 << 24 {
            let target_ns = 20_000_000u128;
            let per = (dt.as_nanos() / u128::from(iters)).max(1);
            iters = u64::try_from(target_ns / per)
                .unwrap_or(u64::MAX)
                .clamp(1, 1 << 24);
            break;
        }
        iters = iters.saturating_mul(8);
    }
    let mut runs: Vec<u128> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            t0.elapsed().as_nanos() / u128::from(iters)
        })
        .collect();
    runs.sort_unstable();
    println!(
        "{name:<32} {:>10} ns/iter  ({iters} iters x 5 runs)",
        runs[2]
    );
}

fn entities(n: u64) -> Vec<Entity> {
    (0..n)
        .map(|id| {
            let key = Key::new(id, 48).expect("48-byte keys hold any id");
            Entity {
                key,
                hash: key.hash32(),
                value_len: 43,
                loc: ValueLoc::Inline,
                tombstone: false,
                span_extra: 0,
            }
        })
        .collect()
}

fn bench_hash() {
    let key40 = [0x6Bu8; 40];
    bench("xxhash32_40B_key", || xxhash32(black_box(&key40), 0));
    let mut id = 0u64;
    bench("key_synthesis_and_hash", || {
        id = id.wrapping_add(1);
        Key::new(id & 0xFFFF_FFFF, 40)
            .expect("40-byte keys hold any id")
            .hash32()
    });
}

fn bench_group() {
    let ents = entities(2_000);
    bench("group_build_2000_entities", || {
        GroupContent::build(black_box(ents.clone()), 8128)
    });
    let g = GroupContent::build(entities(2_000), 8128);
    let probe = Key::new(1_234, 48).expect("48-byte keys hold any id");
    let h = probe.hash32();
    bench("group_route_and_search", || {
        let p = g.route_page(black_box(h));
        g.search_page(p, h, probe)
    });
    bench("hash_list_membership", || g.contains_hash(black_box(h)));
}

fn bench_zipfian() {
    let mut z = ZipfianGen::new(1_000_000, KeyDist::Zipfian { theta: 0.99 }, 7);
    bench("zipfian_sample", || z.next_key());
}

fn main() {
    // `cargo test` invokes bench binaries to check they run; keep that path
    // instant by only benchmarking when asked.
    if std::env::args().any(|a| a == "--bench") {
        bench_hash();
        bench_group();
        bench_zipfian();
    } else {
        println!("pass --bench to run the micro-benchmarks (cargo bench -p anykey-bench)");
    }
}
