//! PinK-specific unit tests: DRAM placement, level routing, and GET-path
//! read charging.

use anykey_flash::OpCause;
use anykey_workload::Op;

use crate::config::{DeviceConfig, EngineKind};
use crate::engine::KvEngine;
use crate::pink::PinkStore;

fn store() -> PinkStore {
    PinkStore::new(
        DeviceConfig::builder()
            .capacity_bytes(16 << 20)
            .page_size(8 << 10)
            .pages_per_block(16)
            .group_pages(8)
            .engine(EngineKind::Pink)
            .key_len(48)
            .build(),
    )
}

fn fill(s: &mut PinkStore, n: u64) {
    for id in 0..n {
        s.put(id, 48).expect("fill");
    }
}

#[test]
fn upper_levels_stay_resident_lower_levels_spill() {
    let mut s = store();
    fill(&mut s, 60_000);
    // Level lists are claimed before segments, top level first: L1's
    // list must be resident even at 0.1% DRAM.
    assert!(
        s.levels[0].list_pages.is_empty(),
        "L1's level list must be DRAM-resident"
    );
    let deep = s.levels.iter().rev().find(|l| !l.is_empty()).unwrap();
    assert!(
        deep.segs.iter().filter(|seg| seg.ppa.is_some()).count() > deep.segs.len() / 2,
        "the deepest level must be mostly flash-resident at 0.1% DRAM"
    );
}

#[test]
fn spilled_metadata_costs_reads_on_the_get_path() {
    let mut s = store();
    fill(&mut s, 60_000);
    let before = s.counters().reads(OpCause::MetaRead);
    // Probe cold keys to force deep-level lookups.
    let at = s.horizon();
    let mut t = at;
    for id in (0..60_000u64).step_by(997) {
        let out = s.execute(&Op::Get { key: id }, t).unwrap();
        assert!(out.found);
        t = out.done_at;
    }
    let meta_reads = s.counters().reads(OpCause::MetaRead) - before;
    assert!(
        meta_reads > 30,
        "cold GETs must pay flash metadata reads (got {meta_reads})"
    );
}

#[test]
fn level_list_spill_is_reported() {
    let mut s = store();
    fill(&mut s, 60_000);
    let m = s.metadata();
    assert!(m.meta_segment_flash_bytes > m.meta_segment_dram_bytes);
    assert!(m.dram_used <= m.dram_capacity);
    // 48-byte keys: per-pair metadata is half the pair size; the total
    // demand must dwarf DRAM (the paper's Table 1 situation).
    assert!(m.metadata_bytes() > 4 * m.dram_capacity);
}

#[test]
fn overwrites_invalidate_old_data_bytes() {
    let mut s = store();
    fill(&mut s, 20_000);
    let live_before = s.metadata().live_unique_bytes;
    // Overwrite the same keys: unique bytes unchanged.
    for id in 0..20_000u64 {
        s.put(id, 48).unwrap();
    }
    assert_eq!(s.metadata().live_unique_bytes, live_before);
    // Deletes shrink it.
    for id in 0..1_000u64 {
        s.delete(id).unwrap();
    }
    assert_eq!(
        s.metadata().live_unique_bytes,
        live_before - 1_000 * (48 + 48)
    );
}

#[test]
fn an_empty_scan_reads_each_spilled_level_list_once() {
    let mut s = store();
    fill(&mut s, 60_000);
    // A zero-length scan walks every level at budget 0: it visits no
    // meta segment, but a non-empty level whose list spilled still
    // charges that list's first page.
    let spilled = s
        .levels
        .iter()
        .filter(|l| !l.is_empty() && !l.list_pages.is_empty())
        .count() as u32;
    assert!(spilled > 0, "no level list spilled");
    let at = s.horizon();
    let (ids, out) = s.scan_keys(100, 0, at);
    assert!(ids.is_empty());
    assert_eq!(out.flash_reads, spilled);
}
