//! PinK-specific unit tests: DRAM placement, level routing, GET-path read
//! charging, and meta-block GC under a full device.

use std::collections::BTreeMap;

use anykey_flash::{BlockId, OpCause};
use anykey_workload::Op;

use crate::config::{DeviceConfig, EngineKind};
use crate::device::Source;
use crate::engine::KvEngine;
use crate::error::KvError;
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

#[test]
fn a_meta_relocation_that_runs_out_of_space_keeps_every_owner_counted() {
    let mut s = store();
    fill(&mut s, 60_000);
    // Seal every stream, so each copy needs a fresh block, and pick a
    // block of the deepest level that holds at least two meta pages.
    let deep = s.levels.iter().rposition(|l| !l.is_empty()).unwrap();
    assert!(deep > 0, "the fill must build more than one level");
    for li in 0..s.levels.len() {
        s.meta.seal(li);
    }
    let victim = s.levels[deep]
        .segs
        .iter()
        .filter_map(|seg| seg.ppa)
        .map(|p| p.block)
        .find(|&b| s.meta.units_in(b) >= 2)
        .expect("a meta block with two live pages");
    let drained: Vec<BlockId> = std::iter::from_fn(|| s.data.alloc.alloc()).collect();
    let at = s.horizon();
    assert_eq!(s.relocate_meta_block(victim, at), Err(KvError::DeviceFull));

    // Every segment and list page still lies in a block that counts it.
    let mut owners: BTreeMap<BlockId, u32> = BTreeMap::new();
    for level in &s.levels {
        let segs = level.segs.iter().filter_map(|seg| seg.ppa);
        for p in segs.chain(level.list_pages.iter().copied()) {
            *owners.entry(p.block).or_default() += 1;
        }
    }
    for (&block, &n) in &owners {
        let units = s.meta.units_in(block);
        assert!(units >= n, "{block:?} counts {units} units for {n} owners");
    }

    // Once space is back, the next merge frees those pages cleanly.
    for b in drained {
        s.data.alloc.free(b, 0).unwrap();
    }
    let r = s.merge_levels(Source::Level(deep - 1), deep, at);
    assert!(
        !matches!(
            r,
            Err(KvError::UntrackedBlock { .. } | KvError::LiveCountSkew { .. })
        ),
        "the merge found the meta area's books wrong: {r:?}"
    );
}
