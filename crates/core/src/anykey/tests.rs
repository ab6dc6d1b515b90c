//! AnyKey-specific unit tests: DRAM policy, value-log flow, and the
//! whole-block-invalidation property behind its free GC.

use anykey_flash::OpCause;
use anykey_workload::Op;

use crate::anykey::group::Layout;
use crate::anykey::AnyKeyStore;
use crate::config::{DeviceConfig, EngineKind};
use crate::engine::KvEngine;

fn store(kind: EngineKind) -> AnyKeyStore {
    AnyKeyStore::new(
        DeviceConfig::builder()
            .capacity_bytes(16 << 20)
            .page_size(8 << 10)
            .pages_per_block(16)
            .group_pages(8)
            .engine(kind)
            .key_len(48)
            .build(),
    )
}

fn fill(s: &mut AnyKeyStore, n: u64) {
    for id in 0..n {
        s.put(id, 48).expect("fill");
    }
}

#[test]
fn hash_lists_cover_top_levels_first() {
    let mut s = store(EngineKind::AnyKeyPlus);
    fill(&mut s, 60_000);
    // Residency must be a prefix in (level, group) order: once one group's
    // hash list is non-resident, all later ones are too.
    let flags: Vec<bool> = s
        .levels
        .iter()
        .flat_map(|l| l.units.iter().map(|g| g.hash_list_resident))
        .collect();
    let first_miss = flags.iter().position(|&r| !r).unwrap_or(flags.len());
    assert!(
        flags[first_miss..].iter().all(|&r| !r),
        "hash-list residency must be a strict top-down prefix"
    );
    assert!(
        !s.level_list_overflowed(),
        "level lists must always fit DRAM"
    );
}

#[test]
fn level_lists_that_outgrow_dram_fill_the_budget() {
    // The write buffer reserves half of a 2 KiB DRAM, leaving a 1 KiB
    // metadata budget that a few dozen groups' level-list entries outgrow.
    let mut s = AnyKeyStore::new(
        DeviceConfig::builder()
            .capacity_bytes(16 << 20)
            .page_size(8 << 10)
            .pages_per_block(16)
            .group_pages(8)
            .engine(EngineKind::AnyKey)
            .key_len(48)
            .dram_bytes(2 << 10)
            .build(),
    );
    fill(&mut s, 20_000);
    let budget = s.core.dram.metadata_budget();
    assert_eq!(budget, 1 << 10);
    assert!(s.level_list_overflowed(), "level lists must outgrow 1 KiB");
    assert_eq!(s.check_invariants(), Ok(()));
    let m = s.metadata();
    assert_eq!(m.hash_list_resident_bytes, 0);
    assert_eq!(m.level_list_flash_bytes, m.level_list_bytes - budget);
    assert_eq!(m.dram_resident_bytes(), budget);
}

#[test]
fn new_values_enter_the_log_and_inline_over_time() {
    let mut s = store(EngineKind::AnyKeyPlus);
    fill(&mut s, 30_000);
    let log = s.value_log().expect("AnyKey+ has a log");
    assert!(log.valid_bytes() > 0, "fresh values must be in the log");
    let logged: u64 = s.levels.iter().map(|l| l.logged_bytes()).sum();
    assert_eq!(
        logged,
        log.valid_bytes(),
        "per-level logged accounting must equal the log's valid bytes"
    );
    // The deepest level's data should be mostly inlined (log-triggered
    // compactions swept it).
    let deep = s.levels.iter().rev().find(|l| !l.is_empty()).unwrap();
    assert!(
        deep.logged_bytes() < deep.kv_bytes(),
        "log-triggered sweeps must have inlined part of the deep level (logged {} of {})",
        deep.logged_bytes(),
        deep.kv_bytes()
    );
}

#[test]
fn anykey_no_log_never_builds_a_log() {
    let mut s = store(EngineKind::AnyKeyNoLog);
    fill(&mut s, 30_000);
    assert!(s.value_log().is_none());
    assert_eq!(s.counters().writes(OpCause::LogWrite), 0);
    assert_eq!(s.counters().reads(OpCause::LogRead), 0);
    assert!(s.get(123).found);
}

#[test]
fn group_area_blocks_mostly_die_whole() {
    let mut s = store(EngineKind::AnyKeyPlus);
    fill(&mut s, 60_000);
    // Update churn to force compactions over existing data.
    for id in 0..30_000u64 {
        s.put(id % 10_000, 48).unwrap();
    }
    let c = s.counters();
    // Erases happen (blocks recycled) with near-zero GC relocation — the
    // paper's Section 4.4.4 claim.
    assert!(c.erases() > 20, "compaction must recycle blocks");
    assert!(
        c.reads(OpCause::GcRead) < c.reads(OpCause::CompactionRead) / 4,
        "GC relocation ({}) must be small next to compaction ({})",
        c.reads(OpCause::GcRead),
        c.reads(OpCause::CompactionRead)
    );
}

#[test]
fn plus_log_compaction_frees_half_the_log_or_inlines_every_level() {
    // AnyKey+ relieves the log only by in-place rewrites, so one round
    // must either reach its half-free goal or leave nothing logged (the
    // next round then reports DeviceFull instead of merging).
    let mut s = store(EngineKind::AnyKeyPlus);
    fill(&mut s, 30_000);
    // Keep writing until less than half the log is free, so the round
    // starts short of its goal.
    let mut id = 30_000;
    while s
        .value_log()
        .is_some_and(|l| l.free_bytes() >= l.capacity_bytes() / 2)
    {
        s.put(id, 48).unwrap();
        id += 1;
        assert!(id < 200_000, "the log never filled past half");
    }
    assert!(s.levels.iter().any(|l| l.logged_bytes() > 0));
    let at = s.horizon();
    s.log_triggered_compaction(at).unwrap();
    let log = s.value_log().expect("AnyKey+ has a log");
    assert!(
        log.free_bytes() >= log.capacity_bytes() / 2
            || s.levels.iter().all(|l| l.logged_bytes() == 0),
        "log {} of {} bytes free with logged levels left",
        log.free_bytes(),
        log.capacity_bytes()
    );
}

/// Per level, the indices of the groups whose layout is built.
fn built_layouts(s: &AnyKeyStore) -> Vec<Vec<usize>> {
    s.levels
        .iter()
        .map(|l| {
            let built = l.units.iter().map(|g| g.layout_built());
            built
                .enumerate()
                .filter(|&(_, b)| b)
                .map(|(gi, _)| gi)
                .collect()
        })
        .collect()
}

#[test]
fn insert_only_fill_builds_layouts_only_when_read() {
    let mut s = store(EngineKind::AnyKeyPlus);
    fill(&mut s, 30_000);
    let levels = s.levels.iter().filter(|l| !l.is_empty()).count();
    assert!(
        levels >= 2,
        "the fill must cascade past L1 ({levels} level)"
    );
    assert!(
        built_layouts(&s).iter().all(Vec::is_empty),
        "no read, no layout: {:?}",
        built_layouts(&s)
    );

    // A GET builds at most the layout of its key's candidate group in
    // each level it probes.
    let id = 12_345;
    assert!(s.get(id).found);
    let built = built_layouts(&s);
    for (li, groups) in built.iter().enumerate() {
        let candidate = s.levels[li].candidate(id);
        assert!(
            groups.iter().all(|&gi| Some(gi) == candidate),
            "level {li}: layouts {groups:?} built, candidate {candidate:?}"
        );
    }
    assert!(built.iter().any(|g| !g.is_empty()), "the GET read a group");

    // The full audit builds every other layout, and a second one none.
    assert_eq!(s.check_invariants(), Ok(()));
    let mut groups = s.levels.iter().flat_map(|l| &l.units);
    assert!(groups.all(|g| g.layout_built()));
    let layouts = |s: &AnyKeyStore| -> Vec<*const Layout> {
        let levels = s.levels.iter();
        let layouts = levels.flat_map(|l| l.units.iter().map(|g| g.layout(&l.ents) as *const _));
        layouts.collect()
    };
    let first = layouts(&s);
    assert_eq!(s.check_invariants(), Ok(()));
    assert_eq!(first, layouts(&s), "a built layout is kept");
}

#[test]
fn deep_buried_key_needs_at_most_group_plus_log_reads() {
    let mut s = store(EngineKind::AnyKeyPlus);
    fill(&mut s, 60_000);
    let at = s.horizon();
    let out = s.execute(&Op::Get { key: 31 }, at).unwrap();
    assert!(out.found);
    assert!(
        out.flash_reads <= 4,
        "GET cost {} exceeds group+span+log bound",
        out.flash_reads
    );
}

#[test]
fn an_empty_scan_reads_nothing() {
    let mut s = store(EngineKind::AnyKeyPlus);
    fill(&mut s, 60_000);
    let at = s.horizon();
    let (ids, out) = s.scan_keys(100, 0, at);
    assert!(ids.is_empty());
    assert_eq!(out.flash_reads, 0);
    assert_eq!(out.latency(), crate::config::HASH_NS);
}

/// Per level, the first page and layout state of each group.
fn layout_states(s: &AnyKeyStore) -> Vec<Vec<(anykey_flash::Ppa, bool)>> {
    let groups = |l: &crate::anykey::level::Level| {
        let states = l.units.iter();
        states.map(|g| (g.first_ppa, g.layout_built())).collect()
    };
    s.levels.iter().map(groups).collect()
}

#[test]
fn built_layouts_survive_rewrites_and_relocation() {
    let mut s = store(EngineKind::AnyKeyPlus);
    fill(&mut s, 30_000);
    // Inline the bottom level, then merge fresh logged values of a
    // narrow key range into it: only the groups covering that range hold
    // logged values.
    let at = s.horizon();
    s.inline_rewrite_level(1, at).unwrap();
    for id in 0..3_000u64 {
        s.put(id, 48).unwrap();
    }
    let at = s.horizon();
    crate::engine::Engine::merge_down(&mut s, 0, at).unwrap();
    // A level where some groups hold logged values and some do not.
    let li = (0..s.levels.len())
        .find(|&li| {
            let logged = s.levels[li].units.iter().map(|g| g.logged_bytes > 0);
            logged.clone().any(|l| l) && logged.clone().any(|l| !l)
        })
        .expect("a level with both logged and inline groups");
    assert_eq!(
        s.check_invariants(),
        Ok(()),
        "the audit builds every layout"
    );
    let untouched: Vec<_> = s.levels[li]
        .units
        .iter()
        .filter(|g| g.logged_bytes == 0)
        .map(|g| g.first_ppa)
        .collect();
    let at = s.horizon();
    s.inline_rewrite_level(li, at).unwrap();
    // An untouched group keeps its place and its layout; a rewritten one
    // lands on fresh pages with no layout yet.
    let states = layout_states(&s);
    for (gi, &(ppa, built)) in states[li].iter().enumerate() {
        assert_eq!(built, untouched.contains(&ppa), "level {li} group {gi}");
    }
    assert!(states[li].iter().any(|&(_, built)| built), "nothing kept");
    assert!(
        states[li].iter().any(|&(_, built)| !built),
        "nothing rewritten"
    );
    for (lj, level) in states.iter().enumerate().filter(|&(lj, _)| lj != li) {
        assert!(level.iter().all(|&(_, built)| built), "level {lj}");
    }

    // Relocation moves a block's groups and keeps every layout.
    assert_eq!(s.check_invariants(), Ok(()));
    let before = layout_states(&s);
    let victim = before[li][0].0.block;
    let at = s.horizon();
    s.relocate_block(victim, at).unwrap();
    let after = layout_states(&s);
    assert!(after.iter().flatten().all(|&(_, built)| built));
    let moved = |l: &[Vec<(anykey_flash::Ppa, bool)>]| -> usize {
        l.iter()
            .flatten()
            .filter(|&&(p, _)| p.block == victim)
            .count()
    };
    assert!(
        moved(&before) > 0 && moved(&after) == 0,
        "the victim emptied"
    );
    let counts =
        |l: &[Vec<(anykey_flash::Ppa, bool)>]| -> Vec<usize> { l.iter().map(Vec::len).collect() };
    assert_eq!(counts(&before), counts(&after));
}
