//! Merge tests: the streaming scan merge of [`DeviceCore::scan`] checked
//! against a two-pass reference merge over eagerly collected candidates
//! on seeded random per-level runs of three shapes, plus named cases for
//! newest-wins, keys at the top of the id space,
//! budget doubling, the 64× cap, the capped-level frontier, a capped level
//! that ends at its frontier and the empty scan, and the newest-wins
//! two-way merge of compaction, over slices and in place; the page set
//! of [`DeviceCore::read_set`]; and every engine's live-byte walk against
//! a map model.

use std::collections::{BTreeMap, BTreeSet};

use anykey_workload::SplitMix64;

use super::*;
use crate::config::EngineKind;
use crate::engine::Engine;

/// A test level: key-sorted `(key id, tombstone)` versions. A candidate's
/// payload is its `(level, index)`, so a hit names the version it took.
type Level = Vec<(u64, bool)>;

impl Entry for (u64, bool) {
    fn id(&self) -> u64 {
        self.0
    }

    fn tombstone(&self) -> bool {
        self.1
    }

    fn value_len(&self) -> u32 {
        0
    }
}

/// One version of a key that a level offers the reference merge; `payload`
/// names where it came from.
#[derive(Debug, Clone, Copy)]
struct ScanCand<P> {
    key: u64,
    tombstone: bool,
    payload: P,
}

/// What the reference merge emits: the hits in key order, each with the
/// payload of its level version (`None` from the write buffer), and the
/// index pages its final collection touched.
#[derive(Debug)]
struct RefPlan<P> {
    index_pages: Vec<Ppa>,
    hits: Vec<(u64, Option<P>)>,
}

const LEVEL_INDEX_CHUNK: usize = 8;

fn core() -> DeviceCore {
    DeviceCore::new(
        DeviceConfig::builder()
            .capacity_bytes(16 << 20)
            .page_size(8 << 10)
            .pages_per_block(16)
            .group_pages(8)
            .key_len(24)
            .build(),
    )
}

fn buffer(core: &mut DeviceCore, id: u64, tombstone: bool) {
    let e = BufEntry {
        value_len: if tombstone { 0 } else { 8 },
        tombstone,
    };
    core.buffer.insert(id, e, 24);
}

/// The eager collection the reference merges: up to `budget` candidates
/// ≥ `start` from level `li` of `levels` in key order, one index page per
/// chunk of `LEVEL_INDEX_CHUNK` entries touched.
fn collect(
    levels: &[Level],
    start: u64,
    li: usize,
    budget: usize,
    cands: &mut Vec<ScanCand<(usize, usize)>>,
    pages: &mut Vec<Ppa>,
) -> Result<usize, KvError> {
    let level = &levels[li];
    let from = level.partition_point(|&(key, _)| key < start);
    let to = level.len().min(from + budget);
    for (i, &(key, tombstone)) in level.iter().enumerate().take(to).skip(from) {
        if i == from || i % LEVEL_INDEX_CHUNK == 0 {
            pages.push(Ppa::new(li as u32, (i / LEVEL_INDEX_CHUNK) as u32));
        }
        cands.push(ScanCand {
            key,
            tombstone,
            payload: (li, i),
        });
    }
    Ok(to - from)
}

/// The two-pass reference merge: each round counts the survivors below
/// the limit in a `BTreeMap`, and the final round stable-sorts the
/// candidates by `(key, level)` and walks them against the buffer.
fn two_pass_scan<P: Copy>(
    core: &DeviceCore,
    start: u64,
    want: usize,
    levels: usize,
    mut collect: impl FnMut(
        usize,
        usize,
        &mut Vec<ScanCand<P>>,
        &mut Vec<Ppa>,
    ) -> Result<usize, KvError>,
) -> Result<RefPlan<P>, KvError> {
    let mut budget = want;
    let mut cands: Vec<ScanCand<P>> = Vec::new();
    let mut level_of: Vec<usize> = Vec::new();
    let mut pages: Vec<Ppa> = Vec::new();
    let limit = loop {
        cands.clear();
        level_of.clear();
        pages.clear();
        let mut limit: Option<u64> = None;
        for li in 0..levels {
            if collect(li, budget, &mut cands, &mut pages)? >= budget {
                if let Some(c) = cands.last() {
                    limit = Some(limit.map_or(c.key, |l| l.min(c.key)));
                }
            }
            level_of.resize(cands.len(), li);
        }
        let mut newest: BTreeMap<u64, (usize, bool)> = BTreeMap::new();
        for (c, &level) in cands.iter().zip(&level_of) {
            if limit.is_none_or(|l| c.key <= l) {
                let e = newest.entry(c.key).or_insert((level, c.tombstone));
                if level < e.0 {
                    *e = (level, c.tombstone);
                }
            }
        }
        for (key, be) in core.buffer.range(start) {
            if limit.is_none_or(|l| *key <= l) {
                newest.insert(*key, (0, be.tombstone));
            }
        }
        let reachable = newest.values().filter(|&&(_, t)| !t).count();
        if limit.is_none() || reachable >= want || budget >= want * 64 {
            break limit;
        }
        budget *= 2;
    };

    let mut sorted: Vec<(ScanCand<P>, usize)> = cands
        .iter()
        .copied()
        .zip(level_of.iter().copied())
        .collect();
    sorted.sort_by(|a, b| a.0.key.cmp(&b.0.key).then(a.1.cmp(&b.1)));
    let mut hits: Vec<(u64, Option<P>)> = Vec::new();
    let mut buf_iter = core.buffer.range(start).peekable();
    let mut i = 0;
    while hits.len() < want {
        let next_level_key = sorted.get(i).map(|(c, _)| c.key);
        let next_buf_key = buf_iter.peek().map(|(key, _)| **key);
        let key = match (next_buf_key, next_level_key) {
            (Some(b), Some(l)) => b.min(l),
            (Some(b), None) => b,
            (None, Some(l)) => l,
            (None, None) => break,
        };
        if limit.is_some_and(|l| key > l) {
            break;
        }
        let mut buf_tomb = None;
        if next_buf_key == Some(key) {
            buf_tomb = buf_iter.next().map(|(_, e)| e.tombstone);
        }
        let newest = sorted.get(i).map(|(c, _)| *c).filter(|c| c.key == key);
        while i < sorted.len() && sorted[i].0.key == key {
            i += 1;
        }
        match (buf_tomb, newest) {
            (Some(true), _) => {}
            (Some(false), _) => hits.push((key, None)),
            (None, Some(c)) if !c.tombstone => hits.push((key, Some(c.payload))),
            (None, _) => {}
        }
    }
    Ok(RefPlan {
        index_pages: pages,
        hits,
    })
}

/// The budget walk matching `collect`: the index pages it pushes for
/// `budget` candidates from level `li`, and the key of the `budget`-th
/// when the level holds that many.
fn walk(
    levels: &[Level],
    start: u64,
    li: usize,
    budget: usize,
    pages: &mut Vec<Ppa>,
) -> Option<u64> {
    let level = &levels[li];
    let from = level.partition_point(|&(key, _)| key < start);
    let to = level.len().min(from + budget);
    for i in from..to {
        if i == from || i % LEVEL_INDEX_CHUNK == 0 {
            pages.push(Ppa::new(li as u32, (i / LEVEL_INDEX_CHUNK) as u32));
        }
    }
    (budget > 0 && to - from == budget).then(|| level[to - 1].0)
}

/// A test level's unit: a range of its array.
impl Unit for std::ops::Range<usize> {
    const NAME: &'static str = "chunk";

    fn range(&self) -> std::ops::Range<usize> {
        self.clone()
    }
}

/// `level` as an LSM level the scan reads, cut into units of
/// `LEVEL_INDEX_CHUNK` entries.
fn lsm_level(level: &Level) -> crate::level::Level<(u64, bool), std::ops::Range<usize>> {
    let n = level.len();
    let chunk = |s: usize| s..n.min(s + LEVEL_INDEX_CHUNK);
    let units = (0..n).step_by(LEVEL_INDEX_CHUNK).map(chunk).collect();
    crate::level::Level::new(level.clone(), units, 24)
}

/// Runs the streaming merge and the reference over `levels` and asserts
/// the same hits and index pages; returns the plan, its hits named by
/// `(level, index)`, and the final budget, which must be the reference's.
/// The scan runs twice on `core`, the second time in the plan the first
/// left behind, and must give the same plan both times.
fn check(
    core: &mut DeviceCore,
    levels: &[Level],
    start: u64,
    want: usize,
) -> (RefPlan<(usize, usize)>, usize) {
    let (mut budget, mut ref_budget) = (None, None);
    let lsm: Vec<_> = levels.iter().map(lsm_level).collect();
    let mut scan = || {
        let plan = core.scan(start, want, &lsm, |li, (_, from), b, pages| {
            let from_ref = levels[li].partition_point(|&(key, _)| key < start);
            assert_eq!(from, from_ref, "level {li}: scan start");
            budget = Some(b);
            walk(levels, start, li, b, pages)
        });
        let out = RefPlan {
            index_pages: plan.index_pages.clone(),
            hits: (plan.hits.iter())
                .map(|&(key, pos)| (key, pos.map(|p| (p.level, p.index))))
                .collect(),
        };
        core.scan_plan = plan;
        out
    };
    let (plan, again) = (scan(), scan());
    assert_eq!(plan.hits, again.hits, "a rerun in the kept plan differs");
    assert_eq!(plan.index_pages, again.index_pages);
    let reference = two_pass_scan(core, start, want, levels.len(), |li, b, cands, pages| {
        ref_budget = Some(b);
        collect(levels, start, li, b, cands, pages)
    })
    .unwrap();
    assert_eq!(plan.hits, reference.hits, "hits differ");
    assert_eq!(
        plan.index_pages, reference.index_pages,
        "index pages differ"
    );
    assert_eq!(budget, ref_budget, "final budgets differ");
    (plan, budget.unwrap_or(want))
}

/// A key-sorted level of up to `n` distinct ids below `keyspace`, each
/// a tombstone with probability `tomb_pct` %.
fn random_level(rng: &mut SplitMix64, n: u64, keyspace: u64, tomb_pct: u64) -> Level {
    let ids: BTreeSet<u64> = (0..n).map(|_| rng.next_bounded(keyspace)).collect();
    ids.into_iter()
        .map(|id| (id, rng.next_bounded(100) < tomb_pct))
        .collect()
}

/// Levels of one of three shapes over `keyspace`: random runs, one
/// level dominating the others (it holds every id, the rest a few), or
/// levels alternating key by key (level `i` of `n` holds the ids `≡ i`
/// mod `n`, so every emitted key moves to another level).
fn random_levels(rng: &mut SplitMix64, shape: u64, keyspace: u64) -> Vec<Level> {
    let n = 1 + rng.next_bounded(5);
    let big = rng.next_bounded(n);
    let mut levels = Vec::new();
    for li in 0..n {
        let tomb_pct = [0, 10, 50, 100][rng.next_bounded(4) as usize];
        levels.push(match shape {
            0 => {
                let len = rng.next_bounded(keyspace);
                random_level(rng, len, keyspace, tomb_pct)
            }
            1 if li == big => {
                let level = (0..keyspace).map(|id| (id, rng.next_bounded(100) < tomb_pct));
                level.collect()
            }
            1 => {
                let len = rng.next_bounded(8);
                random_level(rng, len, keyspace, tomb_pct)
            }
            _ => {
                let ids = (li..keyspace).step_by(n as usize);
                let level = ids.map(|id| (id, rng.next_bounded(100) < tomb_pct / 10));
                level.collect()
            }
        });
    }
    levels
}

#[test]
fn one_pass_merge_matches_two_pass_reference() {
    let mut rng = SplitMix64::new(0x5CA9_3E26);
    let (mut doubled, mut capped, mut buffered) = (0, 0, 0);
    let mut long = 0;
    for case in 0..1500 {
        let mut core = core();
        let keyspace = 50 + rng.next_bounded(400);
        let levels = random_levels(&mut rng, case % 3, keyspace);
        for _ in 0..rng.next_bounded(30) {
            let id = rng.next_bounded(keyspace);
            buffer(&mut core, id, rng.next_bounded(3) == 0);
        }
        let start = rng.next_bounded(keyspace);
        let want = match rng.next_bounded(3) {
            0 => 1 + rng.next_bounded(200),
            _ => 1 + rng.next_bounded(12),
        } as usize;
        let (plan, budget) = check(&mut core, &levels, start, want);
        doubled += usize::from(budget > want);
        capped += usize::from(budget == 64 * want);
        buffered += usize::from(plan.hits.iter().any(|(_, p)| p.is_none()));
        long += usize::from(plan.hits.len() > 100);
    }
    assert!(doubled > 0, "no case doubled the budget");
    assert!(capped > 0, "no case reached the 64× cap");
    assert!(buffered > 0, "no case emitted a buffered value");
    assert!(long > 0, "no case emitted over 100 hits");
}

#[test]
fn keys_at_the_top_of_the_id_space_are_merged() {
    // The three largest ids, in two levels and the buffer: no head
    // sentinel may stand in for a real key.
    let top = u64::MAX - 2;
    let mut core = core();
    let levels = vec![
        vec![(top, false), (u64::MAX, true)],
        vec![(top, true), (top + 1, false), (u64::MAX, false)],
    ];
    buffer(&mut core, top + 1, true);
    let (plan, _) = check(&mut core, &levels, 0, 10);
    assert_eq!(plan.hits, vec![(top, Some((0, 0)))]);
    buffer(&mut core, u64::MAX, false);
    let (plan, _) = check(&mut core, &levels, top, 10);
    assert_eq!(plan.hits, vec![(top, Some((0, 0))), (u64::MAX, None)]);
    let (plan, _) = check(&mut core, &levels, u64::MAX, 10);
    assert_eq!(plan.hits, vec![(u64::MAX, None)]);
    // With the buffer's copy gone, the last key comes from level 1.
    let mut core = self::core();
    let (plan, _) = check(&mut core, &levels, top + 1, 3);
    assert_eq!(plan.hits, vec![(top + 1, Some((1, 1)))]);
    let levels = vec![vec![(u64::MAX, false)], vec![(u64::MAX, true)]];
    let (plan, _) = check(&mut core, &levels, u64::MAX, 1);
    assert_eq!(plan.hits, vec![(u64::MAX, Some((0, 0)))]);
}

#[test]
fn duplicates_and_tombstones_take_the_newest_version() {
    let mut core = core();
    // Level 0 deletes 2 and rewrites 4; level 1 holds 1..=6; the
    // buffer deletes 5 and rewrites 6.
    let levels = vec![
        vec![(2, true), (4, false)],
        (1..=6).map(|id| (id, false)).collect(),
    ];
    buffer(&mut core, 5, true);
    buffer(&mut core, 6, false);
    let (plan, budget) = check(&mut core, &levels, 1, 10);
    assert_eq!(budget, 10);
    assert_eq!(
        plan.hits,
        vec![
            (1, Some((1, 0))),
            (3, Some((1, 2))),
            (4, Some((0, 1))),
            (6, None),
        ]
    );
}

#[test]
fn a_capped_level_of_tombstones_doubles_the_budget() {
    let mut core = core();
    // Level 0's first 8 entries are tombstones: at budget 4 and 8 the
    // keys below its frontier hold no survivor.
    let mut l0: Level = (0..8).map(|id| (id, true)).collect();
    l0.extend((100..120).map(|id| (id, false)));
    let l1: Level = (50..60).map(|id| (id, false)).collect();
    let (plan, budget) = check(&mut core, &[l0, l1], 0, 4);
    assert_eq!(budget, 16, "budget 4, 8, 16");
    let ids: Vec<u64> = plan.hits.iter().map(|&(id, _)| id).collect();
    assert_eq!(ids, vec![50, 51, 52, 53]);
}

#[test]
fn a_level_of_tombstones_stops_at_the_64x_cap() {
    let mut core = core();
    let l0: Level = (0..1_000).map(|id| (id, true)).collect();
    let l1: Level = vec![(500, false), (2_000, false)];
    let (plan, budget) = check(&mut core, &[l0, l1], 0, 2);
    assert_eq!(budget, 128, "budget 2, 4, …, 128 = 64 × want");
    assert!(plan.hits.is_empty(), "{:?}", plan.hits);
}

#[test]
fn scan_never_emits_past_a_capped_frontier() {
    let mut core = core();
    // Level 0 deletes every even id below 400 and holds a live 1000.
    // Capped at the 64× budget inside its tombstones, its unexplored
    // range could still hide live keys, so level 1's 401 and the
    // buffer's 500 lie past its frontier and must not be emitted.
    let mut l0: Level = (0..200).map(|i| (2 * i, true)).collect();
    l0.push((1_000, false));
    let l1: Level = vec![(61, false), (401, false)];
    buffer(&mut core, 500, false);
    let (plan, budget) = check(&mut core, &[l0, l1], 0, 3);
    assert_eq!(budget, 192, "budget 3, 6, …, 192 = 64 × want");
    let frontier = 382; // level 0's 192nd candidate
    assert_eq!(plan.hits, vec![(61, Some((1, 0)))]);
    assert!(plan.hits.iter().all(|(key, _)| *key <= frontier));
}

#[test]
fn a_capped_level_ending_at_its_frontier_doubles_once() {
    let mut core = core();
    // At budget 2 level 0 holds exactly 2 entries from the start and
    // nothing past them: it is capped at 3, and the keys up to 3 hold one
    // survivor. The stream runs dry at the frontier, so the budget still
    // doubles, and at 4 the level is no longer capped.
    let l0: Level = vec![(1, false), (3, true)];
    let (plan, budget) = check(&mut core, &[l0], 0, 2);
    assert_eq!(budget, 4);
    assert_eq!(plan.hits, vec![(1, Some((0, 0)))]);
}

#[test]
fn an_empty_scan_walks_at_budget_zero() {
    let mut core = core();
    buffer(&mut core, 5, false);
    let levels = vec![
        (0..40).map(|id| (id, false)).collect(),
        (0..40).map(|id| (id, true)).collect(),
    ];
    let (plan, budget) = check(&mut core, &levels, 0, 0);
    assert_eq!(budget, 0);
    assert!(plan.hits.is_empty());
    assert!(plan.index_pages.is_empty(), "{:?}", plan.index_pages);
}

/// A compaction entry tagged with the level it came from: `(key,
/// tombstone, level)`, so the output shows which copy survived.
type Tagged = (u64, bool, u8);

impl Entry for Tagged {
    fn id(&self) -> u64 {
        self.0
    }

    fn tombstone(&self) -> bool {
        self.1
    }

    fn value_len(&self) -> u32 {
        0
    }
}

/// The merged `(id, tombstone, level)`s and the shadowed `(id, level)`s.
type TaggedMerge = (Vec<(u64, bool, u8)>, Vec<(u64, u8)>);

/// The reference newest-wins merge: a forward two-pointer walk that
/// pushes the surviving entries of key-sorted `upper` (newer) and `lower`
/// to a new vector and the shadowed lower ones to another, both in
/// ascending key order.
fn reference_merge(upper: &[Tagged], lower: &[Tagged], bottom: bool) -> TaggedMerge {
    let (mut merged, mut shadowed) = (Vec::new(), Vec::new());
    let (mut i, mut j) = (0, 0);
    loop {
        let e = match (upper.get(i), lower.get(j)) {
            (Some(a), Some(b)) if a.0 == b.0 => {
                shadowed.push((b.0, b.2));
                (i, j) = (i + 1, j + 1);
                *a
            }
            (Some(a), Some(b)) if a.0 > b.0 => {
                j += 1;
                *b
            }
            (Some(a), _) => {
                i += 1;
                *a
            }
            (None, Some(b)) => {
                j += 1;
                *b
            }
            (None, None) => break,
        };
        if !(bottom && e.1) {
            merged.push(e);
        }
    }
    (merged, shadowed)
}

/// Runs `merge_newest` over tagged runs twice, once written over a copy
/// of `lower` with spare capacity and once over a copy of `upper` with
/// more. Each must agree with [`reference_merge`], emitting the same
/// entries and shadowing the same ones, in descending key order, and hand
/// back the other array emptied.
fn merge_tagged(upper: &[Tagged], lower: &[Tagged], bottom: bool) -> TaggedMerge {
    let (merged, shadowed) = reference_merge(upper, lower, bottom);
    for (upper_room, lower_room) in [(0, 7), (lower.len() + 7, 0)] {
        let (mut up, mut low) = (upper.to_vec(), lower.to_vec());
        up.reserve_exact(upper_room);
        low.reserve_exact(lower_room);
        let (mut emitted, mut shadowed_too) = (Vec::new(), Vec::new());
        let shadow = |&(key, _, level): &Tagged| {
            shadowed_too.push((key, level));
            Ok(())
        };
        let emit = |e| {
            emitted.push(e);
            e
        };
        let (out, spare) = merge_newest(up, low, bottom, shadow, emit).unwrap();
        assert_eq!(out, merged, "written over upper: {}", upper_room > 0);
        assert!(spare.is_empty());
        emitted.reverse();
        shadowed_too.reverse();
        assert_eq!((emitted, shadowed_too), (merged.clone(), shadowed.clone()));
    }
    (merged, shadowed)
}

#[test]
fn compaction_merge_keeps_the_upper_copy_and_drops_bottom_tombstones() {
    let upper = [(1, false, 0), (3, true, 0), (5, false, 0)];
    let lower = [(1, false, 1), (2, true, 1), (3, false, 1)];
    let (merged, shadowed) = merge_tagged(&upper, &lower, false);
    assert_eq!(
        merged,
        [(1, false, 0), (2, true, 1), (3, true, 0), (5, false, 0)]
    );
    assert_eq!(shadowed, [(1, 1), (3, 1)]);
    // At the bottom level the tombstones go, but they still shadow.
    let (merged, shadowed) = merge_tagged(&upper, &lower, true);
    assert_eq!(merged, [(1, false, 0), (5, false, 0)]);
    assert_eq!(shadowed, [(1, 1), (3, 1)]);
    // Either run alone comes out as it is.
    assert_eq!(merge_tagged(&[], &lower, false), (lower.to_vec(), vec![]));
    assert_eq!(merge_tagged(&upper, &[], false), (upper.to_vec(), vec![]));
}

#[test]
fn compaction_merge_filters_either_runs_tail_at_the_bottom() {
    // Each run outlasts the other once, its tail mixing tombstones and
    // live entries; the tail must pass the same tombstone filter.
    let short = [(2, false, 0), (4, true, 0)];
    let long = [
        (1, true, 1),
        (4, false, 1),
        (5, true, 1),
        (6, false, 1),
        (7, true, 1),
        (8, false, 1),
    ];
    let (merged, shadowed) = merge_tagged(&short, &long, true);
    assert_eq!(merged, [(2, false, 0), (6, false, 1), (8, false, 1)]);
    assert_eq!(shadowed, [(4, 1)]);
    let relabel = |run: &[Tagged], level| -> Vec<Tagged> {
        run.iter().map(|&(key, t, _)| (key, t, level)).collect()
    };
    let (merged, shadowed) = merge_tagged(&relabel(&long, 0), &relabel(&short, 1), true);
    assert_eq!(
        merged,
        [(2, false, 1), (4, false, 0), (6, false, 0), (8, false, 0)]
    );
    assert_eq!(shadowed, [(4, 1)]);
    // Above the bottom the tails keep their tombstones.
    let (merged, _) = merge_tagged(&short, &long, false);
    let ids: Vec<(u64, bool)> = merged.iter().map(|&(id, t, _)| (id, t)).collect();
    assert_eq!(
        ids,
        [
            (1, true),
            (2, false),
            (4, true),
            (5, true),
            (6, false),
            (7, true),
            (8, false)
        ]
    );
}

#[test]
fn page_marks_drain_each_page_once_in_page_order() {
    let geometry = core().cfg.flash.geometry;
    let mut marks = PageMarks::new(geometry);
    let mut rng = SplitMix64::new(0x09A6_E5E7);
    let mut reference = BTreeSet::new();
    for round in 0..3 {
        for _ in 0..200 * round {
            let ppa = Ppa::new(
                rng.next_bounded(u64::from(geometry.blocks())) as u32,
                rng.next_bounded(u64::from(geometry.pages_per_block)) as u32,
            );
            marks.insert(ppa);
            marks.insert(ppa);
            reference.insert(ppa);
        }
        let mut drained = Vec::new();
        marks.drain(|ppa| drained.push(ppa));
        let expected: Vec<Ppa> = std::mem::take(&mut reference).into_iter().collect();
        assert_eq!(drained, expected, "round {round}");
    }
}

/// A 16 MiB `kind` device of 24 B keys with a 32 KiB write buffer, so
/// that a short stream spreads its keys over the buffer and two levels.
fn small(kind: EngineKind) -> DeviceConfig {
    DeviceConfig::builder()
        .capacity_bytes(16 << 20)
        .page_size(8 << 10)
        .pages_per_block(16)
        .group_pages(8)
        .engine(kind)
        .key_len(24)
        .write_buffer_bytes(32 << 10)
        .build()
}

/// `live_unique_bytes` against a `BTreeMap` model on every engine,
/// checked every 1,000 ops and at the end of a seeded stream: PUTs at 10,
/// 200 and 0 B, overwrites, and DELETEs of live and absent ids, over
/// dense ids and sparse ones up to `u64::MAX`. Then a 200 B fill to
/// `DeviceFull`, where the count must equal a brute-force walk: a
/// `HashSet` over the buffer and every level entry, newest first.
#[test]
fn live_unique_bytes_follow_a_map_model() {
    use crate::anykey::AnyKeyStore;
    use crate::pink::PinkStore;
    follow_a_map_model(PinkStore::new(small(EngineKind::Pink)));
    for kind in [
        EngineKind::AnyKey,
        EngineKind::AnyKeyPlus,
        EngineKind::AnyKeyNoLog,
    ] {
        follow_a_map_model(AnyKeyStore::new(small(kind)));
    }
}

/// The body of [`live_unique_bytes_follow_a_map_model`] for one engine.
fn follow_a_map_model<E: Engine>(mut dev: E) {
    use crate::engine::KvEngine;
    use std::collections::HashSet;
    let kind = dev.kind();
    let brute_force = |dev: &E| {
        let buffered = dev.core().buffer.range(0);
        let buffered = buffered.map(|(&key, e)| (key, e.tombstone, e.value_len));
        // Every level entry, level by level from the top.
        let ents = dev.levels().iter().flat_map(|l| &l.as_ref().ents);
        let ents = ents.map(|e| (e.id(), e.tombstone(), e.value_len()));
        let mut seen = HashSet::new();
        let newest = buffered.chain(ents).filter(|v| seen.insert(v.0));
        let live = newest.filter(|&(_, tombstone, _)| !tombstone);
        live.map(|(_, _, len)| 24 + u64::from(len)).sum::<u64>()
    };
    let mut rng = SplitMix64::new(0x11FE_B17E);
    let mut ids: Vec<u64> = (0..20_000).collect();
    ids.extend([1 << 40, (1 << 40) + 1, (1 << 40) + 64, u64::MAX - 64]);
    ids.extend([u64::MAX - 1, u64::MAX]);
    ids.extend((0..16).map(|_| rng.next_u64()));
    let mut model: BTreeMap<u64, u32> = BTreeMap::new();
    let model_bytes = |m: &BTreeMap<u64, u32>| m.values().map(|&len| 24 + u64::from(len)).sum();
    for op in 1..=24_500u32 {
        let id = ids[rng.next_bounded(ids.len() as u64) as usize];
        if rng.next_bounded(4) == 0 {
            dev.delete(id).expect("delete");
            model.remove(&id);
        } else {
            let len = [200, 0, 10, 10, 10, 10, 10, 10][rng.next_bounded(8) as usize];
            dev.put(id, len).expect("put");
            model.insert(id, len);
        }
        if op % 1_000 == 0 || op == 24_500 {
            let live = dev.metadata().live_unique_bytes;
            assert_eq!(live, model_bytes(&model), "{kind:?} op {op}");
        }
    }
    let mut id = 1 << 20;
    loop {
        match dev.put(id, 200) {
            Ok(_) => id += 1,
            Err(KvError::DeviceFull) => break,
            Err(e) => panic!("{kind:?}: unexpected: {e}"),
        }
    }
    let meta = dev.metadata();
    assert!(meta.levels >= 2, "{kind:?}: one level");
    assert_eq!(
        meta.live_unique_bytes,
        brute_force(&dev),
        "{kind:?} at DeviceFull"
    );
}
