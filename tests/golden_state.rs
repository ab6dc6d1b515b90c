//! Golden-state tests: a small seeded run must leave exactly the pinned
//! flash counters, horizon and metadata.
//!
//! Host-speed work on the engines (sorting, packing, merging) must not
//! change what the simulation does. A change that quietly reorders
//! simulated work moves at least one of these values, so `cargo test`
//! catches it without a full benchmark sweep. Each run also asserts that
//! it took its engine's compaction path (AnyKey+'s in-place rewrite, base
//! AnyKey's `InlineAll` merge, PinK's merge), so the pins cover the
//! inlining code as well as flush and tree compaction. Every engine also
//! pins how many scans it ran and a digest of the key ids they returned,
//! so the range-scan merge is covered too. Every background span (flush,
//! compaction, GC) a run records is folded into a span digest, so the
//! order, levels, times and page counts of the background work are pinned
//! as well; a PinK update run that reaches data- and meta-block GC pins
//! the `gc` spans. AnyKey− runs the mixed stream too (its one compaction
//! path is the tree merge), and AnyKey+ and AnyKey− update streams that
//! end at `DeviceFull` pin the group area's relocation GC. Every request
//! outcome of the mixed runs (issue and
//! completion times, found, flash reads and the five latency phases) is
//! folded into an outcome digest, so where each request's time goes is
//! pinned too.
//!
//! The pinned values are simulation results, not expectations derived
//! from the model: when a change alters behaviour on purpose, re-pin them
//! from the failure message and say so in the change log.

mod common;

use anykey::core::{EngineKind, KvError, OpOutcome};
use anykey::metrics::TraceEvent;
use anykey::workload::{Op, SplitMix64};

const KEYSPACE: u64 = 24_000;
const OPS: u64 = 80_000;

struct Golden {
    counters: String,
    horizon: u64,
    metadata: String,
    scans: u64,
    scan_digest: u64,
    spans: Spans,
    outcomes: u64,
}

/// Every background span of a run, folded in trace order.
struct Spans {
    /// How many spans were recorded.
    count: u64,
    /// FNV-1a digest over each span's kind, label, level, id, start, end
    /// and page counts.
    digest: u64,
    /// `kind/label` of every span, once each, in first-seen order.
    labels: Vec<String>,
    /// How many `gc` spans had each label, in first-seen order.
    gc: Vec<(String, u64)>,
}

impl Spans {
    fn new() -> Self {
        Self {
            count: 0,
            digest: 0xCBF2_9CE4_8422_2325,
            labels: Vec::new(),
            gc: Vec::new(),
        }
    }

    /// Folds the spans among `events` (one drained trace chunk).
    fn fold_all(&mut self, events: Vec<TraceEvent>) {
        for ev in events {
            let TraceEvent::Span {
                kind,
                label,
                level,
                id,
                start,
                end,
                pages_read,
                pages_written,
            } = ev
            else {
                continue;
            };
            self.count += 1;
            for s in [&kind, &label] {
                fold(&mut self.digest, s.len() as u64);
                for b in s.bytes() {
                    fold(&mut self.digest, u64::from(b));
                }
            }
            for x in [u64::from(level), id, start, end, pages_read, pages_written] {
                fold(&mut self.digest, x);
            }
            if kind == "gc" {
                match self.gc.iter_mut().find(|(l, _)| *l == label) {
                    Some((_, n)) => *n += 1,
                    None => self.gc.push((label.clone(), 1)),
                }
            }
            let name = format!("{kind}/{label}");
            if !self.labels.contains(&name) {
                self.labels.push(name);
            }
        }
    }
}

/// Folds `x` into an FNV-1a digest.
fn fold(digest: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *digest ^= u64::from(b);
        *digest = digest.wrapping_mul(0x0100_0000_01B3);
    }
}

/// Folds one request outcome: its times, found flag, flash reads and the
/// five latency phases.
fn fold_outcome(digest: &mut u64, o: &OpOutcome) {
    let p = &o.phases;
    for x in [
        o.issued_at,
        o.done_at,
        u64::from(o.found),
        u64::from(o.flash_reads),
        p.queue_wait,
        p.meta_read,
        p.data_read,
        p.log_read,
        p.engine,
    ] {
        fold(digest, x);
    }
}

/// Runs a seeded mixed stream (PUT-heavy, with deletes, GETs, short scans
/// and a few page-sized values) on a 16 MiB device, with tracing on so the
/// compaction spans can be checked. Scans go through `scan_keys`, whose
/// key ids (each scan's count, then its ids) feed the scan digest; every
/// request's outcome feeds the outcome digest.
fn run(kind: EngineKind, seed: u64) -> Golden {
    let mut dev = common::test_device(kind)
        .key_len(24)
        .value_log_bytes(2 << 20)
        .build()
        .build_engine();
    dev.set_tracing(true);
    let mut rng = SplitMix64::new(seed);
    let mut spans = Spans::new();
    let (mut scans, mut scan_digest) = (0u64, 0xCBF2_9CE4_8422_2325u64);
    let mut outcomes = 0xCBF2_9CE4_8422_2325u64;
    for i in 0..OPS {
        let key = rng.next_bounded(KEYSPACE);
        let op = match rng.next_bounded(100) {
            0..=59 => {
                let value_len = if rng.next_bounded(100) == 0 {
                    4096 + rng.next_bounded(4096) as u32
                } else {
                    8 + rng.next_bounded(300) as u32
                };
                Op::Put { key, value_len }
            }
            60..=64 => Op::Delete { key },
            65..=94 => Op::Get { key },
            _ => Op::Scan {
                start: key,
                len: 20,
            },
        };
        let at = dev.horizon();
        if let Op::Scan { start, len } = op {
            let (ids, outcome) = dev.scan_keys(start, len, at);
            scans += 1;
            fold(&mut scan_digest, ids.len() as u64);
            for id in ids {
                fold(&mut scan_digest, id);
            }
            fold_outcome(&mut outcomes, &outcome);
        } else {
            let outcome = dev
                .execute(&op, at)
                .unwrap_or_else(|e| panic!("{kind}: op {i} ({op:?}) failed: {e}"));
            fold_outcome(&mut outcomes, &outcome);
        }
        if i % 4096 == 4095 || i + 1 == OPS {
            spans.fold_all(dev.take_trace());
        }
    }
    dev.check_invariants()
        .unwrap_or_else(|e| panic!("{kind}: final audit failed: {e}"));
    Golden {
        counters: format!("{:?}", dev.counters()),
        horizon: dev.horizon(),
        metadata: format!("{:?}", dev.metadata()),
        scans,
        scan_digest,
        spans,
        outcomes,
    }
}

/// Runs `kind` and checks every pin. `path_label` is a compaction span the
/// run must have taken; `times` is the end horizon and the outcome digest,
/// `scans` the scan count and digest, `spans` the span count and digest.
fn assert_golden(
    kind: EngineKind,
    path_label: &str,
    times: (u64, u64),
    counters: &str,
    metadata: &str,
    scans: (u64, u64),
    spans: (u64, u64),
) {
    let g = run(kind, 0x601D_57A7E);
    let path = format!("compaction/{path_label}");
    assert!(
        g.spans.labels.contains(&path),
        "{kind}: the run never took its compaction path `{path_label}` (spans: {:?})",
        g.spans.labels
    );
    assert_eq!(
        (g.scans, g.scan_digest),
        scans,
        "{kind}: scan results moved"
    );
    assert_eq!(g.horizon, times.0, "{kind}: horizon moved");
    assert_eq!(g.counters, counters, "{kind}: flash counters moved");
    assert_eq!(g.metadata, metadata, "{kind}: metadata moved");
    assert_eq!(
        (g.spans.count, g.spans.digest),
        spans,
        "{kind}: background spans moved"
    );
    assert_eq!(g.outcomes, times.1, "{kind}: request outcomes moved");
}

#[test]
fn anykey_plus_state_is_pinned() {
    assert_golden(
        EngineKind::AnyKeyPlus,
        "inline-rewrite",
        (13_218_775_638, 5_629_932_953_494_078_686),
        "FlashCounters { reads: [75813, 0, 0, 0, 6761, 0, 0, 0, 22610, 0], \
         writes: [0, 0, 0, 0, 0, 6264, 0, 0, 0, 1287], \
         retry_reads: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0], \
         reads_total: 105184, writes_total: 7551, retry_reads_total: 0, \
         erases: 469, program_fails: 0, erase_fails: 0 }",
        "MetadataStats { level_list_bytes: 5387, level_list_flash_bytes: 0, \
         hash_list_total_bytes: 89948, hash_list_resident_bytes: 0, \
         meta_segment_dram_bytes: 0, meta_segment_flash_bytes: 0, \
         dram_capacity: 16384, dram_used: 13579, levels: 2, \
         live_unique_bytes: 4721059, value_log_used_bytes: 613190, \
         retry_reads: 0, program_fails: 0, erase_fails: 0, \
         retired_blocks: 0, free_blocks: 75 }",
        (3946, 7_257_491_339_025_105_244),
        (198, 17_404_569_934_655_413_594),
    );
}

#[test]
fn anykey_state_is_pinned() {
    assert_golden(
        EngineKind::AnyKey,
        "inline-all",
        (13_039_053_347, 16_331_729_955_523_206_103),
        "FlashCounters { reads: [75813, 0, 0, 0, 5675, 0, 0, 0, 22610, 0], \
         writes: [0, 0, 0, 0, 0, 5178, 0, 0, 0, 1287], \
         retry_reads: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0], \
         reads_total: 104098, writes_total: 6465, retry_reads_total: 0, \
         erases: 397, program_fails: 0, erase_fails: 0 }",
        "MetadataStats { level_list_bytes: 5387, level_list_flash_bytes: 0, \
         hash_list_total_bytes: 89948, hash_list_resident_bytes: 0, \
         meta_segment_dram_bytes: 0, meta_segment_flash_bytes: 0, \
         dram_capacity: 16384, dram_used: 13579, levels: 2, \
         live_unique_bytes: 4721059, value_log_used_bytes: 613190, \
         retry_reads: 0, program_fails: 0, erase_fails: 0, \
         retired_blocks: 0, free_blocks: 76 }",
        (3946, 7_257_491_339_025_105_244),
        (194, 15_249_286_669_794_152_048),
    );
}

#[test]
fn pink_state_is_pinned() {
    assert_golden(
        EngineKind::Pink,
        "merge",
        (12_279_415_528, 17_360_562_139_449_481_006),
        "FlashCounters { reads: [71455, 0, 46429, 0, 1291, 0, 0, 0, 0, 0], \
         writes: [0, 0, 0, 8, 0, 2830, 0, 0, 0, 0], \
         retry_reads: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0], \
         reads_total: 119175, writes_total: 2838, retry_reads_total: 0, \
         erases: 74, program_fails: 0, erase_fails: 0 }",
        "MetadataStats { level_list_bytes: 2349, level_list_flash_bytes: 0, \
         hash_list_total_bytes: 0, hash_list_resident_bytes: 0, \
         meta_segment_dram_bytes: 5370, meta_segment_flash_bytes: 645330, \
         dram_capacity: 16384, dram_used: 15911, levels: 2, \
         live_unique_bytes: 4721059, value_log_used_bytes: 0, \
         retry_reads: 0, program_fails: 0, erase_fails: 0, \
         retired_blocks: 0, free_blocks: 23 }",
        (3946, 7_257_491_339_025_105_244),
        (197, 13_155_278_811_583_422_964),
    );
}

/// Runs a seeded scan stream on `kind` over the same 16 MiB device and
/// folds every scan's charges into one digest: its key ids, flash reads
/// and latency. The stream fills ids below `SCAN_KEYSPACE`, deletes runs
/// of 300 to 599 consecutive ids so that upper levels hold tombstone
/// runs a scan budget must double across (or stop at the 64× cap in),
/// rewrites a few keys so the write buffer holds some, then runs scans of
/// every length in `SCAN_LENS` from seeded starts. Returns the scan count
/// and the digest.
fn scan_charges(kind: EngineKind) -> (u64, u64) {
    const SCAN_KEYSPACE: u64 = 12_000;
    const SCAN_LENS: [u32; 5] = [0, 1, 20, 100, 200];
    let mut dev = common::test_device(kind)
        .key_len(24)
        .value_log_bytes(2 << 20)
        .build()
        .build_engine();
    let mut rng = SplitMix64::new(0x5CA7_C4A6);
    let exec = |dev: &mut Box<dyn anykey::core::KvEngine>, op: Op| {
        let at = dev.horizon();
        dev.execute(&op, at)
            .unwrap_or_else(|e| panic!("{kind}: {op:?} failed: {e}"));
    };
    for key in 0..SCAN_KEYSPACE {
        let value_len = 8 + rng.next_bounded(300) as u32;
        exec(&mut dev, Op::Put { key, value_len });
    }
    for _ in 0..10 {
        let from = rng.next_bounded(SCAN_KEYSPACE);
        for key in from..(from + 300 + rng.next_bounded(300)).min(SCAN_KEYSPACE) {
            exec(&mut dev, Op::Delete { key });
        }
    }
    for _ in 0..300 {
        let key = rng.next_bounded(SCAN_KEYSPACE);
        let value_len = 8 + rng.next_bounded(300) as u32;
        exec(&mut dev, Op::Put { key, value_len });
    }
    let (mut scans, mut digest) = (0u64, 0xCBF2_9CE4_8422_2325u64);
    for i in 0..600 {
        let start = rng.next_bounded(SCAN_KEYSPACE);
        let len = SCAN_LENS[i % SCAN_LENS.len()];
        let at = dev.horizon();
        let (ids, outcome) = dev.scan_keys(start, len, at);
        scans += 1;
        fold(&mut digest, ids.len() as u64);
        for id in ids {
            fold(&mut digest, id);
        }
        fold(&mut digest, u64::from(outcome.flash_reads));
        fold(&mut digest, outcome.latency());
    }
    (scans, digest)
}

#[test]
fn scan_charges_are_pinned() {
    for (kind, pin) in [
        (EngineKind::AnyKeyPlus, (600, 7_291_658_249_161_598_570)),
        (EngineKind::AnyKey, (600, 7_291_658_249_161_598_570)),
        (EngineKind::Pink, (600, 17_104_536_539_339_362_105)),
    ] {
        assert_eq!(scan_charges(kind), pin, "{kind}: scan charges moved");
    }
}

/// Runs PinK on the same 16 MiB device into data- and meta-block GC:
/// 26,000 ids are inserted, then uniform updates follow up to 150,000
/// PUTs, all with 8 to 307 B values. Returns the audited end state's
/// spans. (At 30,000 ids the stream reaches ROADMAP #2's byte-log
/// underflow, so the keyspace stays below that.)
fn pink_gc_spans() -> Spans {
    const IDS: u64 = 26_000;
    const PUTS: u64 = 150_000;
    let mut dev = common::test_device(EngineKind::Pink)
        .key_len(24)
        .build()
        .build_engine();
    dev.set_tracing(true);
    let mut rng = SplitMix64::new(7);
    let mut spans = Spans::new();
    for i in 0..PUTS {
        let key = if i < IDS { i } else { rng.next_bounded(IDS) };
        let value_len = 8 + rng.next_bounded(300) as u32;
        dev.put(key, value_len)
            .unwrap_or_else(|e| panic!("PinK: put {i} failed: {e}"));
        if i % 4096 == 4095 {
            spans.fold_all(dev.take_trace());
        }
    }
    spans.fold_all(dev.take_trace());
    dev.check_invariants()
        .unwrap_or_else(|e| panic!("PinK: final audit failed: {e}"));
    spans
}

#[test]
fn pink_gc_spans_are_pinned() {
    let spans = pink_gc_spans();
    let gc: Vec<(&str, u64)> = spans.gc.iter().map(|(l, n)| (l.as_str(), *n)).collect();
    assert_eq!(
        gc,
        [("relocate-meta", 16), ("relocate-data", 111)],
        "PinK: GC span counts moved"
    );
    assert_eq!(
        (spans.count, spans.digest),
        (614, 10_068_490_409_194_804_809),
        "PinK: background spans moved"
    );
}

#[test]
fn anykey_minus_state_is_pinned() {
    assert_golden(
        EngineKind::AnyKeyNoLog,
        "keep",
        (10_284_002_016, 10_611_581_971_519_813_175),
        "FlashCounters { reads: [69173, 0, 0, 0, 11854, 0, 0, 0, 0, 0], \
         writes: [0, 0, 0, 0, 0, 12652, 0, 0, 0, 0], \
         retry_reads: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0], \
         reads_total: 81027, writes_total: 12652, retry_reads_total: 0, \
         erases: 800, program_fails: 0, erase_fails: 0 }",
        "MetadataStats { level_list_bytes: 5996, level_list_flash_bytes: 0, \
         hash_list_total_bytes: 89948, hash_list_resident_bytes: 1140, \
         meta_segment_dram_bytes: 0, meta_segment_flash_bytes: 0, \
         dram_capacity: 16384, dram_used: 15328, levels: 2, \
         live_unique_bytes: 4721059, value_log_used_bytes: 0, \
         retry_reads: 0, program_fails: 0, erase_fails: 0, \
         retired_blocks: 0, free_blocks: 77 }",
        (3946, 7_257_491_339_025_105_244),
        (199, 5_868_308_302_951_650_351),
    );
}

/// What an update stream leaves when it stops at `DeviceFull`: the index
/// of the refused PUT, the flash counters and every background span.
struct UpdateRun {
    stop: u64,
    counters: String,
    spans: Spans,
}

/// Runs `kind` on the 16 MiB device with 24 B keys and a `log_bytes`
/// value log through `pink_gc_spans`' stream until a PUT is refused with
/// `DeviceFull`: the first `ids` PUTs insert ids 0 to `ids − 1`, then
/// uniform updates follow, all with 8 to 307 B values. The trace is
/// drained after the last PUT and the end state audited.
fn update_until_full(kind: EngineKind, log_bytes: u64, ids: u64) -> UpdateRun {
    let mut dev = common::test_device(kind)
        .key_len(24)
        .value_log_bytes(log_bytes)
        .build()
        .build_engine();
    dev.set_tracing(true);
    let mut rng = SplitMix64::new(7);
    let mut spans = Spans::new();
    let mut i = 0u64;
    let stop = loop {
        let key = if i < ids { i } else { rng.next_bounded(ids) };
        let value_len = 8 + rng.next_bounded(300) as u32;
        match dev.put(key, value_len) {
            Ok(_) => {}
            Err(KvError::DeviceFull) => break i,
            Err(e) => panic!("{kind}: put {i} failed: {e}"),
        }
        if i % 4096 == 4095 {
            spans.fold_all(dev.take_trace());
        }
        i += 1;
    };
    spans.fold_all(dev.take_trace());
    dev.check_invariants()
        .unwrap_or_else(|e| panic!("{kind}: final audit failed: {e}"));
    UpdateRun {
        stop,
        counters: format!("{:?}", dev.counters()),
        spans,
    }
}

/// Checks an [`update_until_full`] run against its pins: the refused
/// PUT's index, the counters, the `gc` span counts, and the span count
/// and digest. The run must have relocated groups.
fn assert_update_run(
    run: &UpdateRun,
    kind: EngineKind,
    stop: u64,
    counters: &str,
    gc: &[(&str, u64)],
    spans: (u64, u64),
) {
    assert_eq!(run.stop, stop, "{kind}: the refused PUT moved");
    assert_eq!(run.counters, counters, "{kind}: flash counters moved");
    let got: Vec<(&str, u64)> = run.spans.gc.iter().map(|(l, n)| (l.as_str(), *n)).collect();
    assert_eq!(got, gc, "{kind}: GC span counts moved");
    assert_eq!(
        (run.spans.count, run.spans.digest),
        spans,
        "{kind}: background spans moved"
    );
}

#[test]
fn anykey_plus_group_relocation_is_pinned() {
    let run = update_until_full(EngineKind::AnyKeyPlus, 4 << 20, 34_000);
    assert_update_run(
        &run,
        EngineKind::AnyKeyPlus,
        76_244,
        "FlashCounters { reads: [0, 0, 0, 0, 10018, 0, 2385, 0, 0, 0], \
         writes: [0, 0, 0, 0, 0, 9959, 0, 2385, 0, 1455], \
         retry_reads: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0], \
         reads_total: 12403, writes_total: 13799, retry_reads_total: 0, \
         erases: 870, program_fails: 0, erase_fails: 0 }",
        &[("relocate", 192)],
        (423, 14_163_407_339_874_863_051),
    );
}

#[test]
fn anykey_minus_group_relocation_is_pinned() {
    let run = update_until_full(EngineKind::AnyKeyNoLog, 0, 42_000);
    assert_update_run(
        &run,
        EngineKind::AnyKeyNoLog,
        89_578,
        "FlashCounters { reads: [0, 0, 0, 0, 18393, 0, 2572, 0, 0, 0], \
         writes: [0, 0, 0, 0, 0, 20312, 0, 2572, 0, 0], \
         retry_reads: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0], \
         reads_total: 20965, writes_total: 22884, retry_reads_total: 0, \
         erases: 1486, program_fails: 0, erase_fails: 0 }",
        &[("relocate", 259)],
        (542, 5_019_652_897_716_681_978),
    );
}
