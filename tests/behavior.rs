//! Behavioural tests for paths the oracle stream rarely exercises:
//! tombstone shadowing across levels, AnyKey− inline operation, read-cost
//! mechanics, queue-depth effects, and device-full semantics.

mod common;

use anykey::core::runner::DEFAULT_QUEUE_DEPTH;
use anykey::core::{run, warm_up, DeviceConfig, EngineKind, KvEngine, KvError};
use anykey::flash::OpCause;
use anykey::workload::{spec, Op, OpStreamBuilder};

fn tiny(kind: EngineKind) -> Box<dyn KvEngine> {
    common::test_device(kind).key_len(24).build().build_engine()
}

/// Deleting a key that has already been compacted into deep levels must
/// shadow every older version, and re-inserting must resurrect it.
#[test]
fn tombstones_shadow_deep_versions() {
    for kind in [EngineKind::Pink, EngineKind::AnyKeyPlus] {
        let mut dev = tiny(kind);
        // Push key 7 deep by writing lots of other data after it.
        dev.put(7, 80).unwrap();
        for id in 1_000..40_000u64 {
            dev.put(id, 80).unwrap();
        }
        assert!(dev.get(7).found, "{kind}: key lost before delete");
        dev.delete(7).unwrap();
        // Bury the tombstone too.
        for id in 40_000..60_000u64 {
            dev.put(id, 80).unwrap();
        }
        assert!(!dev.get(7).found, "{kind}: tombstone failed to shadow");
        dev.put(7, 33).unwrap();
        assert!(dev.get(7).found, "{kind}: key did not resurrect");
        dev.check_invariants()
            .unwrap_or_else(|e| panic!("{kind}: post-churn audit failed: {e}"));
    }
}

/// AnyKey− (no value log) never touches log causes; AnyKey with a log
/// serves some reads from it.
#[test]
fn value_log_ablation_changes_traffic_shape() {
    let w = spec::by_name("UDB").unwrap();
    let mut log_reads = Vec::new();
    for kind in [EngineKind::AnyKeyPlus, EngineKind::AnyKeyNoLog] {
        let mut dev = DeviceConfig::builder()
            .capacity_bytes(64 << 20)
            .engine(kind)
            .key_len(w.key_len as u16)
            .build()
            .build_engine();
        let keyspace = (16 << 20) / w.pair_bytes();
        warm_up(dev.as_mut(), w, keyspace, 3).unwrap();
        let ops = OpStreamBuilder::new(w, keyspace).seed(5).build();
        let report = run(dev.as_mut(), ops, 60_000, DEFAULT_QUEUE_DEPTH).unwrap();
        log_reads.push(
            report.counters.reads(OpCause::LogRead) + report.counters.writes(OpCause::LogWrite),
        );
    }
    assert!(log_reads[0] > 0, "AnyKey+ must exercise the value log");
    assert_eq!(log_reads[1], 0, "AnyKey- must never touch a value log");
}

/// A buffered GET costs zero flash reads; a flushed GET costs at least
/// one; an absent key with resident hash lists costs none (the Section 4.2
/// filter).
#[test]
fn anykey_read_costs_match_the_design() {
    let mut dev = tiny(EngineKind::AnyKeyPlus);
    dev.put(1, 50).unwrap();
    assert_eq!(dev.get(1).flash_reads, 0, "buffer hit must be free");
    // Force flushes.
    for id in 100..40_000u64 {
        dev.put(id, 50).unwrap();
    }
    let flushed = dev.get(1);
    assert!(flushed.found);
    assert!(flushed.flash_reads >= 1, "flushed key needs a group read");
    // Absent key: hash lists for the top levels filter the read.
    let absent = dev.get(77_777_777);
    assert!(!absent.found);
    assert!(
        absent.flash_reads <= 4,
        "absent-key probe did {} reads",
        absent.flash_reads
    );
}

/// Deeper queues raise throughput without breaking latency accounting.
#[test]
fn queue_depth_trades_latency_for_throughput() {
    let w = spec::by_name("Dedup").unwrap();
    let mut iops = Vec::new();
    for qd in [1usize, 64] {
        let mut dev = tiny(EngineKind::AnyKeyPlus);
        let keyspace = 30_000;
        warm_up(dev.as_mut(), w, keyspace, 1).unwrap();
        let ops = OpStreamBuilder::new(w, keyspace).seed(2).build();
        let report = run(dev.as_mut(), ops, 30_000, qd).unwrap();
        iops.push(report.iops());
    }
    assert!(
        iops[1] > iops[0] * 2.0,
        "QD64 ({:.0}) should far outrun QD1 ({:.0})",
        iops[1],
        iops[0]
    );
}

/// Once a device reports full it keeps reporting full (no silent
/// corruption), and reads still work. The live-bytes ledger keeps every
/// PUT it saw up to `DeviceFull`, the rejected one included: `full_at + 1`
/// pairs. AnyKey+ fills with 100-byte values, a length at which it reaches
/// `DeviceFull` with its log ledger intact on this device (ROADMAP #1).
#[test]
fn device_full_is_sticky_and_readable() {
    for (kind, value_len, live) in [
        (EngineKind::Pink, 200, 13_233_024),
        (EngineKind::AnyKeyPlus, 100, 11_037_860),
    ] {
        let mut dev = tiny(kind);
        let mut id = 0u64;
        let full_at = loop {
            match dev.put(id, value_len) {
                Ok(_) => id += 1,
                Err(KvError::DeviceFull) => break id,
                Err(e) => panic!("{kind:?}: unexpected: {e}"),
            }
        };
        assert!(
            full_at > 10_000,
            "{kind:?}: device filled suspiciously early: {full_at}"
        );
        let live_now = dev.metadata().live_unique_bytes;
        assert_eq!(live_now, live, "{kind:?}");
        assert_eq!(live_now, (full_at + 1) * (24 + u64::from(value_len)));
        // Reads of previously inserted keys still succeed.
        assert!(dev.get(0).found, "{kind:?}");
        assert!(dev.get(full_at / 2).found, "{kind:?}");
        // Even a device that hit full mid-operation must be structurally sound.
        dev.check_invariants().expect("post-device-full audit");
    }
}

/// AnyKey fills this device to `DeviceFull` at the same id whether the
/// debug boundary audits run or not: they run only at quiescent
/// boundaries, never between a flush's log appends and its merge, where
/// the log ledger is legitimately ahead of the tree. The ids are the
/// release build's. (The device is not audited after the fill: ROADMAP
/// #1, "Flush ordering".)
#[test]
fn anykey_fills_to_device_full_with_audits_on() {
    for (kind, value_len, full_at) in [
        (EngineKind::AnyKey, 100, 89_951),
        (EngineKind::AnyKey, 200, 56_340),
        (EngineKind::AnyKeyPlus, 200, 56_340),
    ] {
        let mut dev = tiny(kind);
        let mut id = 0u64;
        let err = loop {
            match dev.put(id, value_len) {
                Ok(_) => id += 1,
                Err(e) => break e,
            }
        };
        assert_eq!(
            (id, err),
            (full_at, KvError::DeviceFull),
            "{kind:?}, {value_len} B values"
        );
    }
}

/// Key ids beyond the synthesizable range surface KeyTooLarge on every
/// op of every engine, not corruption; a scan from such a key is empty
/// and takes no time.
#[test]
fn key_too_large_is_reported() {
    let key = 1 << 40;
    for kind in [
        EngineKind::AnyKey,
        EngineKind::AnyKeyPlus,
        EngineKind::AnyKeyNoLog,
        EngineKind::Pink,
    ] {
        let mut dev = common::test_device(kind).key_len(4).build().build_engine();
        let at = dev.horizon();
        for op in [
            Op::Put { key, value_len: 10 },
            Op::Get { key },
            Op::Delete { key },
            Op::Scan {
                start: key,
                len: 10,
            },
        ] {
            let err = dev.execute(&op, at).unwrap_err();
            assert!(
                matches!(err, KvError::KeyTooLarge { .. }),
                "{kind:?} {op:?}: {err:?}"
            );
        }
        let (ids, o) = dev.scan_keys(key, 10, at);
        assert!(ids.is_empty(), "{kind:?}");
        assert_eq!(
            (o.issued_at, o.done_at, o.found),
            (at, at, false),
            "{kind:?}"
        );
    }
}

/// Scans crossing group/segment boundaries return exactly the requested
/// count when enough keys exist.
#[test]
fn long_scans_cross_structure_boundaries() {
    for kind in [EngineKind::Pink, EngineKind::AnyKeyPlus] {
        let mut dev = tiny(kind);
        for id in 0..30_000u64 {
            dev.put(id, 60).unwrap();
        }
        let at = dev.horizon();
        let (keys, outcome) = dev.scan_keys(5_000, 500, at);
        assert_eq!(keys.len(), 500, "{kind}: short scan result");
        assert_eq!(keys[0], 5_000);
        assert_eq!(*keys.last().unwrap(), 5_499);
        assert!(outcome.flash_reads > 0);
        dev.check_invariants()
            .unwrap_or_else(|e| panic!("{kind}: post-scan audit failed: {e}"));
    }
}

/// Counters' `since` snapshots isolate the measured phase.
#[test]
fn counter_snapshots_isolate_phases() {
    let w = spec::by_name("Cache15").unwrap();
    let mut dev = tiny(EngineKind::AnyKeyPlus);
    warm_up(dev.as_mut(), w, 20_000, 9).unwrap();
    // Warm-up reset the counters; a read-only phase must show zero
    // programs outside background work already queued.
    let before = dev.counters();
    for id in 0..500u64 {
        dev.get(id * 7 % 20_000);
    }
    let delta = dev.counters().since(&before);
    assert!(delta.total_reads() > 0);
    assert_eq!(delta.writes(OpCause::CompactionWrite), 0);
}
