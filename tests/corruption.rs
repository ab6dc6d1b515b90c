//! Corruption-injection tests: each seeded fault must be caught by
//! `check_invariants` and produce its own, distinguishable diagnostic.
//!
//! The injection hooks (`*_for_test` on the concrete stores) bypass the
//! engines' normal mutation paths, so these tests prove the auditor
//! detects damage rather than merely re-deriving state the engine already
//! trusts. The `flush_boundary_audit_*` cases also prove that test builds
//! run the audit on their own at every flush boundary.

use anykey::core::anykey::AnyKeyStore;
use anykey::core::pink::PinkStore;
use anykey::core::{AuditError, DeviceConfig, EngineKind, KvEngine, KvError};

fn config(kind: EngineKind) -> DeviceConfig {
    DeviceConfig::builder()
        .capacity_bytes(64 << 20)
        .engine(kind)
        .key_len(16)
        .build()
}

fn filled_anykey() -> AnyKeyStore {
    let mut s = AnyKeyStore::new(config(EngineKind::AnyKey));
    for id in 0..30_000u64 {
        s.put(id, 60).expect("fill");
    }
    s
}

fn filled_pink() -> PinkStore {
    let mut s = PinkStore::new(config(EngineKind::Pink));
    for id in 0..20_000u64 {
        s.put(id, 60).expect("fill");
    }
    s
}

/// A PinK store whose 2 KiB of DRAM spills meta segments and level-list
/// pages to the meta area.
fn spilled_pink() -> PinkStore {
    let cfg = DeviceConfig::builder()
        .capacity_bytes(64 << 20)
        .engine(EngineKind::Pink)
        .key_len(16)
        .dram_bytes(2 << 10)
        .build();
    let mut s = PinkStore::new(cfg);
    for id in 0..20_000u64 {
        s.put(id, 60).expect("fill");
    }
    s
}

#[test]
fn out_of_order_level_list_is_detected() {
    let mut s = filled_anykey();
    assert_eq!(
        s.check_invariants(),
        Ok(()),
        "healthy store must audit clean"
    );
    assert!(
        s.corrupt_level_order_for_test(),
        "fill must produce a level with at least two groups"
    );
    let err = s.check_invariants().expect_err("corruption must be caught");
    assert!(matches!(err, AuditError::LevelOrder { .. }), "got {err}");
    assert!(
        err.to_string().contains("out of key order"),
        "diagnostic must name the ordering fault: {err}"
    );
}

#[test]
fn stale_group_fence_is_detected() {
    let mut s = filled_anykey();
    assert_eq!(
        s.check_invariants(),
        Ok(()),
        "healthy store must audit clean"
    );
    assert!(
        s.corrupt_group_fence_for_test(),
        "fill must produce a group with at least two entities"
    );
    let err = s.check_invariants().expect_err("corruption must be caught");
    assert!(matches!(err, AuditError::FenceMismatch { .. }), "got {err}");
    assert!(
        err.to_string().contains("cached key fences"),
        "diagnostic must name the fence fault: {err}"
    );
}

#[test]
fn gapped_group_records_are_detected() {
    let mut s = filled_anykey();
    assert_eq!(
        s.check_invariants(),
        Ok(()),
        "healthy store must audit clean"
    );
    assert!(
        s.corrupt_group_range_for_test(),
        "fill must produce a level with at least two groups"
    );
    let err = s.check_invariants().expect_err("corruption must be caught");
    assert!(matches!(err, AuditError::GroupTiling { .. }), "got {err}");
    assert!(
        err.to_string()
            .contains("does not tile the level's entity array"),
        "diagnostic must name the tiling fault: {err}"
    );
}

#[test]
fn overclaimed_dram_budget_is_detected() {
    let mut s = filled_anykey();
    assert_eq!(
        s.check_invariants(),
        Ok(()),
        "healthy store must audit clean"
    );
    s.overclaim_dram_for_test();
    let err = s.check_invariants().expect_err("corruption must be caught");
    assert!(
        matches!(
            err,
            AuditError::DramMismatch { .. } | AuditError::DramOverBudget { .. }
        ),
        "got {err}"
    );
    assert!(
        err.to_string().contains("DRAM"),
        "diagnostic must name the DRAM fault: {err}"
    );
}

#[test]
fn desynced_flash_counter_is_detected() {
    let mut s = filled_pink();
    assert_eq!(
        s.check_invariants(),
        Ok(()),
        "healthy store must audit clean"
    );
    s.desync_counters_for_test();
    let err = s.check_invariants().expect_err("corruption must be caught");
    assert!(matches!(err, AuditError::CounterSkew { .. }), "got {err}");
    assert!(
        err.to_string().contains("counter skew"),
        "diagnostic must name the counter fault: {err}"
    );
}

/// PUTs into a store with a desynced counter until one fails. Test builds
/// keep debug assertions on, which compiles in the audit at every flush
/// boundary, so the PUT whose buffer flush finds the skew must return it.
fn assert_flush_audit_fails_put(s: &mut impl KvEngine) {
    let err = (0..100_000u64)
        .find_map(|id| s.put(id, 60).err())
        .expect("a buffer flush must run the boundary audit");
    assert!(
        matches!(err, KvError::Audit(AuditError::CounterSkew { .. })),
        "got {err}"
    );
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "audits need debug assertions")]
fn flush_boundary_audit_fires_in_test_builds_anykey() {
    let mut s = AnyKeyStore::new(config(EngineKind::AnyKey));
    s.desync_counters_for_test();
    assert_flush_audit_fails_put(&mut s);
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "audits need debug assertions")]
fn flush_boundary_audit_fires_in_test_builds_pink() {
    let mut s = PinkStore::new(config(EngineKind::Pink));
    s.desync_counters_for_test();
    assert_flush_audit_fails_put(&mut s);
}

#[test]
fn retired_block_with_live_data_is_detected_anykey() {
    let mut s = filled_anykey();
    assert_eq!(
        s.check_invariants(),
        Ok(()),
        "healthy store must audit clean"
    );
    assert!(
        s.retire_live_block_for_test(),
        "fill must produce at least one live group"
    );
    let err = s.check_invariants().expect_err("corruption must be caught");
    assert!(
        matches!(err, AuditError::RetiredBlockLive { .. }),
        "got {err}"
    );
    assert!(
        err.to_string().contains("retired block"),
        "diagnostic must name the retirement fault: {err}"
    );
}

#[test]
fn retired_block_with_live_data_is_detected_pink() {
    let mut s = filled_pink();
    assert_eq!(
        s.check_invariants(),
        Ok(()),
        "healthy store must audit clean"
    );
    assert!(
        s.retire_live_block_for_test(),
        "fill must produce at least one live entry"
    );
    let err = s.check_invariants().expect_err("corruption must be caught");
    assert!(
        matches!(err, AuditError::RetiredBlockLive { .. }),
        "got {err}"
    );
    assert!(
        err.to_string().contains("retired block"),
        "diagnostic must name the retirement fault: {err}"
    );
}

#[test]
fn desynced_retirement_accounting_is_detected() {
    let mut s = filled_anykey();
    assert_eq!(
        s.check_invariants(),
        Ok(()),
        "healthy store must audit clean"
    );
    s.desync_retirement_for_test();
    let err = s.check_invariants().expect_err("corruption must be caught");
    assert!(
        matches!(err, AuditError::RetirementSkew { .. }),
        "got {err}"
    );
    assert!(
        err.to_string().contains("retirement accounting skew"),
        "diagnostic must name the accounting fault: {err}"
    );
}

/// Checks that `err` is `owner`'s recount skew and names the ledger.
fn assert_recount_skew(err: AuditError, area: &str) {
    assert!(
        matches!(err, AuditError::RecountSkew { owner, .. } if owner == area),
        "got {err}"
    );
    assert!(
        err.to_string().contains("ledger count"),
        "diagnostic must name the ledger fault: {err}"
    );
}

#[test]
fn skewed_value_log_ledger_is_detected() {
    let mut s = filled_anykey();
    assert_eq!(
        s.check_invariants(),
        Ok(()),
        "healthy store must audit clean"
    );
    assert!(s.skew_ledger_for_test(true), "fill must log some value");
    let err = s.check_invariants().expect_err("corruption must be caught");
    assert_recount_skew(err, "value log");
}

#[test]
fn skewed_group_ledger_is_detected() {
    let mut s = filled_anykey();
    assert_eq!(
        s.check_invariants(),
        Ok(()),
        "healthy store must audit clean"
    );
    assert!(s.skew_ledger_for_test(false), "fill must write some group");
    let err = s.check_invariants().expect_err("corruption must be caught");
    assert_recount_skew(err, "group area");
}

#[test]
fn skewed_pink_meta_ledger_is_detected() {
    let mut s = spilled_pink();
    assert_eq!(
        s.check_invariants(),
        Ok(()),
        "healthy store must audit clean"
    );
    assert!(
        s.skew_meta_ledger_for_test(),
        "fill must spill some meta page"
    );
    let err = s.check_invariants().expect_err("corruption must be caught");
    assert_recount_skew(err, "meta area");
}

#[test]
fn untiled_pink_segments_are_detected() {
    let mut s = filled_pink();
    assert_eq!(
        s.check_invariants(),
        Ok(()),
        "healthy store must audit clean"
    );
    assert!(
        s.corrupt_segment_range_for_test(),
        "fill must produce a level with at least two segments"
    );
    let err = s.check_invariants().expect_err("corruption must be caught");
    assert!(matches!(err, AuditError::SegmentTiling { .. }), "got {err}");
    assert!(
        err.to_string().contains("does not tile"),
        "diagnostic must name the tiling fault: {err}"
    );
}

#[test]
fn stale_pink_segment_bytes_are_detected() {
    let mut s = filled_pink();
    assert_eq!(
        s.check_invariants(),
        Ok(()),
        "healthy store must audit clean"
    );
    assert!(
        s.corrupt_segment_bytes_for_test(),
        "fill must produce a segment"
    );
    let err = s.check_invariants().expect_err("corruption must be caught");
    assert!(matches!(err, AuditError::SegmentBytes { .. }), "got {err}");
    assert!(
        err.to_string().contains("caches"),
        "diagnostic must name the byte-count fault: {err}"
    );
}

#[test]
fn stale_pink_segment_fence_is_detected() {
    let mut s = filled_pink();
    assert_eq!(
        s.check_invariants(),
        Ok(()),
        "healthy store must audit clean"
    );
    assert!(
        s.corrupt_segment_fence_for_test(),
        "fill must produce a segment with at least two entries"
    );
    let err = s.check_invariants().expect_err("corruption must be caught");
    assert!(matches!(err, AuditError::SegmentFence { .. }), "got {err}");
    assert!(
        err.to_string().contains("level-list key"),
        "diagnostic must name the stale first key: {err}"
    );
}

#[test]
fn skewed_group_page_starts_are_detected() {
    let mut s = filled_anykey();
    assert_eq!(
        s.check_invariants(),
        Ok(()),
        "healthy store must audit clean"
    );
    assert!(s.corrupt_page_start_for_test(), "fill must produce a group");
    let err = s.check_invariants().expect_err("corruption must be caught");
    assert!(matches!(err, AuditError::PageStartSkew { .. }), "got {err}");
    assert!(
        err.to_string().contains("page starts"),
        "diagnostic must name the page-start fault: {err}"
    );
}

#[test]
fn stale_group_hash_list_is_detected() {
    let mut s = filled_anykey();
    assert_eq!(
        s.check_invariants(),
        Ok(()),
        "healthy store must audit clean"
    );
    assert!(s.corrupt_hash_list_for_test(), "fill must produce a group");
    let err = s.check_invariants().expect_err("corruption must be caught");
    assert!(
        matches!(err, AuditError::HashListMismatch { .. }),
        "got {err}"
    );
    assert!(
        err.to_string().contains("hash list"),
        "diagnostic must name the hash-list fault: {err}"
    );
}

#[test]
fn stale_routing_prefix_is_detected() {
    let mut s = filled_anykey();
    assert_eq!(
        s.check_invariants(),
        Ok(()),
        "healthy store must audit clean"
    );
    assert!(
        s.corrupt_routing_prefix_for_test(),
        "fill must produce a group with a page whose first hash can rise in order"
    );
    let err = s.check_invariants().expect_err("corruption must be caught");
    assert!(matches!(err, AuditError::RoutingOrder { .. }), "got {err}");
    assert!(
        err.to_string().contains("page-routing"),
        "diagnostic must name the routing fault: {err}"
    );
}

#[test]
fn misplaced_group_slots_are_detected() {
    let mut s = filled_anykey();
    assert_eq!(
        s.check_invariants(),
        Ok(()),
        "healthy store must audit clean"
    );
    assert!(
        s.corrupt_slot_index_for_test(),
        "fill must produce a group with slots in two pages"
    );
    let err = s.check_invariants().expect_err("corruption must be caught");
    assert!(matches!(err, AuditError::SlotIndexSkew { .. }), "got {err}");
    let msg = err.to_string();
    assert!(
        msg.contains("slot index"),
        "diagnostic must name the slot-index fault: {msg}"
    );
    // Tellable apart from the two other flat-layout faults of a group.
    let mut starts = filled_anykey();
    assert!(starts.corrupt_page_start_for_test());
    let mut hashes = filled_anykey();
    assert!(hashes.corrupt_hash_list_for_test());
    for other in [starts, hashes] {
        let other_msg = other.check_invariants().expect_err("seeded").to_string();
        assert_ne!(msg, other_msg, "slot-index fault looks like another");
    }
}

/// The injected faults must be tellable apart from the diagnostic text
/// alone — an operator reading a log must know *which* structure is
/// damaged.
#[test]
fn injected_faults_have_pairwise_distinct_diagnostics() {
    let mut order = filled_anykey();
    assert!(order.corrupt_level_order_for_test());
    let order_msg = order.check_invariants().expect_err("seeded").to_string();

    let mut dram = filled_anykey();
    dram.overclaim_dram_for_test();
    let dram_msg = dram.check_invariants().expect_err("seeded").to_string();

    let mut skew = filled_pink();
    skew.desync_counters_for_test();
    let skew_msg = skew.check_invariants().expect_err("seeded").to_string();

    let mut retired = filled_anykey();
    assert!(retired.retire_live_block_for_test());
    let retired_msg = retired.check_invariants().expect_err("seeded").to_string();

    let mut rskew = filled_anykey();
    rskew.desync_retirement_for_test();
    let rskew_msg = rskew.check_invariants().expect_err("seeded").to_string();

    let mut fence = filled_anykey();
    assert!(fence.corrupt_group_fence_for_test());
    let fence_msg = fence.check_invariants().expect_err("seeded").to_string();

    let mut tiling = filled_pink();
    assert!(tiling.corrupt_segment_range_for_test());
    let tiling_msg = tiling.check_invariants().expect_err("seeded").to_string();

    let mut seg_bytes = filled_pink();
    assert!(seg_bytes.corrupt_segment_bytes_for_test());
    let seg_bytes_msg = seg_bytes
        .check_invariants()
        .expect_err("seeded")
        .to_string();

    let mut seg_fence = filled_pink();
    assert!(seg_fence.corrupt_segment_fence_for_test());
    let seg_fence_msg = seg_fence
        .check_invariants()
        .expect_err("seeded")
        .to_string();

    let mut starts = filled_anykey();
    assert!(starts.corrupt_page_start_for_test());
    let starts_msg = starts.check_invariants().expect_err("seeded").to_string();

    let mut hashes = filled_anykey();
    assert!(hashes.corrupt_hash_list_for_test());
    let hashes_msg = hashes.check_invariants().expect_err("seeded").to_string();

    let mut log = filled_anykey();
    assert!(log.skew_ledger_for_test(true));
    let log_msg = log.check_invariants().expect_err("seeded").to_string();

    let mut groups = filled_anykey();
    assert!(groups.skew_ledger_for_test(false));
    let groups_msg = groups.check_invariants().expect_err("seeded").to_string();

    let mut meta = spilled_pink();
    assert!(meta.skew_meta_ledger_for_test());
    let meta_msg = meta.check_invariants().expect_err("seeded").to_string();

    let msgs = [
        order_msg,
        dram_msg,
        skew_msg,
        retired_msg,
        rskew_msg,
        fence_msg,
        tiling_msg,
        seg_bytes_msg,
        seg_fence_msg,
        starts_msg,
        hashes_msg,
        log_msg,
        groups_msg,
        meta_msg,
    ];
    for i in 0..msgs.len() {
        for j in (i + 1)..msgs.len() {
            assert_ne!(msgs[i], msgs[j], "faults {i} and {j} look alike");
        }
    }
}
