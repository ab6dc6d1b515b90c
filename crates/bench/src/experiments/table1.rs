//! **Table 1** — metadata size of PinK vs AnyKey under varying (low)
//! value-to-key ratios, assuming the device is full of KV pairs.
//!
//! The paper evaluates v/k ∈ {4.0 (160 B/40 B), 2.0 (120 B/60 B),
//! 1.0 (80 B/80 B)} on a 64 GB SSD with 64 MB DRAM. We print the analytic
//! model at the paper's scale *and* an empirical measurement from real
//! engine instances at the harness scale, so the model is cross-checked.

use anykey_core::meta_model::MetaModel;
use anykey_core::EngineKind;
use anykey_metrics::Table;
use anykey_workload::WorkloadSpec;

use crate::common::{emit, ExpCtx};
use crate::scheduler::{Point, PointResult, RunKind};

const ROWS: [(&str, u32, u32); 3] = [
    ("4.0 (160B/40B)", 40, 160),
    ("2.0 (120B/60B)", 60, 120),
    ("1.0 (80B/80B)", 80, 80),
];

/// The engines the measured columns compare (AnyKey+ shares AnyKey's
/// metadata layout, so the paper compares two).
const KINDS: [EngineKind; 2] = [EngineKind::Pink, EngineKind::AnyKey];

fn mb(b: u64) -> String {
    format!("{:.1}MB", b as f64 / (1 << 20) as f64)
}

fn kb(b: u64) -> String {
    format!("{:.1}KB", b as f64 / 1024.0)
}

/// Declares the measured-columns points: one warm-up-only run per
/// (v/k row, engine).
pub fn points(_ctx: &ExpCtx) -> Vec<Point> {
    let mut out = Vec::new();
    for (_, k, v) in ROWS {
        let spec = WorkloadSpec::synthetic("table1", k, v);
        for kind in KINDS {
            out.push(Point::with_key(
                format!("table1/vk{k}-{v}/{}", kind.label()),
                "table1",
                kind,
                spec,
                RunKind::WarmUpOnly,
            ));
        }
    }
    out
}

/// Renders the analytic model table and the measured table.
pub fn render(ctx: &ExpCtx, rows: &[(&Point, &PointResult)]) {
    // (a) Analytic model at the paper's scale: 64 GB device, 64 MB DRAM.
    let mut t = Table::new(
        "Table 1 (model @ paper scale 64GB/64MB): metadata demand",
        &[
            "v/k",
            "PinK level lists",
            "PinK meta segments",
            "PinK sum",
            "AnyKey level lists",
            "AnyKey hash lists",
            "AnyKey sum",
        ],
    );
    for (label, k, v) in ROWS {
        let m = MetaModel::paper(64 << 30, k as u64, v as u64);
        let s = m.sizes();
        t.row([
            label.to_string(),
            mb(s.pink_level_lists),
            mb(s.pink_meta_segments),
            mb(s.pink_sum()),
            mb(s.anykey_level_lists),
            mb(s.anykey_hash_lists),
            mb(s.anykey_sum()),
        ]);
    }
    emit(&t, &ctx.scale.out("table1_model.csv"));

    // (b) Empirical check: real engines at harness scale, filled to the
    // standard fraction.
    let mut e = Table::new(
        format!(
            "Table 1 (measured @ {}MB device, {}KB DRAM)",
            ctx.scale.capacity >> 20,
            ctx.scale.dram_bytes() >> 10
        ),
        &[
            "v/k",
            "system",
            "level lists",
            "meta segs (DRAM)",
            "meta segs (flash)",
            "hash lists (resident/total)",
            "DRAM used/cap",
        ],
    );
    for ((label, _, _), row) in ROWS.iter().zip(rows.chunks(KINDS.len())) {
        for (p, s) in row {
            let m = &s.meta;
            e.row([
                label.to_string(),
                p.kind.label().to_string(),
                kb(m.level_list_bytes),
                kb(m.meta_segment_dram_bytes),
                kb(m.meta_segment_flash_bytes),
                format!(
                    "{}/{}",
                    kb(m.hash_list_resident_bytes),
                    kb(m.hash_list_total_bytes)
                ),
                format!("{}/{}", kb(m.dram_used), kb(m.dram_capacity)),
            ]);
        }
    }
    emit(&e, &ctx.scale.out("table1_measured.csv"));
}
