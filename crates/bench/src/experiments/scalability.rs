//! **Section 6.8** — design scalability: metadata demand at 4 TB.
//!
//! The paper's example: a 4 TB device running Crypto1 would need 25.2 GB of
//! PinK metadata but only ~3.65 GB for AnyKey, which fits a proportionally
//! scaled 4 GB DRAM.

use anykey_core::meta_model::MetaModel;
use anykey_metrics::Table;
use anykey_workload::spec;

use crate::common::{emit, ExpCtx};
use crate::scheduler::{Point, PointResult};

fn gb(b: u64) -> String {
    format!("{:.2}GB", b as f64 / (1u64 << 30) as f64)
}

/// Purely analytic — no simulation points.
pub fn points(_ctx: &ExpCtx) -> Vec<Point> {
    Vec::new()
}

/// Renders the analytic metadata-demand table.
pub fn render(ctx: &ExpCtx, _rows: &[(&Point, &PointResult)]) {
    let mut t = Table::new(
        "Section 6.8: metadata demand vs device capacity (Crypto1, DRAM = 0.1%)",
        &[
            "capacity",
            "DRAM",
            "PinK demand",
            "PinK fits DRAM",
            "AnyKey level lists",
            "AnyKey sum",
            "AnyKey fits DRAM",
        ],
    );
    let w = spec::by_name("Crypto1").expect("scalability workload");
    for shift in [36u32, 38, 40, 42] {
        // 64 GB, 256 GB, 1 TB, 4 TB
        let cap = 1u64 << shift;
        let m = MetaModel::paper(cap, w.key_len as u64, w.value_len as u64);
        let s = m.sizes();
        t.row([
            gb(cap),
            gb(m.dram_bytes),
            gb(s.pink_sum()),
            (s.pink_sum() <= m.dram_bytes).to_string(),
            gb(s.anykey_level_lists),
            gb(s.anykey_sum()),
            (s.anykey_sum() <= m.dram_bytes).to_string(),
        ]);
    }
    emit(&t, &ctx.scale.out("scalability.csv"));
}
