//! **Figure 14** — storage utilization: how many bytes of unique KV pairs
//! fit before the device reports full.
//!
//! Expected shape: under low-v/k workloads PinK wastes capacity on
//! flash-resident meta segments (a second copy of every key), so AnyKey
//! and AnyKey+ fit substantially more unique data.

use anykey_core::EngineKind;
use anykey_metrics::Table;
use anykey_workload::spec;

use crate::common::{emit, ExpCtx};
use crate::scheduler::{Point, PointResult, RunKind};

/// Declares one fill-until-full run per (workload, system).
pub fn points(_ctx: &ExpCtx) -> Vec<Point> {
    Point::grid("fig14", spec::ALL, RunKind::FillUntilFull)
}

/// Renders the storage-utilization table (live unique bytes ÷ raw
/// capacity at the device-full point).
pub fn render(ctx: &ExpCtx, rows: &[(&Point, &PointResult)]) {
    let mut t = Table::new(
        "Figure 14: storage utilization (unique KV bytes / raw capacity)",
        &["workload", "class", "PinK", "AnyKey", "AnyKey+"],
    );
    let capacity = ctx.scale.capacity as f64;
    for row in rows.chunks(EngineKind::EVALUATED.len()) {
        let w = row[0].0.spec;
        let u: Vec<f64> = row
            .iter()
            .map(|(_, s)| s.meta.live_unique_bytes as f64 / capacity)
            .collect();
        t.row([
            w.name.to_string(),
            w.category.to_string(),
            format!("{:.2}", u[0]),
            format!("{:.2}", u[1]),
            format!("{:.2}", u[2]),
        ]);
    }
    emit(&t, &ctx.scale.out("fig14.csv"));
}
