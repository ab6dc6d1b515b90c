//! **Figure 12** — IOPS for all 14 workloads under the three systems.
//!
//! Expected shape (paper): AnyKey ≈ 3.15× PinK on average over the low-v/k
//! workloads; AnyKey+ additionally beats PinK (~1.15×) on the high-v/k
//! workloads where base AnyKey is mixed.

use anykey_core::EngineKind;
use anykey_metrics::Table;
use anykey_workload::spec;

use crate::common::{emit, kiops, ExpCtx};
use crate::scheduler::{MeasureSpec, Point, PointResult};

/// Declares one standard run per (workload, system) over all 14 workloads
/// (shared with Figure 13 via scheduler dedup).
pub fn points(_ctx: &ExpCtx) -> Vec<Point> {
    Point::grid("fig12", spec::ALL, MeasureSpec::default())
}

/// Renders the IOPS table with per-class mean speedups.
pub fn render(ctx: &ExpCtx, rows: &[(&Point, &PointResult)]) {
    let mut t = Table::new(
        "Figure 12: IOPS (virtual-time kIOPS)",
        &[
            "workload",
            "class",
            "PinK",
            "AnyKey",
            "AnyKey+",
            "AnyKey/PinK",
            "AnyKey+/PinK",
        ],
    );
    let mut low_gain = Vec::new();
    let mut high_gain_plus = Vec::new();
    for row in rows.chunks(EngineKind::EVALUATED.len()) {
        let w = row[0].0.spec;
        let iops: Vec<f64> = row.iter().map(|(_, s)| s.report.iops()).collect();
        let r_any = iops[1] / iops[0];
        let r_plus = iops[2] / iops[0];
        match w.category {
            anykey_workload::Category::LowVk => low_gain.push(r_any),
            anykey_workload::Category::HighVk => high_gain_plus.push(r_plus),
        }
        t.row([
            w.name.to_string(),
            w.category.to_string(),
            kiops(iops[0]),
            kiops(iops[1]),
            kiops(iops[2]),
            format!("{r_any:.2}x"),
            format!("{r_plus:.2}x"),
        ]);
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    t.row([
        "MEAN low-v/k".to_string(),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
        format!("{:.2}x", avg(&low_gain)),
        "-".to_string(),
    ]);
    t.row([
        "MEAN high-v/k".to_string(),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
        format!("{:.2}x", avg(&high_gain_plus)),
    ]);
    emit(&t, &ctx.scale.out("fig12.csv"));
}
