//! **Figure 13** — total page writes (device-lifetime proxy) for all 14
//! workloads under the three systems.
//!
//! Expected shape: AnyKey+ roughly halves PinK's total page writes on
//! average (no GC relocation, no flash-resident metadata rewrite, values
//! moved at most once out of the log).

use anykey_core::EngineKind;
use anykey_metrics::report::fmt_count;
use anykey_metrics::Table;
use anykey_workload::spec;

use crate::common::{emit, ExpCtx};
use crate::scheduler::{MeasureSpec, Point, PointResult};

/// Declares one standard run per (workload, system) over all 14 workloads
/// (shared with Figure 12 via scheduler dedup).
pub fn points(_ctx: &ExpCtx) -> Vec<Point> {
    Point::grid("fig13", spec::ALL, MeasureSpec::default())
}

/// Renders the total-page-writes table.
pub fn render(ctx: &ExpCtx, rows: &[(&Point, &PointResult)]) {
    let mut t = Table::new(
        "Figure 13: total page writes during the measured phase",
        &["workload", "PinK", "AnyKey", "AnyKey+", "AnyKey+/PinK"],
    );
    let mut ratios = Vec::new();
    for row in rows.chunks(EngineKind::EVALUATED.len()) {
        let w = row[0].0.spec;
        let writes: Vec<u64> = row
            .iter()
            .map(|(_, s)| s.report.counters.total_writes())
            .collect();
        let ratio = writes[2] as f64 / writes[0].max(1) as f64;
        ratios.push(ratio);
        t.row([
            w.name.to_string(),
            fmt_count(writes[0]),
            fmt_count(writes[1]),
            fmt_count(writes[2]),
            format!("{ratio:.2}x"),
        ]);
    }
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    t.row([
        "MEAN".to_string(),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
        format!("{mean:.2}x"),
    ]);
    emit(&t, &ctx.scale.out("fig13.csv"));
}
