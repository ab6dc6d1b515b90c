//! **Figure 10** — CDFs of read latency for the seven representative
//! workloads (five low-v/k, two high-v/k) under the three systems.
//!
//! Expected shape: PinK's tails explode on the low-v/k set (metadata in
//! flash ⇒ extra reads per GET); AnyKey/AnyKey+ collapse them; on the
//! high-v/k set all three are comparable.

use anykey_metrics::Table;

use super::named;
use crate::common::{cdf_table, emit, lat, save, ExpCtx};
use crate::scheduler::{MeasureSpec, Point, PointResult};

/// The paper's Figure 10 workload set, in order (a)–(g).
pub const WORKLOADS: [&str; 7] = [
    "RTDATA", "Crypto1", "ZippyDB", "Cache15", "Cache", "W-PinK", "KVSSD",
];

/// Declares one standard run per (workload, system). These are the same
/// simulations Figure 11 consumes; the scheduler deduplicates them when
/// both experiments are in one sweep.
pub fn points(_ctx: &ExpCtx) -> Vec<Point> {
    Point::grid("fig10", named(&WORKLOADS), MeasureSpec::default())
}

/// Renders the percentile table and the latency CDFs.
pub fn render(ctx: &ExpCtx, rows: &[(&Point, &PointResult)]) {
    let mut t = Table::new(
        "Figure 10: read latency percentiles",
        &["workload", "system", "p50", "p90", "p95", "p99", "max"],
    );
    let mut cdf = cdf_table();
    for (p, s) in rows {
        let (name, system) = (p.spec.name, p.kind.label());
        t.row([
            name.to_string(),
            system.to_string(),
            lat(s.report.reads.p50()),
            lat(s.report.reads.quantile(0.90)),
            lat(s.report.reads.p95()),
            lat(s.report.reads.p99()),
            lat(s.report.reads.max()),
        ]);
        ctx.dump_cdf(&mut cdf, name, system, "read", &s.report.reads);
    }
    emit(&t, &ctx.scale.out("fig10.csv"));
    save(&cdf, &ctx.scale.out("fig10_cdf.csv"));
}
