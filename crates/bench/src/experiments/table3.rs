//! **Table 3** — compaction and GC page reads/writes for two low-v/k
//! workloads (Crypto1, Cache) and two high-v/k workloads (W-PinK, KVSSD)
//! under the three systems.
//!
//! Expected shape (paper): PinK's GC reads dominate everything; AnyKey and
//! AnyKey+ have (near-)zero GC traffic; AnyKey pays extra compaction
//! traffic on high-v/k workloads, which AnyKey+ recovers.

use anykey_flash::OpCause;
use anykey_metrics::report::fmt_count;
use anykey_metrics::Table;

use super::named;
use crate::common::{emit, ExpCtx};
use crate::scheduler::{MeasureSpec, Point, PointResult};

const WORKLOADS: [&str; 4] = ["Crypto1", "Cache", "W-PinK", "KVSSD"];

/// Declares one standard run per (workload, system).
pub fn points(_ctx: &ExpCtx) -> Vec<Point> {
    Point::grid("table3", named(&WORKLOADS), MeasureSpec::default())
}

/// Renders the flash-traffic table.
pub fn render(ctx: &ExpCtx, rows: &[(&Point, &PointResult)]) {
    let mut t = Table::new(
        "Table 3: compaction and GC page reads/writes",
        &[
            "workload",
            "system",
            "compaction read",
            "compaction write",
            "gc read",
            "gc write",
            "log read",
            "log write",
            "meta read",
            "erases",
        ],
    );
    for (p, s) in rows {
        let c = &s.report.counters;
        t.row([
            p.spec.name.to_string(),
            p.kind.label().to_string(),
            fmt_count(c.reads(OpCause::CompactionRead)),
            fmt_count(c.writes(OpCause::CompactionWrite)),
            fmt_count(c.reads(OpCause::GcRead)),
            fmt_count(c.writes(OpCause::GcWrite)),
            fmt_count(c.reads(OpCause::LogRead)),
            fmt_count(c.writes(OpCause::LogWrite)),
            fmt_count(c.reads(OpCause::MetaRead)),
            fmt_count(c.erases()),
        ]);
    }
    emit(&t, &ctx.scale.out("table3.csv"));
}
