//! **Figure 16** — read latencies under varying flash page sizes
//! (4/8/16 KiB).
//!
//! Expected shape: larger pages mean fewer groups, smaller level lists,
//! and a stronger DRAM-residency guarantee, so AnyKey's tails improve
//! with page size (paper Section 6.4).

use anykey_core::EngineKind;
use anykey_metrics::Table;

use super::named;
use crate::common::{cdf_table, emit, lat, save, ExpCtx};
use crate::scheduler::{MeasureSpec, Point, PointResult};

const WORKLOADS: [&str; 3] = ["Crypto1", "ETC", "W-PinK"];
/// (page size, pages per block) — block size held at 1 MiB.
const PAGES: [(u32, u32, &str); 3] = [
    (4 << 10, 256, "4KB"),
    (8 << 10, 128, "8KB"),
    (16 << 10, 64, "16KB"),
];

/// Declares one run per (workload, system, page size).
pub fn points(ctx: &ExpCtx) -> Vec<Point> {
    let mut out = Vec::new();
    for w in named(&WORKLOADS) {
        for kind in EngineKind::EVALUATED {
            for (page, ppb, label) in PAGES {
                let cfg = ctx
                    .scale
                    .device_builder(kind, w)
                    .page_size(page)
                    .pages_per_block(ppb)
                    .build();
                let variant = format!("page{label}");
                let run = MeasureSpec::on(cfg);
                out.push(Point::variant("fig16", kind, w, &variant, run));
            }
        }
    }
    out
}

/// Renders the p95-vs-page-size table and CDFs.
pub fn render(ctx: &ExpCtx, rows: &[(&Point, &PointResult)]) {
    let mut t = Table::new(
        "Figure 16: p95 read latency vs flash page size",
        &["workload", "system", "4KB", "8KB", "16KB"],
    );
    let mut cdf = cdf_table();
    for row in rows.chunks(PAGES.len()) {
        let (name, system) = (row[0].0.spec.name, row[0].0.kind.label());
        let mut cells = vec![name.to_string(), system.to_string()];
        for ((_, s), (_, _, label)) in row.iter().zip(PAGES) {
            cells.push(lat(s.report.reads.p95()));
            ctx.dump_cdf(&mut cdf, name, system, label, &s.report.reads);
        }
        t.row(cells);
    }
    emit(&t, &ctx.scale.out("fig16.csv"));
    save(&cdf, &ctx.scale.out("fig16_cdf.csv"));
}
