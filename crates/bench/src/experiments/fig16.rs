//! **Figure 16** — read latencies under varying flash page sizes
//! (4/8/16 KiB).
//!
//! Expected shape: larger pages mean fewer groups, smaller level lists,
//! and a stronger DRAM-residency guarantee, so AnyKey's tails improve
//! with page size (paper Section 6.4).

use anykey_core::{DeviceConfig, EngineKind};
use anykey_metrics::Table;
use anykey_workload::spec;

use crate::common::{cdf_table, emit, lat, save, ExpCtx};
use crate::scheduler::{MeasureSpec, Point, PointResult, RunKind};

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
    for name in WORKLOADS {
        let w = spec::by_name(name).expect("fig16 workload");
        for kind in EngineKind::EVALUATED {
            for (page, ppb, label) in PAGES {
                let cfg = DeviceConfig::builder()
                    .capacity_bytes(ctx.scale.capacity)
                    .engine(kind)
                    .key_len(w.key_len as u16)
                    .page_size(page)
                    .pages_per_block(ppb)
                    .build();
                out.push(Point::with_key(
                    format!("fig16/{name}/{}/page{label}", kind.label()),
                    "fig16",
                    kind,
                    w,
                    RunKind::Measure(MeasureSpec {
                        cfg: Some(Box::new(cfg)),
                        ..Default::default()
                    }),
                ));
            }
        }
    }
    out
}

/// Renders the p95-vs-page-size table and CDFs.
pub fn render(ctx: &ExpCtx, results: &[PointResult]) {
    let mut t = Table::new(
        "Figure 16: p95 read latency vs flash page size",
        &["workload", "system", "4KB", "8KB", "16KB"],
    );
    let mut cdf = cdf_table();
    let mut rows = results.iter();
    for name in WORKLOADS {
        for kind in EngineKind::EVALUATED {
            let mut cells = vec![name.to_string(), kind.label().to_string()];
            for (_, _, label) in PAGES {
                let s = &rows.next().expect("fig16 row");
                cells.push(lat(s.report.reads.p95()));
                ctx.dump_cdf(&mut cdf, name, kind.label(), label, &s.report.reads);
            }
            t.row(cells);
        }
    }
    emit(&t, &ctx.scale.out("fig16.csv"));
    save(&cdf, &ctx.scale.out("fig16_cdf.csv"));
}
