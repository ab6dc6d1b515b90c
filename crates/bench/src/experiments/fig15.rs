//! **Figure 15** — read latencies under varying DRAM sizes.
//!
//! The paper sweeps 32/64/96 MB of DRAM on its 64 GB device (0.05 %,
//! 0.1 %, 0.15 % of capacity); we sweep the same ratios. Expected shape:
//! the low-v/k workloads (Crypto1, ETC) degrade as DRAM shrinks (even
//! AnyKey must drop hash lists), while W-PinK barely notices.

use anykey_core::EngineKind;
use anykey_metrics::Table;

use super::named;
use crate::common::{cdf_table, emit, lat, save, ExpCtx};
use crate::scheduler::{MeasureSpec, Point, PointResult};

const WORKLOADS: [&str; 3] = ["Crypto1", "ETC", "W-PinK"];
const DRAM_RATIOS: [(f64, &str); 3] = [(0.0005, "0.5x"), (0.001, "1x"), (0.0015, "1.5x")];

/// Declares one run per (workload, system, DRAM budget).
pub fn points(ctx: &ExpCtx) -> Vec<Point> {
    let mut out = Vec::new();
    for w in named(&WORKLOADS) {
        for kind in EngineKind::EVALUATED {
            for (ratio, label) in DRAM_RATIOS {
                // The write buffer stays at its default size so only the
                // metadata budget varies, as in the paper.
                let dram = (ctx.scale.capacity as f64 * ratio) as u64;
                let buffer = (ctx.scale.capacity / 2048).min(dram - 1);
                let cfg = ctx
                    .scale
                    .device_builder(kind, w)
                    .dram_bytes(dram)
                    .write_buffer_bytes(buffer)
                    .build();
                let variant = format!("dram{label}");
                let run = MeasureSpec::on(cfg);
                out.push(Point::variant("fig15", kind, w, &variant, run));
            }
        }
    }
    out
}

/// Renders the p95-vs-DRAM table and CDFs.
pub fn render(ctx: &ExpCtx, rows: &[(&Point, &PointResult)]) {
    let mut t = Table::new(
        "Figure 15: p95 read latency vs DRAM size (ratio of the default 0.1%)",
        &["workload", "system", "DRAM 0.5x", "DRAM 1x", "DRAM 1.5x"],
    );
    let mut cdf = cdf_table();
    for row in rows.chunks(DRAM_RATIOS.len()) {
        let (name, system) = (row[0].0.spec.name, row[0].0.kind.label());
        let mut cells = vec![name.to_string(), system.to_string()];
        for ((_, s), (_, label)) in row.iter().zip(DRAM_RATIOS) {
            cells.push(lat(s.report.reads.p95()));
            ctx.dump_cdf(&mut cdf, name, system, label, &s.report.reads);
        }
        t.row(cells);
    }
    emit(&t, &ctx.scale.out("fig15.csv"));
    save(&cdf, &ctx.scale.out("fig15_cdf.csv"));
}
