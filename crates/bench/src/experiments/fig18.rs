//! **Figure 18** — UDB scan latencies under varying scan lengths.
//!
//! Expected shape: AnyKey's benefit grows with scan length — consecutive
//! keys live in the pages of one (or few) data segment groups, while
//! PinK's values are scattered wherever the write buffer flushed them.
//! Short scans are comparable.

use anykey_core::EngineKind;
use anykey_metrics::Table;
use anykey_workload::spec;

use crate::common::{cdf_table, emit, lat, save, ExpCtx};
use crate::scheduler::{Point, PointResult};

const LENGTHS: [u32; 4] = [10, 100, 150, 200];

/// Declares one UDB scan-heavy run per (system, scan length).
pub fn points(ctx: &ExpCtx) -> Vec<Point> {
    let w = spec::by_name("UDB").expect("fig18 workload");
    let mut out = Vec::new();
    for kind in EngineKind::EVALUATED {
        for len in LENGTHS {
            let run = ctx.scan_recipe(w, len);
            out.push(Point::variant("fig18", kind, w, &format!("len{len}"), run));
        }
    }
    out
}

/// Renders the scan-p95 table and scan-latency CDFs.
pub fn render(ctx: &ExpCtx, rows: &[(&Point, &PointResult)]) {
    let mut t = Table::new(
        "Figure 18: UDB scan latency (p95) vs scan length",
        &["system", "len 10", "len 100", "len 150", "len 200"],
    );
    let mut cdf = cdf_table();
    for row in rows.chunks(LENGTHS.len()) {
        let (name, system) = (row[0].0.spec.name, row[0].0.kind.label());
        let mut cells = vec![system.to_string()];
        for ((_, s), len) in row.iter().zip(LENGTHS) {
            cells.push(lat(s.report.scans.p95()));
            let series = format!("len{len}");
            ctx.dump_cdf(&mut cdf, name, system, &series, &s.report.scans);
        }
        t.row(cells);
    }
    emit(&t, &ctx.scale.out("fig18.csv"));
    save(&cdf, &ctx.scale.out("fig18_cdf.csv"));
}
