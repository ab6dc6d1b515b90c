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
use crate::scheduler::{Point, PointResult, RunKind};

const LENGTHS: [u32; 4] = [10, 100, 150, 200];

/// Declares one UDB scan-heavy run per (system, scan length).
pub fn points(ctx: &ExpCtx) -> Vec<Point> {
    let w = spec::by_name("UDB").expect("fig18 workload");
    let mut out = Vec::new();
    for kind in EngineKind::EVALUATED {
        for len in LENGTHS {
            out.push(Point::with_key(
                format!("fig18/UDB/{}/len{len}", kind.label()),
                "fig18",
                kind,
                w,
                RunKind::Measure(ctx.scan_recipe(w, len)),
            ));
        }
    }
    out
}

/// Renders the scan-p95 table and scan-latency CDFs.
pub fn render(ctx: &ExpCtx, results: &[PointResult]) {
    let mut t = Table::new(
        "Figure 18: UDB scan latency (p95) vs scan length",
        &["system", "len 10", "len 100", "len 150", "len 200"],
    );
    let mut cdf = cdf_table();
    let mut rows = results.iter();
    for kind in EngineKind::EVALUATED {
        let mut cells = vec![kind.label().to_string()];
        for len in LENGTHS {
            let s = &rows.next().expect("fig18 row");
            cells.push(lat(s.report.scans.p95()));
            ctx.dump_cdf(
                &mut cdf,
                "UDB",
                kind.label(),
                &format!("len{len}"),
                &s.report.scans,
            );
        }
        t.row(cells);
    }
    emit(&t, &ctx.scale.out("fig18.csv"));
    save(&cdf, &ctx.scale.out("fig18_cdf.csv"));
}
