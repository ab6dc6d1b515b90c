//! **Figure 17** — ETC latency under varying key-popularity distributions.
//!
//! Expected shape: as the distribution evens out (lower Zipfian θ, or
//! uniform), more requests land on the lower LSM levels whose metadata
//! PinK keeps in flash, so PinK degrades; AnyKey/AnyKey+ stay uniform
//! because their metadata covers every level from DRAM.

use anykey_core::EngineKind;
use anykey_metrics::Table;
use anykey_workload::{spec, KeyDist};

use crate::common::{cdf_table, emit, lat, save, ExpCtx};
use crate::scheduler::{MeasureSpec, Point, PointResult};

const DISTS: [(&str, KeyDist); 4] = [
    ("uniform", KeyDist::Uniform),
    ("zipf-0.6", KeyDist::Zipfian { theta: 0.6 }),
    ("zipf-0.8", KeyDist::Zipfian { theta: 0.8 }),
    ("zipf-0.99", KeyDist::Zipfian { theta: 0.99 }),
];

/// Declares one ETC run per (system, key distribution).
pub fn points(_ctx: &ExpCtx) -> Vec<Point> {
    let w = spec::by_name("ETC").expect("fig17 workload");
    let mut out = Vec::new();
    for kind in EngineKind::EVALUATED {
        for (label, dist) in DISTS.clone() {
            let run = MeasureSpec {
                dist,
                ..Default::default()
            };
            out.push(Point::variant("fig17", kind, w, label, run));
        }
    }
    out
}

/// Renders the p95-vs-distribution table and CDFs.
pub fn render(ctx: &ExpCtx, rows: &[(&Point, &PointResult)]) {
    let mut t = Table::new(
        "Figure 17: ETC p95 read latency vs key distribution",
        &["system", "uniform", "zipf-0.6", "zipf-0.8", "zipf-0.99"],
    );
    let mut cdf = cdf_table();
    for row in rows.chunks(DISTS.len()) {
        let (name, system) = (row[0].0.spec.name, row[0].0.kind.label());
        let mut cells = vec![system.to_string()];
        for ((_, s), (label, _)) in row.iter().zip(&DISTS) {
            cells.push(lat(s.report.reads.p95()));
            ctx.dump_cdf(&mut cdf, name, system, label, &s.report.reads);
        }
        t.row(cells);
    }
    emit(&t, &ctx.scale.out("fig17.csv"));
    save(&cdf, &ctx.scale.out("fig17_cdf.csv"));
}
