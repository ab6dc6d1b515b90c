//! **Figure 2** — the motivating observation: PinK's p95 read tail latency
//! and IOPS degrade as the value-to-key ratio shrinks (values 20 B → 1280 B
//! over a fixed 40 B key).

use anykey_core::EngineKind;
use anykey_metrics::Table;
use anykey_workload::WorkloadSpec;

use crate::common::{cdf_table, emit, kiops, lat, save, ExpCtx};
use crate::scheduler::{MeasureSpec, Point, PointResult, RunKind};

const VALUES: [u32; 7] = [20, 40, 80, 160, 320, 640, 1280];

/// Declares one PinK run per value size.
pub fn points(_ctx: &ExpCtx) -> Vec<Point> {
    VALUES
        .iter()
        .map(|&v| {
            Point::with_key(
                format!("fig2/40-{v}/PinK"),
                "fig2",
                EngineKind::Pink,
                WorkloadSpec::synthetic("vk-sweep", 40, v),
                RunKind::Measure(MeasureSpec::default()),
            )
        })
        .collect()
}

/// Renders the v/k sweep table and latency CDFs.
pub fn render(ctx: &ExpCtx, rows: &[(&Point, &PointResult)]) {
    let mut t = Table::new(
        "Figure 2: PinK under varying value-to-key ratios (key = 40B)",
        &["v/k", "p50 read", "p95 read", "p99 read", "kIOPS"],
    );
    let mut cdf = cdf_table();
    for (p, s) in rows {
        let label = format!("{}/{}", p.spec.value_len, p.spec.key_len);
        t.row([
            label.clone(),
            lat(s.report.reads.p50()),
            lat(s.report.reads.p95()),
            lat(s.report.reads.p99()),
            kiops(s.report.iops()),
        ]);
        let (name, system) = (p.spec.name, p.kind.label());
        ctx.dump_cdf(&mut cdf, name, system, &label, &s.report.reads);
    }
    emit(&t, &ctx.scale.out("fig2.csv"));
    save(&cdf, &ctx.scale.out("fig2_cdf.csv"));
}
