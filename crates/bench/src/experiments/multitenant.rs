//! **Section 6.9** — multi-workload execution: the device is split into
//! two equal partitions, each running its own engine instance — one
//! serving W-PinK (high-v/k), one serving ZippyDB (low-v/k).
//!
//! Expected shape: switching both partitions from PinK to AnyKey improves
//! the low-v/k tenant's p95 dramatically and the high-v/k tenant's
//! modestly.
//!
//! Modeling note: partitions are simulated as independent half-capacity
//! devices (half DRAM each); cross-tenant chip contention is not modeled
//! (see EXPERIMENTS.md).

use anykey_core::EngineKind;
use anykey_metrics::Table;

use super::named;
use crate::common::{emit, lat, ExpCtx};
use crate::scheduler::{MeasureSpec, Point, PointResult};

const TENANTS: [&str; 2] = ["W-PinK", "ZippyDB"];
const SYSTEMS: [EngineKind; 2] = [EngineKind::Pink, EngineKind::AnyKeyPlus];

/// Declares one half-capacity partition run per (tenant, system).
pub fn points(ctx: &ExpCtx) -> Vec<Point> {
    let half = ctx.scale.capacity / 2;
    let mut out = Vec::new();
    for w in named(&TENANTS) {
        for kind in SYSTEMS {
            // Half-capacity partitions need proportionally smaller erase
            // blocks to keep one block per chip.
            let cfg = ctx
                .scale
                .device_builder(kind, w)
                .capacity_bytes(half)
                .pages_per_block(64)
                .build();
            let keyspace =
                ((half as f64 * ctx.scale.fill_for(w)) / w.pair_bytes() as f64 * 0.9) as u64;
            let ops = (half as f64 * ctx.scale.ops_factor / w.pair_bytes() as f64) as u64;
            let run = MeasureSpec {
                keyspace: Some(keyspace),
                ops: Some(ops),
                seed_salt: 0x7E4A,
                ..MeasureSpec::on(cfg)
            };
            out.push(Point::new("multitenant", kind, w, run));
        }
    }
    out
}

/// Renders the two-tenant p95 table with the PinK→AnyKey improvement.
pub fn render(ctx: &ExpCtx, rows: &[(&Point, &PointResult)]) {
    let mut t = Table::new(
        "Section 6.9: two-tenant partitioned device (p95 read latency)",
        &["tenant", "PinK", "AnyKey", "improvement"],
    );
    for row in rows.chunks(SYSTEMS.len()) {
        let p95: Vec<u64> = row.iter().map(|(_, s)| s.report.reads.p95()).collect();
        let improvement = p95[0] as f64 / p95[1].max(1) as f64;
        t.row([
            row[0].0.spec.name.to_string(),
            lat(p95[0]),
            lat(p95[1]),
            format!("{improvement:.2}x"),
        ]);
    }
    emit(&t, &ctx.scale.out("multitenant.csv"));
}
