//! **Fault sweep** — graceful degradation under injected media faults
//! (not a paper figure; the paper evaluates on FEMU's perfect media).
//!
//! Sweeps the raw read-error rate (program/erase failure rates scale with
//! it — see [`anykey_flash::FaultModel::uniform`]) and reports throughput,
//! read p99, and the reliability counters for PinK and AnyKey+. Expected
//! shape: both engines complete every rate without panicking; retries and
//! retirements grow with the rate; throughput and p99 degrade smoothly
//! rather than falling off a cliff.

use anykey_core::EngineKind;
use anykey_flash::FaultModel;
use anykey_metrics::report::{fmt_count, fmt_ppm};
use anykey_metrics::Table;
use anykey_workload::spec;

use crate::common::{emit, kiops, lat, ExpCtx};
use crate::scheduler::{MeasureSpec, Point, PointResult};

/// Read-error rates swept, in errors per million page reads.
const RATES_PPM: [u32; 5] = [0, 100, 500, 2_000, 10_000];
const SYSTEMS: [EngineKind; 2] = [EngineKind::Pink, EngineKind::AnyKeyPlus];

/// Declares one UDB run per (system, read-error rate).
pub fn points(ctx: &ExpCtx) -> Vec<Point> {
    let w = spec::by_name("UDB").expect("fault workload");
    let mut out = Vec::new();
    for kind in SYSTEMS {
        for ppm in RATES_PPM {
            let fault = if ppm == 0 {
                FaultModel::disabled()
            } else {
                FaultModel::uniform(ctx.scale.seed ^ u64::from(ppm), ppm)
            };
            let cfg = ctx.scale.device_builder(kind, w).fault(fault).build();
            let variant = format!("{ppm}ppm");
            let run = MeasureSpec::on(cfg);
            out.push(Point::variant("fault", kind, w, &variant, run));
        }
    }
    out
}

/// Renders the degradation table.
pub fn render(ctx: &ExpCtx, rows: &[(&Point, &PointResult)]) {
    let mut t = Table::new(
        "Fault sweep: throughput and tail latency vs raw read-error rate (UDB)",
        &[
            "system",
            "read-err",
            "kIOPS",
            "p99 read",
            "p99 write",
            "retries",
            "prog-fails",
            "retired",
            "free-blocks",
        ],
    );
    for ((p, s), &ppm) in rows.iter().zip(RATES_PPM.iter().cycle()) {
        t.row([
            p.kind.to_string(),
            fmt_ppm(ppm),
            kiops(s.report.iops()),
            lat(s.report.reads.p99()),
            lat(s.report.writes.p99()),
            fmt_count(s.report.media_retries()),
            fmt_count(s.meta.program_fails),
            fmt_count(s.meta.retired_blocks),
            fmt_count(s.meta.free_blocks),
        ]);
    }
    emit(&t, &ctx.scale.out("fault.csv"));
}
