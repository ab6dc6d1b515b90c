//! **Figure 19** — the impact of the value-log size (5 %, 10 %, 15 % of
//! the device) on (a) IOPS and (b) total page writes, plus the AnyKey−
//! (no value log) ablation under a higher write ratio (Section 6.7).
//!
//! Expected shape: workloads with small values (ZippyDB) are insensitive;
//! larger-value workloads (UDB, ETC) gain IOPS and shed page writes with a
//! bigger log (fewer log-triggered compactions). Without a log, IOPS
//! collapses as the write ratio grows.

use anykey_core::EngineKind;
use anykey_metrics::report::fmt_count;
use anykey_metrics::Table;

use super::named;
use crate::common::{emit, kiops, ExpCtx};
use crate::scheduler::{MeasureSpec, Point, PointResult};

const WORKLOADS: [&str; 3] = ["ZippyDB", "UDB", "ETC"];
const LOG_FRACS: [(f64, &str); 3] = [(0.05, "5%"), (0.10, "10%"), (0.15, "15%")];
const ABLATION_RATIOS: [f64; 2] = [0.2, 0.4];
const ABLATION_KINDS: [EngineKind; 2] = [EngineKind::AnyKeyPlus, EngineKind::AnyKeyNoLog];

/// Declares the log-size sweep (AnyKey+ per workload × log fraction)
/// followed by the Section 6.7 ablation grid.
pub fn points(ctx: &ExpCtx) -> Vec<Point> {
    let mut out = Vec::new();
    let plus = EngineKind::AnyKeyPlus;
    for w in named(&WORKLOADS) {
        for (frac, label) in LOG_FRACS {
            let log = (ctx.scale.capacity as f64 * frac) as u64;
            let cfg = ctx
                .scale
                .device_builder(plus, w)
                .value_log_bytes(log)
                .build();
            let variant = format!("log{label}");
            let run = MeasureSpec::on(cfg);
            out.push(Point::variant("fig19", plus, w, &variant, run));
        }
    }
    for w in named(&WORKLOADS) {
        for ratio in ABLATION_RATIOS {
            for kind in ABLATION_KINDS {
                let variant = format!("w{:02}", (ratio * 100.0) as u32);
                let run = MeasureSpec {
                    write_ratio: ratio,
                    ..Default::default()
                };
                out.push(Point::variant("fig19", kind, w, &variant, run));
            }
        }
    }
    out
}

/// Renders the log-size sweep tables (19a IOPS, 19b page writes) and the
/// ablation table.
pub fn render(ctx: &ExpCtx, rows: &[(&Point, &PointResult)]) {
    let mut a = Table::new(
        "Figure 19a: AnyKey+ IOPS (kIOPS) vs value-log size",
        &["workload", "log 5%", "log 10%", "log 15%"],
    );
    let mut b = Table::new(
        "Figure 19b: AnyKey+ total page writes vs value-log size",
        &["workload", "log 5%", "log 10%", "log 15%"],
    );
    let (sweep, ablation) = rows.split_at(WORKLOADS.len() * LOG_FRACS.len());
    for row in sweep.chunks(LOG_FRACS.len()) {
        let mut ra = vec![row[0].0.spec.name.to_string()];
        let mut rb = ra.clone();
        for (_, s) in row {
            ra.push(kiops(s.report.iops()));
            rb.push(fmt_count(s.report.counters.total_writes()));
        }
        a.row(ra);
        b.row(rb);
    }
    emit(&a, &ctx.scale.out("fig19a.csv"));
    emit(&b, &ctx.scale.out("fig19b.csv"));

    // Section 6.7 ablation: AnyKey+ vs AnyKey− at 20% and 40% writes.
    let mut c = Table::new(
        "Section 6.7: value-log ablation (kIOPS)",
        &[
            "workload",
            "AnyKey+ 20%w",
            "AnyKey- 20%w",
            "AnyKey+ 40%w",
            "AnyKey- 40%w",
        ],
    );
    for row in ablation.chunks(ABLATION_RATIOS.len() * ABLATION_KINDS.len()) {
        let mut cells = vec![row[0].0.spec.name.to_string()];
        cells.extend(row.iter().map(|(_, s)| kiops(s.report.iops())));
        c.row(cells);
    }
    emit(&c, &ctx.scale.out("fig19c_ablation.csv"));
}
