//! **Figure 19** — the impact of the value-log size (5 %, 10 %, 15 % of
//! the device) on (a) IOPS and (b) total page writes, plus the AnyKey−
//! (no value log) ablation under a higher write ratio (Section 6.7).
//!
//! Expected shape: workloads with small values (ZippyDB) are insensitive;
//! larger-value workloads (UDB, ETC) gain IOPS and shed page writes with a
//! bigger log (fewer log-triggered compactions). Without a log, IOPS
//! collapses as the write ratio grows.

use anykey_core::{DeviceConfig, EngineKind};
use anykey_metrics::report::fmt_count;
use anykey_metrics::Table;
use anykey_workload::spec;

use crate::common::{emit, kiops, ExpCtx};
use crate::scheduler::{MeasureSpec, Point, PointResult, RunKind};

const WORKLOADS: [&str; 3] = ["ZippyDB", "UDB", "ETC"];
const LOG_FRACS: [(f64, &str); 3] = [(0.05, "5%"), (0.10, "10%"), (0.15, "15%")];
const ABLATION_RATIOS: [f64; 2] = [0.2, 0.4];
const ABLATION_KINDS: [EngineKind; 2] = [EngineKind::AnyKeyPlus, EngineKind::AnyKeyNoLog];

/// Declares the log-size sweep (AnyKey+ per workload × log fraction)
/// followed by the Section 6.7 ablation grid.
pub fn points(ctx: &ExpCtx) -> Vec<Point> {
    let mut out = Vec::new();
    for name in WORKLOADS {
        let w = spec::by_name(name).expect("fig19 workload");
        for (frac, label) in LOG_FRACS {
            let cfg = DeviceConfig::builder()
                .capacity_bytes(ctx.scale.capacity)
                .engine(EngineKind::AnyKeyPlus)
                .key_len(w.key_len as u16)
                .value_log_bytes((ctx.scale.capacity as f64 * frac) as u64)
                .build();
            out.push(Point::with_key(
                format!("fig19/{name}/AnyKey+/log{label}"),
                "fig19",
                EngineKind::AnyKeyPlus,
                w,
                RunKind::Measure(MeasureSpec {
                    cfg: Some(Box::new(cfg)),
                    ..Default::default()
                }),
            ));
        }
    }
    for name in WORKLOADS {
        let w = spec::by_name(name).expect("fig19 workload");
        for ratio in ABLATION_RATIOS {
            for kind in ABLATION_KINDS {
                out.push(Point::with_key(
                    format!(
                        "fig19/{name}/{}/w{:02}",
                        kind.label(),
                        (ratio * 100.0) as u32
                    ),
                    "fig19",
                    kind,
                    w,
                    RunKind::Measure(MeasureSpec {
                        write_ratio: ratio,
                        ..Default::default()
                    }),
                ));
            }
        }
    }
    out
}

/// Renders the log-size sweep tables (19a IOPS, 19b page writes) and the
/// ablation table.
pub fn render(ctx: &ExpCtx, results: &[PointResult]) {
    let mut a = Table::new(
        "Figure 19a: AnyKey+ IOPS (kIOPS) vs value-log size",
        &["workload", "log 5%", "log 10%", "log 15%"],
    );
    let mut b = Table::new(
        "Figure 19b: AnyKey+ total page writes vs value-log size",
        &["workload", "log 5%", "log 10%", "log 15%"],
    );
    let mut rows = results.iter();
    for name in WORKLOADS {
        let mut ra = vec![name.to_string()];
        let mut rb = vec![name.to_string()];
        for _ in LOG_FRACS {
            let s = &rows.next().expect("fig19 sweep row");
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
    for name in WORKLOADS {
        let mut row = vec![name.to_string()];
        for _ in ABLATION_RATIOS {
            for _ in ABLATION_KINDS {
                let s = &rows.next().expect("fig19 ablation row");
                row.push(kiops(s.report.iops()));
            }
        }
        c.row(row);
    }
    emit(&c, &ctx.scale.out("fig19c_ablation.csv"));
}
