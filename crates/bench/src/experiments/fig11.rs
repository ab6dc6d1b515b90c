//! **Figure 11** — (a) metadata size and placement (DRAM vs flash) per
//! system, and (b) the distribution of flash accesses per read request.
//!
//! Expected shape: PinK's metadata under low-v/k workloads far exceeds the
//! DRAM line with the overflow in flash; AnyKey's level lists + hash lists
//! exactly fill DRAM. PinK needs 4–7 flash accesses per read on low-v/k;
//! AnyKey/AnyKey+ need ≤ 2 almost always.

use anykey_metrics::Table;

use super::{fig10::WORKLOADS, named};
use crate::common::{emit, ExpCtx};
use crate::scheduler::{MeasureSpec, Point, PointResult};

fn kb(b: u64) -> String {
    format!("{:.1}", b as f64 / 1024.0)
}

/// Declares the same standard runs as Figure 10 (deduplicated by the
/// scheduler when both run in one sweep).
pub fn points(_ctx: &ExpCtx) -> Vec<Point> {
    Point::grid("fig11", named(&WORKLOADS), MeasureSpec::default())
}

/// Renders the metadata-placement and reads-per-GET tables.
pub fn render(ctx: &ExpCtx, rows: &[(&Point, &PointResult)]) {
    let mut a = Table::new(
        "Figure 11a: metadata size and placement (KB)",
        &[
            "workload",
            "system",
            "level lists",
            "lists in flash",
            "meta segs DRAM",
            "meta segs flash",
            "hash lists res",
            "hash lists total",
            "DRAM cap",
        ],
    );
    let mut b = Table::new(
        "Figure 11b: flash accesses per read (% of GETs)",
        &[
            "workload", "system", "0", "1", "2", "3", "4", "5", "6", "7", "8", ">=9", "mean",
        ],
    );
    for (p, s) in rows {
        let (name, system) = (p.spec.name.to_string(), p.kind.label().to_string());
        let m = &s.meta;
        a.row([
            name.clone(),
            system.clone(),
            kb(m.level_list_bytes),
            kb(m.level_list_flash_bytes),
            kb(m.meta_segment_dram_bytes),
            kb(m.meta_segment_flash_bytes),
            kb(m.hash_list_resident_bytes),
            kb(m.hash_list_total_bytes),
            kb(m.dram_capacity),
        ]);
        let total: u64 = s.report.reads_per_get.iter().sum::<u64>().max(1);
        let mut row = vec![name, system];
        for c in s.report.reads_per_get {
            row.push(format!("{:.1}", 100.0 * c as f64 / total as f64));
        }
        row.push(format!("{:.2}", s.report.mean_reads_per_get()));
        b.row(row);
    }
    emit(&a, &ctx.scale.out("fig11a.csv"));
    emit(&b, &ctx.scale.out("fig11b.csv"));
}
