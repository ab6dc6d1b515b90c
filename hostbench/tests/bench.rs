//! The benchmark's own checks. Run them with `cargo test --release` in
//! this directory: the last one runs every workload once at the measured
//! scale, which takes a few seconds per workload in a release build.

use std::time::Instant;

use anykey_hostbench::adapters::CallClass;
use anykey_hostbench::bench::{self, Options};
use anykey_hostbench::plan::{Plan, Size, Workload};
use anykey_hostbench::point::{run_point, Phase};

fn calls(p: &Phase) -> u64 {
    [CallClass::Fg, CallClass::Compaction, CallClass::Gc]
        .into_iter()
        .map(|c| p.engine.calls(c))
        .sum()
}

#[test]
fn timing_adapters_are_pure_observation() {
    for w in Workload::ALL {
        let plan = Plan::new(w, Size::Tiny, 7);
        let origin = Instant::now();
        let plain = run_point(&plan, false, origin);
        let traced = run_point(&plan, true, origin);
        assert!(plain.ok() && traced.ok(), "{}", w.name());
        assert_eq!(plain.load.digest, traced.load.digest, "{} load", w.name());
        assert_eq!(plain.run.digest, traced.run.digest, "{} run", w.name());
    }
}

#[test]
fn classified_calls_add_up_to_the_ops_executed() {
    for w in Workload::ALL {
        let plan = Plan::new(w, Size::Tiny, 11);
        let r = run_point(&plan, true, Instant::now());
        assert!(r.ok(), "{}", w.name());
        assert_eq!(calls(&r.load), plan.load_ops, "{} load", w.name());
        assert_eq!(calls(&r.load), r.load.ops, "{} load", w.name());
        // The fill's run phase counts its final, rejected insert as an op,
        // and the engine saw that call too.
        assert_eq!(calls(&r.run), r.run.ops, "{} run", w.name());
        let e = &r.run.engine;
        assert_eq!(e.get.count() + e.put.count() + e.scan.count(), r.run.ops);
    }
}

#[test]
fn tiny_runs_of_every_workload_are_correct() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let out = bench::run(&Options {
                workload: w,
                seed: 3,
                seconds: 0.0,
                trace,
                size: Size::Tiny,
            });
            assert!(
                out.correct(),
                "{} trace={trace}: {:?}",
                w.name(),
                out.failures
            );
            assert!(out.attempted > 0);
            assert!(out.runs.len() >= 3, "a run makes at least three repeats");
            if trace {
                assert_eq!(out.metric("bench.failed_op_ratio"), Some(0.0));
                // Self time, time inside `execute` and generation time add
                // up to the traced phase's wall time.
                for phase in ["load", "run"] {
                    let m = |name: &str| out.metric(&format!("{name}.{phase}")).unwrap_or(f64::NAN);
                    let parts = m("runner.self_s")
                        + m("workload.gen_s")
                        + m("engine.fg_s")
                        + m("engine.compaction_s")
                        + m("engine.gc_s");
                    let wall = m("bench.phase_s");
                    assert!((parts - wall).abs() < 1e-6, "{} {phase}", w.name());
                }
            } else {
                for name in ["run_ops_per_s", "load_ops_per_s", "setup_s", "peak_rss_mb"] {
                    let v = out.metric(name).unwrap_or(0.0);
                    assert!(v > 0.0, "{} {name} = {v}", w.name());
                }
            }
        }
    }
}

#[test]
fn the_measured_scale_exercises_each_workloads_layer() {
    let meta_flash = |p: &Phase| p.meta.level_list_flash_bytes + p.meta.meta_segment_flash_bytes;
    let mut scanning = Vec::new();
    for w in Workload::ALL {
        let r = run_point(&Plan::new(w, Size::Standard, 1), true, Instant::now());
        assert!(
            r.ok(),
            "{}: {:?} {:?}",
            w.name(),
            r.load.failure,
            r.run.failure
        );
        let gc_calls = r.run.engine.calls(CallClass::Gc);
        match w {
            // PinK's level lists spill out of the device DRAM; AnyKey+'s fit.
            Workload::RtdataPink => assert!(meta_flash(&r.run) > 0),
            Workload::RtdataAnyKeyPlus => assert_eq!(meta_flash(&r.run), 0),
            // Only the fill runs into garbage collection.
            Workload::RtdataFillAnyKeyPlus => assert!(gc_calls > 0),
            Workload::UdbScanAnyKeyPlus => {}
        }
        if w != Workload::RtdataFillAnyKeyPlus {
            assert_eq!(gc_calls, 0, "{}", w.name());
        }
        if r.run.engine.scan.count() > 0 {
            scanning.push(w);
        }
    }
    assert_eq!(scanning, [Workload::UdbScanAnyKeyPlus], "only UDB scans");
}
