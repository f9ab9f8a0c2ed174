//! Tests of the `Experiment` session API: thread-count invariance, the
//! one-thread inline path, JSON round-tripping, and equivalence with
//! the one-cell `run_scheme` wrapper.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use fe_cfg::{workloads, LayerSpec, MixSpec, WorkloadSpec};
use fe_model::MachineConfig;
use fe_sim::{
    run_scheme, Experiment, FingerprintMemo, Interrupted, MemoryCellStore, RunLength, SamplingSpec,
    SchemeSpec, SweepReport,
};
use shotgun::ShotgunConfig;

fn small_suite() -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec {
            name: "alpha".into(),
            seed: 11,
            layers: vec![
                LayerSpec::grouped(4, 4.0),
                LayerSpec::grouped(32, 2.0),
                LayerSpec::shared(64, 0.8),
            ],
            kernel_entries: 4,
            kernel_helpers: 12,
            ..WorkloadSpec::default()
        },
        workloads::nutch().scaled(0.15),
    ]
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("fe-experiment-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn schemes() -> Vec<SchemeSpec> {
    vec![
        SchemeSpec::NoPrefetch,
        SchemeSpec::boomerang(),
        SchemeSpec::shotgun(),
    ]
}

fn sweep(threads: usize) -> SweepReport {
    Experiment::new(MachineConfig::table3())
        .workloads(small_suite())
        .schemes(schemes())
        .len(RunLength::SMOKE)
        .seed(5)
        .threads(threads)
        .run()
}

#[test]
fn thread_count_does_not_change_the_report() {
    let serial = sweep(1);
    let parallel = sweep(8);
    assert_eq!(
        serial, parallel,
        "reports must be identical at any thread count"
    );
    assert_eq!(
        serial.to_json(),
        parallel.to_json(),
        "and their JSON must be byte-identical"
    );
}

#[test]
fn report_round_trips_through_json_and_disk() {
    let report = sweep(4);
    let parsed = SweepReport::from_json(&report.to_json()).expect("parses");
    assert_eq!(parsed, report);

    let path = std::env::temp_dir().join("shotgun_experiment_api_roundtrip.json");
    report.write_json(&path).expect("writes");
    let text = std::fs::read_to_string(&path).expect("reads back");
    let _ = std::fs::remove_file(&path);
    assert_eq!(SweepReport::from_json(&text).expect("parses"), report);
}

#[test]
fn sweep_cells_match_run_scheme() {
    // The sweep must reproduce exactly what a hand-rolled serial loop
    // over `run_scheme` measures (the old `run_suite` semantics).
    let report = sweep(4);
    let machine = MachineConfig::table3();
    for wl in small_suite() {
        let program = wl.build();
        for spec in schemes() {
            let direct = run_scheme(&program, &spec, &machine, RunLength::SMOKE, 5);
            assert_eq!(
                report.cell(&wl.name, &spec).stats,
                direct,
                "cell ({}, {}) diverges from run_scheme",
                wl.name,
                spec.label(),
            );
        }
    }
}

#[test]
fn derived_metrics_use_the_baseline() {
    let report = sweep(2);
    for wl in ["alpha", "nutch"] {
        let base = report.cell(wl, &SchemeSpec::NoPrefetch);
        assert_eq!(base.metrics.speedup, Some(1.0));
        assert_eq!(base.metrics.coverage, Some(0.0));
        let shot = report.cell(wl, &SchemeSpec::shotgun());
        let expected = fe_model::stats::speedup(&base.stats, &shot.stats);
        assert_eq!(shot.metrics.speedup, Some(expected));
    }
}

#[test]
fn progress_callback_sees_every_cell() {
    let seen = Arc::new(AtomicUsize::new(0));
    let counter = seen.clone();
    let report = Experiment::new(MachineConfig::table3())
        .workloads(small_suite())
        .schemes(schemes())
        .len(RunLength::SMOKE)
        .seed(5)
        .threads(3)
        .on_progress(move |e| {
            assert!(e.completed >= 1 && e.completed <= e.total);
            assert_eq!(e.total, 6);
            counter.fetch_add(1, Ordering::Relaxed);
        })
        .run();
    assert_eq!(seen.load(Ordering::Relaxed), report.cells.len());
}

/// `threads(1)` spawns nothing: every step, progress callbacks
/// included, runs on the caller's thread, and the report is the one
/// two workers produce.
#[test]
fn one_thread_sweeps_on_the_callers_thread() {
    let caller = std::thread::current().id();
    let seen = Arc::new(Mutex::new(Vec::new()));
    let threads_seen = Arc::clone(&seen);
    let inline = Experiment::new(MachineConfig::table3())
        .workloads(small_suite())
        .schemes(schemes())
        .len(RunLength::SMOKE)
        .seed(5)
        .threads(1)
        .on_progress(move |_| {
            threads_seen
                .lock()
                .unwrap()
                .push(std::thread::current().id())
        })
        .run();
    let seen = seen.lock().unwrap();
    assert_eq!(seen.len(), inline.cells.len(), "one callback per cell");
    assert!(
        seen.iter().all(|&id| id == caller),
        "a one-thread sweep calls back on the caller's thread"
    );
    assert_eq!(
        inline.to_json(),
        sweep(2).to_json(),
        "one thread and two give byte-identical reports"
    );
}

/// A one-thread sweep checks its cancel flag before each job, as the
/// workers do: set before the run, it builds no program, records no
/// trace, and computes and stores nothing.
#[test]
fn one_thread_sweep_cancelled_up_front_computes_nothing() {
    let store = Arc::new(MemoryCellStore::new());
    let memo = Arc::new(FingerprintMemo::new());
    let trace_dir = temp_dir("cancelled-up-front");
    let ticks = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&ticks);
    let result = Experiment::new(MachineConfig::table3())
        .workloads(small_suite())
        .schemes(schemes())
        .len(RunLength::SMOKE)
        .seed(5)
        .threads(1)
        .cell_store(store.clone())
        .fingerprints(Arc::clone(&memo))
        .trace_dir(&trace_dir)
        .cancel_flag(Arc::new(AtomicBool::new(true)))
        .on_progress(move |_| {
            counter.fetch_add(1, Ordering::Relaxed);
        })
        .try_run();
    assert_eq!(
        result.err(),
        Some(Interrupted {
            completed: 0,
            total: 6
        })
    );
    assert_eq!(ticks.load(Ordering::Relaxed), 0, "no cell completed");
    assert_eq!(store.puts(), 0, "no cell was put");
    assert_eq!(memo.programs_built(), 0, "no program was built");
    let recorded = std::fs::read_dir(&trace_dir).map_or(0, |entries| entries.count());
    assert_eq!(recorded, 0, "no trace was recorded");
    let _ = std::fs::remove_dir_all(&trace_dir);
}

/// A flag set while a one-thread sweep runs lets the workload in
/// flight finish its cells, then stops: the next workload's program is
/// never built.
#[test]
fn one_thread_sweep_cancelled_mid_run_builds_only_the_workload_in_flight() {
    let memo = Arc::new(FingerprintMemo::new());
    let cancel = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&cancel);
    let result = Experiment::new(MachineConfig::table3())
        .workloads(small_suite())
        .schemes(schemes())
        .len(RunLength::SMOKE)
        .seed(5)
        .threads(1)
        .fingerprints(Arc::clone(&memo))
        .cancel_flag(cancel)
        .on_progress(move |_| flag.store(true, Ordering::Relaxed))
        .try_run();
    assert_eq!(
        result.err(),
        Some(Interrupted {
            completed: 3,
            total: 6
        }),
        "the first workload's cells complete, the second's never start"
    );
    assert_eq!(memo.programs_built(), 1, "only the first workload built");
}

/// Which workload a job runs, and on how many threads, changes nothing
/// a caller can see: over three workloads and a mix whose members are
/// two of them, against a store that holds some of the cells, one, two
/// and four threads give byte-identical reports and serve the same
/// cells from the cache.
#[test]
fn thread_count_changes_neither_report_nor_cache_use() {
    let len = RunLength {
        warmup: 20_000,
        measure: 50_000,
    };
    let suite = [
        small_suite().remove(0),
        workloads::nutch().scaled(0.05),
        workloads::zeus().scaled(0.05),
    ];
    let mix = MixSpec::new("pair", vec![suite[1].clone(), suite[2].clone()]);
    let sweep = |workloads: &[WorkloadSpec], schemes: &[SchemeSpec], threads: usize| {
        Experiment::new(MachineConfig::table3())
            .workloads(workloads.iter().cloned())
            .schemes(schemes.iter().cloned())
            .len(len)
            .seed(5)
            .threads(threads)
    };
    let runs: Vec<_> = [1, 2, 4]
        .into_iter()
        .map(|threads| {
            // The first workload is fully cached, the second has one
            // cell cached and the third none.
            let store = Arc::new(MemoryCellStore::new());
            sweep(&suite[..1], &schemes(), threads)
                .cell_store(store.clone())
                .run();
            sweep(&suite[1..2], &schemes()[..1], threads)
                .cell_store(store.clone())
                .run();
            let before = [store.hits(), store.misses(), store.puts()];
            let events = Arc::new(Mutex::new(Vec::new()));
            let seen = Arc::clone(&events);
            let report = sweep(&suite, &schemes(), threads)
                .mix(mix.clone())
                .cell_store(store.clone())
                .on_progress(move |e| {
                    let cell = (e.workload.0.clone(), e.scheme.clone(), e.cached);
                    seen.lock().unwrap().push(cell);
                })
                .run();
            let mut events = events.lock().unwrap().clone();
            events.sort();
            let counts = [
                store.hits() - before[0],
                store.misses() - before[1],
                store.puts() - before[2],
            ];
            (report.to_json(), events, counts)
        })
        .collect();
    let (json, events, counts) = &runs[0];
    assert_eq!(
        events.iter().filter(|(_, _, cached)| *cached).count(),
        4,
        "three cells of the first workload and one of the second are served"
    );
    assert_eq!(
        *counts,
        [4, 5, 5],
        "every uncached single-workload cell computes once"
    );
    for (other, threads) in runs[1..].iter().zip([2, 4]) {
        assert_eq!(other.0, *json, "{threads} threads: report bytes differ");
        assert_eq!(other.1, *events, "{threads} threads: other cells served");
        assert_eq!(other.2, *counts, "{threads} threads: store counts differ");
    }
}

#[test]
fn distinct_shotgun_variants_coexist_in_one_sweep() {
    // Regression test for the label collision that made the old fig12
    // compare one config against itself three times.
    let variants = vec![
        SchemeSpec::shotgun(),
        SchemeSpec::Shotgun(ShotgunConfig::default().with_cbtb_entries(64)),
        SchemeSpec::Shotgun(ShotgunConfig::for_budget(512)),
    ];
    let report = Experiment::new(MachineConfig::table3())
        .workload(small_suite().remove(0))
        .schemes(variants.clone())
        .len(RunLength::SMOKE)
        .seed(5)
        .threads(2)
        .run();
    for spec in &variants {
        let _ = report.cell("alpha", spec);
    }
    let labels: Vec<&str> = report.cells.iter().map(|c| c.label.as_str()).collect();
    let mut dedup = labels.clone();
    dedup.sort();
    dedup.dedup();
    assert_eq!(
        dedup.len(),
        labels.len(),
        "labels must be unique: {labels:?}"
    );
}

#[test]
fn explicit_baseline_overrides_the_default() {
    let report = Experiment::new(MachineConfig::table3())
        .workload(small_suite().remove(0))
        .schemes([SchemeSpec::boomerang(), SchemeSpec::shotgun()])
        .baseline(SchemeSpec::boomerang())
        .len(RunLength::SMOKE)
        .seed(5)
        .run();
    assert_eq!(report.baseline.as_deref(), Some("boomerang"));
    assert_eq!(
        report
            .cell("alpha", &SchemeSpec::boomerang())
            .metrics
            .speedup,
        Some(1.0)
    );
}

#[test]
fn sweep_without_baseline_has_no_derived_ratios() {
    let report = Experiment::new(MachineConfig::table3())
        .workload(small_suite().remove(0))
        .scheme(SchemeSpec::shotgun())
        .len(RunLength::SMOKE)
        .seed(5)
        .run();
    assert_eq!(report.baseline, None);
    let cell = report.cell("alpha", &SchemeSpec::shotgun());
    assert_eq!(cell.metrics.speedup, None);
    assert_eq!(cell.metrics.coverage, None);
    assert!(cell.metrics.ipc > 0.0, "absolute metrics still derived");
}

/// Checked up front, on the caller's thread: a worker's panic would
/// reach the caller only as "a scoped thread panicked".
#[test]
#[should_panic(expected = "too short for even one")]
fn sampled_sweep_shorter_than_one_detail_window_is_rejected_up_front() {
    let _ = Experiment::new(MachineConfig::table3())
        .workload(workloads::nutch().scaled(0.05))
        .scheme(SchemeSpec::NoPrefetch)
        .len(RunLength {
            warmup: 1_000,
            measure: 10_000,
        })
        .sampling(SamplingSpec::DEFAULT)
        .threads(2)
        .run();
}

#[test]
#[should_panic(expected = "duplicate workload name")]
fn duplicate_workload_names_are_rejected() {
    // scaled() keeps the name, so this would otherwise shadow the
    // second workload's cells in every lookup and in the JSON.
    let _ = Experiment::new(MachineConfig::table3())
        .workload(workloads::nutch().scaled(0.2))
        .workload(workloads::nutch().scaled(0.1))
        .scheme(SchemeSpec::NoPrefetch)
        .len(RunLength::SMOKE)
        .run();
}
