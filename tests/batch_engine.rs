//! Batch-engine equivalence: in a multi-scheme sweep the cells of a
//! workload run one after another over the recorded trace, each through
//! its own replayer, and a sampled sweep's cells share one initial
//! functional warm — yet every cell must carry exactly the statistics
//! of the same cell run alone through a one-cell wrapper, across
//! workloads, scheme sets, seeds and run shapes. Identical statistics
//! derive identical metrics, so the sweep's report bytes are the bytes
//! the one-cell runs would emit.

use fe_cfg::{workloads, WorkloadSpec};
use fe_model::MachineConfig;
use fe_sim::{
    run_scheme_replayed, run_scheme_sampled_replayed, CellSampling, Experiment, RunLength,
    SamplingSpec, SchemeSpec, SweepReport,
};
use fe_trace::Trace;
use proptest::prelude::*;

/// Short but non-trivial: long enough to cross redirects, i-cache
/// misses, and (sampled) several intervals in every workload.
const LEN: RunLength = RunLength {
    warmup: 30_000,
    measure: 90_000,
};

fn all_schemes() -> Vec<SchemeSpec> {
    vec![
        SchemeSpec::NoPrefetch,
        SchemeSpec::Fdip,
        SchemeSpec::boomerang(),
        SchemeSpec::Confluence,
        SchemeSpec::Ideal,
        SchemeSpec::shotgun(),
    ]
}

/// Checks every cell of `report` against the same cell run alone over
/// the same recording: `SimStats` always, and the `CellSampling`
/// summary too when the sweep ran sampled.
fn assert_cells_match_one_cell_runs(report: &SweepReport, workloads: &[WorkloadSpec]) {
    let machine = MachineConfig::table3();
    for wl in workloads {
        let program = wl.build();
        let trace = Trace::record(&program, report.seed, report.len.trace_instrs(&machine));
        for scheme in &report.schemes {
            let cell = report.cell(&wl.name, scheme);
            let (stats, sampling) = match report.sampling {
                None => (
                    run_scheme_replayed(
                        &program,
                        &trace,
                        scheme,
                        &machine,
                        report.len,
                        report.seed,
                    ),
                    None,
                ),
                Some(spec) => {
                    let solo = run_scheme_sampled_replayed(
                        &program,
                        &trace,
                        scheme,
                        &machine,
                        report.len,
                        spec,
                        report.seed,
                    );
                    (solo.aggregate(), Some(CellSampling::of(&solo)))
                }
            };
            assert_eq!(
                cell.stats,
                stats,
                "sweep cell ({}, {}) diverged from its one-cell run",
                wl.name,
                scheme.label(),
            );
            assert_eq!(
                cell.sampling,
                sampling,
                "sampling summary of ({}, {}) diverged from its one-cell run",
                wl.name,
                scheme.label(),
            );
        }
    }
}

#[test]
fn batch_report_is_byte_identical_across_all_named_workloads_and_schemes() {
    let specs: Vec<WorkloadSpec> = workloads::all()
        .into_iter()
        .map(|w| w.scaled(0.1))
        .collect();
    let report = Experiment::new(MachineConfig::table3())
        .workloads(specs.clone())
        .schemes(all_schemes())
        .len(LEN)
        .seed(0x5407)
        .threads(3)
        .run();
    assert_cells_match_one_cell_runs(&report, &specs);
}

/// Every scheme kind rides the shared warm: each workload's first
/// cell leads, and the five after it restore their rider snapshots.
#[test]
fn sampled_batch_report_is_byte_identical() {
    let specs = vec![
        workloads::zeus().scaled(0.15),
        workloads::nutch().scaled(0.15),
    ];
    let report = Experiment::new(MachineConfig::table3())
        .workloads(specs.clone())
        .schemes(all_schemes())
        .len(RunLength {
            warmup: 40_000,
            measure: 150_000,
        })
        .sampling(SamplingSpec {
            interval: 30_000,
            detail: 6_000,
            warmup: 8_000,
        })
        .seed(11)
        .threads(2)
        .run();
    assert_cells_match_one_cell_runs(&report, &specs);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Per-cell identity must hold for *any* cell group the sweep could
    /// form: random workload, random scheme subset (any batch width
    /// from a batch of one to the full set), random seed, either run
    /// mode.
    #[test]
    fn random_cell_groups_batch_byte_identically(
        which in 0usize..6,
        subset in 1u32..64,
        seed in 1u64..1 << 40,
        sampled in any::<bool>(),
    ) {
        let schemes: Vec<SchemeSpec> = all_schemes()
            .into_iter()
            .enumerate()
            .filter(|(i, _)| subset & (1 << i) != 0)
            .map(|(_, s)| s)
            .collect();
        let all = workloads::all();
        let wl = all[which % all.len()].clone().scaled(0.08);
        let mut sweep = Experiment::new(MachineConfig::table3())
            .workload(wl.clone())
            .schemes(schemes)
            .len(RunLength { warmup: 15_000, measure: 45_000 })
            .seed(seed)
            .threads(2);
        if sampled {
            sweep = sweep.sampling(SamplingSpec {
                interval: 15_000,
                detail: 4_000,
                warmup: 4_000,
            });
        }
        assert_cells_match_one_cell_runs(&sweep.run(), &[wl]);
    }
}
