//! Pipeline-refactor regression gate: the staged engine must be
//! *bit-identical* to the pre-refactor monolithic `Simulator::run`
//! loop. The fixture was emitted by the monolith for a pinned
//! (workload, schemes, length, seed) cell; any change to stage
//! ordering, stall accounting, RNG streams, or JSON shape shows up as
//! a byte diff here.

use fe_cfg::{workloads, Executor, Program};
use fe_model::{MachineConfig, SimStats};
use fe_sim::{
    run_scheme, Experiment, RunLength, SamplingSpec, SchemeSpec, Simulator, SourceKind, SweepReport,
};
use fe_trace::{Trace, TraceStore};
use fe_uarch::MemorySystem;
use proptest::prelude::*;

const PINNED: &str = include_str!("fixtures/pinned_nutch_smoke.json");

fn pinned_report() -> SweepReport {
    Experiment::new(MachineConfig::table3())
        .workload(workloads::nutch())
        .schemes([SchemeSpec::NoPrefetch, SchemeSpec::shotgun()])
        .len(RunLength::SMOKE)
        .seed(0x5407)
        .threads(1)
        .run()
}

#[test]
fn refactored_pipeline_reproduces_pre_refactor_json_bytes() {
    // The fixture was emitted by the live (pre-trace-layer) engine, so
    // this byte comparison also pins record-once/replay-many sweeps to
    // live execution: `Experiment` now records each workload's stream
    // and replays it into every cell.
    let report = pinned_report();
    assert_eq!(
        report.to_json(),
        PINNED,
        "staged pipeline diverged from the pre-refactor engine on the pinned cell"
    );
}

#[test]
fn replayed_sweep_cells_match_live_execution_for_every_workload() {
    // Replay fidelity across the whole named suite: every cell of a
    // trace-driven sweep must carry statistics bit-identical to a live
    // per-cell simulation — identical stats derive identical metrics,
    // so the `SweepReport` JSON is byte-identical to what live
    // execution would emit (the fixture test above pins the bytes
    // themselves on the pinned cell).
    let machine = MachineConfig::table3();
    let len = RunLength {
        warmup: 25_000,
        measure: 60_000,
    };
    let schemes = [SchemeSpec::NoPrefetch, SchemeSpec::shotgun()];
    let specs: Vec<_> = workloads::all()
        .into_iter()
        .map(|w| w.scaled(0.04))
        .collect();
    let report = Experiment::new(machine.clone())
        .workloads(specs.clone())
        .schemes(schemes.clone())
        .len(len)
        .seed(0x5407)
        .run();
    for wl in &specs {
        let program = wl.build();
        for scheme in &schemes {
            let live = run_scheme(&program, scheme, &machine, len, 0x5407);
            assert_eq!(
                report.cell(&wl.name, scheme).stats,
                live,
                "replayed cell ({}, {}) diverged from live execution",
                wl.name,
                scheme.label(),
            );
        }
    }
}

/// How a parity run feeds the pipeline — every `SourceKind`.
#[derive(Clone, Copy, Debug)]
enum SourceFlavor {
    /// `SourceKind::Live` (executor walk).
    Live,
    /// `SourceKind::Replay` (flat trace decode).
    Replay,
    /// `SourceKind::Store` (chunked v2 store decode).
    Store,
}

impl SourceFlavor {
    const ALL: [SourceFlavor; 3] = [
        SourceFlavor::Live,
        SourceFlavor::Replay,
        SourceFlavor::Store,
    ];

    fn build<'p>(
        self,
        program: &'p Program,
        trace: &'p Trace,
        store: &'p TraceStore,
        seed: u64,
    ) -> SourceKind<'p> {
        match self {
            SourceFlavor::Live => Executor::new(program, seed).into(),
            SourceFlavor::Replay => trace.replayer().into(),
            SourceFlavor::Store => store.replayer().into(),
        }
    }
}

/// One recording in both on-disk shapes: the flat trace and a chunked
/// store holding the same stream (small chunks, so runs cross many).
fn record(
    program: &Program,
    seed: u64,
    len: RunLength,
    machine: &MachineConfig,
) -> (Trace, TraceStore) {
    let trace = Trace::record(program, seed, len.trace_instrs(machine));
    let store = TraceStore::from_trace_with(&trace, "engine regression", 256);
    (trace, store)
}

/// One full-detail run with an explicit source flavor.
fn run_flavored(
    program: &Program,
    (trace, store): &(Trace, TraceStore),
    spec: &SchemeSpec,
    machine: &MachineConfig,
    len: RunLength,
    seed: u64,
    flavor: SourceFlavor,
) -> SimStats {
    let mem = MemorySystem::new(machine);
    let mut sim = Simulator::with_source(
        program,
        machine.clone(),
        spec.build(machine),
        seed,
        mem,
        flavor.build(program, trace, store, seed),
    );
    let stats = sim.run(len.warmup, len.measure);
    assert!(!sim.source_exhausted(), "parity trace ran dry");
    stats
}

#[test]
fn every_source_kind_matches_the_live_walk_for_every_named_workload() {
    // Every source the pipeline can read must feed it the same stream:
    // identical `SimStats` derive identical metrics, so the sweep JSON
    // is byte-for-byte what a live walk would have produced.
    let machine = MachineConfig::table3();
    let len = RunLength {
        warmup: 20_000,
        measure: 50_000,
    };
    let schemes = [SchemeSpec::NoPrefetch, SchemeSpec::shotgun()];
    for wl in workloads::all() {
        let wl = wl.scaled(0.04);
        let program = wl.build();
        let recording = record(&program, 0x5407, len, &machine);
        for spec in &schemes {
            let live = run_flavored(
                &program,
                &recording,
                spec,
                &machine,
                len,
                0x5407,
                SourceFlavor::Live,
            );
            for flavor in SourceFlavor::ALL {
                let stats = run_flavored(&program, &recording, spec, &machine, len, 0x5407, flavor);
                assert_eq!(
                    stats,
                    live,
                    "({}, {}) diverged: flavor {flavor:?}",
                    wl.name,
                    spec.label(),
                );
            }
        }
    }
}

#[test]
fn sampled_sweep_json_is_reproducible_on_the_devirtualized_path() {
    // A sampled sweep exercises the enum dispatch through the
    // functional-warming path too (`warm_block`, seekable skips); its
    // report must stay byte-identical across thread counts.
    let spec = SamplingSpec {
        interval: 60_000,
        detail: 10_000,
        warmup: 10_000,
    };
    let sweep = |threads: usize| {
        Experiment::new(MachineConfig::table3())
            .workload(workloads::nutch().scaled(0.05))
            .schemes([SchemeSpec::NoPrefetch, SchemeSpec::shotgun()])
            .len(RunLength {
                warmup: 40_000,
                measure: 240_000,
            })
            .sampling(spec)
            .seed(0x5407)
            .threads(threads)
            .run()
            .to_json()
    };
    let single = sweep(1);
    assert_eq!(single, sweep(8), "sampled sweep must be thread-invariant");
    assert!(single.contains("\"sampling\""));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random (source kind, scheme) pairs agree with the live walk on
    /// final statistics.
    #[test]
    fn random_source_and_scheme_pairs_agree_with_the_live_walk(
        which_wl in 0usize..6,
        which_scheme in 0usize..6,
        which_flavor in 0usize..3,
        seed in 1u64..1 << 40,
    ) {
        let machine = MachineConfig::table3();
        let len = RunLength {
            warmup: 10_000,
            measure: 30_000,
        };
        let all = workloads::all();
        let program = all[which_wl % all.len()].clone().scaled(0.04).build();
        let recording = record(&program, seed, len, &machine);
        let spec = [
            SchemeSpec::NoPrefetch,
            SchemeSpec::Fdip,
            SchemeSpec::boomerang(),
            SchemeSpec::Confluence,
            SchemeSpec::Ideal,
            SchemeSpec::shotgun(),
        ][which_scheme % 6]
            .clone();
        let flavor = SourceFlavor::ALL[which_flavor % SourceFlavor::ALL.len()];

        let live = run_flavored(&program, &recording, &spec, &machine, len, seed, SourceFlavor::Live);
        let other = run_flavored(&program, &recording, &spec, &machine, len, seed, flavor);
        prop_assert_eq!(
            other,
            live,
            "({}, {}) flavor {:?}: diverged from the live walk",
            program.name(),
            spec.label(),
            flavor,
        );
    }
}

#[test]
fn fixture_parses_and_round_trips() {
    let parsed = SweepReport::from_json(PINNED).expect("fixture must stay parseable");
    assert_eq!(parsed.to_json(), PINNED);
    assert!(
        parsed
            .cell("nutch", &SchemeSpec::shotgun())
            .metrics
            .speedup
            .is_some(),
        "pinned cell carries derived metrics"
    );
}
