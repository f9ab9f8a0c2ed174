//! Sampled-simulation properties: accuracy against full-detail runs,
//! thread-count-invariant reports, graceful degradation on truncated
//! sources, and conservative trace sizing.

use fe_cfg::workloads;
use fe_model::MachineConfig;
use fe_sim::{
    run_scheme, run_scheme_replayed, EngineScheme, Experiment, RunLength, SamplingSpec, SchemeSpec,
    Simulator, SweepReport,
};
use fe_trace::Trace;
use fe_uarch::MemorySystem;
use proptest::prelude::*;

const LEN: RunLength = RunLength {
    warmup: 100_000,
    measure: 800_000,
};

const SPEC: SamplingSpec = SamplingSpec {
    interval: 100_000,
    detail: 20_000,
    warmup: 20_000,
};

/// The documented sampled-run error bounds (see the `fe_sim::sampling`
/// module docs and the README's sampling section): front-end stall
/// cycles per kilo-instruction within 10% relative or 0.5 absolute,
/// IPC within 5%.
fn assert_within_documented_bounds(
    name: &str,
    scheme: &str,
    full: &fe_model::SimStats,
    sampled: &fe_model::SimStats,
) {
    let full_pki = full.front_end_stall_pki();
    let sampled_pki = sampled.front_end_stall_pki();
    let pki_err = (sampled_pki - full_pki).abs();
    assert!(
        pki_err <= (0.10 * full_pki).max(0.5),
        "{name}/{scheme}: sampled fe-stall PKI {sampled_pki:.2} vs full {full_pki:.2} \
         (err {pki_err:.2} exceeds max(10%, 0.5))",
    );
    let ipc_err = (sampled.ipc() - full.ipc()).abs() / full.ipc();
    assert!(
        ipc_err <= 0.05,
        "{name}/{scheme}: sampled IPC {:.4} vs full {:.4} (err {:.1}%)",
        sampled.ipc(),
        full.ipc(),
        ipc_err * 100.0,
    );
}

#[test]
fn sampled_mpki_matches_full_detail_on_named_workloads() {
    let machine = MachineConfig::table3();
    // Three named workloads spanning the BTB-pressure range (Table 1
    // ordering: nutch low, zeus mid, oracle high).
    for wl in [workloads::nutch(), workloads::zeus(), workloads::oracle()] {
        let name = wl.name.clone();
        let program = wl.scaled(0.05).build();
        for scheme in [SchemeSpec::NoPrefetch, SchemeSpec::shotgun()] {
            let full = run_scheme(&program, &scheme, &machine, LEN, 0x5407);
            let sampled = Simulator::new(&program, machine.clone(), scheme.build(&machine), 0x5407)
                .run_sampled(LEN.warmup, LEN.measure, SPEC);
            assert!(
                sampled.interval_count() > 1,
                "{name}: sampling must measure several intervals"
            );
            assert!(!sampled.truncated, "{name}: live sources never truncate");
            assert_within_documented_bounds(&name, &scheme.label(), &full, &sampled.aggregate());
        }
    }
}

#[test]
fn sampled_sweep_reports_are_thread_count_invariant() {
    let sweep = |threads: usize| -> String {
        Experiment::new(MachineConfig::table3())
            .workloads([
                workloads::nutch().scaled(0.05),
                workloads::zeus().scaled(0.05),
                workloads::apache().scaled(0.05),
            ])
            .schemes([SchemeSpec::NoPrefetch, SchemeSpec::shotgun()])
            .len(LEN)
            .sampling(SPEC)
            .seed(0x5407)
            .threads(threads)
            .run()
            .to_json()
    };
    let single = sweep(1);
    let parallel = sweep(8);
    assert_eq!(
        single, parallel,
        "sampled report JSON must be byte-identical"
    );

    let report = SweepReport::from_json(&single).expect("sampled report parses");
    assert_eq!(report.sampling, Some(SPEC));
    for cell in &report.cells {
        let sampling = cell
            .sampling
            .as_ref()
            .expect("sampled cells carry a summary");
        assert!(sampling.intervals > 1, "{}: intervals", cell.workload);
        assert!(sampling.ipc.mean > 0.0);
        assert!(sampling.ipc.ci95 >= 0.0);
    }
    assert_eq!(report.to_json(), single, "round trip is stable");
}

#[test]
fn truncated_trace_degrades_into_reported_stall_not_panic() {
    let program = workloads::nutch().scaled(0.05).build();
    let machine = MachineConfig::table3();
    // Deliberately short: a fraction of what the run needs.
    let trace = Trace::record(&program, 9, 60_000);
    let scheme = SchemeSpec::shotgun().build(&machine);
    let mem = MemorySystem::new(&machine);
    let mut sim =
        Simulator::with_source(&program, machine.clone(), scheme, 9, mem, trace.replayer());
    let stats = sim.run(20_000, 500_000);
    assert!(
        sim.source_exhausted(),
        "the truncation must be reported, not hidden"
    );
    assert!(
        stats.instructions > 0 && stats.instructions < 500_000,
        "the run ends early with partial statistics ({} instructions)",
        stats.instructions,
    );
    assert!(stats.cycles > 0, "measured cycles survive the early end");

    // The ideal front end reads the oracle furthest ahead — its
    // truncation path (BPU read-ahead) must degrade too.
    let mem = MemorySystem::new(&machine);
    let mut ideal = Simulator::with_source(
        &program,
        machine.clone(),
        EngineScheme::Ideal,
        9,
        mem,
        trace.replayer(),
    );
    let stats = ideal.run(20_000, 500_000);
    assert!(ideal.source_exhausted());
    assert!(stats.instructions < 500_000);

    // The one-cell sweep wrapper still fails loudly: a sweep cell
    // measured over a partial stream would be silently wrong.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_scheme_replayed(
            &program,
            &trace,
            &SchemeSpec::shotgun(),
            &machine,
            RunLength {
                warmup: 20_000,
                measure: 500_000,
            },
            9,
        )
    }));
    assert!(result.is_err(), "run_scheme_replayed re-checks loudly");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `RunLength::trace_instrs` must size recordings so that no
    /// (machine configuration, workload, scheme) combination can drain
    /// the trace mid-run — including the ideal front end, whose BPU
    /// reads the oracle ahead of retirement, and stacked maximum-width
    /// blocks.
    #[test]
    fn sized_traces_never_run_dry(
        which in 0usize..6,
        seed in 1u64..1 << 40,
        ftq in 4u32..48,
        width in 2u32..6,
        warmup in 5_000u64..20_000,
        measure in 10_000u64..60_000,
    ) {
        let mut machine = MachineConfig::table3();
        machine.front_end.ftq_entries = ftq;
        machine.core.width = width;
        prop_assert!(machine.validate().is_ok(), "generated ranges stay valid");

        let all = workloads::all();
        let program = all[which % all.len()].clone().scaled(0.04).build();
        let len = RunLength { warmup, measure };
        let trace = Trace::record(&program, seed, len.trace_instrs(&machine));

        for spec in [SchemeSpec::shotgun(), SchemeSpec::Ideal] {
            let scheme = spec.build(&machine);
            let mem = MemorySystem::new(&machine);
            let mut sim = Simulator::with_source(
                &program,
                machine.clone(),
                scheme,
                seed,
                mem,
                trace.replayer(),
            );
            let stats = sim.run(len.warmup, len.measure);
            prop_assert!(
                !sim.source_exhausted(),
                "trace sized by trace_instrs ran dry (ftq={}, width={}, {} instrs, {})",
                ftq, width, trace.header().instr_count, spec.label(),
            );
            prop_assert!(stats.instructions >= measure);
        }
    }
}
