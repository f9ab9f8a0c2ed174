//! Multi-context consolidation through the `Experiment` API: mix cells
//! must be deterministic at any thread count, keyed by member id, and
//! derive speedups against the *same context* of the baseline run.
//! The sweep's report is pinned to bytes by a fixture.

use fe_cfg::{workloads, MixSpec};
use fe_model::MachineConfig;
use fe_sim::{Experiment, RunLength, SchemeSpec};

const PINNED_MIX: &str = include_str!("fixtures/pinned_mix_sweep.json");

const LEN: RunLength = RunLength {
    warmup: 40_000,
    measure: 100_000,
};

fn mix() -> MixSpec {
    workloads::apache_db2().scaled(0.08)
}

fn sweep(threads: usize) -> fe_sim::SweepReport {
    Experiment::new(MachineConfig::table3())
        .workload(workloads::nutch().scaled(0.08))
        .mix(mix())
        .schemes([SchemeSpec::NoPrefetch, SchemeSpec::shotgun()])
        .len(LEN)
        .seed(0x5407)
        .threads(threads)
        .run()
}

#[test]
fn mix_sweep_reproduces_its_pinned_json_bytes() {
    assert_eq!(
        sweep(1).to_json(),
        PINNED_MIX,
        "consolidation sweep diverged from its pinned report"
    );
}

#[test]
fn mix_cells_are_thread_count_invariant() {
    let serial = sweep(1);
    let parallel = sweep(4);
    assert_eq!(
        serial.to_json(),
        parallel.to_json(),
        "multi-context sweep must be byte-identical at any thread count"
    );
}

#[test]
fn mix_members_report_as_individual_cells() {
    let report = sweep(2);
    let ids = mix().member_ids();
    assert_eq!(ids, vec!["apache+db2#0.apache", "apache+db2#1.db2"]);
    // Workload list: the single workload followed by the mix members.
    assert_eq!(
        report.workload_names(),
        vec!["nutch", "apache+db2#0.apache", "apache+db2#1.db2"]
    );
    for id in &ids {
        let base = report.cell(id, &SchemeSpec::NoPrefetch);
        let sg = report.cell(id, &SchemeSpec::shotgun());
        assert!(base.stats.instructions >= LEN.measure);
        assert!(
            sg.metrics.speedup.is_some(),
            "mix members derive speedup against their own context's baseline"
        );
        let expected = sg.stats.ipc() / base.stats.ipc();
        assert!(
            (sg.metrics.speedup.unwrap() - expected).abs() < 1e-12,
            "speedup must be derived within the mix, not against a solo run"
        );
    }
    // JSON round trip covers the synthesized member ids.
    let back = fe_sim::SweepReport::from_json(&report.to_json()).expect("parses");
    assert_eq!(back, report);
}

#[test]
fn mix_contexts_differ_from_solo_runs() {
    // The consolidated apache context shares LLC/NoC with db2: its
    // cycle count must differ from a private-memory run of the same
    // program/scheme/seed (interference is real, in either direction).
    let report = sweep(2);
    let consolidated = report.cell("apache+db2#0.apache", &SchemeSpec::shotgun());
    let solo_program = mix().members[0].clone().build();
    let solo = fe_sim::run_scheme(
        &solo_program,
        &SchemeSpec::shotgun(),
        &MachineConfig::table3(),
        LEN,
        fe_sim::derive_ctx_seed(0x5407, 0),
    );
    assert_ne!(
        consolidated.stats.cycles, solo.cycles,
        "shared memory system must perturb timing"
    );
}
