//! Content-addressed cell cache invariants: structural config hashing
//! (field order and JSON round-trips must not change a key), engine
//! versioning (a bumped engine invalidates every entry), cache-backed
//! sweeps (served results byte-identical to computed ones, with
//! repeated sweeps recomputing nothing), and the fingerprint memo (a
//! fully cached workload with a known spec builds no program).
//!
//! Every assertion reads evidence of its own run only — the store's and
//! memo's counters and the sweep's own trace directory — so the tests
//! hold under the default parallel test runner.

use std::sync::Arc;

use fe_cfg::{workloads, MixSpec};
use fe_model::MachineConfig;
use fe_sim::cache::cell_config_json;
use fe_sim::json::{self, Json};
use fe_sim::{
    config_hash, CellKey, CellStore, Experiment, FingerprintMemo, MemoryCellStore,
    ProgramFingerprint, RunLength, SamplingSpec, SchemeSpec,
};
use proptest::prelude::*;
use shotgun::ShotgunConfig;

/// Deterministically reorders every object's members (rotation by
/// `rot`, applied recursively) — a permutation oracle for structural
/// hashing.
fn reorder(doc: &Json, rot: usize) -> Json {
    match doc {
        Json::Arr(items) => Json::Arr(items.iter().map(|i| reorder(i, rot)).collect()),
        Json::Obj(members) => {
            let mut rotated: Vec<(String, Json)> = members
                .iter()
                .map(|(k, v)| (k.clone(), reorder(v, rot)))
                .collect();
            if !rotated.is_empty() {
                let mid = rot % rotated.len();
                rotated.rotate_left(mid);
            }
            Json::Obj(rotated)
        }
        other => other.clone(),
    }
}

fn a_scheme(which: usize) -> SchemeSpec {
    match which % 4 {
        0 => SchemeSpec::NoPrefetch,
        1 => SchemeSpec::boomerang(),
        2 => SchemeSpec::Confluence,
        _ => SchemeSpec::Shotgun(ShotgunConfig::default()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The config hash is structural: reordering object members or
    /// round-tripping the document through rendered JSON must produce
    /// the same hash, or cache keys would depend on encoder quirks.
    #[test]
    fn config_hash_is_order_and_roundtrip_invariant(
        which in 0usize..4,
        seed in 0u64..1 << 48,
        warmup in 1_000u64..1_000_000,
        measure in 10_000u64..10_000_000,
        sampled in any::<bool>(),
        rot in 1usize..7,
    ) {
        let sampling = sampled.then_some(SamplingSpec::DEFAULT);
        let doc = cell_config_json(
            &MachineConfig::table3(),
            &a_scheme(which),
            RunLength { warmup, measure },
            seed,
            sampling,
        );
        let baseline = config_hash(&doc);
        prop_assert_eq!(
            config_hash(&reorder(&doc, rot)),
            baseline,
            "member order must not matter"
        );
        let reparsed = json::parse(&doc.render()).expect("canonical JSON reparses");
        prop_assert_eq!(
            config_hash(&reparsed),
            baseline,
            "render/parse round trip must not matter"
        );
    }

    /// Distinct run configurations must produce distinct hashes (the
    /// other half of being a usable key).
    #[test]
    fn config_hash_separates_distinct_configs(
        which in 0usize..4,
        seed in 0u64..1 << 48,
        warmup in 1_000u64..1_000_000,
        measure in 10_000u64..10_000_000,
    ) {
        let len = RunLength { warmup, measure };
        let machine = MachineConfig::table3();
        let base = config_hash(&cell_config_json(&machine, &a_scheme(which), len, seed, None));
        let bumped_seed =
            config_hash(&cell_config_json(&machine, &a_scheme(which), len, seed + 1, None));
        let other_scheme =
            config_hash(&cell_config_json(&machine, &a_scheme(which + 1), len, seed, None));
        prop_assert!(base != bumped_seed, "seed must feed the hash");
        prop_assert!(base != other_scheme, "scheme must feed the hash");
    }
}

#[test]
fn engine_version_bump_invalidates_every_entry() {
    let store = MemoryCellStore::new();
    let machine = MachineConfig::table3();
    // Populate entries across schemes/seeds under the current engine
    // version, then look every one of them up as the next engine
    // version would: none may be served, and every address changes.
    let keys: Vec<CellKey> = (0..8)
        .map(|i| {
            CellKey::for_cell(
                ProgramFingerprint {
                    blocks: 100 + i,
                    digest: 0xfeed + i,
                },
                &machine,
                &a_scheme(i as usize),
                RunLength::SMOKE,
                i,
                (i % 2 == 0).then_some(SamplingSpec::DEFAULT),
            )
        })
        .collect();
    for key in &keys {
        store.put(
            key,
            &fe_sim::CellValue {
                stats: Default::default(),
                sampling: None,
            },
        );
    }
    for key in &keys {
        assert!(
            store.get(key).is_some(),
            "sanity: served under same version"
        );
        let bumped = CellKey {
            engine_version: key.engine_version + 1,
            ..*key
        };
        assert!(
            store.get(&bumped).is_none(),
            "a bumped engine version must miss every existing entry"
        );
        assert_ne!(
            key.address(),
            bumped.address(),
            "the content address must encode the engine version"
        );
    }
}

/// The tentpole guarantee, in-process: a sweep run against a warm cache
/// is byte-identical to the sweep that populated it, recomputes zero
/// cells, and skips the executor walks entirely.
#[test]
fn cached_sweep_is_byte_identical_and_recomputes_nothing() {
    let store = Arc::new(MemoryCellStore::new());
    let len = RunLength {
        warmup: 20_000,
        measure: 50_000,
    };
    let trace_dir =
        std::env::temp_dir().join(format!("fe-cell-cache-traces-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&trace_dir);
    let sweep = || {
        Experiment::new(MachineConfig::table3())
            .workload(workloads::nutch().scaled(0.05))
            .workload(workloads::zeus().scaled(0.05))
            .schemes([
                SchemeSpec::NoPrefetch,
                SchemeSpec::boomerang(),
                SchemeSpec::shotgun(),
            ])
            .len(len)
            .seed(9)
            .threads(2)
            .cell_store(Arc::clone(&store) as Arc<dyn CellStore>)
    };

    let cold = sweep().run();
    assert_eq!(store.misses(), 6, "cold sweep finds nothing cached");
    assert_eq!(store.puts(), 6, "...computes and persists every cell");

    // A fresh trace directory for the warm sweep: a workload that had
    // to simulate anything would record (and persist) its walk there.
    let warm = sweep().trace_dir(&trace_dir).run();
    assert_eq!(store.hits(), 6, "warm sweep serves every cell");
    assert_eq!(store.puts(), 6, "warm sweep recomputes nothing");
    let recorded = std::fs::read_dir(&trace_dir).map_or(0, |entries| entries.count());
    assert_eq!(
        recorded, 0,
        "fully cached workloads skip the executor walk and recording"
    );
    let _ = std::fs::remove_dir_all(&trace_dir);
    assert_eq!(
        cold.to_json(),
        warm.to_json(),
        "served results must be byte-identical to computed ones"
    );
}

/// Same guarantee in sampled mode, where cached cells carry the
/// sampling summary.
#[test]
fn cached_sampled_sweep_is_byte_identical() {
    let store = Arc::new(MemoryCellStore::new());
    let sweep = |store: Arc<MemoryCellStore>| {
        Experiment::new(MachineConfig::table3())
            .workload(workloads::nutch().scaled(0.05))
            .schemes([SchemeSpec::NoPrefetch, SchemeSpec::shotgun()])
            .len(RunLength {
                warmup: 60_000,
                measure: 300_000,
            })
            .sampling(SamplingSpec {
                interval: 100_000,
                detail: 20_000,
                warmup: 20_000,
            })
            .seed(9)
            .cell_store(store)
            .run()
    };
    let cold = sweep(Arc::clone(&store));
    let warm = sweep(Arc::clone(&store));
    assert_eq!(store.hits(), 2, "warm sweep serves every cell");
    assert_eq!(cold.to_json(), warm.to_json());
    for cell in &warm.cells {
        assert!(cell.sampling.is_some(), "sampled cells keep their summary");
    }
}

const MEMO_LEN: RunLength = RunLength {
    warmup: 20_000,
    measure: 50_000,
};

/// One small full-detail sweep of `workloads`, optionally backed by a
/// cell store and a fingerprint memo.
fn memo_sweep(
    workloads: &[fe_cfg::WorkloadSpec],
    schemes: &[SchemeSpec],
    store: Option<&Arc<MemoryCellStore>>,
    memo: Option<&Arc<FingerprintMemo>>,
) -> Experiment {
    let mut sweep = Experiment::new(MachineConfig::table3())
        .workloads(workloads.iter().cloned())
        .schemes(schemes.iter().cloned())
        .len(MEMO_LEN)
        .seed(9)
        .threads(2);
    if let Some(store) = store {
        sweep = sweep.cell_store(Arc::clone(store) as Arc<dyn CellStore>);
    }
    if let Some(memo) = memo {
        sweep = sweep.fingerprints(Arc::clone(memo));
    }
    sweep
}

/// With a memo that knows the spec and a store that holds every cell,
/// a sweep builds no program — and still serves the computed bytes.
#[test]
fn fingerprint_memo_skips_synthesis_of_fully_cached_workloads() {
    let nutch = [workloads::nutch().scaled(0.05)];
    let schemes = [SchemeSpec::NoPrefetch, SchemeSpec::shotgun()];
    let computed = memo_sweep(&nutch, &schemes, None, None).run().to_json();
    let store = Arc::new(MemoryCellStore::new());
    let memo = Arc::new(FingerprintMemo::new());

    let cold = memo_sweep(&nutch, &schemes, Some(&store), Some(&memo)).run();
    assert_eq!(
        (memo.misses(), memo.hits()),
        (1, 0),
        "cold memo misses once"
    );
    assert_eq!(memo.programs_built(), 1, "the miss builds the program");
    assert_eq!(cold.to_json(), computed);

    for repeat in 1..=2 {
        let warm = memo_sweep(&nutch, &schemes, Some(&store), Some(&memo)).run();
        assert_eq!((memo.misses(), memo.hits()), (1, repeat), "then it hits");
        assert_eq!(
            memo.programs_built(),
            1,
            "a fully cached workload with a known spec builds nothing"
        );
        assert_eq!(
            warm.to_json(),
            computed,
            "served from memo and store, the report is byte-identical to a computed one"
        );
    }
}

/// A memo hit does not excuse a workload with an uncached cell from
/// synthesis: it still builds, simulates the missing cell, and matches.
#[test]
fn fingerprint_memo_still_builds_partially_cached_workloads() {
    let nutch = [workloads::nutch().scaled(0.05)];
    let schemes = [SchemeSpec::NoPrefetch, SchemeSpec::shotgun()];
    let store = Arc::new(MemoryCellStore::new());
    let memo = Arc::new(FingerprintMemo::new());
    memo_sweep(&nutch, &schemes[..1], Some(&store), Some(&memo)).run();
    assert_eq!(memo.programs_built(), 1);

    let partial = memo_sweep(&nutch, &schemes, Some(&store), Some(&memo)).run();
    assert_eq!(memo.hits(), 1, "the spec is known");
    assert_eq!(
        memo.programs_built(),
        2,
        "the uncached cell needs the program"
    );
    assert_eq!(
        (store.hits(), store.puts()),
        (1, 2),
        "one served, one computed"
    );
    assert_eq!(
        partial.to_json(),
        memo_sweep(&nutch, &schemes, None, None).run().to_json()
    );
}

/// A fully cached workload whose program a mix member reuses still
/// builds it: mixes always simulate.
#[test]
fn fingerprint_memo_builds_programs_mixes_reuse() {
    let nutch = [workloads::nutch().scaled(0.05)];
    let schemes = [SchemeSpec::NoPrefetch, SchemeSpec::shotgun()];
    let mix = MixSpec::homogeneous(nutch[0].clone(), 2);
    let store = Arc::new(MemoryCellStore::new());
    let memo = Arc::new(FingerprintMemo::new());
    memo_sweep(&nutch, &schemes, Some(&store), Some(&memo)).run();

    let with_mix = memo_sweep(&nutch, &schemes, Some(&store), Some(&memo))
        .mix(mix.clone())
        .run();
    assert_eq!(store.hits(), 2, "the single workload's cells are served");
    assert_eq!(memo.programs_built(), 2, "the mix needs the program again");
    assert_eq!(
        with_mix.to_json(),
        memo_sweep(&nutch, &schemes, None, None)
            .mix(mix)
            .run()
            .to_json()
    );
}

/// The memo keys by the whole spec: a scaled spec keeps its catalog
/// name but is a different program.
#[test]
fn fingerprint_memo_tells_scales_of_one_name_apart() {
    let memo = Arc::new(FingerprintMemo::new());
    let small = workloads::nutch().scaled(0.05);
    let large = workloads::nutch().scaled(0.1);
    assert_eq!(small.name, large.name);
    for spec in [&small, &large] {
        memo_sweep(
            std::slice::from_ref(spec),
            &[SchemeSpec::NoPrefetch],
            None,
            Some(&memo),
        )
        .run();
    }
    assert_eq!((memo.misses(), memo.hits(), memo.len()), (2, 0, 2));
    assert_ne!(memo.get(&small), memo.get(&large));
}

/// Every fingerprint the memo learns from a sweep is the one a fresh
/// build of the spec produces.
#[test]
fn fingerprint_memo_matches_fresh_builds_for_the_catalog() {
    let memo = Arc::new(FingerprintMemo::new());
    for scale in [1.0, 0.2] {
        let specs: Vec<_> = workloads::all().iter().map(|w| w.scaled(scale)).collect();
        Experiment::new(MachineConfig::table3())
            .workloads(specs.iter().cloned())
            .scheme(SchemeSpec::NoPrefetch)
            .len(RunLength {
                warmup: 1_000,
                measure: 2_000,
            })
            .seed(9)
            .fingerprints(Arc::clone(&memo))
            .run();
        for spec in &specs {
            assert_eq!(
                memo.get(spec),
                Some(ProgramFingerprint::of(&spec.build())),
                "{} at scale {scale}",
                spec.name
            );
        }
    }
    assert_eq!(memo.len(), 2 * workloads::all().len());
}
