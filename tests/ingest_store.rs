//! Ingested-trace acceptance gates: a sweep replayed from a v2
//! chunk-compressed store must be byte-identical to the same sweep
//! replayed from the flat v1 recording it was ingested from; seeking
//! through the store must decode only the chunk the seek lands in; and
//! sampled runs over an ingested workload must work unchanged.

use std::path::PathBuf;

use fe_cfg::workloads;
use fe_model::{BlockSource, MachineConfig};
use fe_sim::{run_scheme_replayed, Experiment, RunLength, SamplingSpec, SchemeSpec, Simulator};
use fe_trace::{IngestOptions, SourceFormat, Trace, TraceStore};
use fe_uarch::MemorySystem;

const SEED: u64 = 0x5407;

const LEN: RunLength = RunLength {
    warmup: 20_000,
    measure: 50_000,
};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fe-ingest-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn sweep(trace_dir: &std::path::Path, sampling: Option<SamplingSpec>) -> String {
    let mut exp = Experiment::new(MachineConfig::table3())
        .workload(workloads::nutch().scaled(0.05))
        .workload(workloads::zeus().scaled(0.05))
        .schemes([SchemeSpec::NoPrefetch, SchemeSpec::shotgun()])
        .baseline(SchemeSpec::NoPrefetch)
        .len(LEN)
        .seed(SEED)
        .threads(2)
        .trace_dir(trace_dir);
    if let Some(spec) = sampling {
        exp = exp.sampling(spec);
    }
    exp.run().to_json()
}

/// The acceptance gate: record a sweep's traces as flat v1 files,
/// ingest each into a v2 store, delete the v1 files, and re-run the
/// sweep — the report must come back byte-identical, proving the
/// ingested stores drive every replay path exactly like the
/// recordings they came from.
#[test]
fn sweep_from_ingested_stores_is_byte_identical() {
    let dir = tmp_dir("sweep");
    let from_recordings = sweep(&dir, None);

    // Ingest every persisted .fetr into a .fets next to it, then
    // remove the originals so only the stores can serve the re-run.
    let mut converted = 0;
    for entry in std::fs::read_dir(&dir).expect("read trace dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "fetr") {
            let opts = IngestOptions {
                provenance: "ingest_store integration test".into(),
                ..IngestOptions::default()
            };
            let (store, report) = fe_trace::ingest_file(&path, &opts).expect("ingest recording");
            assert_eq!(report.format, SourceFormat::FetrV1);
            assert!(report.verified);
            store
                .write_to(path.with_extension("fets"))
                .expect("write store");
            std::fs::remove_file(&path).expect("remove flat recording");
            converted += 1;
        }
    }
    assert_eq!(converted, 2, "one recording per workload");

    let from_stores = sweep(&dir, None);
    assert_eq!(
        from_recordings, from_stores,
        "sweep over ingested stores must be byte-identical"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sampled sweeps run over ingested stores unchanged — same
/// byte-identity gate with sampling enabled (fast-forward, functional
/// warming and measurement all replay from the reconstructed stream).
#[test]
fn sampled_sweep_over_ingested_stores_is_unchanged() {
    let spec = SamplingSpec {
        interval: 20_000,
        detail: 5_000,
        warmup: 5_000,
    };
    let dir = tmp_dir("sampled");
    let from_recordings = sweep(&dir, Some(spec));
    for entry in std::fs::read_dir(&dir).expect("read trace dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "fetr") {
            let (store, _) =
                fe_trace::ingest_file(&path, &IngestOptions::default()).expect("ingest recording");
            store
                .write_to(path.with_extension("fets"))
                .expect("write store");
            std::fs::remove_file(&path).expect("remove flat recording");
        }
    }
    let from_stores = sweep(&dir, Some(spec));
    assert_eq!(
        from_recordings, from_stores,
        "sampled sweep over ingested stores must be byte-identical"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Replaying a one-cell run straight from the store (no reconstruction
/// to a flat trace) is bit-identical to flat replay, and the warmup
/// seek decodes only the chunks it lands in — the index skips the
/// rest without decompressing them.
#[test]
fn store_replay_is_bit_identical_and_seek_skips_chunks() {
    let machine = MachineConfig::table3();
    let program = workloads::apache().scaled(0.05).build();
    let trace = Trace::record(&program, SEED, LEN.trace_instrs(&machine));
    let store = TraceStore::from_trace_with(&trace, "integration", 256);
    assert!(store.chunk_count() > 8, "test needs many chunks to skip");

    for scheme in [SchemeSpec::NoPrefetch, SchemeSpec::shotgun()] {
        let flat = run_scheme_replayed(&program, &trace, &scheme, &machine, LEN, SEED);
        let mut sim = Simulator::with_source(
            &program,
            machine.clone(),
            scheme.build(&machine),
            SEED,
            MemorySystem::new(&machine),
            store.replayer(),
        );
        let chunked = sim.run(LEN.warmup, LEN.measure);
        assert!(!sim.source_exhausted(), "store ran dry");
        assert_eq!(flat, chunked, "store replay under {}", scheme.label());
    }

    // Seek deep into the stream: the replayer must decode only the
    // landing chunk, not everything before it.
    let mut replay = store.replayer();
    let total = store.header().instr_count;
    let skipped = replay.skip_instrs(total * 9 / 10);
    assert!(skipped >= total * 9 / 10);
    assert!(
        replay.chunks_decoded() <= 1,
        "seek decoded {} chunks of {} — the index should skip whole chunks",
        replay.chunks_decoded(),
        store.chunk_count(),
    );
    let remaining_records = store.header().block_count - replay.replayed();
    // And the stream after the seek is exactly the flat stream's tail.
    let mut flat = trace.replayer();
    flat.skip_instrs(total * 9 / 10);
    for _ in 0..remaining_records {
        assert_eq!(replay.next_block(), flat.next_block());
    }
    assert_eq!(replay.next_block(), None);
    assert_eq!(flat.next_block(), None);
}
