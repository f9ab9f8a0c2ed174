//! Trace round-trip properties: recording a workload's retired stream
//! and replaying it must be indistinguishable from live execution —
//! identical block streams and identical `SimStats` — and damaged
//! trace files must be rejected with a clean error, never decoded into
//! a silently different stream.

use fe_cfg::{workloads, Executor};
use fe_model::{BlockSource, MachineConfig};
use fe_sim::{run_scheme, run_scheme_replayed, Experiment, RunLength, SchemeSpec};
use fe_trace::Trace;
use proptest::prelude::*;

const LEN: RunLength = RunLength {
    warmup: 15_000,
    measure: 40_000,
};

fn named_workload(index: usize) -> fe_cfg::WorkloadSpec {
    let all = workloads::all();
    all[index % all.len()].clone().scaled(0.04)
}

/// Recomputes a serialized trace's whole-file FNV-1a checksum (bytes
/// 56..64, hashed as zero) after an edit, so the edit gets past the
/// checksum to the decoder.
fn reseal(bytes: &mut [u8]) {
    bytes[56..64].fill(0);
    let checksum = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    bytes[56..64].copy_from_slice(&checksum.to_le_bytes());
}

/// A recording in the trace directory whose payload was damaged under
/// a recomputed checksum, and which fails to decode inside the opening
/// blocks a sweep checks against a live walk, is re-recorded instead of
/// replayed: the sweep does not panic, and its report is a fresh run's.
#[test]
fn resealed_damaged_recording_is_re_recorded() {
    let dir = std::env::temp_dir().join(format!("fe-damaged-trace-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let sweep = || {
        Experiment::new(MachineConfig::table3())
            .workload(workloads::nutch().scaled(0.05))
            .schemes([SchemeSpec::NoPrefetch])
            .len(LEN)
            .seed(7)
            .threads(1)
            .trace_dir(&dir)
            .run()
            .to_json()
    };
    let fresh = sweep();
    let path = dir.join(format!("nutch-{:016x}.fetr", 7));
    let recorded = std::fs::read(&path).expect("the sweep persisted its recording");
    let payload_start = recorded.len() - Trace::from_bytes(&recorded).unwrap().payload_len();
    let mut damaged = recorded.clone();
    damaged[payload_start + 100..payload_start + 120].fill(0xff);
    reseal(&mut damaged);
    let loaded = Trace::from_bytes(&damaged).expect("the damage is under a valid checksum");
    assert!(
        loaded.reader().take(1024).any(|record| record.is_err()),
        "the damage fails to decode within the first 1024 blocks"
    );
    std::fs::write(&path, &damaged).unwrap();

    assert_eq!(sweep(), fresh, "the re-recorded sweep matches a fresh one");
    assert_eq!(
        std::fs::read(&path).unwrap(),
        recorded,
        "the damaged file was replaced by a fresh recording"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_named_workload_replays_identically() {
    let machine = MachineConfig::table3();
    for wl in workloads::all() {
        let name = wl.name.clone();
        let program = wl.scaled(0.04).build();
        let trace = Trace::record(&program, 0x5407, LEN.trace_instrs(&machine));

        // The recorded stream is the live walk, block for block.
        let mut live = Executor::new(&program, 0x5407);
        for rb in trace.reader() {
            assert_eq!(rb.expect("record decodes"), live.next_block(), "{name}");
        }

        // And simulating the replayed stream is bit-identical to
        // simulating live.
        for scheme in [SchemeSpec::NoPrefetch, SchemeSpec::shotgun()] {
            let live = run_scheme(&program, &scheme, &machine, LEN, 0x5407);
            let replayed = run_scheme_replayed(&program, &trace, &scheme, &machine, LEN, 0x5407);
            assert_eq!(live, replayed, "{name} under {}", scheme.label());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn record_replay_is_identity_at_any_seed(
        which in 0usize..6,
        seed in 1u64..1 << 40,
    ) {
        let machine = MachineConfig::table3();
        let program = named_workload(which).build();
        let trace = Trace::record(&program, seed, LEN.trace_instrs(&machine));
        prop_assert!(trace.matches(&program));

        let mut live = Executor::new(&program, seed);
        let mut replay = trace.replayer();
        for _ in 0..trace.header().block_count {
            prop_assert_eq!(replay.next_block(), Some(live.next_block()));
        }

        let spec = SchemeSpec::boomerang();
        let live = run_scheme(&program, &spec, &machine, LEN, seed);
        let replayed = run_scheme_replayed(&program, &trace, &spec, &machine, LEN, seed);
        prop_assert_eq!(live, replayed);
    }

    #[test]
    fn serialized_traces_survive_the_byte_round_trip(
        which in 0usize..6,
        seed in 1u64..1 << 40,
    ) {
        let program = named_workload(which).build();
        let trace = Trace::record(&program, seed, 20_000);
        let back = Trace::from_bytes(&trace.to_bytes()).expect("round trip");
        prop_assert_eq!(&back, &trace);
    }

    #[test]
    fn truncated_traces_are_rejected(cut_seed in 0u64..1 << 32) {
        let program = named_workload(0).build();
        let bytes = Trace::record(&program, 7, 20_000).to_bytes();
        // Any proper prefix must fail to parse — never decode short.
        let cut = (cut_seed as usize) % bytes.len();
        prop_assert!(Trace::from_bytes(&bytes[..cut]).is_err(), "prefix of {cut} bytes parsed");
    }

    #[test]
    fn corrupted_payloads_are_rejected(flip_seed in 0u64..1 << 32, xor in 1u8..=255) {
        let program = named_workload(1).build();
        let trace = Trace::record(&program, 7, 20_000);
        let mut bytes = trace.to_bytes();
        // Flip one payload byte (the payload is the file's tail): the
        // checksum must catch it.
        let payload_start = bytes.len() - trace.payload_len();
        let at = payload_start + (flip_seed as usize) % trace.payload_len();
        bytes[at] ^= xor;
        prop_assert!(
            matches!(Trace::from_bytes(&bytes), Err(fe_trace::TraceError::ChecksumMismatch)),
            "payload flip at {at} not caught"
        );
    }
}
