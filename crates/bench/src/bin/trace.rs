#![forbid(unsafe_code)]
//! Control-flow trace tooling: record workload traces, inspect trace
//! files, replay them through the timing model, and verify replay
//! fidelity against live execution.
//!
//! ```sh
//! cargo run --release -p fe-bench --bin trace -- record nutch nutch.fetr
//! cargo run --release -p fe-bench --bin trace -- inspect nutch.fetr
//! cargo run --release -p fe-bench --bin trace -- replay nutch.fetr shotgun
//! cargo run --release -p fe-bench --bin trace -- verify nutch
//! ```
//!
//! `record`/`verify` honor the standard `SHOTGUN_SCALE` /
//! `SHOTGUN_WARMUP` / `SHOTGUN_INSTRS` knobs; `replay` reads the same
//! knobs to size its run and refuses traces too short for it. Sweeps
//! pick traces up automatically via `SHOTGUN_TRACE_DIR` (see the
//! repository README).

use std::process::ExitCode;

use fe_bench::{default_len, machine, suite, SEED};
use fe_cfg::{Program, WorkloadSpec};
use fe_model::BranchKind;
use fe_sim::{run_scheme, run_scheme_replayed, SchemeSpec};
use fe_trace::Trace;

fn usage() -> ExitCode {
    eprintln!(
        "usage: trace <command>\n\
         \n\
         commands:\n\
         \x20 record  <workload> [path]   record a trace (default <workload>.fetr)\n\
         \x20 inspect <path>              print header and per-kind statistics\n\
         \x20 replay  <path> [scheme]     simulate the trace (default scheme: shotgun)\n\
         \x20 verify  <workload>          record + replay + live run, compare statistics\n\
         \n\
         workloads: nutch streaming apache zeus oracle db2\n\
         schemes:   no-prefetch fdip boomerang confluence ideal shotgun"
    );
    ExitCode::from(2)
}

/// The named preset at the sweep scale — `suite()` applies
/// `SHOTGUN_SCALE` exactly as `figures` does, so recorded
/// traces fingerprint-match the programs the sweeps build.
fn preset(name: &str) -> Option<WorkloadSpec> {
    suite().into_iter().find(|w| w.name == name)
}

fn scheme_by_label(label: &str) -> Option<SchemeSpec> {
    [
        SchemeSpec::NoPrefetch,
        SchemeSpec::Fdip,
        SchemeSpec::boomerang(),
        SchemeSpec::Confluence,
        SchemeSpec::Ideal,
        SchemeSpec::shotgun(),
    ]
    .into_iter()
    .find(|s| s.label() == label)
}

fn record_trace(program: &Program) -> Trace {
    let needed = default_len().trace_instrs(&machine());
    Trace::record(program, SEED, needed)
}

fn cmd_record(workload: &str, path: &str) -> ExitCode {
    let Some(spec) = preset(workload) else {
        eprintln!("unknown workload `{workload}`");
        return ExitCode::from(2);
    };
    let program = spec.build();
    let trace = record_trace(&program);
    if let Err(e) = trace.write_to(path) {
        eprintln!("failed to write {path}: {e}");
        return ExitCode::FAILURE;
    }
    let h = trace.header();
    println!(
        "recorded {path}: {} blocks, {} instructions, {} bytes ({:.2} B/instr)",
        h.block_count,
        h.instr_count,
        trace.payload_len(),
        trace.payload_len() as f64 / h.instr_count as f64,
    );
    ExitCode::SUCCESS
}

fn cmd_inspect(path: &str) -> ExitCode {
    let trace = match Trace::read_from(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let h = trace.header();
    println!("trace {path}");
    println!("  workload     {}", h.name);
    println!("  seed         {:#x}", h.seed);
    println!("  blocks       {}", h.block_count);
    println!("  instructions {}", h.instr_count);
    println!(
        "  payload      {} bytes ({:.2} B/block, {:.2} B/instr)",
        trace.payload_len(),
        trace.payload_len() as f64 / h.block_count as f64,
        trace.payload_len() as f64 / h.instr_count as f64,
    );
    println!(
        "  program      {} blocks, digest {:#018x}{}",
        h.fingerprint.blocks,
        h.fingerprint.digest,
        if h.fingerprint.is_unknown() {
            " (unknown origin — imported)"
        } else {
            ""
        },
    );
    let mut counts = [0u64; BranchKind::ALL.len()];
    let mut taken = [0u64; BranchKind::ALL.len()];
    for rb in trace.reader() {
        let rb = match rb {
            Ok(rb) => rb,
            Err(e) => {
                eprintln!("payload decode failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let i = BranchKind::ALL
            .iter()
            .position(|k| *k == rb.block.kind)
            .expect("ALL covers every kind");
        counts[i] += 1;
        taken[i] += rb.taken as u64;
    }
    println!("  {:12} {:>12} {:>8}", "branch kind", "blocks", "taken");
    for (i, kind) in BranchKind::ALL.iter().enumerate() {
        if counts[i] > 0 {
            println!(
                "  {:12} {:>12} {:>7.1}%",
                format!("{kind:?}"),
                counts[i],
                100.0 * taken[i] as f64 / counts[i] as f64,
            );
        }
    }
    ExitCode::SUCCESS
}

fn cmd_replay(path: &str, scheme_label: &str) -> ExitCode {
    let trace = match Trace::read_from(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(spec) = preset(&trace.header().name) else {
        eprintln!(
            "trace workload `{}` is not a named preset (imported traces \
             cannot be replayed yet: no program image)",
            trace.header().name,
        );
        return ExitCode::FAILURE;
    };
    let Some(scheme) = scheme_by_label(scheme_label) else {
        eprintln!("unknown scheme `{scheme_label}`");
        return ExitCode::from(2);
    };
    let program = spec.build();
    if !trace.matches(&program) {
        eprintln!(
            "trace {path} was recorded against a different build of `{}` \
             (check SHOTGUN_SCALE); re-record it",
            trace.header().name,
        );
        return ExitCode::FAILURE;
    }
    let machine = machine();
    let len = default_len();
    let needed = len.trace_instrs(&machine);
    if trace.header().instr_count < needed {
        eprintln!(
            "trace holds {} instructions but this run needs {needed} \
             (lower SHOTGUN_INSTRS/SHOTGUN_WARMUP or re-record)",
            trace.header().instr_count,
        );
        return ExitCode::FAILURE;
    }
    let stats = run_scheme_replayed(&program, &trace, &scheme, &machine, len, SEED);
    println!(
        "replayed {} under {}: IPC {:.3}, L1-I MPKI {:.2}, BTB MPKI {:.2}, \
         misfetches {}, cycles {}",
        trace.header().name,
        scheme_label,
        stats.ipc(),
        stats.l1i_mpki(),
        stats.btb_mpki(),
        stats.misfetches,
        stats.cycles,
    );
    ExitCode::SUCCESS
}

fn cmd_verify(workload: &str) -> ExitCode {
    let Some(spec) = preset(workload) else {
        eprintln!("unknown workload `{workload}`");
        return ExitCode::from(2);
    };
    let program = spec.build();
    let machine = machine();
    let len = default_len();
    let trace = record_trace(&program);
    println!(
        "recorded {}: {} blocks, {} instructions",
        workload,
        trace.header().block_count,
        trace.header().instr_count,
    );
    let mut ok = true;
    for scheme in [SchemeSpec::NoPrefetch, SchemeSpec::shotgun()] {
        let live = run_scheme(&program, &scheme, &machine, len, SEED);
        let replayed = run_scheme_replayed(&program, &trace, &scheme, &machine, len, SEED);
        let verdict = if live == replayed { "ok" } else { "MISMATCH" };
        ok &= live == replayed;
        println!(
            "  {:12} live IPC {:.4} | replay IPC {:.4} | {verdict}",
            scheme.label(),
            live.ipc(),
            replayed.ipc(),
        );
        if live != replayed {
            eprintln!("    live:   {live:?}");
            eprintln!("    replay: {replayed:?}");
        }
    }
    if ok {
        println!("replay is bit-identical to live execution");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = |i: usize| args.get(i).map(String::as_str);
    match (arg(0), arg(1), arg(2)) {
        (Some("record"), Some(workload), path) => {
            let default = format!("{workload}.fetr");
            cmd_record(workload, path.unwrap_or(&default))
        }
        (Some("inspect"), Some(path), None) => cmd_inspect(path),
        (Some("replay"), Some(path), scheme) => cmd_replay(path, scheme.unwrap_or("shotgun")),
        (Some("verify"), Some(workload), None) => cmd_verify(workload),
        _ => usage(),
    }
}
