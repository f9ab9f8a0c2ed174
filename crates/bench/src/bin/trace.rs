#![forbid(unsafe_code)]
//! Control-flow trace tooling: record workload traces as flat v1
//! files (`.fetr`), convert them to chunked v2 stores (`.fets`),
//! inspect and check either, replay a recording through the timing
//! model, and verify replay fidelity against live execution. `usage`
//! lists the commands and flags; `docs/TRACE_FORMAT.md` specifies the
//! byte formats.
//!
//! `record`/`verify` honor the standard `SHOTGUN_SCALE` /
//! `SHOTGUN_WARMUP` / `SHOTGUN_INSTRS` knobs; `replay` reads the same
//! knobs to size its run and refuses traces too short for it. Sweeps
//! pick up both `.fetr` and `.fets` files automatically via
//! `SHOTGUN_TRACE_DIR` (see the repository README).

use std::path::Path;
use std::process::ExitCode;

use fe_bench::{default_len, machine, suite, SEED};
use fe_cfg::{Program, WorkloadSpec};
use fe_model::BranchKind;
use fe_sim::json::Json;
use fe_sim::{run_scheme, run_scheme_replayed, SchemeSpec};
use fe_trace::ingest::detect_format;
use fe_trace::{
    ingest_bytes, ingest_file, IngestOptions, IngestReport, SourceFormat, Trace, TraceError,
    TraceStore,
};

/// Prints every command and flag, for a malformed command line.
fn usage() -> ExitCode {
    eprintln!(
        "usage: trace <command>\n\
         \n\
         commands:\n\
         \x20 record  <workload> [path]   record a trace (default <workload>.fetr)\n\
         \x20 convert <src> [dest]        convert a .fetr or .fets into a verified v2 store\n\
         \x20                             (default dest: <src stem>.fets, never src itself)\n\
         \x20 inspect <path>              .fetr: header and per-kind statistics;\n\
         \x20                             .fets: header and chunk statistics, then an\n\
         \x20                             end-to-end re-check of the store\n\
         \x20 replay  <path> [scheme]     simulate a .fetr (default scheme: shotgun)\n\
         \x20 verify  <workload>          record + replay + live run, compare statistics\n\
         \n\
         convert flags:\n\
         \x20 --name <name>               workload name to record in the store\n\
         \x20 --provenance <text>         origin string stored with the trace\n\
         \x20 --chunk-records <n>         records per chunk (default {})\n\
         \x20 --report <path>             also write the conversion report as JSON\n\
         \n\
         workloads: nutch streaming apache zeus oracle db2\n\
         schemes:   no-prefetch fdip boomerang confluence ideal shotgun",
        fe_trace::DEFAULT_CHUNK_RECORDS,
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

/// Prints a v1 recording's header and per-branch-kind statistics, or
/// a v2 store's header and chunk statistics followed by the same
/// end-to-end check `convert` runs before it writes.
fn cmd_inspect(path: &str) -> ExitCode {
    let inspect = || -> Result<ExitCode, TraceError> {
        let bytes = std::fs::read(path)?;
        Ok(match detect_format(&bytes)? {
            SourceFormat::FetrV1 => inspect_recording(path, &Trace::from_bytes(&bytes)?),
            SourceFormat::FetsV2 => {
                inspect_store(path, &TraceStore::from_bytes(&bytes)?);
                verify_store(path, &bytes)
            }
        })
    };
    inspect().unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        ExitCode::FAILURE
    })
}

fn inspect_recording(path: &str, trace: &Trace) -> ExitCode {
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
        "  program      {} blocks, digest {:#018x}",
        h.fingerprint.blocks, h.fingerprint.digest,
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

fn inspect_store(path: &str, store: &TraceStore) {
    let h = store.header();
    println!("store {path}");
    println!("  workload     {}", h.name);
    if !store.provenance().is_empty() {
        println!("  provenance   {}", store.provenance());
    }
    println!("  seed         {:#x}", h.seed);
    println!("  records      {}", h.block_count);
    println!("  instructions {}", h.instr_count);
    println!(
        "  chunks       {} of up to {} records",
        store.chunk_count(),
        store.chunk_records(),
    );
    let compressed = (0..store.chunk_count())
        .filter(|&c| store.chunk_entry(c).is_some_and(|e| e.compressed))
        .count();
    println!(
        "  payload      {} raw -> {} stored ({:.2}x, {compressed}/{} chunks compressed)",
        store.raw_len(),
        store.stored_len(),
        store.raw_len() as f64 / store.stored_len().max(1) as f64,
        store.chunk_count(),
    );
    println!(
        "  program      {} blocks, digest {:#018x}",
        h.fingerprint.blocks, h.fingerprint.digest,
    );
}

/// Re-ingests a store's bytes, which runs the full replay, seek and
/// reconstruction check on top of the container validation.
fn verify_store(path: &str, bytes: &[u8]) -> ExitCode {
    match ingest_bytes(bytes, &IngestOptions::default()) {
        Ok((_, report)) => {
            println!(
                "{path}: ok — {} records, {} instructions, {} chunks, checksum and \
                 replay round-trip verified",
                report.records, report.instrs, report.chunks,
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{path}: FAILED — {e}");
            ExitCode::FAILURE
        }
    }
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
            "trace workload `{}` is not a named preset",
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

/// The conversion report as a JSON document (the machine-readable twin
/// of the printed report).
fn report_json(report: &IngestReport, dest: &str) -> Json {
    Json::Obj(vec![
        ("name".into(), Json::Str(report.name.clone())),
        ("dest".into(), Json::Str(dest.to_string())),
        (
            "source_format".into(),
            Json::Str(report.format.label().to_string()),
        ),
        ("source_bytes".into(), Json::U64(report.source_bytes)),
        ("store_bytes".into(), Json::U64(report.store_bytes)),
        ("records".into(), Json::U64(report.records)),
        ("instrs".into(), Json::U64(report.instrs)),
        ("chunks".into(), Json::U64(report.chunks)),
        (
            "payload_raw_bytes".into(),
            Json::U64(report.payload_raw_bytes),
        ),
        (
            "payload_stored_bytes".into(),
            Json::U64(report.payload_stored_bytes),
        ),
        (
            "compression_ratio".into(),
            Json::F64(report.payload_raw_bytes as f64 / report.payload_stored_bytes.max(1) as f64),
        ),
        (
            "fingerprint".into(),
            Json::Obj(vec![
                ("blocks".into(), Json::U64(report.fingerprint.blocks)),
                ("digest".into(), Json::U64(report.fingerprint.digest)),
            ]),
        ),
        ("verified".into(), Json::Bool(report.verified)),
    ])
}

fn print_report(report: &IngestReport, dest: &str) {
    println!("ingested `{}` -> {dest}", report.name);
    println!(
        "  source       {} ({} bytes)",
        report.format.label(),
        report.source_bytes
    );
    println!(
        "  store        {} bytes, {} chunks ({} records each at most)",
        report.store_bytes,
        report.chunks,
        report.records.div_ceil(report.chunks.max(1)),
    );
    println!("  records      {}", report.records);
    println!("  instructions {}", report.instrs);
    println!(
        "  payload      {} raw -> {} stored ({:.2}x)",
        report.payload_raw_bytes,
        report.payload_stored_bytes,
        report.payload_raw_bytes as f64 / report.payload_stored_bytes.max(1) as f64,
    );
    println!(
        "  fingerprint  {} blocks, digest {:#018x}",
        report.fingerprint.blocks, report.fingerprint.digest,
    );
    println!("  verified     replay + reconstruction round-trip ok");
}

struct ConvertArgs {
    src: String,
    dest: Option<String>,
    report_path: Option<String>,
    opts: IngestOptions,
}

fn parse_convert(args: &[String]) -> Option<ConvertArgs> {
    let mut positional = Vec::new();
    let mut opts = IngestOptions::default();
    let mut report_path = None;
    let mut i = 0;
    while i < args.len() {
        let take_value = |i: &mut usize| -> Option<String> {
            *i += 1;
            args.get(*i).cloned()
        };
        match args[i].as_str() {
            "--name" => opts.name = Some(take_value(&mut i)?),
            "--provenance" => opts.provenance = take_value(&mut i)?,
            "--chunk-records" => {
                let v = take_value(&mut i)?;
                match v.parse() {
                    Ok(n) => opts.chunk_records = n,
                    Err(_) => {
                        eprintln!("--chunk-records wants a number, got `{v}`");
                        return None;
                    }
                }
            }
            "--report" => report_path = Some(take_value(&mut i)?),
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag `{flag}`");
                return None;
            }
            _ => positional.push(args[i].clone()),
        }
        i += 1;
    }
    if positional.is_empty() || positional.len() > 2 {
        return None;
    }
    let mut positional = positional.into_iter();
    Some(ConvertArgs {
        src: positional.next().expect("checked non-empty"),
        dest: positional.next(),
        report_path,
        opts,
    })
}

/// Where `convert` writes: `dest`, or `<src stem>.fets` in the working
/// directory. `Err` when that is `src` itself: the write replaces the
/// file in place, so a failed one would leave no copy of the trace.
fn convert_dest(src: &str, dest: Option<&str>) -> Result<String, String> {
    let dest = dest.map_or_else(
        || {
            let stem = Path::new(src)
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| "ingested".to_string());
            format!("{stem}.fets")
        },
        str::to_string,
    );
    match (std::fs::canonicalize(src), std::fs::canonicalize(&dest)) {
        (Ok(a), Ok(b)) if a == b => Err(format!(
            "refusing to convert {src} onto itself; name another destination"
        )),
        _ => Ok(dest),
    }
}

fn cmd_convert(args: ConvertArgs) -> ExitCode {
    let dest = match convert_dest(&args.src, args.dest.as_deref()) {
        Ok(dest) => dest,
        Err(why) => {
            eprintln!("{why}");
            return ExitCode::from(2);
        }
    };
    let (store, report) = match ingest_file(&args.src, &args.opts) {
        Ok(done) => done,
        Err(e) => {
            eprintln!("cannot ingest {}: {e}", args.src);
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = store.write_to(&dest) {
        eprintln!("failed to write {dest}: {e}");
        return ExitCode::FAILURE;
    }
    print_report(&report, &dest);
    if let Some(path) = &args.report_path {
        let mut text = report_json(&report, &dest).render();
        text.push('\n');
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = |i: usize| args.get(i).map(String::as_str);
    match (arg(0), arg(1), arg(2)) {
        (Some("record"), Some(workload), path) => {
            let default = format!("{workload}.fetr");
            cmd_record(workload, path.unwrap_or(&default))
        }
        (Some("convert"), _, _) => match parse_convert(&args[1..]) {
            Some(parsed) => cmd_convert(parsed),
            None => usage(),
        },
        (Some("inspect"), Some(path), None) => cmd_inspect(path),
        (Some("replay"), Some(path), scheme) => cmd_replay(path, scheme.unwrap_or("shotgun")),
        (Some("verify"), Some(workload), None) => cmd_verify(workload),
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::convert_dest;

    #[test]
    fn convert_never_writes_onto_its_source() {
        let dir = std::env::temp_dir().join(format!("fe-trace-dest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let src = dir.join("x.fets");
        std::fs::write(&src, b"store").expect("write source");
        let src = src.to_str().expect("UTF-8 temp path");
        let alias = format!("{}/./x.fets", dir.display());

        assert!(convert_dest(src, Some(src)).is_err());
        assert!(
            convert_dest(src, Some(&alias)).is_err(),
            "same file, other spelling"
        );
        let other = format!("{}/y.fets", dir.display());
        assert_eq!(convert_dest(src, Some(&other)), Ok(other.clone()));
        // The default lands in the working directory, named after the
        // source's stem, whatever the source's extension.
        assert_eq!(
            convert_dest("traces/nutch.fetr", None),
            Ok("nutch.fets".into())
        );
        assert_eq!(convert_dest(src, None), Ok("x.fets".into()));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
