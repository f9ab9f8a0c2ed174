#![forbid(unsafe_code)]
//! Simulator throughput harness: host-side simulated-MIPS per
//! (scheme × workload) across the engine's run modes, emitted as
//! `BENCH_perf.json` — the tracked perf trajectory of the hot loop and
//! the number the CI perf gate enforces.
//!
//! ```sh
//! cargo run --release -p fe-bench --bin perf
//! ```
//!
//! Modes measured per cell:
//!
//! * `full` — live execution: the executor walk feeds the cycle-level
//!   pipeline directly.
//! * `replay` — trace-driven: the same stream decoded from an
//!   `fe-trace` recording (recorded once per workload, untimed), one
//!   cell at a time — how every full-detail sweep cell runs.
//! * `sampled` — interval sampling with functional warming over the
//!   recorded trace (the paper-scale mode). Its MIPS counts *covered*
//!   instructions — skip + warm + detail — which is precisely why
//!   sampling exists.
//! * `batch-sampled` — the batch engine in sampled mode: the
//!   workload's cells share one initial functional warm. Per-cell
//!   numbers are *effective* MIPS (the group's wall clock split evenly
//!   across its cells), so the column is directly comparable to the
//!   one-cell `sampled` column for the same cell.
//!
//! Wall-clock numbers live only in `BENCH_perf.json`. Deterministic
//! sweep reports (`BENCH_fig*.json`, the pinned engine fixture) carry
//! no timing fields, so this harness can run anywhere without
//! perturbing byte-identical report diffs. As a self-check, the harness
//! asserts that `full` and `replay` produce bit-identical statistics
//! (and `sampled` vs `batch-sampled` likewise).
//!
//! Knobs beyond the standard set (`SHOTGUN_INSTRS`/`_WARMUP`/`_SCALE`,
//! `SHOTGUN_JSON_DIR`, `SHOTGUN_SAMPLING*`):
//!
//! * `SHOTGUN_PERF_MIN_MIPS=<x>` — exit non-zero when the gated MIPS
//!   pool falls below `x` (the CI regression floor). The gate prefers
//!   the `replay` pool — the throughput full-detail sweeps actually run
//!   at — and falls back to `full`, then to the first enabled mode.
//! * `SHOTGUN_PERF_MODES=full,replay,sampled,batch-sampled` — subset
//!   of modes to run.

use std::time::Instant;

use fe_bench::{banner, default_len, env_f64, machine, suite, SEED};
use fe_cfg::WorkloadSpec;
use fe_model::SimStats;
use fe_sim::json::Json;
use fe_sim::{
    run_scheme, run_scheme_replayed, run_scheme_sampled_replayed,
    run_schemes_batch_sampled_replayed, RunLength, SampledStats, SamplingSpec, SchemeSpec,
};
use fe_trace::Trace;

/// One measured (workload, scheme, mode) cell.
struct PerfCell {
    workload: String,
    scheme: String,
    mode: &'static str,
    /// Simulated instructions covered (warmup + measure).
    instructions: u64,
    wall_ms: f64,
    mips: f64,
}

fn schemes() -> Vec<SchemeSpec> {
    vec![
        SchemeSpec::NoPrefetch,
        SchemeSpec::boomerang(),
        SchemeSpec::shotgun(),
    ]
}

const ALL_MODES: [&str; 4] = ["full", "replay", "sampled", "batch-sampled"];

fn enabled_modes() -> Vec<String> {
    std::env::var("SHOTGUN_PERF_MODES")
        .unwrap_or_else(|_| ALL_MODES.join(","))
        .split(',')
        .map(|m| m.trim().to_string())
        .filter(|m| !m.is_empty())
        .collect()
}

/// Interns a validated mode string to the `&'static str` cells carry.
fn static_mode(mode: &str) -> &'static str {
    ALL_MODES
        .iter()
        .find(|m| **m == mode)
        .expect("modes validated at startup")
}

fn main() {
    banner(
        "Perf",
        "simulator throughput (simulated MIPS) per scheme x workload x mode",
    );
    let machine = machine();
    let len = default_len();
    let sampling = SamplingSpec::DEFAULT.from_env();
    if let Err(e) = sampling.validate() {
        eprintln!("invalid sampling spec: {e}");
        std::process::exit(2);
    }
    let modes = enabled_modes();
    if modes.is_empty() {
        eprintln!("SHOTGUN_PERF_MODES selects no modes — nothing to measure");
        std::process::exit(2);
    }
    for mode in &modes {
        if !ALL_MODES.contains(&mode.as_str()) {
            eprintln!("unknown mode `{mode}` in SHOTGUN_PERF_MODES");
            std::process::exit(2);
        }
    }
    let has = |m: &str| modes.iter().any(|x| x == m);
    let covered = len.warmup + len.measure;
    let workloads: Vec<WorkloadSpec> = suite();
    let specs = schemes();

    let mut cells: Vec<PerfCell> = Vec::new();
    for wl in &workloads {
        let program = wl.build();
        // Record once (untimed): every trace-driven mode shares it.
        let trace = (modes.iter().any(|m| m != "full"))
            .then(|| Trace::record(&program, SEED, len.trace_instrs(&machine)));
        let mut sampled_stats: Vec<Option<SampledStats>> = vec![None; specs.len()];
        for (si, spec) in specs.iter().enumerate() {
            let mut full_stats: Option<SimStats> = None;
            let mut replay_stats: Option<SimStats> = None;
            for mode in &modes {
                let t0 = Instant::now();
                match mode.as_str() {
                    "full" => {
                        full_stats = Some(run_scheme(&program, spec, &machine, len, SEED));
                    }
                    "replay" => {
                        replay_stats = Some(run_scheme_replayed(
                            &program,
                            trace.as_ref().expect("trace recorded"),
                            spec,
                            &machine,
                            len,
                            SEED,
                        ));
                    }
                    "sampled" => {
                        // Sampling needs room for at least one detail
                        // window; skip the mode on tiny smoke lengths.
                        if len.measure < sampling.detail {
                            continue;
                        }
                        sampled_stats[si] = Some(run_scheme_sampled_replayed(
                            &program,
                            trace.as_ref().expect("trace recorded"),
                            spec,
                            &machine,
                            len,
                            sampling,
                            SEED,
                        ));
                    }
                    // The batch mode runs once per workload group, below.
                    _ => continue,
                }
                let wall = t0.elapsed().as_secs_f64();
                push_cell(
                    &mut cells,
                    wl.name.clone(),
                    spec.label(),
                    static_mode(mode),
                    covered,
                    wall,
                );
            }
            // Self-check: replay must be bit-identical to live
            // execution whenever both modes ran, whatever their order
            // in SHOTGUN_PERF_MODES (wall-clock differs, stats must
            // not).
            if let (Some(full), Some(replay)) = (&full_stats, &replay_stats) {
                assert_eq!(
                    replay,
                    full,
                    "replay diverged from live execution on ({}, {})",
                    wl.name,
                    spec.label(),
                );
            }
        }
        // The batch engine shares one initial warm across the group;
        // wall clock covers the whole group, so each cell is charged an
        // even share.
        if has("batch-sampled") && len.measure >= sampling.detail {
            let trace = trace.as_ref().expect("trace recorded");
            let t0 = Instant::now();
            let stats = run_schemes_batch_sampled_replayed(
                &program, trace, &specs, &machine, len, sampling, SEED,
            );
            let wall = t0.elapsed().as_secs_f64() / specs.len() as f64;
            for (si, spec) in specs.iter().enumerate() {
                if let Some(sampled) = &sampled_stats[si] {
                    assert_eq!(
                        &stats[si],
                        sampled,
                        "batch-sampled diverged from one-cell sampled on ({}, {})",
                        wl.name,
                        spec.label(),
                    );
                }
                push_cell(
                    &mut cells,
                    wl.name.clone(),
                    spec.label(),
                    "batch-sampled",
                    covered,
                    wall,
                );
            }
        }
    }

    // Per-mode summary table.
    println!(
        "\n{:14} {:>14} {:>12} {:>10}",
        "mode", "instructions", "wall ms", "MIPS"
    );
    for mode in ALL_MODES {
        if let Some(pool) = pool_mode(&cells, mode) {
            println!(
                "{:14} {:>14} {:>12.1} {:>10.2}",
                mode, pool.instructions, pool.wall_ms, pool.mips
            );
        }
    }
    if let Some(s) = speedup(&cells, "batch-sampled", "sampled") {
        println!("\nbatch-sampled speedup over one-cell sampled: {s:.2}x");
    }

    write_perf_json(&cells, len, sampling, &modes);

    // The CI regression floor. Gate on the replay pool when it was
    // measured — full-detail sweep cells replay their trace one cell at
    // a time, so that is the throughput that matters — falling back to
    // live full detail, then to the first enabled mode alone. Pooling
    // sampled covered-MIPS with timed modes would inflate the gated
    // number far past any useful floor, hence a single-mode gate.
    let (gate_mode, gate_mips) = if let Some(pool) = pool_mode(&cells, "replay") {
        ("replay", Some(pool.mips))
    } else if let Some(pool) = pool_mode(&cells, "full") {
        ("full", Some(pool.mips))
    } else {
        let first = modes.first().map(String::as_str).unwrap_or("full");
        (first, pool_mode(&cells, first).map(|p| p.mips))
    };
    let min_mips = env_f64("SHOTGUN_PERF_MIN_MIPS", 0.0);
    if min_mips > 0.0 {
        let Some(gate_mips) = gate_mips else {
            // A floor was requested but nothing was measured (e.g. the
            // run length was too short for even one sampled window) —
            // passing silently would defeat the gate.
            eprintln!("PERF GATE FAILED: no `{gate_mode}` cells were measured");
            std::process::exit(1);
        };
        if gate_mips < min_mips {
            eprintln!(
                "PERF GATE FAILED: {gate_mips:.2} {gate_mode} MIPS < floor {min_mips:.2} \
                 (override via SHOTGUN_PERF_MIN_MIPS)"
            );
            std::process::exit(1);
        }
        println!("\nperf gate: {gate_mips:.2} {gate_mode} MIPS >= floor {min_mips:.2} — ok");
    }
}

/// Records and prints one measured cell.
fn push_cell(
    cells: &mut Vec<PerfCell>,
    workload: String,
    scheme: String,
    mode: &'static str,
    instructions: u64,
    wall: f64,
) {
    let cell = PerfCell {
        workload,
        scheme,
        mode,
        instructions,
        wall_ms: wall * 1e3,
        mips: instructions as f64 / wall / 1e6,
    };
    eprintln!(
        "[{:>13}] {:12} {:12} {:9.1} ms  {:7.2} MIPS",
        cell.mode, cell.workload, cell.scheme, cell.wall_ms, cell.mips,
    );
    cells.push(cell);
}

/// Pooled totals for one mode's cells — the single aggregation the
/// summary table, the CI gate, and the JSON summary fields all share
/// (so they cannot drift apart).
struct ModePool {
    instructions: u64,
    wall_ms: f64,
    mips: f64,
}

fn pool_mode(cells: &[PerfCell], mode: &str) -> Option<ModePool> {
    let in_mode: Vec<&PerfCell> = cells.iter().filter(|c| c.mode == mode).collect();
    if in_mode.is_empty() {
        return None;
    }
    let instructions: u64 = in_mode.iter().map(|c| c.instructions).sum();
    let wall_ms: f64 = in_mode.iter().map(|c| c.wall_ms).sum();
    Some(ModePool {
        instructions,
        wall_ms,
        mips: instructions as f64 / (wall_ms / 1e3) / 1e6,
    })
}

/// Pooled-MIPS ratio of `fast` over `slow`, when both modes ran.
fn speedup(cells: &[PerfCell], fast: &str, slow: &str) -> Option<f64> {
    match (pool_mode(cells, fast), pool_mode(cells, slow)) {
        (Some(f), Some(s)) => Some(f.mips / s.mips),
        _ => None,
    }
}

/// Emits `BENCH_perf.json` under `SHOTGUN_JSON_DIR`. All wall-clock
/// fields live here and only here — deterministic sweep reports carry
/// no timing.
fn write_perf_json(cells: &[PerfCell], len: RunLength, sampling: SamplingSpec, modes: &[String]) {
    let Ok(dir) = std::env::var("SHOTGUN_JSON_DIR") else {
        return;
    };
    let run = Json::Obj(vec![
        ("warmup".into(), Json::U64(len.warmup)),
        ("measure".into(), Json::U64(len.measure)),
        ("seed".into(), Json::U64(SEED)),
        ("scale".into(), Json::F64(env_f64("SHOTGUN_SCALE", 1.0))),
        (
            "modes".into(),
            Json::Arr(modes.iter().map(|m| Json::Str(m.clone())).collect()),
        ),
        (
            "sampling".into(),
            Json::Obj(vec![
                ("interval".into(), Json::U64(sampling.interval)),
                ("detail".into(), Json::U64(sampling.detail)),
                ("warmup".into(), Json::U64(sampling.warmup)),
            ]),
        ),
    ]);
    let cell_json = Json::Arr(
        cells
            .iter()
            .map(|c| {
                Json::Obj(vec![
                    ("workload".into(), Json::Str(c.workload.clone())),
                    ("scheme".into(), Json::Str(c.scheme.clone())),
                    ("mode".into(), Json::Str(c.mode.into())),
                    ("instructions".into(), Json::U64(c.instructions)),
                    ("wall_ms".into(), Json::F64(c.wall_ms)),
                    ("mips".into(), Json::F64(c.mips)),
                ])
            })
            .collect(),
    );
    let total_instrs: u64 = cells.iter().map(|c| c.instructions).sum();
    let total_wall_ms: f64 = cells.iter().map(|c| c.wall_ms).sum();
    let mode_mips = |mode: &str| pool_mode(cells, mode).map_or(Json::Null, |p| Json::F64(p.mips));
    let ratio = |fast: &str, slow: &str| speedup(cells, fast, slow).map_or(Json::Null, Json::F64);
    let min_cell = cells.iter().map(|c| c.mips).fold(f64::INFINITY, f64::min);
    let summary = Json::Obj(vec![
        ("total_instructions".into(), Json::U64(total_instrs)),
        ("total_wall_ms".into(), Json::F64(total_wall_ms)),
        (
            "overall_mips".into(),
            Json::F64(total_instrs as f64 / (total_wall_ms / 1e3) / 1e6),
        ),
        ("full_mips".into(), mode_mips("full")),
        // What the shared initial warm adds over one-cell sampled runs.
        // CI asserts a floor on this field.
        (
            "batch_sampled_speedup".into(),
            ratio("batch-sampled", "sampled"),
        ),
        (
            "min_cell_mips".into(),
            if min_cell.is_finite() {
                Json::F64(min_cell)
            } else {
                Json::Null
            },
        ),
    ]);
    let doc = Json::Obj(vec![
        ("run".into(), run),
        ("cells".into(), cell_json),
        ("summary".into(), summary),
    ]);
    let path = std::path::Path::new(&dir).join("BENCH_perf.json");
    // Warn-and-continue on write failure, like every other binary's
    // report emission — the CI smoke separately asserts the file
    // exists, so a broken artifact dir still fails the build there.
    match std::fs::write(&path, doc.render()) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }
}
