#![forbid(unsafe_code)]
//! Consolidation experiment: what happens to each workload when the
//! paper's server suite shares a chip instead of owning it.
//!
//! Runs every member of a mix twice per scheme — solo (private memory
//! system) and consolidated (all contexts round-robin over one shared
//! LLC/NoC via `MultiSimulator`) — and reports per-context speedup,
//! consolidation slowdown, and the L1-I / LLC interference the shared
//! hierarchy adds (miss MPKI deltas, cross-context LLC evictions, NoC
//! queue wait).
//!
//! ```sh
//! cargo run --release -p fe-bench --bin consolidation
//! SHOTGUN_MIX=oracle+oracle cargo run --release -p fe-bench --bin consolidation
//! ```
//!
//! Environment: `SHOTGUN_MIX` (default `apache+db2`; `+`-separated
//! preset names; an unknown name exits 2) and `SHOTGUN_LLC_KIB`
//! (per-tile LLC KiB override — shrink it to study capacity
//! contention; the Table 3 8 MB LLC holds the suite's code footprints
//! comfortably), plus the standard
//! `SHOTGUN_SCALE` / `SHOTGUN_WARMUP` / `SHOTGUN_INSTRS` /
//! `SHOTGUN_JSON_DIR` knobs.

use fe_bench::{banner, default_len, knobs, machine, SEED};
use fe_cfg::Program;
use fe_model::stats::geometric_mean;
use fe_model::{MachineConfig, SimStats};
use fe_sim::json::Json;
use fe_sim::{derive_ctx_seed, MultiSimulator, SchemeSpec, Simulator};
use fe_uarch::MemStats;

/// One (context, scheme) measurement in one deployment shape.
struct Cell {
    stats: SimStats,
    mem: MemStats,
}

fn run_solo(machine: &MachineConfig, program: &Program, spec: &SchemeSpec, ctx: u32) -> Cell {
    let len = default_len();
    let mut sim = Simulator::new(
        program,
        machine.clone(),
        spec.build(machine),
        derive_ctx_seed(SEED, ctx),
    );
    let stats = sim.run(len.warmup, len.measure);
    Cell {
        stats,
        mem: sim.mem_stats(),
    }
}

fn run_consolidated(
    machine: &MachineConfig,
    programs: &[&Program],
    spec: &SchemeSpec,
) -> Vec<Cell> {
    let len = default_len();
    let members = programs.iter().map(|p| (*p, spec.build(machine))).collect();
    MultiSimulator::new(machine, members, SEED)
        .run(len.warmup, len.measure)
        .contexts
        .into_iter()
        .map(|ctx| Cell {
            stats: ctx.stats,
            mem: ctx.mem,
        })
        .collect()
}

fn mpki(stats: &SimStats, misses: u64) -> f64 {
    stats.mpki(misses)
}

fn main() {
    let mix = knobs::mix();
    let scale = knobs::scale();
    let mix = if (scale - 1.0).abs() < 1e-9 {
        mix
    } else {
        mix.scaled(scale)
    };
    banner(
        "Consolidation",
        &format!("per-context interference for the `{}` mix", mix.name),
    );

    let mut machine = machine();
    if let Some(kib) = knobs::var("SHOTGUN_LLC_KIB") {
        machine.llc.kib_per_core = kib;
        println!(
            "    LLC override: {} KiB/tile ({} KiB total)\n",
            kib,
            machine.llc_total_kib()
        );
    }

    let schemes = [SchemeSpec::NoPrefetch, SchemeSpec::shotgun()];
    // Build each distinct member once (homogeneous mixes share a build).
    let mut built: Vec<(String, Program)> = Vec::new();
    for member in &mix.members {
        if !built.iter().any(|(name, _)| *name == member.name) {
            built.push((member.name.clone(), member.build()));
        }
    }
    let programs: Vec<&Program> = mix
        .members
        .iter()
        .map(|m| {
            &built
                .iter()
                .find(|(name, _)| *name == m.name)
                .expect("built above")
                .1
        })
        .collect();

    // scheme -> (per-context solo cells, per-context consolidated cells)
    let mut measured: Vec<(String, Vec<Cell>, Vec<Cell>)> = Vec::new();
    for spec in &schemes {
        let solo: Vec<Cell> = programs
            .iter()
            .enumerate()
            .map(|(i, p)| run_solo(&machine, p, spec, i as u32))
            .collect();
        let consolidated = run_consolidated(&machine, &programs, spec);
        measured.push((spec.label(), solo, consolidated));
    }

    let mut json_schemes = Vec::new();
    for (label, solo, consolidated) in &measured {
        println!("--- scheme: {label}");
        println!(
            "{:<24} {:>9} {:>9} {:>9} {:>12} {:>12} {:>12} {:>10}",
            "context",
            "solo IPC",
            "cons IPC",
            "slowdown",
            "L1I MPKI Δ",
            "LLC MPKI Δ",
            "x-evict/KI",
            "q-wait/msg"
        );
        let mut json_ctxs = Vec::new();
        for (i, (s, c)) in solo.iter().zip(consolidated).enumerate() {
            let slowdown = if c.stats.ipc() > 0.0 {
                s.stats.ipc() / c.stats.ipc()
            } else {
                0.0
            };
            let l1i_delta = mpki(&c.stats, c.stats.l1i_misses) - mpki(&s.stats, s.stats.l1i_misses);
            let llc_delta =
                mpki(&c.stats, c.mem.instr_llc_misses) - mpki(&s.stats, s.mem.instr_llc_misses);
            let xevict_ki = mpki(&c.stats, c.mem.cross_evictions);
            let qwait = if c.mem.messages > 0 {
                c.mem.queue_wait as f64 / c.mem.messages as f64
            } else {
                0.0
            };
            println!(
                "{:<24} {:>9.3} {:>9.3} {:>9.3} {:>12.3} {:>12.3} {:>12.3} {:>10.2}",
                mix.member_id(i),
                s.stats.ipc(),
                c.stats.ipc(),
                slowdown,
                l1i_delta,
                llc_delta,
                xevict_ki,
                qwait
            );
            json_ctxs.push(Json::Obj(vec![
                ("context".into(), Json::Str(mix.member_id(i))),
                ("solo_ipc".into(), Json::F64(s.stats.ipc())),
                ("consolidated_ipc".into(), Json::F64(c.stats.ipc())),
                ("slowdown".into(), Json::F64(slowdown)),
                ("l1i_mpki_solo".into(), Json::F64(s.stats.l1i_mpki())),
                (
                    "l1i_mpki_consolidated".into(),
                    Json::F64(c.stats.l1i_mpki()),
                ),
                (
                    "llc_instr_mpki_solo".into(),
                    Json::F64(mpki(&s.stats, s.mem.instr_llc_misses)),
                ),
                (
                    "llc_instr_mpki_consolidated".into(),
                    Json::F64(mpki(&c.stats, c.mem.instr_llc_misses)),
                ),
                ("cross_evictions".into(), Json::U64(c.mem.cross_evictions)),
                ("queue_wait_per_msg".into(), Json::F64(qwait)),
            ]));
        }
        json_schemes.push((label.clone(), Json::Arr(json_ctxs)));
        println!();
    }

    // Scheme speedups *within* the consolidated deployment: shotgun
    // over no-prefetch, per context — prefetching matters at least as
    // much when the hierarchy is contended.
    let (_, _, base_cons) = &measured[0];
    let (_, _, sg_cons) = &measured[1];
    let speedups: Vec<f64> = base_cons
        .iter()
        .zip(sg_cons)
        .map(|(b, s)| {
            if b.stats.ipc() > 0.0 {
                s.stats.ipc() / b.stats.ipc()
            } else {
                0.0
            }
        })
        .collect();
    for (i, sp) in speedups.iter().enumerate() {
        println!(
            "consolidated speedup (shotgun / no-prefetch) {:<24} {:.3}",
            mix.member_id(i),
            sp
        );
    }
    println!(
        "geomean consolidated shotgun speedup: {:.3}",
        geometric_mean(&speedups)
    );
    println!(
        "\npaper context: §5.1 runs the suite per-core homogeneous; consolidation \
         shares the LLC/NoC across heterogeneous contexts, so prefetch traffic \
         and code working sets now interfere — the deltas above quantify it."
    );

    let len = default_len();
    let doc = Json::Obj(vec![
        ("mix".into(), Json::Str(mix.name.clone())),
        ("seed".into(), Json::U64(SEED)),
        ("warmup".into(), Json::U64(len.warmup)),
        ("measure".into(), Json::U64(len.measure)),
        (
            "schemes".into(),
            Json::Obj(json_schemes.into_iter().collect()),
        ),
        (
            "consolidated_speedups".into(),
            Json::Arr(speedups.iter().map(|s| Json::F64(*s)).collect()),
        ),
    ]);
    knobs::write_bench_json("consolidation", &doc.render());
}
