#![forbid(unsafe_code)]
//! Sampled vs full-detail comparison: runs a fig1-style sweep twice —
//! once cycle-accurate, once under interval sampling with functional
//! warming — and reports per-cell error and the wall-clock speedup.
//!
//! ```sh
//! cargo run --release -p fe-bench --bin sampling
//! ```
//!
//! Knobs beyond the standard set: `SHOTGUN_SAMPLING=interval[:detail[:warmup]]`
//! (or `SHOTGUN_SAMPLING_INTERVAL` / `_DETAIL` / `_WARMUP`) shape the
//! sampling; `SHOTGUN_SAMPLING_CHECK=1` exits non-zero when any cell
//! violates the documented error bounds — fe-stall PKI within
//! max(10% relative, 0.5 absolute, the cell's 95% CI) and IPC within
//! 5% of full detail — or measures fewer than two intervals;
//! `SHOTGUN_SAMPLING_MIN_SPEEDUP=<x>` additionally enforces a
//! wall-clock speedup floor.

use std::time::Instant;

use fe_bench::figures::{metric_table, Session};
use fe_bench::{banner, default_len, knobs, machine, suite, WORKLOAD_ORDER};
use fe_sim::{SamplingSpec, SchemeSpec, SweepReport};
use fe_trace::Trace;

const SCHEMES: [&str; 3] = ["no-prefetch", "boomerang", "shotgun"];

fn sweep(sampling: Option<SamplingSpec>, trace_dir: &std::path::Path) -> SweepReport {
    let mut exp = Session::from_env()
        .experiment(&suite())
        .trace_dir(trace_dir);
    if let Some(spec) = sampling {
        exp = exp.sampling(spec);
    }
    exp.schemes([
        SchemeSpec::NoPrefetch,
        SchemeSpec::boomerang(),
        SchemeSpec::shotgun(),
    ])
    .run()
}

fn main() {
    // Fail fast on a malformed knob or sampling shape — before either
    // multi-minute sweep runs (and before the banner's arithmetic).
    let spec = knobs::sampling();
    let min_speedup = knobs::var("SHOTGUN_SAMPLING_MIN_SPEEDUP").unwrap_or(0.0);
    let check = knobs::var::<u8>("SHOTGUN_SAMPLING_CHECK") == Some(1);
    banner(
        "Sampling",
        "sampled (functional warming) vs full-detail error and speedup",
    );
    println!(
        "    sampling: interval {}K = {}K skipped + {}K warmed + {}K timed ({:.0}% timed)\n",
        spec.interval / 1000,
        (spec.interval - spec.detail - spec.warmup) / 1000,
        spec.warmup / 1000,
        spec.detail / 1000,
        spec.timed_fraction() * 100.0,
    );

    // Record every workload's trace up front so neither timed sweep
    // pays the executor walk — the comparison is simulation time only.
    // An explicit SHOTGUN_TRACE_DIR is honored (and its recordings
    // kept for reuse, as everywhere else); otherwise a per-process
    // temp dir is used and cleaned up. (File name convention matches
    // the Experiment trace cache.)
    let (trace_dir, ephemeral) = match knobs::trace_dir() {
        Some(dir) => (dir, false),
        None => (
            std::env::temp_dir().join(format!("shotgun-sampling-{}", std::process::id())),
            true,
        ),
    };
    std::fs::create_dir_all(&trace_dir).expect("create trace dir");
    let len = default_len();
    let needed = len.trace_instrs(&machine());
    for wl in suite() {
        let program = wl.build();
        let path = trace_dir.join(format!("{}-{:016x}.fetr", program.name(), fe_bench::SEED));
        // Reuse a long-enough compatible recording (Experiment
        // re-validates seed/fingerprint/length and re-records if the
        // file is unusable).
        if let Ok(existing) = Trace::read_from(&path) {
            if existing.header().instr_count >= needed && existing.matches(&program) {
                continue;
            }
        }
        Trace::record(&program, fe_bench::SEED, needed)
            .write_to(&path)
            .expect("persist trace");
    }

    let t = Instant::now();
    let full = sweep(None, &trace_dir);
    let full_wall = t.elapsed();
    let t = Instant::now();
    let sampled = sweep(Some(spec), &trace_dir);
    let sampled_wall = t.elapsed();
    if ephemeral {
        let _ = std::fs::remove_dir_all(&trace_dir);
    }

    print!(
        "{}",
        metric_table(
            &full,
            "Front-end stall cycles / kilo-instruction (full detail)",
            &SCHEMES,
            |s| s.front_end_stall_pki(),
            false,
        )
    );
    println!();
    print!(
        "{}",
        metric_table(
            &sampled,
            "Front-end stall cycles / kilo-instruction (sampled)",
            &SCHEMES,
            |s| s.front_end_stall_pki(),
            false,
        )
    );

    println!("\nPer-cell sampled error vs full detail:");
    println!(
        "{:12} {:>14} {:>10} {:>9} {:>9} {:>10} {:>12}",
        "workload", "scheme", "intervals", "pki err", "ipc err", "pki ci95", "ci covers?"
    );
    let mut violations = Vec::new();
    for wl in WORKLOAD_ORDER {
        for scheme in SCHEMES {
            let f = &full.cell_labeled(wl, scheme).stats;
            let cell = sampled.cell_labeled(wl, scheme);
            let s = &cell.stats;
            let summary = cell.sampling.as_ref().expect("sampled cell summary");
            let pki_err = (s.front_end_stall_pki() - f.front_end_stall_pki()).abs();
            // The documented bound: max(10% relative, 0.5 absolute), or
            // the cell's own 95% confidence interval when sampling
            // variance dominates (bursty workloads at few intervals).
            let pki_bound = (0.10 * f.front_end_stall_pki())
                .max(0.5)
                .max(summary.fe_stall_pki.ci95);
            let ipc_err = (s.ipc() - f.ipc()).abs() / f.ipc();
            // IPC bound gets the same variance term: 5% relative or the
            // per-interval 95% CI, whichever is larger.
            let ipc_bound = (0.05 * f.ipc()).max(summary.ipc.ci95) / f.ipc();
            let covered = (summary.fe_stall_pki.mean - f.front_end_stall_pki()).abs()
                <= summary.fe_stall_pki.ci95.max(pki_bound);
            println!(
                "{:12} {:>14} {:>10} {:>8.2} {:>8.2}% {:>10.2} {:>12}",
                wl,
                scheme,
                summary.intervals,
                pki_err,
                ipc_err * 100.0,
                summary.fe_stall_pki.ci95,
                if covered { "yes" } else { "no" },
            );
            if summary.intervals < 2 {
                violations.push(format!(
                    "{wl}/{scheme}: only {} interval(s)",
                    summary.intervals
                ));
            }
            if pki_err > pki_bound {
                violations.push(format!(
                    "{wl}/{scheme}: fe-stall PKI err {pki_err:.2} exceeds {pki_bound:.2}"
                ));
            }
            if ipc_err > ipc_bound {
                violations.push(format!(
                    "{wl}/{scheme}: IPC err {:.1}% exceeds {:.1}%",
                    ipc_err * 100.0,
                    ipc_bound * 100.0,
                ));
            }
        }
    }

    let speedup = full_wall.as_secs_f64() / sampled_wall.as_secs_f64();
    println!(
        "\nwall clock: full {:.2}s, sampled {:.2}s -> {speedup:.2}x speedup \
         at {:.0}% timed fraction",
        full_wall.as_secs_f64(),
        sampled_wall.as_secs_f64(),
        spec.timed_fraction() * 100.0,
    );
    if min_speedup > 0.0 && speedup < min_speedup {
        violations.push(format!("speedup {speedup:.2}x below floor {min_speedup}x"));
    }

    knobs::write_bench_json("sampling", &sampled.to_json());
    println!(
        "\nnote: sampled MPKI/IPC track full detail within the documented bounds \
         (fe-stall PKI within max(10%, 0.5), IPC within 5%) at a fraction \
         of the wall clock; error shrinks as the detail fraction grows."
    );

    if !violations.is_empty() {
        eprintln!("\nsampling bound violations:");
        for v in &violations {
            eprintln!("  {v}");
        }
        if check {
            std::process::exit(1);
        }
    }
}
