#![forbid(unsafe_code)]
//! Experiment-service smoke + throughput harness: boots an in-process
//! `fe-serve` daemon on a loopback port, submits the same sweep twice
//! over real TCP, and enforces the service's two headline guarantees:
//!
//! 1. the second submission is served **entirely** from the
//!    content-addressed result cache (zero recomputed cells), and
//! 2. its report is **byte-identical** to the first run's — served
//!    results are indistinguishable from computed ones, and
//! 3. it builds **no program**: the service's fingerprint memo names
//!    every workload's program without synthesizing it.
//!
//! Emitted as `BENCH_serve.json` under `SHOTGUN_JSON_DIR`: wall time,
//! jobs/s, cache-hit rate, fingerprint-memo counts (hits, misses,
//! programs built) and how the service took the job (answered at
//! submission or queued) per submission — the tracked throughput
//! trajectory of the service path (queue + job spec + cache + wire
//! protocol overhead rides on top of raw simulation).
//!
//! ```sh
//! cargo run --release -p fe-bench --bin serve
//! ```
//!
//! Standard knobs apply (`SHOTGUN_INSTRS`/`_WARMUP`/`_SCALE`,
//! `SHOTGUN_THREADS`, `SHOTGUN_JSON_DIR`); `SHOTGUN_SAMPLING` switches
//! the sweep to sampled mode, whose cold submission runs each
//! workload's schemes over one shared warm. The service root is a
//! per-process temp directory, removed on success.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use fe_bench::{
    banner, default_len, knobs, suite, write_serve_json, JobCounts, MemoCounts, ServeRun, SEED,
};
use fe_serve::{submit_job, ClientOutcome, ExperimentService, JobSpec, JobWorkload, Server};
use fe_sim::SchemeSpec;

fn main() {
    banner(
        "Serve",
        "experiment service: cold submission, then 100% cache-hit resubmission",
    );
    let len = default_len();
    let sampling = knobs::sampling_if_set();
    let scale = knobs::scale();
    let spec = JobSpec {
        workloads: suite()
            .iter()
            .map(|w| JobWorkload {
                name: w.name.clone(),
                scale: Some(scale),
            })
            .collect(),
        schemes: vec![
            SchemeSpec::NoPrefetch,
            SchemeSpec::boomerang(),
            SchemeSpec::shotgun(),
        ],
        len,
        seed: SEED,
        sampling,
        threads: knobs::threads(),
    };
    let total = spec.cell_count();

    let root = std::env::temp_dir().join(format!("fe-serve-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let service = Arc::new(ExperimentService::open(&root).expect("open service root"));
    let server = Server::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr().expect("bound address").to_string();
    let stop = Arc::new(AtomicBool::new(false));
    let server_thread = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || server.run_until(&stop))
    };

    let memo = service.fingerprints();
    let memo_counts = || MemoCounts {
        hits: memo.hits(),
        misses: memo.misses(),
        programs_built: memo.programs_built(),
    };
    let job_counts = || JobCounts {
        answered: service.answered(),
        queued: service.queued(),
    };
    let submit = |label: &str| -> (ClientOutcome, f64, MemoCounts, JobCounts) {
        let (memo_before, jobs_before) = (memo_counts(), job_counts());
        let t0 = Instant::now();
        let outcome = submit_job(&addr, &spec).expect("submission succeeds");
        let wall = t0.elapsed().as_secs_f64();
        let memo = memo_counts().since(&memo_before);
        let jobs = job_counts().since(&jobs_before);
        eprintln!(
            "[{label}] job {}: {} cells ({} cached), {} programs built, {}, in {:.1} ms",
            outcome.job_id,
            outcome.progress.len(),
            outcome.cached_cells(),
            memo.programs_built,
            if jobs.answered > 0 {
                "answered at submission"
            } else {
                "queued"
            },
            wall * 1e3,
        );
        (outcome, wall, memo, jobs)
    };
    let (cold, cold_wall, cold_memo, cold_jobs) = submit("cold");
    let (warm, warm_wall, warm_memo, warm_jobs) = submit("warm");
    stop.store(true, Ordering::SeqCst);
    server_thread.join().expect("server thread");

    // Gate 1: the resubmission must be served entirely from the cache.
    assert_eq!(cold.progress.len(), total, "cold run completes every cell");
    if warm.cached_cells() != total {
        eprintln!(
            "SERVE GATE FAILED: resubmission served {}/{} cells from cache",
            warm.cached_cells(),
            total,
        );
        std::process::exit(1);
    }
    // Gate 2: served == computed, byte for byte.
    if cold.report != warm.report {
        eprintln!("SERVE GATE FAILED: cached report differs from the computed one");
        std::process::exit(1);
    }
    // Gate 3: the fingerprint memo spares the resubmission all synthesis.
    if warm_memo.programs_built != 0 {
        eprintln!(
            "SERVE GATE FAILED: the fully cached resubmission built {} programs",
            warm_memo.programs_built,
        );
        std::process::exit(1);
    }

    let hit_rate = |o: &ClientOutcome| o.cached_cells() as f64 / total as f64;
    println!(
        "\n{:6} {:>8} {:>12} {:>10} {:>10}",
        "run", "cells", "wall ms", "jobs/s", "hit rate"
    );
    for (label, outcome, wall) in [("cold", &cold, cold_wall), ("warm", &warm, warm_wall)] {
        println!(
            "{:6} {:>8} {:>12.1} {:>10.2} {:>9.0}%",
            label,
            outcome.progress.len(),
            wall * 1e3,
            1.0 / wall,
            hit_rate(outcome) * 100.0,
        );
    }
    println!(
        "\nserve gate: resubmission 100% cache hit, report byte-identical, no program built — ok"
    );

    write_serve_json(&ServeRun {
        len,
        sampling,
        scale,
        total_cells: total,
        cold_wall_ms: cold_wall * 1e3,
        cold_hit_rate: hit_rate(&cold),
        cold_memo,
        cold_jobs,
        warm_wall_ms: warm_wall * 1e3,
        warm_hit_rate: hit_rate(&warm),
        warm_memo,
        warm_jobs,
        report_bytes: cold.report.len(),
    });
    let _ = std::fs::remove_dir_all(&root);
}
