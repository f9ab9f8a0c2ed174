#![forbid(unsafe_code)]
//! # fe-bench — the experiment harness
//!
//! The paper's evaluation as one figure table ([`figures::FIGURES`]),
//! run by the `figures` binary (see the experiment index in the
//! repository README), plus the `consolidation`, `sampling`, `trace`,
//! `perf` and `serve` tools. Per-structure timings live in
//! the repository's `perfbench/` benchmark. Shared setup lives here:
//! the Table 3 machine, the Table 2 workload suite, the evaluation
//! seed and the run-length knobs.
//!
//! `figures` and the tools accept the environment knobs, all read and
//! parsed in [`knobs`] (a set but malformed value exits 2, naming the
//! variable):
//!
//! * `SHOTGUN_INSTRS` — measured instructions per (workload, scheme)
//!   cell (default 8M); the offline analytics of Figs. 3 and 4 walk
//!   the same count;
//! * `SHOTGUN_WARMUP` — warmup instructions (default 2M);
//! * `SHOTGUN_SCALE` — workload scale factor (default 1.0; use e.g.
//!   0.25 for quick shape checks);
//! * `SHOTGUN_THREADS` — sweep worker threads (default: all cores);
//! * `SHOTGUN_JSON_DIR` — when set, each sweep also writes its
//!   `SweepReport` as `BENCH_<figure>.json` into this directory;
//! * `SHOTGUN_TRACE_DIR` — when set, sweeps persist each workload's
//!   recorded control-flow trace there and reuse compatible recordings,
//!   skipping the executor walk on repeated runs;
//! * `SHOTGUN_SAMPLING` / `SHOTGUN_SAMPLING_*` — shape of sampled
//!   simulation in `sampling`, `perf` and `serve` (see
//!   [`knobs::sampling`]).

pub mod figures;
pub mod knobs;
mod report;

use fe_cfg::{workloads, WorkloadSpec};
use fe_model::MachineConfig;
use fe_sim::json::Json;
use fe_sim::{RunLength, SamplingSpec};

/// Workload presentation order used by every figure (the paper's
/// left-to-right order).
pub const WORKLOAD_ORDER: [&str; 6] = ["nutch", "streaming", "apache", "zeus", "oracle", "db2"];

/// The evaluation seed: every timed sweep cell walks the retired
/// stream this seed draws. The offline analytics of Figs. 3 and 4 do
/// not: they walk seeds 1 and 2 (see [`figures`]), so they describe
/// other streams than the sweeps measure.
pub const SEED: u64 = 0x5407;

/// Default per-cell run length of `figures` and the tools, under the
/// `SHOTGUN_WARMUP` / `SHOTGUN_INSTRS` knobs.
pub fn default_len() -> RunLength {
    knobs::run_length(RunLength {
        warmup: 2_000_000,
        measure: 8_000_000,
    })
}

/// The six Table 2 workloads, scaled by `SHOTGUN_SCALE` if set.
pub fn suite() -> Vec<WorkloadSpec> {
    suite_at(knobs::scale())
}

/// The six Table 2 workloads, scaled by `scale`.
pub(crate) fn suite_at(scale: f64) -> Vec<WorkloadSpec> {
    workloads::all()
        .into_iter()
        .map(|w| {
            if (scale - 1.0).abs() < 1e-9 {
                w
            } else {
                w.scaled(scale)
            }
        })
        .collect()
}

/// The Table 3 machine.
pub fn machine() -> MachineConfig {
    MachineConfig::table3()
}

/// One cold + warm submission pair through the experiment service —
/// what the `serve` binary measures and `BENCH_serve.json` records.
pub struct ServeRun {
    /// Per-cell run length of the swept jobs.
    pub len: RunLength,
    /// Sampling shape, when the sweep ran in sampled mode.
    pub sampling: Option<SamplingSpec>,
    /// Workload scale factor.
    pub scale: f64,
    /// Cells per job (workloads × schemes).
    pub total_cells: usize,
    /// Wall time of the first (computing) submission.
    pub cold_wall_ms: f64,
    /// Cache-hit rate of the first submission (0.0 on a fresh root).
    pub cold_hit_rate: f64,
    /// Fingerprint-memo activity during the first submission.
    pub cold_memo: MemoCounts,
    /// How the service took the first submission (the gate demands
    /// it queued: nothing was cached).
    pub cold_jobs: JobCounts,
    /// Wall time of the resubmission (served from cache).
    pub warm_wall_ms: f64,
    /// Cache-hit rate of the resubmission (the gate demands 1.0).
    pub warm_hit_rate: f64,
    /// Fingerprint-memo activity during the resubmission (the gate
    /// demands 0 programs built).
    pub warm_memo: MemoCounts,
    /// How the service took the resubmission (the gate demands it
    /// answered at submission, never queued).
    pub warm_jobs: JobCounts,
    /// Size of the (byte-identical) report both runs returned.
    pub report_bytes: usize,
}

/// Deterministic fingerprint-memo counts over one submission (see
/// `fe_sim::FingerprintMemo`).
#[derive(Clone, Copy, Debug, Default)]
pub struct MemoCounts {
    /// Workload specs whose fingerprint the memo knew.
    pub hits: u64,
    /// Workload specs it did not know (each one built its program).
    pub misses: u64,
    /// Programs synthesized, misses included.
    pub programs_built: u64,
}

impl MemoCounts {
    /// The counts accumulated since `earlier`.
    pub fn since(&self, earlier: &MemoCounts) -> MemoCounts {
        MemoCounts {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            programs_built: self.programs_built - earlier.programs_built,
        }
    }
}

/// How the service took the jobs of one submission (see
/// `fe_serve::ExperimentService::{answered, queued}`).
#[derive(Clone, Copy, Debug, Default)]
pub struct JobCounts {
    /// Jobs the cache fully answered at submission.
    pub answered: u64,
    /// Jobs that went through the worker's queue.
    pub queued: u64,
}

impl JobCounts {
    /// The counts accumulated since `earlier`.
    pub fn since(&self, earlier: &JobCounts) -> JobCounts {
        JobCounts {
            answered: self.answered - earlier.answered,
            queued: self.queued - earlier.queued,
        }
    }
}

/// Emits `BENCH_serve.json` under `SHOTGUN_JSON_DIR`: service
/// throughput (jobs/s, cold and cached), cache-hit rates,
/// fingerprint-memo counts, and how many jobs were answered at
/// submission or queued. Like `BENCH_perf.json`, all wall-clock
/// fields live here and only here.
pub fn write_serve_json(run: &ServeRun) {
    let submission = |wall_ms: f64, hit_rate: f64, memo: &MemoCounts, jobs: &JobCounts| {
        Json::Obj(vec![
            ("wall_ms".into(), Json::F64(wall_ms)),
            ("jobs_per_s".into(), Json::F64(1e3 / wall_ms)),
            ("cache_hit_rate".into(), Json::F64(hit_rate)),
            ("fingerprint_hits".into(), Json::U64(memo.hits)),
            ("fingerprint_misses".into(), Json::U64(memo.misses)),
            ("programs_built".into(), Json::U64(memo.programs_built)),
            ("jobs_answered".into(), Json::U64(jobs.answered)),
            ("jobs_queued".into(), Json::U64(jobs.queued)),
        ])
    };
    let sampling = run.sampling.map_or(Json::Null, |s| s.to_json());
    let doc = Json::Obj(vec![
        (
            "run".into(),
            Json::Obj(vec![
                ("warmup".into(), Json::U64(run.len.warmup)),
                ("measure".into(), Json::U64(run.len.measure)),
                ("seed".into(), Json::U64(SEED)),
                ("scale".into(), Json::F64(run.scale)),
                ("sampling".into(), sampling),
                ("cells_per_job".into(), Json::U64(run.total_cells as u64)),
                ("report_bytes".into(), Json::U64(run.report_bytes as u64)),
            ]),
        ),
        (
            "cold".into(),
            submission(
                run.cold_wall_ms,
                run.cold_hit_rate,
                &run.cold_memo,
                &run.cold_jobs,
            ),
        ),
        (
            "warm".into(),
            submission(
                run.warm_wall_ms,
                run.warm_hit_rate,
                &run.warm_memo,
                &run.warm_jobs,
            ),
        ),
        (
            "summary".into(),
            Json::Obj(vec![
                (
                    "cached_speedup".into(),
                    Json::F64(run.cold_wall_ms / run.warm_wall_ms),
                ),
                ("cache_hit_rate".into(), Json::F64(run.warm_hit_rate)),
            ]),
        ),
    ]);
    knobs::write_bench_json("serve", &doc.render());
}

/// Prints the standard experiment header.
pub fn banner(experiment: &str, what: &str) {
    let len = default_len();
    println!("=== {experiment} — {what}");
    println!(
        "    machine: Table 3 | warmup {}M, measure {}M instructions per cell | {} threads\n",
        len.warmup / 1_000_000,
        len.measure / 1_000_000,
        knobs::threads(),
    );
}
