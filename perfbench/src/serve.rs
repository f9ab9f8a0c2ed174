//! The `serve-jobs` workload: an in-process `ExperimentService` behind a
//! `Server` on loopback, driven by one client in a closed loop (each job
//! is submitted only after the previous report arrived).
//!
//! The client sends a seeded sequence of small single-workload jobs. Most
//! have one scheme, so they run on the serial engine; some have several,
//! so they run batched. About half resubmit an earlier job, which the
//! cell cache must serve in full, byte-identical to the computed report.
//! A job is one operation; it fails on an error frame, on a hit/miss
//! count other than the plan's, on a cold report with missing or
//! truncated cells, or on a cached report whose bytes differ.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use fe_cfg::workloads;
use fe_serve::{submit_job, ExperimentService, JobSpec, JobState, JobWorkload, Server};
use fe_sim::{RunLength, SchemeSpec, SweepReport};

use crate::{median, peak_rss_mb, percentile, schemes, secs, Args, Outcome, SweepShape};

/// Program scale and run length of every job.
const SCALE: f64 = 0.2;
const JOB_LEN: RunLength = RunLength {
    warmup: 50_000,
    measure: 200_000,
};
const SMOKE_SCALE: f64 = 0.05;
const SMOKE_LEN: RunLength = RunLength {
    warmup: 20_000,
    measure: 60_000,
};
/// Executor seed of the set-up job; planned jobs' seeds stay far below.
const WARM_UP_SEED: u64 = 1 << 40;
/// A spare set-up runs after this many jobs.
const SETUP_EVERY: usize = 40;
/// Fewest jobs of each class, whatever `--seconds` says.
const MIN_JOBS: usize = 10;

/// The programs jobs draw from, at job scale, and the job run length.
pub fn shape(smoke: bool) -> SweepShape {
    let (scale, len) = if smoke {
        (SMOKE_SCALE, SMOKE_LEN)
    } else {
        (SCALE, JOB_LEN)
    };
    SweepShape {
        programs: workloads::all().iter().map(|w| w.scaled(scale)).collect(),
        scale,
        len,
        sampling: None,
    }
}

/// SplitMix64: the job plan's only source of randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One planned job: its spec, and which earlier cold job it resubmits.
pub struct PlannedJob {
    pub spec: JobSpec,
    pub repeats: Option<usize>,
}

/// The seeded job sequence. Even jobs are cold and odd jobs resubmit a
/// random earlier cold job verbatim. Every fourth cold job runs two,
/// three or four schemes as a batch; the rest run one scheme. Cold jobs
/// are dealt from two shuffled decks — every (program, scheme) pair for
/// single-scheme jobs, every (program, scheme count) pair for batches —
/// so every seed runs the same mix, and latency percentiles compare
/// across seeds. Cold jobs get distinct executor seeds, so no two share
/// a cell.
pub struct JobPlan {
    rng: Rng,
    shape: SweepShape,
    singles: Vec<(usize, usize)>,
    batches: Vec<(usize, usize)>,
    cold: Vec<JobSpec>,
    submitted: usize,
}

impl JobPlan {
    pub fn new(seed: u64, shape: SweepShape) -> JobPlan {
        JobPlan {
            rng: Rng(seed),
            shape,
            singles: Vec::new(),
            batches: Vec::new(),
            cold: Vec::new(),
            submitted: 0,
        }
    }

    /// Takes the next card, reshuffling a full deck when it runs out.
    fn deal(
        rng: &mut Rng,
        deck: &mut Vec<(usize, usize)>,
        rows: usize,
        cols: usize,
    ) -> (usize, usize) {
        if deck.is_empty() {
            *deck = (0..rows)
                .flat_map(|r| (0..cols).map(move |c| (r, c)))
                .collect();
            for i in (1..deck.len()).rev() {
                deck.swap(i, rng.below(i + 1));
            }
        }
        deck.pop().expect("refilled above")
    }

    pub fn next_job(&mut self) -> PlannedJob {
        self.submitted += 1;
        if self.submitted.is_multiple_of(2) {
            let i = self.rng.below(self.cold.len());
            return PlannedJob {
                spec: self.cold[i].clone(),
                repeats: Some(i),
            };
        }
        let all = schemes();
        let programs = self.shape.programs.len();
        let k = self.cold.len();
        let (program, first, count) = if k % 4 == 3 {
            let (p, c) = Self::deal(&mut self.rng, &mut self.batches, programs, all.len() - 1);
            (p, self.rng.below(all.len()), c + 2)
        } else {
            let (p, s) = Self::deal(&mut self.rng, &mut self.singles, programs, all.len());
            (p, s, 1)
        };
        let spec = JobSpec {
            workloads: vec![JobWorkload {
                name: self.shape.programs[program].name.clone(),
                scale: Some(self.shape.scale),
            }],
            schemes: (0..count)
                .map(|s| all[(first + s) % all.len()].clone())
                .collect(),
            len: self.shape.len,
            seed: k as u64 * 1_000_003 + self.rng.below(1_000_000) as u64,
            sampling: None,
            threads: 1,
        };
        self.cold.push(spec.clone());
        PlannedJob {
            spec,
            repeats: None,
        }
    }
}

/// A running in-process daemon on a loopback port.
pub struct Daemon {
    pub service: Arc<ExperimentService>,
    pub addr: String,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

impl Daemon {
    pub fn start(root: &Path) -> Daemon {
        let _ = std::fs::remove_dir_all(root);
        let service = Arc::new(ExperimentService::open(root).expect("open the service root"));
        let server = Server::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind loopback");
        let addr = server.local_addr().expect("bound address").to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || server.run_until(&stop))
        };
        Daemon {
            service,
            addr,
            stop,
            thread,
        }
    }

    /// Stops accepting, drains the service and joins the server thread.
    pub fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        self.thread.join().expect("server thread panicked");
        self.service.shutdown();
    }
}

/// Whether a computed report holds every cell of `spec`, untruncated.
pub fn report_complete(spec: &JobSpec, report: &str) -> bool {
    SweepReport::from_json(report).is_ok_and(|r| {
        r.cells.len() == spec.cell_count()
            && r.cells
                .iter()
                .all(|c| c.stats.instructions >= spec.len.measure)
    })
}

pub fn timed(args: &Args, work: &Path) -> Outcome {
    let shape = shape(args.smoke);
    // Set-up: start a daemon and have its service run one warm-up job,
    // so lazy start-up costs land here rather than in the first timed
    // job. The warm-up goes in-process: the accept loop's polling sleep
    // would otherwise add up to 25 ms of jitter. The first daemon serves
    // the timed jobs; a spare one is set up and stopped after every
    // `SETUP_EVERY` jobs, so set-up times sample the whole run.
    let mut out = Outcome::default();
    let mut setup = Vec::new();
    let warm_up = JobSpec {
        workloads: vec![JobWorkload {
            name: shape.programs[0].name.clone(),
            scale: Some(shape.scale),
        }],
        schemes: vec![SchemeSpec::NoPrefetch],
        len: shape.len,
        seed: WARM_UP_SEED,
        sampling: None,
        threads: 1,
    };
    let mut set_up = |root: &Path| {
        let t = Instant::now();
        let daemon = Daemon::start(root);
        let done = daemon
            .service
            .submit(&warm_up)
            .ok()
            .and_then(|(id, _progress)| daemon.service.wait(id));
        setup.push(secs(t));
        (daemon, matches!(done, Some(JobState::Done(_))))
    };
    let (daemon, ok) = set_up(&work.join("root"));
    out.op(ok);

    let mut plan = JobPlan::new(args.seed, shape.clone());
    let mut cold_reports: Vec<Option<String>> = Vec::new();
    let (mut cold_ms, mut cached_ms) = (Vec::new(), Vec::new());
    let mut covered = 0u64;
    let start = Instant::now();
    for submitted in 1.. {
        if secs(start) >= args.seconds && cold_ms.len().min(cached_ms.len()) >= MIN_JOBS {
            break;
        }
        if submitted % SETUP_EVERY == 0 {
            let (spare, ok) = set_up(&work.join("spare"));
            spare.stop();
            out.op(ok);
        }
        let job = plan.next_job();
        let t = Instant::now();
        let outcome = submit_job(&daemon.addr, &job.spec);
        let ms = secs(t) * 1e3;
        let cells = job.spec.cell_count();
        let ok = match (&outcome, job.repeats) {
            (Err(e), _) => {
                eprintln!("serve-jobs: job failed: {e}");
                false
            }
            (Ok(o), None) => {
                o.cached_cells() == 0
                    && o.progress.len() == cells
                    && report_complete(&job.spec, &o.report)
            }
            (Ok(o), Some(i)) => {
                o.cached_cells() == cells && cold_reports[i].as_deref() == Some(o.report.as_str())
            }
        };
        out.op(ok);
        match job.repeats {
            None => {
                cold_reports.push(outcome.ok().map(|o| o.report));
                cold_ms.push(ms);
                covered += cells as u64 * (job.spec.len.warmup + job.spec.len.measure);
            }
            Some(_) => cached_ms.push(ms),
        }
    }
    daemon.stop();

    let cold_s: f64 = cold_ms.iter().sum::<f64>() / 1e3;
    out.push("setup_s", median(&setup), "s");
    out.push("sim_mips", covered as f64 / cold_s / 1e6, "Minstr/s");
    out.push("peak_rss_mb", peak_rss_mb(), "MiB");
    out.push("cold_job_ms_p50", median(&cold_ms), "ms");
    out.push("cold_job_ms_p90", percentile(&cold_ms, 0.9), "ms");
    out.push("cached_job_ms_p50", median(&cached_ms), "ms");
    out.push("cached_job_ms_p90", percentile(&cached_ms, 0.9), "ms");
    eprintln!(
        "serve-jobs: {} cold jobs, {} cached jobs",
        cold_ms.len(),
        cached_ms.len()
    );
    out
}
