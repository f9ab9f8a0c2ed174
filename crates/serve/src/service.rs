//! The experiment service proper: a FIFO job queue over one worker
//! thread, durable job specs and reports, and graceful shutdown.
//!
//! [`ExperimentService`] is the in-process core the TCP daemon wraps
//! (see [`server`](crate::server)): jobs are submitted as [`JobSpec`]s
//! and run through [`fe_sim::Experiment`]. A job the cache fully
//! answers is answered at submission, on the submitting thread: its
//! report is durable under `jobs/` before the ack, and it never enters
//! the queue. Every other job has its spec persisted under `jobs/`
//! before the ack, and queued jobs run in submission order on the
//! worker. Either way the sweep has two storage layers installed:
//!
//! * the shared [`DiskCellStore`] — repeated cells across jobs cost a
//!   file read, byte-identical to computing them;
//! * a process-lifetime [`FingerprintMemo`] so a job resolves its cell
//!   keys without synthesizing programs, and a fully cached job builds
//!   none.
//!
//! A spec is [validated](JobSpec::validate) before it is accepted, and
//! a job that panics anyway ends `Failed` without taking the worker
//! (and every job queued behind it) down.
//!
//! A killed daemon resumes on restart: `open` re-enqueues every
//! pending job spec it finds, and their completed cells are served
//! from the cache instead of recomputed. A cell is a deterministic
//! function of its [`CellKey`](fe_sim::CellKey), so the pending spec
//! plus the cache is the whole checkpoint.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use fe_cfg::{workloads, WorkloadSpec};
use fe_model::MachineConfig;
use fe_sim::json::{self, Json};
use fe_sim::{
    check_sweep, scheme_from_json, scheme_to_json, CellKey, Experiment, FingerprintMemo, RunLength,
    SamplingSpec, SchemeSpec,
};

use crate::store::{write_atomic, DiskCellStore};

/// Identifies a job; monotonically increasing across a service root's
/// lifetime (a restart continues above the highest id on disk).
pub type JobId = u64;

/// One workload entry of a job: a catalog name plus an optional CFG
/// scale factor (see [`fe_cfg::WorkloadSpec::scaled`]).
#[derive(Clone, Debug, PartialEq)]
pub struct JobWorkload {
    /// Catalog name ([`fe_cfg::workloads::by_name`]).
    pub name: String,
    /// Block-count scale factor; `None` for the catalog default.
    pub scale: Option<f64>,
}

impl JobWorkload {
    /// An unscaled catalog workload.
    pub fn named(name: impl Into<String>) -> JobWorkload {
        JobWorkload {
            name: name.into(),
            scale: None,
        }
    }
}

/// Everything a job runs: the sweep specification, JSON-serializable
/// for the wire and for the durable `jobs/<id>.json` spec files. The
/// machine is always Table 3 — the service exists to cache and serve
/// the paper's configuration sweeps, and a fixed machine keeps job
/// specs small; scheme and run-length variation is the sweep surface.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Workloads to sweep (each crossed with every scheme).
    pub workloads: Vec<JobWorkload>,
    /// Schemes to sweep.
    pub schemes: Vec<SchemeSpec>,
    /// Warmup/measure instruction counts per cell.
    pub len: RunLength,
    /// Executor seed shared by every cell.
    pub seed: u64,
    /// Sampled mode when set; full detail otherwise.
    pub sampling: Option<SamplingSpec>,
    /// Worker threads for the sweep (0 = one per core).
    pub threads: usize,
}

impl JobSpec {
    /// Serializes the spec (wire format and `jobs/<id>.json`).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "workloads".into(),
                Json::Arr(
                    self.workloads
                        .iter()
                        .map(|w| {
                            let mut members = vec![("name".into(), Json::Str(w.name.clone()))];
                            if let Some(scale) = w.scale {
                                members.push(("scale".into(), Json::F64(scale)));
                            }
                            Json::Obj(members)
                        })
                        .collect(),
                ),
            ),
            (
                "schemes".into(),
                Json::Arr(self.schemes.iter().map(scheme_to_json).collect()),
            ),
            ("warmup".into(), Json::U64(self.len.warmup)),
            ("measure".into(), Json::U64(self.len.measure)),
            ("seed".into(), Json::U64(self.seed)),
            (
                "sampling".into(),
                self.sampling.map_or(Json::Null, |s| s.to_json()),
            ),
            ("threads".into(), Json::U64(self.threads as u64)),
        ])
    }

    /// Parses a spec and [validates](Self::validate) it, so a bad
    /// submission is refused at the door instead of panicking the
    /// worker.
    pub fn from_json(doc: &Json) -> Result<JobSpec, String> {
        let mut spec_workloads = Vec::new();
        for w in doc.req("workloads")?.as_arr()? {
            let scale = match w.get("scale") {
                None | Some(Json::Null) => None,
                Some(s) => Some(s.as_f64()?),
            };
            spec_workloads.push(JobWorkload {
                name: w.req("name")?.as_str()?.to_string(),
                scale,
            });
        }
        let mut schemes = Vec::new();
        for s in doc.req("schemes")?.as_arr()? {
            schemes.push(scheme_from_json(s)?);
        }
        let sampling = match doc.get("sampling") {
            None | Some(Json::Null) => None,
            Some(s) => Some(SamplingSpec::from_json(s)?),
        };
        let spec = JobSpec {
            workloads: spec_workloads,
            schemes,
            len: RunLength {
                warmup: doc.req("warmup")?.as_u64()?,
                measure: doc.req("measure")?.as_u64()?,
            },
            seed: doc.req("seed")?.as_u64()?,
            sampling,
            threads: doc.get("threads").map_or(Ok(0), Json::as_u64)? as usize,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Checks everything [`Experiment::run`] would otherwise panic on:
    /// catalog workload names and positive finite scales — what only a
    /// job knows — then the sweep rules of [`check_sweep`].
    pub fn validate(&self) -> Result<(), String> {
        for w in &self.workloads {
            if workloads::by_name(&w.name).is_none() {
                return Err(format!("unknown workload `{}`", w.name));
            }
            if let Some(s) = w.scale {
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("workload scale must be positive, got {s}"));
                }
            }
        }
        let names: Vec<String> = self.workloads.iter().map(|w| w.name.clone()).collect();
        check_sweep(&names, &self.schemes, self.len, self.sampling)
    }

    /// Cells this job sweeps.
    pub fn cell_count(&self) -> usize {
        self.workloads.len() * self.schemes.len()
    }

    /// The catalog specs of a [validated](Self::validate) job's
    /// workloads, scaled as asked.
    fn workload_specs(&self) -> impl Iterator<Item = WorkloadSpec> + '_ {
        self.workloads.iter().map(|w| {
            let base = workloads::by_name(&w.name).expect("validated at submission");
            match w.scale {
                Some(scale) => base.scaled(scale),
                None => base,
            }
        })
    }
}

/// Where a job is in its life cycle.
#[derive(Clone, Debug, PartialEq)]
pub enum JobState {
    /// Waiting in the FIFO queue for the worker. A job the cache fully
    /// answers is never queued: it is `Done` when `submit` returns.
    Queued,
    /// The worker is sweeping it.
    Running,
    /// Finished; the rendered [`SweepReport`](fe_sim::SweepReport)
    /// JSON, exactly as written to `jobs/<id>.report.json`.
    Done(Arc<String>),
    /// Stopped by shutdown before every cell completed; the job spec
    /// stays on disk and a restarted service resumes it.
    Interrupted,
    /// The sweep could not run (e.g. the report could not be
    /// persisted).
    Failed(String),
}

/// A progress tick streamed while a job runs — one per completed cell.
#[derive(Clone, Debug)]
pub struct JobProgress {
    /// Cells finished so far (including this one).
    pub completed: usize,
    /// Total cells in the sweep.
    pub total: usize,
    /// Workload of the finished cell.
    pub workload: String,
    /// Scheme label of the finished cell.
    pub scheme: String,
    /// Served from the result cache instead of simulated.
    pub cached: bool,
}

struct JobTable {
    states: Mutex<HashMap<JobId, JobState>>,
    changed: Condvar,
}

impl JobTable {
    fn set(&self, id: JobId, state: JobState) {
        self.states.lock().unwrap().insert(id, state);
        self.changed.notify_all();
    }
}

struct QueuedJob {
    id: JobId,
    spec: JobSpec,
    progress: Option<Sender<JobProgress>>,
}

/// What running a job needs, shared by the two places a job runs: the
/// submitting thread, for a job the cache fully answers, and the
/// worker thread, for every other job.
struct JobRunner {
    jobs_dir: PathBuf,
    cache: Arc<DiskCellStore>,
    fingerprints: Arc<FingerprintMemo>,
    draining: Arc<AtomicBool>,
}

/// What the worker thread owns — deliberately *not* the service
/// itself, so dropping the last external [`ExperimentService`] handle
/// closes the queue and lets the worker exit.
struct Worker {
    runner: Arc<JobRunner>,
    cache_max_bytes: Option<u64>,
    table: Arc<JobTable>,
}

/// The in-process experiment service. See the module docs; the TCP
/// daemon in [`server`](crate::server) is a thin wrapper over this.
pub struct ExperimentService {
    runner: Arc<JobRunner>,
    queue: Mutex<Option<Sender<QueuedJob>>>,
    table: Arc<JobTable>,
    next_id: Mutex<JobId>,
    worker: Mutex<Option<JoinHandle<()>>>,
    answered: AtomicU64,
    queued: AtomicU64,
}

impl ExperimentService {
    /// Opens a service over `root` (created if missing), re-enqueuing
    /// any pending job specs a previous process left behind — they run
    /// before anything submitted later, preserving global FIFO order.
    pub fn open(root: impl AsRef<Path>) -> io::Result<ExperimentService> {
        Self::open_with_cache_limit(root, None)
    }

    /// [`Self::open`] with a cache size budget: after every job the
    /// worker runs (and once at startup) the disk cell cache is garbage-
    /// collected down to `max_bytes`, evicting least-recently-used
    /// cells first (see [`DiskCellStore::gc`]). `None` = unbounded.
    pub fn open_with_cache_limit(
        root: impl AsRef<Path>,
        cache_max_bytes: Option<u64>,
    ) -> io::Result<ExperimentService> {
        let root = root.as_ref();
        let jobs_dir = root.join("jobs");
        fs::create_dir_all(&jobs_dir)?;
        let cache = Arc::new(DiskCellStore::open(root.join("cache"))?);
        if let Some(max) = cache_max_bytes {
            // Startup trim: a lowered budget takes effect immediately,
            // not only after the first job.
            cache.gc(max);
        }
        let fingerprints = Arc::new(FingerprintMemo::new());
        let table = Arc::new(JobTable {
            states: Mutex::new(HashMap::new()),
            changed: Condvar::new(),
        });
        let draining = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel::<QueuedJob>();

        let mut pending = Vec::new();
        let mut last_id = 0;
        for entry in fs::read_dir(&jobs_dir)? {
            let path = entry?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            // Every job file is `<id>.<suffix>`; a finished job's report
            // keeps its id taken, so a restart never reuses it.
            let Some((id, suffix)) = name
                .split_once('.')
                .and_then(|(stem, suffix)| Some((stem.parse::<JobId>().ok()?, suffix)))
            else {
                continue;
            };
            last_id = last_id.max(id);
            // Pending specs are exactly `<id>.json`.
            if suffix != "json" {
                continue;
            }
            let spec = fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|text| json::parse(&text))
                .and_then(|doc| JobSpec::from_json(&doc));
            match spec {
                Ok(spec) => pending.push((id, spec)),
                // An unreadable spec cannot be resumed; leave the file
                // for inspection but do not wedge the queue on it.
                Err(e) => eprintln!("fe-serve: skipping unreadable job spec {name}: {e}"),
            }
        }
        pending.sort_by_key(|(id, _)| *id);
        let resumed = pending.len() as u64;
        {
            let mut states = table.states.lock().unwrap();
            for (id, spec) in pending {
                states.insert(id, JobState::Queued);
                tx.send(QueuedJob {
                    id,
                    spec,
                    progress: None,
                })
                .expect("receiver alive until the worker exits");
            }
        }

        let runner = Arc::new(JobRunner {
            jobs_dir,
            cache,
            fingerprints,
            draining,
        });
        let worker = Worker {
            runner: Arc::clone(&runner),
            cache_max_bytes,
            table: Arc::clone(&table),
        };
        let handle = std::thread::Builder::new()
            .name("fe-serve-worker".into())
            .spawn(move || worker.work(rx))?;

        Ok(ExperimentService {
            runner,
            queue: Mutex::new(Some(tx)),
            table,
            next_id: Mutex::new(last_id + 1),
            worker: Mutex::new(Some(handle)),
            answered: AtomicU64::new(0),
            queued: AtomicU64::new(resumed),
        })
    }

    /// Submits a job. Every job this acknowledges is durable before it
    /// returns, so an accepted job survives a crash:
    ///
    /// * a job whose every cell the cache holds is answered here, on
    ///   the calling thread: its report is written durably and it is
    ///   [`JobState::Done`] on return, without a spec file or a place
    ///   in the queue (a cell lost between the check and the run is
    ///   computed on the spot);
    /// * any other job has its spec durably persisted, then joins the
    ///   queue behind the jobs already in it.
    ///
    /// Fails when the service is draining (shutdown refuses new work)
    /// or the spec or report cannot be persisted, and refuses a spec
    /// that fails [`JobSpec::validate`]. The returned receiver streams
    /// one [`JobProgress`] per completed cell.
    pub fn submit(&self, spec: &JobSpec) -> Result<(JobId, mpsc::Receiver<JobProgress>), String> {
        spec.validate()?;
        if self.is_draining() {
            return Err("service is shutting down and not accepting jobs".into());
        }
        if self.runner.fully_cached(spec) {
            return self.answer(spec);
        }
        let queue = self.queue.lock().unwrap();
        let Some(tx) = queue.as_ref() else {
            return Err("service is shut down".into());
        };
        let id = self.take_id();
        write_atomic(
            &self.runner.spec_path(id),
            spec.to_json().render().as_bytes(),
        )
        .map_err(|e| format!("persisting job spec: {e}"))?;
        let (progress_tx, progress_rx) = mpsc::channel();
        self.table.set(id, JobState::Queued);
        tx.send(QueuedJob {
            id,
            spec: spec.clone(),
            progress: Some(progress_tx),
        })
        .map_err(|_| "worker has exited".to_string())?;
        self.queued.fetch_add(1, Ordering::Relaxed);
        Ok((id, progress_rx))
    }

    /// Runs a job the cache fully answers on the calling thread and
    /// acknowledges it only once its report is durable.
    fn answer(&self, spec: &JobSpec) -> Result<(JobId, mpsc::Receiver<JobProgress>), String> {
        let id = self.take_id();
        let (progress_tx, progress_rx) = mpsc::channel();
        match self.runner.run(id, spec, Some(progress_tx)) {
            JobState::Done(report) => {
                self.table.set(id, JobState::Done(report));
                self.answered.fetch_add(1, Ordering::Relaxed);
                Ok((id, progress_rx))
            }
            JobState::Failed(e) => Err(e),
            _ => Err("service is shutting down and not accepting jobs".into()),
        }
    }

    fn take_id(&self) -> JobId {
        let mut next = self.next_id.lock().unwrap();
        let id = *next;
        *next += 1;
        id
    }

    /// The job's current state.
    pub fn state(&self, id: JobId) -> Option<JobState> {
        self.table.states.lock().unwrap().get(&id).cloned()
    }

    /// Blocks until the job leaves the queued/running states and
    /// returns its terminal state.
    pub fn wait(&self, id: JobId) -> Option<JobState> {
        let mut states = self.table.states.lock().unwrap();
        loop {
            match states.get(&id) {
                None => return None,
                Some(JobState::Queued | JobState::Running) => {
                    states = self.table.changed.wait(states).unwrap();
                }
                Some(done) => return Some(done.clone()),
            }
        }
    }

    /// The shared result cache (hit/miss accounting for callers).
    pub fn cache(&self) -> &DiskCellStore {
        &self.runner.cache
    }

    /// The program-fingerprint memo every job shares.
    pub fn fingerprints(&self) -> &FingerprintMemo {
        &self.runner.fingerprints
    }

    /// Jobs answered at submission: the cache held every cell, so the
    /// job wrote its report and never entered the queue.
    pub fn answered(&self) -> u64 {
        self.answered.load(Ordering::Relaxed)
    }

    /// Jobs put on the worker's queue: submissions the cache could not
    /// fully answer, plus the pending specs [`Self::open`] resumed.
    pub fn queued(&self) -> u64 {
        self.queued.load(Ordering::Relaxed)
    }

    /// Whether shutdown has begun (new submissions are refused).
    pub fn is_draining(&self) -> bool {
        self.runner.draining.load(Ordering::SeqCst)
    }

    /// Graceful shutdown: refuses new jobs, asks the worker to stop —
    /// cells already in flight complete and persist to the cache,
    /// queued/interrupted specs stay on disk for the next start — and
    /// joins the worker. Idempotent.
    pub fn shutdown(&self) {
        self.runner.draining.store(true, Ordering::SeqCst);
        // Dropping the sender ends the worker's queue loop.
        *self.queue.lock().unwrap() = None;
        let handle = self.worker.lock().unwrap().take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

impl Drop for ExperimentService {
    fn drop(&mut self) {
        // Safety net for callers that skip shutdown(): close the queue
        // and wait the worker out rather than detaching it mid-cell.
        self.shutdown();
    }
}

impl Worker {
    fn work(&self, rx: mpsc::Receiver<QueuedJob>) {
        while let Ok(job) = rx.recv() {
            if self.runner.draining.load(Ordering::SeqCst) {
                // Drain without running: the spec stays on disk for
                // the next start.
                self.table.set(job.id, JobState::Interrupted);
                continue;
            }
            self.table.set(job.id, JobState::Running);
            let QueuedJob { id, spec, progress } = job;
            let state = self.runner.run(id, &spec, progress);
            if matches!(state, JobState::Done(_)) {
                // Only after the report is durable does the pending
                // spec disappear — a crash in between re-runs the job
                // from a fully warm cache.
                let _ = fs::remove_file(self.runner.spec_path(id));
            }
            self.table.set(id, state);
            if let Some(max) = self.cache_max_bytes {
                // Trim after the job's cells have refreshed recency,
                // so its working set is the last evicted.
                self.runner.cache.gc(max);
            }
        }
    }
}

impl JobRunner {
    fn spec_path(&self, id: JobId) -> PathBuf {
        self.jobs_dir.join(format!("{id}.json"))
    }

    /// Whether the cache holds every cell of `spec`: each workload's
    /// fingerprint is in the memo and each cell's file is on disk. A
    /// probe only — it moves no counter and refreshes no recency, so
    /// the run that follows counts one lookup per cell.
    fn fully_cached(&self, spec: &JobSpec) -> bool {
        let machine = MachineConfig::table3();
        spec.workload_specs().all(|workload| {
            self.fingerprints
                .peek(&workload)
                .is_some_and(|fingerprint| {
                    spec.schemes.iter().all(|scheme| {
                        self.cache.contains(&CellKey::for_cell(
                            fingerprint,
                            &machine,
                            scheme,
                            spec.len,
                            spec.seed,
                            spec.sampling,
                        ))
                    })
                })
        })
    }

    /// The sweep a job runs, over the shared cell cache and memo.
    fn experiment(&self, spec: &JobSpec, progress: Option<Sender<JobProgress>>) -> Experiment {
        let progress = progress.map(Mutex::new);
        let mut experiment = Experiment::new(MachineConfig::table3())
            .workloads(spec.workload_specs())
            .schemes(spec.schemes.iter().cloned())
            .len(spec.len)
            .seed(spec.seed)
            .cell_store(self.cache.clone())
            .fingerprints(Arc::clone(&self.fingerprints))
            .cancel_flag(Arc::clone(&self.draining))
            .on_progress(move |event| {
                if let Some(tx) = &progress {
                    let _ = tx.lock().unwrap().send(JobProgress {
                        completed: event.completed,
                        total: event.total,
                        workload: event.workload.as_str().to_string(),
                        scheme: event.scheme.clone(),
                        cached: event.cached,
                    });
                }
            });
        if spec.threads > 0 {
            experiment = experiment.threads(spec.threads);
        }
        if let Some(sampling) = spec.sampling {
            experiment = experiment.sampling(sampling);
        }
        experiment
    }

    /// Runs job `id` and durably writes its report: `Done` once the
    /// report is on disk, `Interrupted` when shutdown stopped the
    /// sweep, `Failed` when the report could not be written. A job
    /// that panics fails alone: without the catch a panic would kill
    /// the worker with the job `Running`, and every later job would
    /// queue forever.
    fn run(&self, id: JobId, spec: &JobSpec, progress: Option<Sender<JobProgress>>) -> JobState {
        let run = || match self.experiment(spec, progress).try_run() {
            Ok(report) => {
                let rendered = report.to_json();
                let report_path = self.jobs_dir.join(format!("{id}.report.json"));
                match write_atomic(&report_path, rendered.as_bytes()) {
                    Ok(()) => JobState::Done(Arc::new(rendered)),
                    Err(e) => JobState::Failed(format!("persisting report: {e}")),
                }
            }
            Err(_interrupted) => JobState::Interrupted,
        };
        panic::catch_unwind(AssertUnwindSafe(run))
            .unwrap_or_else(|payload| JobState::Failed(panic_message(payload.as_ref())))
    }
}

/// The message a panicking job died with, for its `Failed` state.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    let message = payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload");
    format!("job panicked: {message}")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A job that panics the sweep — here a duplicate workload that
    /// skipped [`JobSpec::validate`] — fails alone: the worker survives
    /// and runs the next job.
    #[test]
    fn a_panicking_job_fails_without_killing_the_worker() {
        let root = std::env::temp_dir().join(format!("fe-serve-panic-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).expect("temp root");
        let table = Arc::new(JobTable {
            states: Mutex::new(HashMap::new()),
            changed: Condvar::new(),
        });
        let worker = Worker {
            runner: Arc::new(JobRunner {
                jobs_dir: root.clone(),
                cache: Arc::new(DiskCellStore::open(root.join("cache")).expect("cache dir")),
                fingerprints: Arc::new(FingerprintMemo::new()),
                draining: Arc::new(AtomicBool::new(false)),
            }),
            cache_max_bytes: None,
            table: Arc::clone(&table),
        };
        let good = JobSpec {
            workloads: vec![JobWorkload {
                name: "nutch".into(),
                scale: Some(0.05),
            }],
            schemes: vec![SchemeSpec::NoPrefetch],
            len: RunLength {
                warmup: 10_000,
                measure: 20_000,
            },
            seed: 3,
            sampling: None,
            threads: 1,
        };
        let mut bad = good.clone();
        bad.workloads.push(JobWorkload::named("nutch"));
        assert!(bad.validate().is_err(), "the service would refuse it");

        let (tx, rx) = mpsc::channel();
        for (id, spec) in [(1, bad), (2, good)] {
            tx.send(QueuedJob {
                id,
                spec,
                progress: None,
            })
            .expect("receiver alive");
        }
        drop(tx);
        worker.work(rx);

        let states = table.states.lock().unwrap();
        assert!(
            matches!(&states[&1], JobState::Failed(e) if e.contains("panicked") && e.contains("duplicate")),
            "got {:?}",
            states[&1]
        );
        assert!(
            matches!(states[&2], JobState::Done(_)),
            "got {:?}",
            states[&2]
        );
        drop(states);
        let _ = fs::remove_dir_all(&root);
    }
}
