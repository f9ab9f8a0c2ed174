//! The experiment service proper: a FIFO job queue over one worker
//! thread, durable job specs, and graceful shutdown.
//!
//! [`ExperimentService`] is the in-process core the TCP daemon wraps
//! (see [`server`](crate::server)): jobs are submitted as [`JobSpec`]s,
//! persisted under `jobs/` before they are acknowledged, and executed
//! strictly in submission order through [`fe_sim::Experiment`] with
//! three storage layers installed:
//!
//! * the shared [`DiskCellStore`] — repeated cells across jobs cost a
//!   file read, byte-identical to computing them;
//! * a per-job [`JobCheckpoint`] recording the completed-cell set;
//! * a process-lifetime [`SnapshotStore`] so sampled re-runs skip
//!   functional warming.
//!
//! A killed daemon resumes on restart: `open` re-enqueues every
//! pending job spec it finds, and their completed cells are served
//! from the cache instead of recomputed.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use fe_cfg::workloads;
use fe_model::MachineConfig;
use fe_sim::json::{self, Json};
use fe_sim::{
    scheme_from_json, scheme_to_json, Experiment, RunLength, SamplingSpec, SchemeSpec,
    SnapshotStore,
};

use crate::store::{write_atomic, DiskCellStore, JobCheckpoint};

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
                self.sampling.map_or(Json::Null, |s| {
                    Json::Obj(vec![
                        ("interval".into(), Json::U64(s.interval)),
                        ("detail".into(), Json::U64(s.detail)),
                        ("warmup".into(), Json::U64(s.warmup)),
                    ])
                }),
            ),
            ("threads".into(), Json::U64(self.threads as u64)),
        ])
    }

    /// Parses a spec, validating workload names against the catalog so
    /// a bad submission is refused at the door instead of panicking the
    /// worker.
    pub fn from_json(doc: &Json) -> Result<JobSpec, String> {
        let mut spec_workloads = Vec::new();
        for w in doc.req("workloads")?.as_arr()? {
            let name = w.req("name")?.as_str()?.to_string();
            if workloads::by_name(&name).is_none() {
                return Err(format!("unknown workload `{name}`"));
            }
            let scale = match w.get("scale") {
                None | Some(Json::Null) => None,
                Some(s) => {
                    let s = s.as_f64()?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(format!("workload scale must be positive, got {s}"));
                    }
                    Some(s)
                }
            };
            spec_workloads.push(JobWorkload { name, scale });
        }
        let mut schemes = Vec::new();
        for s in doc.req("schemes")?.as_arr()? {
            schemes.push(scheme_from_json(s)?);
        }
        if spec_workloads.is_empty() || schemes.is_empty() {
            return Err("job needs at least one workload and one scheme".into());
        }
        let sampling = match doc.get("sampling") {
            None | Some(Json::Null) => None,
            Some(s) => {
                let spec = SamplingSpec {
                    interval: s.req("interval")?.as_u64()?,
                    detail: s.req("detail")?.as_u64()?,
                    warmup: s.req("warmup")?.as_u64()?,
                };
                spec.validate()?;
                Some(spec)
            }
        };
        Ok(JobSpec {
            workloads: spec_workloads,
            schemes,
            len: RunLength {
                warmup: doc.req("warmup")?.as_u64()?,
                measure: doc.req("measure")?.as_u64()?,
            },
            seed: doc.req("seed")?.as_u64()?,
            sampling,
            threads: doc.get("threads").map_or(Ok(0), Json::as_u64)? as usize,
        })
    }

    /// Cells this job sweeps.
    pub fn cell_count(&self) -> usize {
        self.workloads.len() * self.schemes.len()
    }
}

/// Where a job is in its life cycle.
#[derive(Clone, Debug, PartialEq)]
pub enum JobState {
    /// Waiting in the FIFO queue.
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

/// What the worker thread owns — deliberately *not* the service
/// itself, so dropping the last external [`ExperimentService`] handle
/// closes the queue and lets the worker exit.
struct Worker {
    jobs_dir: PathBuf,
    cache: Arc<DiskCellStore>,
    cache_max_bytes: Option<u64>,
    snapshots: Arc<SnapshotStore>,
    table: Arc<JobTable>,
    draining: Arc<AtomicBool>,
}

/// The in-process experiment service. See the module docs; the TCP
/// daemon in [`server`](crate::server) is a thin wrapper over this.
pub struct ExperimentService {
    jobs_dir: PathBuf,
    cache: Arc<DiskCellStore>,
    snapshots: Arc<SnapshotStore>,
    queue: Mutex<Option<Sender<QueuedJob>>>,
    table: Arc<JobTable>,
    next_id: Mutex<JobId>,
    draining: Arc<AtomicBool>,
    worker: Mutex<Option<JoinHandle<()>>>,
}

impl ExperimentService {
    /// Opens a service over `root` (created if missing), re-enqueuing
    /// any pending job specs a previous process left behind — they run
    /// before anything submitted later, preserving global FIFO order.
    pub fn open(root: impl AsRef<Path>) -> io::Result<ExperimentService> {
        Self::open_with_cache_limit(root, None)
    }

    /// [`Self::open`] with a cache size budget: after every finished
    /// job (and once at startup) the disk cell cache is garbage-
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
        let snapshots = Arc::new(SnapshotStore::new());
        let table = Arc::new(JobTable {
            states: Mutex::new(HashMap::new()),
            changed: Condvar::new(),
        });
        let draining = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel::<QueuedJob>();

        let mut pending = Vec::new();
        for entry in fs::read_dir(&jobs_dir)? {
            let path = entry?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            // Pending specs are exactly `<id>.json` (checkpoints and
            // reports carry dotted suffixes that fail the id parse).
            let Some(id) = name
                .strip_suffix(".json")
                .and_then(|stem| stem.parse::<JobId>().ok())
            else {
                continue;
            };
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
        let next_id = pending.last().map_or(1, |(id, _)| id + 1);
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

        let worker = Worker {
            jobs_dir: jobs_dir.clone(),
            cache: Arc::clone(&cache),
            cache_max_bytes,
            snapshots: Arc::clone(&snapshots),
            table: Arc::clone(&table),
            draining: Arc::clone(&draining),
        };
        let handle = std::thread::Builder::new()
            .name("fe-serve-worker".into())
            .spawn(move || worker.work(rx))?;

        Ok(ExperimentService {
            jobs_dir,
            cache,
            snapshots,
            queue: Mutex::new(Some(tx)),
            table,
            next_id: Mutex::new(next_id),
            draining,
            worker: Mutex::new(Some(handle)),
        })
    }

    /// Submits a job: the spec is durably persisted *before* this
    /// returns, so an accepted job survives a crash. Fails when the
    /// service is draining (shutdown refuses new work) or the spec
    /// cannot be persisted. The returned receiver streams one
    /// [`JobProgress`] per completed cell.
    pub fn submit(&self, spec: &JobSpec) -> Result<(JobId, mpsc::Receiver<JobProgress>), String> {
        if self.draining.load(Ordering::SeqCst) {
            return Err("service is shutting down and not accepting jobs".into());
        }
        let queue = self.queue.lock().unwrap();
        let Some(tx) = queue.as_ref() else {
            return Err("service is shut down".into());
        };
        let id = {
            let mut next = self.next_id.lock().unwrap();
            let id = *next;
            *next += 1;
            id
        };
        write_atomic(
            &self.jobs_dir.join(format!("{id}.json")),
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
        Ok((id, progress_rx))
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
        &self.cache
    }

    /// The warmed-state snapshot store.
    pub fn snapshots(&self) -> &SnapshotStore {
        &self.snapshots
    }

    /// Whether shutdown has begun (new submissions are refused).
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Graceful shutdown: refuses new jobs, asks the worker to stop —
    /// cells already in flight complete and persist to the cache, the
    /// job checkpoint is flushed, queued/interrupted specs stay on disk
    /// for the next start — and joins the worker. Idempotent.
    pub fn shutdown(&self) {
        self.draining.store(true, Ordering::SeqCst);
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
            if self.draining.load(Ordering::SeqCst) {
                // Drain without running: the spec stays on disk for
                // the next start.
                self.table.set(job.id, JobState::Interrupted);
                continue;
            }
            self.table.set(job.id, JobState::Running);
            let state = self.run_job(&job);
            self.table.set(job.id, state);
            if let Some(max) = self.cache_max_bytes {
                // Trim after the job's cells (and checkpoint reads)
                // have refreshed recency, so its working set is the
                // last evicted.
                self.cache.gc(max);
            }
        }
    }

    fn run_job(&self, job: &QueuedJob) -> JobState {
        let QueuedJob { id, spec, progress } = job;
        let checkpoint = Arc::new(JobCheckpoint::new(
            Arc::clone(&self.cache),
            self.jobs_dir.join(format!("{id}.ckpt.json")),
        ));
        let progress = progress.as_ref().map(|tx| Mutex::new(tx.clone()));
        let mut experiment = Experiment::new(MachineConfig::table3())
            .workloads(spec.workloads.iter().map(|w| {
                let base = workloads::by_name(&w.name).expect("validated at submission");
                match w.scale {
                    Some(scale) => base.scaled(scale),
                    None => base,
                }
            }))
            .schemes(spec.schemes.iter().cloned())
            .len(spec.len)
            .seed(spec.seed)
            .cell_store(checkpoint)
            .snapshots(Arc::clone(&self.snapshots))
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
        match experiment.try_run() {
            Ok(report) => {
                let rendered = report.to_json();
                let report_path = self.jobs_dir.join(format!("{id}.report.json"));
                if let Err(e) = write_atomic(&report_path, rendered.as_bytes()) {
                    return JobState::Failed(format!("persisting report: {e}"));
                }
                // Only after the report is durable does the pending
                // spec (and its checkpoint) disappear — a crash in
                // between re-runs the job from a fully warm cache.
                let _ = fs::remove_file(self.jobs_dir.join(format!("{id}.json")));
                let _ = fs::remove_file(self.jobs_dir.join(format!("{id}.ckpt.json")));
                JobState::Done(Arc::new(rendered))
            }
            Err(_interrupted) => JobState::Interrupted,
        }
    }
}
