//! Experiment-service integration: resume after a mid-sweep shutdown,
//! graceful-shutdown semantics, job ids across restarts, fully cached
//! jobs answered at submission, and job validation agreeing with
//! `Experiment::run` (the TCP round trip lives in `serve_tcp.rs`).
//! Computed cells are counted by each service's own cache writes, never
//! by process-global state.

use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use fe_cfg::workloads;
use fe_model::MachineConfig;
use fe_serve::{ExperimentService, JobId, JobSpec, JobState, JobWorkload};
use fe_sim::{Experiment, RunLength, SamplingSpec, SchemeSpec};
use shotgun::ShotgunConfig;

fn tmp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fe-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const LEN: RunLength = RunLength {
    warmup: 20_000,
    measure: 50_000,
};

fn small_job() -> JobSpec {
    JobSpec {
        workloads: vec![
            JobWorkload {
                name: "nutch".into(),
                scale: Some(0.05),
            },
            JobWorkload {
                name: "zeus".into(),
                scale: Some(0.05),
            },
        ],
        schemes: vec![
            SchemeSpec::NoPrefetch,
            SchemeSpec::boomerang(),
            SchemeSpec::shotgun(),
        ],
        len: LEN,
        seed: 9,
        sampling: None,
        threads: 1,
    }
}

/// Names of the files under `<root>/jobs`, sorted.
fn job_files(root: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(root.join("jobs"))
        .expect("jobs dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// The exact sweep `small_job` describes, run directly — the
/// uninterrupted control every service path must reproduce
/// byte-identically.
fn control_report() -> String {
    Experiment::new(MachineConfig::table3())
        .workload(workloads::nutch().scaled(0.05))
        .workload(workloads::zeus().scaled(0.05))
        .schemes([
            SchemeSpec::NoPrefetch,
            SchemeSpec::boomerang(),
            SchemeSpec::shotgun(),
        ])
        .len(LEN)
        .seed(9)
        .threads(1)
        .run()
        .to_json()
}

#[test]
fn killed_service_resumes_without_recomputing() {
    let root = tmp_root("resume");
    let spec = small_job();
    let total = spec.cell_count() as u64;
    let control = control_report();

    // Phase 1: submit, let the first cell finish, then shut down
    // gracefully mid-sweep ("kill" the daemon as SIGTERM would).
    let interrupted_cells;
    {
        let service = ExperimentService::open(&root).expect("opens");
        let (id, progress) = service.submit(&spec).expect("accepts");
        let first = progress.recv().expect("at least one cell completes");
        assert!(!first.cached, "a fresh root has nothing cached");
        service.shutdown();
        let state = service.wait(id).expect("job tracked");
        interrupted_cells = service.cache().puts();
        assert!(
            matches!(state, JobState::Interrupted),
            "shutdown after the first of {total} cells must interrupt, got {state:?}"
        );
        assert!(
            interrupted_cells < total,
            "sanity: the sweep must not have finished before shutdown"
        );
        assert!(
            root.join("jobs").join("1.json").exists(),
            "the pending spec must survive shutdown"
        );
        assert_eq!(
            job_files(&root),
            ["1.json"],
            "no checkpoint file: the pending spec and the cache are the whole resume state"
        );
    }

    // Phase 2: a fresh service over the same root resumes the pending
    // job by itself and completes it from the cache + fresh compute.
    let service = ExperimentService::open(&root).expect("reopens");
    let resumed = service.wait(1).expect("pending job re-enqueued");
    let JobState::Done(report) = resumed else {
        panic!("resumed job must complete, got {resumed:?}");
    };
    assert_eq!(
        interrupted_cells + service.cache().puts(),
        total,
        "across kill + resume, every cell is computed exactly once"
    );
    assert_eq!(
        report.as_str(),
        &control,
        "resumed report must be byte-identical to an uninterrupted run"
    );
    assert!(
        !root.join("jobs").join("1.json").exists(),
        "completed jobs leave the pending queue"
    );
    assert_eq!(
        job_files(&root),
        ["1.report.json"],
        "a finished job leaves only its durable report"
    );
    drop(service);
    let _ = std::fs::remove_dir_all(&root);
}

/// Job ids keep rising across a restart: a finished job leaves only its
/// report on disk, and that report's id stays taken.
#[test]
fn restarted_service_never_reuses_a_finished_job_id() {
    let root = tmp_root("ids");
    let mut spec = small_job();
    spec.workloads.truncate(1);
    spec.schemes.truncate(1);
    let first = {
        let service = ExperimentService::open(&root).expect("opens");
        let (id, _progress) = service.submit(&spec).expect("accepts");
        assert!(matches!(service.wait(id), Some(JobState::Done(_))));
        id
    };
    let report_path = root.join("jobs").join(format!("{first}.report.json"));
    let report = std::fs::read(&report_path).expect("report written");

    let service = ExperimentService::open(&root).expect("reopens");
    let (second, _progress) = service.submit(&spec).expect("accepts");
    assert!(second > first, "id {second} reuses or undercuts {first}");
    assert!(matches!(service.wait(second), Some(JobState::Done(_))));
    assert_eq!(
        std::fs::read(&report_path).expect("old report kept"),
        report,
        "the earlier job's report is never overwritten"
    );
    drop(service);
    let _ = std::fs::remove_dir_all(&root);
}

/// `JobSpec::validate` and `Experiment::run` apply one rulebook: each bad
/// job is refused with exactly the message the sweep panics with.
#[test]
fn job_validation_matches_experiment_run() {
    let mut no_scheme = small_job();
    no_scheme.schemes.clear();
    let mut dup_workload = small_job();
    dup_workload.workloads[1] = dup_workload.workloads[0].clone();
    let mut dup_scheme = small_job();
    dup_scheme.schemes = vec![SchemeSpec::shotgun(), SchemeSpec::shotgun()];
    let mut bad_shape = small_job();
    bad_shape.sampling = Some(SamplingSpec {
        interval: 100,
        detail: 80,
        warmup: 40,
    });
    let mut too_short = small_job();
    too_short.sampling = Some(SamplingSpec {
        interval: 100_000,
        detail: LEN.measure + 1,
        warmup: 10_000,
    });
    let with_scheme = |scheme: SchemeSpec| JobSpec {
        schemes: vec![SchemeSpec::NoPrefetch, scheme],
        ..small_job()
    };
    let shotgun = |edit: fn(&mut ShotgunConfig)| {
        let mut cfg = ShotgunConfig::default();
        edit(&mut cfg);
        with_scheme(SchemeSpec::Shotgun(cfg))
    };
    let bad_geometry = [
        with_scheme(SchemeSpec::Boomerang { btb_entries: 0 }),
        with_scheme(SchemeSpec::Boomerang {
            btb_entries: 4_000_000_000,
        }),
        shotgun(|c| c.sizing.ubtb = 0),
        shotgun(|c| c.sizing.cbtb = 0),
        shotgun(|c| c.sizing.rib = 0),
        shotgun(|c| c.ways = 0),
        shotgun(|c| c.ways = c.sizing.cbtb + 1),
        shotgun(|c| c.sizing.rib = SchemeSpec::MAX_ENTRIES + 1),
        shotgun(|c| c.prefetch_buffer = 0),
        shotgun(|c| c.prefetch_buffer = SchemeSpec::MAX_ENTRIES + 1),
    ];
    for bad in bad_geometry.iter() {
        let refusal = JobSpec::from_json(&bad.to_json()).expect_err("the wire path refuses it");
        assert!(refusal.contains("scheme `"), "names the scheme: {refusal}");
    }
    for bad in [no_scheme, dup_workload, dup_scheme, bad_shape, too_short]
        .into_iter()
        .chain(bad_geometry)
    {
        let refusal = bad.validate().expect_err("the service refuses it");
        let mut experiment = Experiment::new(MachineConfig::table3())
            .workloads(bad.workloads.iter().map(|w| {
                let base = workloads::by_name(&w.name).expect("catalog name");
                base.scaled(w.scale.unwrap_or(1.0))
            }))
            .schemes(bad.schemes.iter().cloned())
            .len(bad.len)
            .seed(bad.seed)
            .threads(1);
        if let Some(sampling) = bad.sampling {
            experiment = experiment.sampling(sampling);
        }
        let payload = panic::catch_unwind(AssertUnwindSafe(|| experiment.run()))
            .expect_err("Experiment::run panics on it");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|m| m.to_string()))
            .expect("a string panic message");
        assert_eq!(
            message.strip_prefix("Experiment::run: "),
            Some(refusal.as_str()),
            "one rule, one wording"
        );
    }
}

#[test]
fn draining_service_refuses_new_jobs() {
    let root = tmp_root("refuse");
    let service = ExperimentService::open(&root).expect("opens");
    service.shutdown();
    assert!(service.is_draining());
    let err = service.submit(&small_job()).expect_err("must refuse");
    assert!(
        err.contains("shut"),
        "refusal must say the service is shutting down: {err}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn malformed_submissions_are_refused_politely() {
    let root = tmp_root("badjob");
    let service = ExperimentService::open(&root).expect("opens");
    let doc = fe_sim::json::parse(
        r#"{"workloads": [{"name": "no-such-workload"}], "schemes": [{"kind": "fdip"}],
            "warmup": 1000, "measure": 1000, "seed": 1}"#,
    )
    .unwrap();
    let err = JobSpec::from_json(&doc).expect_err("unknown workload");
    assert!(err.contains("no-such-workload"));
    drop(service);
    let _ = std::fs::remove_dir_all(&root);
}

/// A job that names one workload twice (a scaled copy keeps its catalog
/// name) or one scheme twice used to panic the worker and wedge the
/// queue. Both are now refused at submission, and the service runs the
/// next job.
#[test]
fn duplicate_workloads_or_schemes_are_refused_and_the_next_job_runs() {
    let root = tmp_root("dup");
    let service = ExperimentService::open(&root).expect("opens");
    let mut dup_workload = small_job();
    dup_workload.workloads = vec![
        JobWorkload::named("nutch"),
        JobWorkload {
            name: "nutch".into(),
            scale: Some(0.05),
        },
    ];
    let mut dup_scheme = small_job();
    dup_scheme.schemes = vec![SchemeSpec::NoPrefetch, SchemeSpec::NoPrefetch];
    for (bad, what) in [(dup_workload, "nutch"), (dup_scheme, "no-prefetch")] {
        let err = service.submit(&bad).expect_err("duplicate must be refused");
        assert!(
            err.contains("duplicate") && err.contains(what),
            "refusal must name the duplicate: {err}"
        );
        let err = JobSpec::from_json(&bad.to_json()).expect_err("the wire path refuses it too");
        assert!(err.contains("duplicate"), "{err}");
    }
    assert!(
        !root.join("jobs").join("1.json").exists(),
        "a refused spec is never persisted"
    );

    let (id, _progress) = service.submit(&small_job()).expect("accepts");
    let state = service.wait(id).expect("job tracked");
    assert!(
        matches!(&state, JobState::Done(report) if report.as_str() == control_report()),
        "the next job completes, got {state:?}"
    );
    drop(service);
    let _ = std::fs::remove_dir_all(&root);
}

/// A sampled job whose measured length cannot fit one detail window
/// used to pass validation and panic its worker, surfacing only as "job
/// panicked". It is now refused at submission with the reason.
#[test]
fn sampled_job_shorter_than_one_detail_window_is_refused() {
    let root = tmp_root("short-sampled");
    let service = ExperimentService::open(&root).expect("opens");
    let mut short = small_job();
    short.sampling = Some(SamplingSpec {
        interval: 100_000,
        detail: LEN.measure + 1,
        warmup: 10_000,
    });
    let err = service.submit(&short).expect_err("must refuse");
    assert!(err.contains("too short"), "refusal must say why: {err}");
    let err = JobSpec::from_json(&short.to_json()).expect_err("the wire path refuses it too");
    assert!(err.contains("too short"), "{err}");
    assert!(
        !root.join("jobs").join("1.json").exists(),
        "a refused spec is never persisted"
    );
    drop(service);
    let _ = std::fs::remove_dir_all(&root);
}

/// The service hands one fingerprint memo to every job: a resubmitted
/// job whose cells are all cached builds no program.
#[test]
fn cached_resubmission_builds_no_program() {
    let root = tmp_root("memo");
    let service = ExperimentService::open(&root).expect("opens");
    let spec = small_job();
    let run = || {
        let (id, _progress) = service.submit(&spec).expect("accepts");
        match service.wait(id) {
            Some(JobState::Done(report)) => report,
            other => panic!("job must complete, got {other:?}"),
        }
    };
    let cold = run();
    let memo = service.fingerprints();
    assert_eq!((memo.misses(), memo.programs_built()), (2, 2));
    let warm = run();
    assert_eq!(memo.hits(), 2, "both specs are known");
    assert_eq!(memo.programs_built(), 2, "the cached job builds nothing");
    assert_eq!(warm, cold, "served bytes equal computed bytes");
    drop(service);
    let _ = std::fs::remove_dir_all(&root);
}

/// A job long enough (well over 100 ms) to keep the worker busy while
/// another job is submitted. Returns once its first cell is done, so the
/// worker is known to be running it.
fn occupy_worker(service: &ExperimentService) -> JobId {
    let long = JobSpec {
        seed: 77,
        len: RunLength {
            warmup: 100_000,
            measure: 400_000,
        },
        ..small_job()
    };
    let (id, progress) = service.submit(&long).expect("accepts");
    progress.recv().expect("the long job completes a cell");
    id
}

/// Submits `spec`, waits for it, and returns its report.
fn run_to_done(service: &ExperimentService, spec: &JobSpec) -> String {
    let (id, _progress) = service.submit(spec).expect("accepts");
    match service.wait(id) {
        Some(JobState::Done(report)) => report.to_string(),
        other => panic!("job must complete, got {other:?}"),
    }
}

/// A resubmission whose every cell is cached is answered inside
/// `submit`: it is `Done` on return, leaves a report but never a spec,
/// returns the computed bytes, and looks every cell up exactly once.
#[test]
fn fully_cached_resubmission_is_answered_at_submission() {
    let root = tmp_root("answered");
    let service = ExperimentService::open(&root).expect("opens");
    let spec = small_job();
    let cells = spec.cell_count() as u64;
    let cold = run_to_done(&service, &spec);
    assert_eq!((service.queued(), service.answered()), (1, 0));

    let cache = service.cache();
    let memo = service.fingerprints();
    let (puts, hits, misses) = (cache.puts(), cache.hits(), cache.misses());
    let (memo_hits, memo_misses) = (memo.hits(), memo.misses());
    let (id, progress) = service.submit(&spec).expect("accepts");
    let Some(JobState::Done(report)) = service.state(id) else {
        panic!("answered at submission, got {:?}", service.state(id));
    };
    assert_eq!(
        job_files(&root),
        ["1.report.json", "2.report.json"],
        "a report and never a spec"
    );
    assert_eq!(report.as_str(), cold, "served bytes equal computed bytes");
    assert_eq!(
        std::fs::read_to_string(root.join("jobs").join(format!("{id}.report.json")))
            .expect("report on disk"),
        cold
    );
    let ticks: Vec<_> = progress.iter().collect();
    assert_eq!(ticks.len() as u64, cells);
    assert!(
        ticks.iter().all(|t| t.cached),
        "every cell served from cache"
    );
    assert_eq!(cache.puts(), puts, "nothing computed");
    assert_eq!(cache.hits(), hits + cells, "one hit per cell");
    assert_eq!(cache.misses(), misses);
    assert_eq!(memo.hits(), memo_hits + 2, "one memo hit per workload");
    assert_eq!(memo.misses(), memo_misses);
    assert_eq!((service.queued(), service.answered()), (1, 1));
    drop(service);
    let _ = std::fs::remove_dir_all(&root);
}

/// A fully cached job does not wait for the worker: submitted while the
/// worker runs a long uncached job, it is answered first.
#[test]
fn cached_job_is_not_queued_behind_a_running_job() {
    let root = tmp_root("overtake");
    let service = ExperimentService::open(&root).expect("opens");
    let mut spec = small_job();
    spec.workloads.truncate(1);
    let cold = run_to_done(&service, &spec);

    let long = occupy_worker(&service);
    let queued = service.queued();
    let (id, _progress) = service.submit(&spec).expect("accepts");
    assert!(
        matches!(service.state(id), Some(JobState::Done(ref r)) if r.as_str() == cold),
        "answered on return, got {:?}",
        service.state(id)
    );
    assert!(
        matches!(service.state(long), Some(JobState::Running)),
        "the long job is still running, got {:?}",
        service.state(long)
    );
    assert_eq!(service.queued(), queued, "the cached job was never queued");
    assert!(matches!(service.wait(long), Some(JobState::Done(_))));
    drop(service);
    let _ = std::fs::remove_dir_all(&root);
}

/// A job with one uncached cell takes the queue, and its spec is durable
/// before `submit` returns.
#[test]
fn partially_cached_job_persists_its_spec_before_the_ack() {
    let root = tmp_root("partial");
    let service = ExperimentService::open(&root).expect("opens");
    let mut spec = small_job();
    spec.workloads.truncate(1);
    run_to_done(&service, &spec);

    let long = occupy_worker(&service);
    spec.schemes.push(SchemeSpec::Confluence);
    let (id, _progress) = service.submit(&spec).expect("accepts");
    assert!(
        root.join("jobs").join(format!("{id}.json")).exists(),
        "the spec is on disk at the ack"
    );
    assert!(matches!(service.state(id), Some(JobState::Queued)));
    assert_eq!(service.answered(), 0);
    assert!(matches!(service.wait(long), Some(JobState::Done(_))));
    assert!(matches!(service.wait(id), Some(JobState::Done(_))));
    assert!(!root.join("jobs").join(format!("{id}.json")).exists());
    drop(service);
    let _ = std::fs::remove_dir_all(&root);
}

/// A cell file that is present but unreadable passes the submission
/// probe; the answering run misses it, computes the cell on the spot and
/// still returns the computed bytes before the ack.
#[test]
fn corrupt_cell_is_recomputed_when_answering_at_submission() {
    let root = tmp_root("corrupt");
    let service = ExperimentService::open(&root).expect("opens");
    let mut spec = small_job();
    spec.workloads.truncate(1);
    let cold = run_to_done(&service, &spec);

    let cell = std::fs::read_dir(root.join("cache"))
        .expect("cache dir")
        .map(|e| e.expect("entry").path())
        .find(|p| p.extension().is_some_and(|x| x == "json"))
        .expect("a cached cell");
    std::fs::write(&cell, b"{ torn").expect("corrupt the cell");
    let puts = service.cache().puts();
    let (id, progress) = service.submit(&spec).expect("accepts");
    assert!(
        matches!(service.state(id), Some(JobState::Done(ref r)) if r.as_str() == cold),
        "answered on return with the computed bytes, got {:?}",
        service.state(id)
    );
    assert_eq!(service.answered(), 1);
    assert_eq!(progress.iter().filter(|t| !t.cached).count(), 1);
    assert_eq!(
        service.cache().puts(),
        puts + 1,
        "the one lost cell is re-put"
    );
    drop(service);
    let _ = std::fs::remove_dir_all(&root);
}
