//! The `Experiment` session API: one builder for every (workload ×
//! scheme) sweep in the evaluation.
//!
//! The paper's figures are grids of independent cells, so the sweep is
//! embarrassingly parallel: [`Experiment::run`] builds each workload's
//! program once, fans the cells out across scoped worker threads, and
//! reassembles a [`SweepReport`] in deterministic (workload, scheme)
//! order regardless of completion order. Same seed ⇒ byte-identical
//! report JSON at any thread count.
//!
//! Sweeps are *trace-driven*, matching the paper's methodology (§5.1):
//! each workload's retired stream is recorded once (an `fe-trace`
//! recording of the executor walk, sized by
//! [`RunLength::trace_instrs`]) and replayed into every scheme cell,
//! so an N-scheme sweep performs one walk per workload instead of N —
//! with statistics bit-identical to live execution. Multi-context
//! mixes stay live (a context's stream length depends on its
//! neighbors' interference, so there is no fixed stream to record).
//! [`Experiment::trace_dir`] additionally persists the recordings,
//! letting repeated sweeps skip the walk entirely.
//!
//! ```no_run
//! use fe_cfg::workloads;
//! use fe_model::MachineConfig;
//! use fe_sim::{Experiment, RunLength, SchemeSpec};
//!
//! let report = Experiment::new(MachineConfig::table3())
//!     .workloads(workloads::all())
//!     .schemes([SchemeSpec::NoPrefetch, SchemeSpec::boomerang(), SchemeSpec::shotgun()])
//!     .len(RunLength::DEFAULT)
//!     .seed(0x5407)
//!     .threads(8)
//!     .run();
//! println!("{:.3}", report.cell("nutch", &SchemeSpec::shotgun()).metrics.speedup.unwrap());
//! report.write_json("BENCH_headline.json").unwrap();
//! ```

use std::borrow::Cow;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use fe_cfg::{MixSpec, Program, WorkloadSpec};
use fe_model::stats::{coverage, speedup};
use fe_model::{MachineConfig, SimStats};
use fe_trace::{ProgramFingerprint, Trace};
use shotgun::{RegionPolicy, ShotgunConfig};

use crate::batch::run_sampled_group;
use crate::cache::{CellKey, CellStore, CellValue, FingerprintMemo};
use crate::json::{parse, Json};
use crate::multi::MultiSimulator;
use crate::runner::{run_full, simulator, RunLength, SchemeSpec};
use crate::sampling::{CellSampling, MeanCi, SamplingSpec};

/// A sweep stopped by its cancel flag before every cell completed (see
/// [`Experiment::cancel_flag`]). Cells finished before the stop were
/// still written to the configured [`CellStore`], so a re-run resumes
/// from them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interrupted {
    /// Jobs that completed before the sweep stopped.
    pub completed: usize,
    /// Total jobs in the sweep.
    pub total: usize,
}

impl std::fmt::Display for Interrupted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sweep interrupted after {}/{} jobs",
            self.completed, self.total
        )
    }
}

impl std::error::Error for Interrupted {}

/// Identifies a workload inside a sweep (its spec name).
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WorkloadId(pub String);

impl WorkloadId {
    /// The name as a plain string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for WorkloadId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for WorkloadId {
    fn from(name: &str) -> Self {
        WorkloadId(name.to_string())
    }
}

impl PartialEq<str> for WorkloadId {
    fn eq(&self, other: &str) -> bool {
        self.0 == other
    }
}

/// Passed to the progress callback after each completed cell.
#[derive(Clone, Debug)]
pub struct ProgressEvent {
    /// Cells finished so far (including this one).
    pub completed: usize,
    /// Total cells in the sweep.
    pub total: usize,
    /// Workload of the cell that just finished. A multi-context job
    /// reports its *mix* name here (the whole mix completes at once);
    /// its report cells are keyed by the member ids
    /// ([`MixSpec::member_id`](fe_cfg::MixSpec::member_id)).
    pub workload: WorkloadId,
    /// Scheme label of the cell that just finished.
    pub scheme: String,
    /// Whether the cell was served from the configured [`CellStore`]
    /// instead of being simulated.
    pub cached: bool,
}

type ProgressFn = Box<dyn Fn(&ProgressEvent) + Send + Sync>;

/// Builder for a (workload × scheme) sweep session. Cells may be
/// single-context (one workload, private memory) or multi-context
/// ([`MixSpec`] — every member ticking round-robin over one shared
/// LLC/NoC); a mix contributes one report cell per member, keyed by
/// [`MixSpec::member_id`].
pub struct Experiment {
    machine: MachineConfig,
    workloads: Vec<WorkloadSpec>,
    mixes: Vec<MixSpec>,
    schemes: Vec<SchemeSpec>,
    len: RunLength,
    seed: u64,
    threads: usize,
    baseline: Option<SchemeSpec>,
    progress: Option<ProgressFn>,
    trace_dir: Option<PathBuf>,
    sampling: Option<SamplingSpec>,
    cell_store: Option<Arc<dyn CellStore>>,
    fingerprint_memo: Option<Arc<FingerprintMemo>>,
    cancel: Option<Arc<AtomicBool>>,
}

impl Experiment {
    /// Starts a sweep on `machine` with defaults: no workloads or
    /// schemes yet, [`RunLength::DEFAULT`], seed 0, one worker per
    /// available core, and `NoPrefetch` as the baseline when present.
    pub fn new(machine: MachineConfig) -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Experiment {
            machine,
            workloads: Vec::new(),
            mixes: Vec::new(),
            schemes: Vec::new(),
            len: RunLength::DEFAULT,
            seed: 0,
            threads,
            baseline: None,
            progress: None,
            trace_dir: None,
            sampling: None,
            cell_store: None,
            fingerprint_memo: None,
            cancel: None,
        }
    }

    /// Appends workloads to the sweep.
    pub fn workloads(mut self, specs: impl IntoIterator<Item = WorkloadSpec>) -> Self {
        self.workloads.extend(specs);
        self
    }

    /// Appends one workload.
    pub fn workload(mut self, spec: WorkloadSpec) -> Self {
        self.workloads.push(spec);
        self
    }

    /// Appends a multi-context consolidation mix: each scheme gets one
    /// [`MultiSimulator`] run of the whole mix over a shared memory
    /// system, producing one cell per member (context `i` is seeded
    /// with [`derive_ctx_seed`](crate::derive_ctx_seed)`(seed, i)`).
    pub fn mix(mut self, mix: MixSpec) -> Self {
        self.mixes.push(mix);
        self
    }

    /// Appends schemes to the sweep.
    pub fn schemes(mut self, specs: impl IntoIterator<Item = SchemeSpec>) -> Self {
        self.schemes.extend(specs);
        self
    }

    /// Appends one scheme.
    pub fn scheme(mut self, spec: SchemeSpec) -> Self {
        self.schemes.push(spec);
        self
    }

    /// Sets warmup/measure instruction counts for every cell.
    pub fn len(mut self, len: RunLength) -> Self {
        self.len = len;
        self
    }

    /// Sets the executor seed shared by every cell (every scheme sees
    /// the same retired instruction stream).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the worker-thread count. `1` runs every step on the
    /// caller's thread and spawns none; results are identical at any
    /// value.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Overrides the baseline scheme used for derived speedup/coverage
    /// metrics (default: `NoPrefetch`, when it is in the scheme list).
    pub fn baseline(mut self, spec: SchemeSpec) -> Self {
        self.baseline = Some(spec);
        self
    }

    /// Installs a callback invoked after every completed cell — the
    /// long-sweep progress hook. Called from worker threads, or from
    /// the caller's thread at `threads(1)`.
    pub fn on_progress(mut self, f: impl Fn(&ProgressEvent) + Send + Sync + 'static) -> Self {
        self.progress = Some(Box::new(f));
        self
    }

    /// Persists each workload's recorded trace under `dir` (created if
    /// missing) and reuses any compatible recording found there —
    /// matching seed and program fingerprint, and at least as long as
    /// this sweep needs. The `fe-bench` binaries plumb
    /// `SHOTGUN_TRACE_DIR` here, so repeated sweeps skip the executor
    /// walk entirely.
    pub fn trace_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.trace_dir = Some(dir.into());
        self
    }

    /// Runs every cell in sampled mode (interval sampling with
    /// functional warming — see the [`sampling`](crate::sampling)
    /// module docs): `len.warmup` is functionally warmed and
    /// `len.measure` covered by alternating fast-forward and timed
    /// measurement, making paper-scale instruction counts practical.
    /// Cells carry a [`CellSampling`] summary (interval count, per-
    /// interval mean ± 95% CI) next to their aggregate statistics, and
    /// the report JSON grows matching `sampling` fields. Reports stay
    /// byte-identical at any thread count.
    ///
    /// Consolidation mixes are not supported in sampled mode (their
    /// streams are interference-coupled and cannot fast-forward
    /// independently); `run` panics on the combination.
    pub fn sampling(mut self, spec: SamplingSpec) -> Self {
        self.sampling = Some(spec);
        self
    }

    /// Installs a content-addressed result cache (see the
    /// [`cache`](crate::cache) module): before simulating each
    /// single-workload cell the sweep consults the store by
    /// [`CellKey`], and every freshly simulated cell is written back.
    /// A fully cached workload skips its executor walk and trace
    /// recording entirely, and with a [fingerprint
    /// memo](Self::fingerprints) that already knows its spec it skips
    /// program synthesis too. Consolidation mixes always simulate.
    pub fn cell_store(mut self, store: Arc<dyn CellStore>) -> Self {
        self.cell_store = Some(store);
        self
    }

    /// Installs a [`FingerprintMemo`]: each workload's cell keys are
    /// resolved from the fingerprint the memo remembers for its spec,
    /// and its program is synthesized only when the memo does not know
    /// the spec or a cell of it has to simulate. Without a memo every
    /// program is built once per sweep. Reports are byte-identical
    /// either way; share one memo across sweeps (as fe-serve does for
    /// its lifetime) so repeated cached sweeps build nothing.
    pub fn fingerprints(mut self, memo: Arc<FingerprintMemo>) -> Self {
        self.fingerprint_memo = Some(memo);
        self
    }

    /// Installs a cooperative cancel flag: once set, workers finish the
    /// cells already in flight (persisting them to the cell store) and
    /// stop claiming new ones, making [`Self::try_run`] return
    /// [`Interrupted`]. The graceful-shutdown hook for long sweeps.
    pub fn cancel_flag(mut self, flag: Arc<AtomicBool>) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// Runs the sweep and derives per-cell metrics.
    ///
    /// Programs are built at most once per workload (and per distinct
    /// mix member) — with a [fingerprint memo](Self::fingerprints),
    /// only for workloads that simulate or feed a mix; each
    /// single-context workload's retired stream is then recorded once
    /// and replayed into every scheme cell (see the module docs). Each
    /// single workload is one job on the scoped worker threads, owning
    /// its program and trace only while it runs, so at most `threads`
    /// workloads are resident at once; a mix runs one job per scheme
    /// whose contexts interleave deterministically, so reports are
    /// byte-identical at any thread count. Panics if the sweep breaks [`check_sweep`], if a mix is
    /// sampled, or if a configured baseline is not among the schemes.
    pub fn run(self) -> SweepReport {
        self.try_run()
            // audit-allow(no-unchecked-panic): run() documents this panic — it only fires when a cancel flag tripped, and try_run is the typed alternative
            .unwrap_or_else(|i| panic!("Experiment::run: {i} (use try_run with a cancel flag)"))
    }

    /// Like [`Self::run`], but returns [`Interrupted`] instead of a
    /// report when the [cancel flag](Self::cancel_flag) stopped the
    /// sweep early. Completed cells were already persisted to the
    /// configured [`CellStore`], so re-running the same sweep resumes
    /// where it stopped.
    pub fn try_run(self) -> Result<SweepReport, Interrupted> {
        let Experiment {
            machine,
            workloads,
            mixes,
            schemes,
            len,
            seed,
            threads,
            baseline,
            progress,
            trace_dir,
            sampling,
            cell_store,
            fingerprint_memo,
            cancel,
        } = self;
        assert!(
            sampling.is_none() || mixes.is_empty(),
            "Experiment::run: sampled mode does not support consolidation mixes \
             (their streams are interference-coupled and cannot fast-forward independently)"
        );
        // A mix's cells are keyed by member id (`<mix>#<i>.<member>`),
        // so member ids share the workload-name namespace.
        let names: Vec<String> = workloads
            .iter()
            .map(|w| w.name.clone())
            .chain(mixes.iter().flat_map(MixSpec::member_ids))
            .collect();
        if let Err(e) = check_sweep(&names, &schemes, len, sampling) {
            // audit-allow(no-unchecked-panic): sweep-configuration contract — a malformed sweep is a caller bug caught before any cell runs
            panic!("Experiment::run: {e}");
        }
        let labels: Vec<String> = schemes.iter().map(SchemeSpec::label).collect();
        let baseline = baseline.or_else(|| {
            schemes
                .contains(&SchemeSpec::NoPrefetch)
                .then_some(SchemeSpec::NoPrefetch)
        });
        let baseline_idx = baseline.as_ref().map(|b| {
            schemes
                .iter()
                .position(|s| s == b)
                .expect("Experiment::run: baseline scheme is not in the scheme list")
        });

        let n_schemes = schemes.len();
        // Mixes run N contexts serially, making them the slowest jobs:
        // claim them first so they never tail the sweep. Results are
        // slotted by index, so ordering is invisible in the report.
        let mix_jobs = mixes.len() * n_schemes;
        // Total *cells* — what progress events and `Interrupted` count.
        let total = mix_jobs + workloads.len() * n_schemes;
        let memo = fingerprint_memo.as_deref();
        let build = |spec: &WorkloadSpec| {
            if let Some(memo) = memo {
                memo.note_built();
            }
            spec.build()
        };

        // Step 1, mix members: every mix job needs its members'
        // programs, so each *distinct* member spec is built once, up
        // front, and held for the whole sweep — a homogeneous mix
        // shares one build across all its copies, and a single
        // workload equal to a member borrows it in step 2.
        let mut member_specs: Vec<&WorkloadSpec> = Vec::new();
        for spec in mixes.iter().flat_map(|m| m.members.iter()) {
            if !member_specs.contains(&spec) {
                member_specs.push(spec);
            }
        }
        let built =
            parallel_indexed_cancellable(member_specs.len(), threads, cancel.as_deref(), |i| {
                build(member_specs[i])
            });
        let Some(member_programs) = built.into_iter().collect::<Option<Vec<Program>>>() else {
            return Err(Interrupted {
                completed: 0,
                total,
            });
        };
        let member_program = |spec: &WorkloadSpec| {
            let at = member_specs.iter().position(|s| *s == spec)?;
            Some(&member_programs[at])
        };

        // Step 2, one job per mix × scheme, then one per single
        // workload. A workload's job resolves its fingerprint from the
        // memo (or from a build, which teaches the memo), consults the
        // store for every scheme cell, and only if a cell is uncached
        // builds the program (unless it already has it), obtains the
        // trace — record once, replay many: one executor walk, covering
        // the run plus the pipeline's bounded lookahead, feeds every
        // scheme cell — and runs the uncached cells one after another:
        // a full-detail cell as a one-cell run, a sampled group with one
        // shared initial warm (see the `batch` module). The job drops
        // its program and trace before its thread claims the next job,
        // so a sweep holds at most `threads` workloads (plus the mix
        // members) however many it runs. The `sampling` binary's six
        // workloads at full scale and two threads peak at ~26 MiB this
        // way, against ~37 MiB when every workload stayed resident
        // (2-core host, one malloc arena).
        let needed_instrs = len.trace_instrs(&machine);
        let completed = AtomicUsize::new(0);
        // Each job yields the stats of its cells (one per scheme for a
        // single workload, one per member for a mix), plus the sampling
        // summary when the sweep runs sampled. `None` slots are jobs a
        // set cancel flag kept workers from claiming.
        type CellResult = (SimStats, Option<CellSampling>);
        let emit = |name: &str, si: usize, was_cached: bool| {
            if let Some(cb) = &progress {
                cb(&ProgressEvent {
                    completed: completed.fetch_add(1, Ordering::Relaxed) + 1,
                    total,
                    workload: WorkloadId(name.to_string()),
                    scheme: labels[si].clone(),
                    cached: was_cached,
                });
            }
        };
        let jobs = mix_jobs + workloads.len();
        let results: Vec<Option<Vec<CellResult>>> =
            parallel_indexed_cancellable(jobs, threads, cancel.as_deref(), |job| {
                if job < mix_jobs {
                    let (mi, si) = (job / n_schemes, job % n_schemes);
                    let members = mixes[mi]
                        .members
                        .iter()
                        .map(|spec| {
                            let program = member_program(spec).expect("step 1 built every member");
                            (program, schemes[si].build(&machine))
                        })
                        .collect();
                    let multi =
                        MultiSimulator::new(&machine, members, seed).run(len.warmup, len.measure);
                    let stats: Vec<CellResult> = multi
                        .contexts
                        .into_iter()
                        .map(|c| (c.stats, None))
                        .collect();
                    emit(&mixes[mi].name, si, false);
                    return stats;
                }

                let spec = &workloads[job - mix_jobs];
                let name = spec.name.as_str();
                let mut program = member_program(spec).map(Cow::Borrowed);
                let fingerprint = match memo.and_then(|m| m.get(spec)) {
                    Some(fingerprint) => fingerprint,
                    None => {
                        let fingerprint = ProgramFingerprint::of(
                            program.get_or_insert_with(|| Cow::Owned(build(spec))),
                        );
                        if let Some(memo) = memo {
                            memo.insert(spec, fingerprint);
                        }
                        fingerprint
                    }
                };
                // Only single-workload cells are cached: mix cells are
                // interference-coupled.
                let store = cell_store.as_deref().map(|store| {
                    let keys: Vec<CellKey> = schemes
                        .iter()
                        .map(|s| CellKey::for_cell(fingerprint, &machine, s, len, seed, sampling))
                        .collect();
                    (store, keys)
                });
                let mut cells: Vec<Option<CellResult>> = (0..n_schemes)
                    .map(|si| {
                        let (store, keys) = store.as_ref()?;
                        let value = store.get(&keys[si])?;
                        emit(name, si, true);
                        Some((value.stats, value.sampling))
                    })
                    .collect();
                let uncached: Vec<usize> =
                    (0..n_schemes).filter(|&si| cells[si].is_none()).collect();
                if !uncached.is_empty() {
                    let program: &Program = program.get_or_insert_with(|| Cow::Owned(build(spec)));
                    let trace = obtain_trace(program, seed, needed_instrs, trace_dir.as_deref());
                    let mut finish = |si: usize, cell: CellResult| {
                        if let Some((store, keys)) = &store {
                            let value = CellValue {
                                stats: cell.0.clone(),
                                sampling: cell.1.clone(),
                            };
                            store.put(&keys[si], &value);
                        }
                        cells[si] = Some(cell);
                        emit(name, si, false);
                    };
                    match sampling {
                        None => {
                            for &si in &uncached {
                                let sim = simulator(
                                    program,
                                    trace.replayer(),
                                    &schemes[si],
                                    &machine,
                                    seed,
                                );
                                finish(si, (run_full(sim, len), None));
                            }
                        }
                        Some(spec) => {
                            let group: Vec<SchemeSpec> =
                                uncached.iter().map(|&si| schemes[si].clone()).collect();
                            run_sampled_group(
                                program,
                                &trace,
                                &machine,
                                seed,
                                len,
                                spec,
                                &group,
                                |k, sampled| {
                                    assert!(
                                        !sampled.truncated,
                                        "sampled cell `{}` ran dry mid-run — record at least \
                                         RunLength::trace_instrs instructions",
                                        group[k].label(),
                                    );
                                    let summary = Some(CellSampling::of(&sampled));
                                    finish(uncached[k], (sampled.aggregate(), summary));
                                },
                            );
                        }
                    }
                }
                cells
                    .into_iter()
                    .map(|c| c.expect("every scheme cell resolved"))
                    .collect()
            });
        let done: usize = results
            .iter()
            .enumerate()
            .filter(|(_, r)| r.is_some())
            .map(|(j, _)| if j < mix_jobs { 1 } else { n_schemes })
            .sum();
        if done < total {
            return Err(Interrupted {
                completed: done,
                total,
            });
        }
        let results: Vec<Vec<CellResult>> = results
            .into_iter()
            .map(|r| r.expect("all jobs completed"))
            .collect();

        let mut cells = Vec::new();
        for (wi, wl) in workloads.iter().enumerate() {
            let base = baseline_idx.map(|bi| &results[mix_jobs + wi][bi].0);
            for (si, scheme) in schemes.iter().enumerate() {
                let (cell_stats, cell_sampling) = &results[mix_jobs + wi][si];
                cells.push(SweepCell {
                    workload: WorkloadId(wl.name.clone()),
                    scheme: scheme.clone(),
                    label: labels[si].clone(),
                    metrics: CellMetrics::derive(cell_stats, base),
                    stats: cell_stats.clone(),
                    sampling: cell_sampling.clone(),
                });
            }
        }
        for (mi, mix) in mixes.iter().enumerate() {
            for (ctx, member_id) in mix.member_ids().into_iter().enumerate() {
                // A member's baseline is the *same context of the same
                // mix* under the baseline scheme — interference-aware.
                let base = baseline_idx.map(|bi| &results[mi * n_schemes + bi][ctx].0);
                for (si, scheme) in schemes.iter().enumerate() {
                    let (cell_stats, cell_sampling) = &results[mi * n_schemes + si][ctx];
                    cells.push(SweepCell {
                        workload: WorkloadId(member_id.clone()),
                        scheme: scheme.clone(),
                        label: labels[si].clone(),
                        metrics: CellMetrics::derive(cell_stats, base),
                        stats: cell_stats.clone(),
                        sampling: cell_sampling.clone(),
                    });
                }
            }
        }

        let workload_ids = workloads
            .iter()
            .map(|w| WorkloadId(w.name.clone()))
            .chain(
                mixes
                    .iter()
                    .flat_map(|m| m.member_ids().into_iter().map(WorkloadId)),
            )
            .collect();
        Ok(SweepReport {
            len,
            seed,
            baseline: baseline_idx.map(|bi| labels[bi].clone()),
            sampling,
            workloads: workload_ids,
            schemes,
            cells,
        })
    }
}

/// The sweep rules [`Experiment::run`] enforces, for anything that
/// accepts a sweep on its behalf: at least one workload and one scheme,
/// unique workload names and scheme labels (report cells are keyed by
/// both), schemes whose geometry [can be built](SchemeSpec::validate),
/// and a sampling shape that [fits](SamplingSpec::check_measure).
pub fn check_sweep(
    workloads: &[String],
    schemes: &[SchemeSpec],
    len: RunLength,
    sampling: Option<SamplingSpec>,
) -> Result<(), String> {
    if workloads.is_empty() || schemes.is_empty() {
        return Err("a sweep needs at least one workload and one scheme".into());
    }
    for (i, name) in workloads.iter().enumerate() {
        if workloads[..i].contains(name) {
            return Err(format!(
                "duplicate workload name `{name}` (rename one spec — cells are keyed by name)"
            ));
        }
    }
    let labels: Vec<String> = schemes.iter().map(SchemeSpec::label).collect();
    for (i, label) in labels.iter().enumerate() {
        if labels[..i].contains(label) {
            return Err(format!("duplicate scheme label `{label}`"));
        }
    }
    for scheme in schemes {
        scheme.validate()?;
    }
    sampling.map_or(Ok(()), |spec| spec.check_measure(len.measure))
}

/// Produces the replay trace for one workload: reuses a compatible
/// recording from `dir` when present — a v2 store (`.fets`, written by
/// `trace convert`, checked first) or a flat v1 trace (`.fetr`) — otherwise
/// records a fresh walk (and persists it when `dir` is set). A cached
/// trace is compatible when its seed and program fingerprint match and
/// it is at least as long as this sweep needs — longer recordings
/// replay as a prefix, so shortening a sweep never invalidates the
/// cache. Stores are reconstructed to flat traces here (lossless, see
/// [`fe_trace::TraceStore::to_trace`]) so every downstream path — each
/// cell's own replayer, sampled, shared warm, content-addressed cache —
/// works over a store unchanged. A store that fails validation is
/// skipped like a missing one, and the workload is re-recorded.
fn obtain_trace(
    program: &Program,
    seed: u64,
    needed_instrs: u64,
    dir: Option<&std::path::Path>,
) -> Trace {
    let store_path = dir.map(|d| d.join(format!("{}-{seed:016x}.fets", program.name())));
    if let Some(path) = &store_path {
        if let Ok(store) = fe_trace::TraceStore::read_from(path) {
            let trace = store.to_trace();
            if trace.header().seed == seed
                && trace.header().instr_count >= needed_instrs
                && trace.matches(program)
                && cached_trace_matches_live(&trace, program, seed)
            {
                return trace;
            }
        }
    }
    let path = dir.map(|d| d.join(format!("{}-{seed:016x}.fetr", program.name())));
    if let Some(path) = &path {
        if let Ok(trace) = Trace::read_from(path) {
            if trace.header().seed == seed
                && trace.header().instr_count >= needed_instrs
                && trace.matches(program)
                && cached_trace_matches_live(&trace, program, seed)
            {
                return trace;
            }
        }
    }
    let trace = Trace::record(program, seed, needed_instrs);
    if let Some(path) = &path {
        let write = || -> Result<(), fe_trace::TraceError> {
            if let Some(parent) = path.parent() {
                std::fs::create_dir_all(parent)?;
            }
            trace.write_to(path)
        };
        if let Err(e) = write() {
            eprintln!("warning: could not persist trace {}: {e}", path.display());
        }
    }
    trace
}

/// Guards the disk cache against executor drift: the trace header
/// fingerprints the *program layout*, not the walk generator, so a
/// change to the executor algorithm or its RNG stream would otherwise
/// replay stale control flow forever. Cross-checking the recording's
/// opening blocks against a fresh walk catches divergence where it
/// first appears (seeding, RNG draws, dispatch selection); on mismatch
/// the caller silently re-records.
///
/// The probe decodes through the fallible [`Trace::reader`], so a
/// recording whose payload was damaged under a recomputed checksum and
/// fails to decode inside the probed blocks is re-recorded too. Damage
/// past the probe window still reaches the replayer, which panics on
/// it (ROADMAP item 13).
fn cached_trace_matches_live(trace: &Trace, program: &Program, seed: u64) -> bool {
    const PROBE_BLOCKS: u64 = 1024;
    let mut live = fe_cfg::Executor::new(program, seed);
    let mut recorded = trace.reader();
    (0..PROBE_BLOCKS.min(trace.header().block_count))
        .all(|_| recorded.next().and_then(Result::ok) == Some(live.next_block()))
}

/// Runs `task(0..count)` across up to `threads` scoped workers and
/// returns the results in index order, whatever the completion order.
/// Cancellation is cooperative: workers check `cancel` before
/// *claiming* each index and stop claiming once it is set —
/// already-claimed work always runs to completion, so a set flag never
/// leaves a task half-done. Unclaimed slots come back `None`.
///
/// A step that would start at most one worker runs on the caller's
/// thread instead, with the same per-index cancel check: no thread is
/// spawned, and a panicking task reaches the caller with its own
/// message.
fn parallel_indexed_cancellable<T: Send>(
    count: usize,
    threads: usize,
    cancel: Option<&AtomicBool>,
    task: impl Fn(usize) -> T + Sync,
) -> Vec<Option<T>> {
    let cancelled = || cancel.is_some_and(|flag| flag.load(Ordering::Relaxed));
    let workers = threads.min(count);
    if workers <= 1 {
        let mut slots: Vec<Option<T>> = Vec::with_capacity(count);
        for i in 0..count {
            if cancelled() {
                break;
            }
            slots.push(Some(task(i)));
        }
        slots.resize_with(count, || None);
        return slots;
    }
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..count).map(|_| None).collect());
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                if cancelled() {
                    return;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    return;
                }
                let value = task(i);
                slots
                    .lock()
                    .expect("result-slot mutex poisoned: a sibling worker panicked")[i] =
                    Some(value);
            });
        }
    });
    slots
        .into_inner()
        .expect("result-slot mutex poisoned: a worker panicked")
}

/// Metrics derived once per cell when the sweep completes, so no
/// consumer of a report recomputes them.
#[derive(Clone, Debug, PartialEq)]
pub struct CellMetrics {
    /// Instructions per cycle.
    pub ipc: f64,
    /// L1-I demand misses per kilo-instruction.
    pub l1i_mpki: f64,
    /// BTB misses per kilo-instruction (Table 1).
    pub btb_mpki: f64,
    /// Fig. 10 prefetch accuracy.
    pub prefetch_accuracy: f64,
    /// Fig. 11 average L1-D miss fill latency, in cycles.
    pub l1d_fill_latency: f64,
    /// Speedup over the sweep baseline (`None` without a baseline).
    pub speedup: Option<f64>,
    /// Front-end stall-cycle coverage over the baseline.
    pub coverage: Option<f64>,
}

impl CellMetrics {
    fn derive(stats: &SimStats, baseline: Option<&SimStats>) -> Self {
        CellMetrics {
            ipc: stats.ipc(),
            l1i_mpki: stats.l1i_mpki(),
            btb_mpki: stats.btb_mpki(),
            prefetch_accuracy: stats.prefetch_accuracy(),
            l1d_fill_latency: stats.avg_l1d_fill_latency(),
            speedup: baseline.map(|b| speedup(b, stats)),
            coverage: baseline.map(|b| coverage(b, stats)),
        }
    }
}

/// One (workload, scheme) cell of a completed sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepCell {
    /// The workload this cell ran.
    pub workload: WorkloadId,
    /// The scheme this cell ran — the typed key.
    pub scheme: SchemeSpec,
    /// The scheme's display label (unique within the sweep).
    pub label: String,
    /// Raw measured statistics (the aggregate over intervals when the
    /// sweep ran sampled).
    pub stats: SimStats,
    /// Metrics derived against the sweep baseline.
    pub metrics: CellMetrics,
    /// Sampled-mode summary (interval count, per-interval mean ± 95%
    /// CI); `None` for full-detail sweeps.
    pub sampling: Option<CellSampling>,
}

/// A completed sweep: every cell, keyed by `(WorkloadId, SchemeSpec)`,
/// plus the run parameters that produced it.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepReport {
    /// Warmup/measure lengths every cell used.
    pub len: RunLength,
    /// The shared executor seed.
    pub seed: u64,
    /// Label of the baseline scheme metrics are derived against.
    pub baseline: Option<String>,
    /// Sampled-mode shape the sweep ran with (`None` = full detail).
    pub sampling: Option<SamplingSpec>,
    /// Workloads in sweep order.
    pub workloads: Vec<WorkloadId>,
    /// Schemes in sweep order.
    pub schemes: Vec<SchemeSpec>,
    /// Cells in (workload-major, scheme-minor) order.
    pub cells: Vec<SweepCell>,
}

impl SweepReport {
    /// Looks up a cell by its typed key. Panics (with the key) when
    /// the sweep has no such cell.
    pub fn cell(&self, workload: &str, scheme: &SchemeSpec) -> &SweepCell {
        self.cells
            .iter()
            .find(|c| c.workload == *workload && c.scheme == *scheme)
            // audit-allow(no-unchecked-panic): documented accessor contract — asking for a cell the sweep never ran is a figure-binary bug, and the panic names the key
            .unwrap_or_else(|| panic!("no cell ({workload}, {scheme:?}) in sweep"))
    }

    /// Looks up a cell by workload name and scheme label.
    pub fn cell_labeled(&self, workload: &str, label: &str) -> &SweepCell {
        self.cells
            .iter()
            .find(|c| c.workload == *workload && c.label == label)
            // audit-allow(no-unchecked-panic): documented accessor contract — asking for a cell the sweep never ran is a figure-binary bug, and the panic names the key
            .unwrap_or_else(|| panic!("no cell ({workload}, {label}) in sweep"))
    }

    /// Workload names in sweep order.
    pub fn workload_names(&self) -> Vec<&str> {
        self.workloads.iter().map(|w| w.as_str()).collect()
    }

    /// Scheme labels in sweep order.
    pub fn scheme_labels(&self) -> Vec<String> {
        self.schemes.iter().map(|s| s.label()).collect()
    }

    /// Scheme labels excluding the baseline — the series most figures
    /// plot.
    pub fn comparison_labels(&self) -> Vec<String> {
        self.scheme_labels()
            .into_iter()
            .filter(|l| Some(l) != self.baseline.as_ref())
            .collect()
    }

    /// Serializes the report (deterministic: same report ⇒ same bytes).
    pub fn to_json(&self) -> String {
        self.to_json_value().render()
    }

    /// Writes [`Self::to_json`] to `path`.
    pub fn write_json(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Parses a report previously emitted by [`Self::to_json`].
    pub fn from_json(text: &str) -> Result<SweepReport, String> {
        Self::from_json_value(&parse(text)?)
    }

    fn to_json_value(&self) -> Json {
        let mut run_members = vec![
            ("warmup".into(), Json::U64(self.len.warmup)),
            ("measure".into(), Json::U64(self.len.measure)),
            ("seed".into(), Json::U64(self.seed)),
            (
                "baseline".into(),
                self.baseline
                    .as_ref()
                    .map_or(Json::Null, |b| Json::Str(b.clone())),
            ),
        ];
        // Emitted only for sampled sweeps: full-detail reports keep
        // their historical byte shape (the pinned fixture is a byte
        // diff).
        if let Some(spec) = &self.sampling {
            run_members.push(("sampling".into(), spec.to_json()));
        }
        let run = Json::Obj(run_members);
        let workloads = Json::Arr(
            self.workloads
                .iter()
                .map(|w| Json::Str(w.0.clone()))
                .collect(),
        );
        let schemes = Json::Arr(self.schemes.iter().map(scheme_to_json).collect());
        let cells = Json::Arr(self.cells.iter().map(cell_to_json).collect());
        Json::Obj(vec![
            ("run".into(), run),
            ("workloads".into(), workloads),
            ("schemes".into(), schemes),
            ("cells".into(), cells),
        ])
    }

    fn from_json_value(doc: &Json) -> Result<SweepReport, String> {
        let run = doc.req("run")?;
        let len = RunLength {
            warmup: run.req("warmup")?.as_u64()?,
            measure: run.req("measure")?.as_u64()?,
        };
        let seed = run.req("seed")?.as_u64()?;
        let baseline = match run.req("baseline")? {
            Json::Null => None,
            other => Some(other.as_str()?.to_string()),
        };
        // Absent in pre-sampling reports (and every full-detail one).
        let sampling = run
            .get("sampling")
            .map(SamplingSpec::from_json)
            .transpose()?;
        let workloads = doc
            .req("workloads")?
            .as_arr()?
            .iter()
            .map(|w| Ok(WorkloadId(w.as_str()?.to_string())))
            .collect::<Result<Vec<_>, String>>()?;
        let schemes = doc
            .req("schemes")?
            .as_arr()?
            .iter()
            .map(scheme_from_json)
            .collect::<Result<Vec<_>, String>>()?;
        let cells = doc
            .req("cells")?
            .as_arr()?
            .iter()
            .map(cell_from_json)
            .collect::<Result<Vec<_>, String>>()?;
        Ok(SweepReport {
            len,
            seed,
            baseline,
            sampling,
            workloads,
            schemes,
            cells,
        })
    }
}

fn policy_token(policy: RegionPolicy) -> &'static str {
    match policy {
        RegionPolicy::NoBitVector => "no-bit-vector",
        RegionPolicy::Bit8 => "bit8",
        RegionPolicy::Bit32 => "bit32",
        RegionPolicy::EntireRegion => "entire-region",
        RegionPolicy::FiveBlocks => "five-blocks",
    }
}

fn policy_from_token(token: &str) -> Result<RegionPolicy, String> {
    RegionPolicy::ALL
        .into_iter()
        .find(|p| policy_token(*p) == token)
        .ok_or_else(|| format!("unknown region policy `{token}`"))
}

/// Encodes a scheme spec as the canonical JSON object used in report
/// cells, cache keys, and the experiment-service wire protocol.
pub fn scheme_to_json(spec: &SchemeSpec) -> Json {
    let mut members = Vec::new();
    match spec {
        SchemeSpec::NoPrefetch => members.push(("kind".into(), Json::Str("no-prefetch".into()))),
        SchemeSpec::Fdip => members.push(("kind".into(), Json::Str("fdip".into()))),
        SchemeSpec::Boomerang { btb_entries } => {
            members.push(("kind".into(), Json::Str("boomerang".into())));
            members.push(("btb_entries".into(), Json::U64(*btb_entries as u64)));
        }
        SchemeSpec::Confluence => members.push(("kind".into(), Json::Str("confluence".into()))),
        SchemeSpec::Ideal => members.push(("kind".into(), Json::Str("ideal".into()))),
        SchemeSpec::Shotgun(cfg) => {
            members.push(("kind".into(), Json::Str("shotgun".into())));
            members.push(("ubtb".into(), Json::U64(cfg.sizing.ubtb as u64)));
            members.push(("cbtb".into(), Json::U64(cfg.sizing.cbtb as u64)));
            members.push(("rib".into(), Json::U64(cfg.sizing.rib as u64)));
            members.push(("policy".into(), Json::Str(policy_token(cfg.policy).into())));
            members.push(("ways".into(), Json::U64(cfg.ways as u64)));
            members.push((
                "prefetch_buffer".into(),
                Json::U64(cfg.prefetch_buffer as u64),
            ));
        }
    }
    Json::Obj(members)
}

/// Decodes a scheme spec from its [`scheme_to_json`] encoding.
pub fn scheme_from_json(doc: &Json) -> Result<SchemeSpec, String> {
    let as_u32 = |key: &str| -> Result<u32, String> {
        let v = doc.req(key)?.as_u64()?;
        u32::try_from(v).map_err(|_| format!("`{key}` out of range: {v}"))
    };
    match doc.req("kind")?.as_str()? {
        "no-prefetch" => Ok(SchemeSpec::NoPrefetch),
        "fdip" => Ok(SchemeSpec::Fdip),
        "boomerang" => Ok(SchemeSpec::Boomerang {
            btb_entries: as_u32("btb_entries")?,
        }),
        "confluence" => Ok(SchemeSpec::Confluence),
        "ideal" => Ok(SchemeSpec::Ideal),
        "shotgun" => Ok(SchemeSpec::Shotgun(ShotgunConfig {
            sizing: fe_model::storage::ShotgunSizing {
                ubtb: as_u32("ubtb")?,
                cbtb: as_u32("cbtb")?,
                rib: as_u32("rib")?,
            },
            policy: policy_from_token(doc.req("policy")?.as_str()?)?,
            ways: as_u32("ways")?,
            prefetch_buffer: as_u32("prefetch_buffer")?,
        })),
        other => Err(format!("unknown scheme kind `{other}`")),
    }
}

fn f64_to_json(v: f64) -> Json {
    Json::F64(v)
}

fn opt_f64_to_json(v: Option<f64>) -> Json {
    v.map_or(Json::Null, Json::F64)
}

/// Encodes measured statistics exactly as report cells do — shared
/// with the cell cache so that served results are byte-identical to
/// computed ones.
pub(crate) fn stats_to_json(s: &SimStats) -> Json {
    Json::Obj(vec![
        ("cycles".into(), Json::U64(s.cycles)),
        ("instructions".into(), Json::U64(s.instructions)),
        ("branches".into(), Json::U64(s.branches)),
        (
            "unconditional_branches".into(),
            Json::U64(s.unconditional_branches),
        ),
        ("stall_icache_miss".into(), Json::U64(s.stalls.icache_miss)),
        ("stall_btb_resolve".into(), Json::U64(s.stalls.btb_resolve)),
        ("stall_ftq_empty".into(), Json::U64(s.stalls.ftq_empty)),
        ("stall_redirect".into(), Json::U64(s.stalls.redirect)),
        (
            "backend_stall_cycles".into(),
            Json::U64(s.backend_stall_cycles),
        ),
        ("l1i_accesses".into(), Json::U64(s.l1i_accesses)),
        ("l1i_misses".into(), Json::U64(s.l1i_misses)),
        ("btb_lookups".into(), Json::U64(s.btb_lookups)),
        ("btb_misses".into(), Json::U64(s.btb_misses)),
        (
            "direction_mispredicts".into(),
            Json::U64(s.direction_mispredicts),
        ),
        ("misfetches".into(), Json::U64(s.misfetches)),
        ("misfetch_cond".into(), Json::U64(s.misfetch_cond)),
        ("misfetch_return".into(), Json::U64(s.misfetch_return)),
        ("misfetch_uncond".into(), Json::U64(s.misfetch_uncond)),
        ("prefetch_issued".into(), Json::U64(s.prefetch.issued)),
        ("prefetch_useful".into(), Json::U64(s.prefetch.useful)),
        ("prefetch_late".into(), Json::U64(s.prefetch.late)),
        ("prefetch_wasted".into(), Json::U64(s.prefetch.wasted)),
        ("loads".into(), Json::U64(s.loads)),
        ("l1d_misses".into(), Json::U64(s.l1d_misses)),
        ("l1d_fill_cycles".into(), Json::U64(s.l1d_fill_cycles)),
        ("noc_messages".into(), Json::U64(s.noc_messages)),
    ])
}

/// Encodes a sampled-cell summary exactly as report cells do (see
/// [`stats_to_json`]).
pub(crate) fn sampling_to_json(sampling: &CellSampling) -> Json {
    Json::Obj(vec![
        ("intervals".into(), Json::U64(sampling.intervals)),
        ("ipc_mean".into(), f64_to_json(sampling.ipc.mean)),
        ("ipc_ci95".into(), f64_to_json(sampling.ipc.ci95)),
        ("l1i_mpki_mean".into(), f64_to_json(sampling.l1i_mpki.mean)),
        ("l1i_mpki_ci95".into(), f64_to_json(sampling.l1i_mpki.ci95)),
        (
            "fe_stall_pki_mean".into(),
            f64_to_json(sampling.fe_stall_pki.mean),
        ),
        (
            "fe_stall_pki_ci95".into(),
            f64_to_json(sampling.fe_stall_pki.ci95),
        ),
    ])
}

fn cell_to_json(cell: &SweepCell) -> Json {
    let stats = stats_to_json(&cell.stats);
    let m = &cell.metrics;
    let metrics = Json::Obj(vec![
        ("ipc".into(), f64_to_json(m.ipc)),
        ("l1i_mpki".into(), f64_to_json(m.l1i_mpki)),
        ("btb_mpki".into(), f64_to_json(m.btb_mpki)),
        ("prefetch_accuracy".into(), f64_to_json(m.prefetch_accuracy)),
        ("l1d_fill_latency".into(), f64_to_json(m.l1d_fill_latency)),
        ("speedup".into(), opt_f64_to_json(m.speedup)),
        ("coverage".into(), opt_f64_to_json(m.coverage)),
    ]);
    let mut members = vec![
        ("workload".into(), Json::Str(cell.workload.0.clone())),
        ("scheme".into(), scheme_to_json(&cell.scheme)),
        ("label".into(), Json::Str(cell.label.clone())),
        ("stats".into(), stats),
        ("metrics".into(), metrics),
    ];
    // Sampled sweeps only — full-detail cell JSON keeps its historical
    // byte shape.
    if let Some(sampling) = &cell.sampling {
        members.push(("sampling".into(), sampling_to_json(sampling)));
    }
    Json::Obj(members)
}

/// Decodes [`stats_to_json`] output.
pub(crate) fn stats_from_json(stats_doc: &Json) -> Result<SimStats, String> {
    let u = |key: &str| stats_doc.req(key)?.as_u64();
    Ok(SimStats {
        cycles: u("cycles")?,
        instructions: u("instructions")?,
        branches: u("branches")?,
        unconditional_branches: u("unconditional_branches")?,
        stalls: fe_model::stats::StallBreakdown {
            icache_miss: u("stall_icache_miss")?,
            btb_resolve: u("stall_btb_resolve")?,
            ftq_empty: u("stall_ftq_empty")?,
            redirect: u("stall_redirect")?,
        },
        backend_stall_cycles: u("backend_stall_cycles")?,
        l1i_accesses: u("l1i_accesses")?,
        l1i_misses: u("l1i_misses")?,
        btb_lookups: u("btb_lookups")?,
        btb_misses: u("btb_misses")?,
        direction_mispredicts: u("direction_mispredicts")?,
        misfetches: u("misfetches")?,
        misfetch_cond: u("misfetch_cond")?,
        misfetch_return: u("misfetch_return")?,
        misfetch_uncond: u("misfetch_uncond")?,
        prefetch: fe_model::stats::PrefetchStats {
            issued: u("prefetch_issued")?,
            useful: u("prefetch_useful")?,
            late: u("prefetch_late")?,
            wasted: u("prefetch_wasted")?,
        },
        loads: u("loads")?,
        l1d_misses: u("l1d_misses")?,
        l1d_fill_cycles: u("l1d_fill_cycles")?,
        noc_messages: u("noc_messages")?,
    })
}

/// Decodes [`sampling_to_json`] output.
pub(crate) fn sampling_from_json(s: &Json) -> Result<CellSampling, String> {
    let sf = |key: &str| s.req(key)?.as_f64();
    Ok(CellSampling {
        intervals: s.req("intervals")?.as_u64()?,
        ipc: MeanCi {
            mean: sf("ipc_mean")?,
            ci95: sf("ipc_ci95")?,
        },
        l1i_mpki: MeanCi {
            mean: sf("l1i_mpki_mean")?,
            ci95: sf("l1i_mpki_ci95")?,
        },
        fe_stall_pki: MeanCi {
            mean: sf("fe_stall_pki_mean")?,
            ci95: sf("fe_stall_pki_ci95")?,
        },
    })
}

fn cell_from_json(doc: &Json) -> Result<SweepCell, String> {
    let stats = stats_from_json(doc.req("stats")?)?;
    let metrics_doc = doc.req("metrics")?;
    let f = |key: &str| metrics_doc.req(key)?.as_f64();
    let opt_f = |key: &str| -> Result<Option<f64>, String> {
        match metrics_doc.req(key)? {
            Json::Null => Ok(None),
            other => Ok(Some(other.as_f64()?)),
        }
    };
    let metrics = CellMetrics {
        ipc: f("ipc")?,
        l1i_mpki: f("l1i_mpki")?,
        btb_mpki: f("btb_mpki")?,
        prefetch_accuracy: f("prefetch_accuracy")?,
        l1d_fill_latency: f("l1d_fill_latency")?,
        speedup: opt_f("speedup")?,
        coverage: opt_f("coverage")?,
    };
    let sampling = match doc.get("sampling") {
        None => None,
        Some(s) => Some(sampling_from_json(s)?),
    };
    Ok(SweepCell {
        workload: WorkloadId(doc.req("workload")?.as_str()?.to_string()),
        scheme: scheme_from_json(doc.req("scheme")?)?,
        label: doc.req("label")?.as_str()?.to_string(),
        stats,
        metrics,
        sampling,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_stats(cycles: u64) -> SimStats {
        SimStats {
            cycles,
            instructions: 1000,
            branches: 100,
            ..Default::default()
        }
    }

    fn fake_report() -> SweepReport {
        let schemes = vec![SchemeSpec::NoPrefetch, SchemeSpec::shotgun()];
        let base = fake_stats(2000);
        let fast = fake_stats(1000);
        let cells = vec![
            SweepCell {
                workload: WorkloadId("wl".into()),
                scheme: schemes[0].clone(),
                label: "no-prefetch".into(),
                metrics: CellMetrics::derive(&base, Some(&base)),
                stats: base.clone(),
                sampling: None,
            },
            SweepCell {
                workload: WorkloadId("wl".into()),
                scheme: schemes[1].clone(),
                label: "shotgun".into(),
                metrics: CellMetrics::derive(&fast, Some(&base)),
                stats: fast,
                sampling: None,
            },
        ];
        SweepReport {
            len: RunLength::SMOKE,
            seed: 7,
            baseline: Some("no-prefetch".into()),
            sampling: None,
            workloads: vec![WorkloadId("wl".into())],
            schemes,
            cells,
        }
    }

    fn fake_sampled_report() -> SweepReport {
        let mut report = fake_report();
        report.sampling = Some(SamplingSpec::DEFAULT);
        for (i, cell) in report.cells.iter_mut().enumerate() {
            cell.sampling = Some(CellSampling {
                intervals: 12,
                ipc: MeanCi {
                    mean: 1.5 + i as f64,
                    ci95: 0.125,
                },
                l1i_mpki: MeanCi {
                    mean: 20.0,
                    ci95: 1.75,
                },
                fe_stall_pki: MeanCi {
                    mean: 300.5,
                    ci95: 12.25,
                },
            });
        }
        report
    }

    #[test]
    fn typed_and_labeled_lookup_agree() {
        let report = fake_report();
        let by_type = report.cell("wl", &SchemeSpec::shotgun());
        let by_label = report.cell_labeled("wl", "shotgun");
        assert_eq!(by_type, by_label);
        assert_eq!(by_type.metrics.speedup, Some(2.0));
    }

    #[test]
    #[should_panic(expected = "no cell")]
    fn missing_cell_panics_with_key() {
        fake_report().cell("wl", &SchemeSpec::Ideal);
    }

    #[test]
    fn report_json_round_trips() {
        let report = fake_report();
        let text = report.to_json();
        let back = SweepReport::from_json(&text).expect("parses");
        assert_eq!(back, report);
        assert_eq!(back.to_json(), text, "re-serialization is stable");
    }

    #[test]
    fn sampled_report_json_round_trips_and_full_detail_shape_is_unchanged() {
        let sampled = fake_sampled_report();
        let text = sampled.to_json();
        assert!(text.contains("\"sampling\""));
        assert!(text.contains("\"fe_stall_pki_ci95\""));
        let back = SweepReport::from_json(&text).expect("parses");
        assert_eq!(back, sampled);
        assert_eq!(back.to_json(), text, "re-serialization is stable");

        // Full-detail reports must not grow any sampling keys — the
        // pinned engine-regression fixture is a byte diff.
        let full = fake_report();
        assert!(!full.to_json().contains("sampling"));
    }

    #[test]
    fn every_scheme_spec_round_trips() {
        let specs = [
            SchemeSpec::NoPrefetch,
            SchemeSpec::Fdip,
            SchemeSpec::Boomerang { btb_entries: 4096 },
            SchemeSpec::Confluence,
            SchemeSpec::Ideal,
            SchemeSpec::shotgun(),
            SchemeSpec::Shotgun(ShotgunConfig::for_budget(512)),
            SchemeSpec::Shotgun(ShotgunConfig::default().with_policy(RegionPolicy::FiveBlocks)),
            SchemeSpec::Shotgun(ShotgunConfig::default().with_policy(RegionPolicy::NoBitVector)),
            SchemeSpec::Shotgun(ShotgunConfig::default().with_cbtb_entries(1024)),
        ];
        for spec in specs {
            let doc = scheme_to_json(&spec);
            let text = doc.render();
            let back = scheme_from_json(&parse(&text).unwrap()).unwrap();
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn comparison_labels_exclude_baseline() {
        let report = fake_report();
        assert_eq!(report.comparison_labels(), vec!["shotgun".to_string()]);
    }
}
