#![forbid(unsafe_code)]
//! # fe-sim — cycle-level front-end timing simulation
//!
//! Drives any control-flow-delivery scheme (the `shotgun` crate's
//! prefetcher or any `fe-baselines` scheme) through a decoupled
//! front-end pipeline against the synthetic server workloads of
//! `fe-cfg`, producing the statistics the paper's evaluation reports:
//! speedup over a no-prefetch baseline, front-end stall-cycle coverage,
//! L1-I / BTB MPKI, prefetch accuracy, and L1-D fill latency.
//!
//! The entry point is the [`Experiment`] session builder, which runs a
//! (workload × scheme) sweep across worker threads and returns a typed
//! [`SweepReport`] with derived metrics and JSON emission. Sweeps are
//! trace-driven: each workload's retired stream is recorded once (an
//! `fe-trace` recording) and replayed into every scheme cell, bit-
//! identical to live execution. For paper-scale instruction counts,
//! [`Experiment::sampling`] switches cells to interval sampling with
//! functional warming (see the [`sampling`] module).
//!
//! Single measurements use the one-cell [`run_scheme`] (live),
//! [`run_scheme_replayed`] and [`run_scheme_sampled_replayed`]
//! (trace-driven) wrappers, or a [`Simulator`] built directly —
//! [`Simulator::new`] over a live walk, [`Simulator::with_source`] over
//! any [`SourceKind`] — and driven by [`Simulator::run`] or
//! [`Simulator::run_sampled`]. [`MultiSimulator`] runs consolidated
//! contexts over one shared memory system.
//!
//! Every run takes the same path: one [`Simulator`] per cell, reading
//! its own source, with quiet-span skipping always on. A run is
//! straight-line code: [`Simulator::run`] for full detail (see the
//! [`engine`] module), [`Simulator::run_sampled`] for interval
//! sampling. A sweep workload's uncached cells run one after another
//! over the recorded trace: each full-detail cell as a one-cell run,
//! and a sampled group with one shared initial warm
//! ([`run_schemes_batch_sampled_replayed`] is that group run on its
//! own).
//!
//! [`Experiment::cell_store`] serves repeated cells from a
//! content-addressed [`CellStore`] (see the [`cache`] module). With a
//! [`FingerprintMemo`] installed as well ([`Experiment::fingerprints`]),
//! a workload's cell keys resolve without synthesizing its program, and
//! only workloads with a cell left to simulate build one.
//!
//! ```no_run
//! use fe_cfg::workloads;
//! use fe_model::MachineConfig;
//! use fe_sim::{Experiment, RunLength, SchemeSpec};
//!
//! let report = Experiment::new(MachineConfig::table3())
//!     .workload(workloads::nutch())
//!     .schemes([SchemeSpec::NoPrefetch, SchemeSpec::shotgun()])
//!     .len(RunLength::SMOKE)
//!     .seed(7)
//!     .run();
//! let cell = report.cell("nutch", &SchemeSpec::shotgun());
//! println!("speedup {:.2}", cell.metrics.speedup.unwrap());
//! ```

mod batch;
pub mod cache;
pub mod engine;
pub mod experiment;
pub mod json;
pub mod multi;
mod pipeline;
mod runner;
pub mod sampling;
mod snapshot;
mod source;

pub use batch::{
    run_schemes_batch_replayed, run_schemes_batch_sampled_replayed, SharedCursor, SharedWindow,
};
pub use cache::{
    config_hash, CellKey, CellStore, CellValue, FingerprintMemo, MemoryCellStore, ENGINE_VERSION,
};
pub use engine::{EngineScheme, SchemeKind, Simulator};
pub use experiment::{
    check_sweep, scheme_from_json, scheme_to_json, CellMetrics, Experiment, Interrupted,
    ProgressEvent, SweepCell, SweepReport, WorkloadId,
};
pub use fe_trace::ProgramFingerprint;
pub use multi::{derive_ctx_seed, ContextStats, MultiSimulator, MultiStats};
pub use runner::{
    run_scheme, run_scheme_replayed, run_scheme_sampled_replayed, RunLength, SchemeSpec,
};
pub use sampling::{CellSampling, MeanCi, SampledStats, SamplingSpec};
pub use source::SourceKind;
