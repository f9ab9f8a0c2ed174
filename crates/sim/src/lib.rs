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
//! functional warming (see the [`sampling`] module). The one-cell
//! [`run_scheme`] (live), [`run_scheme_replayed`] (trace-driven) and
//! [`run_scheme_sampled`]/[`run_scheme_sampled_replayed`] wrappers
//! remain for single measurements.
//!
//! Every run takes the same path: one [`Simulator`] per cell, reading
//! its own source and advancing through the one run driver (see the
//! [`engine`] module) with quiet-span skipping always on. A sweep
//! workload's uncached cells run one after another as a
//! [`BatchSimulator`] over the recorded trace, which shares only a
//! sampled sweep's initial warm; each one-cell wrapper builds its one
//! simulator directly.
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

pub mod batch;
pub mod cache;
pub mod engine;
pub mod experiment;
pub mod json;
pub mod multi;
mod pipeline;
pub mod report;
pub mod runner;
pub mod sampling;
pub mod snapshot;
pub mod source;

pub use batch::{
    run_schemes_batch_replayed, run_schemes_batch_sampled_replayed, BatchSimulator, SharedCursor,
    SharedWindow,
};
pub use cache::{config_hash, CellKey, CellStore, CellValue, MemoryCellStore, ENGINE_VERSION};
pub use engine::{EngineScheme, SchemeKind, Simulator};
pub use experiment::{
    scheme_from_json, scheme_to_json, CellMetrics, Experiment, Interrupted, ProgressEvent,
    SweepCell, SweepReport, WorkloadId,
};
pub use fe_trace::ProgramFingerprint;
pub use multi::{derive_ctx_seed, ContextStats, MultiSimulator, MultiStats};
pub use report::{render_table, Series};
pub use runner::{
    run_scheme, run_scheme_replayed, run_scheme_sampled, run_scheme_sampled_replayed,
    run_scheme_store_replayed, RunLength, SchemeSpec,
};
pub use sampling::{CellSampling, MeanCi, SampledStats, SamplingSpec};
pub use snapshot::{SnapshotKey, SnapshotStore, WarmSnapshot};
pub use source::SourceKind;
