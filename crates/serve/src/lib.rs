#![forbid(unsafe_code)]
//! # fe-serve — the experiment service
//!
//! A daemon that turns the repo's sweep engine into a long-running
//! service: clients submit sweep specifications over TCP, the service
//! runs them through [`fe_sim::Experiment`] — a job the cache fully
//! answers at submission, every other job in submission order on one
//! worker — streams
//! per-cell progress, and returns the final
//! [`SweepReport`](fe_sim::SweepReport) JSON. Three storage layers
//! make repeated and interrupted work cheap:
//!
//! * **Content-addressed result cache** ([`DiskCellStore`]) — every
//!   completed cell is persisted under its
//!   [`CellKey`](fe_sim::CellKey) (trace fingerprint × config hash ×
//!   engine version). Resubmitting a sweep serves every cell from disk,
//!   **byte-identical** to computing it: cached values run through the
//!   exact JSON encoders report cells use.
//! * **Resumable jobs** — an acknowledged job is durable before the
//!   ack (write-to-temp + fsync + rename, never torn): a fully cached
//!   job by its report, any other job by its pending spec. A cell
//!   is a deterministic function of its key, so the pending spec plus
//!   the cell cache is the whole checkpoint: a killed daemon re-enqueues
//!   pending specs on restart and recomputes nothing that already
//!   finished.
//! * **Program fingerprint memo** ([`fe_sim::FingerprintMemo`]) — each
//!   workload spec's program fingerprint, remembered in memory for the
//!   daemon's lifetime, so cell keys resolve without synthesis and a
//!   fully cached job builds no program. It holds fingerprints, not
//!   programs, to keep the daemon's memory flat.
//!
//! The in-process [`ExperimentService`] carries all the semantics;
//! [`Server`] is a thin TCP front speaking length-prefixed JSON frames
//! (see [`protocol`]), and the `fe-serve` binary wires both to a root
//! directory, an address, and SIGINT/SIGTERM-triggered graceful
//! shutdown.

pub mod protocol;
pub mod server;
pub mod service;
pub mod store;

pub use protocol::{submit_job, ClientOutcome};
pub use server::Server;
pub use service::{ExperimentService, JobId, JobProgress, JobSpec, JobState, JobWorkload};
pub use store::DiskCellStore;
