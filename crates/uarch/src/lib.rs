#![forbid(unsafe_code)]
//! # fe-uarch — microarchitectural substrate
//!
//! Hardware building blocks shared by every control-flow-delivery scheme
//! in the Shotgun reproduction:
//!
//! * [`setmap::SetAssocMap`] — a generic set-associative, LRU-replaced
//!   structure; the storage substrate for every cache and BTB variant.
//! * [`cache::LineCache`] — instruction/data cache with per-line
//!   prefetch/first-use tracking (feeds Fig. 10's accuracy metric).
//! * [`mem::MemorySystem`] — the shared NoC + NUCA LLC + memory path
//!   with queueing and background traffic from the 15 undetailed cores
//!   (Table 3's 4x4 mesh; feeds Fig. 11's fill-latency experiment).
//! * [`tage::Tage`] — the 8 KB TAGE conditional direction predictor.
//! * [`ras::ReturnAddressStack`] — checkpoint-free RAS extended, as
//!   §4.2.3 requires, with the call's basic-block address.
//! * [`btb::Btb`] — the conventional basic-block-oriented BTB used by
//!   the baselines (93-bit entries, §5.2).
//! * [`queue::BoundedQueue`] — FTQ / buffer primitive.
//! * [`predecode`] — branch-metadata extraction from fetched lines.

pub mod btb;
pub mod cache;
pub mod fasthash;
pub mod inflight;
pub mod mem;
pub mod predecode;
pub mod queue;
pub mod ras;
pub mod scheme;
pub mod setmap;
pub mod tage;

pub use btb::Btb;
pub use cache::{AccessOutcome, Evicted, LineCache};
pub use fasthash::{BuildSplitMix64, FastMap, FastSet, SplitMix64Hasher};
pub use inflight::InflightFills;
pub use mem::{MemClass, MemSnapshot, MemStats, MemorySystem};
pub use queue::BoundedQueue;
pub use ras::{RasEntry, ReturnAddressStack};
pub use scheme::{BpuOutcome, ControlFlowDelivery, FrontEndCtx, PredictedBlock};
pub use setmap::SetAssocMap;
pub use tage::Tage;
