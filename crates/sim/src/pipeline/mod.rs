//! The staged front-end pipeline.
//!
//! Pipeline shape (see "Simulator pipeline" in the repository README):
//!
//! ```text
//!   BPU(scheme) → FTQ → fetch unit (L1-I) → supply buffer → backend
//!        ▲                                                     │
//!        └──────────────── redirect on divergence ─────────────┘
//!
//!   sampled mode (crate::sampling): BlockSource ══▶ functional warm
//!   (L1-I/LLC residency, TAGE, RAS, scheme.warm_block) — bypasses
//!   every timed stage above, then re-arms them for the next timed
//!   detail window
//! ```
//!
//! Each stage is its own module and struct, ticked once per cycle by
//! the [`Simulator`](crate::Simulator) orchestrator against the shared
//! [`PipelineState`]:
//!
//! * [`bpu::Bpu`] advances one basic block per step along the
//!   *predicted* path, querying the scheme. Wrong paths are genuinely
//!   followed (prefetching and polluting as real hardware would) until
//!   the backend discovers the divergence.
//! * [`fetch::FetchUnit`] consumes FTQ fetch ranges one cache line per
//!   step; L1-I misses block it and are the stalls prefetching exists
//!   to remove. It also drains matured fills into the L1-I.
//! * [`supply::SupplyBuffer`] holds fetched instruction byte ranges
//!   between the fetch unit and the backend (decode/queue stages).
//! * [`backend::Backend`] retires up to `width` instructions per cycle
//!   by matching supplied address ranges against the block source's
//!   actual retired stream (a live executor walk or a replayed
//!   `fe-trace` recording); the first mismatched address is a
//!   misfetch/mispredict, discovered exactly when the offending branch
//!   retires: the pipeline flushes, the BPU redirects, and a refill
//!   bubble is charged. Retired blocks train TAGE, the RAS, and the
//!   scheme (BTB demand fills, footprint recording, history). Data
//!   misses delay retirement once they are older than the ROB can
//!   hide, coupling front-end traffic to Fig. 11's L1-D fill latency
//!   through the shared NoC queue.
//! * [`stall::StallKind`] classifies every cycle in which zero
//!   instructions retire on the correct path — the paper's front-end
//!   stall taxonomy (§6.1), in priority order.
//!
//! The module is crate-private by design: the public simulation surface
//! is the [`Simulator`](crate::Simulator) orchestrator (and
//! [`MultiSimulator`](crate::MultiSimulator) for consolidated
//! multi-context runs).

use std::collections::VecDeque;

use fe_baselines::{Boomerang, Confluence, Fdip, NoPrefetch};
use fe_cfg::Program;
use fe_model::{Addr, BlockSource, LineAddr, MachineConfig, RetiredBlock, SimStats};
use fe_uarch::scheme::{BpuOutcome, ControlFlowDelivery, FrontEndCtx, PredRecord};
use fe_uarch::{BoundedQueue, InflightFills, LineCache, MemorySystem, ReturnAddressStack, Tage};
use shotgun::ShotgunPrefetcher;

use crate::source::SourceKind;

pub(crate) mod backend;
pub(crate) mod bpu;
pub(crate) mod fetch;
pub(crate) mod stall;
pub(crate) mod supply;

use supply::SupplyBuffer;

/// Byte range queued for fetch.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FetchRange {
    pub(crate) start: Addr,
    pub(crate) end: Addr,
}

/// Which front end drives the BPU.
pub enum EngineScheme {
    /// A real control-flow-delivery scheme, statically dispatched over
    /// the known kinds (see [`SchemeKind`]).
    Real(SchemeKind),
    /// The ideal front end of Fig. 1: perfect BTB, perfect L1-I,
    /// direction mispredictions retained.
    Ideal,
}

impl EngineScheme {
    /// Wraps any scheme the engine knows statically into the `Real`
    /// variant.
    pub fn real(scheme: impl Into<SchemeKind>) -> EngineScheme {
        EngineScheme::Real(scheme.into())
    }
}

/// Enum dispatch over the control-flow-delivery schemes the evaluation
/// runs. The BPU queries the scheme several times per simulated cycle
/// (`predict`, `on_demand_access`, `on_retire`, ...), so the known
/// kinds are dispatched by `match` — monomorphized and inlinable —
/// instead of through a vtable. A new scheme implements
/// [`ControlFlowDelivery`] and joins this list.
pub enum SchemeKind {
    /// Conventional front end, no prefetching (the baseline).
    NoPrefetch(Box<NoPrefetch>),
    /// Fetch-directed instruction prefetching.
    Fdip(Box<Fdip>),
    /// Boomerang (FDIP + reactive BTB fill).
    Boomerang(Box<Boomerang>),
    /// Confluence (SHIFT temporal streaming).
    Confluence(Box<Confluence>),
    /// Shotgun (the paper's design).
    Shotgun(Box<ShotgunPrefetcher>),
}

macro_rules! dispatch {
    ($kind:expr, $scheme:ident => $body:expr) => {
        match $kind {
            SchemeKind::NoPrefetch($scheme) => $body,
            SchemeKind::Fdip($scheme) => $body,
            SchemeKind::Boomerang($scheme) => $body,
            SchemeKind::Confluence($scheme) => $body,
            SchemeKind::Shotgun($scheme) => $body,
        }
    };
}

impl ControlFlowDelivery for SchemeKind {
    #[inline]
    fn name(&self) -> &'static str {
        dispatch!(self, s => s.name())
    }

    #[inline]
    fn predict(&mut self, pc: Addr, ctx: &mut FrontEndCtx) -> BpuOutcome {
        dispatch!(self, s => s.predict(pc, ctx))
    }

    #[inline]
    fn on_fill(&mut self, line: LineAddr, was_prefetch: bool, ctx: &mut FrontEndCtx) {
        dispatch!(self, s => s.on_fill(line, was_prefetch, ctx))
    }

    #[inline]
    fn on_demand_miss(&mut self, line: LineAddr, ctx: &mut FrontEndCtx) {
        dispatch!(self, s => s.on_demand_miss(line, ctx))
    }

    #[inline]
    fn on_demand_access(&mut self, line: LineAddr, ctx: &mut FrontEndCtx) {
        dispatch!(self, s => s.on_demand_access(line, ctx))
    }

    #[inline]
    fn on_retire(&mut self, rb: &RetiredBlock, ctx: &mut FrontEndCtx) {
        dispatch!(self, s => s.on_retire(rb, ctx))
    }

    #[inline]
    fn warm_block(&mut self, rb: &RetiredBlock, ctx: &mut FrontEndCtx) {
        dispatch!(self, s => s.warm_block(rb, ctx))
    }

    #[inline]
    fn on_redirect(&mut self, pc: Addr, ctx: &mut FrontEndCtx) {
        dispatch!(self, s => s.on_redirect(pc, ctx))
    }

    #[inline]
    fn ftq_prefetch(&self) -> bool {
        dispatch!(self, s => s.ftq_prefetch())
    }

    #[inline]
    fn btb_misses(&self) -> u64 {
        dispatch!(self, s => s.btb_misses())
    }

    #[inline]
    fn btb_lookups(&self) -> u64 {
        dispatch!(self, s => s.btb_lookups())
    }

    fn debug_counters(&self) -> Vec<(&'static str, u64)> {
        dispatch!(self, s => s.debug_counters())
    }
}

impl From<NoPrefetch> for SchemeKind {
    fn from(s: NoPrefetch) -> Self {
        SchemeKind::NoPrefetch(Box::new(s))
    }
}

impl From<Fdip> for SchemeKind {
    fn from(s: Fdip) -> Self {
        SchemeKind::Fdip(Box::new(s))
    }
}

impl From<Boomerang> for SchemeKind {
    fn from(s: Boomerang) -> Self {
        SchemeKind::Boomerang(Box::new(s))
    }
}

impl From<Confluence> for SchemeKind {
    fn from(s: Confluence) -> Self {
        SchemeKind::Confluence(Box::new(s))
    }
}

impl From<ShotgunPrefetcher> for SchemeKind {
    fn from(s: ShotgunPrefetcher) -> Self {
        SchemeKind::Shotgun(Box::new(s))
    }
}

/// Cap on instructions buffered between fetch and retire (decode/queue
/// stages).
pub(crate) const SUPPLY_CAP: u64 = 48;
/// Cap on outstanding data misses (LSQ-limited MLP).
pub(crate) const DATA_MISS_CAP: usize = 16;
/// Basic blocks the BPU can predict per cycle (two-taken-branch
/// prediction throughput, letting the BPU run ahead of the 3-wide
/// backend and absorb short reactive-fill stalls).
pub(crate) const BPU_BLOCKS_PER_CYCLE: u32 = 2;
/// Cache lines the fetch unit can read per cycle.
pub(crate) const FETCH_LINES_PER_CYCLE: u32 = 2;

/// State shared by every pipeline stage of one simulated context: the
/// hardware structures, the inter-stage buffers, the cross-stage
/// signals, and the accounting.
///
/// Stage-local state (the backend's outstanding data misses, its load
/// RNG) lives in the stage structs; everything at least two stages
/// touch lives here.
pub(crate) struct PipelineState<'p> {
    pub(crate) cfg: MachineConfig,
    pub(crate) program: &'p Program,
    /// Where retired control flow comes from: a live executor walk or
    /// a trace replayer — the record/replay seam (§5.1), dispatched by
    /// enum (`next_block` runs once per retired basic block).
    pub(crate) source: SourceKind<'p>,
    pub(crate) scheme: EngineScheme,

    // Shared hardware.
    pub(crate) l1i: LineCache,
    pub(crate) mem: MemorySystem,
    pub(crate) tage: Tage,
    pub(crate) spec_ras: ReturnAddressStack,
    pub(crate) retire_ras: ReturnAddressStack,
    pub(crate) inflight: InflightFills,

    // Inter-stage buffers.
    pub(crate) ftq: BoundedQueue<FetchRange>,
    pub(crate) supply: SupplyBuffer,
    /// In-flight direction predictions (snapshot history for training).
    pub(crate) pred_trace: VecDeque<PredRecord>,
    /// The block source's actual upcoming blocks: consumed by the
    /// backend, read ahead by the ideal BPU.
    pub(crate) oracle: VecDeque<RetiredBlock>,

    // Cross-stage signals.
    pub(crate) spec_pc: Addr,
    pub(crate) waiting_line: Option<LineAddr>,
    pub(crate) redirect_until: u64,
    pub(crate) bpu_stalled: bool,
    /// For the ideal scheme: index of the next oracle block the BPU
    /// will emit.
    pub(crate) oracle_pos: usize,
    /// Instructions of the current oracle block already retired.
    pub(crate) consumed: u64,
    /// The block source returned `None`: a finite source (a trace) ran
    /// out of records. The run degrades into a reported stall and ends
    /// once the already-pulled blocks retire.
    pub(crate) source_dry: bool,

    // Time & accounting.
    pub(crate) now: u64,
    pub(crate) stats: SimStats,
    pub(crate) prefetches_issued: u64,
    pub(crate) retired_total: u64,

    // Reusable scratch (hot-loop allocation avoidance). Every buffer
    // here must be drained back to empty before its tick returns —
    // the stages assert that on entry.
    /// Matured L1-I fills staged by [`fetch::FetchUnit::process_fills`]
    /// between draining the MSHRs and installing into the cache.
    pub(crate) fill_scratch: Vec<(LineAddr, bool, bool)>,
}

impl<'p> PipelineState<'p> {
    pub(crate) fn new(
        program: &'p Program,
        cfg: MachineConfig,
        scheme: EngineScheme,
        mem: MemorySystem,
        source: SourceKind<'p>,
    ) -> Self {
        cfg.validate().expect("invalid machine configuration");
        PipelineState {
            l1i: LineCache::new(cfg.l1i),
            mem,
            tage: Tage::new(cfg.tage),
            spec_ras: ReturnAddressStack::new(cfg.front_end.ras_entries as usize),
            retire_ras: ReturnAddressStack::new(cfg.front_end.ras_entries as usize),
            inflight: InflightFills::new(cfg.front_end.l1i_mshrs as usize),
            ftq: BoundedQueue::new(cfg.front_end.ftq_entries as usize),
            supply: SupplyBuffer::new(),
            pred_trace: VecDeque::with_capacity(64),
            oracle: VecDeque::with_capacity(64),
            spec_pc: program.entry(),
            waiting_line: None,
            redirect_until: 0,
            bpu_stalled: false,
            oracle_pos: 0,
            consumed: 0,
            source_dry: false,
            now: 0,
            stats: SimStats::default(),
            prefetches_issued: 0,
            retired_total: 0,
            fill_scratch: Vec::with_capacity(8),
            scheme,
            program,
            source,
            cfg,
        }
    }

    /// `true` when the ideal front end drives the BPU.
    pub(crate) fn is_ideal(&self) -> bool {
        matches!(self.scheme, EngineScheme::Ideal)
    }

    /// Extends the oracle so index `pos` exists. Returns `false` (and
    /// marks the source dry) when the source is exhausted before the
    /// index can be reached — the typed replacement for the old
    /// panic-on-exhaustion path.
    ///
    /// Whenever a refill is needed, a few blocks beyond `pos` are
    /// pulled in the same pass: the backend asks for the oracle head
    /// once per retired block, and read-ahead amortizes the refill
    /// across `ORACLE_READAHEAD` blocks. Pure buffering — consumption
    /// order, stats, and the retired position at which dryness is
    /// observable are unchanged (an early `source_dry` flag only makes
    /// the span-skip paths decline a few end-of-stream cycles they
    /// would otherwise have skipped; every skip is result-transparent).
    pub(crate) fn fill_oracle_to(&mut self, pos: usize) -> bool {
        const ORACLE_READAHEAD: usize = 8;
        if pos < self.oracle.len() {
            return true;
        }
        for _ in self.oracle.len()..=pos + ORACLE_READAHEAD {
            match self.source.next_block() {
                Some(rb) => self.oracle.push_back(rb),
                None => {
                    self.source_dry = true;
                    break;
                }
            }
        }
        pos < self.oracle.len()
    }

    /// `true` once the source has run dry and every already-pulled
    /// block has retired — nothing more can ever retire.
    pub(crate) fn stream_ended(&self) -> bool {
        self.source_dry && self.oracle.is_empty()
    }

    /// Runs `f` with the scheme and a freshly assembled context. The
    /// scheme and the context borrow disjoint fields, so this is a
    /// plain split borrow — no `Option` take/put, no moves of the
    /// scheme state on the per-cycle path.
    #[inline]
    pub(crate) fn with_scheme(&mut self, f: impl FnOnce(&mut EngineScheme, &mut FrontEndCtx)) {
        let mut ctx = FrontEndCtx {
            now: self.now,
            l1i: &mut self.l1i,
            mem: &mut self.mem,
            tage: &mut self.tage,
            spec_ras: &mut self.spec_ras,
            inflight: &mut self.inflight,
            program: self.program,
            prefetches_issued: &mut self.prefetches_issued,
            pred_trace: &mut self.pred_trace,
        };
        f(&mut self.scheme, &mut ctx);
    }

    #[inline]
    pub(crate) fn with_ctx(&mut self, f: impl FnOnce(&mut FrontEndCtx)) {
        let mut ctx = FrontEndCtx {
            now: self.now,
            l1i: &mut self.l1i,
            mem: &mut self.mem,
            tage: &mut self.tage,
            spec_ras: &mut self.spec_ras,
            inflight: &mut self.inflight,
            program: self.program,
            prefetches_issued: &mut self.prefetches_issued,
            pred_trace: &mut self.pred_trace,
        };
        f(&mut ctx);
    }
}
