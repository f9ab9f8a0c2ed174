//! The backend stage: retirement against the executor's actual stream,
//! divergence discovery (misfetch/mispredict → flush + redirect),
//! predictor/scheme training, and the abstracted data side whose
//! misses couple retirement to the shared NoC (Fig. 11).

use std::collections::VecDeque;

use fe_model::{Addr, BranchKind, RetiredBlock, INSTR_BYTES};
use fe_uarch::scheme::ControlFlowDelivery;
use fe_uarch::RasEntry;

use super::{EngineScheme, PipelineState, DATA_MISS_CAP};

/// An outstanding data miss delaying retirement once it exceeds the
/// ROB shadow.
#[derive(Clone, Copy, Debug)]
struct DataMiss {
    fill_at: u64,
    instrs_at_issue: u64,
}

/// What one backend tick accomplished — consumed by the stall taxonomy.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RetireOutcome {
    /// Instructions retired this cycle.
    pub(crate) retired: u64,
    /// `true` when retirement was blocked by a data miss older than the
    /// ROB shadow (already charged as a backend stall).
    pub(crate) data_blocked: bool,
    /// `true` when retirement stopped because the block source ran dry
    /// (a truncated trace): the typed replacement for the old
    /// panic-on-exhaustion path.
    pub(crate) source_dry: bool,
}

/// The retirement stage. Owns the genuinely backend-local state: the
/// outstanding data-miss window, the load-issue accumulator and RNG,
/// and the kind of the last retired block (misfetch attribution).
pub(crate) struct Backend {
    data_misses: VecDeque<DataMiss>,
    load_acc: f64,
    lcg: u64,
    /// Kind of the most recently retired block (misfetch attribution).
    last_retired_kind: Option<BranchKind>,
}

impl Backend {
    pub(crate) fn new(seed: u64) -> Self {
        Backend {
            data_misses: VecDeque::with_capacity(DATA_MISS_CAP),
            load_acc: 0.0,
            lcg: seed | 1,
            last_retired_kind: None,
        }
    }

    /// One cycle of retirement: up to `width` instructions, matching
    /// supplied ranges against the oracle stream.
    pub(crate) fn tick(&mut self, s: &mut PipelineState) -> RetireOutcome {
        // Complete matured data misses.
        while let Some(front) = self.data_misses.front() {
            if front.fill_at <= s.now {
                self.data_misses.pop_front();
            } else {
                break;
            }
        }
        // Blocking data miss: older than the ROB shadow and unfilled.
        if let Some(front) = self.data_misses.front() {
            if s.retired_total - front.instrs_at_issue >= s.cfg.backend.miss_shadow_instrs as u64 {
                s.stats.backend_stall_cycles += 1;
                return RetireOutcome {
                    retired: 0,
                    data_blocked: true,
                    source_dry: false,
                };
            }
        }

        let mut credits = s.cfg.core.width as u64;
        let mut retired = 0u64;
        let mut source_dry = false;
        while credits > 0 {
            if !s.fill_oracle_to(0) {
                // The source ran dry: nothing left to retire against.
                // Degrade into a reported stall; the run loop ends once
                // it sees the stream is over.
                source_dry = true;
                break;
            }
            let cur = s.oracle[0];
            let expected = cur.block.start + s.consumed * INSTR_BYTES;

            // Pull supplied bytes at the expected address.
            let Some(front) = s.supply.front() else {
                break;
            };
            if front.start != expected {
                // Divergence: the front end fetched the wrong path.
                // Discovered here, at the retirement boundary of the
                // mispredicted/misfetched branch.
                self.redirect(s, expected);
                break;
            }
            let avail = ((front.end - front.start) as u64) / INSTR_BYTES;
            let remaining = cur.block.instr_count as u64 - s.consumed;
            let step = credits.min(avail).min(remaining);
            debug_assert!(step > 0, "empty supply range in buffer");

            if !s.supply.consume(step) {
                // A drained or short supply head no longer panics: the
                // cycle simply retires what it could.
                break;
            }
            s.consumed += step;
            credits -= step;
            retired += step;
            s.retired_total += step;
            s.stats.instructions += step;
            self.issue_loads(s, step);

            if s.consumed == cur.block.instr_count as u64 {
                self.retire_block(s, &cur);
                s.oracle.pop_front();
                s.oracle_pos = s.oracle_pos.saturating_sub(1);
                s.consumed = 0;
                // A redirect inside retire_block ends the cycle's work.
                if s.now < s.redirect_until {
                    break;
                }
            }
        }
        RetireOutcome {
            retired,
            data_blocked: false,
            source_dry,
        }
    }

    /// Architectural retirement of one basic block: train predictors,
    /// the retire RAS, the scheme; check the predicted next fetch
    /// address; detect ideal-mode direction mispredictions.
    fn retire_block(&mut self, s: &mut PipelineState, rb: &RetiredBlock) {
        use BranchKind::*;

        s.stats.branches += 1;
        if rb.block.kind.is_unconditional() {
            s.stats.unconditional_branches += 1;
        }

        // Direction predictor training (conditionals only). When the
        // BPU actually predicted this block, train at the history
        // snapshot the prediction used and judge that prediction;
        // blocks covered by straight-line speculation were never
        // predicted and train at retired history.
        if rb.block.kind == Conditional {
            // Pop the matching in-flight prediction, if any; a stale or
            // empty trace (flushed, or a truncated source) degrades to
            // retired-history training instead of an `expect` panic.
            let mispredicted = match s.pred_trace.front().copied() {
                Some(p) if p.block_start == rb.block.start => {
                    s.pred_trace.pop_front();
                    s.tage.retire_with(rb.block.branch_pc(), rb.taken, p.hist);
                    p.taken != rb.taken
                }
                _ => s.tage.retire(rb.block.branch_pc(), rb.taken) != rb.taken,
            };
            if mispredicted {
                s.stats.direction_mispredicts += 1;
                if s.is_ideal() {
                    // Ideal front end still pays the mispredict bubble,
                    // but its supply is oracle-correct: no flush.
                    s.redirect_until = s.now + s.cfg.core.redirect_penalty as u64;
                }
            }
        }

        // Retire-side RAS.
        match rb.block.kind {
            Call | Trap => s.retire_ras.push(RasEntry {
                ret: rb.block.fall_through(),
                call_block: rb.block.start,
            }),
            Return | TrapReturn => {
                let _ = s.retire_ras.pop();
            }
            _ => {}
        }

        // Scheme training.
        s.with_scheme(|scheme, ctx| {
            if let EngineScheme::Real(sch) = scheme {
                sch.on_retire(rb, ctx);
            }
        });
        self.last_retired_kind = Some(rb.block.kind);
    }

    /// Pipeline flush + front-end redirect to `target`.
    fn redirect(&mut self, s: &mut PipelineState, target: Addr) {
        s.stats.misfetches += 1;
        match self.last_retired_kind {
            Some(BranchKind::Conditional) => s.stats.misfetch_cond += 1,
            Some(k) if k.is_return() => s.stats.misfetch_return += 1,
            Some(_) => s.stats.misfetch_uncond += 1,
            None => {}
        }
        s.supply.clear();
        s.ftq.clear();
        s.pred_trace.clear();
        s.waiting_line = None;
        s.spec_pc = target;
        s.redirect_until = s.now + s.cfg.core.redirect_penalty as u64;
        s.tage.redirect();
        s.spec_ras.restore_from(&s.retire_ras);
        s.with_scheme(|scheme, ctx| {
            if let EngineScheme::Real(sch) = scheme {
                sch.on_redirect(target, ctx);
            }
        });
    }

    /// Data-side activity for `instrs` retired instructions.
    fn issue_loads(&mut self, s: &mut PipelineState, instrs: u64) {
        self.load_acc += instrs as f64 * s.cfg.backend.load_fraction;
        while self.load_acc >= 1.0 {
            self.load_acc -= 1.0;
            s.stats.loads += 1;
            if self.draw() < s.cfg.backend.l1d_miss_rate && self.data_misses.len() < DATA_MISS_CAP {
                let fill_at = s.mem.request_data(s.now);
                s.stats.l1d_misses += 1;
                s.stats.l1d_fill_cycles += fill_at - s.now;
                self.data_misses.push_back(DataMiss {
                    fill_at,
                    instrs_at_issue: s.retired_total,
                });
            }
        }
    }

    fn draw(&mut self) -> f64 {
        fe_model::rng::splitmix64_unit(&mut self.lcg)
    }

    /// When the front data miss blocks retirement *past* `now` — it is
    /// older than the ROB shadow and its fill lies in the future —
    /// returns the fill cycle. This is the span-skip precondition: with
    /// retirement frozen the miss's age is frozen too, so [`Self::
    /// tick`] reproduces the same blocked early-return every cycle
    /// until the fill, charging one backend-stall cycle each.
    pub(crate) fn blocking_fill_at(
        &self,
        now: u64,
        retired_total: u64,
        shadow: u64,
    ) -> Option<u64> {
        let front = self.data_misses.front()?;
        (front.fill_at > now && retired_total - front.instrs_at_issue >= shadow)
            .then_some(front.fill_at)
    }

    /// Drops interval-local state when sampled simulation re-enters a
    /// timed window: outstanding data misses cannot survive the epochs
    /// of functional fast-forward between measurement intervals. The
    /// load RNG keeps its stream (per-cell determinism).
    pub(crate) fn reset_transients(&mut self) {
        self.data_misses.clear();
        self.load_acc = 0.0;
        self.last_retired_kind = None;
    }

    /// Bulk accounting for a quiescent span `[s.now, until)` the run
    /// driver fast-forwards over (see `Simulator::try_skip_quiet_span`):
    /// zero-retire cycles whose only per-cycle state change is the stall
    /// charge itself. Reproduces the per-cycle classification
    /// exactly: with `retired_total` frozen, a data miss's ROB-shadow
    /// age is frozen too, so the front miss blocks either until its
    /// fill (`Backend` cycles, charged to `backend_stall_cycles` as the
    /// tick would) or not at all — and `instrs_at_issue` is
    /// nondecreasing along the queue, so once the front is
    /// non-blocking every remaining cycle of the span classifies as
    /// `Redirect`/`IcacheMiss`. Matured misses are popped exactly when
    /// the per-cycle tick would pop them.
    pub(crate) fn charge_quiet_span(
        &mut self,
        s: &mut PipelineState,
        until: u64,
        in_redirect: bool,
    ) {
        let shadow = s.cfg.backend.miss_shadow_instrs as u64;
        let mut cur = s.now;
        while cur < until {
            while let Some(front) = self.data_misses.front() {
                if front.fill_at <= cur {
                    self.data_misses.pop_front();
                } else {
                    break;
                }
            }
            match self.data_misses.front() {
                Some(front) if s.retired_total - front.instrs_at_issue >= shadow => {
                    let end = until.min(front.fill_at);
                    s.stats.backend_stall_cycles += end - cur;
                    cur = end;
                }
                _ => {
                    let n = until - cur;
                    if in_redirect {
                        s.stats.stalls.redirect += n;
                    } else {
                        s.stats.stalls.icache_miss += n;
                    }
                    cur = until;
                }
            }
        }
    }
}
