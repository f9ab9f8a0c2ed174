//! Interval sampling with functional warming (SMARTS-style) — the
//! paper-scale run mode.
//!
//! The paper's methodology (§5.1) evaluates schemes over traces of
//! hundreds of millions of instructions; ticking every cycle of every
//! cell caps sweeps at short synthetic windows. Sampled simulation
//! covers the same instruction counts at a fraction of the cost by
//! partitioning the run into fixed-size **intervals** and timing only a
//! small **detail** window of each:
//!
//! ```text
//! |   fast-forward (seek)   | functional warm |  timed detail  |
//! |<------- skip --------->|<--- warmup ---->|<-- measured -->|
//! |<------------------------ interval ----------------------->|
//! ```
//!
//! * **Fast-forward** advances the retired stream without touching any
//!   state — on a trace replayer this is a decode-skip
//!   ([`BlockSource::skip_instrs`]) many times faster than the timed
//!   loop.
//! * **Functional warming** drains blocks through the update-only
//!   paths: L1-I line residency, TAGE, the retire RAS, and the
//!   scheme's [`warm_block`](fe_uarch::scheme::ControlFlowDelivery::warm_block)
//!   hook (BTB/U-BTB/C-BTB/RIB, footprints), so the timed window does
//!   not start on cold structures.
//! * **Timed detail** runs the ordinary cycle-accurate pipeline: a
//!   short unmeasured ramp refills the FTQ/supply, then the window's
//!   statistics are measured exactly as a full-detail run would.
//!
//! Per-interval [`SimStats`] aggregate into mean IPC / MPKI with a 95%
//! confidence interval (normal approximation over intervals).
//!
//! ## Error model
//!
//! Sampling is an approximation: the fast-forwarded stretch issues no
//! NoC traffic (queue contention is not warmed), the backend's load
//! RNG samples a different stream, and each detail window pays a small
//! cold-pipeline ramp. On the Table 2 suite, front-end stall cycles
//! per kilo-instruction stay within **max(10% relative, 0.5 absolute,
//! the cell's own 95% CI)** of a full-detail run and IPC within
//! **5%**, at the default spec's 10% timed fraction — the bounds the
//! `fe-bench` `sampling` binary checks (the CI term covers bursty
//! workloads whose per-interval variance dominates at few intervals;
//! it shrinks as `1/sqrt(intervals)`).
//!
//! A sampled run is [`Simulator::run_sampled`]: the initial functional
//! warm, then the interval loop, each timed window ticked by the same
//! loop as a full-detail run. A sweep's sampled scheme group
//! ([`run_schemes_batch_sampled_replayed`](crate::run_schemes_batch_sampled_replayed))
//! splits the two steps so that one cell's initial warm can serve the
//! whole group. Full-detail runs never take the functional paths, so
//! they stay bit-identical to the pinned engine.

use fe_model::{BlockSource, BranchKind, RetiredBlock, SimStats, INSTR_BYTES};
use fe_uarch::scheme::ControlFlowDelivery;
use fe_uarch::RasEntry;

use crate::engine::{EngineScheme, Simulator};
use crate::json::Json;

/// Cap on the unmeasured timed ramp that refills the pipeline before
/// each measured window (the window's first instructions otherwise
/// charge artificial FTQ-empty stalls).
pub(crate) const RAMP_CAP: u64 = 2_048;

/// How a sampled run divides each interval, in instructions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SamplingSpec {
    /// Total instructions per sampling unit (skip + warmup + detail).
    pub interval: u64,
    /// Cycle-accurate instructions per interval (the measured window,
    /// including its pipeline-fill ramp).
    pub detail: u64,
    /// Functionally warmed instructions immediately before each detail
    /// window.
    pub warmup: u64,
}

impl SamplingSpec {
    /// Default shape: 250K-instruction intervals, 50K functionally
    /// warmed + 25K timed (10% timed, 20% warmed, 70% fast-forwarded —
    /// ~6× wall-clock speedup even on live sources, more on trace
    /// replay, within the documented error bounds). Finer intervals at
    /// the same timed fraction buy more samples, which is what tames
    /// variance on bursty workloads.
    pub const DEFAULT: SamplingSpec = SamplingSpec {
        interval: 250_000,
        detail: 25_000,
        warmup: 50_000,
    };

    /// Checks the shape is runnable: a non-empty detail window that,
    /// together with the warmup, fits the interval.
    pub fn validate(&self) -> Result<(), String> {
        if self.detail == 0 {
            return Err("sampling detail must be at least 1 instruction".into());
        }
        if self.detail + self.warmup > self.interval {
            return Err(format!(
                "sampling detail ({}) + warmup ({}) exceed the interval ({})",
                self.detail, self.warmup, self.interval,
            ));
        }
        Ok(())
    }

    /// [`Self::validate`], plus room in `measure` for one detail window
    /// (a run measuring zero intervals would report all-zero statistics).
    pub fn check_measure(&self, measure: u64) -> Result<(), String> {
        self.validate()
            .map_err(|e| format!("invalid sampling spec: {e}"))?;
        if measure < self.detail {
            return Err(format!(
                "sampled run measures {measure} instructions — too short for even one \
                 {}-instruction detail window",
                self.detail,
            ));
        }
        Ok(())
    }

    /// The shape as JSON, keys in the order interval, detail, warmup —
    /// the encoding reports, cell keys and job specs share.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("interval".into(), Json::U64(self.interval)),
            ("detail".into(), Json::U64(self.detail)),
            ("warmup".into(), Json::U64(self.warmup)),
        ])
    }

    /// Parses [`Self::to_json`]'s encoding.
    pub fn from_json(doc: &Json) -> Result<SamplingSpec, String> {
        Ok(SamplingSpec {
            interval: doc.req("interval")?.as_u64()?,
            detail: doc.req("detail")?.as_u64()?,
            warmup: doc.req("warmup")?.as_u64()?,
        })
    }

    /// Fraction of each interval simulated cycle-accurately.
    pub fn timed_fraction(&self) -> f64 {
        self.detail as f64 / self.interval as f64
    }
}

/// A sample mean with its 95% confidence half-width (normal
/// approximation; zero when fewer than two intervals were measured).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MeanCi {
    /// Arithmetic mean over measured intervals.
    pub mean: f64,
    /// 95% confidence half-width: `1.96 * s / sqrt(n)`.
    pub ci95: f64,
}

/// Computes mean and 95% CI half-width over interval values.
pub(crate) fn mean_ci95(values: &[f64]) -> MeanCi {
    let n = values.len();
    if n == 0 {
        return MeanCi {
            mean: 0.0,
            ci95: 0.0,
        };
    }
    let mean = values.iter().sum::<f64>() / n as f64;
    if n < 2 {
        return MeanCi { mean, ci95: 0.0 };
    }
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n as f64 - 1.0);
    MeanCi {
        mean,
        ci95: 1.96 * (var / n as f64).sqrt(),
    }
}

/// The result of one sampled run: every measured interval's statistics
/// plus truncation state.
#[derive(Clone, Debug, PartialEq)]
pub struct SampledStats {
    /// Per-interval measured statistics, in stream order.
    pub intervals: Vec<SimStats>,
    /// `true` when the block source ran dry before the requested
    /// instruction count (short trace).
    pub truncated: bool,
}

impl SampledStats {
    /// Measured intervals.
    pub fn interval_count(&self) -> u64 {
        self.intervals.len() as u64
    }

    /// Element-wise sum of every interval — the run's aggregate
    /// statistics (ratios derived from it are interval-weighted means).
    pub fn aggregate(&self) -> SimStats {
        let mut total = SimStats::default();
        for s in &self.intervals {
            total.merge(s);
        }
        total
    }

    fn per_interval(&self, f: impl Fn(&SimStats) -> f64) -> Vec<f64> {
        self.intervals.iter().map(f).collect()
    }

    /// Mean ± CI of per-interval IPC.
    pub fn ipc(&self) -> MeanCi {
        mean_ci95(&self.per_interval(SimStats::ipc))
    }

    /// Mean ± CI of per-interval L1-I MPKI.
    pub fn l1i_mpki(&self) -> MeanCi {
        mean_ci95(&self.per_interval(SimStats::l1i_mpki))
    }

    /// Mean ± CI of per-interval front-end stall cycles per
    /// kilo-instruction — the sampled-run error metric.
    pub fn fe_stall_pki(&self) -> MeanCi {
        mean_ci95(&self.per_interval(SimStats::front_end_stall_pki))
    }
}

/// Per-cell sampling summary carried in sweep reports: interval count
/// plus mean/CI of the headline per-interval metrics.
#[derive(Clone, Debug, PartialEq)]
pub struct CellSampling {
    /// Measured intervals in this cell.
    pub intervals: u64,
    /// Per-interval IPC mean ± 95% CI.
    pub ipc: MeanCi,
    /// Per-interval L1-I MPKI mean ± 95% CI.
    pub l1i_mpki: MeanCi,
    /// Per-interval front-end stall cycles per kilo-instruction,
    /// mean ± 95% CI.
    pub fe_stall_pki: MeanCi,
}

impl CellSampling {
    /// Summarizes a sampled run for a report cell.
    pub fn of(stats: &SampledStats) -> CellSampling {
        CellSampling {
            intervals: stats.interval_count(),
            ipc: stats.ipc(),
            l1i_mpki: stats.l1i_mpki(),
            fe_stall_pki: stats.fe_stall_pki(),
        }
    }
}

/// The sampled-run entry contract, [`SamplingSpec::check_measure`].
pub(crate) fn check_sampled(measure: u64, spec: SamplingSpec) {
    if let Err(e) = spec.check_measure(measure) {
        // audit-allow(no-unchecked-panic): run-entry contract — an invalid sampling spec is a caller bug, not a runtime condition; Experiment::try_run is the typed path
        panic!("{e}");
    }
}

impl<'p> Simulator<'p> {
    /// Sampled run: functionally warms `warmup` instructions, then
    /// covers `measure` instructions alternating fast-forward /
    /// functional warming / timed measurement per `spec` (see the
    /// module docs). Returns every measured interval's statistics.
    ///
    /// A finite source that runs dry ends the run early with the
    /// intervals measured so far and `truncated` set.
    ///
    /// # Panics
    ///
    /// Panics if `spec` fails [`SamplingSpec::validate`] or if
    /// `measure` cannot fit even one detail window — a run that
    /// silently measured zero intervals would report all-zero
    /// statistics.
    pub fn run_sampled(&mut self, warmup: u64, measure: u64, spec: SamplingSpec) -> SampledStats {
        check_sampled(measure, spec);
        self.warm_functional(warmup);
        self.run_intervals(measure, spec)
    }

    /// The interval loop over the next `measure` instructions: per
    /// interval, a functional tail warm, or fast-forward + functional
    /// warm + timed detail window. Returns every measured interval.
    pub(crate) fn run_intervals(&mut self, measure: u64, spec: SamplingSpec) -> SampledStats {
        let end = self.state.retired_total.saturating_add(measure);
        let mut intervals = Vec::new();
        while self.state.retired_total < end && !self.state.stream_ended() {
            let budget = (end - self.state.retired_total).min(spec.interval);
            if budget < spec.detail {
                // Tail shorter than a detail window: cover it
                // functionally. A sub-length measured window would
                // enter the per-interval statistics at full weight and
                // skew the mean and confidence interval.
                self.warm_functional(budget);
                continue;
            }
            let detail = spec.detail;
            let fwarm = spec.warmup.min(budget - detail);
            let skip = budget - detail - fwarm;
            self.skip_functional(skip);
            self.warm_functional(fwarm);
            if self.state.stream_ended() || !self.begin_interval() {
                break;
            }
            // Unmeasured ramp: refill the FTQ/supply so the measured
            // window does not charge artificial cold-pipeline stalls.
            let ramp = (detail / 16).min(RAMP_CAP);
            self.tick_until(self.state.retired_total + ramp);
            self.begin_measurement();
            self.tick_until(self.state.retired_total + (detail - ramp));
            let stats = self.finalize();
            if stats.instructions > 0 {
                intervals.push(stats);
            }
        }
        SampledStats {
            intervals,
            truncated: self.state.source_dry,
        }
    }

    /// Functional warming: drains at least `instrs` instructions from
    /// the source through the update-only paths (no cycles, no memory
    /// traffic), stopping at the first block boundary at or past the
    /// target. Returns the instructions actually warmed.
    pub(crate) fn warm_functional(&mut self, instrs: u64) -> u64 {
        self.warm_functional_with(instrs, &mut [])
    }

    /// [`Self::warm_functional`] with ride-along schemes: every warmed
    /// block is also fed to each rider's
    /// [`warm_block`](ControlFlowDelivery::warm_block) hook against
    /// this cell's front-end context — the batch engine's shared warm,
    /// where one leader walks the initial warm and the other cells'
    /// schemes ride along instead of re-walking it themselves.
    /// The context the riders see is the leader's post-`warm_one`
    /// state, exactly what each rider's own warm would show at the same
    /// block (the warmed structures are identical across same-config
    /// cells). With no riders this is the plain warm path.
    pub(crate) fn warm_functional_with(&mut self, instrs: u64, riders: &mut [EngineScheme]) -> u64 {
        let mut warmed = 0u64;
        while warmed < instrs {
            // Blocks the timed pipeline already pulled ahead retire
            // first (the front one may be partially consumed).
            let (rb, fresh) = match self.state.oracle.pop_front() {
                Some(front) => {
                    let fresh = (front.block.instr_count as u64)
                        .saturating_sub(std::mem::take(&mut self.state.consumed));
                    (front, fresh)
                }
                None => match self.state.source.next_block() {
                    Some(rb) => (rb, rb.instr_count()),
                    None => {
                        self.state.source_dry = true;
                        break;
                    }
                },
            };
            self.warm_one(&rb);
            if !riders.is_empty() {
                self.state.with_ctx(|ctx| {
                    for rider in riders.iter_mut() {
                        if let EngineScheme::Real(sch) = rider {
                            sch.warm_block(&rb, ctx);
                        }
                    }
                });
            }
            warmed += fresh;
            self.state.retired_total += fresh;
        }
        warmed
    }

    /// Update-only retirement of one block: L1-I and LLC residency,
    /// TAGE, the retire RAS, and the scheme's warm path.
    fn warm_one(&mut self, rb: &RetiredBlock) {
        let s = &mut self.state;
        for line in rb.block.lines() {
            if let fe_uarch::AccessOutcome::Miss = s.l1i.demand_access(line) {
                let _ = s.l1i.install(line, false);
                // The LLC backs every L1-I miss; leaving it cold would
                // charge measured windows memory latency where a
                // full-detail run pays an LLC round trip. Warmed only
                // on the miss path, mirroring the demand path: an
                // L1-I hit never promotes LLC recency in timed runs.
                s.mem.warm_instr(line);
            }
        }
        match rb.block.kind {
            BranchKind::Conditional => {
                s.tage.retire(rb.block.branch_pc(), rb.taken);
            }
            BranchKind::Call | BranchKind::Trap => s.retire_ras.push(RasEntry {
                ret: rb.block.fall_through(),
                call_block: rb.block.start,
            }),
            BranchKind::Return | BranchKind::TrapReturn => {
                let _ = s.retire_ras.pop();
            }
            BranchKind::Jump => {}
        }
        s.with_scheme(|scheme, ctx| {
            if let EngineScheme::Real(sch) = scheme {
                sch.warm_block(rb, ctx);
            }
        });
    }

    /// Fast-forward: advances the stream past at least `instrs`
    /// instructions without updating any state. Already-pulled oracle
    /// blocks count first; the rest goes through the source's seekable
    /// skip. Returns the instructions actually skipped.
    pub(crate) fn skip_functional(&mut self, instrs: u64) -> u64 {
        let mut skipped = 0u64;
        while skipped < instrs {
            let Some(front) = self.state.oracle.pop_front() else {
                break;
            };
            skipped += (front.block.instr_count as u64)
                .saturating_sub(std::mem::take(&mut self.state.consumed));
        }
        if skipped < instrs {
            let want = instrs - skipped;
            let got = self.state.source.skip_instrs(want);
            if got < want {
                self.state.source_dry = true;
            }
            skipped += got;
        }
        self.state.retired_total += skipped;
        skipped
    }

    /// Re-arms the timed pipeline after a functional phase: transient
    /// buffers cleared, speculative state resynchronized to retired
    /// state, outstanding fills completed (the functional gap spans
    /// epochs), and the speculative PC pointed at the next block to
    /// retire. Returns `false` when the source is already dry.
    pub(crate) fn begin_interval(&mut self) -> bool {
        let s = &mut self.state;
        let matured: Vec<_> = s
            .inflight
            .pop_ready(u64::MAX)
            .map(|(line, _info)| line)
            .collect();
        for line in matured {
            if !s.l1i.probe(line) {
                let _ = s.l1i.install(line, false);
            }
        }
        s.supply.clear();
        s.ftq.clear();
        s.pred_trace.clear();
        s.waiting_line = None;
        s.bpu_stalled = false;
        s.oracle_pos = 0;
        s.redirect_until = s.now;
        s.tage.redirect();
        s.spec_ras.restore_from(&s.retire_ras);
        self.backend.reset_transients();
        if !s.fill_oracle_to(0) {
            return false;
        }
        s.spec_pc = s.oracle[0].block.start + s.consumed * INSTR_BYTES;
        let pc = s.spec_pc;
        s.with_scheme(|scheme, ctx| {
            if let EngineScheme::Real(sch) = scheme {
                sch.on_redirect(pc, ctx);
            }
        });
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_scheme, RunLength, SchemeSpec};
    use fe_cfg::{workloads, Program};
    use fe_model::MachineConfig;

    /// A sampled run of `scheme` over a live walk of `program`.
    fn run_sampled(
        program: &Program,
        scheme: &SchemeSpec,
        len: RunLength,
        spec: SamplingSpec,
    ) -> SampledStats {
        let machine = MachineConfig::table3();
        Simulator::new(program, machine.clone(), scheme.build(&machine), 7).run_sampled(
            len.warmup,
            len.measure,
            spec,
        )
    }

    #[test]
    fn spec_validation_rejects_broken_shapes() {
        assert!(SamplingSpec::DEFAULT.validate().is_ok());
        assert!(SamplingSpec {
            interval: 100,
            detail: 0,
            warmup: 0,
        }
        .validate()
        .is_err());
        assert!(SamplingSpec {
            interval: 100,
            detail: 80,
            warmup: 40,
        }
        .validate()
        .is_err());
    }

    #[test]
    #[should_panic(expected = "too short for even one")]
    fn measure_too_short_for_one_window_fails_loudly() {
        let program = workloads::nutch().scaled(0.05).build();
        // measure < detail: would silently measure zero intervals.
        let _ = run_sampled(
            &program,
            &SchemeSpec::NoPrefetch,
            RunLength {
                warmup: 1_000,
                measure: 10_000,
            },
            SamplingSpec::DEFAULT,
        );
    }

    #[test]
    fn mean_ci_basics() {
        let m = mean_ci95(&[2.0, 4.0, 6.0]);
        assert!((m.mean - 4.0).abs() < 1e-12);
        assert!(m.ci95 > 0.0);
        assert_eq!(mean_ci95(&[5.0]).ci95, 0.0);
        assert_eq!(mean_ci95(&[]).mean, 0.0);
    }

    #[test]
    fn sampled_run_is_deterministic_and_covers_intervals() {
        let program = workloads::nutch().scaled(0.05).build();
        let len = RunLength {
            warmup: 50_000,
            measure: 400_000,
        };
        let spec = SamplingSpec {
            interval: 100_000,
            detail: 20_000,
            warmup: 20_000,
        };
        let a = run_sampled(&program, &SchemeSpec::shotgun(), len, spec);
        let b = run_sampled(&program, &SchemeSpec::shotgun(), len, spec);
        assert_eq!(a, b, "sampled runs must be deterministic");
        assert_eq!(a.interval_count(), 4);
        assert!(!a.truncated);
        let agg = a.aggregate();
        assert!(agg.instructions > 0);
        assert!(agg.cycles > 0);
    }

    #[test]
    fn sampled_stats_track_full_detail_on_a_live_source() {
        let program = workloads::nutch().scaled(0.05).build();
        let machine = MachineConfig::table3();
        let len = RunLength {
            warmup: 100_000,
            measure: 600_000,
        };
        let full = run_scheme(&program, &SchemeSpec::boomerang(), &machine, len, 7);
        let sampled = run_sampled(
            &program,
            &SchemeSpec::boomerang(),
            len,
            SamplingSpec {
                interval: 100_000,
                detail: 25_000,
                warmup: 25_000,
            },
        );
        let agg = sampled.aggregate();
        let ipc_err = (agg.ipc() - full.ipc()).abs() / full.ipc();
        assert!(
            ipc_err < 0.05,
            "sampled IPC {} vs full {} (err {:.1}%)",
            agg.ipc(),
            full.ipc(),
            ipc_err * 100.0,
        );
    }
}
