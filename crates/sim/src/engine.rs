//! The cycle-level decoupled front-end timing simulator — a thin
//! per-cycle orchestrator over the staged pipeline in
//! `crate::pipeline` (see that private module's docs for the
//! stage-by-stage model and the README's "Simulator pipeline"
//! diagram) — and the full-detail run driver.
//!
//! A run is straight-line code. [`Simulator::run`] ticks through the
//! timed warmup, starts measurement, ticks through the measured window
//! and finalizes; [`Simulator::run_sampled`] (in the
//! [`sampling`](crate::sampling) module) warms functionally and then
//! loops over intervals with the same tick loop under each timed
//! window. Every tick first tries to skip a provably quiet span, a
//! bit-exact acceleration that is always on.
//! [`MultiSimulator`](crate::MultiSimulator) keeps its own per-cycle
//! lockstep loop (its contexts share memory every cycle) and ticks
//! each context one cycle at a time.

use fe_cfg::{Executor, Program};
use fe_model::{MachineConfig, SimStats};
use fe_uarch::scheme::ControlFlowDelivery;
use fe_uarch::{MemStats, MemorySystem};

use crate::pipeline::{
    backend::Backend, bpu::Bpu, fetch::FetchUnit, stall, PipelineState, SUPPLY_CAP,
};
use crate::source::SourceKind;

pub use crate::pipeline::{EngineScheme, SchemeKind};

/// The simulator for one core running one workload under one scheme:
/// the orchestrator that ticks the pipeline stages in order each cycle.
/// For consolidated multi-context runs over a shared memory system,
/// see [`MultiSimulator`](crate::MultiSimulator).
pub struct Simulator<'p> {
    pub(crate) state: PipelineState<'p>,
    bpu: Bpu,
    fetch: FetchUnit,
    pub(crate) backend: Backend,
    // Measurement bases (captured when measurement starts).
    base_cycle: u64,
    base_scheme_misses: u64,
    base_scheme_lookups: u64,
}

impl<'p> Simulator<'p> {
    /// Builds a simulator over a live walk of `program` with the given
    /// scheme and a private memory system.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation.
    pub fn new(program: &'p Program, cfg: MachineConfig, scheme: EngineScheme, seed: u64) -> Self {
        let mem = MemorySystem::new(&cfg);
        let walk = Executor::new(program, seed);
        Self::with_source(program, cfg, scheme, seed, mem, walk)
    }

    /// Builds a simulator whose retired stream comes from any
    /// [`SourceKind`] and whose memory path is supplied by the caller —
    /// the record/replay seam, and the hook multi-context simulation
    /// uses to hand several pipelines handles onto one shared LLC/NoC
    /// ([`MemorySystem::shared_group`]). A live run passes the `fe-cfg`
    /// executor (what [`Self::new`] does for you); a trace-driven run
    /// passes an `fe-trace` replayer over a stream
    /// previously recorded with the same `program` and `seed`, and
    /// produces bit-identical statistics to the live run.
    ///
    /// `seed` still seeds the backend's load RNG (the data side is not
    /// part of the control-flow trace), so replay must pass the seed
    /// the trace was recorded with.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation.
    pub fn with_source(
        program: &'p Program,
        cfg: MachineConfig,
        scheme: EngineScheme,
        seed: u64,
        mem: MemorySystem,
        source: impl Into<SourceKind<'p>>,
    ) -> Self {
        Simulator {
            state: PipelineState::new(program, cfg, scheme, mem, source.into()),
            bpu: Bpu,
            fetch: FetchUnit,
            backend: Backend::new(seed),
            base_cycle: 0,
            base_scheme_misses: 0,
            base_scheme_lookups: 0,
        }
    }

    /// Runs `warmup` instructions untimed-for-stats, then measures
    /// `measure` instructions and returns their statistics.
    ///
    /// A finite source (a trace) that runs out of records before the
    /// run completes ends the run early with the statistics measured so
    /// far — check [`Self::source_exhausted`] — rather than panicking.
    pub fn run(&mut self, warmup: u64, measure: u64) -> SimStats {
        self.tick_until(warmup);
        self.begin_measurement();
        // Measure relative to the actual measurement start (warmup may
        // overshoot by a partial retire-width).
        self.tick_until(self.state.retired_total + measure);
        self.finalize()
    }

    /// Ticks until `retired_total` reaches `limit` or the stream ends.
    pub(crate) fn tick_until(&mut self, limit: u64) {
        while self.state.retired_total < limit && !self.state.stream_ended() {
            if self.try_skip_quiet_span() == 0 {
                self.cycle();
            }
        }
    }

    /// One simulated cycle: tick the stages front to back, then account
    /// a zero-retire cycle to the stall taxonomy.
    pub(crate) fn cycle(&mut self) {
        let s = &mut self.state;
        s.bpu_stalled = false;
        self.fetch.process_fills(s);
        self.bpu.tick(s);
        self.fetch.tick(s);
        let outcome = self.backend.tick(s);
        if outcome.retired == 0 {
            stall::account(s, outcome);
        }
        s.now += 1;
    }

    /// The driver's fast-forward over a *quiescent span*: a stretch of
    /// cycles in which every stage is provably inert and the only
    /// per-cycle effects are stall charges, reproduced in bulk.
    /// Dispatches on what the backend is starved of: an empty supply
    /// means the front end is the bottleneck (starved span); a
    /// non-empty supply with the backend blocked behind an aged data
    /// miss is a data-stall span. Advances `now` to the first cycle at
    /// which anything can change and returns the cycles skipped;
    /// returns 0 when the current cycle is not provably quiescent, in
    /// which case the caller runs a normal [`Self::cycle`].
    /// Bit-identical to ticking the span cycle by cycle.
    pub(crate) fn try_skip_quiet_span(&mut self) -> u64 {
        if self.state.source_dry {
            return 0;
        }
        if self.state.supply.is_empty() {
            self.try_skip_starved_span()
        } else {
            self.try_skip_data_stall_span()
        }
    }

    /// Starved-span skip: the supply is empty so the backend cannot
    /// retire, the BPU is boxed out (redirect bubble, or FTQ full) and
    /// fetch is parked (redirect, or waiting on an L1-I miss whose fill
    /// is already outstanding). The span's stall charges are reproduced
    /// by [`Backend::charge_quiet_span`].
    fn try_skip_starved_span(&mut self) -> u64 {
        let s = &mut self.state;
        let in_redirect = s.now < s.redirect_until;
        let limit = if in_redirect {
            // BPU and fetch are both gated on `now < redirect_until`;
            // fills may still mature mid-bubble and must be processed
            // at their exact cycle.
            match s.inflight.next_ready_at() {
                Some(next) => s.redirect_until.min(next),
                None => s.redirect_until,
            }
        } else {
            // Quiet only when the BPU is boxed out by a full FTQ and
            // fetch is parked on a miss it has already requested (the
            // ideal front end never parks: probe-or-ideal resumes it).
            if s.is_ideal() || !s.ftq.is_full() {
                return 0;
            }
            let Some(w) = s.waiting_line else {
                return 0;
            };
            if s.l1i.probe(w) {
                return 0;
            }
            if s.inflight.contains(w) {
                // The ticking fetch unit re-merges the demand every
                // waiting cycle; merging is idempotent, so once covers
                // the whole span.
                s.inflight.merge_demand(w);
            } else if !s.inflight.is_full() {
                // The fetch unit would issue the demand request this
                // cycle — a memory-system interaction at this exact
                // timestamp, so the cycle must run for real.
                return 0;
            }
            let Some(next) = s.inflight.next_ready_at() else {
                return 0;
            };
            next
        };
        if limit <= s.now {
            return 0;
        }
        // The backend consults the oracle head every cycle of the span;
        // if the source is about to run dry, ticking discovers
        // that mid-span — so only skip with the head already in hand.
        if !s.fill_oracle_to(0) {
            return 0;
        }
        let skipped = limit - s.now;
        self.backend.charge_quiet_span(s, limit, in_redirect);
        s.now = limit;
        skipped
    }

    /// Data-stall-span skip: the backend is blocked behind a data miss
    /// older than the ROB shadow whose fill is still in the future.
    /// Retirement — and with it `retired_total`, the clock that ages
    /// data misses — is frozen, so the block holds until the fill.
    /// When the front end is simultaneously inert (FTQ full boxes out
    /// the BPU; fetch at the supply cap or parked on an
    /// already-requested L1-I miss), the span's only per-cycle effect
    /// is the backend-stall charge. Batching that accounting into one
    /// addition is what makes skipping pay: ticking's per-cycle
    /// early returns are individually cheap, but ~12% of all cycles
    /// sit in these windows.
    fn try_skip_data_stall_span(&mut self) -> u64 {
        let s = &mut self.state;
        // This dispatcher runs before every cycle and rejects on the
        // vast majority of them, so the pure-read preconditions are
        // ordered cheapest-reject-first.
        //
        // A redirect bubble with buffered supply (ideal-mode mispredict)
        // is rare and short: not worth proving inert here.
        if s.now < s.redirect_until {
            return 0;
        }
        // BPU inert: outside a bubble only a full FTQ boxes it out.
        if !s.ftq.is_full() {
            return 0;
        }
        let shadow = s.cfg.backend.miss_shadow_instrs as u64;
        let Some(fill_at) = self
            .backend
            .blocking_fill_at(s.now, s.retired_total, shadow)
        else {
            return 0;
        };
        // Fetch inert: at the supply cap it early-outs before touching
        // the FTQ or the miss machinery; otherwise it must be parked on
        // a miss that is already outstanding (the ticking unit re-merges
        // the demand every waiting cycle — idempotent, so once covers
        // the whole span). Anything else could mutate state mid-span.
        if s.supply.instrs() < SUPPLY_CAP {
            if s.is_ideal() {
                return 0;
            }
            let Some(w) = s.waiting_line else {
                return 0;
            };
            if s.l1i.probe(w) {
                return 0;
            }
            if s.inflight.contains(w) {
                s.inflight.merge_demand(w);
            } else if !s.inflight.is_full() {
                // The fetch unit would issue the demand request this
                // cycle — a memory-system interaction at this exact
                // timestamp, so the cycle must run for real.
                return 0;
            }
        }
        // In-flight I-fills may mature mid-span and must be installed
        // at their exact cycle; stop at the earliest.
        let mut limit = fill_at;
        if let Some(next) = s.inflight.next_ready_at() {
            limit = limit.min(next);
        }
        if limit <= s.now {
            return 0;
        }
        // Every span cycle the backend tick would charge exactly one
        // backend-stall cycle and return before consulting the oracle;
        // the whole span nets to a single addition.
        let skipped = limit - s.now;
        s.stats.backend_stall_cycles += skipped;
        s.now = limit;
        skipped
    }

    pub(crate) fn begin_measurement(&mut self) {
        let s = &mut self.state;
        s.stats = SimStats::default();
        self.base_cycle = s.now;
        s.mem.reset_stats();
        if let EngineScheme::Real(sch) = &s.scheme {
            self.base_scheme_misses = sch.btb_misses();
            self.base_scheme_lookups = sch.btb_lookups();
        }
        s.prefetches_issued = 0;
    }

    pub(crate) fn finalize(&mut self) -> SimStats {
        let s = &mut self.state;
        s.stats.cycles = s.now - self.base_cycle;
        s.stats.prefetch.issued = s.prefetches_issued;
        let mem_stats = s.mem.stats();
        s.stats.noc_messages = mem_stats.messages;
        if let EngineScheme::Real(sch) = &s.scheme {
            s.stats.btb_misses = sch.btb_misses() - self.base_scheme_misses;
            s.stats.btb_lookups = sch.btb_lookups() - self.base_scheme_lookups;
        }
        s.stats.clone()
    }

    /// This context's memory-path counters (per-context traffic and
    /// interference; see [`MemStats`]).
    pub fn mem_stats(&self) -> MemStats {
        self.state.mem.stats()
    }

    /// `true` when the block source ran out of records mid-run (a
    /// truncated trace). The run degraded into a reported stall and an
    /// early end instead of panicking; callers that require a complete
    /// stream (the sweep API) check this and fail loudly themselves.
    pub fn source_exhausted(&self) -> bool {
        self.state.source_dry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::SUPPLY_CAP;
    use crate::sampling::SamplingSpec;
    use fe_cfg::{LayerSpec, WorkloadSpec};

    fn program() -> Program {
        WorkloadSpec {
            name: "engine-test".into(),
            seed: 123,
            layers: vec![
                LayerSpec::grouped(4, 4.0),
                LayerSpec::grouped(40, 2.0),
                LayerSpec::shared(400, 0.8),
                LayerSpec::shared(300, 0.3),
            ],
            kernel_entries: 8,
            kernel_helpers: 24,
            ..WorkloadSpec::default()
        }
        .build()
    }

    fn sim(program: &Program, scheme: EngineScheme) -> Simulator<'_> {
        Simulator::new(program, MachineConfig::table3(), scheme, 9)
    }

    fn boomerang(machine: &MachineConfig) -> EngineScheme {
        EngineScheme::real(fe_baselines::Boomerang::new(
            machine.front_end.btb_entries as usize,
            machine.front_end.btb_ways as usize,
            machine.front_end.btb_prefetch_buffer as usize,
        ))
    }

    #[test]
    fn ideal_never_misses_or_misfetches() {
        let p = program();
        let mut s = sim(&p, EngineScheme::Ideal);
        let stats = s.run(50_000, 200_000);
        assert_eq!(stats.l1i_misses, 0);
        assert_eq!(stats.misfetches, 0);
        assert_eq!(stats.stalls.icache_miss, 0);
        assert_eq!(stats.stalls.btb_resolve, 0);
        assert!(stats.ipc() > 1.0, "ideal IPC {}", stats.ipc());
    }

    #[test]
    fn ideal_still_pays_mispredict_bubbles() {
        let p = program();
        let mut s = sim(&p, EngineScheme::Ideal);
        let stats = s.run(50_000, 200_000);
        assert!(stats.direction_mispredicts > 0, "TAGE is not an oracle");
        assert!(
            stats.stalls.redirect > 0,
            "mispredict bubbles must be charged"
        );
    }

    #[test]
    fn cycles_advance_monotonically_with_work() {
        let p = program();
        let machine = MachineConfig::table3();
        let mut s = sim(&p, boomerang(&machine));
        let before = s.state.now;
        for _ in 0..1000 {
            s.cycle();
        }
        assert_eq!(s.state.now, before + 1000);
        assert!(
            s.state.retired_total > 0,
            "pipeline must retire within 1000 cycles"
        );
    }

    #[test]
    fn ftq_and_supply_respect_bounds() {
        let p = program();
        let machine = MachineConfig::table3();
        let mut s = sim(&p, boomerang(&machine));
        for _ in 0..20_000 {
            s.cycle();
            assert!(s.state.ftq.len() <= machine.front_end.ftq_entries as usize);
            assert!(s.state.supply.instrs() <= SUPPLY_CAP + fe_model::LINE_INSTRS);
        }
    }

    #[test]
    fn stall_classes_partition_zero_retire_cycles() {
        let p = program();
        let machine = MachineConfig::table3();
        let mut s = sim(&p, boomerang(&machine));
        let stats = s.run(50_000, 300_000);
        let classified = stats.stalls.front_end_total() + stats.backend_stall_cycles;
        // Total cycles >= classified stalls + cycles that retired work.
        let min_busy = stats.instructions / machine.core.width as u64;
        assert!(classified + min_busy <= stats.cycles + 1);
        // And the run must have seen several stall classes.
        assert!(stats.stalls.redirect > 0);
        // Boomerang may fully cover I-cache stalls on this small
        // fixture; the baseline cannot.
        let mut base = sim(
            &p,
            EngineScheme::real(fe_baselines::NoPrefetch::new(2048, 4)),
        );
        let base_stats = base.run(50_000, 300_000);
        assert!(base_stats.stalls.icache_miss > 0);
    }

    #[test]
    fn prefetch_accounting_balances() {
        let p = program();
        let machine = MachineConfig::table3();
        let mut s = sim(&p, boomerang(&machine));
        let stats = s.run(100_000, 400_000);
        assert!(
            stats.prefetch.issued > 0,
            "FDIP-style prefetching must fire"
        );
        // Prefetched lines resident when measurement starts may be
        // judged during it, so the balance holds up to one L1-I of
        // carry-over.
        let carry = machine.l1i.lines() as u64;
        assert!(
            stats.prefetch.useful + stats.prefetch.wasted <= stats.prefetch.issued + carry,
            "judged prefetches cannot exceed issued + resident ({} + {} vs {} + {})",
            stats.prefetch.useful,
            stats.prefetch.wasted,
            stats.prefetch.issued,
            carry,
        );
    }

    #[test]
    fn scheme_counters_surface() {
        let p = program();
        let machine = MachineConfig::table3();
        let mut s = sim(&p, boomerang(&machine));
        let _ = s.run(20_000, 50_000);
        let EngineScheme::Real(scheme) = &s.state.scheme else {
            panic!("boomerang is a real scheme");
        };
        let counters = scheme.debug_counters();
        assert!(counters.iter().any(|(name, _)| *name == "reactive_fills"));
    }

    /// Cycle-by-cycle ticking with no span skipping — the reference the
    /// driver's quiet-span skip must reproduce.
    fn tick_plainly(sim: &mut Simulator<'_>, limit: u64) {
        while sim.state.retired_total < limit && !sim.state.stream_ended() {
            sim.cycle();
        }
    }

    /// A full-detail run as a plain `cycle()` loop.
    fn ticked_run(sim: &mut Simulator<'_>, warmup: u64, measure: u64) -> SimStats {
        tick_plainly(sim, warmup);
        sim.begin_measurement();
        let end = sim.state.retired_total + measure;
        tick_plainly(sim, end);
        sim.finalize()
    }

    /// A sampled run driven step by step through the functional paths,
    /// with every timed window a plain `cycle()` loop.
    fn ticked_sampled(
        sim: &mut Simulator<'_>,
        warmup: u64,
        measure: u64,
        spec: SamplingSpec,
    ) -> Vec<SimStats> {
        sim.warm_functional(warmup);
        let end = sim.state.retired_total + measure;
        let mut intervals = Vec::new();
        while sim.state.retired_total < end && !sim.state.stream_ended() {
            let budget = (end - sim.state.retired_total).min(spec.interval);
            if budget < spec.detail {
                sim.warm_functional(budget);
                continue;
            }
            let fwarm = spec.warmup.min(budget - spec.detail);
            sim.skip_functional(budget - spec.detail - fwarm);
            sim.warm_functional(fwarm);
            if sim.state.stream_ended() || !sim.begin_interval() {
                break;
            }
            let ramp = (spec.detail / 16).min(crate::sampling::RAMP_CAP);
            let ramp_end = sim.state.retired_total + ramp;
            tick_plainly(sim, ramp_end);
            sim.begin_measurement();
            let measure_end = sim.state.retired_total + spec.detail - ramp;
            tick_plainly(sim, measure_end);
            let stats = sim.finalize();
            if stats.instructions > 0 {
                intervals.push(stats);
            }
        }
        intervals
    }

    const ALL_SCHEMES: [fn() -> crate::SchemeSpec; 6] = [
        || crate::SchemeSpec::NoPrefetch,
        || crate::SchemeSpec::Fdip,
        crate::SchemeSpec::boomerang,
        || crate::SchemeSpec::Confluence,
        || crate::SchemeSpec::Ideal,
        crate::SchemeSpec::shotgun,
    ];

    #[test]
    fn quiet_span_skipping_matches_cycle_by_cycle_ticking() {
        let machine = MachineConfig::table3();
        let mut skipped = 0;
        for wl in [
            fe_cfg::workloads::nutch(),
            fe_cfg::workloads::oracle(),
            fe_cfg::workloads::zeus(),
        ] {
            let program = wl.scaled(0.05).build();
            for scheme in ALL_SCHEMES.map(|make| make()) {
                let fresh = || Simulator::new(&program, machine.clone(), scheme.build(&machine), 9);
                let driven = fresh().run(20_000, 60_000);
                let ticked = ticked_run(&mut fresh(), 20_000, 60_000);
                assert_eq!(
                    driven,
                    ticked,
                    "quiet-span skipping diverged on ({}, {})",
                    wl.name,
                    scheme.label(),
                );
                // The comparison is only worth something if spans are
                // actually skipped along the way.
                let mut sim = fresh();
                while sim.state.retired_total < 80_000 {
                    match sim.try_skip_quiet_span() {
                        0 => sim.cycle(),
                        k => skipped += k,
                    }
                }
            }
        }
        assert!(skipped > 0, "no quiet span was ever skipped");
    }

    #[test]
    fn sampled_driver_matches_cycle_by_cycle_ticking() {
        let machine = MachineConfig::table3();
        let spec = SamplingSpec {
            interval: 40_000,
            detail: 8_000,
            warmup: 10_000,
        };
        let program = fe_cfg::workloads::apache().scaled(0.05).build();
        for scheme in ALL_SCHEMES.map(|make| make()) {
            let fresh = || Simulator::new(&program, machine.clone(), scheme.build(&machine), 9);
            let driven = fresh().run_sampled(30_000, 150_000, spec);
            let ticked = ticked_sampled(&mut fresh(), 30_000, 150_000, spec);
            assert!(!driven.truncated);
            assert_eq!(driven.intervals.len(), 4);
            assert_eq!(
                driven.intervals,
                ticked,
                "sampled driver diverged on {}",
                scheme.label()
            );
        }
    }

    #[test]
    fn redirect_penalty_scales_bubble_cycles() {
        let p = program();
        let mut fast_cfg = MachineConfig::table3();
        fast_cfg.core.redirect_penalty = 4;
        let mut slow_cfg = MachineConfig::table3();
        slow_cfg.core.redirect_penalty = 24;
        let mut fast = Simulator::new(
            &p,
            fast_cfg,
            EngineScheme::real(fe_baselines::NoPrefetch::new(2048, 4)),
            9,
        );
        let mut slow = Simulator::new(
            &p,
            slow_cfg,
            EngineScheme::real(fe_baselines::NoPrefetch::new(2048, 4)),
            9,
        );
        let f = fast.run(50_000, 200_000);
        let s = slow.run(50_000, 200_000);
        assert!(
            s.stalls.redirect > f.stalls.redirect,
            "bigger penalty, more bubbles"
        );
        assert!(s.cycles > f.cycles);
    }
}
