//! Consolidated multi-context simulation: N independent pipelines —
//! each its own program, scheme, and deterministically derived seed —
//! contending on one shared LLC/NoC.
//!
//! The paper's server workloads (Apache, Zeus, Oracle, DB2) run
//! consolidated on shared cache hierarchies in production; this module
//! makes that class of interference experiment simulable. Contexts are
//! interleaved round-robin one cycle at a time in context order, so a
//! run is fully deterministic: the same (members, base seed, lengths)
//! produce the same [`MultiStats`] regardless of host parallelism.
//!
//! ```no_run
//! use fe_cfg::workloads;
//! use fe_model::MachineConfig;
//! use fe_sim::{MultiSimulator, SchemeSpec};
//!
//! let machine = MachineConfig::table3();
//! let apache = workloads::apache().build();
//! let db2 = workloads::db2().build();
//! let mut sim = MultiSimulator::new(
//!     &machine,
//!     vec![
//!         (&apache, SchemeSpec::shotgun().build(&machine)),
//!         (&db2, SchemeSpec::shotgun().build(&machine)),
//!     ],
//!     0x5407,
//! );
//! let stats = sim.run(2_000_000, 8_000_000);
//! println!("ctx0 IPC {:.2}", stats.contexts[0].stats.ipc());
//! ```

use fe_cfg::{Executor, Program};
use fe_model::{MachineConfig, SimStats};
use fe_uarch::{MemStats, MemorySystem};

use crate::engine::{EngineScheme, Simulator};

/// Derives context `ctx`'s seed from the experiment's base seed —
/// the shared SplitMix64 finalizer over the pair, so distinct contexts
/// get decorrelated executor and load-RNG streams even for adjacent
/// base seeds (and never collide with the base seed's own stream).
pub fn derive_ctx_seed(base_seed: u64, ctx: u32) -> u64 {
    fe_model::rng::splitmix64(
        base_seed.wrapping_add(fe_model::rng::SPLITMIX64_GOLDEN.wrapping_mul(ctx as u64 + 1))
            ^ 0x6A09E667F3BCC909,
    )
}

/// One context's measured results.
#[derive(Clone, Debug, PartialEq)]
pub struct ContextStats {
    /// Pipeline statistics for the measured phase.
    pub stats: SimStats,
    /// This context's memory-path traffic and interference counters at
    /// measurement end (misses, queue wait, cross-context evictions).
    pub mem: MemStats,
}

/// Results of a consolidated run: one entry per context, in context
/// order.
#[derive(Clone, Debug, PartialEq)]
pub struct MultiStats {
    /// Per-context results.
    pub contexts: Vec<ContextStats>,
}

/// N pipelines over one shared memory system, interleaved round-robin.
pub struct MultiSimulator<'p> {
    sims: Vec<Simulator<'p>>,
}

impl<'p> MultiSimulator<'p> {
    /// Builds one pipeline per `(program, scheme)` member. Context `i`
    /// gets memory handle `i` of a [`MemorySystem::shared_group`] and
    /// the seed [`derive_ctx_seed`]`(base_seed, i)`.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty (or exceeds the 255-context group
    /// limit) or `machine` fails validation.
    pub fn new(
        machine: &MachineConfig,
        members: Vec<(&'p Program, EngineScheme)>,
        base_seed: u64,
    ) -> Self {
        let mems = MemorySystem::shared_group(machine, members.len());
        let sims = members
            .into_iter()
            .zip(mems)
            .enumerate()
            .map(|(i, ((program, scheme), mem))| {
                let seed = derive_ctx_seed(base_seed, i as u32);
                let walk = Executor::new(program, seed);
                Simulator::with_source(program, machine.clone(), scheme, seed, mem, walk)
            })
            .collect();
        MultiSimulator { sims }
    }

    /// Runs every context for `warmup` instructions (untimed), then
    /// measures `measure` instructions per context.
    ///
    /// All contexts tick every cycle for the whole run: measurement
    /// starts only once the *slowest* context finishes warming, and a
    /// context that reaches its measurement target keeps executing (so
    /// its interference pressure persists) with its statistics frozen
    /// at the target.
    pub fn run(&mut self, warmup: u64, measure: u64) -> MultiStats {
        while self.sims.iter().any(|sim| sim.state.retired_total < warmup) {
            for sim in &mut self.sims {
                sim.cycle();
            }
        }
        for sim in &mut self.sims {
            sim.begin_measurement();
        }
        let targets: Vec<u64> = self
            .sims
            .iter()
            .map(|sim| sim.state.retired_total + measure)
            .collect();
        let mut done: Vec<Option<ContextStats>> = vec![None; self.sims.len()];
        while done.iter().any(Option::is_none) {
            for (i, sim) in self.sims.iter_mut().enumerate() {
                sim.cycle();
                if done[i].is_none() && sim.state.retired_total >= targets[i] {
                    done[i] = Some(ContextStats {
                        stats: sim.finalize(),
                        mem: sim.mem_stats(),
                    });
                }
            }
        }
        MultiStats {
            contexts: done
                .into_iter()
                .map(|ctx| ctx.expect("loop exits only when every context finished"))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::SchemeSpec;
    use fe_cfg::workloads;

    #[test]
    fn derived_seeds_never_share_a_stream() {
        // The executor streams are keyed by the seed and the backend's
        // load RNG by `seed | 1`: contexts share a stream only if the
        // derived seeds collide (mod the low bit). Prove they don't,
        // across contexts and against the base seed itself.
        for base in [0u64, 1, 9, 0x5407, u64::MAX, 0xDEAD_BEEF_CAFE_F00D] {
            let mut seen = fe_uarch::FastSet::default();
            seen.insert(base | 1);
            for ctx in 0..64u32 {
                let derived = derive_ctx_seed(base, ctx);
                assert_ne!(derived, base, "ctx {ctx} reused the base seed");
                assert!(
                    seen.insert(derived | 1),
                    "ctx {ctx} of base {base:#x} shares an RNG stream"
                );
            }
        }
    }

    #[test]
    fn derivation_is_deterministic() {
        assert_eq!(derive_ctx_seed(0x5407, 3), derive_ctx_seed(0x5407, 3));
        assert_ne!(derive_ctx_seed(0x5407, 3), derive_ctx_seed(0x5408, 3));
    }

    #[test]
    fn consolidated_run_is_deterministic() {
        let machine = MachineConfig::table3();
        let apache = workloads::apache().scaled(0.08).build();
        let db2 = workloads::db2().scaled(0.08).build();
        let run = |seed| {
            let members = vec![
                (&apache, SchemeSpec::shotgun().build(&machine)),
                (&db2, SchemeSpec::shotgun().build(&machine)),
            ];
            MultiSimulator::new(&machine, members, seed).run(30_000, 80_000)
        };
        let a = run(0x5407);
        let b = run(0x5407);
        assert_eq!(a, b, "same members + seed must reproduce exactly");
        let c = run(0x9999);
        assert_ne!(a, c, "different base seed must change the run");
    }

    #[test]
    fn contexts_interfere_in_the_shared_llc() {
        // Shrink the LLC so two scaled workloads genuinely contend,
        // then compare total consolidated LLC miss traffic with solo
        // runs of the same (program, scheme, seed) on private memory.
        let mut machine = MachineConfig::table3();
        machine.llc.kib_per_core = 1; // 16 KiB shared LLC: force capacity contention
        let apache = workloads::apache().scaled(0.1).build();
        let db2 = workloads::db2().scaled(0.1).build();

        let members = vec![
            (&apache, SchemeSpec::shotgun().build(&machine)),
            (&db2, SchemeSpec::shotgun().build(&machine)),
        ];
        let consolidated = MultiSimulator::new(&machine, members, 0x5407).run(40_000, 120_000);

        let mut solo_llc_misses = 0;
        for (i, program) in [&apache, &db2].into_iter().enumerate() {
            let mut solo = Simulator::new(
                program,
                machine.clone(),
                SchemeSpec::shotgun().build(&machine),
                derive_ctx_seed(0x5407, i as u32),
            );
            let _ = solo.run(40_000, 120_000);
            solo_llc_misses += solo.mem_stats().instr_llc_misses;
            assert!(
                consolidated.contexts[i].mem.cross_evictions > 0,
                "ctx {i} must lose LLC lines to its neighbor"
            );
        }
        let shared_llc_misses: u64 = consolidated
            .contexts
            .iter()
            .map(|ctx| ctx.mem.instr_llc_misses)
            .sum();
        assert!(
            shared_llc_misses > solo_llc_misses,
            "shared-LLC contention must add misses ({shared_llc_misses} vs {solo_llc_misses} solo)"
        );
    }
}
