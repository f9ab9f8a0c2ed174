//! Scheme specifications, run-length control, and the one-cell
//! `run_scheme*` conveniences. Each wrapper builds one [`Simulator`]
//! over its source and runs it through the same driver as an
//! `Experiment` sweep cell.

use fe_cfg::{Executor, Program};
use fe_model::{MachineConfig, SimStats};
use fe_trace::Trace;
use shotgun::{RegionPolicy, ShotgunConfig, ShotgunPrefetcher};

use fe_baselines::{Boomerang, Confluence, ConfluenceConfig, Fdip, NoPrefetch};

use fe_uarch::MemorySystem;

use crate::engine::{EngineScheme, Simulator};
use crate::pipeline::{BPU_BLOCKS_PER_CYCLE, FETCH_LINES_PER_CYCLE, SUPPLY_CAP};
use crate::sampling::{SampledStats, SamplingSpec};
use crate::source::SourceKind;

/// A control-flow-delivery scheme to evaluate.
#[derive(Clone, Debug, PartialEq)]
pub enum SchemeSpec {
    /// Conventional front end, no prefetching (the baseline).
    NoPrefetch,
    /// Fetch-directed instruction prefetching.
    Fdip,
    /// Boomerang (FDIP + reactive BTB fill) with a conventional BTB of
    /// the given entry count.
    Boomerang {
        /// BTB entries (2048 reproduces §5.2).
        btb_entries: u32,
    },
    /// Confluence (SHIFT temporal streaming + 16K BTB).
    Confluence,
    /// The ideal front end of Fig. 1.
    Ideal,
    /// Shotgun with an explicit configuration.
    Shotgun(ShotgunConfig),
}

impl SchemeSpec {
    /// The paper's §5.2 Boomerang configuration.
    pub fn boomerang() -> Self {
        SchemeSpec::Boomerang { btb_entries: 2048 }
    }

    /// The paper's §5.2 Shotgun configuration.
    pub fn shotgun() -> Self {
        SchemeSpec::Shotgun(ShotgunConfig::default())
    }

    /// Display label used in the figures. Distinct specs get distinct
    /// labels (the `Experiment` API relies on this to key cells), so
    /// non-default Shotgun sizings are spelled out.
    pub fn label(&self) -> String {
        match self {
            SchemeSpec::NoPrefetch => "no-prefetch".into(),
            SchemeSpec::Fdip => "fdip".into(),
            SchemeSpec::Boomerang { btb_entries: 2048 } => "boomerang".into(),
            SchemeSpec::Boomerang { btb_entries } => format!("boomerang-{btb_entries}"),
            SchemeSpec::Confluence => "confluence".into(),
            SchemeSpec::Ideal => "ideal".into(),
            SchemeSpec::Shotgun(cfg) if *cfg == ShotgunConfig::default() => "shotgun".into(),
            SchemeSpec::Shotgun(cfg) => {
                let mut label = String::from("shotgun");
                // The sizing a default-budget config would have under
                // this policy (NoBitVector legitimately grows the
                // U-BTB; anything else is a bespoke sizing).
                let mut expected = ShotgunConfig::default().sizing;
                if cfg.policy == RegionPolicy::NoBitVector {
                    expected.ubtb = fe_model::storage::no_bit_vector_entries(expected.ubtb);
                }
                if cfg.sizing != expected {
                    label.push_str(&format!(
                        "-{}u{}c{}r",
                        cfg.sizing.ubtb, cfg.sizing.cbtb, cfg.sizing.rib
                    ));
                }
                if cfg.policy != RegionPolicy::Bit8 {
                    label.push_str(&format!("-{}", cfg.policy.label()));
                }
                let default = ShotgunConfig::default();
                if cfg.ways != default.ways {
                    label.push_str(&format!("-{}w", cfg.ways));
                }
                if cfg.prefetch_buffer != default.prefetch_buffer {
                    label.push_str(&format!("-pb{}", cfg.prefetch_buffer));
                }
                label
            }
        }
    }

    /// Most entries any one structure of a scheme may have: 4× the
    /// largest conventional BTB of Fig. 13's budget sweep (8K entries).
    /// Applies to a Boomerang BTB and to each Shotgun U-BTB, C-BTB, RIB
    /// and BTB prefetch buffer; bounds what one spec can allocate.
    pub const MAX_ENTRIES: u32 = 4 * 8192;

    /// Checks that the scheme's geometry can be built: every structure
    /// has between 1 and [`Self::MAX_ENTRIES`] entries, and a Shotgun's
    /// associativity is non-zero and no larger than its smallest
    /// set-associative structure.
    pub fn validate(&self) -> Result<(), String> {
        let label = self.label();
        let entries = |what: &str, n: u32| {
            if (1..=Self::MAX_ENTRIES).contains(&n) {
                Ok(())
            } else {
                Err(format!(
                    "scheme `{label}`: {what} entries must be between 1 and {}, got {n}",
                    Self::MAX_ENTRIES
                ))
            }
        };
        match self {
            SchemeSpec::Boomerang { btb_entries } => entries("BTB", *btb_entries),
            SchemeSpec::Shotgun(cfg) => {
                entries("U-BTB", cfg.sizing.ubtb)?;
                entries("C-BTB", cfg.sizing.cbtb)?;
                entries("RIB", cfg.sizing.rib)?;
                entries("prefetch buffer", cfg.prefetch_buffer)?;
                let smallest = cfg.sizing.ubtb.min(cfg.sizing.cbtb).min(cfg.sizing.rib);
                if (1..=smallest).contains(&cfg.ways) {
                    Ok(())
                } else {
                    Err(format!(
                        "scheme `{label}`: ways must be between 1 and the smallest \
                         structure's {smallest} entries, got {}",
                        cfg.ways
                    ))
                }
            }
            SchemeSpec::NoPrefetch
            | SchemeSpec::Fdip
            | SchemeSpec::Confluence
            | SchemeSpec::Ideal => Ok(()),
        }
    }

    /// Instantiates the scheme for a machine configuration.
    pub fn build(&self, machine: &MachineConfig) -> EngineScheme {
        let ways = machine.front_end.btb_ways as usize;
        match self {
            SchemeSpec::NoPrefetch => EngineScheme::real(NoPrefetch::new(
                machine.front_end.btb_entries as usize,
                ways,
            )),
            SchemeSpec::Fdip => {
                EngineScheme::real(Fdip::new(machine.front_end.btb_entries as usize, ways))
            }
            SchemeSpec::Boomerang { btb_entries } => EngineScheme::real(Boomerang::new(
                *btb_entries as usize,
                ways,
                machine.front_end.btb_prefetch_buffer as usize,
            )),
            SchemeSpec::Confluence => {
                EngineScheme::real(Confluence::new(ConfluenceConfig::default()))
            }
            SchemeSpec::Ideal => EngineScheme::Ideal,
            SchemeSpec::Shotgun(cfg) => EngineScheme::real(ShotgunPrefetcher::new(
                *cfg,
                machine.front_end.ras_entries as usize,
            )),
        }
    }
}

/// How long to warm up and measure, in instructions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunLength {
    /// Instructions executed before measurement starts (cache, BTB and
    /// predictor warmup — the paper's checkpoint warming, §5.1).
    pub warmup: u64,
    /// Instructions measured.
    pub measure: u64,
}

impl RunLength {
    /// Default experiment length: 3M warmup + 12M measured.
    pub const DEFAULT: RunLength = RunLength {
        warmup: 3_000_000,
        measure: 12_000_000,
    };

    /// Short length for tests.
    pub const SMOKE: RunLength = RunLength {
        warmup: 200_000,
        measure: 500_000,
    };

    /// Paper-scale run: 10M warmup + 200M measured instructions per
    /// cell (§5.1's order of magnitude) — practical only under
    /// [`Experiment::sampling`](crate::Experiment::sampling).
    pub const PAPER: RunLength = RunLength {
        warmup: 10_000_000,
        measure: 200_000_000,
    };

    /// Instructions a recorded trace must hold to replay a run of this
    /// length on `machine`: warmup + measure, plus the pipeline's
    /// bounded lookahead past the last retired instruction (the ideal
    /// BPU reads the oracle ahead of retirement, bounded by the FTQ
    /// and supply capacities) — every station that can hold a
    /// pulled-but-unretired block counted in worst-case maximum-size
    /// blocks, so a trace of this length can never run dry
    /// mid-simulation.
    pub fn trace_instrs(&self, machine: &MachineConfig) -> u64 {
        // Deliberately conservative, station by station: the FTQ (one
        // block per entry), the supply buffer (its instruction cap can
        // be all one-instruction blocks, plus a line of delivery
        // overshoot per fetch step), the blocks in flight through the
        // per-cycle stage throughputs (BPU prediction and fetch
        // delivery), the backend's current block and its oracle
        // read-ahead, and a margin for warmup retire-width overshoot
        // and anything a future stage buffers. Stacked maximum-width
        // blocks previously squeezed through the old additive slack;
        // every term here is a block count multiplied out by the
        // worst-case block width.
        let lookahead_blocks = machine.front_end.ftq_entries as u64
            + (SUPPLY_CAP + FETCH_LINES_PER_CYCLE as u64 * fe_model::LINE_INSTRS)
            + BPU_BLOCKS_PER_CYCLE as u64
            + FETCH_LINES_PER_CYCLE as u64
            + 2 // backend current block + fill_oracle_to(0) read-ahead
            + 32; // margin
        let max_block = fe_model::BasicBlock::MAX_INSTRS as u64;
        self.warmup
            + self.measure
            + machine.core.width as u64 * max_block
            + (lookahead_blocks + 1) * max_block
    }
}

/// A fresh simulator for one cell: `spec` over `source`, with a private
/// memory system.
pub(crate) fn simulator<'p>(
    program: &'p Program,
    source: impl Into<SourceKind<'p>>,
    spec: &SchemeSpec,
    machine: &MachineConfig,
    seed: u64,
) -> Simulator<'p> {
    let mem = MemorySystem::new(machine);
    Simulator::with_source(
        program,
        machine.clone(),
        spec.build(machine),
        seed,
        mem,
        source,
    )
}

/// The full-detail run behind every one-cell wrapper and every
/// full-detail sweep cell.
///
/// # Panics
///
/// Panics if the source ran dry mid-run (the pipeline itself degrades
/// a truncated source into a reported stall, but a cell measured over
/// a partial stream would be silently wrong, so this re-checks loudly).
pub(crate) fn run_full(mut sim: Simulator<'_>, len: RunLength) -> SimStats {
    let stats = sim.run(len.warmup, len.measure);
    assert!(
        !sim.source_exhausted(),
        "one-cell run ran dry mid-run — record at least RunLength::trace_instrs instructions"
    );
    stats
}

/// Runs one scheme over one program — the one-cell convenience wrapper
/// around the simulator. Multi-cell sweeps should use
/// [`Experiment`](crate::Experiment), which parallelizes and derives
/// metrics.
pub fn run_scheme(
    program: &Program,
    spec: &SchemeSpec,
    machine: &MachineConfig,
    len: RunLength,
    seed: u64,
) -> SimStats {
    run_full(
        simulator(program, Executor::new(program, seed), spec, machine, seed),
        len,
    )
}

/// Runs one scheme over one program with the retired stream replayed
/// from `trace` instead of walked live — bit-identical statistics to
/// [`run_scheme`] when the trace was recorded from the same
/// `(program, seed)` and holds at least
/// [`RunLength::trace_instrs`] instructions.
///
/// # Panics
///
/// Panics if `trace` was not recorded against `program` with `seed`
/// (replaying a mismatched stream would silently produce wrong
/// timing), or if the trace ran dry before the run completed.
pub fn run_scheme_replayed(
    program: &Program,
    trace: &Trace,
    spec: &SchemeSpec,
    machine: &MachineConfig,
    len: RunLength,
    seed: u64,
) -> SimStats {
    assert_trace_matches(trace, program, seed);
    run_full(
        simulator(program, trace.replayer(), spec, machine, seed),
        len,
    )
}

pub(crate) fn assert_trace_matches(trace: &Trace, program: &Program, seed: u64) {
    assert_eq!(
        trace.header().seed,
        seed,
        "trace `{}` was recorded with a different seed",
        trace.header().name,
    );
    assert!(
        trace.matches(program),
        "trace `{}` was recorded against a different program",
        trace.header().name,
    );
}

/// Runs one scheme over one program in sampled mode (see
/// [`SamplingSpec`] and [`Simulator::run_sampled`]) over a recorded
/// trace: the fast-forward phases use the replayer's seekable
/// decode-skip, which is where the bulk of sampled mode's speedup
/// comes from. A trace that runs dry ends the run early with the
/// intervals measured so far and `truncated` set.
///
/// # Panics
///
/// Panics if `trace` was not recorded against `program` with `seed`,
/// or under the conditions of [`Simulator::run_sampled`].
pub fn run_scheme_sampled_replayed(
    program: &Program,
    trace: &Trace,
    spec: &SchemeSpec,
    machine: &MachineConfig,
    len: RunLength,
    sampling: SamplingSpec,
    seed: u64,
) -> SampledStats {
    assert_trace_matches(trace, program, seed);
    simulator(program, trace.replayer(), spec, machine, seed).run_sampled(
        len.warmup,
        len.measure,
        sampling,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "ran dry mid-run")]
    fn truncated_trace_panics_mid_run() {
        let program = fe_cfg::workloads::nutch().scaled(0.05).build();
        let len = RunLength {
            warmup: 20_000,
            measure: 1_000_000,
        };
        let trace = Trace::record(&program, 0x5407, 50_000);
        let machine = MachineConfig::table3();
        run_scheme_replayed(
            &program,
            &trace,
            &SchemeSpec::NoPrefetch,
            &machine,
            len,
            0x5407,
        );
    }

    #[test]
    fn distinct_shotgun_configs_get_distinct_labels() {
        let specs = [
            SchemeSpec::shotgun(),
            SchemeSpec::Shotgun(ShotgunConfig::default().with_cbtb_entries(64)),
            SchemeSpec::Shotgun(ShotgunConfig::default().with_cbtb_entries(1024)),
            SchemeSpec::Shotgun(ShotgunConfig::for_budget(512)),
            SchemeSpec::Shotgun(ShotgunConfig::default().with_policy(RegionPolicy::NoBitVector)),
            SchemeSpec::Shotgun(ShotgunConfig::default().with_policy(RegionPolicy::FiveBlocks)),
            SchemeSpec::Shotgun(ShotgunConfig {
                ways: 8,
                ..ShotgunConfig::default()
            }),
            SchemeSpec::Shotgun(ShotgunConfig {
                prefetch_buffer: 64,
                ..ShotgunConfig::default()
            }),
        ];
        let labels: Vec<String> = specs.iter().map(|s| s.label()).collect();
        for (i, l) in labels.iter().enumerate() {
            assert!(!labels[..i].contains(l), "duplicate label {l}");
        }
    }

    #[test]
    fn canonical_configs_keep_short_labels() {
        assert_eq!(SchemeSpec::shotgun().label(), "shotgun");
        assert_eq!(
            SchemeSpec::Shotgun(ShotgunConfig::for_budget(2048)).label(),
            "shotgun"
        );
        assert_eq!(SchemeSpec::boomerang().label(), "boomerang");
        assert_eq!(
            SchemeSpec::Shotgun(ShotgunConfig::default().with_policy(RegionPolicy::NoBitVector))
                .label(),
            "shotgun-No bit vector",
            "policy-only variants keep the figure labels"
        );
    }
}
