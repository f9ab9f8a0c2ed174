//! A workload's scheme cells over one recorded stream, run one after
//! another, sharing only the sampled initial warm.
//!
//! A sweep is N cells timing the *same* retired-instruction stream
//! under different delivery schemes. [`BatchSimulator`] takes one
//! workload's cells (`Experiment` hands it each workload's uncached
//! cells) and runs them one after another to completion: each cell's
//! [`Simulator`] is built when the cell starts, reads the workload's
//! [`Trace`] through its own replayer, and is dropped when the cell
//! ends.
//!
//! In sampled mode one step is shared. Cells with the same warmup
//! length and no stored [snapshot](crate::snapshot) form a group whose
//! leader walks the initial warm once, in a single pass, feeding every
//! follower's scheme the same retired blocks as a rider. Each follower
//! then starts the way a snapshot-restored cell does: deep copies of
//! the leader's scheme-independent warmed structures (L1-I, TAGE,
//! retire RAS, memory image) and its own rider scheme are installed,
//! and its replayer decode-skips past the warmed prefix. The structures
//! depend only on the retired stream — never on the scheme riding
//! above them, and no scheme's warm hook writes through the front-end
//! context — so each follower lands in exactly the state its own warm
//! would have produced. Cells that restored a stored snapshot have
//! nothing to warm and sit out.
//!
//! The trace decode is not shared. Fanning one decoder out to every
//! cell through a buffered window, with the cells round-robined in
//! bounded turns, bought no throughput (batch vs one-cell measured
//! 1.01–1.04×) while holding every cell's pipeline and the window in
//! memory at once.
//!
//! Statistics are per cell: every cell keeps its own pipeline, branch
//! predictor, memory system, RNG stream, and stall accounting, so each
//! cell is byte-identical to the same cell run alone, whichever other
//! cells ride in its batch.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;

use fe_cfg::Program;
use fe_model::{BlockSource, MachineConfig, RetiredBlock, SimStats};
use fe_trace::Trace;

use crate::engine::{EngineScheme, Simulator, SnapshotSlot};
use crate::runner::{assert_trace_matches, run_scheme_replayed, simulator, RunLength, SchemeSpec};
use crate::sampling::{SampledStats, SamplingSpec};
use crate::snapshot::{SnapshotKey, SnapshotStore, WarmSnapshot};
use crate::source::SourceKind;

/// N scheme cells over one recorded stream; see the module docs.
///
/// Add every cell with [`Self::add_cell`], then consume the batch with
/// [`Self::run`] (full detail) or [`Self::run_sampled`] (interval
/// sampling). Results come back in cell-insertion order and are
/// byte-identical to running each cell alone.
pub struct BatchSimulator<'p> {
    program: &'p Program,
    trace: &'p Trace,
    machine: MachineConfig,
    seed: u64,
    sampling: Option<SamplingSpec>,
    snapshots: Option<&'p SnapshotStore>,
    cells: Vec<(SchemeSpec, RunLength)>,
}

impl<'p> BatchSimulator<'p> {
    /// Builds a batch over `trace`, recorded from `program` with
    /// `seed`. Pass `sampling` to run every cell in sampled mode; cells
    /// of a batch all run the same mode.
    ///
    /// # Panics
    ///
    /// The run panics if `machine` fails validation or `sampling` fails
    /// [`SamplingSpec::validate`].
    pub fn new(
        program: &'p Program,
        machine: MachineConfig,
        trace: &'p Trace,
        seed: u64,
        sampling: Option<SamplingSpec>,
    ) -> Self {
        BatchSimulator {
            program,
            trace,
            machine,
            seed,
            sampling,
            snapshots: None,
            cells: Vec::new(),
        }
    }

    /// Lets sampled cells restore their warmed state from `store` (or
    /// capture it there after warming).
    pub(crate) fn with_snapshots(mut self, store: &'p SnapshotStore) -> Self {
        self.snapshots = Some(store);
        self
    }

    /// Adds one scheme cell running `len` instructions. Cells may have
    /// heterogeneous run lengths; in sampled mode only cells with the
    /// same warmup length share a warm.
    ///
    /// # Panics
    ///
    /// In sampled mode, the run panics if `len.measure` cannot fit one
    /// detail window (see [`Simulator::run_sampled`]).
    pub fn add_cell(&mut self, spec: &SchemeSpec, len: RunLength) {
        self.cells.push((spec.clone(), len));
    }

    /// Runs every cell to completion in insertion order, handing each
    /// finished simulator to `done` with its cell index and scheme.
    fn for_each_cell(self, mut done: impl FnMut(usize, &SchemeSpec, Simulator<'p>)) {
        let Some(sampling) = self.sampling else {
            for (i, (spec, len)) in self.cells.iter().enumerate() {
                let mut sim = self.simulator(spec);
                sim.start_full(len.warmup, len.measure);
                sim.drive();
                done(i, spec, sim);
            }
            return;
        };
        let slots: Vec<SnapshotSlot<'p>> = self
            .cells
            .iter()
            .map(|(spec, len)| {
                let key = SnapshotKey::for_run(
                    self.trace.header().fingerprint,
                    &self.machine,
                    spec,
                    self.seed,
                    len.warmup,
                );
                Some((self.snapshots?, key))
            })
            .collect();
        // One store lookup per cell, before any cell runs, so the
        // shared-warm groups are known up front. A follower's warmed
        // state is filled in by its leader.
        let mut restored: Vec<Option<Arc<WarmSnapshot>>> = slots
            .iter()
            .map(|slot| slot.and_then(|(store, key)| store.get(&key)))
            .collect();
        // A cell that must warm follows the first earlier cell that
        // must warm the same length.
        let warms = |i: usize| restored[i].is_none();
        let leader_of: Vec<Option<usize>> = (0..self.cells.len())
            .map(|i| {
                let warmup = self.cells[i].1.warmup;
                (0..i).find(|&l| warms(i) && warms(l) && self.cells[l].1.warmup == warmup)
            })
            .collect();
        for (i, (spec, len)) in self.cells.iter().enumerate() {
            let mut sim = self.simulator(spec);
            match restored[i].take() {
                Some(snap) => sim.restore_sampled(&snap, len.measure, sampling),
                None => sim.start_sampled(len.warmup, len.measure, sampling, slots[i]),
            }
            let followers: Vec<usize> = (i + 1..self.cells.len())
                .filter(|&j| leader_of[j] == Some(i))
                .collect();
            if !followers.is_empty() {
                let mut riders: Vec<EngineScheme> = followers
                    .iter()
                    .map(|&j| self.cells[j].0.build(&self.machine))
                    .collect();
                sim.init_warm(&mut riders);
                for (&j, snap) in followers.iter().zip(sim.rider_snapshots(&riders)) {
                    if let Some((store, key)) = slots[j] {
                        store.put(key, Arc::clone(&snap));
                    }
                    restored[j] = Some(snap);
                }
            }
            sim.drive();
            done(i, spec, sim);
        }
    }

    /// A fresh simulator for one cell, reading its own replayer.
    fn simulator(&self, spec: &SchemeSpec) -> Simulator<'p> {
        simulator(
            self.program,
            self.trace.replayer(),
            spec,
            &self.machine,
            self.seed,
        )
    }

    /// Runs every cell to completion, handing `f` each cell's index and
    /// measured windows (the one full-detail window, or every sampled
    /// interval) as the cell finishes.
    ///
    /// # Panics
    ///
    /// Panics if a cell's replayer ran dry mid-run: a sweep cell
    /// measured over a partial stream would be silently wrong.
    pub(crate) fn run_each(self, mut f: impl FnMut(usize, Vec<SimStats>)) {
        self.for_each_cell(|i, spec, sim| {
            assert!(
                !sim.source_exhausted(),
                "batch cell `{}` ran dry mid-run — record at least \
                 RunLength::trace_instrs instructions",
                spec.label(),
            );
            f(i, sim.measured);
        });
    }

    /// Runs every full-detail cell to completion; statistics in
    /// insertion order.
    ///
    /// # Panics
    ///
    /// Panics if the batch was built with a sampling spec, or if a
    /// cell's replayer ran dry mid-run.
    pub fn run(self) -> Vec<SimStats> {
        assert!(
            self.sampling.is_none(),
            "batch built with a sampling spec — use run_sampled"
        );
        let mut stats = Vec::new();
        self.run_each(|_, mut windows| stats.push(windows.remove(0)));
        stats
    }

    /// Runs every sampled cell to completion; per-cell interval
    /// statistics in insertion order (truncation reported per cell,
    /// exactly as [`Simulator::run_sampled`] does).
    ///
    /// # Panics
    ///
    /// Panics if the batch was built without a sampling spec.
    pub fn run_sampled(self) -> Vec<SampledStats> {
        assert!(
            self.sampling.is_some(),
            "batch built without a sampling spec — use run"
        );
        let mut stats = Vec::new();
        self.for_each_cell(|_, _, sim| {
            stats.push(SampledStats {
                truncated: sim.source_exhausted(),
                intervals: sim.measured,
            });
        });
        stats
    }
}

/// Sampled runs of one workload's scheme group with one shared initial
/// warm — the batch counterpart of N calls to
/// [`run_scheme_sampled_replayed`](crate::run_scheme_sampled_replayed),
/// byte-identical per cell, truncation included. Results are in
/// `specs` order.
///
/// # Panics
///
/// Panics if `trace` was not recorded against `program` with `seed`.
pub fn run_schemes_batch_sampled_replayed(
    program: &Program,
    trace: &Trace,
    specs: &[SchemeSpec],
    machine: &MachineConfig,
    len: RunLength,
    sampling: SamplingSpec,
    seed: u64,
) -> Vec<SampledStats> {
    assert_trace_matches(trace, program, seed);
    let mut batch = BatchSimulator::new(program, machine.clone(), trace, seed, Some(sampling));
    for spec in specs {
        batch.add_cell(spec, len);
    }
    batch.run_sampled()
}

/// [`run_scheme_replayed`] for each of `specs`, in order. A full-detail
/// batch shares nothing, so this is a plain map; it remains only for
/// `perfbench/`, and goes with the ROADMAP's perf-harness item ("One
/// perf harness, and a cost model that closes"), which moves that call
/// site.
///
/// # Panics
///
/// Panics under the same conditions as [`run_scheme_replayed`].
#[doc(hidden)]
pub fn run_schemes_batch_replayed(
    program: &Program,
    trace: &Trace,
    specs: &[SchemeSpec],
    machine: &MachineConfig,
    len: RunLength,
    seed: u64,
) -> Vec<SimStats> {
    specs
        .iter()
        .map(|spec| run_scheme_replayed(program, trace, spec, machine, len, seed))
        .collect()
}

/// Cursor advances between window prunes.
const PRUNE_PERIOD: u32 = 8_192;

struct WindowInner<'p> {
    source: SourceKind<'p>,
    /// Decoded blocks between the trailing and leading cursor;
    /// `buf[0]` is stream index `base`.
    buf: VecDeque<RetiredBlock>,
    base: u64,
    /// Per-cursor absolute stream index.
    pos: Vec<u64>,
    since_prune: u32,
}

impl WindowInner<'_> {
    fn next_for(&mut self, id: usize) -> Option<RetiredBlock> {
        let off = (self.pos[id] - self.base) as usize;
        if off == self.buf.len() {
            // Leading cursor: decode one more block for everyone.
            self.buf.push_back(self.source.next_block()?);
        }
        let rb = self.buf[off];
        self.pos[id] += 1;
        self.since_prune += 1;
        if self.since_prune >= PRUNE_PERIOD {
            self.since_prune = 0;
            let min = self.pos.iter().copied().min().unwrap_or(self.base);
            while self.base < min && !self.buf.is_empty() {
                self.buf.pop_front();
                self.base += 1;
            }
        }
        Some(rb)
    }
}

/// One decoder fanned out to N readers through a buffered window. No
/// run path reads through it: it remains only for `perfbench/`'s
/// window probe, and goes with the ROADMAP's perf-harness item ("One
/// perf harness, and a cost model that closes"), which moves that call
/// site.
#[doc(hidden)]
pub struct SharedWindow<'p> {
    inner: Rc<RefCell<WindowInner<'p>>>,
}

impl<'p> SharedWindow<'p> {
    /// Wraps `source` for shared consumption.
    pub fn new(source: impl Into<SourceKind<'p>>) -> Self {
        SharedWindow {
            inner: Rc::new(RefCell::new(WindowInner {
                source: source.into(),
                buf: VecDeque::with_capacity(1024),
                base: 0,
                pos: Vec::new(),
                since_prune: 0,
            })),
        }
    }

    /// Registers a new reader at the start of the stream.
    ///
    /// # Panics
    ///
    /// Panics if the window has already moved past the stream start —
    /// create every cursor before any of them reads.
    pub fn cursor(&self) -> SharedCursor<'p> {
        let mut inner = self.inner.borrow_mut();
        assert!(
            inner.base == 0,
            "shared cursors must be created before consumption starts"
        );
        inner.pos.push(0);
        SharedCursor {
            inner: Rc::clone(&self.inner),
            id: inner.pos.len() - 1,
        }
    }
}

/// One reader of a [`SharedWindow`]; it goes with the window.
#[doc(hidden)]
pub struct SharedCursor<'p> {
    inner: Rc<RefCell<WindowInner<'p>>>,
    id: usize,
}

impl SharedCursor<'_> {
    /// The next block at this cursor's stream position.
    #[inline]
    pub fn next_block(&mut self) -> Option<RetiredBlock> {
        self.inner.borrow_mut().next_for(self.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_scheme_sampled_replayed;
    use fe_cfg::workloads;

    const SEED: u64 = 0x5407;

    #[test]
    fn shared_cursors_each_see_the_whole_stream() {
        let program = workloads::nutch().scaled(0.05).build();
        let trace = Trace::record(&program, SEED, 20_000);
        let window = SharedWindow::new(trace.replayer());
        let mut a = window.cursor();
        let mut b = window.cursor();
        let mut reference = trace.replayer();
        // Interleave unevenly: `a` sprints ahead, `b` trails, and the
        // window must keep `b`'s blocks buffered until it catches up.
        let mut a_blocks = Vec::new();
        let mut b_blocks = Vec::new();
        loop {
            let mut progressed = false;
            for _ in 0..7 {
                if let Some(rb) = a.next_block() {
                    a_blocks.push(rb);
                    progressed = true;
                }
            }
            if let Some(rb) = b.next_block() {
                b_blocks.push(rb);
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
        while let Some(rb) = b.next_block() {
            b_blocks.push(rb);
        }
        let mut expected = Vec::new();
        while let Some(rb) = reference.next_block() {
            expected.push(rb);
        }
        assert_eq!(a_blocks, expected);
        assert_eq!(b_blocks, expected);
    }

    #[test]
    fn batch_full_detail_matches_serial_cells() {
        let program = workloads::zeus().scaled(0.2).build();
        let len = RunLength {
            warmup: 30_000,
            measure: 80_000,
        };
        let machine = MachineConfig::table3();
        let trace = Trace::record(&program, SEED, len.trace_instrs(&machine));
        let specs = [
            SchemeSpec::NoPrefetch,
            SchemeSpec::boomerang(),
            SchemeSpec::shotgun(),
        ];
        let mut batch = BatchSimulator::new(&program, machine.clone(), &trace, SEED, None);
        for spec in &specs {
            batch.add_cell(spec, len);
        }
        for (spec, got) in specs.iter().zip(&batch.run()) {
            let serial = run_scheme_replayed(&program, &trace, spec, &machine, len, SEED);
            assert_eq!(
                got,
                &serial,
                "batch diverged from serial for {}",
                spec.label()
            );
        }
    }

    #[test]
    fn batch_sampled_matches_serial_cells() {
        let program = workloads::streaming().scaled(0.2).build();
        let len = RunLength {
            warmup: 20_000,
            measure: 200_000,
        };
        let machine = MachineConfig::table3();
        let trace = Trace::record(&program, SEED, len.trace_instrs(&machine));
        let spec = SamplingSpec {
            interval: 40_000,
            detail: 8_000,
            warmup: 10_000,
        };
        // One cell per scheme family: every follower kind rides the
        // shared initial warm, and the Ideal cell exercises the
        // scheme-less rider slot.
        let schemes = [
            SchemeSpec::NoPrefetch,
            SchemeSpec::boomerang(),
            SchemeSpec::Confluence,
            SchemeSpec::shotgun(),
            SchemeSpec::Ideal,
        ];
        let batch = run_schemes_batch_sampled_replayed(
            &program, &trace, &schemes, &machine, len, spec, SEED,
        );
        for (scheme, got) in schemes.iter().zip(&batch) {
            let serial =
                run_scheme_sampled_replayed(&program, &trace, scheme, &machine, len, spec, SEED);
            assert_eq!(
                got.intervals,
                serial.intervals,
                "sampled batch diverged from serial for {}",
                scheme.label()
            );
            assert_eq!(got.truncated, serial.truncated);
        }
    }

    #[test]
    fn sampled_group_running_dry_in_the_shared_warm_reports_like_one_cell_runs() {
        let program = workloads::nutch().scaled(0.05).build();
        let machine = MachineConfig::table3();
        let len = RunLength {
            warmup: 50_000,
            measure: 200_000,
        };
        let spec = SamplingSpec {
            interval: 40_000,
            detail: 8_000,
            warmup: 10_000,
        };
        // The recording ends inside the initial warm the group shares.
        let trace = Trace::record(&program, SEED, 30_000);
        let schemes = [
            SchemeSpec::NoPrefetch,
            SchemeSpec::shotgun(),
            SchemeSpec::Ideal,
        ];
        let batch = run_schemes_batch_sampled_replayed(
            &program, &trace, &schemes, &machine, len, spec, SEED,
        );
        for (scheme, got) in schemes.iter().zip(&batch) {
            let solo =
                run_scheme_sampled_replayed(&program, &trace, scheme, &machine, len, spec, SEED);
            assert!(solo.truncated, "the one-cell run reports the short trace");
            assert_eq!(
                got,
                &solo,
                "({}) diverged from its one-cell run",
                scheme.label()
            );
        }
    }

    #[test]
    fn sampled_cells_share_a_warm_only_with_equal_warmup_lengths() {
        let program = workloads::apache().scaled(0.1).build();
        let machine = MachineConfig::table3();
        let short = RunLength {
            warmup: 10_000,
            measure: 60_000,
        };
        let long = RunLength {
            warmup: 30_000,
            measure: 60_000,
        };
        let spec = SamplingSpec {
            interval: 20_000,
            detail: 5_000,
            warmup: 5_000,
        };
        let trace = Trace::record(&program, SEED, long.trace_instrs(&machine));
        let cells = [
            (SchemeSpec::shotgun(), long),
            (SchemeSpec::NoPrefetch, short),
            (SchemeSpec::boomerang(), long),
            (SchemeSpec::Confluence, short),
        ];
        let mut batch = BatchSimulator::new(&program, machine.clone(), &trace, SEED, Some(spec));
        for (scheme, len) in &cells {
            batch.add_cell(scheme, *len);
        }
        for ((scheme, len), got) in cells.iter().zip(batch.run_sampled()) {
            let solo =
                run_scheme_sampled_replayed(&program, &trace, scheme, &machine, *len, spec, SEED);
            assert_eq!(
                got,
                solo,
                "({}) diverged from its one-cell run",
                scheme.label()
            );
        }
    }

    #[test]
    fn heterogeneous_run_lengths_release_short_cells_early() {
        let program = workloads::db2().scaled(0.2).build();
        let long = RunLength {
            warmup: 30_000,
            measure: 90_000,
        };
        let short = RunLength {
            warmup: 10_000,
            measure: 20_000,
        };
        let machine = MachineConfig::table3();
        let trace = Trace::record(&program, SEED, long.trace_instrs(&machine));
        let mut batch = BatchSimulator::new(&program, machine.clone(), &trace, SEED, None);
        batch.add_cell(&SchemeSpec::shotgun(), long);
        batch.add_cell(&SchemeSpec::NoPrefetch, short);
        let stats = batch.run();
        let serial_long = run_scheme_replayed(
            &program,
            &trace,
            &SchemeSpec::shotgun(),
            &machine,
            long,
            SEED,
        );
        let serial_short = run_scheme_replayed(
            &program,
            &trace,
            &SchemeSpec::NoPrefetch,
            &machine,
            short,
            SEED,
        );
        assert_eq!(stats[0], serial_long);
        assert_eq!(stats[1], serial_short);
    }
}
