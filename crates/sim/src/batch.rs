//! A workload's sampled scheme cells over one recorded stream, run one
//! after another, sharing one initial warm.
//!
//! A sweep is N cells timing the *same* retired-instruction stream
//! under different delivery schemes. A full-detail cell shares nothing
//! with its neighbours, so `Experiment` runs it as a one-cell run. A
//! sampled group shares one step: the initial functional warm. The
//! group function runs the cells one after another, each through its
//! own [`Simulator`](crate::Simulator) reading the workload's [`Trace`]
//! through its own replayer.
//!
//! The first cell leads: it walks the initial warm once, in a single
//! pass, feeding every later cell's scheme as a rider on the same
//! retired blocks. Each later cell then starts from its rider
//! [snapshot](crate::snapshot): deep copies of the leader's
//! scheme-independent warmed structures (L1-I, TAGE, retire RAS,
//! memory image) and its own warmed rider scheme are installed, and its
//! replayer decode-skips past the warmed prefix. The structures depend
//! only on the retired stream — never on the scheme riding above them,
//! and no scheme's warm hook writes through the front-end context — so
//! each cell lands in exactly the state its own warm would have
//! produced.
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
//! cells share its warm.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use fe_cfg::Program;
use fe_model::{BlockSource, MachineConfig, RetiredBlock, SimStats};
use fe_trace::Trace;

use crate::engine::EngineScheme;
use crate::runner::{assert_trace_matches, run_scheme_replayed, simulator, RunLength, SchemeSpec};
use crate::sampling::{check_sampled, SampledStats, SamplingSpec};
use crate::source::SourceKind;

/// Sampled runs of `schemes` over `trace` (recorded from `program`
/// with `seed`) with one shared initial warm; see the module docs.
/// Hands `done` each cell's index and statistics as the cell finishes,
/// in `schemes` order.
///
/// # Panics
///
/// Panics if `sampling` fails [`SamplingSpec::validate`] or `len.measure`
/// cannot fit one detail window (see
/// [`Simulator::run_sampled`](crate::Simulator::run_sampled)).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_sampled_group(
    program: &Program,
    trace: &Trace,
    machine: &MachineConfig,
    seed: u64,
    len: RunLength,
    sampling: SamplingSpec,
    schemes: &[SchemeSpec],
    mut done: impl FnMut(usize, SampledStats),
) {
    check_sampled(len.measure, sampling);
    let Some((leader, rest)) = schemes.split_first() else {
        return;
    };
    let mut sim = simulator(program, trace.replayer(), leader, machine, seed);
    let mut riders: Vec<EngineScheme> = rest.iter().map(|s| s.build(machine)).collect();
    sim.warm_functional_with(len.warmup, &mut riders);
    let snapshots = sim.rider_snapshots(riders);
    done(0, sim.run_intervals(len.measure, sampling));
    for (i, (scheme, snap)) in rest.iter().zip(snapshots).enumerate() {
        let mut sim = simulator(program, trace.replayer(), scheme, machine, seed);
        let warmed = sim.restore_warm(snap);
        sim.skip_functional(warmed);
        done(i + 1, sim.run_intervals(len.measure, sampling));
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
/// Panics if `trace` was not recorded against `program` with `seed`,
/// or under the conditions [`Simulator::run_sampled`](crate::Simulator::run_sampled)
/// panics on.
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
    let mut stats = Vec::with_capacity(specs.len());
    run_sampled_group(
        program,
        trace,
        machine,
        seed,
        len,
        sampling,
        specs,
        |_, cell| stats.push(cell),
    );
    stats
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
}
