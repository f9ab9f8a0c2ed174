//! The single-decode multi-scheme batch engine.
//!
//! A sweep is N cells timing the *same* retired-instruction stream
//! under different delivery schemes. Decoding the shared trace once per
//! cell (and the executor walk behind it) is pure replicated work on a
//! single-core host, so every run goes through this module as one
//! batch: `Experiment` hands it each workload's uncached cells, and the
//! one-cell wrappers in [`runner`](crate::runner) run a batch of one.
//!
//! ```text
//!            ┌────────────── SharedWindow ──────────────┐
//! trace ──▶  │ decode once ─▶ VecDeque<RetiredBlock>    │
//!            │        cursor 0 ─▶ cell 0 (no-prefetch)  │
//!            │        cursor 1 ─▶ cell 1 (boomerang)    │
//!            │        cursor 2 ─▶ cell 2 (shotgun)      │
//!            └──────────────────────────────────────────┘
//! ```
//!
//! * [`SharedWindow`] wraps one [`SourceKind`] decoder and buffers the
//!   blocks between the slowest and fastest cursor; each cell's
//!   pipeline pulls through its own [`SharedCursor`]
//!   ([`SourceKind::Shared`]), so every block is decoded exactly once
//!   for the whole group and the window is pruned as the trailing
//!   cursor advances. A cursor left alone — every other cursor
//!   released — skips by forwarding to the source's own `skip_instrs`,
//!   so a batch of one keeps the replayer's decode-skip.
//! * [`BatchSimulator`] owns the cells — [`Simulator`]s, each advanced
//!   through the one `Phase` driver every run uses — and round-robins
//!   them in bounded retired-instruction rounds. Chunked rounds rather
//!   than strict cycle lockstep: a measured probe showed per-cycle
//!   interleaving thrashes every cell's predictor tables in and out of
//!   cache, while ~10⁶-instruction chunks keep each cell's tables hot
//!   *and* still bound the window.
//! * In sampled mode the *initial functional warm* is shared too:
//!   cells with the same warmup length form a group whose leader walks
//!   the warm window once, feeding every follower's scheme the same
//!   retired blocks as riders; when the group's warm completes, deep
//!   copies of the leader's scheme-independent structures (L1-I, TAGE,
//!   retire RAS, memory image) are installed into each follower, which
//!   merely seeks its cursor past the warmed prefix. The structures
//!   depend only on the retired stream — never on the scheme riding
//!   above them, and no scheme's warm hook writes through the front-end
//!   context — so each follower lands in exactly the state its own warm
//!   would have produced. Cells that restored a warmed-state
//!   [snapshot](crate::snapshot) have nothing to warm and sit out.
//!
//! Statistics are per cell: every cell keeps its own pipeline, branch
//! predictor, memory system, RNG stream, and stall accounting — only
//! the decode (and the initial warm) is shared — so each cell is
//! byte-identical to the same cell run alone, whichever other cells
//! ride in its batch.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use fe_cfg::Program;
use fe_model::{BlockSource, MachineConfig, RetiredBlock, SimStats};
use fe_trace::{ProgramFingerprint, Trace};
use fe_uarch::MemorySystem;

use crate::engine::{EngineScheme, Phase, Simulator};
use crate::runner::{assert_trace_matches, RunLength, SchemeSpec};
use crate::sampling::{SampledStats, SamplingSpec};
use crate::snapshot::{SnapshotKey, SnapshotStore};
use crate::source::SourceKind;

/// Retired instructions each cell advances per round-robin turn. Large
/// enough that a cell's predictor tables stay cache-resident across
/// the turn, small enough that the shared window stays bounded (a
/// round of blocks is a few MB of `Copy` data). Swept empirically:
/// 50K/200K/1M/4M gave 6.3/6.8/7.4/7.1 MIPS on the default sweep —
/// the tables benefit from longer residency right up until the window
/// itself starts fighting for the same cache.
const ROUND_INSTRS: u64 = 1_000_000;
/// Cursor advances between window prunes.
const PRUNE_PERIOD: u32 = 8_192;

struct WindowInner<'p> {
    source: SourceKind<'p>,
    /// Decoded blocks between the trailing and leading cursor;
    /// `buf[0]` is stream index `base`.
    buf: VecDeque<RetiredBlock>,
    base: u64,
    /// Per-cursor absolute stream index (`u64::MAX` = released).
    pos: Vec<u64>,
    since_prune: u32,
    /// A lone cursor's skip advanced the source past blocks the window
    /// never buffered: the stream start is gone.
    seeked: bool,
}

impl WindowInner<'_> {
    fn next_for(&mut self, id: usize) -> Option<RetiredBlock> {
        let off = (self.pos[id] - self.base) as usize;
        debug_assert!(off <= self.buf.len(), "cursor ran ahead of the window");
        if off == self.buf.len() {
            // Leading cursor: decode one more block — the single decode
            // the whole batch shares.
            self.buf.push_back(self.source.next_block()?);
        }
        let rb = self.buf[off];
        self.pos[id] += 1;
        self.since_prune += 1;
        if self.since_prune >= PRUNE_PERIOD {
            self.prune();
        }
        Some(rb)
    }

    /// Bulk [`Self::next_for`]: appends up to `n` blocks to `out` under
    /// one window lock, returning how many were delivered (short only
    /// when the source runs dry). One offset computation, one cursor
    /// advance, and one prune check cover the whole run — the
    /// per-block overhead that dominates a pipeline's oracle refill
    /// when every block bounces through the shared window.
    fn next_n_for(&mut self, id: usize, n: usize, out: &mut VecDeque<RetiredBlock>) -> usize {
        let mut off = (self.pos[id] - self.base) as usize;
        debug_assert!(off <= self.buf.len(), "cursor ran ahead of the window");
        let mut taken = 0;
        while taken < n {
            if off == self.buf.len() {
                match self.source.next_block() {
                    Some(rb) => self.buf.push_back(rb),
                    None => break,
                }
            }
            out.push_back(self.buf[off]);
            off += 1;
            taken += 1;
        }
        self.pos[id] += taken as u64;
        self.since_prune += taken as u32;
        if self.since_prune >= PRUNE_PERIOD {
            self.prune();
        }
        taken
    }

    fn skip_for(&mut self, id: usize, min_instrs: u64) -> u64 {
        // The leading cursor with every other cursor released: nobody
        // can need the skipped blocks, so the source's own skip (a
        // decode-skip on a replayer) serves it. Positions are only
        // compared with each other, so this cursor's stays put and the
        // window restarts empty there.
        let alone = self
            .pos
            .iter()
            .enumerate()
            .all(|(i, &p)| i == id || p == u64::MAX);
        if alone && self.pos[id] - self.base == self.buf.len() as u64 {
            self.buf.clear();
            self.base = self.pos[id];
            self.seeked = true;
            return self.source.skip_instrs(min_instrs);
        }
        // Same contract as `BlockSource::skip_instrs`: whole blocks
        // until at least `min_instrs`, so a shared cursor lands on the
        // exact stream position a private replayer would. (The blocks
        // are decoded for the window — a later cursor may need them.)
        let mut skipped = 0;
        while skipped < min_instrs {
            match self.next_for(id) {
                Some(rb) => skipped += rb.instr_count(),
                None => break,
            }
        }
        skipped
    }

    fn prune(&mut self) {
        self.since_prune = 0;
        let min = self.pos.iter().copied().min().unwrap_or(self.base);
        while self.base < min && !self.buf.is_empty() {
            self.buf.pop_front();
            self.base += 1;
        }
    }
}

/// One decoder fanned out to N readers; see the module docs.
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
                seeked: false,
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
            inner.base == 0 && !inner.seeked,
            "shared cursors must be created before consumption starts"
        );
        inner.pos.push(0);
        SharedCursor {
            inner: Rc::clone(&self.inner),
            id: inner.pos.len() - 1,
        }
    }
}

/// One reader of a [`SharedWindow`] — a [`BlockSource`]-shaped handle
/// that rides into the pipeline as [`SourceKind::Shared`].
///
/// [`BlockSource`]: fe_model::BlockSource
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

    /// Fast-forwards this cursor; same contract as
    /// [`BlockSource::skip_instrs`].
    pub fn skip_instrs(&mut self, min_instrs: u64) -> u64 {
        self.inner.borrow_mut().skip_for(self.id, min_instrs)
    }

    /// Appends up to `n` blocks to `out` under one window lock; short
    /// only when the stream ends (see `WindowInner::next_n_for`).
    pub fn next_blocks_into(&mut self, n: usize, out: &mut VecDeque<RetiredBlock>) -> usize {
        self.inner.borrow_mut().next_n_for(self.id, n, out)
    }

    /// Marks this cursor finished so the window no longer retains
    /// blocks for it.
    pub(crate) fn release(&mut self) {
        let mut inner = self.inner.borrow_mut();
        inner.pos[self.id] = u64::MAX;
        inner.prune();
    }
}

struct BatchCell<'p> {
    sim: Simulator<'p>,
    label: String,
}

/// N scheme pipelines over one decoded stream; see the module docs.
///
/// Add every cell with [`Self::add_cell`], then consume the batch with
/// [`Self::run`] (full detail) or [`Self::run_sampled`] (interval
/// sampling). Results come back in cell-insertion order and are
/// byte-identical to running each cell alone.
pub struct BatchSimulator<'p> {
    program: &'p Program,
    machine: MachineConfig,
    seed: u64,
    sampling: Option<SamplingSpec>,
    snapshots: Option<(&'p SnapshotStore, ProgramFingerprint)>,
    window: SharedWindow<'p>,
    cells: Vec<BatchCell<'p>>,
}

impl<'p> BatchSimulator<'p> {
    /// Builds a batch over `source` (typically a trace replayer). Pass
    /// `sampling` to run every cell in sampled mode; cells of a batch
    /// all run the same mode.
    ///
    /// # Panics
    ///
    /// The first [`Self::add_cell`] panics if `machine` fails
    /// validation or `sampling` fails [`SamplingSpec::validate`].
    pub fn new(
        program: &'p Program,
        machine: MachineConfig,
        source: impl Into<SourceKind<'p>>,
        seed: u64,
        sampling: Option<SamplingSpec>,
    ) -> Self {
        BatchSimulator {
            program,
            machine,
            seed,
            sampling,
            snapshots: None,
            window: SharedWindow::new(source),
            cells: Vec::new(),
        }
    }

    /// Lets sampled cells restore their warmed state from `store` (or
    /// capture it there after warming); `fingerprint` identifies the
    /// program the stream belongs to.
    pub(crate) fn with_snapshots(
        mut self,
        store: &'p SnapshotStore,
        fingerprint: ProgramFingerprint,
    ) -> Self {
        self.snapshots = Some((store, fingerprint));
        self
    }

    /// Adds one scheme cell running `len` instructions. Cells may have
    /// heterogeneous run lengths; each finishes (and stops holding the
    /// shared window back) on its own schedule.
    ///
    /// # Panics
    ///
    /// In sampled mode, panics if `len.measure` cannot fit one detail
    /// window (see [`Simulator::run_sampled`]).
    pub fn add_cell(&mut self, spec: &SchemeSpec, len: RunLength) {
        let mut sim = Simulator::with_source(
            self.program,
            self.machine.clone(),
            spec.build(&self.machine),
            self.seed,
            MemorySystem::new(&self.machine),
            self.window.cursor(),
        );
        match self.sampling {
            Some(sampling) => {
                let slot = self.snapshots.map(|(store, fingerprint)| {
                    let key = SnapshotKey::for_run(
                        fingerprint,
                        &self.machine,
                        spec,
                        self.seed,
                        len.warmup,
                    );
                    (store, key)
                });
                sim.start_sampled(len.warmup, len.measure, sampling, slot);
            }
            None => sim.start_full(len.warmup, len.measure),
        }
        self.cells.push(BatchCell {
            sim,
            label: spec.label(),
        });
    }

    /// Cells added so far.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` when no cells have been added.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Runs every sampled cell's initial warm, sharing the walk across
    /// same-warmup-length cells (see the module docs). Groups and lone
    /// cells advance in bounded per-round chunks so the shared window
    /// stays pruned.
    fn shared_warm(&mut self) {
        let mut by_len: Vec<(u64, Vec<usize>)> = Vec::new();
        let mut solo: Vec<usize> = Vec::new();
        for (i, cell) in self.cells.iter().enumerate() {
            match cell.sim.phase {
                Phase::InitWarm { remaining, .. } => {
                    match by_len.iter_mut().find(|(len, _)| *len == remaining) {
                        Some((_, idxs)) => idxs.push(i),
                        None => by_len.push((remaining, vec![i])),
                    }
                }
                Phase::Seek { .. } => solo.push(i),
                _ => {}
            }
        }
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for (_, idxs) in by_len {
            if idxs.len() >= 2 {
                groups.push(idxs);
            } else {
                solo.extend(idxs);
            }
        }
        loop {
            let mut progressed = false;
            for group in &groups {
                progressed |= self.shared_warm_round(group);
            }
            for &i in &solo {
                progressed |= self.cells[i].sim.init_warm_step(ROUND_INSTRS);
            }
            if !progressed {
                return;
            }
        }
    }

    /// One bounded chunk of a group's shared warm. The leader pulls and
    /// warms the blocks with every follower's scheme riding along; the
    /// followers then seek their cursors past the same blocks. On
    /// completion the leader's warmed structures are installed into
    /// each follower and the whole group enters the interval loop.
    /// Returns `true` while warming still has work left.
    fn shared_warm_round(&mut self, group: &[usize]) -> bool {
        let leader = group[0];
        let Phase::InitWarm { remaining, .. } = self.cells[leader].sim.phase else {
            return false;
        };
        if remaining > 0 && !self.cells[leader].sim.state.stream_ended() {
            let chunk = remaining.min(ROUND_INSTRS);
            let mut riders: Vec<EngineScheme> = group[1..]
                .iter()
                .map(|&i| {
                    std::mem::replace(&mut self.cells[i].sim.state.scheme, EngineScheme::Ideal)
                })
                .collect();
            let leader_sim = &mut self.cells[leader].sim;
            let warmed = leader_sim.warm_functional_with(chunk, &mut riders);
            leader_sim.consume_warm(warmed);
            for (&i, scheme) in group[1..].iter().zip(riders) {
                let sim = &mut self.cells[i].sim;
                sim.state.scheme = scheme;
                // Identical streams: the follower's skip lands on the
                // exact block boundary the leader's warm stopped at.
                sim.skip_functional(warmed);
                sim.consume_warm(warmed);
            }
            true
        } else {
            let structures = self.cells[leader]
                .sim
                .capture_warm_structures()
                .expect("batch cells own private, snapshottable memory systems");
            let dry = self.cells[leader].sim.state.source_dry;
            for &i in &group[1..] {
                let sim = &mut self.cells[i].sim;
                sim.install_warm_structures(&structures);
                sim.state.source_dry = dry;
            }
            for &i in group {
                // The warm is complete: store snapshots, enter the
                // interval loop.
                self.cells[i].sim.init_warm_step(0);
            }
            false
        }
    }

    /// Round-robin drive: the shared initial warm first, then every
    /// cell advances to the same retired-instruction quota each round,
    /// so no cursor runs more than one round (plus pipeline lookahead)
    /// ahead of the slowest.
    fn drive(&mut self) {
        self.shared_warm();
        let mut quota = ROUND_INSTRS;
        loop {
            let mut all_done = true;
            for cell in &mut self.cells {
                cell.sim.advance(quota);
                all_done &= cell.sim.done();
            }
            if all_done {
                return;
            }
            quota = quota.saturating_add(ROUND_INSTRS);
        }
    }

    /// Runs every cell to completion; each cell's measured windows in
    /// insertion order — the one full-detail window, or every sampled
    /// interval.
    ///
    /// # Panics
    ///
    /// Panics if the shared source ran dry mid-run: a sweep cell
    /// measured over a partial stream would be silently wrong.
    pub(crate) fn run_windows(mut self) -> Vec<Vec<SimStats>> {
        self.drive();
        self.cells
            .into_iter()
            .map(|c| {
                assert!(
                    !c.sim.source_exhausted(),
                    "batch cell `{}` ran dry mid-run — record at least \
                     RunLength::trace_instrs instructions",
                    c.label,
                );
                c.sim.measured
            })
            .collect()
    }

    /// Runs every full-detail cell to completion; statistics in
    /// insertion order.
    ///
    /// # Panics
    ///
    /// Panics if the batch was built with a sampling spec, or if the
    /// shared source ran dry mid-run.
    pub fn run(self) -> Vec<SimStats> {
        assert!(
            self.sampling.is_none(),
            "batch built with a sampling spec — use run_sampled"
        );
        self.run_windows()
            .into_iter()
            .map(|mut windows| windows.remove(0))
            .collect()
    }

    /// Runs every sampled cell to completion; per-cell interval
    /// statistics in insertion order (truncation reported per cell,
    /// exactly as [`Simulator::run_sampled`] does).
    ///
    /// # Panics
    ///
    /// Panics if the batch was built without a sampling spec.
    pub fn run_sampled(mut self) -> Vec<SampledStats> {
        assert!(
            self.sampling.is_some(),
            "batch built without a sampling spec — use run"
        );
        self.drive();
        self.cells
            .into_iter()
            .map(|c| SampledStats {
                truncated: c.sim.source_exhausted(),
                intervals: c.sim.measured,
            })
            .collect()
    }
}

/// Runs one workload's scheme group in one shared-decode pass — the
/// batch counterpart of N calls to
/// [`run_scheme_replayed`](crate::run_scheme_replayed), byte-identical
/// per cell. Results are in `specs` order.
///
/// # Panics
///
/// Panics if `trace` was not recorded against `program` with `seed`,
/// or ran dry before every cell completed.
pub fn run_schemes_batch_replayed(
    program: &Program,
    trace: &Trace,
    specs: &[SchemeSpec],
    machine: &MachineConfig,
    len: RunLength,
    seed: u64,
) -> Vec<SimStats> {
    assert_trace_matches(trace, program, seed);
    let mut batch = BatchSimulator::new(program, machine.clone(), trace.replayer(), seed, None);
    for spec in specs {
        batch.add_cell(spec, len);
    }
    batch.run()
}

/// Sampled-mode [`run_schemes_batch_replayed`]: the batch counterpart
/// of N calls to
/// [`run_scheme_sampled_replayed`](crate::run_scheme_sampled_replayed),
/// byte-identical per cell — the cells share the one decode pass, and
/// their functional-warming phases advance together in the same
/// bounded rounds as the timed windows.
///
/// # Panics
///
/// Panics if `trace` was not recorded against `program` with `seed`,
/// or ran dry before every cell completed.
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
    let mut batch = BatchSimulator::new(
        program,
        machine.clone(),
        trace.replayer(),
        seed,
        Some(sampling),
    );
    for spec in specs {
        batch.add_cell(spec, len);
    }
    batch
        .run_windows()
        .into_iter()
        .map(|intervals| SampledStats {
            intervals,
            truncated: false,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_scheme_replayed, run_scheme_sampled_replayed};
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
    fn shared_skip_matches_private_replayer() {
        let program = workloads::apache().scaled(0.05).build();
        let trace = Trace::record(&program, SEED, 20_000);
        let window = SharedWindow::new(trace.replayer());
        let mut shared = window.cursor();
        let mut private = trace.replayer();
        assert_eq!(shared.skip_instrs(1_234), private.skip_instrs(1_234));
        assert_eq!(shared.next_block(), private.next_block());
        assert_eq!(shared.skip_instrs(5_000), private.skip_instrs(5_000));
        assert_eq!(shared.next_block(), private.next_block());
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
        let batch = run_schemes_batch_replayed(&program, &trace, &specs, &machine, len, SEED);
        for (spec, got) in specs.iter().zip(&batch) {
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
        let mut batch =
            BatchSimulator::new(&program, machine.clone(), trace.replayer(), SEED, None);
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

    #[test]
    #[should_panic(expected = "ran dry mid-run")]
    fn truncated_trace_panics_like_serial() {
        let program = workloads::nutch().scaled(0.05).build();
        let len = RunLength {
            warmup: 20_000,
            measure: 1_000_000,
        };
        let trace = Trace::record(&program, SEED, 50_000);
        let machine = MachineConfig::table3();
        let specs = [SchemeSpec::NoPrefetch];
        run_schemes_batch_replayed(&program, &trace, &specs, &machine, len, SEED);
    }
}
