//! The shared sampled warm's hand-off: a leader cell's warmed state,
//! installed into each rider cell.
//!
//! A sampled cell (see [`sampling`](crate::sampling)) starts by
//! functionally warming `len.warmup` instructions — draining the
//! retired stream through the update-only paths of the L1-I, the LLC,
//! TAGE, the retire RAS, and the scheme's own structures. A workload's
//! sampled group (see [`batch`](crate::batch)) walks that warm once:
//! the leader cell warms its own structures while every later cell's
//! scheme rides along on the same retired blocks.
//!
//! A rider's warm snapshot is a deep copy of the leader's
//! scheme-independent warmed structures, the rider's own warmed scheme,
//! and the stream position warming stopped at. Restoring installs them
//! into a fresh simulator and seeks its replayer to the same position
//! (a cheap decode-skip), after which the measured intervals proceed
//! **bit-identically** to a cell that warmed on its own.

use std::sync::Arc;

use fe_uarch::{LineCache, MemSnapshot, ReturnAddressStack, Tage};

use crate::engine::{EngineScheme, Simulator};

/// Deep copy of the scheme-*independent* structures the functional
/// warm path mutates: L1-I, TAGE, retire RAS, and the memory image.
/// The structures depend only on the retired stream, never on the
/// scheme riding above them, so one leader's copy serves every rider.
struct WarmStructures {
    l1i: LineCache,
    tage: Tage,
    retire_ras: ReturnAddressStack,
    mem: MemSnapshot,
}

/// One rider's warmed state: the leader's warmed structures (shared
/// with the other riders), the rider's own warmed scheme, and the
/// stream position warming stopped at.
pub(crate) struct WarmSnapshot {
    structures: Arc<WarmStructures>,
    scheme: EngineScheme,
    /// Instructions the warm phase consumed (block-aligned).
    warmed: u64,
}

impl Simulator<'_> {
    /// After a shared initial warm: each rider's warmed state — this
    /// cell's warmed structures (one copy, shared) under the rider's
    /// own scheme. Captures nothing when there are no riders.
    ///
    /// # Panics
    ///
    /// Panics if the memory system is not snapshottable (a shared
    /// memory group); batch cells always own theirs.
    pub(crate) fn rider_snapshots(&self, riders: Vec<EngineScheme>) -> Vec<WarmSnapshot> {
        if riders.is_empty() {
            return Vec::new();
        }
        let s = &self.state;
        let structures = Arc::new(WarmStructures {
            l1i: s.l1i.clone(),
            tage: s.tage.clone(),
            retire_ras: s.retire_ras.clone(),
            mem: s
                .mem
                .snapshot()
                .expect("batch cells own private, snapshottable memory systems"),
        });
        riders
            .into_iter()
            .map(|scheme| WarmSnapshot {
                structures: Arc::clone(&structures),
                scheme,
                warmed: s.retired_total,
            })
            .collect()
    }

    /// Restores a rider's warmed state into a *fresh* simulator built
    /// over the same (program, trace, seed, machine, scheme): installs
    /// deep copies of the warmed structures and the rider's scheme, and
    /// returns the instructions the caller must still fast-forward the
    /// source past (a cheap decode-skip on a replayer).
    pub(crate) fn restore_warm(&mut self, snap: WarmSnapshot) -> u64 {
        let (s, ws) = (&mut self.state, &snap.structures);
        s.l1i = ws.l1i.clone();
        s.tage = ws.tage.clone();
        s.retire_ras = ws.retire_ras.clone();
        s.mem = ws.mem.thaw();
        s.scheme = snap.scheme;
        snap.warmed
    }
}
