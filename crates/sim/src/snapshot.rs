//! Warmed-uarch-state snapshots: skip functional warming on repeated
//! sampled runs.
//!
//! A sampled cell (see [`sampling`](crate::sampling)) starts by
//! functionally warming `len.warmup` instructions — draining the
//! retired stream through the update-only paths of the L1-I, the LLC,
//! TAGE, the retire RAS, and the scheme's own structures. Warming is
//! deterministic, so for a fixed (workload fingerprint, seed, machine,
//! scheme, warmup length) the post-warmup state is always the same —
//! and a long-running service that sweeps the same workloads
//! repeatedly (parameter studies share every non-swept cell input) can
//! capture that state once and restore it on every subsequent run.
//!
//! A [`WarmSnapshot`] is a deep copy of exactly the structures the
//! warm path touches, plus the stream position it stopped at. Restoring
//! installs the copies into a fresh simulator and seeks the replayer to
//! the same position (a cheap decode-skip), after which the measured
//! intervals proceed **bit-identically** to a run that warmed
//! functionally — snapshots are an exactness-preserving cache, not an
//! approximation. The [`SnapshotStore`] holds them in memory for the
//! lifetime of the process (a daemon's working set), bounded by a
//! capacity; full-detail runs never use snapshots (their warmup runs
//! through the timed pipeline, which is the measurement, not a
//! warm-up).
//!
//! The [batch engine](crate::batch) looks each sampled cell up: a hit
//! restores (the cell then only seeks past the warmed prefix), and on a
//! miss the run driver's initial-warm step captures and stores the
//! state after warming. Schemes ride along as clones of their concrete
//! state.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use fe_baselines::{Boomerang, Confluence, Fdip, NoPrefetch};
use fe_model::MachineConfig;
use fe_trace::ProgramFingerprint;
use fe_uarch::{FastMap, LineCache, MemSnapshot, ReturnAddressStack, Tage};
use shotgun::ShotgunPrefetcher;

use crate::cache::{config_hash, machine_to_json, ENGINE_VERSION};
use crate::engine::{EngineScheme, Simulator};
use crate::experiment::scheme_to_json;
use crate::json::Json;
use crate::runner::SchemeSpec;
use crate::SchemeKind;

/// Identifies one warmed state: everything that determines the
/// post-warmup microarchitectural contents.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SnapshotKey {
    /// [`ENGINE_VERSION`] at capture time — a warm-path change must
    /// invalidate snapshots just like it invalidates cached cells.
    pub engine_version: u32,
    /// Fingerprint of the workload program / recorded trace.
    pub fingerprint: ProgramFingerprint,
    /// Hash over (machine, scheme, seed, warmup instructions).
    pub config_hash: u64,
}

impl SnapshotKey {
    /// Key of the warmed state a sampled run of `scheme` reaches after
    /// `warmup` instructions.
    pub fn for_run(
        fingerprint: ProgramFingerprint,
        machine: &MachineConfig,
        scheme: &SchemeSpec,
        seed: u64,
        warmup: u64,
    ) -> SnapshotKey {
        let doc = Json::Obj(vec![
            ("machine".into(), machine_to_json(machine)),
            ("scheme".into(), scheme_to_json(scheme)),
            ("seed".into(), Json::U64(seed)),
            ("warmup".into(), Json::U64(warmup)),
        ]);
        SnapshotKey {
            engine_version: ENGINE_VERSION,
            fingerprint,
            config_hash: config_hash(&doc),
        }
    }
}

/// Clone of a scheme's concrete warmed state (every scheme kind is
/// plain owned data).
#[derive(Clone)]
enum WarmScheme {
    NoPrefetch(NoPrefetch),
    Fdip(Fdip),
    Boomerang(Boomerang),
    Confluence(Confluence),
    Shotgun(ShotgunPrefetcher),
    Ideal,
}

impl WarmScheme {
    fn capture(scheme: &EngineScheme) -> WarmScheme {
        match scheme {
            EngineScheme::Ideal => WarmScheme::Ideal,
            EngineScheme::Real(kind) => match kind {
                SchemeKind::NoPrefetch(s) => WarmScheme::NoPrefetch((**s).clone()),
                SchemeKind::Fdip(s) => WarmScheme::Fdip((**s).clone()),
                SchemeKind::Boomerang(s) => WarmScheme::Boomerang((**s).clone()),
                SchemeKind::Confluence(s) => WarmScheme::Confluence((**s).clone()),
                SchemeKind::Shotgun(s) => WarmScheme::Shotgun((**s).clone()),
            },
        }
    }

    fn install(&self) -> EngineScheme {
        match self {
            WarmScheme::NoPrefetch(s) => EngineScheme::real(s.clone()),
            WarmScheme::Fdip(s) => EngineScheme::real(s.clone()),
            WarmScheme::Boomerang(s) => EngineScheme::real(s.clone()),
            WarmScheme::Confluence(s) => EngineScheme::real(s.clone()),
            WarmScheme::Shotgun(s) => EngineScheme::real(s.clone()),
            WarmScheme::Ideal => EngineScheme::Ideal,
        }
    }
}

/// Deep copy of the scheme-*independent* structures the functional
/// warm path mutates: L1-I, TAGE, retire RAS, and the memory image.
/// The structures depend only on the retired stream, never on the
/// scheme riding above them, so the batch engine's shared warm hands
/// one leader's copy to every follower's [`WarmSnapshot`].
struct WarmStructures {
    l1i: LineCache,
    tage: Tage,
    retire_ras: ReturnAddressStack,
    mem: MemSnapshot,
}

/// Deep copy of every structure the functional warm path mutates, plus
/// the stream position warming stopped at. See the module docs for the
/// exactness argument.
pub struct WarmSnapshot {
    structures: Arc<WarmStructures>,
    scheme: WarmScheme,
    /// Instructions the warm phase consumed (block-aligned).
    warmed: u64,
}

impl<'p> Simulator<'p> {
    /// Captures the scheme-independent warmed structures. `None` when
    /// the memory system is not snapshottable (shared memory group).
    fn capture_warm_structures(&self) -> Option<WarmStructures> {
        let s = &self.state;
        Some(WarmStructures {
            l1i: s.l1i.clone(),
            tage: s.tage.clone(),
            retire_ras: s.retire_ras.clone(),
            mem: s.mem.snapshot()?,
        })
    }

    /// Captures the current warmed state. Call immediately after the
    /// initial functional warm of a sampled run, before any interval.
    /// `None` when the memory system is not snapshottable (shared
    /// memory group).
    pub(crate) fn capture_warm(&self) -> Option<WarmSnapshot> {
        Some(WarmSnapshot {
            scheme: WarmScheme::capture(&self.state.scheme),
            structures: Arc::new(self.capture_warm_structures()?),
            warmed: self.state.retired_total,
        })
    }

    /// After a shared initial warm: each rider's warmed state — this
    /// cell's warmed structures (one copy, shared) under the rider's
    /// own scheme.
    ///
    /// # Panics
    ///
    /// Panics if the memory system is not snapshottable (a shared
    /// memory group); batch cells always own theirs.
    pub(crate) fn rider_snapshots(&self, riders: &[EngineScheme]) -> Vec<Arc<WarmSnapshot>> {
        let structures = Arc::new(
            self.capture_warm_structures()
                .expect("batch cells own private, snapshottable memory systems"),
        );
        riders
            .iter()
            .map(|rider| {
                Arc::new(WarmSnapshot {
                    structures: Arc::clone(&structures),
                    scheme: WarmScheme::capture(rider),
                    warmed: self.state.retired_total,
                })
            })
            .collect()
    }

    /// Restores a warmed state into a *fresh* simulator built over the
    /// same (program, trace, seed, machine, scheme): installs deep
    /// copies of the warmed structures and returns the instructions
    /// the caller must still fast-forward the source past (a cheap
    /// decode-skip on a replayer). The subsequent measured intervals
    /// are bit-identical to warming functionally.
    pub(crate) fn restore_warm(&mut self, snap: &WarmSnapshot) -> u64 {
        let (s, ws) = (&mut self.state, &snap.structures);
        s.l1i = ws.l1i.clone();
        s.tage = ws.tage.clone();
        s.retire_ras = ws.retire_ras.clone();
        s.mem = ws.mem.thaw();
        s.scheme = snap.scheme.install();
        snap.warmed
    }
}

/// In-memory, process-lifetime store of [`WarmSnapshot`]s, bounded to
/// `capacity` entries with least-recently-used eviction — a hit
/// refreshes the entry's recency, so a snapshot in steady reuse is
/// never the one evicted by newly warmed cells. Thread-safe; entries
/// are shared out as [`Arc`]s so restores never copy the stored state
/// until installation.
pub struct SnapshotStore {
    entries: Mutex<Store>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

#[derive(Default)]
struct Store {
    map: FastMap<SnapshotKey, Arc<WarmSnapshot>>,
    /// Recency order, least recently used first.
    order: Vec<SnapshotKey>,
}

impl Store {
    /// Moves `key` to the most-recently-used end of the order.
    fn touch(&mut self, key: &SnapshotKey) {
        if let Some(pos) = self.order.iter().position(|k| k == key) {
            let k = self.order.remove(pos);
            self.order.push(k);
        }
    }
}

impl SnapshotStore {
    /// Default capacity: ample for a (6 workloads × a dozen schemes)
    /// service working set while bounding memory (a snapshot is
    /// dominated by the LLC image — several MB at Table 3 sizing).
    pub const DEFAULT_CAPACITY: usize = 128;

    /// A store with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// A store holding at most `capacity` snapshots.
    pub fn with_capacity(capacity: usize) -> Self {
        SnapshotStore {
            entries: Mutex::new(Store::default()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Looks up a warmed state; a hit refreshes the entry's recency.
    pub fn get(&self, key: &SnapshotKey) -> Option<Arc<WarmSnapshot>> {
        let mut store = self.entries.lock().expect("snapshot-store mutex poisoned");
        let found = store.map.get(key).cloned();
        match &found {
            Some(_) => {
                store.touch(key);
                self.hits.fetch_add(1, Ordering::Relaxed)
            }
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Stores a warmed state, evicting the least recently used entry
    /// when full. Re-putting an existing key keeps the stored snapshot
    /// but refreshes its recency.
    pub fn put(&self, key: SnapshotKey, snapshot: impl Into<Arc<WarmSnapshot>>) {
        let mut store = self.entries.lock().expect("snapshot-store mutex poisoned");
        if store.map.contains_key(&key) {
            store.touch(&key);
            return;
        }
        if store.order.len() >= self.capacity {
            let oldest = store.order.remove(0);
            store.map.remove(&oldest);
        }
        store.order.push(key);
        store.map.insert(key, snapshot.into());
    }

    /// Lookups that found a snapshot.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Snapshots currently held.
    pub fn len(&self) -> usize {
        self.entries
            .lock()
            .expect("snapshot-store mutex poisoned")
            .map
            .len()
    }

    /// Whether the store holds no snapshots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for SnapshotStore {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchSimulator;
    use crate::runner::{run_scheme_sampled_replayed, RunLength};
    use crate::sampling::{SampledStats, SamplingSpec};
    use fe_cfg::{workloads, Program};
    use fe_trace::Trace;

    const LEN: RunLength = RunLength {
        warmup: 60_000,
        measure: 300_000,
    };
    const SPEC: SamplingSpec = SamplingSpec {
        interval: 100_000,
        detail: 20_000,
        warmup: 20_000,
    };

    /// One batch of sampled cells with a snapshot store — the path every
    /// sweep workload takes under `Experiment::snapshots`.
    fn run_with_store(
        program: &Program,
        trace: &Trace,
        schemes: &[SchemeSpec],
        store: &SnapshotStore,
    ) -> Vec<SampledStats> {
        let machine = MachineConfig::table3();
        let mut batch =
            BatchSimulator::new(program, machine, trace, 7, Some(SPEC)).with_snapshots(store);
        for scheme in schemes {
            batch.add_cell(scheme, LEN);
        }
        batch.run_sampled()
    }

    #[test]
    fn snapshot_runs_are_bit_identical_to_functional_warming() {
        let program = workloads::nutch().scaled(0.05).build();
        let machine = MachineConfig::table3();
        let trace = Trace::record(&program, 7, LEN.trace_instrs(&machine));
        let store = SnapshotStore::new();
        for scheme in [
            SchemeSpec::NoPrefetch,
            SchemeSpec::boomerang(),
            SchemeSpec::shotgun(),
            SchemeSpec::Confluence,
            SchemeSpec::Ideal,
        ] {
            let plain =
                run_scheme_sampled_replayed(&program, &trace, &scheme, &machine, LEN, SPEC, 7);
            let cold = run_with_store(&program, &trace, std::slice::from_ref(&scheme), &store);
            let warm = run_with_store(&program, &trace, std::slice::from_ref(&scheme), &store);
            let plain = std::slice::from_ref(&plain);
            assert_eq!(cold, plain, "first snapshot run ({})", scheme.label());
            assert_eq!(warm, plain, "restored snapshot run ({})", scheme.label());
        }
        assert_eq!(store.len(), 5);
        assert_eq!(store.hits(), 5, "second run of each scheme restores");
    }

    #[test]
    fn batched_cells_restore_and_capture_bit_identically() {
        let program = workloads::zeus().scaled(0.05).build();
        let machine = MachineConfig::table3();
        let trace = Trace::record(&program, 7, LEN.trace_instrs(&machine));
        let schemes = [
            SchemeSpec::NoPrefetch,
            SchemeSpec::boomerang(),
            SchemeSpec::shotgun(),
            SchemeSpec::Ideal,
        ];
        let plain: Vec<SampledStats> = schemes
            .iter()
            .map(|s| run_scheme_sampled_replayed(&program, &trace, s, &machine, LEN, SPEC, 7))
            .collect();
        let store = SnapshotStore::new();
        // Two cells warm together and capture; then the whole set runs
        // with those two restoring next to cells still warming (and
        // capturing); then every cell restores.
        assert_eq!(
            run_with_store(&program, &trace, &schemes[..2], &store),
            plain[..2]
        );
        assert_eq!(store.len(), 2);
        assert_eq!(run_with_store(&program, &trace, &schemes, &store), plain);
        assert_eq!((store.hits(), store.len()), (2, 4));
        assert_eq!(run_with_store(&program, &trace, &schemes, &store), plain);
        assert_eq!(store.hits(), 6);
    }

    #[test]
    fn keys_separate_warmups_and_schemes() {
        let machine = MachineConfig::table3();
        let fp = ProgramFingerprint {
            blocks: 3,
            digest: 4,
        };
        let a = SnapshotKey::for_run(fp, &machine, &SchemeSpec::shotgun(), 7, 100);
        let b = SnapshotKey::for_run(fp, &machine, &SchemeSpec::shotgun(), 7, 200);
        let c = SnapshotKey::for_run(fp, &machine, &SchemeSpec::Fdip, 7, 100);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn store_capacity_evicts_oldest() {
        let program = workloads::nutch().scaled(0.05).build();
        let machine = MachineConfig::table3();
        let trace = Trace::record(&program, 7, LEN.trace_instrs(&machine));
        let store = SnapshotStore::with_capacity(1);
        for scheme in [SchemeSpec::NoPrefetch, SchemeSpec::Fdip] {
            run_with_store(&program, &trace, &[scheme], &store);
        }
        assert_eq!(store.len(), 1, "older snapshot evicted");
    }

    #[test]
    fn hit_refreshes_recency_so_eviction_targets_the_stale_entry() {
        let program = workloads::nutch().scaled(0.05).build();
        let machine = MachineConfig::table3();
        let trace = Trace::record(&program, 7, LEN.trace_instrs(&machine));
        let store = SnapshotStore::with_capacity(2);
        let run = |scheme: &SchemeSpec| {
            run_with_store(&program, &trace, std::slice::from_ref(scheme), &store);
        };
        // Fill: NoPrefetch is now the oldest insertion, Fdip the newest.
        run(&SchemeSpec::NoPrefetch);
        run(&SchemeSpec::Fdip);
        // Hit NoPrefetch: under stale insertion-order eviction it would
        // still be first in line; the hit must move it to the back.
        run(&SchemeSpec::NoPrefetch);
        assert_eq!(store.hits(), 1);
        // Third distinct key: the eviction victim must be Fdip (least
        // recently used), not the just-hit NoPrefetch.
        run(&SchemeSpec::boomerang());
        assert_eq!(store.len(), 2);
        run(&SchemeSpec::NoPrefetch);
        assert_eq!(store.hits(), 2, "refreshed entry survived the eviction");
        run(&SchemeSpec::Fdip);
        assert_eq!(store.hits(), 2, "stale entry was the one evicted");
        assert_eq!(store.misses(), 4, "cold runs plus the re-warmed Fdip");
    }
}
