//! Content-addressed result cache for sweep cells.
//!
//! Since PR 1 every sweep cell is deterministic: the same (program,
//! seed, machine, scheme, run length, sampling shape) always produces
//! the same statistics, byte-identical in report JSON. That makes cell
//! results cacheable by *content address* — a key derived purely from
//! the inputs:
//!
//! * the workload's [`ProgramFingerprint`] (which also fingerprints
//!   the recorded trace — PR 3),
//! * a [`config_hash`] over the canonicalized JSON description of
//!   everything else (machine config, scheme, run length, seed,
//!   sampling shape), and
//! * [`ENGINE_VERSION`], bumped whenever a simulator change alters
//!   emitted statistics, which invalidates every previously cached
//!   entry at once.
//!
//! [`Experiment`](crate::Experiment) consults a [`CellStore`] before
//! simulating each single-workload cell and writes every freshly
//! computed cell back, so repeated sweeps cost zero simulation and the
//! served report is byte-identical to a computed one (the cached value
//! round-trips through the same JSON encoding the report itself uses;
//! u64 counters are exact and floats use the shortest round-trippable
//! form). Consolidation mixes bypass the cache: their cells are
//! interference-coupled and not individually addressable.
//!
//! A key needs the program's fingerprint, and building a program costs
//! milliseconds. A [`FingerprintMemo`] remembers each spec's
//! fingerprint, so a sweep that shares one across runs resolves its
//! keys without synthesis and builds only the programs of workloads
//! that still have a cell to simulate.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use fe_cfg::WorkloadSpec;
use fe_model::MachineConfig;
use fe_trace::ProgramFingerprint;
use fe_uarch::FastMap;

use crate::experiment::{
    sampling_from_json, sampling_to_json, scheme_to_json, stats_from_json, stats_to_json,
};
use crate::json::Json;
use crate::runner::{RunLength, SchemeSpec};
use crate::sampling::{CellSampling, SamplingSpec};
use fe_model::SimStats;

/// Version of the simulation engine's *observable statistics*. Bump on
/// any change that alters the numbers a cell reports (timing model,
/// warm paths, stat definitions): the version is part of every cell's
/// content address, so bumping it invalidates every cached entry — a
/// stale cache can never masquerade as current results.
pub const ENGINE_VERSION: u32 = 1;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a_update(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Hashes a JSON document *structurally and canonically*: object
/// members are sorted by key before hashing, and numbers hash by their
/// *rendered* value — an integral float hashes as the integer it
/// renders as (the parser reads `2.0`'s rendering back as `U64(2)`),
/// fractional floats by their bit pattern (the renderer emits the
/// shortest round-trippable form). Two documents that differ only in
/// member ordering — or by a round trip through
/// [`render`](Json::render)/[`parse`](crate::json::parse) — therefore
/// hash identically, while any value or shape change alters the hash.
pub fn config_hash(doc: &Json) -> u64 {
    hash_value(FNV_OFFSET, doc)
}

fn hash_value(mut h: u64, doc: &Json) -> u64 {
    match doc {
        Json::Null => fnv1a_update(h, &[0]),
        Json::Bool(b) => fnv1a_update(h, &[1, *b as u8]),
        Json::U64(v) => {
            h = fnv1a_update(h, &[2]);
            fnv1a_update(h, &v.to_le_bytes())
        }
        // An integral float renders as a bare integer and reparses as
        // `U64`; a non-finite one renders as `null`. Hash them as their
        // rendered form so a render/parse round trip cannot move a key.
        Json::F64(v) if v.is_finite() && v.fract() == 0.0 && *v >= 0.0 && *v < u64::MAX as f64 => {
            h = fnv1a_update(h, &[2]);
            fnv1a_update(h, &(*v as u64).to_le_bytes())
        }
        Json::F64(v) if !v.is_finite() => fnv1a_update(h, &[0]),
        Json::F64(v) => {
            h = fnv1a_update(h, &[3]);
            fnv1a_update(h, &v.to_bits().to_le_bytes())
        }
        Json::Str(s) => {
            h = fnv1a_update(h, &[4]);
            h = fnv1a_update(h, &(s.len() as u64).to_le_bytes());
            fnv1a_update(h, s.as_bytes())
        }
        Json::Arr(items) => {
            h = fnv1a_update(h, &[5]);
            h = fnv1a_update(h, &(items.len() as u64).to_le_bytes());
            for item in items {
                h = hash_value(h, item);
            }
            h
        }
        Json::Obj(members) => {
            h = fnv1a_update(h, &[6]);
            h = fnv1a_update(h, &(members.len() as u64).to_le_bytes());
            let mut sorted: Vec<&(String, Json)> = members.iter().collect();
            sorted.sort_by(|a, b| a.0.cmp(&b.0));
            for (key, value) in sorted {
                h = fnv1a_update(h, &(key.len() as u64).to_le_bytes());
                h = fnv1a_update(h, key.as_bytes());
                h = hash_value(h, value);
            }
            h
        }
    }
}

/// Every [`MachineConfig`] knob as JSON — the machine side of a cell's
/// configuration document. Exhaustive on purpose: a config field left
/// out of the hash would let two different machines share a cache key.
pub(crate) fn machine_to_json(m: &MachineConfig) -> Json {
    let cache = |c: &fe_model::config::CacheConfig| {
        Json::Obj(vec![
            ("kib".into(), Json::U64(c.kib as u64)),
            ("ways".into(), Json::U64(c.ways as u64)),
            ("latency".into(), Json::U64(c.latency as u64)),
        ])
    };
    Json::Obj(vec![
        (
            "core".into(),
            Json::Obj(vec![
                ("width".into(), Json::U64(m.core.width as u64)),
                ("rob".into(), Json::U64(m.core.rob as u64)),
                ("lsq".into(), Json::U64(m.core.lsq as u64)),
                ("freq_ghz".into(), Json::F64(m.core.freq_ghz)),
                (
                    "redirect_penalty".into(),
                    Json::U64(m.core.redirect_penalty as u64),
                ),
            ]),
        ),
        ("l1i".into(), cache(&m.l1i)),
        ("l1d".into(), cache(&m.l1d)),
        (
            "llc".into(),
            Json::Obj(vec![
                ("kib_per_core".into(), Json::U64(m.llc.kib_per_core as u64)),
                ("ways".into(), Json::U64(m.llc.ways as u64)),
                ("latency".into(), Json::U64(m.llc.latency as u64)),
            ]),
        ),
        (
            "noc".into(),
            Json::Obj(vec![
                ("dim".into(), Json::U64(m.noc.dim as u64)),
                (
                    "cycles_per_hop".into(),
                    Json::U64(m.noc.cycles_per_hop as u64),
                ),
                ("link_bandwidth".into(), Json::F64(m.noc.link_bandwidth)),
                (
                    "background_factor".into(),
                    Json::F64(m.noc.background_factor),
                ),
            ]),
        ),
        (
            "front_end".into(),
            Json::Obj(vec![
                (
                    "btb_entries".into(),
                    Json::U64(m.front_end.btb_entries as u64),
                ),
                ("btb_ways".into(), Json::U64(m.front_end.btb_ways as u64)),
                (
                    "ftq_entries".into(),
                    Json::U64(m.front_end.ftq_entries as u64),
                ),
                (
                    "btb_prefetch_buffer".into(),
                    Json::U64(m.front_end.btb_prefetch_buffer as u64),
                ),
                (
                    "l1i_prefetch_buffer".into(),
                    Json::U64(m.front_end.l1i_prefetch_buffer as u64),
                ),
                (
                    "ras_entries".into(),
                    Json::U64(m.front_end.ras_entries as u64),
                ),
                ("l1i_mshrs".into(), Json::U64(m.front_end.l1i_mshrs as u64)),
            ]),
        ),
        (
            "tage".into(),
            Json::Obj(vec![
                ("base_bits".into(), Json::U64(m.tage.base_bits as u64)),
                (
                    "tagged_tables".into(),
                    Json::U64(m.tage.tagged_tables as u64),
                ),
                ("tagged_bits".into(), Json::U64(m.tage.tagged_bits as u64)),
                ("tag_width".into(), Json::U64(m.tage.tag_width as u64)),
                ("min_history".into(), Json::U64(m.tage.min_history as u64)),
                ("max_history".into(), Json::U64(m.tage.max_history as u64)),
            ]),
        ),
        (
            "backend".into(),
            Json::Obj(vec![
                ("load_fraction".into(), Json::F64(m.backend.load_fraction)),
                ("l1d_miss_rate".into(), Json::F64(m.backend.l1d_miss_rate)),
                (
                    "llc_data_miss_rate".into(),
                    Json::F64(m.backend.llc_data_miss_rate),
                ),
                (
                    "miss_shadow_instrs".into(),
                    Json::U64(m.backend.miss_shadow_instrs as u64),
                ),
            ]),
        ),
        ("memory_ns".into(), Json::F64(m.memory_ns)),
    ])
}

/// The full configuration document of one single-workload cell —
/// everything besides the workload itself that determines its
/// statistics. [`config_hash`] of this document is the config half of
/// the cell's [`CellKey`].
pub fn cell_config_json(
    machine: &MachineConfig,
    scheme: &SchemeSpec,
    len: RunLength,
    seed: u64,
    sampling: Option<SamplingSpec>,
) -> Json {
    Json::Obj(vec![
        ("machine".into(), machine_to_json(machine)),
        ("scheme".into(), scheme_to_json(scheme)),
        ("warmup".into(), Json::U64(len.warmup)),
        ("measure".into(), Json::U64(len.measure)),
        ("seed".into(), Json::U64(seed)),
        (
            "sampling".into(),
            sampling.map_or(Json::Null, |s| s.to_json()),
        ),
    ])
}

/// Content address of one cell result: engine version, workload
/// fingerprint, and the hash of everything else that determines the
/// cell's statistics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CellKey {
    /// [`ENGINE_VERSION`] at computation time.
    pub engine_version: u32,
    /// Fingerprint of the workload program (and of its recorded trace).
    pub fingerprint: ProgramFingerprint,
    /// [`config_hash`] over [`cell_config_json`].
    pub config_hash: u64,
}

impl CellKey {
    /// Builds the key of a single-workload cell under the current
    /// [`ENGINE_VERSION`].
    pub fn for_cell(
        fingerprint: ProgramFingerprint,
        machine: &MachineConfig,
        scheme: &SchemeSpec,
        len: RunLength,
        seed: u64,
        sampling: Option<SamplingSpec>,
    ) -> CellKey {
        CellKey {
            engine_version: ENGINE_VERSION,
            fingerprint,
            config_hash: config_hash(&cell_config_json(machine, scheme, len, seed, sampling)),
        }
    }

    /// The key as a filesystem-safe hex content address.
    pub fn address(&self) -> String {
        format!(
            "{:08x}-{:016x}{:016x}-{:016x}",
            self.engine_version, self.fingerprint.blocks, self.fingerprint.digest, self.config_hash,
        )
    }
}

/// A cached cell result: exactly the measured data a
/// [`SweepCell`](crate::SweepCell) carries (derived metrics are
/// recomputed against the sweep's baseline at report-assembly time, so
/// they never go stale in the cache).
#[derive(Clone, Debug, PartialEq)]
pub struct CellValue {
    /// Raw measured statistics.
    pub stats: SimStats,
    /// Sampled-mode summary, when the cell ran sampled.
    pub sampling: Option<CellSampling>,
}

impl CellValue {
    /// Serializes the value with the same encoders report cells use —
    /// the property that makes served == computed byte-identical.
    pub fn to_json(&self) -> Json {
        let mut members = vec![("stats".into(), stats_to_json(&self.stats))];
        if let Some(sampling) = &self.sampling {
            members.push(("sampling".into(), sampling_to_json(sampling)));
        }
        Json::Obj(members)
    }

    /// Parses a value emitted by [`Self::to_json`].
    pub fn from_json(doc: &Json) -> Result<CellValue, String> {
        Ok(CellValue {
            stats: stats_from_json(doc.req("stats")?)?,
            sampling: match doc.get("sampling") {
                None => None,
                Some(s) => Some(sampling_from_json(s)?),
            },
        })
    }
}

/// A cell-result cache the [`Experiment`](crate::Experiment) sweep
/// consults before simulating and writes back after. Implementations
/// must tolerate concurrent calls from worker threads; a lossy store
/// (one that forgets entries) only costs recomputation, never
/// correctness.
pub trait CellStore: Send + Sync {
    /// Looks up a cached cell result.
    fn get(&self, key: &CellKey) -> Option<CellValue>;
    /// Persists a freshly computed cell result.
    fn put(&self, key: &CellKey, value: &CellValue);
}

/// In-memory [`CellStore`] with hit/miss/put counters — the reference
/// implementation, used by tests and as the building block for
/// process-lifetime caching.
#[derive(Default)]
pub struct MemoryCellStore {
    cells: Mutex<FastMap<CellKey, CellValue>>,
    hits: AtomicU64,
    misses: AtomicU64,
    puts: AtomicU64,
}

impl MemoryCellStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lookups that found an entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries written.
    pub fn puts(&self) -> u64 {
        self.puts.load(Ordering::Relaxed)
    }

    /// Entries currently stored.
    pub fn len(&self) -> usize {
        self.cells
            .lock()
            .expect("cell-store mutex poisoned: a sweep worker panicked")
            .len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl CellStore for MemoryCellStore {
    fn get(&self, key: &CellKey) -> Option<CellValue> {
        let found = self
            .cells
            .lock()
            .expect("cell-store mutex poisoned: a sweep worker panicked")
            .get(key)
            .cloned();
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    fn put(&self, key: &CellKey, value: &CellValue) {
        self.puts.fetch_add(1, Ordering::Relaxed);
        self.cells
            .lock()
            .expect("cell-store mutex poisoned: a sweep worker panicked")
            .insert(*key, value.clone());
    }
}

/// Most entries a [`FingerprintMemo`] holds; past it the least recently
/// used spec is forgotten (a forgotten spec only costs one synthesis).
pub(crate) const FINGERPRINT_MEMO_CAP: usize = 64;

/// Remembers the [`ProgramFingerprint`] each [`WorkloadSpec`]
/// synthesizes to, so a sweep can resolve its [`CellKey`]s without
/// building the program — and a workload whose every cell is cached
/// never builds it at all (see
/// [`Experiment::fingerprints`](crate::Experiment::fingerprints)).
///
/// Keyed by the *full* spec, not its name: a scaled spec keeps its
/// catalog name but synthesizes a different program. Synthesis is a
/// pure function of the spec, so a remembered fingerprint is always
/// the one a fresh build would produce. An entry is one spec and 16
/// bytes; holding the programs themselves would cost megabytes.
/// Bounded at 64 entries, least recently used forgotten first, and safe
/// to share across threads and sweeps.
#[derive(Default)]
pub struct FingerprintMemo {
    /// Least recently used first. A `Vec` compared with `==`, because
    /// the spec holds `f64`s and has no `Hash`.
    entries: Mutex<Vec<(WorkloadSpec, ProgramFingerprint)>>,
    hits: AtomicU64,
    misses: AtomicU64,
    built: AtomicU64,
}

impl FingerprintMemo {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    fn entries(&self) -> std::sync::MutexGuard<'_, Vec<(WorkloadSpec, ProgramFingerprint)>> {
        self.entries
            .lock()
            .expect("fingerprint-memo mutex poisoned: a sweep worker panicked")
    }

    /// The remembered fingerprint of `spec`'s program, counting a hit
    /// or a miss.
    pub fn get(&self, spec: &WorkloadSpec) -> Option<ProgramFingerprint> {
        let mut entries = self.entries();
        let Some(at) = entries.iter().position(|(s, _)| s == spec) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        self.hits.fetch_add(1, Ordering::Relaxed);
        let entry = entries.remove(at);
        let fingerprint = entry.1;
        entries.push(entry);
        Some(fingerprint)
    }

    /// The remembered fingerprint of `spec`'s program, without
    /// counting a hit or a miss and without refreshing its recency —
    /// for a caller that only asks whether a sweep could be answered,
    /// and then runs it through [`Self::get`].
    pub fn peek(&self, spec: &WorkloadSpec) -> Option<ProgramFingerprint> {
        self.entries()
            .iter()
            .find(|(s, _)| s == spec)
            .map(|&(_, fingerprint)| fingerprint)
    }

    /// Remembers the fingerprint of a freshly built `spec`, forgetting
    /// the least recently used entry when the memo is full.
    pub(crate) fn insert(&self, spec: &WorkloadSpec, fingerprint: ProgramFingerprint) {
        let mut entries = self.entries();
        if let Some(at) = entries.iter().position(|(s, _)| s == spec) {
            entries.remove(at);
        } else if entries.len() == FINGERPRINT_MEMO_CAP {
            entries.remove(0);
        }
        entries.push((spec.clone(), fingerprint));
    }

    /// Lookups that found a fingerprint.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Programs the sweeps using this memo synthesized: one per miss,
    /// plus one per hit whose workload still had a cell to simulate.
    pub fn programs_built(&self) -> u64 {
        self.built.load(Ordering::Relaxed)
    }

    pub(crate) fn note_built(&self) {
        self.built.fetch_add(1, Ordering::Relaxed);
    }

    /// Entries currently remembered.
    pub fn len(&self) -> usize {
        self.entries().len()
    }

    /// Whether the memo remembers nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn sample_doc() -> Json {
        Json::Obj(vec![
            ("b".into(), Json::U64(2)),
            ("a".into(), Json::F64(1.5)),
            (
                "nested".into(),
                Json::Obj(vec![
                    ("y".into(), Json::Arr(vec![Json::Null, Json::Bool(true)])),
                    ("x".into(), Json::Str("s".into())),
                ]),
            ),
        ])
    }

    #[test]
    fn hash_ignores_member_order_but_not_values() {
        let doc = sample_doc();
        let reordered = Json::Obj(vec![
            (
                "nested".into(),
                Json::Obj(vec![
                    ("x".into(), Json::Str("s".into())),
                    ("y".into(), Json::Arr(vec![Json::Null, Json::Bool(true)])),
                ]),
            ),
            ("a".into(), Json::F64(1.5)),
            ("b".into(), Json::U64(2)),
        ]);
        assert_eq!(config_hash(&doc), config_hash(&reordered));

        let mut changed = sample_doc();
        if let Json::Obj(members) = &mut changed {
            members[0].1 = Json::U64(3);
        }
        assert_ne!(config_hash(&doc), config_hash(&changed));
    }

    #[test]
    fn hash_survives_json_round_trip() {
        let doc = sample_doc();
        let back = parse(&doc.render()).unwrap();
        assert_eq!(config_hash(&doc), config_hash(&back));
    }

    #[test]
    fn array_order_still_matters() {
        let a = Json::Arr(vec![Json::U64(1), Json::U64(2)]);
        let b = Json::Arr(vec![Json::U64(2), Json::U64(1)]);
        assert_ne!(config_hash(&a), config_hash(&b));
    }

    #[test]
    fn distinct_configs_get_distinct_keys() {
        let machine = MachineConfig::table3();
        let fp = ProgramFingerprint {
            blocks: 10,
            digest: 99,
        };
        let base = CellKey::for_cell(
            fp,
            &machine,
            &SchemeSpec::shotgun(),
            RunLength::SMOKE,
            7,
            None,
        );
        let other_scheme =
            CellKey::for_cell(fp, &machine, &SchemeSpec::Fdip, RunLength::SMOKE, 7, None);
        let other_seed = CellKey::for_cell(
            fp,
            &machine,
            &SchemeSpec::shotgun(),
            RunLength::SMOKE,
            8,
            None,
        );
        let sampled = CellKey::for_cell(
            fp,
            &machine,
            &SchemeSpec::shotgun(),
            RunLength::SMOKE,
            7,
            Some(SamplingSpec::DEFAULT),
        );
        let mut tweaked_machine = machine.clone();
        tweaked_machine.l1i.kib = 64;
        let other_machine = CellKey::for_cell(
            fp,
            &tweaked_machine,
            &SchemeSpec::shotgun(),
            RunLength::SMOKE,
            7,
            None,
        );
        let keys = [base, other_scheme, other_seed, sampled, other_machine];
        for (i, k) in keys.iter().enumerate() {
            for prev in &keys[..i] {
                assert_ne!(prev.address(), k.address());
            }
        }
    }

    #[test]
    fn fingerprint_memo_stays_within_its_cap_and_forgets_the_least_recent() {
        let memo = FingerprintMemo::new();
        let spec = |seed: u64| WorkloadSpec {
            seed,
            ..fe_cfg::workloads::nutch()
        };
        let fingerprint = |seed: u64| ProgramFingerprint {
            blocks: seed,
            digest: !seed,
        };
        let cap = FINGERPRINT_MEMO_CAP as u64;
        for seed in 0..cap {
            memo.insert(&spec(seed), fingerprint(seed));
        }
        assert_eq!(memo.len(), FINGERPRINT_MEMO_CAP);
        // Touch the oldest entry, so seed 1 becomes the least recent.
        assert_eq!(memo.get(&spec(0)), Some(fingerprint(0)));
        for seed in cap..cap + 10 {
            memo.insert(&spec(seed), fingerprint(seed));
            assert_eq!(memo.len(), FINGERPRINT_MEMO_CAP, "never past the cap");
        }
        assert_eq!(memo.get(&spec(0)), Some(fingerprint(0)), "recently used");
        assert_eq!(memo.get(&spec(1)), None, "least recently used, forgotten");
        assert_eq!(memo.get(&spec(cap + 9)), Some(fingerprint(cap + 9)));
        // Re-inserting a known spec replaces it instead of growing.
        memo.insert(&spec(0), fingerprint(0));
        assert_eq!(memo.len(), FINGERPRINT_MEMO_CAP);
        assert_eq!((memo.hits(), memo.misses()), (3, 1));
    }

    #[test]
    fn fingerprint_memo_peek_counts_nothing_and_keeps_recency() {
        let memo = FingerprintMemo::new();
        let spec = |seed: u64| WorkloadSpec {
            seed,
            ..fe_cfg::workloads::nutch()
        };
        let fingerprint = |seed: u64| ProgramFingerprint {
            blocks: seed,
            digest: !seed,
        };
        let cap = FINGERPRINT_MEMO_CAP as u64;
        for seed in 0..cap {
            memo.insert(&spec(seed), fingerprint(seed));
        }
        assert_eq!(memo.peek(&spec(0)), Some(fingerprint(0)));
        assert_eq!(memo.peek(&spec(cap)), None);
        assert_eq!(
            (memo.hits(), memo.misses()),
            (0, 0),
            "a peek counts nothing"
        );
        // Seed 0 was peeked, not used: it is still the least recent.
        memo.insert(&spec(cap), fingerprint(cap));
        assert_eq!(memo.peek(&spec(0)), None, "a peek refreshes no recency");
        assert_eq!(memo.peek(&spec(1)), Some(fingerprint(1)));
    }

    #[test]
    fn memory_store_round_trips_and_counts() {
        let store = MemoryCellStore::new();
        let key = CellKey {
            engine_version: ENGINE_VERSION,
            fingerprint: ProgramFingerprint {
                blocks: 1,
                digest: 2,
            },
            config_hash: 3,
        };
        assert!(store.get(&key).is_none());
        let value = CellValue {
            stats: SimStats {
                cycles: 123,
                instructions: 456,
                ..Default::default()
            },
            sampling: None,
        };
        store.put(&key, &value);
        assert_eq!(store.get(&key), Some(value));
        assert_eq!((store.hits(), store.misses(), store.puts()), (1, 1, 1));
    }
}
