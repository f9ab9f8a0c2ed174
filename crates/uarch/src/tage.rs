//! TAGE conditional-branch direction predictor (Seznec & Michaud),
//! sized to Table 3's 8 KB budget.
//!
//! A bimodal base table backs six partially-tagged components indexed
//! with geometrically increasing global-history lengths. The predictor
//! keeps two history registers: a *speculative* one advanced by the
//! branch-prediction unit as it runs ahead, and a *retired* one advanced
//! at commit. On a pipeline redirect the speculative history is repaired
//! from the retired one — the standard recovery scheme. Table state is
//! only ever updated at retirement, with indices recomputed from retired
//! history (identical to the speculative indices on the correct path).
//! Each history register carries a set of incrementally maintained
//! folded histories (see `FoldState`), so a lookup never folds.

use fe_model::config::TageConfig;
use fe_model::Addr;

/// Saturating 3-bit signed counter range.
const CTR_MAX: i8 = 3;
const CTR_MIN: i8 = -4;
/// 2-bit useful counter ceiling.
const U_MAX: u8 = 3;
/// Updates between graceful useful-bit resets.
const U_RESET_PERIOD: u64 = 256 * 1024;
/// Upper bound on tagged components, so per-lookup index/tag caches can
/// live in fixed arrays instead of heap allocations (the predictor is
/// the hottest structure in the whole simulator). Enforced with a clear
/// error at configuration build time by `MachineConfig::validate`.
const MAX_TAGGED_TABLES: usize = TageConfig::MAX_TAGGED_TABLES as usize;

/// One tagged-component entry packed into a single `u32`: the tag in
/// bits 0..16, the valid flag at bit 16, the 3-bit signed counter
/// stored offset-by-4 (`[-4, 3]` → `0..8`) in bits 17..20, and the
/// 2-bit useful counter in bits 20..22. The unpacked field form padded
/// to six bytes; at four, a 512-entry table drops from 3 KiB to 2 KiB,
/// so a whole six-table predictor sits in a third less cache — entry
/// loads are ~25% of whole-simulation time, and a batch sweep keeps
/// one predictor *per cell* contending for the same L2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct TaggedEntry(u32);

impl TaggedEntry {
    const VALID_SHIFT: u32 = 16;
    const CTR_SHIFT: u32 = 17;
    const CTR_MASK: u32 = 0b111;
    /// Stored bias that makes the `[-4, 3]` counter range non-negative.
    const CTR_BIAS: i8 = 4;
    const U_SHIFT: u32 = 20;
    const U_MASK: u32 = 0b11;

    #[inline]
    fn new(valid: bool, tag: u16, ctr: i8, u: u8) -> Self {
        debug_assert!((CTR_MIN..=CTR_MAX).contains(&ctr));
        debug_assert!(u <= U_MAX);
        TaggedEntry(
            tag as u32
                | (valid as u32) << Self::VALID_SHIFT
                | (((ctr + Self::CTR_BIAS) as u32) << Self::CTR_SHIFT)
                | ((u as u32) << Self::U_SHIFT),
        )
    }

    /// Invalid all-zero entry (lookup placeholder; never read as a real
    /// entry).
    #[inline]
    fn empty() -> Self {
        TaggedEntry(0)
    }

    #[inline]
    fn valid(self) -> bool {
        self.0 & (1 << Self::VALID_SHIFT) != 0
    }

    #[inline]
    fn tag(self) -> u16 {
        self.0 as u16
    }

    #[inline]
    fn ctr(self) -> i8 {
        ((self.0 >> Self::CTR_SHIFT) & Self::CTR_MASK) as i8 - Self::CTR_BIAS
    }

    #[inline]
    fn u(self) -> u8 {
        ((self.0 >> Self::U_SHIFT) & Self::U_MASK) as u8
    }

    #[inline]
    fn set_ctr(&mut self, ctr: i8) {
        debug_assert!((CTR_MIN..=CTR_MAX).contains(&ctr));
        self.0 = (self.0 & !(Self::CTR_MASK << Self::CTR_SHIFT))
            | (((ctr + Self::CTR_BIAS) as u32) << Self::CTR_SHIFT);
    }

    #[inline]
    fn set_u(&mut self, u: u8) {
        debug_assert!(u <= U_MAX);
        self.0 = (self.0 & !(Self::U_MASK << Self::U_SHIFT)) | ((u as u32) << Self::U_SHIFT);
    }
}

impl Default for TaggedEntry {
    fn default() -> Self {
        TaggedEntry::new(false, 0, 0, 0)
    }
}

#[derive(Clone, Debug)]
struct TaggedTable {
    entries: Vec<TaggedEntry>,
    hist_len: u32,
    index_mask: u64,
}

/// Where a prediction came from, carried to the update path — along
/// with every table's index and tag under the lookup's history, so the
/// update and allocation paths never recompute them.
#[derive(Clone, Copy, Debug)]
struct Lookup {
    provider: Option<usize>,
    provider_pred: bool,
    provider_weak: bool,
    alt_pred: bool,
    bimodal_index: usize,
    /// Entry index per tagged table. `u16` suffices: `tagged_bits` is
    /// capped at 16 by `MachineConfig::validate`, as is `tag_width`.
    indices: [u16; MAX_TAGGED_TABLES],
    /// Tag of the looked-up pc per tagged table.
    tags: [u16; MAX_TAGGED_TABLES],
}

/// Incrementally-maintained folded histories — the fold registers.
///
/// A lookup needs the masked history folded into three widths per
/// tagged table (index, tag, tag−1). Folding is XOR over `w`-wide
/// chunks, which is reduction of the history polynomial mod `x^w + 1`
/// in GF(2) — a linear map, so pushing one bit updates the fold in O(1):
///
/// ```text
/// fold' = rotl_w(fold) ^ inserted ^ (evicted << (len mod w))
/// ```
///
/// where `evicted` is bit `len−1` of the pre-shift history. One
/// register set tracks the speculative history, one the retired; a
/// redirect copies retired over speculative, mirroring the history
/// registers themselves. Derived state: rebuildable from a history
/// register at any time with [`init_folds`], so it needs no
/// serialization.
#[derive(Clone, Debug)]
struct FoldState {
    /// Push-invariant constants, precomputed once at construction.
    meta: FoldMeta,
    /// Per tagged table, per width: fold of the spec-history mask.
    spec: [[u64; 3]; MAX_TAGGED_TABLES],
    /// Per tagged table, per width: fold of the retired-history mask.
    retired: [[u64; 3]; MAX_TAGGED_TABLES],
}

/// The push-invariant constants of a [`FoldState`]: the per-width
/// rotate masks and — critically — the `len mod w` evicted-bit
/// positions. The modulo is a hardware divide, and a push runs it
/// 3 × tables times for *every* retired branch (spec push at predict,
/// retired push at commit); hoisting it out of the loop is worth
/// several percent of whole-simulation wall clock.
#[derive(Clone, Debug)]
struct FoldMeta {
    /// The three fold widths: `[tagged_bits, tag_width, tag_width-1]`.
    widths: [u32; 3],
    /// `(1 << w) − 1` per width.
    masks: [u64; 3],
    /// `tag_width == tagged_bits` (the default geometry): plane 1 of
    /// every register would equal plane 0 at all times, so pushes skip
    /// maintaining it and readers take plane 0 instead.
    same_width: bool,
    /// Tagged-table count (fold registers beyond it stay zero).
    n_tables: usize,
    /// Per table: history length, hoisted out of the table structs so
    /// the push loop walks three flat arrays and nothing else.
    lens: [u32; MAX_TAGGED_TABLES],
    /// Per table, per width: `hist_len mod w`.
    evict_shift: [[u32; 3]; MAX_TAGGED_TABLES],
}

impl FoldMeta {
    fn new(widths: [u32; 3], tables: &[TaggedTable]) -> Self {
        let mut masks = [0u64; 3];
        for (m, &w) in masks.iter_mut().zip(widths.iter()) {
            if w > 0 {
                *m = (1u64 << w) - 1;
            }
        }
        let mut lens = [0u32; MAX_TAGGED_TABLES];
        let mut evict_shift = [[0u32; 3]; MAX_TAGGED_TABLES];
        for (t, table) in tables.iter().enumerate() {
            lens[t] = table.hist_len;
            for (s, &w) in evict_shift[t].iter_mut().zip(widths.iter()) {
                if w > 0 {
                    *s = table.hist_len % w;
                }
            }
        }
        FoldMeta {
            widths,
            masks,
            same_width: widths[1] == widths[0],
            n_tables: tables.len(),
            lens,
            evict_shift,
        }
    }
}

/// Advances one register set for a history push of `bit`, where `hist`
/// is the register value *before* the shift. This runs 2+ times per
/// retired conditional (spec push at predict, retired push at commit)
/// and is the fold registers' entire maintenance cost, so it is tuned:
/// the evicted history bit comes from a pre-split 64-bit half (a
/// variable `u128` shift per table costs several instructions), the
/// width planes are unrolled with their loop-invariant guards hoisted,
/// and `same_width` geometries skip the redundant plane-1 update
/// entirely (readers take plane 0; see [`FoldMeta::same_width`]).
#[inline]
fn push_folds(regs: &mut [[u64; 3]; MAX_TAGGED_TABLES], meta: &FoldMeta, hist: u128, bit: bool) {
    let bit = bit as u64;
    let lo = hist as u64;
    let hi = (hist >> 64) as u64;
    let [w0, w1, w2] = meta.widths;
    let [m0, m1, m2] = meta.masks;
    let do0 = w0 != 0;
    let do1 = w1 != 0 && !meta.same_width;
    let do2 = w2 != 0;
    for ((regs_t, &len), shifts) in regs
        .iter_mut()
        .zip(meta.lens.iter())
        .zip(meta.evict_shift.iter())
        .take(meta.n_tables)
    {
        if len == 0 {
            continue;
        }
        // Histories are capped at 128 bits, so bit `len-1` lives in the
        // low half when `len <= 64` and at `(len-1) & 63` of the high
        // half otherwise.
        let evicted = (if len > 64 { hi } else { lo } >> ((len - 1) & 63)) & 1;
        if do0 {
            let r = regs_t[0];
            regs_t[0] = (((r << 1) | (r >> (w0 - 1))) & m0) ^ bit ^ (evicted << shifts[0]);
        }
        if do1 {
            let r = regs_t[1];
            regs_t[1] = (((r << 1) | (r >> (w1 - 1))) & m1) ^ bit ^ (evicted << shifts[1]);
        }
        if do2 {
            let r = regs_t[2];
            regs_t[2] = (((r << 1) | (r >> (w2 - 1))) & m2) ^ bit ^ (evicted << shifts[2]);
        }
    }
}

/// Rebuilds one register set from scratch for the given history.
fn init_folds(
    widths: &[u32; 3],
    tables: &[TaggedTable],
    hist: u128,
) -> [[u64; 3]; MAX_TAGGED_TABLES] {
    let mut regs = [[0u64; 3]; MAX_TAGGED_TABLES];
    for (regs_t, table) in regs.iter_mut().zip(tables) {
        for (reg, &w) in regs_t.iter_mut().zip(widths.iter()) {
            *reg = fold_reference(hist, table.hist_len, w);
        }
    }
    regs
}

/// The TAGE predictor.
///
/// ```
/// use fe_model::config::TageConfig;
/// use fe_model::Addr;
/// use fe_uarch::Tage;
///
/// let mut tage = Tage::new(TageConfig::default());
/// let pc = Addr::new(0x1000);
/// // Train a strongly taken branch.
/// for _ in 0..64 {
///     tage.retire(pc, true);
/// }
/// assert!(tage.predict(pc));
/// ```
#[derive(Clone, Debug)]
pub struct Tage {
    cfg: TageConfig,
    bimodal: Vec<u8>,
    tables: Vec<TaggedTable>,
    spec_hist: u128,
    retired_hist: u128,
    use_alt: u8,
    lfsr: u32,
    updates: u64,
    tag_mask: u16,
    /// Folded speculative and retired histories (see [`FoldState`]).
    fold: FoldState,
}

impl Tage {
    /// Builds the predictor for the given configuration.
    pub fn new(cfg: TageConfig) -> Self {
        assert!(
            (cfg.tagged_tables as usize) <= MAX_TAGGED_TABLES,
            "TAGE supports at most {MAX_TAGGED_TABLES} tagged tables, got {}",
            cfg.tagged_tables,
        );
        assert!(
            cfg.tagged_bits <= TageConfig::MAX_COMPONENT_BITS
                && cfg.tag_width <= TageConfig::MAX_COMPONENT_BITS,
            "TAGE indices and tags are cached 16-bit; got tagged_bits={} tag_width={}",
            cfg.tagged_bits,
            cfg.tag_width,
        );
        let tables: Vec<TaggedTable> = (0..cfg.tagged_tables)
            .map(|t| {
                let hist_len = geometric_length(&cfg, t);
                TaggedTable {
                    entries: vec![TaggedEntry::default(); 1 << cfg.tagged_bits],
                    hist_len,
                    index_mask: (1u64 << cfg.tagged_bits) - 1,
                }
            })
            .collect();
        let widths = [
            cfg.tagged_bits,
            cfg.tag_width,
            cfg.tag_width.saturating_sub(1),
        ];
        // Both histories start empty, and every fold of an empty history
        // is zero.
        let fold = FoldState {
            meta: FoldMeta::new(widths, &tables),
            spec: [[0; 3]; MAX_TAGGED_TABLES],
            retired: [[0; 3]; MAX_TAGGED_TABLES],
        };
        Tage {
            // Weakly not-taken start: compilers lay out the common path
            // as fall-through, so a cold branch is best guessed
            // not-taken (the classic static heuristic).
            bimodal: vec![1; 1 << cfg.base_bits],
            tables,
            spec_hist: 0,
            retired_hist: 0,
            use_alt: 8,
            lfsr: 0xACE1,
            updates: 0,
            tag_mask: ((1u32 << cfg.tag_width) - 1) as u16,
            fold,
            cfg,
        }
    }

    /// Does nothing: every predictor maintains its fold registers from
    /// construction. Kept for existing callers.
    #[doc(hidden)]
    pub fn enable_fold_scratch(&mut self) {}

    /// Predicts the direction of the conditional branch at `pc` using
    /// the *speculative* history (branch-prediction-unit path).
    pub fn predict(&self, pc: Addr) -> bool {
        self.resolve(&self.lookup(pc, &self.fold.spec))
    }

    /// Advances the speculative history with a predicted outcome.
    pub fn push_spec(&mut self, taken: bool) {
        push_folds(&mut self.fold.spec, &self.fold.meta, self.spec_hist, taken);
        self.spec_hist = (self.spec_hist << 1) | taken as u128;
    }

    /// Repairs the speculative history from retired state after a
    /// pipeline redirect.
    pub fn redirect(&mut self) {
        self.fold.spec = self.fold.retired;
        self.spec_hist = self.retired_hist;
    }

    /// The speculative history value a prediction at this moment uses.
    /// Carried alongside the predicted branch so its retirement update
    /// trains exactly the entries the prediction consulted.
    pub fn spec_snapshot(&self) -> u128 {
        self.spec_hist
    }

    /// Retires a conditional branch: updates tables with the actual
    /// outcome and advances the retired history. Returns the prediction
    /// the retired-history lookup produced (used by callers for
    /// training-time bookkeeping).
    pub fn retire(&mut self, pc: Addr, taken: bool) -> bool {
        self.retire_with(pc, taken, self.retired_hist)
    }

    /// Retires a conditional branch whose prediction was made under the
    /// history snapshot `hist` (see [`Tage::spec_snapshot`]): the table
    /// update indexes with that same history, keeping training and
    /// prediction coherent in a decoupled front end.
    pub fn retire_with(&mut self, pc: Addr, taken: bool, hist: u128) -> bool {
        // The retired register set folds exactly `retired_hist` — the
        // common case: in-order retirement trains under the retired
        // history, and decoupled snapshots match it on the correct
        // path. Any other snapshot is folded from scratch.
        let lookup = if hist == self.retired_hist {
            self.lookup(pc, &self.fold.retired)
        } else {
            let regs = init_folds(&self.fold.meta.widths, &self.tables, hist);
            self.lookup(pc, &regs)
        };
        let predicted = self.resolve(&lookup);
        self.update(taken, &lookup, predicted);
        push_folds(
            &mut self.fold.retired,
            &self.fold.meta,
            self.retired_hist,
            taken,
        );
        self.retired_hist = (self.retired_hist << 1) | taken as u128;
        predicted
    }

    /// Approximate storage use in bits (see `TageConfig::storage_bits`).
    pub fn storage_bits(&self) -> u64 {
        self.cfg.storage_bits()
    }

    /// Final direction choice: newly-allocated (weak) providers defer
    /// to the alternate prediction while the use-alt counter says
    /// alternates have been doing better.
    fn resolve(&self, l: &Lookup) -> bool {
        if l.provider.is_some() && l.provider_weak && self.use_alt >= 8 {
            l.alt_pred
        } else {
            l.provider_pred
        }
    }

    /// Looks `pc` up under the history folded into `regs` (one register
    /// set of a [`FoldState`]). Every fold is a register read, so all
    /// table indices, tags, and entry loads are computed up front with
    /// no cross-table dependencies (a serial scan's
    /// load→compare→branch chain is what dominates lookup cost), then a
    /// compare-only scan, longest history first, picks provider and
    /// alternate.
    fn lookup(&self, pc: Addr, regs: &[[u64; 3]; MAX_TAGGED_TABLES]) -> Lookup {
        let pc_bits = pc.get() >> 2;
        let bimodal_index = (pc_bits & ((1 << self.cfg.base_bits) - 1)) as usize;
        let bimodal_pred = self.bimodal[bimodal_index] >= 2;

        // Pushes skip plane 1 when the widths agree (it would always
        // mirror plane 0), so read plane 0 in its place.
        let plane1 = if self.cfg.tag_width == self.cfg.tagged_bits {
            0
        } else {
            1
        };
        let n = self.tables.len();
        let mut indices = [0u16; MAX_TAGGED_TABLES];
        let mut entries = [TaggedEntry::empty(); MAX_TAGGED_TABLES];
        let mut tags = [0u16; MAX_TAGGED_TABLES];
        for t in 0..n {
            let idx =
                ((pc_bits ^ (pc_bits >> (self.cfg.tagged_bits as u64 + t as u64)) ^ regs[t][0])
                    & self.tables[t].index_mask) as usize;
            indices[t] = idx as u16;
            entries[t] = self.tables[t].entries[idx];
            tags[t] = ((pc_bits ^ regs[t][plane1] ^ (regs[t][2] << 1)) as u16) & self.tag_mask;
        }

        let mut provider = None;
        let mut alt: Option<bool> = None;
        for t in (0..n).rev() {
            if entries[t].valid() && entries[t].tag() == tags[t] {
                if provider.is_none() {
                    provider = Some(t);
                } else {
                    alt = Some(entries[t].ctr() >= 0);
                    break;
                }
            }
        }
        let (provider_pred, provider_weak) = match provider {
            Some(t) => {
                let ctr = entries[t].ctr();
                (ctr >= 0, ctr == 0 || ctr == -1)
            }
            None => (bimodal_pred, false),
        };
        Lookup {
            provider,
            provider_pred,
            provider_weak,
            alt_pred: alt.unwrap_or(bimodal_pred),
            bimodal_index,
            indices,
            tags,
        }
    }

    fn update(&mut self, taken: bool, l: &Lookup, final_pred: bool) {
        self.updates += 1;
        if self.updates.is_multiple_of(U_RESET_PERIOD) {
            for table in &mut self.tables {
                for e in &mut table.entries {
                    e.set_u(e.u() >> 1);
                }
            }
        }

        match l.provider {
            Some(t) => {
                // Track whether weak providers beat their alternates.
                if l.provider_weak && l.provider_pred != l.alt_pred {
                    if l.provider_pred == taken {
                        self.use_alt = self.use_alt.saturating_sub(1);
                    } else if self.use_alt < 15 {
                        self.use_alt += 1;
                    }
                }
                let entry = &mut self.tables[t].entries[l.indices[t] as usize];
                if l.provider_pred != l.alt_pred {
                    if l.provider_pred == taken {
                        entry.set_u((entry.u() + 1).min(U_MAX));
                    } else {
                        entry.set_u(entry.u().saturating_sub(1));
                    }
                }
                entry.set_ctr(bump(entry.ctr(), taken));
                // Also train the bimodal when the provider is weak, so
                // the base stays a usable fallback.
                if l.provider_weak {
                    self.bump_bimodal(l.bimodal_index, taken);
                }
            }
            None => self.bump_bimodal(l.bimodal_index, taken),
        }

        // Allocate a longer-history entry on a misprediction, at the
        // index and with the tag the lookup already computed.
        let start = l.provider.map_or(0, |t| t + 1);
        if final_pred != taken && start < self.tables.len() {
            let mut candidates = [0usize; MAX_TAGGED_TABLES];
            let mut found = 0usize;
            for t in start..self.tables.len() {
                if self.tables[t].entries[l.indices[t] as usize].u() == 0 {
                    candidates[found] = t;
                    found += 1;
                }
            }
            if found == 0 {
                for t in start..self.tables.len() {
                    let e = &mut self.tables[t].entries[l.indices[t] as usize];
                    e.set_u(e.u().saturating_sub(1));
                }
            } else {
                // Prefer the shortest candidate with probability 2/3,
                // otherwise pick pseudo-randomly among the rest.
                let pick = if found == 1 || self.lfsr_bits(2) != 0 {
                    candidates[0]
                } else {
                    candidates[1 + self.lfsr_bits(8) as usize % (found - 1)]
                };
                self.tables[pick].entries[l.indices[pick] as usize] =
                    TaggedEntry::new(true, l.tags[pick], if taken { 0 } else { -1 }, 0);
            }
        }
    }

    fn bump_bimodal(&mut self, index: usize, taken: bool) {
        let c = &mut self.bimodal[index];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
    }

    fn lfsr_bits(&mut self, bits: u32) -> u32 {
        let mut out = 0;
        for _ in 0..bits {
            let bit = (self.lfsr ^ (self.lfsr >> 2) ^ (self.lfsr >> 3) ^ (self.lfsr >> 5)) & 1;
            self.lfsr = (self.lfsr >> 1) | (bit << 15);
            out = (out << 1) | bit;
        }
        out
    }
}

/// Geometric history-length series from `min_history` to `max_history`.
fn geometric_length(cfg: &TageConfig, t: u32) -> u32 {
    if cfg.tagged_tables == 1 {
        return cfg.min_history.min(127);
    }
    let ratio = cfg.max_history as f64 / cfg.min_history as f64;
    let exp = t as f64 / (cfg.tagged_tables - 1) as f64;
    ((cfg.min_history as f64 * ratio.powf(exp)).round() as u32).min(127)
}

/// XOR-folds the low `len` bits of `hist` into `bits` bits — the one
/// from-scratch fold. It builds a register set for an arbitrary history
/// (see [`init_folds`]); the tests check the incremental pushes against
/// it, and their unpacked reference model folds with it.
fn fold_reference(hist: u128, len: u32, bits: u32) -> u64 {
    if bits == 0 {
        return 0;
    }
    let mut h = if len >= 128 {
        hist
    } else {
        hist & ((1u128 << len) - 1)
    };
    let mask = (1u64 << bits) - 1;
    let mut acc = 0u64;
    while h != 0 {
        acc ^= (h as u64) & mask;
        h >>= bits;
    }
    acc
}

fn bump(ctr: i8, taken: bool) -> i8 {
    if taken {
        (ctr + 1).min(CTR_MAX)
    } else {
        (ctr - 1).max(CTR_MIN)
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn tage() -> Tage {
        Tage::new(TageConfig::default())
    }

    /// A faithful unpacked re-implementation of the predictor —
    /// struct-of-fields entries, from-scratch reference folds, no
    /// incremental fold registers — kept as the semantic baseline
    /// the packed, fold-cached `Tage` is driven against.
    mod reference {
        use super::*;

        #[derive(Clone, Copy, Default)]
        struct Entry {
            valid: bool,
            tag: u16,
            ctr: i8,
            u: u8,
        }

        struct Table {
            entries: Vec<Entry>,
            hist_len: u32,
            index_mask: u64,
        }

        struct Lookup {
            provider: Option<usize>,
            provider_index: usize,
            provider_pred: bool,
            provider_weak: bool,
            alt_pred: bool,
            bimodal_index: usize,
            indices: Vec<usize>,
        }

        pub struct RefTage {
            cfg: TageConfig,
            bimodal: Vec<u8>,
            tables: Vec<Table>,
            spec_hist: u128,
            pub retired_hist: u128,
            use_alt: u8,
            lfsr: u32,
            updates: u64,
            tag_mask: u16,
        }

        impl RefTage {
            pub fn new(cfg: TageConfig) -> Self {
                let tables = (0..cfg.tagged_tables)
                    .map(|t| Table {
                        entries: vec![Entry::default(); 1 << cfg.tagged_bits],
                        hist_len: geometric_length(&cfg, t),
                        index_mask: (1u64 << cfg.tagged_bits) - 1,
                    })
                    .collect();
                RefTage {
                    bimodal: vec![1; 1 << cfg.base_bits],
                    tables,
                    spec_hist: 0,
                    retired_hist: 0,
                    use_alt: 8,
                    lfsr: 0xACE1,
                    updates: 0,
                    tag_mask: ((1u32 << cfg.tag_width) - 1) as u16,
                    cfg,
                }
            }

            pub fn predict(&self, pc: Addr) -> bool {
                let l = self.lookup(pc, self.spec_hist);
                self.resolve(&l)
            }

            pub fn push_spec(&mut self, taken: bool) {
                self.spec_hist = (self.spec_hist << 1) | taken as u128;
            }

            pub fn redirect(&mut self) {
                self.spec_hist = self.retired_hist;
            }

            pub fn spec_snapshot(&self) -> u128 {
                self.spec_hist
            }

            pub fn retire_with(&mut self, pc: Addr, taken: bool, hist: u128) -> bool {
                let l = self.lookup(pc, hist);
                let predicted = self.resolve(&l);
                self.update(pc, taken, &l, predicted, hist);
                self.retired_hist = (self.retired_hist << 1) | taken as u128;
                predicted
            }

            fn resolve(&self, l: &Lookup) -> bool {
                if l.provider.is_some() && l.provider_weak && self.use_alt >= 8 {
                    l.alt_pred
                } else {
                    l.provider_pred
                }
            }

            fn tag(&self, t: usize, pc_bits: u64, hist: u128) -> u16 {
                let len = self.tables[t].hist_len;
                let f1 = fold_reference(hist, len, self.cfg.tag_width);
                let f2 = fold_reference(hist, len, self.cfg.tag_width.saturating_sub(1)) << 1;
                ((pc_bits ^ f1 ^ f2) as u16) & self.tag_mask
            }

            fn lookup(&self, pc: Addr, hist: u128) -> Lookup {
                let pc_bits = pc.get() >> 2;
                let bimodal_index = (pc_bits & ((1 << self.cfg.base_bits) - 1)) as usize;
                let bimodal_pred = self.bimodal[bimodal_index] >= 2;

                let mut indices = vec![0usize; self.tables.len()];
                let mut provider = None;
                let mut provider_index = 0;
                let mut alt: Option<bool> = None;
                for t in (0..self.tables.len()).rev() {
                    let table = &self.tables[t];
                    let f_idx = fold_reference(hist, table.hist_len, self.cfg.tagged_bits);
                    let idx =
                        ((pc_bits ^ (pc_bits >> (self.cfg.tagged_bits as u64 + t as u64)) ^ f_idx)
                            & table.index_mask) as usize;
                    indices[t] = idx;
                    let entry = table.entries[idx];
                    if entry.valid && entry.tag == self.tag(t, pc_bits, hist) {
                        if provider.is_none() {
                            provider = Some(t);
                            provider_index = idx;
                        } else {
                            alt = Some(entry.ctr >= 0);
                            break;
                        }
                    }
                }
                let alt_pred = alt.unwrap_or(bimodal_pred);
                match provider {
                    Some(t) => {
                        let e = self.tables[t].entries[provider_index];
                        Lookup {
                            provider: Some(t),
                            provider_index,
                            provider_pred: e.ctr >= 0,
                            provider_weak: e.ctr == 0 || e.ctr == -1,
                            alt_pred,
                            bimodal_index,
                            indices,
                        }
                    }
                    None => Lookup {
                        provider: None,
                        provider_index: 0,
                        provider_pred: bimodal_pred,
                        provider_weak: false,
                        alt_pred: bimodal_pred,
                        bimodal_index,
                        indices,
                    },
                }
            }

            fn update(&mut self, pc: Addr, taken: bool, l: &Lookup, final_pred: bool, hist: u128) {
                self.updates += 1;
                if self.updates.is_multiple_of(U_RESET_PERIOD) {
                    for table in &mut self.tables {
                        for e in &mut table.entries {
                            e.u >>= 1;
                        }
                    }
                }
                match l.provider {
                    Some(t) => {
                        if l.provider_weak && l.provider_pred != l.alt_pred {
                            if l.provider_pred == taken {
                                self.use_alt = self.use_alt.saturating_sub(1);
                            } else if self.use_alt < 15 {
                                self.use_alt += 1;
                            }
                        }
                        let entry = &mut self.tables[t].entries[l.provider_index];
                        if l.provider_pred != l.alt_pred {
                            if l.provider_pred == taken {
                                entry.u = (entry.u + 1).min(U_MAX);
                            } else {
                                entry.u = entry.u.saturating_sub(1);
                            }
                        }
                        entry.ctr = bump(entry.ctr, taken);
                        if l.provider_weak {
                            self.bump_bimodal(l.bimodal_index, taken);
                        }
                    }
                    None => self.bump_bimodal(l.bimodal_index, taken),
                }
                let provider_rank = l.provider.map_or(0, |t| t + 1);
                if final_pred != taken && provider_rank < self.tables.len() {
                    let start = l.provider.map_or(0, |t| t + 1);
                    let mut candidates = Vec::new();
                    for t in start..self.tables.len() {
                        if self.tables[t].entries[l.indices[t]].u == 0 {
                            candidates.push(t);
                        }
                    }
                    if candidates.is_empty() {
                        for t in start..self.tables.len() {
                            let e = &mut self.tables[t].entries[l.indices[t]];
                            e.u = e.u.saturating_sub(1);
                        }
                    } else {
                        let pick = if candidates.len() == 1 || self.lfsr_bits(2) != 0 {
                            candidates[0]
                        } else {
                            candidates[1 + self.lfsr_bits(8) as usize % (candidates.len() - 1)]
                        };
                        let tag = self.tag(pick, pc.get() >> 2, hist);
                        self.tables[pick].entries[l.indices[pick]] = Entry {
                            valid: true,
                            tag,
                            ctr: if taken { 0 } else { -1 },
                            u: 0,
                        };
                    }
                }
            }

            fn bump_bimodal(&mut self, index: usize, taken: bool) {
                let c = &mut self.bimodal[index];
                if taken {
                    *c = (*c + 1).min(3);
                } else {
                    *c = c.saturating_sub(1);
                }
            }

            fn lfsr_bits(&mut self, bits: u32) -> u32 {
                let mut out = 0;
                for _ in 0..bits {
                    let bit =
                        (self.lfsr ^ (self.lfsr >> 2) ^ (self.lfsr >> 3) ^ (self.lfsr >> 5)) & 1;
                    self.lfsr = (self.lfsr >> 1) | (bit << 15);
                    out = (out << 1) | bit;
                }
                out
            }
        }
    }

    #[test]
    fn learns_strong_bias() {
        let mut t = tage();
        let pc = Addr::new(0x4000);
        for _ in 0..32 {
            t.retire(pc, true);
        }
        assert!(t.predict(pc));
        let pc2 = Addr::new(0x8000);
        for _ in 0..32 {
            t.retire(pc2, false);
        }
        assert!(!t.predict(pc2));
    }

    #[test]
    fn learns_alternating_pattern_via_history() {
        // A strict alternation is unlearnable by bimodal but trivial
        // with one bit of history.
        let mut t = tage();
        let pc = Addr::new(0x1230);
        let mut outcome = false;
        let mut correct = 0;
        let total = 2000;
        for i in 0..total {
            let pred = t.predict(pc);
            if i > total / 2 && pred == outcome {
                correct += 1;
            }
            t.retire(pc, outcome);
            t.push_spec(outcome); // keep spec history in sync
            outcome = !outcome;
        }
        let acc = correct as f64 / (total / 2 - 1) as f64;
        assert!(acc > 0.9, "alternation accuracy {acc}");
    }

    #[test]
    fn learns_loop_exit_pattern() {
        // taken x7 then not-taken, repeated: a history predictor should
        // reach high accuracy; bimodal alone would cap at 7/8.
        let mut t = tage();
        let pc = Addr::new(0x5550);
        let mut correct = 0;
        let mut total = 0;
        for iter in 0..4000 {
            let outcome = (iter % 8) != 7;
            let pred = t.predict(pc);
            if iter > 2000 {
                total += 1;
                if pred == outcome {
                    correct += 1;
                }
            }
            t.retire(pc, outcome);
            t.push_spec(outcome);
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.93, "loop-exit accuracy {acc}");
    }

    #[test]
    fn redirect_repairs_speculative_history() {
        let mut t = tage();
        // Diverge spec from retired, then repair.
        t.push_spec(true);
        t.push_spec(true);
        t.retire(Addr::new(0x10), false);
        assert_ne!(t.spec_hist, t.retired_hist);
        t.redirect();
        assert_eq!(t.spec_hist, t.retired_hist);
    }

    #[test]
    fn distinct_branches_do_not_destructively_alias() {
        let mut t = tage();
        // Many branches with opposite biases; overall accuracy must
        // stay high despite sharing tables.
        let mut correct = 0;
        let mut total = 0;
        for round in 0..300 {
            for i in 0..64u64 {
                let pc = Addr::new(0x1_0000 + i * 0x40);
                let outcome = i % 2 == 0;
                let pred = t.predict(pc);
                if round > 150 {
                    total += 1;
                    if pred == outcome {
                        correct += 1;
                    }
                }
                t.retire(pc, outcome);
                t.push_spec(outcome);
            }
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.95, "aliasing accuracy {acc}");
    }

    #[test]
    fn storage_within_budget() {
        let t = tage();
        assert!(t.storage_bits() <= 8 * 1024 * 8);
    }

    #[test]
    fn geometric_series_spans_min_to_max() {
        let cfg = TageConfig::default();
        assert_eq!(geometric_length(&cfg, 0), cfg.min_history);
        let last = geometric_length(&cfg, cfg.tagged_tables - 1);
        assert!(last >= 120, "longest history {last}");
    }

    #[test]
    fn fold_is_stable_and_bounded() {
        let h = 0xDEAD_BEEF_CAFE_BABE_u128;
        let fold = fold_reference;
        let a = fold(h, 33, 9);
        assert_eq!(a, fold(h, 33, 9));
        assert!(a < 512);
        assert_ne!(
            fold(h, 33, 9),
            fold(h >> 1, 33, 9),
            "history changes the fold"
        );
        assert_eq!(fold(h, 0, 9), 0);
    }

    fn splitmix(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed;
        move || {
            s = s.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }
    }

    #[test]
    fn incremental_folds_track_from_scratch_folds() {
        // Push random bits through a register set and check every
        // register against a from-scratch fold of the history after
        // each push — the O(1) update must be exact at every length
        // boundary the geometry produces.
        let t = tage();
        let widths = [t.cfg.tagged_bits, t.cfg.tag_width, 0];
        let meta = FoldMeta::new(widths, &t.tables);
        let mut hist: u128 = 0;
        let mut regs = init_folds(&widths, &t.tables, hist);
        let mut next = splitmix(0xF01D);
        for _ in 0..4_000 {
            let bit = next() & 1 == 1;
            push_folds(&mut regs, &meta, hist, bit);
            hist = (hist << 1) | bit as u128;
            let fresh = init_folds(&widths, &t.tables, hist);
            for (t, (got, want)) in regs.iter().zip(fresh.iter()).enumerate() {
                assert_eq!(got[0], want[0], "table {t} plane 0");
                assert_eq!(got[2], want[2], "table {t} plane 2");
                if meta.same_width {
                    // Pushes skip plane 1 because it would mirror
                    // plane 0; check the invariant that justifies it.
                    assert_eq!(want[1], want[0], "table {t} same-width mirror");
                } else {
                    assert_eq!(got[1], want[1], "table {t} plane 1");
                }
            }
        }
    }

    #[test]
    fn packed_entry_is_four_bytes() {
        // The point of the packing: the unpacked field form padded to 6.
        assert_eq!(std::mem::size_of::<TaggedEntry>(), 4);
    }

    proptest! {
        /// Pack/unpack round trip over the full field domain.
        #[test]
        fn packed_entry_round_trips(
            valid in any::<bool>(),
            tag in 0u16..=u16::MAX,
            ctr in CTR_MIN..=CTR_MAX,
            u in 0u8..=U_MAX,
        ) {
            let e = TaggedEntry::new(valid, tag, ctr, u);
            prop_assert_eq!(e.valid(), valid);
            prop_assert_eq!(e.tag(), tag);
            prop_assert_eq!(e.ctr(), ctr);
            prop_assert_eq!(e.u(), u);
        }

        /// Field setters must leave every other packed field alone.
        #[test]
        fn packed_entry_setters_touch_only_their_field(
            valid in any::<bool>(),
            tag in 0u16..=u16::MAX,
            ctr in CTR_MIN..=CTR_MAX,
            u in 0u8..=U_MAX,
            ctr2 in CTR_MIN..=CTR_MAX,
            u2 in 0u8..=U_MAX,
        ) {
            let mut e = TaggedEntry::new(valid, tag, ctr, u);
            e.set_ctr(ctr2);
            e.set_u(u2);
            prop_assert_eq!(e.valid(), valid);
            prop_assert_eq!(e.tag(), tag);
            prop_assert_eq!(e.ctr(), ctr2);
            prop_assert_eq!(e.u(), u2);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The packed predictor must be bit-identical to the unpacked,
        /// from-scratch-folding reference across random (workload,
        /// seed) pairs, driven through the decoupled-front-end idiom:
        /// predict under spec history, snapshot it, retire under the
        /// snapshot with a lag, with periodic redirects repairing spec
        /// from retired. The "workload" is the branch-stream shape:
        /// working-set size, taken bias, and stream length. Half the
        /// cases take one fixed long shape (30k steps over 512 PCs, one
        /// in three not taken) with a random seed.
        #[test]
        fn packed_tage_matches_unpacked_reference(
            shape in prop_oneof![
                (1u64..=(1 << 48) - 1, 16u64..=511, 2u64..=5, 8_000u32..=8_000),
                (1u64..=(1 << 48) - 1, 512u64..=512, 3u64..=3, 30_000u32..=30_000),
            ],
        ) {
            let (seed, pc_count, bias, steps) = shape;
            let mut packed = tage();
            let mut unpacked = reference::RefTage::new(TageConfig::default());
            let mut next = splitmix(seed);
            let mut pending: Vec<(Addr, bool, u128)> = Vec::new();
            // Retires under a snapshot other than the retired history:
            // the lookups that fold from scratch instead of reading the
            // retired registers.
            let mut off_history = 0u32;
            for step in 0..steps {
                let pc = Addr::new(0x1000 + (next() % pc_count) * 0x10);
                let taken = !next().is_multiple_of(bias);
                prop_assert_eq!(packed.predict(pc), unpacked.predict(pc), "step {step}");
                prop_assert_eq!(packed.spec_snapshot(), unpacked.spec_snapshot());
                pending.push((pc, taken, packed.spec_snapshot()));
                packed.push_spec(taken);
                unpacked.push_spec(taken);
                // Retire with a lag, as the pipeline does.
                if pending.len() > 4 {
                    let (rpc, rtaken, snap) = pending.remove(0);
                    off_history += u32::from(snap != packed.retired_hist);
                    prop_assert_eq!(
                        packed.retire_with(rpc, rtaken, snap),
                        unpacked.retire_with(rpc, rtaken, snap)
                    );
                }
                if next().is_multiple_of(64) {
                    // Redirect: retire the newest under a stale snapshot
                    // (exercising the from-scratch fallback), drop the
                    // rest, repair spec history.
                    if let Some((rpc, rtaken, snap)) = pending.pop() {
                        off_history += u32::from(snap != packed.retired_hist);
                        prop_assert_eq!(
                            packed.retire_with(rpc, rtaken, snap),
                            unpacked.retire_with(rpc, rtaken, snap)
                        );
                    }
                    pending.clear();
                    packed.redirect();
                    unpacked.redirect();
                }
            }
            prop_assert!(off_history > 0, "no retire took the from-scratch fallback");
            prop_assert_eq!(packed.retired_hist, unpacked.retired_hist);
            for pc in (0..pc_count).map(|i| Addr::new(0x9000 + i * 0x20)) {
                prop_assert_eq!(packed.predict(pc), unpacked.predict(pc));
            }
        }
    }
}
