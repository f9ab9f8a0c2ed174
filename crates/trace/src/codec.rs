//! The record codec: LEB128 varints, zigzag signed deltas, and the
//! per-block encoding.
//!
//! Each [`RetiredBlock`] is encoded relative to the decoder state (the
//! previous record's `next_pc`), exploiting two invariants of retired
//! control flow: the stream is *contiguous* (a block starts where the
//! previous one handed off, so the start delta is almost always zero
//! and elided) and the next PC is almost always *implied* by the block
//! and its outcome (fall-through when not taken, the BTB target when
//! taken — only RAS-supplied return targets need explicit bytes). A
//! typical record is 2-4 bytes.

use fe_model::addr::VA_BITS;
use fe_model::{Addr, BasicBlock, BranchKind, RetiredBlock};

use crate::TraceError;

/// Flag bits of the leading record byte (bits 0..2 hold the kind).
const FLAG_TAKEN: u8 = 1 << 3;
const FLAG_CONTIGUOUS: u8 = 1 << 4;
const FLAG_HAS_TARGET: u8 = 1 << 5;
const FLAG_NEXT_IMPLIED: u8 = 1 << 6;
const FLAG_RESERVED: u8 = 1 << 7;
const KIND_MASK: u8 = 0b111;
/// The return kinds' codes and the highest valid code, which
/// `skip_record` checks without decoding the kind.
const KIND_RETURN: u8 = 3;
const KIND_TRAP_RETURN: u8 = 5;
const KIND_MAX: u8 = 5;

/// Stable on-wire numbering of [`BranchKind`] (format v1 — do not
/// reorder).
fn kind_code(kind: BranchKind) -> u8 {
    match kind {
        BranchKind::Conditional => 0,
        BranchKind::Jump => 1,
        BranchKind::Call => 2,
        BranchKind::Return => KIND_RETURN,
        BranchKind::Trap => 4,
        BranchKind::TrapReturn => KIND_TRAP_RETURN,
    }
}

#[inline]
fn kind_from_code(code: u8) -> Result<BranchKind, RecordError> {
    Ok(match code {
        0 => BranchKind::Conditional,
        1 => BranchKind::Jump,
        2 => BranchKind::Call,
        KIND_RETURN => BranchKind::Return,
        4 => BranchKind::Trap,
        KIND_TRAP_RETURN => BranchKind::TrapReturn,
        _ => return Err(RecordError::BadKind(code)),
    })
}

/// Why one record failed to decode. A small `Copy` type — the hot
/// decode loop must not carry heap-owning errors (drop glue on every
/// `Result` would tax the happy path); [`TraceError::from`] attaches
/// the prose at the cold boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RecordError {
    /// Payload ended mid-record.
    Truncated,
    /// A varint ran past 64 bits.
    BadVarint,
    /// Unknown branch-kind code.
    BadKind(u8),
    /// Instruction count outside `1..=MAX_INSTRS`.
    BadCount(u8),
    /// A delta left the 48-bit address space.
    AddrRange,
    /// A reserved flag bit was set.
    ReservedFlag,
    /// A taken return claimed an implied (static) target.
    ImpliedReturn,
}

impl From<RecordError> for TraceError {
    fn from(e: RecordError) -> TraceError {
        TraceError::Corrupt(match e {
            RecordError::Truncated => "record payload ends mid-record".into(),
            RecordError::BadVarint => "varint exceeds 64 bits".into(),
            RecordError::BadKind(code) => format!("unknown branch-kind code {code}"),
            RecordError::BadCount(n) => format!(
                "instruction count {n} outside 1..={}",
                BasicBlock::MAX_INSTRS
            ),
            RecordError::AddrRange => {
                format!("address delta leaves the {}-bit address space", VA_BITS)
            }
            RecordError::ReservedFlag => "reserved record flag set".into(),
            RecordError::ImpliedReturn => "taken return marked as having an implied target".into(),
        })
    }
}

/// Appends `value` as an LEB128 varint.
pub(crate) fn push_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Zigzag-maps a signed delta into varint space.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn push_delta(out: &mut Vec<u8>, delta: i64) {
    push_varint(out, zigzag(delta));
}

/// The address `next_pc` takes when it is fully determined by the
/// block and the branch outcome: fall-through when not taken, the
/// static target when taken — `None` for taken returns, whose target
/// is dynamic (RAS-supplied).
fn implied_next(block: &BasicBlock, taken: bool) -> Option<Addr> {
    if !taken {
        Some(block.fall_through())
    } else if block.kind.has_btb_target() {
        Some(block.target)
    } else {
        None
    }
}

/// Encodes one record, advancing `prev_next` (the decoder-state mirror).
pub(crate) fn encode_record(out: &mut Vec<u8>, rb: &RetiredBlock, prev_next: &mut Addr) {
    let b = &rb.block;
    let mut flags = kind_code(b.kind);
    if rb.taken {
        flags |= FLAG_TAKEN;
    }
    let contiguous = b.start == *prev_next;
    if contiguous {
        flags |= FLAG_CONTIGUOUS;
    }
    let has_target = !b.target.is_null();
    if has_target {
        flags |= FLAG_HAS_TARGET;
    }
    let implied = implied_next(b, rb.taken) == Some(rb.next_pc);
    if implied {
        flags |= FLAG_NEXT_IMPLIED;
    }
    out.push(flags);
    out.push(b.instr_count);
    if !contiguous {
        push_delta(out, b.start - *prev_next);
    }
    if has_target {
        push_delta(out, b.target - b.start);
    }
    if !implied {
        push_delta(out, rb.next_pc - b.fall_through());
    }
    *prev_next = rb.next_pc;
}

/// Decodes the next record from `bytes` at `*pos` against the decoder
/// state `*prev_next`, advancing both on success. Free-function form so
/// callers that own their byte buffer (the chunked store replayer, see
/// [`crate::store`]) can decode without borrowing through a wrapper;
/// [`RecordDecoder`] packages the same state for slice-backed callers.
#[inline]
pub(crate) fn decode_record(
    bytes: &[u8],
    pos: &mut usize,
    prev_next: &mut Addr,
) -> Result<RetiredBlock, RecordError> {
    // Cursor state lives in locals so the optimizer keeps it in
    // registers across the field reads.
    let mut cur = Cursor { bytes, pos: *pos };
    // Every record opens with the flags and count bytes: one
    // bounds check covers both.
    let Some(&[flags, instr_count]) = cur.bytes.get(cur.pos..cur.pos + 2) else {
        return Err(RecordError::Truncated);
    };
    cur.pos += 2;
    if flags & FLAG_RESERVED != 0 {
        return Err(RecordError::ReservedFlag);
    }
    let kind = kind_from_code(flags & KIND_MASK)?;
    if instr_count.wrapping_sub(1) >= BasicBlock::MAX_INSTRS {
        return Err(RecordError::BadCount(instr_count));
    }
    let start = if flags & FLAG_CONTIGUOUS != 0 {
        *prev_next
    } else {
        cur.addr_from(*prev_next)?
    };
    let target = if flags & FLAG_HAS_TARGET != 0 {
        cur.addr_from(start)?
    } else {
        Addr::NULL
    };
    let block = BasicBlock {
        start,
        instr_count,
        kind,
        target,
    };
    let taken = flags & FLAG_TAKEN != 0;
    let next_pc = if flags & FLAG_NEXT_IMPLIED != 0 {
        implied_next(&block, taken).ok_or(RecordError::ImpliedReturn)?
    } else {
        cur.addr_from(block.fall_through())?
    };
    *pos = cur.pos;
    *prev_next = next_pc;
    Ok(RetiredBlock {
        block,
        taken,
        next_pc,
    })
}

/// Decodes past the next record without materializing it, returning
/// its instruction count — the seekable-replay fast path. Only the
/// address chain (`prev_next`) is reconstructed and no block is
/// assembled, so the sampled-simulation fast-forward pays a fraction
/// of [`decode_record`]'s work per record. It accepts exactly the
/// records [`decode_record`] accepts, with the same result position
/// and address chain: a seek mixes the two.
#[inline]
pub(crate) fn skip_record(
    bytes: &[u8],
    pos: &mut usize,
    prev_next: &mut Addr,
) -> Result<u64, RecordError> {
    let mut cur = Cursor { bytes, pos: *pos };
    let Some(&[flags, instr_count]) = cur.bytes.get(cur.pos..cur.pos + 2) else {
        return Err(RecordError::Truncated);
    };
    cur.pos += 2;
    if flags & FLAG_RESERVED != 0 {
        return Err(RecordError::ReservedFlag);
    }
    let kind = flags & KIND_MASK;
    if kind > KIND_MAX {
        return Err(RecordError::BadKind(kind));
    }
    if instr_count.wrapping_sub(1) >= BasicBlock::MAX_INSTRS {
        return Err(RecordError::BadCount(instr_count));
    }
    let start = if flags & FLAG_CONTIGUOUS != 0 {
        *prev_next
    } else {
        cur.addr_from(*prev_next)?
    };
    let target = if flags & FLAG_HAS_TARGET != 0 {
        cur.addr_from(start)?
    } else {
        Addr::NULL
    };
    let fall_through = start + instr_count as u64 * fe_model::INSTR_BYTES;
    *prev_next = if flags & FLAG_NEXT_IMPLIED != 0 {
        if flags & FLAG_TAKEN != 0 {
            // An implied taken next PC is the static target (null when
            // the record carries none); a taken return or trap-return
            // has no static target, so it never sets the flag.
            if kind == KIND_RETURN || kind == KIND_TRAP_RETURN {
                return Err(RecordError::ImpliedReturn);
            }
            target
        } else {
            fall_through
        }
    } else {
        cur.addr_from(fall_through)?
    };
    *pos = cur.pos;
    Ok(instr_count as u64)
}

/// Incremental decoder over a record payload.
pub(crate) struct RecordDecoder<'t> {
    bytes: &'t [u8],
    pos: usize,
    prev_next: Addr,
}

impl<'t> RecordDecoder<'t> {
    pub(crate) fn new(bytes: &'t [u8]) -> Self {
        RecordDecoder {
            bytes,
            pos: 0,
            prev_next: Addr::NULL,
        }
    }

    /// Bytes consumed so far.
    #[cfg(test)]
    pub(crate) fn consumed(&self) -> usize {
        self.pos
    }

    #[cfg(test)]
    pub(crate) fn varint(&mut self) -> Result<u64, RecordError> {
        let mut cursor = Cursor {
            bytes: self.bytes,
            pos: self.pos,
        };
        let v = cursor.varint();
        self.pos = cursor.pos;
        v
    }

    /// Decodes the next record.
    #[inline]
    pub(crate) fn decode_record(&mut self) -> Result<RetiredBlock, RecordError> {
        decode_record(self.bytes, &mut self.pos, &mut self.prev_next)
    }

    /// See [`skip_record`].
    #[inline]
    pub(crate) fn skip_record(&mut self) -> Result<u64, RecordError> {
        skip_record(self.bytes, &mut self.pos, &mut self.prev_next)
    }
}

/// Local decode cursor — see [`RecordDecoder::decode_record`].
struct Cursor<'t> {
    bytes: &'t [u8],
    pos: usize,
}

impl Cursor<'_> {
    #[inline]
    fn byte(&mut self) -> Result<u8, RecordError> {
        let Some(&b) = self.bytes.get(self.pos) else {
            return Err(RecordError::Truncated);
        };
        self.pos += 1;
        Ok(b)
    }

    #[inline]
    fn varint(&mut self) -> Result<u64, RecordError> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.byte()?;
            value |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
            if shift >= 64 {
                return Err(RecordError::BadVarint);
            }
        }
    }

    #[inline]
    fn addr_from(&mut self, base: Addr) -> Result<Addr, RecordError> {
        let raw = (base.get() as i64).wrapping_add(unzigzag(self.varint()?));
        if raw as u64 >= 1 << VA_BITS {
            return Err(RecordError::AddrRange);
        }
        Ok(Addr::new(raw as u64))
    }
}

/// FNV-1a 64-bit initial state.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into an FNV-1a 64-bit state — chainable, so the
/// trace checksum can cover discontiguous regions (header-with-zeroed-
/// hash-field ++ name ++ payload) without copying.
pub(crate) fn fnv1a_update(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a 64-bit hash of one contiguous region.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_update(FNV_OFFSET, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn varint_round_trips_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            push_varint(&mut buf, v);
            let mut dec = RecordDecoder::new(&buf);
            assert_eq!(dec.varint().unwrap(), v);
            assert_eq!(dec.consumed(), buf.len());
        }
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn contiguous_taken_jump_is_two_plus_delta_bytes() {
        // start == prev_next and next implied by the target: only the
        // flags byte, the count byte, and the target delta remain.
        let block = BasicBlock::new(Addr::new(0x1000), 4, BranchKind::Jump, Addr::new(0x1020));
        let rb = RetiredBlock::resolve(block, true, None);
        let mut out = Vec::new();
        let mut prev = Addr::new(0x1000);
        encode_record(&mut out, &rb, &mut prev);
        assert_eq!(out.len(), 3, "flags + count + 1-byte target delta");
        assert_eq!(prev, Addr::new(0x1020));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]
        // A seek mixes skipped and decoded records, so the two must
        // agree on every byte string: skipping succeeds exactly where
        // decoding does, lands on the same position and address chain,
        // and counts the decoded block's instructions.
        #[test]
        fn skip_accepts_exactly_what_decode_accepts(
            bytes in prop::collection::vec(0u8..=255, 0..40),
            start in 0u64..1 << 20,
        ) {
            let (mut pos, mut prev_next) = (0, Addr::new(start));
            while pos < bytes.len() {
                let (mut skip_pos, mut skip_prev) = (pos, prev_next);
                let skipped = skip_record(&bytes, &mut skip_pos, &mut skip_prev);
                let decoded = decode_record(&bytes, &mut pos, &mut prev_next);
                match decoded {
                    Ok(rb) => {
                        prop_assert_eq!(skipped, Ok(rb.instr_count()));
                        prop_assert_eq!((skip_pos, skip_prev), (pos, prev_next));
                    }
                    Err(e) => {
                        prop_assert!(skipped.is_err(), "skip accepted what decode rejects ({e:?})");
                        break;
                    }
                }
            }
        }
    }
}
