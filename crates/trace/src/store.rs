//! The v2 chunk-compressed, indexed on-disk trace store.
//!
//! A [`TraceStore`] holds the same record stream as a v1 [`Trace`] but
//! re-packages it for *selective* decode: the payload is split into
//! chunks of a fixed record count, each chunk is delta-encoded from a
//! reset decoder state (so any chunk decodes standalone) and
//! LZ-compressed when that saves bytes, and a per-chunk index records
//! every chunk's raw size, stored size, record count and instruction
//! count. Seeking — the [`BlockSource::skip_instrs`] fast path sampled
//! simulation leans on — walks the index and decompresses only the
//! chunk the target lands in, instead of decoding every record on the
//! way; [`StoreReplayer`] counts its chunk decodes so tests can pin
//! exactly that.
//!
//! The container shares the v1 fixed header layout (same magic, same
//! field offsets, version field = [`STORE_VERSION`], same whole-file
//! FNV-1a checksum rule) and appends the provenance string, the chunk
//! geometry, the index, and the chunk data — see `docs/TRACE_FORMAT.md`
//! for the byte-level spec. A v1 reader rejects a store file with its
//! named `UnsupportedVersion` error and vice versa; nothing silently
//! misparses.
//!
//! ```
//! use fe_cfg::workloads;
//! use fe_model::BlockSource;
//! use fe_trace::{Trace, TraceStore};
//!
//! let program = workloads::nutch().scaled(0.05).build();
//! let trace = Trace::record(&program, 42, 20_000);
//! let store = TraceStore::from_trace(&trace, "doctest recording");
//! // Lossless: the store reconstructs the v1 trace byte-for-byte.
//! assert_eq!(store.to_trace().to_bytes(), trace.to_bytes());
//! // Seekable: skipping decodes only the chunks it lands in.
//! let mut replay = store.replayer();
//! replay.skip_instrs(15_000);
//! assert!(replay.chunks_decoded() < store.chunk_count() as u64);
//! ```

use std::path::Path;

use fe_cfg::Program;
use fe_model::{Addr, BlockSource, RetiredBlock};

use crate::codec::{self, encode_record, fnv1a, fnv1a_update, FNV_OFFSET};
use crate::{
    ProgramFingerprint, Trace, TraceError, TraceHeader, TraceWriter, CHECKSUM_RANGE,
    HEADER_FIXED_LEN, MAGIC,
};

/// Format version written by [`TraceStore::to_bytes`] (v1 is the flat
/// [`Trace`] format).
pub const STORE_VERSION: u16 = 2;

/// Default records per chunk: small enough that a seek decodes a few
/// thousand records at most, large enough that the LZ window and the
/// per-chunk index entry amortize well.
pub const DEFAULT_CHUNK_RECORDS: u32 = 4096;

/// Serialized size of one index entry (four `u32` fields + flags byte).
const INDEX_ENTRY_LEN: usize = 17;

/// Chunk flag bit: payload is LZ-compressed (raw otherwise).
const CHUNK_COMPRESSED: u8 = 1;

/// Why the replayer's chunk decodes and decode-skips cannot fail: both
/// constructors ([`TraceStore::from_bytes`] and the `from_trace`
/// family) validate the store, decoding every chunk once, and a record
/// that decodes also decode-skips (the codec's
/// `skip_accepts_exactly_what_decode_accepts` proptest).
const CHUNKS_VALIDATED: &str = "every chunk decoded when the store was built or loaded";

/// One chunk's index entry: everything a seek needs to know about the
/// chunk without touching its bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkEntry {
    /// Encoded (uncompressed) chunk size in bytes.
    pub raw_len: u32,
    /// Bytes the chunk occupies in the store (== `raw_len` when stored
    /// raw).
    pub stored_len: u32,
    /// Records in the chunk.
    pub records: u32,
    /// Instructions across the chunk's records.
    pub instrs: u32,
    /// Whether the chunk is LZ-compressed.
    pub compressed: bool,
}

/// A chunk-compressed, indexed trace store — the v2 on-disk format.
///
/// Build one from a recorded v1 [`Trace`] with
/// [`TraceStore::from_trace`]; go back with [`TraceStore::to_trace`]
/// (lossless, byte-identical serialization). [`TraceStore::replayer`]
/// feeds a simulator directly, decoding chunks lazily.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceStore {
    header: TraceHeader,
    provenance: String,
    chunk_records: u32,
    index: Vec<ChunkEntry>,
    /// Byte offset of each chunk in `data` (derived from the index;
    /// kept so a seek lands in O(1) once it picks a chunk).
    offsets: Vec<usize>,
    /// Concatenated stored chunk bytes.
    data: Vec<u8>,
}

impl TraceStore {
    /// Converts a v1 trace into a store with [`DEFAULT_CHUNK_RECORDS`]
    /// records per chunk, attaching `provenance` (free-form origin
    /// string: capture tool, source file, conversion date — whatever
    /// identifies where the data came from).
    ///
    /// # Panics
    ///
    /// Panics if `trace`'s records do not decode, or disagree with its
    /// header. A recorder never produces such a trace; a damaged file
    /// whose checksum was recomputed over the damage can, which is why
    /// the ingest pipeline converts through a path that returns the
    /// error instead.
    pub fn from_trace(trace: &Trace, provenance: &str) -> TraceStore {
        Self::from_trace_with(trace, provenance, DEFAULT_CHUNK_RECORDS)
    }

    /// [`TraceStore::from_trace`] with an explicit chunk record count
    /// (clamped into `1..=1<<20` — the index fields are `u32`).
    ///
    /// # Panics
    ///
    /// As [`TraceStore::from_trace`].
    pub fn from_trace_with(trace: &Trace, provenance: &str, chunk_records: u32) -> TraceStore {
        Self::try_from_trace(trace, provenance, chunk_records)
            .expect("source trace's records decode and sum to its header")
    }

    /// [`TraceStore::from_trace_with`], returning a typed error where
    /// that panics.
    pub(crate) fn try_from_trace(
        trace: &Trace,
        provenance: &str,
        chunk_records: u32,
    ) -> Result<TraceStore, TraceError> {
        let chunk_records = chunk_records.clamp(1, 1 << 20);
        let mut store = TraceStore {
            header: trace.header().clone(),
            provenance: provenance.to_string(),
            chunk_records,
            index: Vec::new(),
            offsets: Vec::new(),
            data: Vec::new(),
        };
        let mut raw = Vec::new();
        let mut prev_next = Addr::NULL;
        let mut records = 0u32;
        let mut instrs = 0u32;
        for rb in trace.reader() {
            let rb = rb?;
            // Chunks delta-encode from a reset decoder state so each
            // decodes standalone — the seekability invariant.
            encode_record(&mut raw, &rb, &mut prev_next);
            records += 1;
            instrs += rb.instr_count() as u32;
            if records == chunk_records {
                store.push_chunk(&raw, records, instrs);
                raw.clear();
                records = 0;
                instrs = 0;
                prev_next = Addr::NULL;
            }
        }
        if records > 0 {
            store.push_chunk(&raw, records, instrs);
        }
        store.validate()?;
        Ok(store)
    }

    /// Appends one chunk of encoded records, compressed when that
    /// saves bytes.
    fn push_chunk(&mut self, raw: &[u8], records: u32, instrs: u32) {
        let packed = crate::compress::compress(raw);
        let compressed = packed.len() < raw.len();
        let stored = if compressed { &packed[..] } else { raw };
        self.offsets.push(self.data.len());
        self.index.push(ChunkEntry {
            raw_len: raw.len() as u32,
            stored_len: stored.len() as u32,
            records,
            instrs,
            compressed,
        });
        self.data.extend_from_slice(stored);
    }

    /// Checks everything a replayer relies on, so that its decodes
    /// cannot fail later. The index must reproduce the header totals
    /// exactly (a mismatch means the store lies about its own
    /// geometry). Then every chunk is decoded once: it must decompress
    /// to exactly its `raw_len`, hold exactly its `records` records
    /// with no bytes left over, and sum to its `instrs`. A replayer's
    /// seek decode-skips some of those records instead, which cannot
    /// fail either: `codec::skip_record` accepts exactly the records
    /// `codec::decode_record` accepts, landing on the same position
    /// (the `skip_accepts_exactly_what_decode_accepts` proptest).
    fn validate(&self) -> Result<(), TraceError> {
        let sum = |field: fn(&ChunkEntry) -> u32| -> u64 {
            self.index.iter().map(|e| field(e) as u64).sum()
        };
        for (what, index_sum, claimed) in [
            (
                "stored sizes",
                sum(|e| e.stored_len),
                self.data.len() as u64,
            ),
            ("records", sum(|e| e.records), self.header.block_count),
            ("instructions", sum(|e| e.instrs), self.header.instr_count),
        ] {
            if index_sum != claimed {
                return Err(TraceError::Corrupt(format!(
                    "index {what} sum to {index_sum}, header claims {claimed}"
                )));
            }
        }
        for (chunk, entry) in self.index.iter().enumerate() {
            let corrupt = |what: String| TraceError::Corrupt(format!("chunk {chunk}: {what}"));
            if entry.records == 0 {
                return Err(corrupt("empty".into()));
            }
            let plausible = if entry.compressed {
                entry.raw_len as u64
                    <= entry.stored_len as u64 * crate::compress::MAX_EXPANSION as u64
            } else {
                entry.raw_len == entry.stored_len
            };
            if !plausible {
                return Err(corrupt(format!(
                    "{} raw bytes cannot come from {} stored bytes",
                    entry.raw_len, entry.stored_len
                )));
            }
            let buf = self.chunk_bytes(chunk)?;
            let (mut pos, mut prev_next) = (0, Addr::NULL);
            let mut instrs = 0u64;
            for record in 0..entry.records {
                let decoded = codec::decode_record(&buf, &mut pos, &mut prev_next)
                    .map_err(|e| corrupt(format!("record {record}: {}", TraceError::from(e))))?;
                instrs += decoded.instr_count();
            }
            if pos != buf.len() {
                return Err(corrupt(format!(
                    "{} bytes after its last record",
                    buf.len() - pos
                )));
            }
            if instrs != entry.instrs as u64 {
                return Err(corrupt(format!(
                    "records hold {instrs} instructions, index claims {}",
                    entry.instrs
                )));
            }
        }
        Ok(())
    }

    /// Reconstructs the flat v1 [`Trace`]. Lossless: the result
    /// serializes byte-identically to the trace the store was built
    /// from (record encoding is deterministic, and the header fields
    /// are carried through unchanged).
    ///
    /// Never panics: both constructors decode every chunk first.
    pub fn to_trace(&self) -> Trace {
        let mut writer = TraceWriter::new(
            self.header.name.clone(),
            self.header.seed,
            self.header.fingerprint,
        );
        for chunk in 0..self.index.len() {
            let buf = self.chunk_bytes(chunk).expect(CHUNKS_VALIDATED);
            let mut pos = 0;
            let mut prev_next = Addr::NULL;
            for _ in 0..self.index[chunk].records {
                let rb =
                    codec::decode_record(&buf, &mut pos, &mut prev_next).expect(CHUNKS_VALIDATED);
                writer.record(&rb);
            }
        }
        writer.finish()
    }

    /// The trace metadata (shared with the v1 header: name, seed,
    /// counts, fingerprint).
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// Free-form origin string attached at conversion time.
    pub fn provenance(&self) -> &str {
        &self.provenance
    }

    /// Nominal records per chunk the store was built with (the last
    /// chunk may hold fewer).
    pub fn chunk_records(&self) -> u32 {
        self.chunk_records
    }

    /// Number of chunks.
    pub fn chunk_count(&self) -> u32 {
        self.index.len() as u32
    }

    /// The index entry for `chunk`.
    pub fn chunk_entry(&self, chunk: u32) -> Option<ChunkEntry> {
        self.index.get(chunk as usize).copied()
    }

    /// Total stored chunk bytes (compressed where that won).
    pub fn stored_len(&self) -> usize {
        self.data.len()
    }

    /// Total encoded bytes before compression — the v1 payload size.
    pub fn raw_len(&self) -> usize {
        self.index.iter().map(|e| e.raw_len as usize).sum()
    }

    /// `true` when this store's stream was recorded against `program`
    /// (by fingerprint) — the precondition for faithful replay.
    pub fn matches(&self, program: &Program) -> bool {
        self.header.fingerprint == ProgramFingerprint::of(program)
    }

    /// A [`BlockSource`] replaying this store into a simulator,
    /// decoding chunks lazily and seeking via the index.
    pub fn replayer(&self) -> StoreReplayer<'_> {
        StoreReplayer {
            store: self,
            next_chunk: 0,
            buf: Vec::new(),
            pos: 0,
            prev_next: Addr::NULL,
            chunk_remaining: 0,
            replayed: 0,
            chunks_decoded: 0,
            records_decoded: 0,
        }
    }

    /// The decoded (decompressed) bytes of one chunk.
    fn chunk_bytes(&self, chunk: usize) -> Result<Vec<u8>, TraceError> {
        let entry = self.index[chunk];
        let at = self.offsets[chunk];
        let stored = &self.data[at..at + entry.stored_len as usize];
        if entry.compressed {
            crate::compress::decompress(stored, entry.raw_len as usize)
                .map_err(|what| TraceError::Corrupt(format!("chunk {chunk}: {what}")))
        } else {
            Ok(stored.to_vec())
        }
    }

    /// Serializes the store (shared fixed header, name, provenance,
    /// chunk geometry, index, chunk data) with the whole-file checksum
    /// patched in — the byte layout `docs/TRACE_FORMAT.md` specifies.
    pub fn to_bytes(&self) -> Vec<u8> {
        let h = &self.header;
        let name = h.name.as_bytes();
        assert!(name.len() <= u16::MAX as usize, "trace name too long");
        let prov = self.provenance.as_bytes();
        assert!(prov.len() <= u16::MAX as usize, "provenance too long");
        let mut out = Vec::with_capacity(
            HEADER_FIXED_LEN
                + name.len()
                + prov.len()
                + 10
                + self.index.len() * INDEX_ENTRY_LEN
                + self.data.len(),
        );
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&STORE_VERSION.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes()); // flags (reserved)
        out.extend_from_slice(&h.seed.to_le_bytes());
        out.extend_from_slice(&h.block_count.to_le_bytes());
        out.extend_from_slice(&h.instr_count.to_le_bytes());
        out.extend_from_slice(&h.fingerprint.blocks.to_le_bytes());
        out.extend_from_slice(&h.fingerprint.digest.to_le_bytes());
        out.extend_from_slice(&(self.data.len() as u64).to_le_bytes());
        out.extend_from_slice(&0u64.to_le_bytes()); // checksum placeholder
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name);
        out.extend_from_slice(&(prov.len() as u16).to_le_bytes());
        out.extend_from_slice(prov);
        out.extend_from_slice(&self.chunk_records.to_le_bytes());
        out.extend_from_slice(&(self.index.len() as u32).to_le_bytes());
        for e in &self.index {
            out.extend_from_slice(&e.raw_len.to_le_bytes());
            out.extend_from_slice(&e.stored_len.to_le_bytes());
            out.extend_from_slice(&e.records.to_le_bytes());
            out.extend_from_slice(&e.instrs.to_le_bytes());
            out.push(if e.compressed { CHUNK_COMPRESSED } else { 0 });
        }
        out.extend_from_slice(&self.data);
        // Same checksum rule as v1: FNV-1a over the entire file with
        // the checksum field read as zero, then patched in.
        let checksum = fnv1a(&out);
        out[CHECKSUM_RANGE].copy_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Parses a serialized store, validating magic, version, every
    /// length field, the whole-file checksum, the index's internal
    /// consistency (chunk sums must reproduce the header's
    /// block/instruction/payload totals), and finally every chunk's
    /// contents (see `validate`) — a damaged file is rejected here
    /// with a descriptive [`TraceError`], never later mid-replay.
    pub fn from_bytes(bytes: &[u8]) -> Result<TraceStore, TraceError> {
        if bytes.len() < HEADER_FIXED_LEN {
            return Err(if bytes.get(..4).is_some_and(|m| m == MAGIC) {
                TraceError::Truncated {
                    expected: HEADER_FIXED_LEN as u64,
                    actual: bytes.len() as u64,
                }
            } else {
                TraceError::BadMagic
            });
        }
        if bytes[..4] != MAGIC {
            return Err(TraceError::BadMagic);
        }
        let u16_at = |off: usize| {
            u16::from_le_bytes(
                bytes[off..off + 2]
                    .try_into()
                    .expect("slice is exactly 2 bytes"),
            )
        };
        let u64_at = |off: usize| {
            u64::from_le_bytes(
                bytes[off..off + 8]
                    .try_into()
                    .expect("slice is exactly 8 bytes"),
            )
        };
        let version = u16_at(4);
        if version != STORE_VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }
        let seed = u64_at(8);
        let block_count = u64_at(16);
        let instr_count = u64_at(24);
        let fingerprint = ProgramFingerprint {
            blocks: u64_at(32),
            digest: u64_at(40),
        };
        let payload_len = u64_at(48);
        let checksum = u64_at(56);
        let name_len = u16_at(64) as usize;
        // Bounds-checked tail reads: a corrupted length field must
        // surface as a clean Truncated/Corrupt error, never a slice
        // panic or an overflow.
        let truncated = |expected: u64| TraceError::Truncated {
            expected,
            actual: bytes.len() as u64,
        };
        let need = |pos: usize, len: usize| -> Result<usize, TraceError> {
            let end = (pos as u64)
                .checked_add(len as u64)
                .ok_or_else(|| TraceError::Corrupt("header length fields overflow".into()))?;
            if bytes.len() as u64 >= end {
                Ok(end as usize)
            } else {
                Err(truncated(end))
            }
        };
        let mut pos = need(HEADER_FIXED_LEN, name_len)?;
        let name_range = HEADER_FIXED_LEN..pos;
        let end = need(pos, 2)?;
        let prov_len = u16_at(pos) as usize;
        pos = need(end, prov_len)?;
        let prov_range = end..pos;
        let end = need(pos, 8)?;
        let chunk_records = u32::from_le_bytes(
            bytes[pos..pos + 4]
                .try_into()
                .expect("slice is exactly 4 bytes"),
        );
        let chunk_count = u32::from_le_bytes(
            bytes[pos + 4..pos + 8]
                .try_into()
                .expect("slice is exactly 4 bytes"),
        ) as usize;
        pos = end;
        let index_end = need(
            pos,
            chunk_count
                .checked_mul(INDEX_ENTRY_LEN)
                .ok_or_else(|| TraceError::Corrupt("chunk count overflows the index".into()))?,
        )?;
        let total = (index_end as u64)
            .checked_add(payload_len)
            .ok_or_else(|| TraceError::Corrupt("header length fields overflow".into()))?;
        if (bytes.len() as u64) < total {
            return Err(truncated(total));
        }
        let total = total as usize;
        // Validate the checksum before trusting any field further —
        // same whole-file rule as v1.
        let stored = fnv1a_update(
            fnv1a_update(
                fnv1a_update(FNV_OFFSET, &bytes[..CHECKSUM_RANGE.start]),
                &[0u8; 8],
            ),
            &bytes[CHECKSUM_RANGE.end..total],
        );
        if stored != checksum {
            return Err(TraceError::ChecksumMismatch);
        }
        let name = std::str::from_utf8(&bytes[name_range])
            .map_err(|_| TraceError::Corrupt("trace name is not UTF-8".into()))?
            .to_string();
        let provenance = std::str::from_utf8(&bytes[prov_range])
            .map_err(|_| TraceError::Corrupt("provenance is not UTF-8".into()))?
            .to_string();
        let mut index = Vec::with_capacity(chunk_count);
        let mut offsets = Vec::with_capacity(chunk_count);
        let mut at = pos;
        let mut sum_stored = 0u64;
        for _ in 0..chunk_count {
            let u32_at = |off: usize| {
                u32::from_le_bytes(
                    bytes[off..off + 4]
                        .try_into()
                        .expect("slice is exactly 4 bytes"),
                )
            };
            let flags = bytes[at + 16];
            if flags & !CHUNK_COMPRESSED != 0 {
                return Err(TraceError::Corrupt(format!(
                    "reserved chunk flag set ({flags:#04x})"
                )));
            }
            let entry = ChunkEntry {
                raw_len: u32_at(at),
                stored_len: u32_at(at + 4),
                records: u32_at(at + 8),
                instrs: u32_at(at + 12),
                compressed: flags & CHUNK_COMPRESSED != 0,
            };
            offsets.push(sum_stored as usize);
            sum_stored += entry.stored_len as u64;
            index.push(entry);
            at += INDEX_ENTRY_LEN;
        }
        let store = TraceStore {
            header: TraceHeader {
                name,
                seed,
                block_count,
                instr_count,
                fingerprint,
            },
            provenance,
            chunk_records,
            index,
            offsets,
            data: bytes[index_end..total].to_vec(),
        };
        store.validate()?;
        Ok(store)
    }

    /// Writes the serialized store to `path`.
    pub fn write_to(&self, path: impl AsRef<Path>) -> Result<(), TraceError> {
        Ok(std::fs::write(path, self.to_bytes())?)
    }

    /// Reads and validates a store file.
    pub fn read_from(path: impl AsRef<Path>) -> Result<TraceStore, TraceError> {
        TraceStore::from_bytes(&std::fs::read(path)?)
    }
}

/// Replays a [`TraceStore`] as the simulator's [`BlockSource`],
/// decoding chunks lazily: `next_block` decompresses one chunk at a
/// time into an owned buffer, and [`BlockSource::skip_instrs`] walks
/// the index past whole chunks — decompressing *only* the chunk the
/// seek lands in. [`StoreReplayer::chunks_decoded`] and
/// [`StoreReplayer::records_decoded`] expose exactly how much work the
/// replay did, which the seek tests pin.
pub struct StoreReplayer<'s> {
    store: &'s TraceStore,
    /// Index of the next chunk to load.
    next_chunk: usize,
    /// Decoded bytes of the current chunk.
    buf: Vec<u8>,
    pos: usize,
    prev_next: Addr,
    /// Records left undecoded in `buf`.
    chunk_remaining: u32,
    replayed: u64,
    chunks_decoded: u64,
    records_decoded: u64,
}

impl StoreReplayer<'_> {
    /// Blocks replayed (decoded or skipped) so far.
    pub fn replayed(&self) -> u64 {
        self.replayed
    }

    /// Chunks decompressed/loaded so far — whole-chunk seeks do not
    /// count, which is the point of the index.
    pub fn chunks_decoded(&self) -> u64 {
        self.chunks_decoded
    }

    /// Records individually decoded (including decode-skips) so far;
    /// records passed over by whole-chunk seeks do not count.
    pub fn records_decoded(&self) -> u64 {
        self.records_decoded
    }

    /// Loads the next chunk into `buf`, resetting the decoder state.
    /// Returns `false` when the store is exhausted.
    fn load_next_chunk(&mut self) -> bool {
        let Some(entry) = self.store.index.get(self.next_chunk) else {
            return false;
        };
        self.buf = self
            .store
            .chunk_bytes(self.next_chunk)
            .expect(CHUNKS_VALIDATED);
        self.pos = 0;
        self.prev_next = Addr::NULL;
        self.chunk_remaining = entry.records;
        self.chunks_decoded += 1;
        self.next_chunk += 1;
        true
    }
}

impl BlockSource for StoreReplayer<'_> {
    /// Returns `None` when the store runs out of records; otherwise
    /// exactly the recorded stream, chunk by chunk. Never fails to
    /// decode: every chunk was decoded when the store was built or
    /// loaded.
    #[inline]
    fn next_block(&mut self) -> Option<RetiredBlock> {
        if self.chunk_remaining == 0 && !self.load_next_chunk() {
            return None;
        }
        let rb = codec::decode_record(&self.buf, &mut self.pos, &mut self.prev_next)
            .expect(CHUNKS_VALIDATED);
        self.chunk_remaining -= 1;
        self.replayed += 1;
        self.records_decoded += 1;
        Some(rb)
    }

    /// Seekable fast-forward over the index: whole chunks whose
    /// instruction counts fit under the target are passed over without
    /// decompression; only the chunk the seek lands in is decoded (by
    /// decode-skip, address chain only). This is what makes sampled
    /// simulation over an on-disk store cheap.
    #[inline]
    fn skip_instrs(&mut self, min_instrs: u64) -> u64 {
        let mut skipped = 0u64;
        loop {
            // Drain whatever is already decoded.
            while skipped < min_instrs && self.chunk_remaining > 0 {
                skipped += codec::skip_record(&self.buf, &mut self.pos, &mut self.prev_next)
                    .expect(CHUNKS_VALIDATED);
                self.chunk_remaining -= 1;
                self.replayed += 1;
                self.records_decoded += 1;
            }
            if skipped >= min_instrs {
                return skipped;
            }
            match self.store.index.get(self.next_chunk) {
                None => return skipped, // exhausted: report the shortfall
                Some(entry) if skipped + entry.instrs as u64 <= min_instrs => {
                    // The whole chunk fits under the target: account
                    // for it via the index, no decompression.
                    skipped += entry.instrs as u64;
                    self.replayed += entry.records as u64;
                    self.next_chunk += 1;
                }
                Some(_) => {
                    // The target lands inside this chunk: decode it.
                    self.load_next_chunk();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fe_cfg::{workloads, Executor};
    use proptest::prelude::*;

    fn small_trace() -> (Program, Trace) {
        let program = workloads::nutch().scaled(0.05).build();
        let trace = Trace::record(&program, 7, 50_000);
        (program, trace)
    }

    #[test]
    fn store_round_trips_losslessly() {
        let (program, trace) = small_trace();
        let store = TraceStore::from_trace_with(&trace, "unit test", 512);
        assert!(store.chunk_count() > 4, "test needs several chunks");
        assert_eq!(store.header(), trace.header());
        assert_eq!(store.provenance(), "unit test");
        assert!(store.matches(&program));
        // Lossless reconstruction, down to the serialized bytes.
        assert_eq!(store.to_trace(), trace);
        assert_eq!(store.to_trace().to_bytes(), trace.to_bytes());
        // And the container itself round-trips.
        let back = TraceStore::from_bytes(&store.to_bytes()).expect("round trip");
        assert_eq!(back, store);
    }

    #[test]
    fn store_compresses_the_payload() {
        let (_, trace) = small_trace();
        let store = TraceStore::from_trace(&trace, "compression check");
        // Per-chunk delta resets cost a few bytes over the flat
        // payload (each chunk's first record carries a full address) —
        // that's the price of seekability, and it is tiny.
        assert!(store.raw_len() >= trace.payload_len());
        assert!(store.raw_len() < trace.payload_len() + 16 * store.chunk_count() as usize);
        assert!(
            store.stored_len() < store.raw_len(),
            "stored {} raw {}",
            store.stored_len(),
            store.raw_len(),
        );
    }

    #[test]
    fn replayer_matches_flat_replay_and_live_walk() {
        let (program, trace) = small_trace();
        let store = TraceStore::from_trace_with(&trace, "replay test", 256);
        let mut live = Executor::new(&program, 7);
        let mut flat = trace.replayer();
        let mut chunked = store.replayer();
        for _ in 0..trace.header().block_count {
            let expected = live.next_block();
            assert_eq!(flat.next_block(), Some(expected));
            assert_eq!(chunked.next_block(), Some(expected));
        }
        assert_eq!(chunked.next_block(), None, "exhaustion yields None");
        assert_eq!(chunked.next_block(), None, "exhaustion is sticky");
        assert_eq!(chunked.replayed(), trace.header().block_count);
    }

    #[test]
    fn seek_skips_chunks_without_decoding_them() {
        let (_, trace) = small_trace();
        let chunk_records = 256u32;
        let store = TraceStore::from_trace_with(&trace, "seek test", chunk_records);
        assert!(store.chunk_count() >= 8, "test needs many chunks");
        // Aim deep into the store: many chunks should be passed over
        // purely via the index.
        let target = trace.header().instr_count * 3 / 4;
        let mut replay = store.replayer();
        let skipped = replay.skip_instrs(target);
        assert!(skipped >= target);
        assert_eq!(
            replay.chunks_decoded(),
            1,
            "only the landing chunk is decoded"
        );
        assert!(
            replay.records_decoded() <= chunk_records as u64,
            "decoded {} records for a seek into a {}-record chunk",
            replay.records_decoded(),
            chunk_records,
        );
        // And the post-seek stream position is exactly where a
        // decode-everything replayer lands.
        let mut reference = trace.replayer();
        let ref_skipped = reference.skip_instrs(target);
        assert_eq!(skipped, ref_skipped);
        assert_eq!(replay.replayed(), reference.replayed());
        for _ in 0..64 {
            assert_eq!(replay.next_block(), reference.next_block());
        }
    }

    #[test]
    fn seek_past_the_end_reports_the_shortfall() {
        let (_, trace) = small_trace();
        let store = TraceStore::from_trace_with(&trace, "overrun test", 256);
        let mut replay = store.replayer();
        assert_eq!(replay.skip_instrs(u64::MAX), trace.header().instr_count);
        assert_eq!(replay.next_block(), None);
        assert_eq!(replay.chunks_decoded(), 0, "a pure overrun never decodes");
    }

    #[test]
    fn corrupt_and_truncated_stores_are_rejected() {
        let (_, trace) = small_trace();
        let store = TraceStore::from_trace_with(&trace, "corruption test", 512);
        let bytes = store.to_bytes();

        assert!(matches!(
            TraceStore::from_bytes(&[]),
            Err(TraceError::BadMagic)
        ));
        assert!(matches!(
            TraceStore::from_bytes(b"not a store"),
            Err(TraceError::BadMagic)
        ));
        assert!(matches!(
            TraceStore::from_bytes(&bytes[..bytes.len() / 2]),
            Err(TraceError::Truncated { .. })
        ));
        // A v1 flat trace is not a store: named version error both ways.
        assert!(matches!(
            TraceStore::from_bytes(&trace.to_bytes()),
            Err(TraceError::UnsupportedVersion(1))
        ));
        assert!(matches!(
            Trace::from_bytes(&bytes),
            Err(TraceError::UnsupportedVersion(2))
        ));
        // Any bit flip anywhere fails the whole-file checksum.
        for at in [8usize, 30, 70, bytes.len() - 1] {
            let mut flipped = bytes.clone();
            flipped[at] ^= 0x40;
            assert!(
                matches!(
                    TraceStore::from_bytes(&flipped),
                    Err(TraceError::ChecksumMismatch)
                        | Err(TraceError::Corrupt(_))
                        | Err(TraceError::Truncated { .. })
                ),
                "flip at {at} must be rejected",
            );
        }
    }

    #[test]
    fn resealed_undecodable_chunks_are_rejected_at_load() {
        let (_, trace) = small_trace();
        let store = TraceStore::from_trace_with(&trace, "reseal test", 512);
        let bytes = store.to_bytes();
        let entries: Vec<ChunkEntry> = (0..store.chunk_count())
            .map(|c| store.chunk_entry(c).expect("in range"))
            .collect();
        let index_at = bytes.len() - store.stored_len() - entries.len() * INDEX_ENTRY_LEN;

        // Garbage in the last chunk's bytes, checksum recomputed.
        let mut garbage = bytes.clone();
        let last = entries.last().expect("several chunks").stored_len as usize;
        let len = garbage.len();
        garbage[len - last..].fill(0xff);
        crate::tests::reseal(&mut garbage);
        assert!(matches!(
            TraceStore::from_bytes(&garbage),
            Err(TraceError::Corrupt(_))
        ));

        // Two chunks trade one instruction in the index: every sum
        // still matches the header, but neither chunk holds what its
        // entry claims.
        let mut traded = bytes.clone();
        for (chunk, delta) in [(0usize, 1i64), (1, -1)] {
            let at = index_at + chunk * INDEX_ENTRY_LEN + 12;
            let instrs = entries[chunk].instrs as i64 + delta;
            traded[at..at + 4].copy_from_slice(&(instrs as u32).to_le_bytes());
        }
        crate::tests::reseal(&mut traded);
        assert!(matches!(
            TraceStore::from_bytes(&traded),
            Err(TraceError::Corrupt(_))
        ));

        // A raw-stored chunk whose declared raw length disagrees with
        // its stored length.
        let raw = TraceStore::from_trace_with(&trace, "", 1);
        let mut bytes = raw.to_bytes();
        let index_at =
            bytes.len() - raw.stored_len() - raw.chunk_count() as usize * INDEX_ENTRY_LEN;
        assert!(!raw.chunk_entry(0).expect("chunk 0").compressed);
        bytes[index_at] = bytes[index_at].wrapping_add(1);
        crate::tests::reseal(&mut bytes);
        assert!(matches!(
            TraceStore::from_bytes(&bytes),
            Err(TraceError::Corrupt(_))
        ));
    }

    proptest! {
        // Records -> chunked store -> seek -> replay lands exactly
        // where direct decode-everything replay lands, for arbitrary
        // chunk sizes and seek targets.
        #[test]
        fn seek_equals_direct_replay(
            chunk_records in 1u32..600,
            target_num in 0u64..1000,
        ) {
            let program = workloads::streaming().scaled(0.05).build();
            let trace = Trace::record(&program, 11, 20_000);
            let store = TraceStore::from_trace_with(&trace, "prop", chunk_records);
            let target = trace.header().instr_count * target_num / 1000;

            let mut via_store = store.replayer();
            let mut direct = trace.replayer();
            let a = via_store.skip_instrs(target);
            let b = direct.skip_instrs(target);
            prop_assert_eq!(a, b);
            prop_assert_eq!(via_store.replayed(), direct.replayed());
            for _ in 0..32 {
                prop_assert_eq!(via_store.next_block(), direct.next_block());
            }
        }

        // The container round-trips for arbitrary chunk geometry.
        #[test]
        fn container_round_trips(chunk_records in 1u32..2000) {
            let program = workloads::apache().scaled(0.05).build();
            let trace = Trace::record(&program, 13, 10_000);
            let store = TraceStore::from_trace_with(&trace, "prop rt", chunk_records);
            let back = TraceStore::from_bytes(&store.to_bytes()).expect("round trip");
            prop_assert_eq!(&back, &store);
            prop_assert_eq!(back.to_trace().to_bytes(), trace.to_bytes());
        }
    }
}
