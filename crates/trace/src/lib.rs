#![forbid(unsafe_code)]
#![deny(missing_docs)]
//! # fe-trace — recorded control-flow traces
//!
//! The paper's methodology is trace-driven (§5.1): workloads are
//! captured once as control-flow traces and replayed through the
//! timing model for every front-end configuration. This crate is that
//! layer for the reproduction: a compact binary format for
//! [`RetiredBlock`] streams plus record/replay machinery, so one
//! executor walk can feed every `(workload, scheme)` cell of a sweep.
//!
//! * [`Trace`] — an immutable recorded stream: a validated header and
//!   the encoded record payload. In-memory ([`Trace::from_bytes`] /
//!   [`Trace::to_bytes`]) and on-disk ([`Trace::read_from`] /
//!   [`Trace::write_to`]) backends share one byte format.
//! * [`TraceWriter`] — streaming encoder ([`TraceWriter::record`] one
//!   block at a time, [`TraceWriter::finish`] into a [`Trace`]).
//! * [`TraceReader`] — decoding iterator over a trace's records,
//!   yielding `Result` so truncated or corrupt payloads surface as
//!   clean [`TraceError`]s.
//! * [`TraceReplayer`] — the [`BlockSource`] adapter the simulator
//!   consumes; replaying a trace is byte-identical to live execution
//!   because the pipeline sees the same blocks in the same order.
//! * [`store`] — the v2 chunk-compressed, indexed on-disk format
//!   ([`TraceStore`]): same record stream, re-packaged so seeking
//!   decodes only the chunks it lands in.
//! * [`ingest`] — the conversion pipeline between the two: detect a
//!   v1 or v2 file, convert it to a [`TraceStore`], verify
//!   losslessness, and report what happened.
//!
//! ```
//! use fe_cfg::workloads;
//! use fe_model::BlockSource;
//! use fe_trace::Trace;
//!
//! let program = workloads::nutch().scaled(0.05).build();
//! let trace = Trace::record(&program, 42, 10_000);
//! assert!(trace.header().instr_count >= 10_000);
//! let mut replay = trace.replayer();
//! let mut live = fe_cfg::Executor::new(&program, 42);
//! for _ in 0..100 {
//!     assert_eq!(replay.next_block(), Some(live.next_block()));
//! }
//! ```
//!
//! ## Formats
//!
//! The byte-level specification of both on-disk formats lives in
//! `docs/TRACE_FORMAT.md`. In brief, version 1 (this module's
//! [`Trace`]) is a little-endian header followed by one flat record
//! payload:
//!
//! ```text
//! magic   b"FETR"        version u16 (1)        flags u16 (0)
//! seed    u64            block_count u64        instr_count u64
//! program_blocks u64     program_digest u64
//! payload_len u64        checksum u64 (FNV-1a)
//! name_len u16, name bytes (UTF-8)
//! <payload_len bytes of records>
//! ```
//!
//! The checksum covers the *entire* serialized trace (header fields,
//! name, and payload, with the checksum field itself read as zero), so
//! a bit flip anywhere — including in the length or count fields — is
//! rejected at [`Trace::from_bytes`], never decoded.
//!
//! Records are delta-encoded against the previous record's `next_pc`
//! with varint lengths — see [`codec`](self) module docs; a typical
//! record is 2-4 bytes (~0.5-1 byte per instruction).
//!
//! Version 2 ([`TraceStore`]) shares the fixed header layout (version
//! field = 2) and checksum rule, but splits the payload into
//! independently decodable, LZ-compressed chunks behind a per-chunk
//! index — see the [`store`] module docs. Each reader rejects the
//! other version with a named [`TraceError::UnsupportedVersion`].

use std::io::Write;
use std::path::Path;

use fe_cfg::{Executor, Program};
use fe_model::{Addr, BlockSource, RetiredBlock};

mod codec;
mod compress;
pub mod ingest;
pub mod store;

use codec::{encode_record, fnv1a, fnv1a_update, RecordDecoder, FNV_OFFSET};

pub use ingest::{ingest_bytes, ingest_file, IngestOptions, IngestReport, SourceFormat};
pub use store::{ChunkEntry, StoreReplayer, TraceStore, DEFAULT_CHUNK_RECORDS, STORE_VERSION};

/// Magic bytes opening every trace file (v1 flat traces and v2 stores
/// alike; the version field distinguishes them).
pub const MAGIC: [u8; 4] = *b"FETR";
/// Format version of the flat [`Trace`] container ([`STORE_VERSION`]
/// is the chunked store).
pub const VERSION: u16 = 1;

/// Why a trace could not be read or decoded.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// The file does not open with [`MAGIC`] — not a trace.
    BadMagic,
    /// The file's format version is newer than this reader.
    UnsupportedVersion(u16),
    /// The file is shorter than its header claims.
    Truncated {
        /// Bytes the header promised.
        expected: u64,
        /// Bytes actually present.
        actual: u64,
    },
    /// The trace checksum does not match its contents (bit flip in
    /// the header, name, or payload).
    ChecksumMismatch,
    /// A structural decoding error (bad varint, invalid field, ...).
    Corrupt(String),
    /// Post-conversion verification failed: the converted store does
    /// not reproduce its source stream (see [`ingest`]). A correct
    /// converter never produces this; it guards the ingest pipeline
    /// against its own bugs before a bad file is ever written.
    VerifyFailed(String),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::BadMagic => write!(f, "not a trace file (bad magic)"),
            TraceError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported trace format version {v} (flat traces are \
                     v{VERSION}, chunked stores v{})",
                    store::STORE_VERSION,
                )
            }
            TraceError::Truncated { expected, actual } => {
                write!(
                    f,
                    "truncated trace: header promises {expected} bytes, found {actual}"
                )
            }
            TraceError::ChecksumMismatch => write!(f, "trace checksum mismatch"),
            TraceError::Corrupt(what) => write!(f, "corrupt trace: {what}"),
            TraceError::VerifyFailed(what) => {
                write!(f, "ingest verification failed: {what}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// Identity of the program a trace was recorded against, carried in
/// the header so replay can refuse a mismatched program (a trace is
/// only meaningful against the exact code layout it walked).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ProgramFingerprint {
    /// Block count of the program.
    pub blocks: u64,
    /// FNV-1a digest over the entry point and a sample of block
    /// descriptors.
    pub digest: u64,
}

impl ProgramFingerprint {
    /// Fingerprints `program`.
    pub fn of(program: &Program) -> Self {
        let count = program.block_count();
        let mut bytes = Vec::with_capacity(64 * 26 + 16);
        bytes.extend_from_slice(&program.entry().get().to_le_bytes());
        bytes.extend_from_slice(&(count as u64).to_le_bytes());
        // Sample a bounded number of blocks across the whole layout.
        let stride = (count / 1024).max(1);
        for id in (0..count).step_by(stride) {
            let b = program.block(id as u32);
            bytes.extend_from_slice(&b.start.get().to_le_bytes());
            bytes.extend_from_slice(&b.target.get().to_le_bytes());
            bytes.push(b.instr_count);
            bytes.push(b.kind as u8);
        }
        ProgramFingerprint {
            blocks: count as u64,
            digest: fnv1a(&bytes),
        }
    }
}

/// Metadata of a recorded trace.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceHeader {
    /// Workload name.
    pub name: String,
    /// Executor seed the stream was recorded with.
    pub seed: u64,
    /// Number of records in the payload.
    pub block_count: u64,
    /// Total instructions across all records.
    pub instr_count: u64,
    /// Identity of the program that produced the stream.
    pub fingerprint: ProgramFingerprint,
}

/// Fixed-size portion of the serialized header (magic, version, flags,
/// seven u64 fields, name length), after which the name bytes and
/// payload follow. Shared verbatim by the v2 store container (see
/// [`store`]), which is why each version can reject the other cleanly.
pub(crate) const HEADER_FIXED_LEN: usize = 4 + 2 + 2 + 8 * 7 + 2;

/// Byte range of the checksum field within the serialized header.
pub(crate) const CHECKSUM_RANGE: std::ops::Range<usize> = 56..64;

/// An immutable recorded control-flow trace.
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    header: TraceHeader,
    payload: Vec<u8>,
}

impl Trace {
    /// Records `program`'s retired stream from a fresh walk under
    /// `seed`, stopping at the first block boundary at or past
    /// `min_instrs` instructions.
    pub fn record(program: &Program, seed: u64, min_instrs: u64) -> Trace {
        let mut exec = Executor::new(program, seed);
        let mut writer = TraceWriter::new(program.name(), seed, ProgramFingerprint::of(program));
        while writer.instr_count() < min_instrs {
            writer.record(&exec.next_block());
        }
        writer.finish()
    }

    /// The trace's metadata.
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// Size of the encoded record payload in bytes.
    pub fn payload_len(&self) -> usize {
        self.payload.len()
    }

    /// A decoding iterator over the records.
    pub fn reader(&self) -> TraceReader<'_> {
        TraceReader {
            decoder: RecordDecoder::new(&self.payload),
            remaining: self.header.block_count,
        }
    }

    /// A [`BlockSource`] replaying this trace into a simulator.
    pub fn replayer(&self) -> TraceReplayer<'_> {
        TraceReplayer {
            decoder: RecordDecoder::new(&self.payload),
            remaining: self.header.block_count,
            name: &self.header.name,
            replayed: 0,
        }
    }

    /// `true` when this trace was recorded against `program` (by
    /// fingerprint) — the precondition for faithful replay.
    pub fn matches(&self, program: &Program) -> bool {
        self.header.fingerprint == ProgramFingerprint::of(program)
    }

    /// The same trace under a new name (ingest renaming). Payload and
    /// fingerprint are untouched — identity is content-derived.
    pub(crate) fn with_name(mut self, name: &str) -> Trace {
        self.header.name = name.to_string();
        self
    }

    /// The serialized header and name, sealed with the checksum of the
    /// whole trace: the bytes that precede the payload.
    fn sealed_header(&self) -> Vec<u8> {
        let h = &self.header;
        let name = h.name.as_bytes();
        assert!(name.len() <= u16::MAX as usize, "trace name too long");
        let mut out = Vec::with_capacity(HEADER_FIXED_LEN + name.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes()); // flags (reserved)
        out.extend_from_slice(&h.seed.to_le_bytes());
        out.extend_from_slice(&h.block_count.to_le_bytes());
        out.extend_from_slice(&h.instr_count.to_le_bytes());
        out.extend_from_slice(&h.fingerprint.blocks.to_le_bytes());
        out.extend_from_slice(&h.fingerprint.digest.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&0u64.to_le_bytes()); // checksum placeholder
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name);
        // Checksum the whole trace with the checksum field read as
        // zero (which the placeholder already is), then patch it in.
        let checksum = fnv1a_update(fnv1a(&out), &self.payload);
        out[CHECKSUM_RANGE].copy_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Serializes the trace (header + payload).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = self.sealed_header();
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parses a serialized trace, validating magic, version, length
    /// and checksum — truncated or bit-flipped files are rejected here
    /// with a descriptive [`TraceError`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Trace, TraceError> {
        let (header, payload) = Trace::validate(bytes)?;
        Ok(Trace {
            header,
            payload: bytes[payload].to_vec(),
        })
    }

    /// The checks behind [`Self::from_bytes`] and [`Self::read_from`]:
    /// returns the header and where the payload sits in `bytes`.
    fn validate(bytes: &[u8]) -> Result<(TraceHeader, std::ops::Range<usize>), TraceError> {
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
        if version != VERSION {
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
        // Checked: a corrupted length field must surface as a clean
        // error, not an overflow panic or a wrapped-around slice bound.
        let total = (HEADER_FIXED_LEN as u64 + name_len as u64)
            .checked_add(payload_len)
            .ok_or_else(|| TraceError::Corrupt("header length fields overflow".into()))?;
        if (bytes.len() as u64) < total {
            return Err(TraceError::Truncated {
                expected: total,
                actual: bytes.len() as u64,
            });
        }
        // The checksum covers the whole trace — header and name
        // included — with the checksum field itself read as zero, so
        // corrupted seeds/counts/lengths are caught, not just payload
        // damage. Hash the regions around the field to avoid copying.
        let stored = fnv1a_update(
            fnv1a_update(
                fnv1a_update(FNV_OFFSET, &bytes[..CHECKSUM_RANGE.start]),
                &[0u8; 8],
            ),
            &bytes[CHECKSUM_RANGE.end..total as usize],
        );
        if stored != checksum {
            return Err(TraceError::ChecksumMismatch);
        }
        let name = std::str::from_utf8(&bytes[HEADER_FIXED_LEN..HEADER_FIXED_LEN + name_len])
            .map_err(|_| TraceError::Corrupt("trace name is not UTF-8".into()))?
            .to_string();
        let header = TraceHeader {
            name,
            seed,
            block_count,
            instr_count,
            fingerprint,
        };
        Ok((header, HEADER_FIXED_LEN + name_len..total as usize))
    }

    /// Writes the serialized trace to `path`: the same bytes as
    /// [`Self::to_bytes`], with the payload written straight from
    /// memory rather than through a serialized copy.
    pub fn write_to(&self, path: impl AsRef<Path>) -> Result<(), TraceError> {
        let mut file = std::fs::File::create(path)?;
        file.write_all(&self.sealed_header())?;
        file.write_all(&self.payload)?;
        Ok(())
    }

    /// Reads and validates a trace file, with the checks of
    /// [`Self::from_bytes`]. The file buffer becomes the payload, so a
    /// load holds one copy of the trace, not two.
    pub fn read_from(path: impl AsRef<Path>) -> Result<Trace, TraceError> {
        let mut bytes = std::fs::read(path)?;
        let (header, payload) = Trace::validate(&bytes)?;
        bytes.truncate(payload.end);
        bytes.drain(..payload.start);
        Ok(Trace {
            header,
            payload: bytes,
        })
    }
}

/// Streaming trace encoder: feed retired blocks in order, then
/// [`finish`](Self::finish) into an immutable [`Trace`].
pub struct TraceWriter {
    name: String,
    seed: u64,
    fingerprint: ProgramFingerprint,
    payload: Vec<u8>,
    prev_next: Addr,
    block_count: u64,
    instr_count: u64,
}

impl TraceWriter {
    /// Starts a trace for the named stream.
    pub fn new(name: impl Into<String>, seed: u64, fingerprint: ProgramFingerprint) -> Self {
        TraceWriter {
            name: name.into(),
            seed,
            fingerprint,
            payload: Vec::with_capacity(64 * 1024),
            prev_next: Addr::NULL,
            block_count: 0,
            instr_count: 0,
        }
    }

    /// Appends one retired block.
    pub fn record(&mut self, rb: &RetiredBlock) {
        encode_record(&mut self.payload, rb, &mut self.prev_next);
        self.block_count += 1;
        self.instr_count += rb.instr_count();
    }

    /// Blocks recorded so far.
    pub fn block_count(&self) -> u64 {
        self.block_count
    }

    /// Instructions recorded so far.
    pub fn instr_count(&self) -> u64 {
        self.instr_count
    }

    /// Seals the recording.
    pub fn finish(self) -> Trace {
        Trace {
            header: TraceHeader {
                name: self.name,
                seed: self.seed,
                block_count: self.block_count,
                instr_count: self.instr_count,
                fingerprint: self.fingerprint,
            },
            payload: self.payload,
        }
    }
}

/// Decoding iterator over a trace's records. Structural damage the
/// checksum could not attribute (and payloads whose record count
/// disagrees with the header) surface as `Err` items.
pub struct TraceReader<'t> {
    decoder: RecordDecoder<'t>,
    remaining: u64,
}

impl Iterator for TraceReader<'_> {
    type Item = Result<RetiredBlock, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        match self.decoder.decode_record() {
            Ok(rb) => Some(Ok(rb)),
            Err(e) => {
                self.remaining = 0;
                Some(Err(TraceError::from(e)))
            }
        }
    }
}

/// Replays a recorded trace as the simulator's [`BlockSource`].
///
/// The replayer hands back exactly the recorded stream; because the
/// timing pipeline is deterministic given its block stream, replay is
/// bit-identical to the live run that would have produced it.
pub struct TraceReplayer<'t> {
    decoder: RecordDecoder<'t>,
    remaining: u64,
    name: &'t str,
    replayed: u64,
}

impl TraceReplayer<'_> {
    /// Blocks replayed so far.
    pub fn replayed(&self) -> u64 {
        self.replayed
    }
}

impl BlockSource for TraceReplayer<'_> {
    /// Returns `None` when the trace runs out of records (the recording
    /// was shorter than the simulated run plus the pipeline's
    /// lookahead); the simulator degrades the truncation into a
    /// reported stall and ends the run early instead of panicking.
    ///
    /// # Panics
    ///
    /// Panics when a record fails to decode: the payload passed the
    /// whole-trace checksum at load, so a structural decode failure is
    /// a programming error — silently truncating there would replay a
    /// different stream.
    #[inline]
    fn next_block(&mut self) -> Option<RetiredBlock> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        match self.decoder.decode_record() {
            Ok(rb) => {
                self.replayed += 1;
                Some(rb)
            }
            // audit-allow(no-unchecked-panic): corrupt trace mid-replay is unrecoverable — returning None would silently replay a truncated stream and corrupt every downstream stat
            Err(e) => panic!(
                "trace `{}` failed to decode at block {}: {}",
                self.name,
                self.replayed + 1,
                TraceError::from(e),
            ),
        }
    }

    /// Seekable fast-forward: decode-skips whole records (address chain
    /// only, no block materialization) until at least `min_instrs`
    /// instructions have passed — the sampled-simulation fast path.
    ///
    /// # Panics
    ///
    /// Panics on a structural decode failure, like [`Self::next_block`].
    #[inline]
    fn skip_instrs(&mut self, min_instrs: u64) -> u64 {
        let mut skipped = 0;
        while skipped < min_instrs && self.remaining > 0 {
            self.remaining -= 1;
            match self.decoder.skip_record() {
                Ok(instrs) => {
                    self.replayed += 1;
                    skipped += instrs;
                }
                // audit-allow(no-unchecked-panic): corrupt trace mid-skip is unrecoverable — see next_block; the `# Panics` doc above is the contract
                Err(e) => panic!(
                    "trace `{}` failed to decode at block {}: {}",
                    self.name,
                    self.replayed + 1,
                    TraceError::from(e),
                ),
            }
        }
        skipped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fe_cfg::workloads;
    use proptest::prelude::*;

    /// Recomputes the whole-file checksum of a serialized trace or
    /// store after a test edits its bytes, so the edit gets past the
    /// checksum to the structural checks behind it.
    pub(crate) fn reseal(bytes: &mut [u8]) {
        bytes[CHECKSUM_RANGE].fill(0);
        let checksum = fnv1a(bytes);
        bytes[CHECKSUM_RANGE].copy_from_slice(&checksum.to_le_bytes());
    }

    fn small_trace() -> (Program, Trace) {
        let program = workloads::nutch().scaled(0.05).build();
        let trace = Trace::record(&program, 7, 5_000);
        (program, trace)
    }

    #[test]
    fn record_matches_live_walk() {
        let (program, trace) = small_trace();
        let mut live = Executor::new(&program, 7);
        let mut n = 0u64;
        for rb in trace.reader() {
            assert_eq!(rb.unwrap(), live.next_block());
            n += 1;
        }
        assert_eq!(n, trace.header().block_count);
        assert!(trace.header().instr_count >= 5_000);
        assert!(trace.matches(&program));
        assert!(!trace.matches(&workloads::zeus().scaled(0.05).build()));
    }

    #[test]
    fn bytes_round_trip() {
        let (_, trace) = small_trace();
        let bytes = trace.to_bytes();
        let back = Trace::from_bytes(&bytes).expect("round trip");
        assert_eq!(back, trace);
        // Compact: the format should beat one byte per instruction on
        // contiguous executor streams.
        assert!(
            (trace.payload_len() as u64) < trace.header().instr_count,
            "payload {} bytes for {} instructions",
            trace.payload_len(),
            trace.header().instr_count,
        );
    }

    #[test]
    fn file_round_trip() {
        let (_, trace) = small_trace();
        let path = std::env::temp_dir().join("fe_trace_file_round_trip.fetr");
        trace.write_to(&path).expect("write");
        let back = Trace::read_from(&path).expect("read");
        let _ = std::fs::remove_file(&path);
        assert_eq!(back, trace);
    }

    #[test]
    fn write_to_writes_exactly_to_bytes() {
        let (_, trace) = small_trace();
        let empty = TraceWriter::new("é", 1, trace.header().fingerprint).finish();
        let path =
            std::env::temp_dir().join(format!("fe_trace_write_to_{}.fetr", std::process::id()));
        for trace in [trace, empty] {
            trace.write_to(&path).expect("write");
            let written = std::fs::read(&path).expect("read back");
            assert_eq!(written, trace.to_bytes());
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_and_corrupt_files_are_rejected() {
        let (_, trace) = small_trace();
        let bytes = trace.to_bytes();

        assert!(matches!(Trace::from_bytes(&[]), Err(TraceError::BadMagic)));
        assert!(matches!(
            Trace::from_bytes(b"not a trace at all"),
            Err(TraceError::BadMagic)
        ));
        assert!(matches!(
            Trace::from_bytes(&bytes[..bytes.len() / 2]),
            Err(TraceError::Truncated { .. })
        ));
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0xff;
        assert!(matches!(
            Trace::from_bytes(&flipped),
            Err(TraceError::ChecksumMismatch)
        ));
        let mut versioned = bytes.clone();
        versioned[4] = 0xfe;
        assert!(matches!(
            Trace::from_bytes(&versioned),
            Err(TraceError::UnsupportedVersion(_))
        ));
        // Header bit flips (seed, counts, fingerprint) are caught by
        // the whole-trace checksum, not just payload damage.
        let mut header_flip = bytes.clone();
        header_flip[24] ^= 0x80; // low byte of instr_count
        assert!(matches!(
            Trace::from_bytes(&header_flip),
            Err(TraceError::ChecksumMismatch)
        ));
        // A corrupted payload_len field (offset 48..56) must produce a
        // clean error even when the sum would overflow u64, never an
        // arithmetic or slice panic.
        let mut huge_len = bytes.clone();
        for b in &mut huge_len[48..56] {
            *b = 0xff;
        }
        assert!(matches!(
            Trace::from_bytes(&huge_len),
            Err(TraceError::Corrupt(_))
        ));
        let mut long_len = bytes;
        long_len[53] = 0x7f; // plausible but larger than the file
        assert!(matches!(
            Trace::from_bytes(&long_len),
            Err(TraceError::Truncated { .. })
        ));
    }

    #[test]
    fn replayer_returns_none_on_exhaustion() {
        let (_, trace) = small_trace();
        let mut replay = trace.replayer();
        for _ in 0..trace.header().block_count {
            assert!(replay.next_block().is_some());
        }
        assert_eq!(
            replay.next_block(),
            None,
            "overrun yields None, not a panic"
        );
        assert_eq!(replay.next_block(), None, "exhaustion is sticky");
        assert_eq!(replay.replayed(), trace.header().block_count);
    }

    #[test]
    fn skip_instrs_lands_on_the_same_stream_position_as_decoding() {
        let (_, trace) = small_trace();
        // Skip some instructions via the fast path, then check the next
        // decoded block matches a reference replayer that decoded every
        // record on the way.
        for target in [0u64, 1, 37, 500, 2_000] {
            let mut fast = trace.replayer();
            let skipped = fast.skip_instrs(target);
            assert!(skipped >= target, "skip must reach its target");

            let mut slow = trace.replayer();
            let mut walked = 0;
            while walked < target {
                walked += slow.next_block().expect("reference walk").instr_count();
            }
            assert_eq!(skipped, walked, "skip target {target}");
            assert_eq!(fast.replayed(), slow.replayed(), "skip target {target}");
            assert_eq!(fast.next_block(), slow.next_block(), "skip target {target}");
        }
        // Skipping past the end reports the shortfall via the count.
        let mut fast = trace.replayer();
        let all = fast.skip_instrs(u64::MAX);
        assert_eq!(all, trace.header().instr_count);
        assert_eq!(fast.next_block(), None);
    }

    /// A small v1 recording and its v2 store, serialized.
    fn valid_files() -> &'static [Vec<u8>; 2] {
        static FILES: std::sync::OnceLock<[Vec<u8>; 2]> = std::sync::OnceLock::new();
        FILES.get_or_init(|| {
            let program = workloads::zeus().scaled(0.05).build();
            let trace = Trace::record(&program, 9, 3_000);
            let store = TraceStore::from_trace_with(&trace, "decoder property", 64);
            [trace.to_bytes(), store.to_bytes()]
        })
    }

    /// Loads `bytes` every way the crate can, replaying whatever loads
    /// in full: any of these panicking fails the property below. A
    /// file holding `bytes` must load through [`Trace::read_from`]
    /// exactly as the bytes do through [`Trace::from_bytes`]: the same
    /// trace, or an error that reads the same.
    fn load_and_replay(bytes: &[u8]) {
        let path = std::env::temp_dir().join(format!(
            "fe_trace_decoder_property_{}.fetr",
            std::process::id()
        ));
        std::fs::write(&path, bytes).expect("write the probe file");
        let outcome = |loaded: Result<Trace, TraceError>| loaded.map_err(|e| e.to_string());
        assert_eq!(
            outcome(Trace::read_from(&path)),
            outcome(Trace::from_bytes(bytes))
        );
        let _ = std::fs::remove_file(&path);
        if let Ok(trace) = Trace::from_bytes(bytes) {
            trace.reader().for_each(drop);
        }
        if let Ok(store) = TraceStore::from_bytes(bytes) {
            store.to_trace();
            let mut replay = store.replayer();
            while replay.next_block().is_some() {}
            let mut seek = store.replayer();
            seek.skip_instrs(store.header().instr_count / 2);
            while seek.next_block().is_some() {}
        }
        let _ = ingest_bytes(bytes, &IngestOptions::default());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        // Neither decoder panics on arbitrary bytes, nor on a valid
        // file with one byte replaced under a recomputed checksum (the
        // damage a checksum cannot catch): each load is an error or a
        // value that replays in full.
        #[test]
        fn decoders_survive_arbitrary_and_resealed_bytes(
            noise in prop::collection::vec(0u8..=255, 0..200),
            at in 0usize..1 << 20,
            byte in 0u8..=255,
        ) {
            load_and_replay(&noise);
            for file in valid_files() {
                let mut damaged = file.clone();
                let at = at % damaged.len();
                damaged[at] = byte;
                reseal(&mut damaged);
                load_and_replay(&damaged);
            }
        }
    }
}
