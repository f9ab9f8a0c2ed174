//! The trace conversion pipeline: a v1 recording or v2 store in, a
//! verified v2 store out.
//!
//! [`ingest_bytes`] (and the file wrapper [`ingest_file`]) does the
//! whole journey that `trace convert` (in `fe-bench`) exposes on the
//! command line:
//!
//! 1. **Detect** the source format from its header ([`SourceFormat`]):
//!    a v1 `fe-trace` recording, or a v2 store (re-chunked). Anything
//!    else is rejected with [`TraceError::BadMagic`].
//! 2. **Decode** it into a flat [`Trace`], applying that format's
//!    full validation.
//! 3. **Convert** to a chunk-compressed, indexed [`TraceStore`]
//!    carrying the caller's provenance string.
//! 4. **Verify** losslessness before anything is written: the store is
//!    serialized and re-parsed (exercising the whole-file checksum),
//!    replayed record-for-record against the source stream — including
//!    a mid-stream seek — and reconstructed back into a v1 trace that
//!    must equal the source exactly. Any mismatch is a named
//!    [`TraceError::VerifyFailed`], and nothing reaches disk.
//! 5. **Report**: the returned [`IngestReport`] carries the counts,
//!    sizes and fingerprint a caller needs to print or emit as JSON.
//!
//! ```
//! use fe_cfg::workloads;
//! use fe_trace::{ingest_bytes, IngestOptions, Trace};
//!
//! let program = workloads::nutch().scaled(0.05).build();
//! let trace = Trace::record(&program, 42, 10_000);
//! let opts = IngestOptions {
//!     provenance: "doctest recording".to_string(),
//!     ..IngestOptions::default()
//! };
//! let (store, report) = ingest_bytes(&trace.to_bytes(), &opts).unwrap();
//! assert_eq!(report.records, trace.header().block_count);
//! assert!(report.verified);
//! assert_eq!(store.provenance(), "doctest recording");
//! assert!(store.matches(&program));
//! ```

use std::path::Path;

use fe_model::BlockSource;

use crate::store::{TraceStore, DEFAULT_CHUNK_RECORDS, STORE_VERSION};
use crate::{ProgramFingerprint, Trace, TraceError, MAGIC};

/// The source encodings the ingest pipeline recognizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SourceFormat {
    /// A v1 flat `fe-trace` recording (`b"FETR"`, version 1).
    FetrV1,
    /// A v2 chunked store (`b"FETR"`, version 2) — re-ingesting one
    /// re-chunks it under the new options.
    FetsV2,
}

impl SourceFormat {
    /// Stable lower-case label for reports and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            SourceFormat::FetrV1 => "fetr-v1",
            SourceFormat::FetsV2 => "fets-v2",
        }
    }
}

/// Detects the source format from the header. Bytes that do not open
/// with [`MAGIC`] are [`TraceError::BadMagic`]. Every `FETR` file that
/// is not a v2 store is handed to the v1 parser, which names what is
/// wrong with a truncated header or an unknown version.
pub fn detect_format(bytes: &[u8]) -> Result<SourceFormat, TraceError> {
    if !bytes.starts_with(&MAGIC) {
        return Err(TraceError::BadMagic);
    }
    Ok(match bytes.get(4..6) {
        Some(&[lo, hi]) if u16::from_le_bytes([lo, hi]) == STORE_VERSION => SourceFormat::FetsV2,
        _ => SourceFormat::FetrV1,
    })
}

/// Knobs of one ingest run.
#[derive(Clone, Debug)]
pub struct IngestOptions {
    /// Workload name recorded in the store header. `None` keeps the
    /// source's embedded name.
    pub name: Option<String>,
    /// Free-form origin string stored with the trace (capture tool,
    /// machine, date — whatever identifies the data's source).
    pub provenance: String,
    /// Records per chunk of the output store.
    pub chunk_records: u32,
}

impl Default for IngestOptions {
    fn default() -> Self {
        IngestOptions {
            name: None,
            provenance: String::new(),
            chunk_records: DEFAULT_CHUNK_RECORDS,
        }
    }
}

/// What one ingest run did — the facts `trace convert` prints and
/// emits as JSON.
#[derive(Clone, Debug)]
pub struct IngestReport {
    /// Workload name recorded in the store header.
    pub name: String,
    /// Detected source encoding.
    pub format: SourceFormat,
    /// Source size in bytes.
    pub source_bytes: u64,
    /// Serialized store size in bytes.
    pub store_bytes: u64,
    /// Records (basic blocks) in the store.
    pub records: u64,
    /// Instructions across all records.
    pub instrs: u64,
    /// Chunks in the store.
    pub chunks: u64,
    /// Encoded payload bytes before chunk compression.
    pub payload_raw_bytes: u64,
    /// Stored payload bytes after chunk compression.
    pub payload_stored_bytes: u64,
    /// Identity of the program the stream was recorded against.
    pub fingerprint: ProgramFingerprint,
    /// Whether post-conversion verification ran and passed (always
    /// `true` on success — a failure is an error, not a flag).
    pub verified: bool,
}

/// Ingests an in-memory source: detect, decode, convert, verify —
/// returning the verified store and its report. See the module docs
/// for the pipeline.
pub fn ingest_bytes(
    bytes: &[u8],
    opts: &IngestOptions,
) -> Result<(TraceStore, IngestReport), TraceError> {
    let format = detect_format(bytes)?;
    let trace = match format {
        SourceFormat::FetrV1 => Trace::from_bytes(bytes)?,
        SourceFormat::FetsV2 => TraceStore::from_bytes(bytes)?.to_trace(),
    };
    let trace = match &opts.name {
        Some(name) => trace.with_name(name),
        None => trace,
    };
    let store = TraceStore::try_from_trace(&trace, &opts.provenance, opts.chunk_records)?;
    let store_bytes = verify(&store, &trace)?;
    let h = store.header();
    let report = IngestReport {
        name: h.name.clone(),
        format,
        source_bytes: bytes.len() as u64,
        store_bytes,
        records: h.block_count,
        instrs: h.instr_count,
        chunks: store.chunk_count() as u64,
        payload_raw_bytes: store.raw_len() as u64,
        payload_stored_bytes: store.stored_len() as u64,
        fingerprint: h.fingerprint,
        verified: true,
    };
    Ok((store, report))
}

/// [`ingest_bytes`] over a file.
pub fn ingest_file(
    path: impl AsRef<Path>,
    opts: &IngestOptions,
) -> Result<(TraceStore, IngestReport), TraceError> {
    ingest_bytes(&std::fs::read(path)?, opts)
}

/// Proves the converted store reproduces `reference` exactly, before
/// anything is written:
///
/// * container round-trip — serialize, re-parse (whole-file checksum
///   and index validation run here);
/// * replay round-trip — the re-parsed store's replayer must yield the
///   source stream record for record, and a mid-stream seek must land
///   exactly where the source's replayer lands;
/// * lossless reconstruction — [`TraceStore::to_trace`] must serialize
///   byte-identically to the source.
///
/// Returns the serialized store size. Failures are named
/// [`TraceError::VerifyFailed`]s; they indicate a converter bug, not
/// bad input.
fn verify(store: &TraceStore, reference: &Trace) -> Result<u64, TraceError> {
    let bytes = store.to_bytes();
    let reparsed = TraceStore::from_bytes(&bytes).map_err(|e| {
        TraceError::VerifyFailed(format!("serialized store fails to re-parse: {e}"))
    })?;
    if reparsed != *store {
        return Err(TraceError::VerifyFailed(
            "serialized store re-parses to a different value".into(),
        ));
    }
    let mut replay = reparsed.replayer();
    for (i, rb) in reference.reader().enumerate() {
        let rb = rb?;
        if replay.next_block() != Some(rb) {
            return Err(TraceError::VerifyFailed(format!(
                "replay diverges from the source at record {i}"
            )));
        }
    }
    if replay.next_block().is_some() {
        return Err(TraceError::VerifyFailed(
            "store replays more records than the source holds".into(),
        ));
    }
    // Seek fidelity: fast-forward half the stream on both sides and
    // compare landing positions and the next record.
    let mut via_store = reparsed.replayer();
    let mut via_trace = reference.replayer();
    let target = reference.header().instr_count / 2;
    if via_store.skip_instrs(target) != via_trace.skip_instrs(target)
        || via_store.next_block() != via_trace.next_block()
    {
        return Err(TraceError::VerifyFailed(
            "seek lands on a different stream position than flat replay".into(),
        ));
    }
    if reparsed.to_trace().to_bytes() != reference.to_bytes() {
        return Err(TraceError::VerifyFailed(
            "reconstructed v1 trace is not byte-identical to the source".into(),
        ));
    }
    Ok(bytes.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fe_cfg::workloads;

    #[test]
    fn detects_every_format() {
        let program = workloads::nutch().scaled(0.05).build();
        let trace = Trace::record(&program, 3, 2_000);
        assert_eq!(
            detect_format(&trace.to_bytes()).unwrap(),
            SourceFormat::FetrV1
        );
        let store = TraceStore::from_trace(&trace, "");
        assert_eq!(
            detect_format(&store.to_bytes()).unwrap(),
            SourceFormat::FetsV2
        );
        // A bare magic goes to the v1 parser, which names the truncation.
        assert_eq!(detect_format(b"FETR").unwrap(), SourceFormat::FetrV1);
        for garbage in [&b""[..], b"FET", b"0x1000 0x2000 L 1\n"] {
            assert!(matches!(detect_format(garbage), Err(TraceError::BadMagic)));
        }
    }

    #[test]
    fn ingests_a_recorded_v1_trace() {
        let program = workloads::zeus().scaled(0.05).build();
        let trace = Trace::record(&program, 21, 30_000);
        let opts = IngestOptions {
            provenance: "recorded by unit test".into(),
            chunk_records: 512,
            ..IngestOptions::default()
        };
        let (store, report) = ingest_bytes(&trace.to_bytes(), &opts).expect("ingests");
        assert_eq!(report.format, SourceFormat::FetrV1);
        assert_eq!(report.name, "zeus", "the embedded name is kept");
        assert_eq!(report.records, trace.header().block_count);
        assert_eq!(report.instrs, trace.header().instr_count);
        assert_eq!(report.fingerprint, trace.header().fingerprint);
        assert!(report.verified);
        assert!(report.chunks > 1);
        // The store losslessly reproduces the source.
        assert_eq!(store.to_trace().to_bytes(), trace.to_bytes());
        assert!(store.matches(&program));
    }

    #[test]
    fn reingesting_a_store_rechunks_it() {
        let program = workloads::apache().scaled(0.05).build();
        let trace = Trace::record(&program, 5, 20_000);
        let coarse = TraceStore::from_trace_with(&trace, "first pass", 4096);
        let opts = IngestOptions {
            provenance: "re-chunked".into(),
            chunk_records: 128,
            ..IngestOptions::default()
        };
        let (fine, report) = ingest_bytes(&coarse.to_bytes(), &opts).expect("re-ingests");
        assert_eq!(report.format, SourceFormat::FetsV2);
        assert!(fine.chunk_count() > coarse.chunk_count());
        assert_eq!(fine.provenance(), "re-chunked");
        assert_eq!(fine.to_trace().to_bytes(), trace.to_bytes());
    }

    #[test]
    fn name_override_applies_everywhere() {
        let program = workloads::nutch().scaled(0.05).build();
        let bytes = Trace::record(&program, 3, 2_000).to_bytes();
        let opts = IngestOptions {
            name: Some("renamed".into()),
            ..IngestOptions::default()
        };
        let (store, report) = ingest_bytes(&bytes, &opts).expect("ingests");
        assert_eq!(report.name, "renamed");
        assert_eq!(store.header().name, "renamed");
        // Renaming never changes the stream's identity.
        let (_, plain) = ingest_bytes(&bytes, &IngestOptions::default()).expect("ingests");
        assert_eq!(plain.name, "nutch");
        assert_eq!(report.fingerprint, plain.fingerprint);
        assert!(store.matches(&program));
    }

    #[test]
    fn rejects_damaged_sources_with_named_errors() {
        let program = workloads::nutch().scaled(0.05).build();
        let trace = Trace::record(&program, 3, 2_000);
        let opts = IngestOptions::default();

        // Truncated v1 recording.
        let bytes = trace.to_bytes();
        assert!(matches!(
            ingest_bytes(&bytes[..bytes.len() - 3], &opts),
            Err(TraceError::Truncated { .. })
        ));
        // Bit-flipped v1 recording.
        let mut flipped = bytes.clone();
        flipped[40] ^= 1;
        assert!(matches!(
            ingest_bytes(&flipped, &opts),
            Err(TraceError::ChecksumMismatch)
        ));
        // FETR magic with a future version: named version error.
        let mut versioned = bytes.clone();
        versioned[4] = 0x7f;
        assert!(matches!(
            ingest_bytes(&versioned, &opts),
            Err(TraceError::UnsupportedVersion(0x7f))
        ));
        // A v1 payload damaged under a recomputed checksum: an error,
        // not a panic in the conversion.
        let mut resealed = bytes.clone();
        let last = resealed.len() - 1;
        resealed[last] = 0xff;
        crate::tests::reseal(&mut resealed);
        assert!(matches!(
            ingest_bytes(&resealed, &opts),
            Err(TraceError::Corrupt(_))
        ));
        // Damaged v2 store.
        let store_bytes = TraceStore::from_trace(&trace, "p").to_bytes();
        let mut store_flipped = store_bytes.clone();
        let last = store_flipped.len() - 1;
        store_flipped[last] ^= 0xff;
        assert!(matches!(
            ingest_bytes(&store_flipped, &opts),
            Err(TraceError::ChecksumMismatch)
        ));
        // Anything that is not a trace file.
        for garbage in [&b"not a trace at all"[..], &[0x80, 0xfe, 0xff, 0x00, 0x01]] {
            assert!(matches!(
                ingest_bytes(garbage, &opts),
                Err(TraceError::BadMagic)
            ));
        }
    }
}
