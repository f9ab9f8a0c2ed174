//! Chunk compressor for the v2 indexed trace store.
//!
//! A minimal, dependency-free LZSS: byte-aligned tokens grouped under
//! control bytes (one flag bit per token, LSB first), literals one byte
//! each, matches three bytes (`u16` little-endian distance `1..=65535`,
//! `u8` length minus [`MIN_MATCH`]). Matching is greedy over a
//! single-probe hash of 4-byte prefixes — the LZ4-fast shape — which is
//! plenty for delta-encoded trace payloads (loopy control flow repeats
//! the same few byte patterns for thousands of records) and keeps both
//! directions allocation-light and fully deterministic: the same input
//! bytes always produce the same compressed bytes on every host, which
//! the store's whole-file checksum and the byte-identity tests rely on.
//!
//! The store keeps a chunk compressed only when that actually saved
//! bytes (see [`crate::store`]); incompressible chunks are stored raw,
//! so this module never needs an escape hatch of its own.

/// Shortest match worth a 3-byte token (a shorter one would not beat
/// the literals it replaces).
pub(crate) const MIN_MATCH: usize = 4;
/// Longest encodable match: [`MIN_MATCH`] plus a `u8` extension.
const MAX_MATCH: usize = MIN_MATCH + u8::MAX as usize;
/// Most raw bytes one stored byte can stand for: a 3-byte match token
/// expands to at most [`MAX_MATCH`] bytes. The store rejects a chunk
/// declaring more before allocating for it.
pub(crate) const MAX_EXPANSION: usize = MAX_MATCH.div_ceil(3);
/// Farthest back a match may reach (`u16` distance, zero reserved).
const MAX_DISTANCE: usize = u16::MAX as usize;
/// log2 of the hash-table slot count.
const HASH_BITS: u32 = 13;
/// Empty-slot sentinel (chunk offsets are far below `u32::MAX`).
const EMPTY: u32 = u32::MAX;

/// Multiply-shift hash of the 4 bytes at `pos`.
#[inline]
fn hash4(bytes: &[u8], pos: usize) -> usize {
    let v = u32::from_le_bytes(
        bytes[pos..pos + 4]
            .try_into()
            .expect("caller bounds-checked 4 bytes"),
    );
    (v.wrapping_mul(0x9e37_79b1) >> (32 - HASH_BITS)) as usize
}

/// Compresses `input` into the LZSS token stream described in the
/// module docs. Deterministic; never fails. The output can exceed the
/// input on incompressible data (worst case 9/8 + control overhead) —
/// the store compares lengths and keeps the raw bytes in that case.
pub(crate) fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    // Plain vector, not a map: indexed by hash, probed once. (Also
    // keeps the audit's no-siphash rule trivially satisfied.)
    let mut table = vec![EMPTY; 1 << HASH_BITS];
    let mut ctrl_at = 0usize;
    let mut ctrl_bit = 8u32;
    let mut pos = 0usize;
    while pos < input.len() {
        // Probe for a usable match at `pos`.
        let mut match_len = 0usize;
        let mut match_dist = 0usize;
        if pos + MIN_MATCH <= input.len() {
            let slot = hash4(input, pos);
            let cand = table[slot];
            table[slot] = pos as u32;
            if cand != EMPTY {
                let cand = cand as usize;
                let dist = pos - cand;
                if dist <= MAX_DISTANCE {
                    let limit = (input.len() - pos).min(MAX_MATCH);
                    let mut len = 0;
                    while len < limit && input[cand + len] == input[pos + len] {
                        len += 1;
                    }
                    if len >= MIN_MATCH {
                        match_len = len;
                        match_dist = dist;
                    }
                }
            }
        }
        if ctrl_bit == 8 {
            out.push(0);
            ctrl_at = out.len() - 1;
            ctrl_bit = 0;
        }
        if match_len >= MIN_MATCH {
            out[ctrl_at] |= 1 << ctrl_bit;
            out.extend_from_slice(&(match_dist as u16).to_le_bytes());
            out.push((match_len - MIN_MATCH) as u8);
            pos += match_len;
        } else {
            out.push(input[pos]);
            pos += 1;
        }
        ctrl_bit += 1;
    }
    out
}

/// Decompresses a chunk produced by [`compress`], validating every
/// token against the declared `raw_len`: a match reaching before the
/// output start, output overrunning `raw_len`, a token stream ending
/// early, or trailing bytes all fail with a static description (the
/// store wraps it into a [`TraceError::Corrupt`](crate::TraceError)).
pub(crate) fn decompress(input: &[u8], raw_len: usize) -> Result<Vec<u8>, &'static str> {
    let mut out = Vec::with_capacity(raw_len);
    let mut pos = 0usize;
    while out.len() < raw_len {
        let Some(&ctrl) = input.get(pos) else {
            return Err("compressed chunk ends before its declared raw length");
        };
        pos += 1;
        let mut bit = 0u32;
        while bit < 8 && out.len() < raw_len {
            if ctrl & (1 << bit) != 0 {
                let Some(token) = input.get(pos..pos + 3) else {
                    return Err("compressed chunk ends mid-match-token");
                };
                pos += 3;
                let dist = u16::from_le_bytes([token[0], token[1]]) as usize;
                let len = token[2] as usize + MIN_MATCH;
                if dist == 0 || dist > out.len() {
                    return Err("match distance reaches before the chunk start");
                }
                if out.len() + len > raw_len {
                    return Err("match overruns the declared raw length");
                }
                // Byte-wise copy: matches may overlap their own output
                // (dist < len replicates a short period).
                for _ in 0..len {
                    out.push(out[out.len() - dist]);
                }
            } else {
                let Some(&byte) = input.get(pos) else {
                    return Err("compressed chunk ends mid-literal");
                };
                pos += 1;
                out.push(byte);
            }
            bit += 1;
        }
    }
    if pos != input.len() {
        return Err("trailing bytes after the declared raw length");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, RngCore, SeedableRng};

    fn round_trip(input: &[u8]) {
        let packed = compress(input);
        let back = decompress(&packed, input.len()).expect("round trip");
        assert_eq!(back, input);
    }

    #[test]
    fn round_trips_edge_shapes() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"abc");
        round_trip(&[0u8; 10_000]);
        round_trip(b"abcdabcdabcdabcdabcd");
        // A period shorter than MIN_MATCH forces overlapping copies.
        round_trip(&b"ab".repeat(500));
        // Exactly MAX_MATCH-long repeats exercise the length cap.
        let mut long = vec![7u8; MAX_MATCH * 3 + 1];
        long.push(9);
        round_trip(&long);
    }

    #[test]
    fn compresses_repetitive_payloads() {
        let input = b"the same record pattern ".repeat(200);
        let packed = compress(&input);
        assert!(
            packed.len() * 4 < input.len(),
            "{} bytes packed from {}",
            packed.len(),
            input.len()
        );
    }

    #[test]
    fn round_trips_random_and_structured_noise() {
        let mut rng = SmallRng::seed_from_u64(0x5407);
        for case in 0..50 {
            let len: usize = rng.gen_range(0..4096);
            let data: Vec<u8> = if case % 2 == 0 {
                // Incompressible noise.
                (0..len).map(|_| rng.next_u64() as u8).collect()
            } else {
                // Loopy structure like a delta-encoded trace.
                (0..len).map(|i| ((i * 7) % 23) as u8).collect()
            };
            round_trip(&data);
        }
    }

    #[test]
    fn rejects_malformed_streams() {
        // Declared length never reached.
        assert!(decompress(&[], 1).is_err());
        // Match before output starts: control byte says match, dist 1
        // with empty output.
        assert!(decompress(&[0b0000_0001, 1, 0, 0], 8).is_err());
        // Truncated match token.
        assert!(decompress(&[0b0000_0010, b'a', 1, 0], 8).is_err());
        // Trailing garbage after raw_len satisfied.
        let mut packed = compress(b"abcd");
        packed.push(0);
        assert!(decompress(&packed, 4).is_err());
        // Output would overrun raw_len.
        let packed = compress(&b"abcd".repeat(10));
        assert!(decompress(&packed, 5).is_err());
    }

    #[test]
    fn deterministic_output() {
        let input: Vec<u8> = (0..2048u32).map(|i| (i % 251) as u8).collect();
        assert_eq!(compress(&input), compress(&input));
    }
}
