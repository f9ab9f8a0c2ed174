//! Wire protocol: length-prefixed JSON frames over TCP.
//!
//! A frame is the payload's byte length in ASCII decimal, a newline,
//! then exactly that many payload bytes:
//!
//! ```text
//! <len>\n<len bytes of JSON>
//! ```
//!
//! (The repo's canonical JSON renders multi-line, so newline-delimited
//! framing is not an option; a decimal length line keeps the protocol
//! readable in a packet dump and trivially implementable from any
//! language.)
//!
//! One connection carries one job:
//!
//! * client → server: `{"type": "submit", "job": <JobSpec>}`
//! * server → client: `{"type": "accepted", "job_id": N, "cells": N}`
//!   then one `{"type": "progress", "completed": N, "total": N,
//!   "workload": ..., "scheme": ..., "cached": bool}` per completed
//!   cell, then either `{"type": "report", "job_id": N}` **followed by
//!   one frame holding the raw SweepReport JSON**, or `{"type":
//!   "error", "message": ...}` at any point.
//!
//! The report travels in its own frame, as the exact bytes the service
//! persisted — clients get byte-identical reports whether cells were
//! computed or served from cache, with no re-encoding step in between
//! to blur that guarantee.

use std::io::{self, Read, Write};

use fe_sim::json::{self, Json};

use crate::service::{JobId, JobProgress, JobSpec};

/// Frames larger than this are refused — a submit or report frame is
/// at most a few MB; anything bigger is a corrupt or hostile length.
pub const MAX_FRAME: usize = 64 << 20;

/// Writes one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    w.write_all(format!("{}\n", payload.len()).as_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one length-prefixed frame. `Ok(None)` on clean EOF at a frame
/// boundary; errors on torn frames, non-decimal lengths, or lengths
/// past [`MAX_FRAME`].
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match r.read(&mut byte)? {
            0 if len_line.is_empty() => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside a frame length",
                ))
            }
            _ if byte[0] == b'\n' => break,
            _ => len_line.push(byte[0]),
        }
        if len_line.len() > 20 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "frame length line too long",
            ));
        }
    }
    let len: usize = std::str::from_utf8(&len_line)
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad frame length"))?;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Renders and writes one JSON message frame.
pub fn write_message(w: &mut impl Write, message: &Json) -> io::Result<()> {
    write_frame(w, message.render().as_bytes())
}

/// Reads and parses one JSON message frame (`Ok(None)` on clean EOF).
pub fn read_message(r: &mut impl Read) -> io::Result<Option<Json>> {
    let Some(payload) = read_frame(r)? else {
        return Ok(None);
    };
    let text = String::from_utf8(payload)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"))?;
    json::parse(&text)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad message: {e}")))
}

/// The submit message a client opens its connection with.
pub fn submit_message(spec: &JobSpec) -> Json {
    Json::Obj(vec![
        ("type".into(), Json::Str("submit".into())),
        ("job".into(), spec.to_json()),
    ])
}

/// Acknowledges an accepted job.
pub fn accepted_message(id: JobId, cells: usize) -> Json {
    Json::Obj(vec![
        ("type".into(), Json::Str("accepted".into())),
        ("job_id".into(), Json::U64(id)),
        ("cells".into(), Json::U64(cells as u64)),
    ])
}

/// One completed cell.
pub fn progress_message(p: &JobProgress) -> Json {
    Json::Obj(vec![
        ("type".into(), Json::Str("progress".into())),
        ("completed".into(), Json::U64(p.completed as u64)),
        ("total".into(), Json::U64(p.total as u64)),
        ("workload".into(), Json::Str(p.workload.clone())),
        ("scheme".into(), Json::Str(p.scheme.clone())),
        ("cached".into(), Json::Bool(p.cached)),
    ])
}

/// Announces the report frame that follows.
pub fn report_message(id: JobId) -> Json {
    Json::Obj(vec![
        ("type".into(), Json::Str("report".into())),
        ("job_id".into(), Json::U64(id)),
    ])
}

/// A terminal failure.
pub fn error_message(message: &str) -> Json {
    Json::Obj(vec![
        ("type".into(), Json::Str("error".into())),
        ("message".into(), Json::Str(message.into())),
    ])
}

/// What a [`submit_job`] client observed for one job.
#[derive(Debug)]
pub struct ClientOutcome {
    /// The id the daemon assigned.
    pub job_id: JobId,
    /// Progress ticks received, in order.
    pub progress: Vec<JobProgress>,
    /// The raw report bytes, exactly as the daemon persisted them.
    pub report: String,
}

impl ClientOutcome {
    /// Progress ticks served from the result cache.
    pub fn cached_cells(&self) -> usize {
        self.progress.iter().filter(|p| p.cached).count()
    }
}

/// Submits one job over TCP and blocks until its report arrives — the
/// reference client used by the bench smoke and the tests.
pub fn submit_job(addr: &str, spec: &JobSpec) -> io::Result<ClientOutcome> {
    let mut conn = std::net::TcpStream::connect(addr)?;
    write_message(&mut conn, &submit_message(spec))?;
    let fail = |what: String| io::Error::new(io::ErrorKind::InvalidData, what);
    let mut job_id = None;
    let mut progress = Vec::new();
    loop {
        let Some(msg) = read_message(&mut conn)? else {
            return Err(fail("connection closed before the report".into()));
        };
        match msg.req("type").and_then(|t| t.as_str().map(str::to_string)) {
            Ok(kind) => match kind.as_str() {
                "accepted" => {
                    job_id = Some(msg.req("job_id").and_then(|v| v.as_u64()).map_err(fail)?);
                }
                "progress" => progress.push(JobProgress {
                    completed: msg
                        .req("completed")
                        .and_then(|v| v.as_u64())
                        .map_err(fail)? as usize,
                    total: msg.req("total").and_then(|v| v.as_u64()).map_err(fail)? as usize,
                    workload: msg
                        .req("workload")
                        .and_then(|v| v.as_str().map(str::to_string))
                        .map_err(fail)?,
                    scheme: msg
                        .req("scheme")
                        .and_then(|v| v.as_str().map(str::to_string))
                        .map_err(fail)?,
                    cached: matches!(msg.get("cached"), Some(Json::Bool(true))),
                }),
                "report" => {
                    let Some(raw) = read_frame(&mut conn)? else {
                        return Err(fail("connection closed before the report frame".into()));
                    };
                    let report = String::from_utf8(raw)
                        .map_err(|_| fail("report frame is not UTF-8".into()))?;
                    return Ok(ClientOutcome {
                        job_id: job_id.ok_or_else(|| fail("report before accepted".into()))?,
                        progress,
                        report,
                    });
                }
                "error" => {
                    let message = msg
                        .get("message")
                        .and_then(|m| m.as_str().ok())
                        .unwrap_or("unspecified");
                    return Err(io::Error::other(format!("daemon refused: {message}")));
                }
                other => return Err(fail(format!("unexpected message type `{other}`"))),
            },
            Err(e) => return Err(fail(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, "multi\nline {\"x\": 1}".as_bytes()).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert_eq!(
            read_frame(&mut r).unwrap().unwrap(),
            "multi\nline {\"x\": 1}".as_bytes()
        );
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn torn_and_hostile_frames_are_refused() {
        let mut r: &[u8] = b"5\nab"; // promises 5 bytes, delivers 2
        assert!(read_frame(&mut r).is_err());
        let mut r: &[u8] = b"zz\nab";
        assert!(read_frame(&mut r).is_err());
        let mut r: &[u8] = b"99999999999999999999\n";
        assert!(read_frame(&mut r).is_err());
        let mut r: &[u8] = b"123"; // EOF inside the length line
        assert!(read_frame(&mut r).is_err());
    }
}
