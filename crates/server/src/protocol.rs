//! The wire protocol: length-prefixed binary frames over a byte stream.
//!
//! Every message is one *frame*: a `u32` big-endian payload length followed
//! by that many payload bytes. The first payload byte is the opcode. All
//! integers are big-endian; strings are UTF-8 with a length prefix.
//!
//! ```text
//! frame      := len:u32 payload[len]                     (len ≤ MAX_FRAME)
//!
//! QUERY      := 0x01 request_id:u64 client_id:u64 mode:u8 k:u32
//!               deadline_ms:u32 query_len:u32 query[query_len]
//!
//! WRITE      := 0x02 request_id:u64 client_id:u64 count:u32 op[count]
//! op         := kind:u8 term term term (score:f64 when kind = 0)
//! term       := len:u16 bytes[len]
//!
//! ANSWERS    := 0x81 request_id:u64 count:u32 answer[count]
//! answer     := score:f64 arity:u16 binding[arity]
//! binding    := var:u32 term_len:u16 term[term_len]
//!
//! ERROR      := 0x82 request_id:u64 code:u8 retry_after_ms:u32
//!               msg_len:u16 msg[msg_len]
//!
//! WRITE_OK   := 0x83 request_id:u64 epoch:u64
//! ```
//!
//! A `WRITE` op's `kind` is 0 for an assert (upsert of the 〈s,p,o〉 triple at
//! the given score) and 1 for a retract. The terms travel as raw strings —
//! the server interns them against the live dictionary on commit. A
//! successful write answers with `WRITE_OK` carrying the epoch the batch
//! published; failures reuse `ERROR` (a read-only server answers
//! [`ErrorCode::Protocol`] since retrying cannot succeed).
//!
//! `mode` is [`ExecMode::index`](specqp_service::ExecMode::index) as a byte
//! (0 = specqp, 1 = trinit). `deadline_ms == 0` means no
//! deadline. Scores travel as IEEE-754 bit patterns (`f64::to_bits`), so
//! answers survive the round-trip bit-exactly.
//!
//! This module is pure bytes ⇄ structs — no sockets — so every encoder has
//! a decoder and the codec is unit-testable without a listener.

use specqp_service::{WriteBatch, WriteOp};
use std::fmt;
use std::io::{self, Read, Write};

/// Hard ceiling on frame payload size (64 KiB). Oversized inbound frames
/// are drained and rejected with [`WireError::TooLarge`] so the stream
/// stays framed; oversized outbound responses become [`ErrorCode::Internal`].
pub const MAX_FRAME: usize = 64 * 1024;

/// Client → server query submission.
pub const OP_QUERY: u8 = 0x01;
/// Client → server write-batch submission.
pub const OP_WRITE: u8 = 0x02;
/// Server → client successful answer set.
pub const OP_ANSWERS: u8 = 0x81;
/// Server → client typed error.
pub const OP_ERROR: u8 = 0x82;
/// Server → client write acknowledgement carrying the published epoch.
pub const OP_WRITE_OK: u8 = 0x83;

/// Typed error codes carried by `ERROR` frames — the wire projection of
/// [`specqp_service::ServiceError`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// Load shed (full execution queue): back off for
    /// `retry_after_ms` and retry the identical request.
    RetryAfter = 1,
    /// The deadline expired while the request was queued; it never ran.
    DeadlineExceeded = 2,
    /// The server is draining; open a new connection elsewhere.
    ShuttingDown = 3,
    /// The request was malformed (bad frame, unknown opcode/mode, zero `k`,
    /// unparseable query). Retrying the identical bytes cannot succeed.
    Protocol = 4,
    /// The query panicked or the response could not be encoded.
    Internal = 5,
}

impl ErrorCode {
    /// Decodes the wire byte.
    pub fn from_u8(b: u8) -> Option<ErrorCode> {
        match b {
            1 => Some(ErrorCode::RetryAfter),
            2 => Some(ErrorCode::DeadlineExceeded),
            3 => Some(ErrorCode::ShuttingDown),
            4 => Some(ErrorCode::Protocol),
            5 => Some(ErrorCode::Internal),
            _ => None,
        }
    }
}

/// Why a frame could not be read or decoded.
#[derive(Debug)]
pub enum WireError {
    /// The peer closed the connection at a frame boundary (clean EOF).
    Eof,
    /// Socket-level failure (including EOF mid-frame).
    Io(io::Error),
    /// The declared payload length exceeded the frame ceiling; the payload
    /// was drained so the next frame can still be read.
    TooLarge(usize),
    /// The payload bytes did not decode as a valid message.
    Malformed(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Eof => write!(f, "connection closed"),
            WireError::Io(e) => write!(f, "io error: {e}"),
            WireError::TooLarge(n) => write!(f, "frame of {n} bytes exceeds {MAX_FRAME}"),
            WireError::Malformed(msg) => write!(f, "malformed frame: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

/// A decoded `QUERY` frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireRequest {
    /// Client-chosen correlation id echoed on the response.
    pub request_id: u64,
    /// A client label; opaque, the server does not read it.
    pub client_id: u64,
    /// Executor mode byte ([`specqp_service::ExecMode::index`]).
    pub mode: u8,
    /// Top-k budget (must be ≥ 1; enforced by the server, not the codec).
    pub k: u32,
    /// Shed-by budget in milliseconds from arrival; 0 = no deadline.
    pub deadline_ms: u32,
    /// The SPARQL-subset query text.
    pub query: String,
}

/// A decoded `WRITE` frame: one batch of operations committed atomically
/// under a single epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct WireWrite {
    /// Client-chosen correlation id echoed on the response.
    pub request_id: u64,
    /// A client label; opaque, the server does not read it.
    pub client_id: u64,
    /// The operations, applied in order.
    pub batch: WriteBatch,
}

/// One answer inside an `ANSWERS` frame: the score plus resolved
/// `(variable, term name)` bindings.
#[derive(Clone, Debug, PartialEq)]
pub struct WireAnswer {
    /// Accumulated answer score (bit-exact across the wire).
    pub score: f64,
    /// `(variable id, term name)` pairs in binding order.
    pub bindings: Vec<(u32, String)>,
}

/// A decoded server → client frame.
#[derive(Clone, Debug, PartialEq)]
pub enum WireResponse {
    /// The query executed; top-k answers in rank order.
    Answers {
        /// Echo of [`WireRequest::request_id`].
        request_id: u64,
        /// The ranked answer set.
        answers: Vec<WireAnswer>,
    },
    /// A write batch committed; `epoch` is the version it published.
    WriteOk {
        /// Echo of [`WireWrite::request_id`].
        request_id: u64,
        /// The epoch the batch published (`Epoch::value` on the server
        /// side).
        epoch: u64,
    },
    /// The request was rejected, shed or failed.
    Error {
        /// Echo of the request id (0 when the frame was too broken to
        /// recover one).
        request_id: u64,
        /// The typed cause.
        code: ErrorCode,
        /// Back-off hint in milliseconds (meaningful for
        /// [`ErrorCode::RetryAfter`], 0 otherwise).
        retry_after_ms: u32,
        /// Human-readable detail.
        message: String,
    },
}

impl WireResponse {
    /// The correlation id this response answers.
    pub fn request_id(&self) -> u64 {
        match self {
            WireResponse::Answers { request_id, .. } => *request_id,
            WireResponse::WriteOk { request_id, .. } => *request_id,
            WireResponse::Error { request_id, .. } => *request_id,
        }
    }
}

/// Writes one frame (length prefix + payload). Fails with
/// [`WireError::TooLarge`] instead of writing a frame the peer would
/// reject.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), WireError> {
    if payload.len() > MAX_FRAME {
        return Err(WireError::TooLarge(payload.len()));
    }
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame payload. Returns [`WireError::Eof`] on a clean close at
/// a frame boundary; an oversized frame is drained (keeping the stream
/// framed) and reported as [`WireError::TooLarge`].
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, WireError> {
    let mut len_buf = [0u8; 4];
    // Distinguish clean EOF (no bytes of the next frame) from truncation.
    match r.read(&mut len_buf[..1]) {
        Ok(0) => return Err(WireError::Eof),
        Ok(_) => {}
        Err(e) => return Err(WireError::Io(e)),
    }
    r.read_exact(&mut len_buf[1..])?;
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        // Drain the oversized payload so the next frame parses.
        io::copy(&mut r.take(len as u64), &mut io::sink())?;
        return Err(WireError::TooLarge(len));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// Encodes a `QUERY` payload.
pub fn encode_request(req: &WireRequest) -> Vec<u8> {
    let q = req.query.as_bytes();
    let mut out = Vec::with_capacity(30 + q.len());
    out.push(OP_QUERY);
    out.extend_from_slice(&req.request_id.to_be_bytes());
    out.extend_from_slice(&req.client_id.to_be_bytes());
    out.push(req.mode);
    out.extend_from_slice(&req.k.to_be_bytes());
    out.extend_from_slice(&req.deadline_ms.to_be_bytes());
    out.extend_from_slice(&(q.len() as u32).to_be_bytes());
    out.extend_from_slice(q);
    out
}

/// Appends one length-prefixed term (truncated to `u16` length).
fn push_term(out: &mut Vec<u8>, term: &str) {
    let t = &term.as_bytes()[..term.len().min(u16::MAX as usize)];
    out.extend_from_slice(&(t.len() as u16).to_be_bytes());
    out.extend_from_slice(t);
}

/// Encodes a `WRITE` payload.
pub fn encode_write(write: &WireWrite) -> Vec<u8> {
    let ops = write.batch.ops();
    let mut out = Vec::with_capacity(21 + ops.len() * 32);
    out.push(OP_WRITE);
    out.extend_from_slice(&write.request_id.to_be_bytes());
    out.extend_from_slice(&write.client_id.to_be_bytes());
    out.extend_from_slice(&(ops.len() as u32).to_be_bytes());
    for op in ops {
        match op {
            WriteOp::Assert { s, p, o, score } => {
                out.push(0);
                push_term(&mut out, s);
                push_term(&mut out, p);
                push_term(&mut out, o);
                out.extend_from_slice(&score.to_bits().to_be_bytes());
            }
            WriteOp::Retract { s, p, o } => {
                out.push(1);
                push_term(&mut out, s);
                push_term(&mut out, p);
                push_term(&mut out, o);
            }
        }
    }
    out
}

/// Decodes a `WRITE` payload (opcode included).
pub fn decode_write(payload: &[u8]) -> Result<WireWrite, WireError> {
    let mut c = Cursor::new(payload);
    let op = c.u8()?;
    if op != OP_WRITE {
        return Err(WireError::Malformed(format!("unknown opcode 0x{op:02x}")));
    }
    let request_id = c.u64()?;
    let client_id = c.u64()?;
    let count = c.u32()? as usize;
    // An op is ≥ 7 bytes (kind + three empty terms); reject counts the
    // payload cannot hold.
    if count > payload.len() / 7 {
        return Err(WireError::Malformed(format!("op count {count} too large")));
    }
    let mut batch = WriteBatch::new();
    for _ in 0..count {
        let kind = c.u8()?;
        let term = |c: &mut Cursor<'_>| -> Result<String, WireError> {
            let len = c.u16()? as usize;
            c.string(len)
        };
        let s = term(&mut c)?;
        let p = term(&mut c)?;
        let o = term(&mut c)?;
        batch.push(match kind {
            0 => WriteOp::Assert {
                s,
                p,
                o,
                score: f64::from_bits(c.u64()?),
            },
            1 => WriteOp::Retract { s, p, o },
            other => {
                return Err(WireError::Malformed(format!(
                    "unknown write-op kind {other}"
                )))
            }
        });
    }
    c.finish()?;
    Ok(WireWrite {
        request_id,
        client_id,
        batch,
    })
}

/// Encodes a `WRITE_OK` payload.
pub fn encode_write_ok(request_id: u64, epoch: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(17);
    out.push(OP_WRITE_OK);
    out.extend_from_slice(&request_id.to_be_bytes());
    out.extend_from_slice(&epoch.to_be_bytes());
    out
}

/// Encodes an `ANSWERS` payload.
pub fn encode_answers(request_id: u64, answers: &[WireAnswer]) -> Vec<u8> {
    let mut out = Vec::with_capacity(13 + answers.len() * 32);
    out.push(OP_ANSWERS);
    out.extend_from_slice(&request_id.to_be_bytes());
    out.extend_from_slice(&(answers.len() as u32).to_be_bytes());
    for a in answers {
        out.extend_from_slice(&a.score.to_bits().to_be_bytes());
        out.extend_from_slice(&(a.bindings.len() as u16).to_be_bytes());
        for (var, term) in &a.bindings {
            out.extend_from_slice(&var.to_be_bytes());
            let t = term.as_bytes();
            out.extend_from_slice(&(t.len() as u16).to_be_bytes());
            out.extend_from_slice(t);
        }
    }
    out
}

/// Bytes of an `ERROR` payload before its message.
const ERROR_HEADER: usize = 1 + 8 + 1 + 4 + 2;

/// Encodes an `ERROR` payload. The message is cut, on a character
/// boundary, to the longest prefix that keeps the payload within
/// [`MAX_FRAME`]: error text can echo client input (a parser message quotes
/// the offending token), and a frame the writer refuses would close the
/// connection instead of reporting the error.
pub fn encode_error(
    request_id: u64,
    code: ErrorCode,
    retry_after_ms: u32,
    message: &str,
) -> Vec<u8> {
    let mut end = message.len().min(MAX_FRAME - ERROR_HEADER);
    while !message.is_char_boundary(end) {
        end -= 1;
    }
    let msg = &message.as_bytes()[..end];
    let mut out = Vec::with_capacity(ERROR_HEADER + msg.len());
    out.push(OP_ERROR);
    out.extend_from_slice(&request_id.to_be_bytes());
    out.push(code as u8);
    out.extend_from_slice(&retry_after_ms.to_be_bytes());
    out.extend_from_slice(&(msg.len() as u16).to_be_bytes());
    out.extend_from_slice(msg);
    out
}

/// Bounds-checked big-endian reader over a payload slice.
struct Cursor<'a> {
    buf: &'a [u8],
    off: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, off: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .off
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| {
                WireError::Malformed(format!(
                    "truncated: wanted {n} bytes at offset {}, payload is {}",
                    self.off,
                    self.buf.len()
                ))
            })?;
        let s = &self.buf[self.off..end];
        self.off = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn string(&mut self, len: usize) -> Result<String, WireError> {
        String::from_utf8(self.take(len)?.to_vec())
            .map_err(|_| WireError::Malformed("string is not UTF-8".into()))
    }

    fn finish(self) -> Result<(), WireError> {
        if self.off == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Malformed(format!(
                "{} trailing bytes after message",
                self.buf.len() - self.off
            )))
        }
    }
}

/// Decodes a `QUERY` payload (opcode included).
pub fn decode_request(payload: &[u8]) -> Result<WireRequest, WireError> {
    let mut c = Cursor::new(payload);
    let op = c.u8()?;
    if op != OP_QUERY {
        return Err(WireError::Malformed(format!("unknown opcode 0x{op:02x}")));
    }
    let request_id = c.u64()?;
    let client_id = c.u64()?;
    let mode = c.u8()?;
    let k = c.u32()?;
    let deadline_ms = c.u32()?;
    let qlen = c.u32()? as usize;
    let query = c.string(qlen)?;
    c.finish()?;
    Ok(WireRequest {
        request_id,
        client_id,
        mode,
        k,
        deadline_ms,
        query,
    })
}

/// Decodes an `ANSWERS` or `ERROR` payload (opcode included).
pub fn decode_response(payload: &[u8]) -> Result<WireResponse, WireError> {
    let mut c = Cursor::new(payload);
    let op = c.u8()?;
    match op {
        OP_ANSWERS => {
            let request_id = c.u64()?;
            let count = c.u32()? as usize;
            // An answer is ≥ 10 bytes; reject counts the payload can't hold.
            if count > payload.len() / 10 {
                return Err(WireError::Malformed(format!(
                    "answer count {count} too large"
                )));
            }
            let mut answers = Vec::with_capacity(count);
            for _ in 0..count {
                let score = f64::from_bits(c.u64()?);
                let arity = c.u16()? as usize;
                let mut bindings = Vec::with_capacity(arity);
                for _ in 0..arity {
                    let var = c.u32()?;
                    let tlen = c.u16()? as usize;
                    bindings.push((var, c.string(tlen)?));
                }
                answers.push(WireAnswer { score, bindings });
            }
            c.finish()?;
            Ok(WireResponse::Answers {
                request_id,
                answers,
            })
        }
        OP_WRITE_OK => {
            let request_id = c.u64()?;
            let epoch = c.u64()?;
            c.finish()?;
            Ok(WireResponse::WriteOk { request_id, epoch })
        }
        OP_ERROR => {
            let request_id = c.u64()?;
            let code_byte = c.u8()?;
            let code = ErrorCode::from_u8(code_byte)
                .ok_or_else(|| WireError::Malformed(format!("unknown error code {code_byte}")))?;
            let retry_after_ms = c.u32()?;
            let mlen = c.u16()? as usize;
            let message = c.string(mlen)?;
            c.finish()?;
            Ok(WireResponse::Error {
                request_id,
                code,
                retry_after_ms,
                message,
            })
        }
        other => Err(WireError::Malformed(format!(
            "unknown opcode 0x{other:02x}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req() -> WireRequest {
        WireRequest {
            request_id: 0x0102_0304_0506_0708,
            client_id: 42,
            mode: 0,
            k: 10,
            deadline_ms: 250,
            query: "SELECT ?s WHERE { ?s <type> <singer> }".into(),
        }
    }

    #[test]
    fn request_roundtrip() {
        let r = req();
        let payload = encode_request(&r);
        assert_eq!(payload[0], OP_QUERY);
        assert_eq!(decode_request(&payload).unwrap(), r);
    }

    #[test]
    fn answers_roundtrip_bit_exact_scores() {
        let answers = vec![
            WireAnswer {
                score: 100.0,
                bindings: vec![(0, "shakira".into()), (1, "singer".into())],
            },
            WireAnswer {
                // A score with no short decimal form: must survive bit-exact.
                score: 0.1 + 0.2,
                bindings: vec![(0, "adele".into())],
            },
            WireAnswer {
                score: f64::MIN_POSITIVE,
                bindings: vec![],
            },
        ];
        let payload = encode_answers(7, &answers);
        match decode_response(&payload).unwrap() {
            WireResponse::Answers {
                request_id,
                answers: got,
            } => {
                assert_eq!(request_id, 7);
                assert_eq!(got.len(), 3);
                for (a, b) in answers.iter().zip(&got) {
                    assert_eq!(a.score.to_bits(), b.score.to_bits(), "bit-exact");
                    assert_eq!(a.bindings, b.bindings);
                }
            }
            other => panic!("expected answers, got {other:?}"),
        }
    }

    #[test]
    fn write_roundtrip_bit_exact_scores() {
        let mut batch = WriteBatch::new();
        batch
            .assert("shakira", "rdf:type", "singer", 0.1 + 0.2)
            .retract("adele", "rdf:type", "singer")
            .assert("", "", "", f64::MIN_POSITIVE);
        let w = WireWrite {
            request_id: 11,
            client_id: 3,
            batch,
        };
        let payload = encode_write(&w);
        assert_eq!(payload[0], OP_WRITE);
        let got = decode_write(&payload).unwrap();
        assert_eq!(got, w);
        match (&got.batch.ops()[0], &w.batch.ops()[0]) {
            (WriteOp::Assert { score: a, .. }, WriteOp::Assert { score: b, .. }) => {
                assert_eq!(a.to_bits(), b.to_bits(), "bit-exact");
            }
            _ => unreachable!(),
        }
        // An empty batch round-trips too (the server treats it as a no-op).
        let empty = WireWrite {
            request_id: 1,
            client_id: 0,
            batch: WriteBatch::new(),
        };
        assert_eq!(decode_write(&encode_write(&empty)).unwrap(), empty);
    }

    #[test]
    fn write_ok_roundtrip() {
        let payload = encode_write_ok(11, 7);
        assert_eq!(payload[0], OP_WRITE_OK);
        assert_eq!(
            decode_response(&payload).unwrap(),
            WireResponse::WriteOk {
                request_id: 11,
                epoch: 7
            }
        );
    }

    #[test]
    fn malformed_write_payloads_are_typed_errors() {
        let mut batch = WriteBatch::new();
        batch.retract("a", "b", "c");
        let w = WireWrite {
            request_id: 1,
            client_id: 0,
            batch,
        };
        // Wrong opcode.
        let mut payload = encode_write(&w);
        payload[0] = OP_QUERY;
        assert!(matches!(
            decode_write(&payload),
            Err(WireError::Malformed(_))
        ));
        // Unknown op kind.
        let mut payload = encode_write(&w);
        payload[21] = 9;
        assert!(matches!(
            decode_write(&payload),
            Err(WireError::Malformed(_))
        ));
        // Truncated mid-op.
        let mut payload = encode_write(&w);
        payload.truncate(24);
        assert!(matches!(
            decode_write(&payload),
            Err(WireError::Malformed(_))
        ));
        // Absurd op count.
        let mut payload = encode_write(&w);
        payload[17..21].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            decode_write(&payload),
            Err(WireError::Malformed(_))
        ));
        // Trailing garbage.
        let mut payload = encode_write(&w);
        payload.push(0);
        assert!(matches!(
            decode_write(&payload),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn error_roundtrip() {
        let payload = encode_error(9, ErrorCode::RetryAfter, 125, "queue full");
        match decode_response(&payload).unwrap() {
            WireResponse::Error {
                request_id,
                code,
                retry_after_ms,
                message,
            } => {
                assert_eq!(request_id, 9);
                assert_eq!(code, ErrorCode::RetryAfter);
                assert_eq!(retry_after_ms, 125);
                assert_eq!(message, "queue full");
            }
            other => panic!("expected error, got {other:?}"),
        }
    }

    #[test]
    fn oversized_error_message_is_cut_to_a_sendable_frame() {
        // 80 000 bytes of two-byte characters; the leading "x" puts the
        // frame-size cut in the middle of one.
        for lead in ["", "x"] {
            let message = format!("{lead}{}", "é".repeat(40_000));
            let mut wire = Vec::new();
            write_frame(
                &mut wire,
                &encode_error(4, ErrorCode::Protocol, 0, &message),
            )
            .unwrap();
            let payload = read_frame(&mut &wire[..]).unwrap();
            match decode_response(&payload).unwrap() {
                WireResponse::Error {
                    request_id: 4,
                    message: got,
                    ..
                } => {
                    assert!(message.starts_with(&got));
                    assert!(got.len() > MAX_FRAME - ERROR_HEADER - 2, "{}", got.len());
                }
                other => panic!("expected error, got {other:?}"),
            }
        }
    }

    #[test]
    fn malformed_payloads_are_typed_errors() {
        // Unknown opcode.
        assert!(matches!(
            decode_request(&[0x7f]),
            Err(WireError::Malformed(_))
        ));
        // Truncated request.
        let mut payload = encode_request(&req());
        payload.truncate(12);
        assert!(matches!(
            decode_request(&payload),
            Err(WireError::Malformed(_))
        ));
        // Trailing garbage.
        let mut payload = encode_request(&req());
        payload.push(0xff);
        assert!(matches!(
            decode_request(&payload),
            Err(WireError::Malformed(_))
        ));
        // Query length pointing past the payload.
        let mut payload = encode_request(&req());
        let qlen_off = 1 + 8 + 8 + 1 + 4 + 4;
        payload[qlen_off..qlen_off + 4].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            decode_request(&payload),
            Err(WireError::Malformed(_))
        ));
        // Non-UTF-8 query bytes.
        let mut bad = WireRequest {
            query: String::new(),
            ..req()
        };
        bad.query.clear();
        let mut payload = encode_request(&bad);
        let qlen_off = 1 + 8 + 8 + 1 + 4 + 4;
        payload[qlen_off..qlen_off + 4].copy_from_slice(&1u32.to_be_bytes());
        payload.push(0xff);
        assert!(matches!(
            decode_request(&payload),
            Err(WireError::Malformed(_))
        ));
        // Absurd answer count.
        let mut payload = encode_answers(1, &[]);
        let count_off = 1 + 8;
        payload[count_off..count_off + 4].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            decode_response(&payload),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn frame_roundtrip_over_a_byte_stream() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &encode_request(&req())).unwrap();
        write_frame(&mut wire, &encode_error(2, ErrorCode::Protocol, 0, "bad")).unwrap();
        let mut r = &wire[..];
        let p1 = read_frame(&mut r).unwrap();
        assert_eq!(decode_request(&p1).unwrap(), req());
        let p2 = read_frame(&mut r).unwrap();
        assert!(matches!(
            decode_response(&p2).unwrap(),
            WireResponse::Error { request_id: 2, .. }
        ));
        assert!(matches!(read_frame(&mut r), Err(WireError::Eof)));
    }

    #[test]
    fn oversized_frame_is_drained_not_fatal() {
        let mut wire = Vec::new();
        // A frame claiming MAX_FRAME + 1 bytes, followed by a valid frame.
        wire.extend_from_slice(&((MAX_FRAME + 1) as u32).to_be_bytes());
        wire.extend(std::iter::repeat_n(0u8, MAX_FRAME + 1));
        write_frame(&mut wire, &encode_error(3, ErrorCode::Internal, 0, "x")).unwrap();
        let mut r = &wire[..];
        assert!(matches!(read_frame(&mut r), Err(WireError::TooLarge(_))));
        // The stream stayed framed: the next frame still parses.
        let p = read_frame(&mut r).unwrap();
        assert_eq!(decode_response(&p).unwrap().request_id(), 3);
        // And writers refuse to produce such frames at all.
        let mut sink = Vec::new();
        assert!(matches!(
            write_frame(&mut sink, &vec![0u8; MAX_FRAME + 1]),
            Err(WireError::TooLarge(_))
        ));
    }

    #[test]
    fn truncated_length_prefix_is_io_not_eof() {
        // One byte of a length prefix, then the peer vanishes.
        let mut r: &[u8] = &[0x00];
        assert!(matches!(read_frame(&mut r), Err(WireError::Io(_))));
        // Zero bytes: clean EOF.
        let mut r: &[u8] = &[];
        assert!(matches!(read_frame(&mut r), Err(WireError::Eof)));
    }

    #[test]
    fn error_code_bytes_are_stable() {
        // The wire contract: these byte values are frozen.
        assert_eq!(ErrorCode::RetryAfter as u8, 1);
        assert_eq!(ErrorCode::DeadlineExceeded as u8, 2);
        assert_eq!(ErrorCode::ShuttingDown as u8, 3);
        assert_eq!(ErrorCode::Protocol as u8, 4);
        assert_eq!(ErrorCode::Internal as u8, 5);
        for b in 1..=5u8 {
            assert_eq!(ErrorCode::from_u8(b).unwrap() as u8, b);
        }
        assert_eq!(ErrorCode::from_u8(0), None);
        assert_eq!(ErrorCode::from_u8(6), None);
    }
}
