//! Wire-protocol decode fuzz: arbitrary byte strings, and byte flips and
//! truncations of valid QUERY, WRITE, ANSWERS and ERROR payloads, must come
//! back from every decoder as a message or a typed `WireError::Malformed` —
//! never a panic. Valid encodings round-trip byte for byte, and every
//! payload the encoders produce is one `write_frame` accepts.

use proptest::prelude::*;
use specqp_server::protocol::{
    decode_request, decode_response, decode_write, encode_answers, encode_error, encode_request,
    encode_write, encode_write_ok, write_frame,
};
use specqp_server::{
    ErrorCode, WireAnswer, WireError, WireRequest, WireResponse, WireWrite, WireWriteOp, MAX_FRAME,
    OP_ANSWERS, OP_ERROR, OP_QUERY, OP_WRITE, OP_WRITE_OK,
};

const OPCODES: [u8; 5] = [OP_QUERY, OP_WRITE, OP_ANSWERS, OP_ERROR, OP_WRITE_OK];

/// The ERROR message for drawn parts: long enough, for larger `n`, that the
/// encoder has to cut it to fit a frame.
fn error_text(text: &str, n: usize) -> String {
    text.repeat(n * 500)
}

/// One valid payload of `kind` (0 QUERY, 1 WRITE, 2 ANSWERS, 3 ERROR) built
/// from drawn parts; `bits` doubles as ids and raw score bits, so NaNs and
/// infinities cross the wire too.
fn valid_payload(kind: u8, id: u64, text: &str, n: usize, bits: u64) -> Vec<u8> {
    let score = |i: usize| f64::from_bits(bits ^ i as u64);
    match kind {
        0 => encode_request(&WireRequest {
            request_id: id,
            client_id: bits,
            mode: (bits % 4) as u8,
            k: n as u32,
            deadline_ms: bits as u32,
            query: text.repeat(n),
        }),
        1 => encode_write(&WireWrite {
            request_id: id,
            client_id: bits,
            ops: (0..n)
                .map(|i| {
                    let (s, p, o) = (text.into(), format!("p{i}"), text.repeat(i));
                    if i % 2 == 0 {
                        WireWriteOp::Assert {
                            s,
                            p,
                            o,
                            score: score(i),
                        }
                    } else {
                        WireWriteOp::Retract { s, p, o }
                    }
                })
                .collect(),
        }),
        2 => encode_answers(
            id,
            &(0..n)
                .map(|i| WireAnswer {
                    score: score(i),
                    bindings: (0..i).map(|v| (v as u32, text.repeat(v))).collect(),
                })
                .collect::<Vec<_>>(),
        ),
        _ => encode_error(
            id,
            ErrorCode::from_u8(1 + (bits % 5) as u8).expect("codes 1..=5 exist"),
            bits as u32,
            &error_text(text, n),
        ),
    }
}

/// Decodes `payload` as its opcode says and encodes the result again.
fn reencode(payload: &[u8]) -> Result<Vec<u8>, WireError> {
    Ok(match payload.first() {
        Some(&OP_QUERY) => encode_request(&decode_request(payload)?),
        Some(&OP_WRITE) => encode_write(&decode_write(payload)?),
        _ => match decode_response(payload)? {
            WireResponse::Answers {
                request_id,
                answers,
            } => encode_answers(request_id, &answers),
            WireResponse::WriteOk { request_id, epoch } => encode_write_ok(request_id, epoch),
            WireResponse::Error {
                request_id,
                code,
                retry_after_ms,
                message,
            } => encode_error(request_id, code, retry_after_ms, &message),
        },
    })
}

/// Runs every decoder over `bytes`; each must return a message or a
/// `Malformed` error. Returns how many decoders accepted the bytes.
fn decode_all(bytes: &[u8]) -> Result<usize, TestCaseError> {
    let outcomes = [
        decode_request(bytes).map(drop),
        decode_write(bytes).map(drop),
        decode_response(bytes).map(drop),
    ];
    let mut accepted = 0;
    for outcome in outcomes {
        match outcome {
            Ok(()) => accepted += 1,
            Err(WireError::Malformed(_)) => {}
            Err(other) => {
                return Err(TestCaseError::fail(format!(
                    "decoder returned a non-decode error: {other:?}"
                )))
            }
        }
    }
    Ok(accepted)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Valid payloads fit a frame and round-trip; an over-long ERROR
    /// message arrives as a prefix of what was sent.
    #[test]
    fn valid_payloads_roundtrip_and_fit_a_frame(
        kind in 0u8..4,
        id in any::<u64>(),
        text in ".{0,40}",
        n in 0usize..8,
        bits in any::<u64>(),
    ) {
        let payload = valid_payload(kind, id, &text, n, bits);
        prop_assert!(payload.len() <= MAX_FRAME, "{} bytes", payload.len());
        prop_assert!(write_frame(&mut Vec::new(), &payload).is_ok());
        match reencode(&payload) {
            Ok(again) => prop_assert!(again == payload, "kind {kind} changed on round trip"),
            Err(e) => return Err(TestCaseError::fail(format!("kind {kind}: {e}"))),
        }
        if let Ok(WireResponse::Error { message, .. }) = decode_response(&payload) {
            prop_assert!(error_text(&text, n).starts_with(&message));
        }
    }

    /// Flipped bytes anywhere in a valid payload never panic a decoder.
    #[test]
    fn flipped_valid_payloads_never_panic(
        (kind, id, text, n, bits) in (0u8..4, any::<u64>(), ".{0,40}", 0usize..8, any::<u64>()),
        flips in proptest::collection::vec((any::<u32>(), 1u8..=255), 1..=6),
    ) {
        let mut bytes = valid_payload(kind, id, &text, n, bits);
        for (pos, mask) in flips {
            let at = pos as usize % bytes.len();
            bytes[at] ^= mask;
        }
        decode_all(&bytes)?;
    }

    /// Every proper prefix of a valid payload is rejected by every decoder.
    #[test]
    fn truncated_valid_payloads_are_rejected(
        (kind, id, text, n, bits) in (0u8..4, any::<u64>(), ".{0,40}", 0usize..8, any::<u64>()),
        cut in any::<u32>(),
    ) {
        let bytes = valid_payload(kind, id, &text, n, bits);
        let cut = cut as usize % bytes.len();
        prop_assert_eq!(decode_all(&bytes[..cut])?, 0, "prefix of {} bytes decoded", cut);
    }

    /// Arbitrary bytes behind a real or random opcode never panic a decoder.
    #[test]
    fn arbitrary_bytes_never_panic(
        op in 0usize..8,
        raw in proptest::collection::vec(any::<u8>(), 0..=96),
    ) {
        let mut bytes = raw;
        if let Some(&opcode) = OPCODES.get(op) {
            bytes.insert(0, opcode);
        }
        decode_all(&bytes)?;
    }
}
