//! Request/response protocol of the dedup service, with the length-prefixed
//! wire framing used by the TCP front end.
//!
//! Every message travels as one *frame*: a little-endian `u32` payload
//! length followed by that many payload bytes. The payload is a fixed
//! byte-tagged layout (no self-describing serialization — the protocol is
//! four message shapes, and a hand-rolled codec keeps the crate
//! dependency-free):
//!
//! ```text
//! request  := 0x01 tenant:u32 seq:u64 local:u64 line:[u8;64]   (write)
//!           | 0x02 tenant:u32 seq:u64 local:u64                (read)
//! response := 0x81 seq:u64 dedup:u8 latency_ps:u64             (written)
//!           | 0x82 seq:u64 latency_ps:u64 line:[u8;64]         (data)
//!           | 0x83 seq:u64 retry_after_ps:u64                  (rejected)
//! ```
//!
//! `Rejected` is the admission queue's backpressure signal: the tenant's
//! bounded queue was full, nothing was enqueued, and the client should wait
//! roughly `retry_after` (simulated time) before retrying.
//!
//! A frame always reaches the writer as **one** `write_all`: on a TCP
//! socket a length prefix sent apart from its payload is a small segment
//! that Nagle's algorithm holds until the peer's delayed ACK, 40 ms later.
//! Senders of many frames append them to one buffer ([`frame_response`])
//! and write that; receivers that read through a [`std::io::BufReader`]
//! take the frames it already holds with [`peek_frame`].

use std::fmt;
use std::io::{self, Read, Write};

use esd_sim::Ps;
use esd_trace::CacheLine;

/// Hard ceiling on a frame payload, far above any legal message — a
/// corrupt or hostile length prefix must not trigger a giant allocation.
pub const MAX_FRAME_BYTES: u32 = 4096;

/// Bytes of the little-endian `u32` length prefix ahead of every payload.
pub const FRAME_HEADER_BYTES: usize = 4;

/// One tenant operation against its private namespace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// Write `line` at the tenant-local address `local`.
    Write {
        /// Tenant-local line address.
        local: u64,
        /// The 64-byte line content.
        line: CacheLine,
    },
    /// Read the line at tenant-local address `local`.
    Read {
        /// Tenant-local line address.
        local: u64,
    },
}

/// A request stamped with its origin and position in the tenant's stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Envelope {
    /// Originating tenant.
    pub tenant: u32,
    /// Position in the tenant's stream; responses echo it back.
    pub seq: u64,
    /// Simulated arrival time; the service applies requests in global
    /// `(arrival, seq, tenant)` order.
    pub arrival: Ps,
    /// The operation itself.
    pub request: Request,
}

/// What the service sends back for one [`Envelope`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Response {
    /// The write was applied.
    Written {
        /// Echo of the request's sequence number.
        seq: u64,
        /// Whether the write deduplicated against the shared store.
        deduplicated: bool,
        /// End-to-end simulated latency (queue wait + service).
        latency: Ps,
    },
    /// The read completed.
    Data {
        /// Echo of the request's sequence number.
        seq: u64,
        /// End-to-end simulated latency (queue wait + service).
        latency: Ps,
        /// The line content (zero line for unmapped addresses).
        line: CacheLine,
    },
    /// The tenant's admission queue was full; nothing was enqueued.
    Rejected {
        /// Echo of the request's sequence number.
        seq: u64,
        /// Suggested simulated backoff before retrying.
        retry_after: Ps,
    },
}

impl Response {
    /// The request sequence number this response answers.
    #[must_use]
    pub fn seq(&self) -> u64 {
        match *self {
            Response::Written { seq, .. }
            | Response::Data { seq, .. }
            | Response::Rejected { seq, .. } => seq,
        }
    }
}

/// Decoding failure: a frame that is not a well-formed protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// What was wrong with the frame.
    pub reason: &'static str,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed service frame: {}", self.reason)
    }
}

impl std::error::Error for DecodeError {}

fn take<const N: usize>(buf: &mut &[u8], what: &'static str) -> Result<[u8; N], DecodeError> {
    let (head, rest) = buf
        .split_first_chunk::<N>()
        .ok_or(DecodeError { reason: what })?;
    *buf = rest;
    Ok(*head)
}

fn take_u32(buf: &mut &[u8], what: &'static str) -> Result<u32, DecodeError> {
    take(buf, what).map(u32::from_le_bytes)
}

fn take_u64(buf: &mut &[u8], what: &'static str) -> Result<u64, DecodeError> {
    take(buf, what).map(u64::from_le_bytes)
}

fn take_line(buf: &mut &[u8]) -> Result<CacheLine, DecodeError> {
    take(buf, "truncated line payload").map(CacheLine::new)
}

/// Encodes a request envelope as one frame payload (no length prefix).
#[must_use]
pub fn encode_request(env: &Envelope) -> Vec<u8> {
    let mut out = Vec::with_capacity(85);
    match env.request {
        Request::Write { local, line } => {
            out.push(0x01);
            out.extend_from_slice(&env.tenant.to_le_bytes());
            out.extend_from_slice(&env.seq.to_le_bytes());
            out.extend_from_slice(&local.to_le_bytes());
            out.extend_from_slice(line.as_bytes());
        }
        Request::Read { local } => {
            out.push(0x02);
            out.extend_from_slice(&env.tenant.to_le_bytes());
            out.extend_from_slice(&env.seq.to_le_bytes());
            out.extend_from_slice(&local.to_le_bytes());
        }
    }
    out
}

/// Decodes a request frame payload. The arrival stamp is the receiver's to
/// assign (wire requests carry no clock), so it comes back as [`Ps::ZERO`].
///
/// # Errors
///
/// Returns [`DecodeError`] on an unknown tag, truncation, or trailing bytes.
pub fn decode_request(mut payload: &[u8]) -> Result<Envelope, DecodeError> {
    let tag = take::<1>(&mut payload, "empty frame")?[0];
    let tenant = take_u32(&mut payload, "truncated tenant id")?;
    let seq = take_u64(&mut payload, "truncated sequence number")?;
    let local = take_u64(&mut payload, "truncated address")?;
    let request = match tag {
        0x01 => Request::Write {
            local,
            line: take_line(&mut payload)?,
        },
        0x02 => Request::Read { local },
        _ => {
            return Err(DecodeError {
                reason: "unknown request tag",
            })
        }
    };
    if !payload.is_empty() {
        return Err(DecodeError {
            reason: "trailing bytes after request",
        });
    }
    Ok(Envelope {
        tenant,
        seq,
        arrival: Ps::ZERO,
        request,
    })
}

/// Encodes a response as one frame payload (no length prefix).
#[must_use]
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::with_capacity(81);
    put_response(&mut out, resp);
    out
}

fn put_response(out: &mut Vec<u8>, resp: &Response) {
    match *resp {
        Response::Written {
            seq,
            deduplicated,
            latency,
        } => {
            out.push(0x81);
            out.extend_from_slice(&seq.to_le_bytes());
            out.push(u8::from(deduplicated));
            out.extend_from_slice(&latency.as_ps().to_le_bytes());
        }
        Response::Data { seq, latency, line } => {
            out.push(0x82);
            out.extend_from_slice(&seq.to_le_bytes());
            out.extend_from_slice(&latency.as_ps().to_le_bytes());
            out.extend_from_slice(line.as_bytes());
        }
        Response::Rejected { seq, retry_after } => {
            out.push(0x83);
            out.extend_from_slice(&seq.to_le_bytes());
            out.extend_from_slice(&retry_after.as_ps().to_le_bytes());
        }
    }
}

/// Decodes a response frame payload.
///
/// # Errors
///
/// Returns [`DecodeError`] on an unknown tag, truncation, or trailing bytes.
pub fn decode_response(mut payload: &[u8]) -> Result<Response, DecodeError> {
    let tag = take::<1>(&mut payload, "empty frame")?[0];
    let seq = take_u64(&mut payload, "truncated sequence number")?;
    let resp = match tag {
        0x81 => {
            let dedup = take::<1>(&mut payload, "truncated dedup flag")?[0];
            let latency = Ps(take_u64(&mut payload, "truncated latency")?);
            Response::Written {
                seq,
                deduplicated: dedup != 0,
                latency,
            }
        }
        0x82 => {
            let latency = Ps(take_u64(&mut payload, "truncated latency")?);
            Response::Data {
                seq,
                latency,
                line: take_line(&mut payload)?,
            }
        }
        0x83 => Response::Rejected {
            seq,
            retry_after: Ps(take_u64(&mut payload, "truncated retry hint")?),
        },
        _ => {
            return Err(DecodeError {
                reason: "unknown response tag",
            })
        }
    };
    if !payload.is_empty() {
        return Err(DecodeError {
            reason: "trailing bytes after response",
        });
    }
    Ok(resp)
}

/// Appends one frame to `out`: the length prefix, then whatever `payload`
/// appends.
fn append_frame(out: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER_BYTES]);
    payload(out);
    // A length past `u32` is past `MAX_FRAME_BYTES` too: the panic `write_frame` documents.
    let len = u32::try_from(out.len() - start - FRAME_HEADER_BYTES).expect("frames are tiny");
    assert!(len <= MAX_FRAME_BYTES, "oversized frame");
    out[start..start + FRAME_HEADER_BYTES].copy_from_slice(&len.to_le_bytes());
}

/// Appends `resp` to `out` as one complete frame (length prefix and
/// payload), so a caller that owes several responses can send them all in
/// one write from a buffer it reuses.
pub fn frame_response(out: &mut Vec<u8>, resp: &Response) {
    append_frame(out, |out| put_response(out, resp));
}

/// Writes one length-prefixed frame, in a single `write_all`.
///
/// # Errors
///
/// Propagates the underlying I/O error.
///
/// # Panics
///
/// Panics on a payload above [`MAX_FRAME_BYTES`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let mut frame = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
    append_frame(&mut frame, |out| out.extend_from_slice(payload));
    w.write_all(&frame)
}

/// The payload length a length prefix announces, bounded before anything
/// is allocated or awaited for it.
fn checked_len(prefix: [u8; FRAME_HEADER_BYTES]) -> io::Result<usize> {
    let len = u32::from_le_bytes(prefix);
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME_BYTES}-byte cap"),
        ));
    }
    Ok(len as usize)
}

/// Reads one length-prefixed frame; `Ok(None)` on clean EOF at a frame
/// boundary (the peer closed the connection).
///
/// # Errors
///
/// Returns `InvalidData` for an oversized length prefix, `UnexpectedEof`
/// for mid-frame truncation, and propagates other I/O errors.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut payload = Vec::new();
    Ok(read_frame_into(r, &mut payload)?.then_some(payload))
}

/// [`read_frame`] into a caller-owned buffer, which is overwritten and
/// keeps its capacity from frame to frame; `Ok(false)` on clean EOF at a
/// frame boundary.
///
/// # Errors
///
/// As [`read_frame`]. EOF after part of a length prefix is mid-frame
/// truncation like any other.
pub fn read_frame_into(r: &mut impl Read, payload: &mut Vec<u8>) -> io::Result<bool> {
    let mut prefix = [0u8; FRAME_HEADER_BYTES];
    let mut got = 0;
    while got < prefix.len() {
        match r.read(&mut prefix[got..]) {
            Ok(0) if got == 0 => return Ok(false),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed inside a length prefix",
                ))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    payload.resize(checked_len(prefix)?, 0);
    r.read_exact(payload)?;
    Ok(true)
}

/// The payload of the frame at the head of `buffered` if all of it is
/// there, `Ok(None)` if more bytes have to arrive first. `buffered` is what
/// a reader already holds (`BufReader::buffer`); after using the payload
/// the caller consumes [`FRAME_HEADER_BYTES`] plus its length.
///
/// # Errors
///
/// Returns `InvalidData` for an oversized length prefix.
pub fn peek_frame(buffered: &[u8]) -> io::Result<Option<&[u8]>> {
    let Some((prefix, rest)) = buffered.split_first_chunk::<FRAME_HEADER_BYTES>() else {
        return Ok(None);
    };
    Ok(rest.get(..checked_len(*prefix)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn envelope(request: Request) -> Envelope {
        Envelope {
            tenant: 3,
            seq: 41,
            arrival: Ps::ZERO,
            request,
        }
    }

    #[test]
    fn requests_round_trip() {
        for request in [
            Request::Write {
                local: 0x1240,
                line: CacheLine::from_seed(9),
            },
            Request::Read { local: 0x80 },
        ] {
            let env = envelope(request);
            let decoded = decode_request(&encode_request(&env)).unwrap();
            assert_eq!(decoded, env);
        }
    }

    #[test]
    fn responses_round_trip() {
        for resp in [
            Response::Written {
                seq: 7,
                deduplicated: true,
                latency: Ps::from_ns(120),
            },
            Response::Data {
                seq: 8,
                latency: Ps::from_ns(55),
                line: CacheLine::from_fill(0xAB),
            },
            Response::Rejected {
                seq: 9,
                retry_after: Ps::from_us(2),
            },
        ] {
            let decoded = decode_response(&encode_response(&resp)).unwrap();
            assert_eq!(decoded, resp);
            assert_eq!(decoded.seq(), resp.seq());
        }
    }

    #[test]
    fn truncated_and_unknown_frames_are_rejected() {
        assert!(decode_request(&[]).is_err());
        assert!(decode_request(&[0x01, 1, 2]).is_err());
        assert!(decode_request(&[0x7F; 21]).is_err());
        assert!(decode_response(&[0x55; 9]).is_err());
        // Trailing garbage is an error, not silently ignored.
        let mut frame = encode_request(&envelope(Request::Read { local: 0x40 }));
        frame.push(0xFF);
        assert!(decode_request(&frame).is_err());
    }

    #[test]
    fn frames_round_trip_over_a_stream() {
        let env = envelope(Request::Write {
            local: 0x40,
            line: CacheLine::from_seed(3),
        });
        let mut wire = Vec::new();
        write_frame(&mut wire, &encode_request(&env)).unwrap();
        write_frame(&mut wire, &encode_request(&env)).unwrap();
        let mut cursor = wire.as_slice();
        for _ in 0..2 {
            let payload = read_frame(&mut cursor).unwrap().expect("frame present");
            assert_eq!(decode_request(&payload).unwrap(), env);
        }
        assert_eq!(read_frame(&mut cursor).unwrap(), None, "clean EOF");
    }

    #[test]
    fn oversized_length_prefix_is_refused_without_allocating() {
        let wire = u32::MAX.to_le_bytes();
        let err = read_frame(&mut wire.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let err = peek_frame(&wire).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// Counts the writes it receives: on a socket each one is a segment.
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_leaves_in_one_write() {
        let payload = encode_request(&envelope(Request::Read { local: 0x40 }));
        let mut w = CountingWriter {
            writes: 0,
            bytes: Vec::new(),
        };
        write_frame(&mut w, &payload).unwrap();
        assert_eq!(
            w.writes, 1,
            "prefix and payload must not be separate segments"
        );
        assert_eq!(read_frame(&mut w.bytes.as_slice()).unwrap(), Some(payload));
    }

    #[test]
    fn framed_responses_append_to_one_buffer() {
        let responses = [
            Response::Written {
                seq: 1,
                deduplicated: false,
                latency: Ps::from_ns(170),
            },
            Response::Data {
                seq: 2,
                latency: Ps::from_ns(60),
                line: CacheLine::from_seed(5),
            },
        ];
        let (mut batched, mut one_by_one) = (Vec::new(), Vec::new());
        for resp in &responses {
            frame_response(&mut batched, resp);
            write_frame(&mut one_by_one, &encode_response(resp)).unwrap();
        }
        assert_eq!(batched, one_by_one);
    }

    #[test]
    fn peek_takes_only_whole_frames() {
        let payload = encode_request(&envelope(Request::Read { local: 0x40 }));
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        for cut in 0..wire.len() {
            assert_eq!(peek_frame(&wire[..cut]).unwrap(), None, "cut at {cut}");
        }
        wire.push(0xEE); // the first byte of a following frame
        assert_eq!(peek_frame(&wire).unwrap(), Some(payload.as_slice()));
    }

    #[test]
    fn eof_inside_a_length_prefix_is_truncation_not_a_clean_close() {
        let err = read_frame(&mut [21u8, 0].as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
