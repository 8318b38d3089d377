//! Compact binary serialization for traces (the artifact's trace-file
//! format), built on [`bytes`].

use std::error::Error;
use std::fmt;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::access::{Access, AccessKind, Trace};
use crate::line::{CacheLine, LINE_BYTES};

/// File magic: `ESDT` + format version 1.
const MAGIC: u32 = 0x4553_4401;

/// Error returned when decoding a malformed trace buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeTraceError {
    /// The buffer does not start with the trace magic number.
    BadMagic(u32),
    /// The buffer ended before the promised number of records.
    Truncated {
        /// Records successfully decoded before the buffer ran out.
        decoded: usize,
        /// Records the header promised.
        expected: usize,
    },
    /// A record carried an unknown access-kind tag.
    BadKind(u8),
    /// The workload name is not valid UTF-8.
    BadName,
    /// A record's address is not a multiple of [`LINE_BYTES`]: every
    /// record names a whole line.
    Unaligned {
        /// Index of the offending record.
        record: usize,
        /// Its address.
        addr: u64,
    },
}

impl fmt::Display for DecodeTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeTraceError::BadMagic(m) => write!(f, "bad trace magic {m:#010x}"),
            DecodeTraceError::Truncated { decoded, expected } => {
                write!(f, "trace truncated: {decoded} of {expected} records")
            }
            DecodeTraceError::BadKind(k) => write!(f, "unknown access kind tag {k}"),
            DecodeTraceError::BadName => write!(f, "workload name is not valid UTF-8"),
            DecodeTraceError::Unaligned { record, addr } => write!(
                f,
                "record {record}: address {addr:#x} is not a multiple of {LINE_BYTES}"
            ),
        }
    }
}

impl Error for DecodeTraceError {}

/// Encodes a trace into its binary representation.
///
/// # Examples
///
/// ```
/// use esd_trace::{decode_trace, encode_trace, AppProfile, generate_trace};
/// let t = generate_trace(&AppProfile::demo(), 1, 100);
/// let bytes = encode_trace(&t);
/// assert_eq!(decode_trace(&bytes).unwrap(), t);
/// ```
#[must_use]
pub fn encode_trace(trace: &Trace) -> Bytes {
    let mut buf = BytesMut::with_capacity(16 + trace.name.len() + trace.len() * 80);
    buf.put_u32(MAGIC);
    buf.put_u16(trace.name.len() as u16);
    buf.put_slice(trace.name.as_bytes());
    buf.put_u64(trace.len() as u64);
    for access in trace {
        match access.kind {
            AccessKind::Read => buf.put_u8(0),
            AccessKind::Write => buf.put_u8(1),
        }
        buf.put_u64(access.addr);
        buf.put_u32(access.instruction_gap);
        if let Some(line) = access.data {
            buf.put_slice(line.as_bytes());
        }
    }
    buf.freeze()
}

/// Decodes a trace produced by [`encode_trace`].
///
/// # Errors
///
/// Returns [`DecodeTraceError`] on bad magic, truncation, unknown record
/// tags, an address that is not a multiple of [`LINE_BYTES`], or a
/// non-UTF-8 workload name.
pub fn decode_trace(mut buf: &[u8]) -> Result<Trace, DecodeTraceError> {
    if buf.remaining() < 4 {
        return Err(DecodeTraceError::BadMagic(0));
    }
    let magic = buf.get_u32();
    if magic != MAGIC {
        return Err(DecodeTraceError::BadMagic(magic));
    }
    if buf.remaining() < 2 {
        return Err(DecodeTraceError::Truncated {
            decoded: 0,
            expected: 0,
        });
    }
    let name_len = buf.get_u16() as usize;
    if buf.remaining() < name_len {
        return Err(DecodeTraceError::Truncated {
            decoded: 0,
            expected: 0,
        });
    }
    let name = std::str::from_utf8(&buf[..name_len])
        .map_err(|_| DecodeTraceError::BadName)?
        .to_owned();
    buf.advance(name_len);
    if buf.remaining() < 8 {
        return Err(DecodeTraceError::Truncated {
            decoded: 0,
            expected: 0,
        });
    }
    let expected = buf.get_u64() as usize;

    let mut trace = Trace::new(name);
    trace.accesses.reserve(expected);
    for i in 0..expected {
        if buf.remaining() < 13 {
            return Err(DecodeTraceError::Truncated {
                decoded: i,
                expected,
            });
        }
        let tag = buf.get_u8();
        let addr = buf.get_u64();
        let gap = buf.get_u32();
        if !addr.is_multiple_of(LINE_BYTES as u64) {
            return Err(DecodeTraceError::Unaligned { record: i, addr });
        }
        let access = match tag {
            0 => Access::read(addr, gap),
            1 => {
                if buf.remaining() < LINE_BYTES {
                    return Err(DecodeTraceError::Truncated {
                        decoded: i,
                        expected,
                    });
                }
                let mut line = [0u8; LINE_BYTES];
                buf.copy_to_slice(&mut line);
                Access::write(addr, CacheLine::new(line), gap)
            }
            other => return Err(DecodeTraceError::BadKind(other)),
        };
        trace.accesses.push(access);
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::generate_trace;
    use crate::profile::AppProfile;

    #[test]
    fn round_trip_generated_trace() {
        let t = generate_trace(&AppProfile::demo(), 99, 777);
        let bytes = encode_trace(&t);
        assert_eq!(decode_trace(&bytes).unwrap(), t);
    }

    #[test]
    fn round_trip_empty_trace() {
        let t = Trace::new("empty");
        assert_eq!(decode_trace(&encode_trace(&t)).unwrap(), t);
    }

    #[test]
    fn bad_magic_is_rejected() {
        assert!(matches!(
            decode_trace(&[0, 0, 0, 0, 0, 0]),
            Err(DecodeTraceError::BadMagic(0))
        ));
        assert!(matches!(
            decode_trace(&[1]),
            Err(DecodeTraceError::BadMagic(0))
        ));
    }

    #[test]
    fn truncation_is_reported_with_progress() {
        let t = generate_trace(&AppProfile::demo(), 5, 10);
        let bytes = encode_trace(&t);
        let cut = &bytes[..bytes.len() - 20];
        match decode_trace(cut) {
            Err(DecodeTraceError::Truncated { decoded, expected }) => {
                assert_eq!(expected, 10);
                assert!(decoded < 10);
            }
            other => panic!("expected truncation, got {other:?}"),
        }
    }

    #[test]
    fn bad_kind_tag_is_rejected() {
        let mut t = Trace::new("x");
        t.accesses.push(Access::read(0, 0));
        let mut bytes = encode_trace(&t).to_vec();
        // Flip the record tag to an invalid value.
        let tag_pos = 4 + 2 + 1 + 8;
        bytes[tag_pos] = 9;
        assert!(matches!(
            decode_trace(&bytes),
            Err(DecodeTraceError::BadKind(9))
        ));
    }

    #[test]
    fn unaligned_addresses_are_refused() {
        let mut t = Trace::new("x");
        t.accesses.push(Access::read(0x40, 0));
        t.accesses
            .push(Access::write(0x41, CacheLine::from_fill(1), 0));
        assert_eq!(
            decode_trace(&encode_trace(&t)),
            Err(DecodeTraceError::Unaligned {
                record: 1,
                addr: 0x41
            })
        );
    }

    #[test]
    fn error_display_is_nonempty() {
        for e in [
            DecodeTraceError::BadMagic(1),
            DecodeTraceError::Truncated {
                decoded: 1,
                expected: 2,
            },
            DecodeTraceError::BadKind(3),
            DecodeTraceError::BadName,
            DecodeTraceError::Unaligned { record: 4, addr: 5 },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
