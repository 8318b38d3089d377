//! The human-readable trace format of the original artifact (its README's
//! "regulation format"), so externally generated traces can be replayed.
//!
//! One record per line:
//!
//! ```text
//! # comment or blank lines are skipped
//! R <hex-addr> <instruction-gap>
//! W <hex-addr> <instruction-gap> <128-hex-digit line content>
//! ```

use std::error::Error;
use std::fmt;
use std::fmt::Write as _;

use crate::access::{Access, AccessKind, Trace};
use crate::line::{CacheLine, LINE_BYTES};

/// Error decoding a textual trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    /// 1-indexed line number of the offending record.
    pub line: usize,
    /// What went wrong.
    pub kind: ParseTraceErrorKind,
}

/// The varieties of textual-trace parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseTraceErrorKind {
    /// The record tag was not `R` or `W`.
    BadTag(String),
    /// Too few fields for the record kind.
    MissingField(&'static str),
    /// A numeric field failed to parse.
    BadNumber(String),
    /// Write content was not exactly 128 hex digits.
    BadContent,
    /// The address is not a multiple of [`LINE_BYTES`]: every record
    /// names a whole line.
    Unaligned(u64),
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: ", self.line)?;
        match &self.kind {
            ParseTraceErrorKind::BadTag(tag) => write!(f, "unknown record tag {tag:?}"),
            ParseTraceErrorKind::MissingField(name) => write!(f, "missing field {name}"),
            ParseTraceErrorKind::BadNumber(field) => write!(f, "unparsable number {field:?}"),
            ParseTraceErrorKind::BadContent => {
                write!(f, "write content must be {} hex digits", LINE_BYTES * 2)
            }
            ParseTraceErrorKind::Unaligned(addr) => {
                write!(f, "address {addr:#x} is not a multiple of {LINE_BYTES}")
            }
        }
    }
}

impl Error for ParseTraceError {}

/// Renders a trace in the textual format.
///
/// # Examples
///
/// ```
/// use esd_trace::{parse_trace_text, render_trace_text, AppProfile, generate_trace};
/// let t = generate_trace(&AppProfile::demo(), 1, 50);
/// let text = render_trace_text(&t);
/// assert_eq!(parse_trace_text("demo", &text).unwrap(), t);
/// ```
#[must_use]
pub fn render_trace_text(trace: &Trace) -> String {
    let mut out = String::with_capacity(trace.len() * 32);
    let _ = writeln!(out, "# trace: {} ({} records)", trace.name, trace.len());
    for access in trace {
        match access.kind {
            AccessKind::Read => {
                let _ = writeln!(out, "R {:x} {}", access.addr, access.instruction_gap);
            }
            AccessKind::Write => {
                let _ = write!(out, "W {:x} {} ", access.addr, access.instruction_gap);
                for byte in access.data.expect("write carries data").as_bytes() {
                    let _ = write!(out, "{byte:02x}");
                }
                out.push('\n');
            }
        }
    }
    out
}

/// Parses a textual trace.
///
/// # Errors
///
/// Returns [`ParseTraceError`] with the offending line number on malformed
/// input, including an address that is not a multiple of [`LINE_BYTES`].
pub fn parse_trace_text(name: &str, text: &str) -> Result<Trace, ParseTraceError> {
    let mut trace = Trace::new(name);
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields = line.split_whitespace();
        let tag = fields.next().expect("non-empty line has a first field");
        let err = |kind| ParseTraceError {
            line: line_no,
            kind,
        };

        let addr_str = fields
            .next()
            .ok_or_else(|| err(ParseTraceErrorKind::MissingField("addr")))?;
        let addr = u64::from_str_radix(addr_str, 16)
            .map_err(|_| err(ParseTraceErrorKind::BadNumber(addr_str.to_owned())))?;
        if !addr.is_multiple_of(LINE_BYTES as u64) {
            return Err(err(ParseTraceErrorKind::Unaligned(addr)));
        }
        let gap_str = fields
            .next()
            .ok_or_else(|| err(ParseTraceErrorKind::MissingField("gap")))?;
        let gap: u32 = gap_str
            .parse()
            .map_err(|_| err(ParseTraceErrorKind::BadNumber(gap_str.to_owned())))?;

        match tag {
            "R" | "r" => trace.accesses.push(Access::read(addr, gap)),
            "W" | "w" => {
                let content = fields
                    .next()
                    .ok_or_else(|| err(ParseTraceErrorKind::MissingField("content")))?;
                if content.len() != LINE_BYTES * 2
                    || !content.bytes().all(|b| b.is_ascii_hexdigit())
                {
                    return Err(err(ParseTraceErrorKind::BadContent));
                }
                let mut bytes = [0u8; LINE_BYTES];
                for (i, byte) in bytes.iter_mut().enumerate() {
                    *byte = u8::from_str_radix(&content[i * 2..i * 2 + 2], 16)
                        .expect("validated hex digits");
                }
                trace
                    .accesses
                    .push(Access::write(addr, CacheLine::new(bytes), gap));
            }
            other => return Err(err(ParseTraceErrorKind::BadTag(other.to_owned()))),
        }
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
        let t = generate_trace(&AppProfile::demo(), 3, 200);
        let text = render_trace_text(&t);
        assert_eq!(parse_trace_text("demo", &text).unwrap(), t);
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let text = "# header\n\nR 40 10\n  \nW 80 20 ".to_owned() + &"ab".repeat(64);
        let t = parse_trace_text("x", &text).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.accesses[0], Access::read(0x40, 10));
        assert_eq!(t.accesses[1].data.unwrap(), CacheLine::from_fill(0xAB));
    }

    #[test]
    fn bad_tag_reports_line_number() {
        let err = parse_trace_text("x", "# ok\nX 40 10").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(matches!(err.kind, ParseTraceErrorKind::BadTag(_)));
        assert!(err.to_string().contains("line 2"));
    }

    #[test]
    fn missing_and_malformed_fields_are_reported() {
        assert!(matches!(
            parse_trace_text("x", "R 40").unwrap_err().kind,
            ParseTraceErrorKind::MissingField("gap")
        ));
        assert!(matches!(
            parse_trace_text("x", "R zz 10").unwrap_err().kind,
            ParseTraceErrorKind::BadNumber(_)
        ));
        assert!(matches!(
            parse_trace_text("x", "W 40 10").unwrap_err().kind,
            ParseTraceErrorKind::MissingField("content")
        ));
        assert!(matches!(
            parse_trace_text("x", "W 40 10 abcd").unwrap_err().kind,
            ParseTraceErrorKind::BadContent
        ));
    }

    #[test]
    fn unaligned_addresses_are_refused() {
        let err = parse_trace_text("x", "R 40 1\nR 41 1").unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.kind, ParseTraceErrorKind::Unaligned(0x41));
        assert!(err.to_string().contains("0x41"));
        let text = format!("W 7f 2 {}", "00".repeat(64));
        assert_eq!(
            parse_trace_text("x", &text).unwrap_err().kind,
            ParseTraceErrorKind::Unaligned(0x7F)
        );
    }

    #[test]
    fn lowercase_tags_are_accepted() {
        let text = format!("r 40 1\nw 80 2 {}", "00".repeat(64));
        let t = parse_trace_text("x", &text).unwrap();
        assert_eq!(t.len(), 2);
        assert!(t.accesses[1].data.unwrap().is_zero());
    }
}
