//! The 64-byte cache line as content (not timing).

use std::fmt;

/// Size of a cache line in bytes.
pub const LINE_BYTES: usize = 64;

/// A 64-byte cache line's content.
///
/// # Examples
///
/// ```
/// use esd_trace::CacheLine;
/// assert!(CacheLine::ZERO.is_zero());
/// let line = CacheLine::from_fill(0xAB);
/// assert_eq!(line.as_bytes()[63], 0xAB);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheLine([u8; LINE_BYTES]);

impl CacheLine {
    /// The all-zero line — by far the most common duplicate in real traces.
    pub const ZERO: CacheLine = CacheLine([0u8; LINE_BYTES]);

    /// Wraps raw bytes.
    #[must_use]
    pub fn new(bytes: [u8; LINE_BYTES]) -> Self {
        CacheLine(bytes)
    }

    /// A line with every byte equal to `fill`.
    #[must_use]
    pub fn from_fill(fill: u8) -> Self {
        CacheLine([fill; LINE_BYTES])
    }

    /// A deterministic pseudo-random line derived from `seed` via SplitMix64.
    /// Distinct seeds produce distinct lines with overwhelming probability.
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        let mut bytes = [0u8; LINE_BYTES];
        let mut state = seed;
        for chunk in bytes.chunks_exact_mut(8) {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            chunk.copy_from_slice(&z.to_le_bytes());
        }
        CacheLine(bytes)
    }

    /// The line content.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8; LINE_BYTES] {
        &self.0
    }

    /// Consumes the line, returning its bytes.
    #[must_use]
    pub fn into_bytes(self) -> [u8; LINE_BYTES] {
        self.0
    }

    /// Whether every byte is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.0 == [0u8; LINE_BYTES]
    }
}

impl Default for CacheLine {
    fn default() -> Self {
        CacheLine::ZERO
    }
}

impl From<[u8; LINE_BYTES]> for CacheLine {
    fn from(bytes: [u8; LINE_BYTES]) -> Self {
        CacheLine(bytes)
    }
}

impl From<CacheLine> for [u8; LINE_BYTES] {
    fn from(line: CacheLine) -> Self {
        line.0
    }
}

impl AsRef<[u8]> for CacheLine {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl fmt::Debug for CacheLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CacheLine({:02x}{:02x}{:02x}{:02x}..)", self.0[0], self.0[1], self.0[2], self.0[3])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_detection() {
        assert!(CacheLine::ZERO.is_zero());
        assert!(CacheLine::default().is_zero());
        assert!(!CacheLine::from_fill(1).is_zero());
    }

    #[test]
    fn seeded_lines_are_deterministic_and_distinct() {
        assert_eq!(CacheLine::from_seed(7), CacheLine::from_seed(7));
        let lines: std::collections::HashSet<_> =
            (0u64..1000).map(|s| CacheLine::from_seed(s).into_bytes()).collect();
        assert_eq!(lines.len(), 1000);
    }

    #[test]
    fn conversions_round_trip() {
        let raw = [9u8; LINE_BYTES];
        let line = CacheLine::from(raw);
        assert_eq!(<[u8; LINE_BYTES]>::from(line), raw);
        assert_eq!(line.as_ref(), &raw[..]);
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", CacheLine::ZERO).is_empty());
    }
}
