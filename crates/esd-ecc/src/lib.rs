#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Hamming(72,64) SEC-DED error-correcting codes and ECC-based cache-line
//! fingerprints, as used by the ESD deduplication scheme (HPCA 2023).
//!
//! Memory controllers that protect main memory with ECC compute, for every
//! 8-byte word, an 8-bit single-error-correct / double-error-detect (SEC-DED)
//! code. A 64-byte cache line therefore carries a 64-bit ECC value "for free".
//! ESD piggybacks on that value as a *similarity fingerprint*: because the
//! code is a deterministic function of the data, two lines with different ECC
//! values are **definitely different**, while two lines with equal ECC values
//! are *possibly* equal and must be byte-compared.
//!
//! This crate provides:
//!
//! * [`encode_word`] / [`decode_word`] — the per-word Hamming(72,64) SEC-DED
//!   codec (encode, syndrome decoding, single-bit correction, double-bit
//!   detection).
//! * [`encode_line`] / [`decode_line`] — the per-cache-line codec operating on
//!   [`LINE_BYTES`]-byte lines.
//! * [`EccFingerprint`] — the 64-bit per-line ECC value used as a dedup
//!   fingerprint, with the guaranteed *filter property*
//!   (`fp(a) != fp(b)  =>  a != b`).
//!
//! Every encoder here is safe, portable scalar code: a per-byte table fold
//! that every host runs.
//!
//! # Examples
//!
//! ```
//! use esd_ecc::{encode_line, EccFingerprint};
//!
//! let a = [0xAB_u8; 64];
//! let b = [0xCD_u8; 64];
//! let fa = EccFingerprint::of_line(&a);
//! let fb = EccFingerprint::of_line(&b);
//! // Different fingerprints prove the lines differ -- no byte compare needed.
//! assert_ne!(fa, fb);
//! assert_eq!(fa, EccFingerprint::from(encode_line(&a)));
//! ```

mod hamming;
pub mod hsiao;
mod line;

pub use hamming::{
    decode_word, encode_word, encode_word_ref, CorrectedBit, DecodeWordError, WordDecode,
};
pub use line::{
    decode_line, encode_line, encode_lines, DecodeLineError, EccFingerprint, LineDecode, LineEcc,
    LINE_BYTES, WORDS_PER_LINE,
};

/// Selects which SEC-DED code supplies the per-line ECC (and therefore the
/// dedup fingerprint). Both correct single-bit errors per 8-byte word; they
/// differ in the *structure* of their collision space, which matters for
/// fingerprint-based similarity detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EccCodec {
    /// Classic Hamming + overall parity (this crate's primary codec).
    #[default]
    Hamming,
    /// Hsiao odd-weight-column code (what most real controllers ship).
    Hsiao,
}

impl EccCodec {
    /// Computes the packed 64-bit per-line ECC under this codec.
    ///
    /// # Examples
    ///
    /// ```
    /// use esd_ecc::EccCodec;
    /// let line = [7u8; 64];
    /// assert_ne!(
    ///     EccCodec::Hamming.line_fingerprint(&line),
    ///     EccCodec::Hsiao.line_fingerprint(&line),
    /// );
    /// ```
    #[must_use]
    pub fn line_fingerprint(self, line: &[u8; LINE_BYTES]) -> u64 {
        match self {
            EccCodec::Hamming => encode_line(line).to_u64(),
            EccCodec::Hsiao => hsiao::encode_line(line),
        }
    }

    /// Computes the packed 64-bit per-line ECC for a whole block of lines,
    /// appending one fingerprint per line to `out` in order.
    ///
    /// The Hamming codec routes through the 4-line interleaved
    /// [`encode_lines`] kernel; Hsiao stays scalar. Bit-exact with
    /// [`EccCodec::line_fingerprint`] per line at every block size.
    pub fn line_fingerprints(self, lines: &[[u8; LINE_BYTES]], out: &mut Vec<u64>) {
        match self {
            EccCodec::Hamming => {
                let mut codes = Vec::new();
                encode_lines(lines, &mut codes);
                out.extend(codes.iter().map(|c| c.to_u64()));
            }
            EccCodec::Hsiao => {
                out.extend(lines.iter().map(hsiao::encode_line));
            }
        }
    }

    /// Short display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EccCodec::Hamming => "Hamming",
            EccCodec::Hsiao => "Hsiao",
        }
    }
}

impl std::fmt::Display for EccCodec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EccFingerprint>();
        assert_send_sync::<LineEcc>();
        assert_send_sync::<DecodeWordError>();
        assert_send_sync::<DecodeLineError>();
    }
}
