//! Cache-line-granularity ECC: eight Hamming(72,64) words per 64-byte line,
//! and the resulting 64-bit [`EccFingerprint`] used by ESD.

use std::error::Error;
use std::fmt;

use crate::hamming::{decode_word, CorrectedBit, DecodeWordError, ENC_TABLE};

/// Size of a cache line in bytes, matching the 64 B line the CPU core evicts.
pub const LINE_BYTES: usize = 64;
/// Number of 8-byte ECC words per cache line.
pub const WORDS_PER_LINE: usize = 8;

/// The per-line ECC value: one 8-bit SEC-DED code per 8-byte word.
///
/// `LineEcc` carries the raw codec material (it can correct errors via
/// [`decode_line`]); its packed 64-bit form is the dedup fingerprint
/// ([`EccFingerprint`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LineEcc([u8; WORDS_PER_LINE]);

impl LineEcc {
    /// Creates a `LineEcc` from its eight per-word codes.
    #[must_use]
    pub fn new(words: [u8; WORDS_PER_LINE]) -> Self {
        LineEcc(words)
    }

    /// The per-word 8-bit codes.
    #[must_use]
    pub fn words(&self) -> &[u8; WORDS_PER_LINE] {
        &self.0
    }

    /// Packs the eight word codes into one little-endian 64-bit value.
    #[must_use]
    pub fn to_u64(self) -> u64 {
        u64::from_le_bytes(self.0)
    }

    /// Unpacks a 64-bit value produced by [`LineEcc::to_u64`].
    #[must_use]
    pub fn from_u64(raw: u64) -> Self {
        LineEcc(raw.to_le_bytes())
    }
}

impl fmt::Display for LineEcc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LineEcc({:#018x})", self.to_u64())
    }
}

impl From<LineEcc> for EccFingerprint {
    fn from(ecc: LineEcc) -> Self {
        EccFingerprint(ecc.to_u64())
    }
}

/// The 64-bit ECC-based fingerprint of a cache line.
///
/// Because the ECC is a deterministic function of the line content, the
/// fingerprint has the *filter property*: two lines with different
/// fingerprints are guaranteed to be different. Equal fingerprints imply only
/// *similarity* — ESD resolves those with a byte-by-byte comparison.
///
/// # Examples
///
/// ```
/// use esd_ecc::EccFingerprint;
/// let zero = EccFingerprint::of_line(&[0u8; 64]);
/// let ones = EccFingerprint::of_line(&[1u8; 64]);
/// assert_ne!(zero, ones); // definitely different content
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct EccFingerprint(u64);

impl EccFingerprint {
    /// Computes the fingerprint of a cache line.
    #[must_use]
    pub fn of_line(line: &[u8; LINE_BYTES]) -> Self {
        EccFingerprint::from(encode_line(line))
    }

    /// The raw 64-bit fingerprint value.
    #[must_use]
    pub fn to_u64(self) -> u64 {
        self.0
    }

    /// Reconstructs a fingerprint from its raw 64-bit value.
    #[must_use]
    pub fn from_u64(raw: u64) -> Self {
        EccFingerprint(raw)
    }
}

impl fmt::Display for EccFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#018x}", self.0)
    }
}

impl fmt::LowerHex for EccFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for EccFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

/// Encodes a 64-byte cache line, producing one SEC-DED code per 8-byte word.
///
/// # Examples
///
/// ```
/// let line = [7u8; 64];
/// let ecc = esd_ecc::encode_line(&line);
/// let decode = esd_ecc::decode_line(&line, ecc).unwrap();
/// assert_eq!(decode.line, line);
/// ```
#[must_use]
pub fn encode_line(line: &[u8; LINE_BYTES]) -> LineEcc {
    LineEcc(line_codes_scalar(line))
}

/// The eight per-word codes of a line in one pass over the 64 bytes,
/// folding each byte's table entry straight into its word's code — no u64
/// assembly, no per-word parity popcounts. Bit-exact with per-word
/// `encode_word` (the code is XOR-linear; see `esd-ecc`'s equivalence
/// tests).
#[must_use]
fn line_codes_scalar(line: &[u8; LINE_BYTES]) -> [u8; WORDS_PER_LINE] {
    let mut words = [0u8; WORDS_PER_LINE];
    for (word, chunk) in words.iter_mut().zip(line.chunks_exact(8)) {
        *word = ENC_TABLE[0][chunk[0] as usize]
            ^ ENC_TABLE[1][chunk[1] as usize]
            ^ ENC_TABLE[2][chunk[2] as usize]
            ^ ENC_TABLE[3][chunk[3] as usize]
            ^ ENC_TABLE[4][chunk[4] as usize]
            ^ ENC_TABLE[5][chunk[5] as usize]
            ^ ENC_TABLE[6][chunk[6] as usize]
            ^ ENC_TABLE[7][chunk[7] as usize];
    }
    words
}

/// Encodes a block of cache lines, appending one [`LineEcc`] per line to
/// `out` in order.
///
/// Four lines are interleaved per pass so the eight `ENC_TABLE` rows stay
/// hot across lanes; the lane-tail (final 1–3 lines) falls back to
/// [`encode_line`]. Bit-exact with per-line encoding at every block size.
pub fn encode_lines(lines: &[[u8; LINE_BYTES]], out: &mut Vec<LineEcc>) {
    out.reserve(lines.len());
    let mut groups = lines.chunks_exact(4);
    for group in groups.by_ref() {
        let mut words = [[0u8; WORDS_PER_LINE]; 4];
        for w in 0..WORDS_PER_LINE {
            for l in 0..4 {
                let chunk = &group[l][w * 8..w * 8 + 8];
                words[l][w] = ENC_TABLE[0][chunk[0] as usize]
                    ^ ENC_TABLE[1][chunk[1] as usize]
                    ^ ENC_TABLE[2][chunk[2] as usize]
                    ^ ENC_TABLE[3][chunk[3] as usize]
                    ^ ENC_TABLE[4][chunk[4] as usize]
                    ^ ENC_TABLE[5][chunk[5] as usize]
                    ^ ENC_TABLE[6][chunk[6] as usize]
                    ^ ENC_TABLE[7][chunk[7] as usize];
            }
        }
        out.extend(words.map(LineEcc));
    }
    for line in groups.remainder() {
        out.push(encode_line(line));
    }
}

/// The result of decoding one protected cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineDecode {
    /// The (possibly corrected) line content.
    pub line: [u8; LINE_BYTES],
    /// Number of words in which a single-bit error was corrected.
    pub corrected_words: usize,
    /// Per-word correction detail: which bit (data, check, or overall
    /// parity) was repaired in each 8-byte word, `None` for clean words.
    pub corrected: [Option<CorrectedBit>; WORDS_PER_LINE],
}

impl LineDecode {
    /// Corrections that repaired a *stored ECC* bit (a check bit or the
    /// overall parity) rather than a data bit — i.e. the fingerprint
    /// material itself had drifted.
    #[must_use]
    pub fn corrected_ecc_bits(&self) -> usize {
        self.corrected
            .iter()
            .filter(|c| {
                matches!(
                    c,
                    Some(CorrectedBit::Check(_)) | Some(CorrectedBit::OverallParity)
                )
            })
            .count()
    }
}

/// Error returned by [`decode_line`] when some word is uncorrectable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DecodeLineError {
    /// Index of the first uncorrectable 8-byte word within the line.
    pub word: usize,
    /// The per-word failure.
    pub source: DecodeWordError,
}

impl fmt::Display for DecodeLineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "uncorrectable error in word {}: {}", self.word, self.source)
    }
}

impl Error for DecodeLineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        Some(&self.source)
    }
}

/// Decodes a stored cache line against its [`LineEcc`], correcting up to one
/// bit error per 8-byte word.
///
/// # Errors
///
/// Returns [`DecodeLineError`] if any word contains a double-bit (or wider)
/// error.
pub fn decode_line(
    line: &[u8; LINE_BYTES],
    ecc: LineEcc,
) -> Result<LineDecode, DecodeLineError> {
    // Bulk path: recompute every word's expected ECC in one table-driven
    // pass. A stored code that matches exactly proves the word clean (the
    // code's top bit is the overall parity, so an exact 8-bit match implies
    // zero syndrome AND clean parity) — the overwhelmingly common case, and
    // it skips all syndrome analysis. Only mismatching words go through the
    // full SEC-DED correction logic.
    let mut out = *line;
    let mut corrected_words = 0usize;
    let mut corrected = [None; WORDS_PER_LINE];
    let expected_codes = line_codes_scalar(line);
    for (w, chunk) in line.chunks_exact(8).enumerate() {
        if expected_codes[w] == ecc.0[w] {
            continue;
        }
        let data = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        let decoded = decode_word(data, ecc.0[w])
            .map_err(|source| DecodeLineError { word: w, source })?;
        // Any successful decode of a mismatching word corrected a storage
        // error (data, check or parity bit).
        debug_assert!(decoded.corrected.is_some());
        corrected_words += 1;
        corrected[w] = decoded.corrected;
        out[w * 8..w * 8 + 8].copy_from_slice(&decoded.data.to_le_bytes());
    }
    Ok(LineDecode {
        line: out,
        corrected_words,
        corrected,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_of(pattern: impl Fn(usize) -> u8) -> [u8; LINE_BYTES] {
        let mut line = [0u8; LINE_BYTES];
        for (i, b) in line.iter_mut().enumerate() {
            *b = pattern(i);
        }
        line
    }

    #[test]
    fn fingerprint_is_deterministic() {
        let line = line_of(|i| (i * 7) as u8);
        assert_eq!(EccFingerprint::of_line(&line), EccFingerprint::of_line(&line));
    }

    #[test]
    fn filter_property_on_single_byte_changes() {
        let a = line_of(|i| i as u8);
        for byte in 0..LINE_BYTES {
            let mut b = a;
            b[byte] ^= 0x01;
            assert_ne!(
                EccFingerprint::of_line(&a),
                EccFingerprint::of_line(&b),
                "single-bit change in byte {byte} left fingerprint unchanged"
            );
        }
    }

    #[test]
    fn block_encode_matches_per_line_at_every_tail_size() {
        for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 63, 64, 65] {
            let lines: Vec<[u8; LINE_BYTES]> = (0..len)
                .map(|s| line_of(|i| (s * 37 + i * 3) as u8))
                .collect();
            let mut block = Vec::new();
            encode_lines(&lines, &mut block);
            assert_eq!(block.len(), len);
            for (i, l) in lines.iter().enumerate() {
                assert_eq!(block[i], encode_line(l), "line {i} of {len}");
            }
        }
    }

    #[test]
    fn line_round_trips_to_u64() {
        let line = line_of(|i| i.wrapping_mul(31) as u8);
        let ecc = encode_line(&line);
        assert_eq!(LineEcc::from_u64(ecc.to_u64()), ecc);
        assert_eq!(EccFingerprint::from(ecc).to_u64(), ecc.to_u64());
    }

    #[test]
    fn single_bit_error_in_every_byte_is_corrected() {
        let line = line_of(|i| (255 - i) as u8);
        let ecc = encode_line(&line);
        for byte in 0..LINE_BYTES {
            let mut stored = line;
            stored[byte] ^= 0x40;
            let decoded = decode_line(&stored, ecc).unwrap();
            assert_eq!(decoded.line, line);
            assert_eq!(decoded.corrected_words, 1);
            let word = byte / 8;
            assert!(
                matches!(decoded.corrected[word], Some(CorrectedBit::Data(_))),
                "byte {byte}: expected a data-bit correction in word {word}"
            );
            assert_eq!(decoded.corrected_ecc_bits(), 0);
        }
    }

    #[test]
    fn stored_ecc_bit_flip_is_corrected_and_attributed() {
        let line = line_of(|i| (i * 13) as u8);
        let good = encode_line(&line);
        for word in 0..WORDS_PER_LINE {
            for bit in 0..8u8 {
                let mut codes = *good.words();
                codes[word] ^= 1 << bit;
                let decoded = decode_line(&line, LineEcc::new(codes)).unwrap();
                assert_eq!(decoded.line, line, "data must come back untouched");
                assert_eq!(decoded.corrected_words, 1);
                assert_eq!(
                    decoded.corrected_ecc_bits(),
                    1,
                    "word {word} bit {bit}: a stored-ECC flip must be attributed to the ECC"
                );
            }
        }
    }

    #[test]
    fn two_errors_in_different_words_both_corrected() {
        let line = line_of(|i| (i ^ 0x5A) as u8);
        let ecc = encode_line(&line);
        let mut stored = line;
        stored[0] ^= 0x01; // word 0
        stored[63] ^= 0x80; // word 7
        let decoded = decode_line(&stored, ecc).unwrap();
        assert_eq!(decoded.line, line);
        assert_eq!(decoded.corrected_words, 2);
    }

    #[test]
    fn double_error_in_one_word_is_rejected() {
        let line = [0u8; LINE_BYTES];
        let ecc = encode_line(&line);
        let mut stored = line;
        stored[8] ^= 0b11; // two bit flips within word 1
        let err = decode_line(&stored, ecc).unwrap_err();
        assert_eq!(err.word, 1);
        assert_eq!(err.source, DecodeWordError::DoubleError);
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn display_formats_are_nonempty() {
        let fp = EccFingerprint::of_line(&[3u8; LINE_BYTES]);
        assert!(!fp.to_string().is_empty());
        assert!(!format!("{fp:x}").is_empty());
        assert!(!format!("{fp:X}").is_empty());
        assert!(!encode_line(&[3u8; LINE_BYTES]).to_string().is_empty());
    }
}
