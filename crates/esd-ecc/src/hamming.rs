//! The per-word Hamming(72,64) SEC-DED codec.
//!
//! The codeword has 72 bits: 64 data bits, 7 Hamming check bits and one
//! overall-parity bit. Check bits sit at the power-of-two positions
//! `1, 2, 4, 8, 16, 32, 64` of the (1-indexed) 71-bit Hamming codeword; data
//! bits fill the remaining positions `3..=71`. The eighth ECC bit is the
//! overall parity of the 71 Hamming bits, which upgrades single-error
//! correction to single-error-correct / double-error-detect (SEC-DED).

use std::error::Error;
use std::fmt;

use crate::linear::LinearCode;

/// Number of Hamming check bits (excluding the overall parity bit).
const CHECK_BITS: u32 = 7;
/// Highest used codeword position (1-indexed).
const MAX_POS: usize = 71;

/// `POS_OF_DATA[i]` is the 1-indexed codeword position of data bit `i`.
const POS_OF_DATA: [u8; 64] = build_pos_of_data();
/// `DATA_OF_POS[p]` is `data_index + 1` when position `p` holds a data bit,
/// or `0` when it holds a check bit (or is unused).
const DATA_OF_POS: [u8; MAX_POS + 1] = build_data_of_pos();
/// `CHECK_MASK[c]` selects the data bits covered by check bit `c`
/// (the check bit at position `1 << c`).
const CHECK_MASK: [u64; CHECK_BITS as usize] = build_check_masks();

const fn build_pos_of_data() -> [u8; 64] {
    let mut table = [0u8; 64];
    let mut pos = 1usize;
    let mut idx = 0usize;
    while pos <= MAX_POS {
        if !pos.is_power_of_two() {
            table[idx] = pos as u8;
            idx += 1;
        }
        pos += 1;
    }
    table
}

const fn build_data_of_pos() -> [u8; MAX_POS + 1] {
    let mut table = [0u8; MAX_POS + 1];
    let mut idx = 0usize;
    while idx < 64 {
        table[POS_OF_DATA[idx] as usize] = idx as u8 + 1;
        idx += 1;
    }
    table
}

const fn build_check_masks() -> [u64; CHECK_BITS as usize] {
    let mut masks = [0u64; CHECK_BITS as usize];
    let mut c = 0usize;
    while c < CHECK_BITS as usize {
        let mut i = 0usize;
        while i < 64 {
            if POS_OF_DATA[i] as usize & (1 << c) != 0 {
                masks[c] |= 1u64 << i;
            }
            i += 1;
        }
        c += 1;
    }
    masks
}

#[inline]
fn parity64(x: u64) -> u8 {
    (x.count_ones() & 1) as u8
}

/// Const-evaluable mask-and-popcount encoder: seven masked parities plus
/// the overall-parity bit, computed directly from the positional definition
/// of the code. The [`HAMMING`] columns are built from it, and the unit
/// tests pin [`encode_word`] to it.
const fn encode_word_scalar(data: u64) -> u8 {
    let mut ecc = 0u8;
    let mut c = 0usize;
    while c < CHECK_BITS as usize {
        ecc |= (((data & CHECK_MASK[c]).count_ones() & 1) as u8) << c;
        c += 1;
    }
    // Overall parity over all 71 Hamming bits = data bits XOR check bits.
    let check_parity = ((ecc & 0x7F).count_ones() & 1) as u8;
    let overall = ((data.count_ones() & 1) as u8) ^ check_parity;
    ecc | (overall << 7)
}

/// The code as a [`LinearCode`]: column `i` is the ECC of a word with
/// only data bit `i` set. The whole code (check bits *and* overall-parity
/// bit) is XOR-linear in the data, so these 64 columns determine it — the
/// hot path behind [`encode_word`] and the line codec.
pub(crate) const HAMMING: LinearCode = LinearCode::from_columns(&{
    let mut columns = [0u8; 64];
    let mut i = 0;
    while i < 64 {
        columns[i] = encode_word_scalar(1 << i);
        i += 1;
    }
    columns
});

/// Computes the 8-bit SEC-DED ECC for a 64-bit data word.
///
/// Bits `0..7` of the result are the seven Hamming check bits (bit `c`
/// corresponds to codeword position `1 << c`); bit 7 is the overall parity
/// over the 71 Hamming codeword bits.
///
/// This is the table-driven fast path (eight byte lookups XOR-folded),
/// property-tested against the mask-and-popcount definition of the code.
///
/// # Examples
///
/// ```
/// let ecc = esd_ecc::encode_word(0xDEAD_BEEF_CAFE_F00D);
/// let decoded = esd_ecc::decode_word(0xDEAD_BEEF_CAFE_F00D, ecc).unwrap();
/// assert_eq!(decoded.data, 0xDEAD_BEEF_CAFE_F00D);
/// ```
#[must_use]
#[inline]
pub fn encode_word(data: u64) -> u8 {
    HAMMING.word(data)
}

/// Which codeword bit a successful single-error correction flipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CorrectedBit {
    /// A data bit; the payload is the data bit index `0..64`.
    Data(u8),
    /// One of the seven Hamming check bits; the payload is the check index
    /// `0..7`.
    Check(u8),
    /// The overall-parity bit itself.
    OverallParity,
}

impl fmt::Display for CorrectedBit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorrectedBit::Data(i) => write!(f, "data bit {i}"),
            CorrectedBit::Check(c) => write!(f, "check bit {c}"),
            CorrectedBit::OverallParity => write!(f, "overall parity bit"),
        }
    }
}

/// The result of decoding one protected word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WordDecode {
    /// The (possibly corrected) data word.
    pub data: u64,
    /// `Some` when a single-bit error was detected and corrected.
    pub corrected: Option<CorrectedBit>,
}

/// Error returned by [`decode_word`] when the stored word cannot be
/// reconstructed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecodeWordError {
    /// A double-bit error was detected (non-zero syndrome, clean overall
    /// parity). SEC-DED detects but cannot correct this case.
    DoubleError,
    /// The syndrome points at an unused codeword position, which only a
    /// multi-bit error can produce.
    InvalidSyndrome(u8),
}

impl fmt::Display for DecodeWordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeWordError::DoubleError => write!(f, "uncorrectable double-bit error"),
            DecodeWordError::InvalidSyndrome(s) => {
                write!(f, "multi-bit error produced invalid syndrome {s}")
            }
        }
    }
}

impl Error for DecodeWordError {}

/// Decodes a 64-bit word against its stored 8-bit ECC, correcting a
/// single-bit error if present.
///
/// # Errors
///
/// Returns [`DecodeWordError::DoubleError`] when a double-bit error is
/// detected, and [`DecodeWordError::InvalidSyndrome`] when the syndrome is
/// inconsistent with any single-bit flip (a sure sign of 3+ flipped bits).
///
/// # Examples
///
/// ```
/// let data = 0x0123_4567_89AB_CDEF_u64;
/// let ecc = esd_ecc::encode_word(data);
/// // Flip one data bit in "memory":
/// let decoded = esd_ecc::decode_word(data ^ (1 << 17), ecc).unwrap();
/// assert_eq!(decoded.data, data);
/// assert!(decoded.corrected.is_some());
/// ```
pub fn decode_word(data: u64, ecc: u8) -> Result<WordDecode, DecodeWordError> {
    let expected = encode_word(data);
    let syndrome = (expected ^ ecc) & 0x7F;
    // Overall parity across the *received* 72-bit codeword (possibly
    // corrupted data bits + the stored check and parity bits): zero when an
    // even number of bits flipped, one when an odd number flipped.
    let parity_mismatch = (parity64(data) ^ ((ecc.count_ones() & 1) as u8)) != 0;

    match (syndrome, parity_mismatch) {
        (0, false) => Ok(WordDecode {
            data,
            corrected: None,
        }),
        (0, true) => Ok(WordDecode {
            data,
            corrected: Some(CorrectedBit::OverallParity),
        }),
        (s, true) => {
            let pos = s as usize;
            if pos > MAX_POS {
                return Err(DecodeWordError::InvalidSyndrome(s));
            }
            if pos.is_power_of_two() {
                // A stored check bit flipped; the data itself is intact.
                Ok(WordDecode {
                    data,
                    corrected: Some(CorrectedBit::Check(pos.trailing_zeros() as u8)),
                })
            } else {
                let idx = DATA_OF_POS[pos] - 1;
                Ok(WordDecode {
                    data: data ^ (1u64 << idx),
                    corrected: Some(CorrectedBit::Data(idx)),
                })
            }
        }
        (_, false) => Err(DecodeWordError::DoubleError),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn position_tables_are_consistent() {
        // 64 data positions, none a power of two, all distinct and <= 71.
        let mut seen = [false; MAX_POS + 1];
        for (i, &p) in POS_OF_DATA.iter().enumerate() {
            let p = p as usize;
            assert!(
                (3..=MAX_POS).contains(&p),
                "data bit {i} at bad position {p}"
            );
            assert!(!p.is_power_of_two());
            assert!(!seen[p], "position {p} reused");
            seen[p] = true;
            assert_eq!(DATA_OF_POS[p] as usize, i + 1);
        }
    }

    #[test]
    fn table_encoder_matches_reference_encoder() {
        let mut x = 0x0DDB_1A5E_5BAD_5EEDu64;
        for _ in 0..4096 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            assert_eq!(encode_word(x), encode_word_scalar(x), "data {x:#018x}");
        }
        for special in [0u64, u64::MAX, 1, 1 << 63, 0x8080_8080_8080_8080] {
            assert_eq!(encode_word(special), encode_word_scalar(special));
        }
    }

    proptest::proptest! {
        /// The byte-table word encoder is bit-exact with the scalar
        /// reference encoder on random words.
        #[test]
        fn table_encoder_matches_reference(data in proptest::prelude::any::<u64>()) {
            proptest::prop_assert_eq!(encode_word(data), encode_word_scalar(data));
        }

        /// The single-pass line encoder equals the per-word reference
        /// encoder composed over the line's eight words.
        #[test]
        fn line_encoder_matches_per_word_reference(
            words in proptest::array::uniform8(proptest::prelude::any::<u64>()),
        ) {
            let mut line = [0u8; crate::LINE_BYTES];
            for (chunk, word) in line.chunks_exact_mut(8).zip(words) {
                chunk.copy_from_slice(&word.to_le_bytes());
            }
            let fast = crate::encode_line(&line);
            for (w, word) in words.into_iter().enumerate() {
                proptest::prop_assert_eq!(fast.words()[w], encode_word_scalar(word), "word {}", w);
            }
        }
    }

    #[test]
    fn encoder_is_xor_linear() {
        // The property the HAMMING columns rely on.
        let (a, b) = (0x1234_5678_9ABC_DEF0u64, 0x0F1E_2D3C_4B5A_6978u64);
        assert_eq!(
            encode_word_scalar(a ^ b),
            encode_word_scalar(a) ^ encode_word_scalar(b)
        );
        assert_eq!(encode_word_scalar(0), 0);
    }

    #[test]
    fn clean_word_round_trips() {
        for data in [0u64, u64::MAX, 0xDEAD_BEEF, 0x8000_0000_0000_0001] {
            let ecc = encode_word(data);
            let d = decode_word(data, ecc).unwrap();
            assert_eq!(d.data, data);
            assert_eq!(d.corrected, None);
        }
    }

    #[test]
    fn every_single_data_bit_flip_is_corrected() {
        let data = 0x0123_4567_89AB_CDEF_u64;
        let ecc = encode_word(data);
        for bit in 0..64 {
            let corrupted = data ^ (1u64 << bit);
            let d = decode_word(corrupted, ecc).unwrap();
            assert_eq!(d.data, data, "bit {bit} not corrected");
            assert_eq!(d.corrected, Some(CorrectedBit::Data(bit as u8)));
        }
    }

    #[test]
    fn every_single_check_bit_flip_is_tolerated() {
        let data = 0xF0F0_F0F0_0F0F_0F0F_u64;
        let ecc = encode_word(data);
        for c in 0..7 {
            let d = decode_word(data, ecc ^ (1 << c)).unwrap();
            assert_eq!(d.data, data);
            assert_eq!(d.corrected, Some(CorrectedBit::Check(c as u8)));
        }
        let d = decode_word(data, ecc ^ 0x80).unwrap();
        assert_eq!(d.corrected, Some(CorrectedBit::OverallParity));
    }

    #[test]
    fn double_data_bit_flips_are_detected() {
        let data = 0x5555_AAAA_3333_CCCC_u64;
        let ecc = encode_word(data);
        for (a, b) in [(0u8, 1u8), (5, 40), (62, 63), (13, 31)] {
            let corrupted = data ^ (1u64 << a) ^ (1u64 << b);
            assert_eq!(
                decode_word(corrupted, ecc),
                Err(DecodeWordError::DoubleError),
                "flips {a},{b} not detected"
            );
        }
    }

    #[test]
    fn data_plus_check_flip_is_detected_as_double() {
        let data = 0x1111_2222_3333_4444_u64;
        let ecc = encode_word(data);
        // One data bit + one check bit: parity stays clean, syndrome != 0.
        let res = decode_word(data ^ 1, ecc ^ 0b10);
        assert_eq!(res, Err(DecodeWordError::DoubleError));
    }

    #[test]
    fn ecc_differs_for_single_bit_data_changes() {
        // The code has minimum distance 4: changing one data bit must change
        // the check bits (otherwise single-bit errors would be undetectable).
        let data = 0u64;
        let base = encode_word(data);
        for bit in 0..64 {
            assert_ne!(encode_word(data ^ (1u64 << bit)), base);
        }
    }

    #[test]
    fn error_display_is_nonempty() {
        assert!(!DecodeWordError::DoubleError.to_string().is_empty());
        assert!(!DecodeWordError::InvalidSyndrome(99).to_string().is_empty());
        assert!(!CorrectedBit::Data(3).to_string().is_empty());
    }
}
