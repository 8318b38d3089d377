//! Hsiao (72,64) SEC-DED — the odd-weight-column code used by most real
//! memory controllers (faster decoders and better miscorrection behavior
//! than the classic Hamming arrangement).
//!
//! Every column of the parity-check matrix has odd weight: the 8 check
//! bits use the weight-1 unit columns, and the 64 data bits use all 56
//! weight-3 columns plus 8 weight-5 columns. Single errors produce an
//! odd-weight syndrome equal to the flipped bit's column; double errors
//! produce a nonzero even-weight syndrome — cleanly detectable.
//!
//! Provided as an alternative to [`crate::encode_word`] so the effect of
//! codec choice on ECC-fingerprint behavior can be measured.

use crate::hamming::{CorrectedBit, DecodeWordError, WordDecode};
use crate::linear::LinearCode;

/// The 64 data-bit columns: all 56 weight-3 bytes, then the first 8
/// weight-5 bytes, in ascending numeric order.
const DATA_COLUMNS: [u8; 64] = {
    let mut cols = [0u8; 64];
    let mut idx = 0;
    let mut weight = 3;
    while weight <= 5 {
        let mut value = 0u16;
        while value <= 0xFF && idx < 64 {
            if (value as u8).count_ones() == weight {
                cols[idx] = value as u8;
                idx += 1;
            }
            value += 1;
        }
        weight += 2;
    }
    assert!(idx == 64, "exactly 64 odd-weight columns");
    cols
};

/// The code as a [`LinearCode`]: a word's check byte is the XOR of its set
/// data bits' columns.
const HSIAO: LinearCode = LinearCode::from_columns(&DATA_COLUMNS);

/// Reverse map: column byte -> data bit index + 1 (0 = not a data column).
const COLUMN_INDEX: [u8; 256] = {
    let mut index = [0u8; 256];
    let mut bit = 0;
    while bit < 64 {
        index[DATA_COLUMNS[bit] as usize] = bit as u8 + 1;
        bit += 1;
    }
    index
};

/// Computes the 8-bit Hsiao SEC-DED check byte for a 64-bit word.
///
/// # Examples
///
/// ```
/// let ecc = esd_ecc::hsiao::encode_word(0xFEED_FACE_DEAD_BEEF);
/// let d = esd_ecc::hsiao::decode_word(0xFEED_FACE_DEAD_BEEF, ecc).unwrap();
/// assert_eq!(d.data, 0xFEED_FACE_DEAD_BEEF);
/// ```
#[must_use]
pub fn encode_word(data: u64) -> u8 {
    HSIAO.word(data)
}

/// Decodes a word against its stored Hsiao check byte, correcting a single
/// flipped bit.
///
/// # Errors
///
/// Returns [`DecodeWordError::DoubleError`] for even-weight nonzero
/// syndromes (two flipped bits) and
/// [`DecodeWordError::InvalidSyndrome`] for odd-weight syndromes that match
/// no column (three or more flipped bits).
pub fn decode_word(data: u64, ecc: u8) -> Result<WordDecode, DecodeWordError> {
    let syndrome = encode_word(data) ^ ecc;
    if syndrome == 0 {
        return Ok(WordDecode {
            data,
            corrected: None,
        });
    }
    if syndrome.count_ones().is_multiple_of(2) {
        return Err(DecodeWordError::DoubleError);
    }
    if syndrome.count_ones() == 1 {
        // A stored check bit flipped; data is intact.
        return Ok(WordDecode {
            data,
            corrected: Some(CorrectedBit::Check(syndrome.trailing_zeros() as u8)),
        });
    }
    match COLUMN_INDEX[syndrome as usize] {
        0 => Err(DecodeWordError::InvalidSyndrome(syndrome)),
        idx_plus_one => {
            let bit = idx_plus_one - 1;
            Ok(WordDecode {
                data: data ^ (1u64 << bit),
                corrected: Some(CorrectedBit::Data(bit)),
            })
        }
    }
}

/// Computes the packed 64-bit Hsiao line ECC (8 words x 8 bits, word `w`
/// in byte `w`), on the same line kernel as the Hamming code.
#[must_use]
pub fn encode_line(line: &[u8; 64]) -> u64 {
    HSIAO.line(line)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-check-bit definition: check bit `c` is the parity of the
    /// data bits whose column has row `c` set.
    fn encode_word_ref(data: u64) -> u8 {
        let mut ecc = 0u8;
        for c in 0..8 {
            let mask = (0..64)
                .filter(|&bit| DATA_COLUMNS[bit] & (1 << c) != 0)
                .fold(0u64, |mask, bit| mask | 1 << bit);
            ecc |= (((data & mask).count_ones() & 1) as u8) << c;
        }
        ecc
    }

    #[test]
    fn table_encoder_matches_the_popcount_definition() {
        let mut x = 0x0DDB_1A5E_5BAD_5EEDu64;
        for _ in 0..4096 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            assert_eq!(encode_word(x), encode_word_ref(x), "data {x:#018x}");
        }
        for special in [0u64, u64::MAX, 1, 1 << 63] {
            assert_eq!(encode_word(special), encode_word_ref(special));
        }
        let mut line = [0u8; 64];
        for (i, b) in line.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(151) ^ 0x3C;
        }
        let per_word: Vec<u8> = line
            .chunks_exact(8)
            .map(|w| encode_word_ref(u64::from_le_bytes(w.try_into().unwrap())))
            .collect();
        assert_eq!(encode_line(&line).to_le_bytes().to_vec(), per_word);
    }

    #[test]
    fn columns_are_odd_weight_and_distinct() {
        let cols = &DATA_COLUMNS;
        let set: std::collections::HashSet<u8> = cols.iter().copied().collect();
        assert_eq!(set.len(), 64);
        for &c in cols.iter() {
            assert_eq!(c.count_ones() % 2, 1, "column {c:#04x} must be odd weight");
            assert!(c.count_ones() >= 3, "unit columns are reserved for checks");
        }
    }

    #[test]
    fn clean_round_trip() {
        for data in [0u64, u64::MAX, 0x0123_4567_89AB_CDEF] {
            let d = decode_word(data, encode_word(data)).unwrap();
            assert_eq!(d.data, data);
            assert!(d.corrected.is_none());
        }
    }

    #[test]
    fn corrects_every_single_data_bit() {
        let data = 0xA5A5_5A5A_F00F_0FF0u64;
        let ecc = encode_word(data);
        for bit in 0..64 {
            let d = decode_word(data ^ (1u64 << bit), ecc).unwrap();
            assert_eq!(d.data, data, "bit {bit}");
            assert_eq!(d.corrected, Some(CorrectedBit::Data(bit as u8)));
        }
    }

    #[test]
    fn tolerates_check_bit_flips() {
        let data = 0x1234_5678_9ABC_DEF0u64;
        let ecc = encode_word(data);
        for c in 0..8 {
            let d = decode_word(data, ecc ^ (1 << c)).unwrap();
            assert_eq!(d.data, data);
            assert_eq!(d.corrected, Some(CorrectedBit::Check(c)));
        }
    }

    #[test]
    fn detects_double_bit_errors() {
        let data = 0xDEAD_BEEF_0BAD_F00Du64;
        let ecc = encode_word(data);
        for (a, b) in [(0u8, 1u8), (7, 63), (30, 31), (12, 45)] {
            let corrupted = data ^ (1u64 << a) ^ (1u64 << b);
            assert_eq!(
                decode_word(corrupted, ecc),
                Err(DecodeWordError::DoubleError),
                "bits {a},{b}"
            );
        }
    }

    #[test]
    fn line_ecc_is_content_sensitive() {
        let a = [0x11u8; 64];
        let mut b = a;
        b[20] ^= 1;
        assert_ne!(encode_line(&a), encode_line(&b));
        assert_eq!(encode_line(&a), encode_line(&a));
    }

    #[test]
    fn hamming_and_hsiao_fingerprints_differ() {
        // Same data, different codes — codec choice changes the fingerprint
        // space (and its collision structure).
        let line = [0x3Cu8; 64];
        assert_ne!(
            encode_line(&line),
            crate::encode_line(&line).to_u64(),
            "distinct codes should give distinct line ECCs"
        );
    }
}
