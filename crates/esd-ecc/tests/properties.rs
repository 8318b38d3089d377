//! Property-based tests for the Hamming(72,64) codec and line fingerprints.

use esd_ecc::{
    decode_line, decode_word, encode_line, encode_word, CorrectedBit, EccFingerprint, LINE_BYTES,
};
use proptest::prelude::*;

fn arb_line() -> impl Strategy<Value = [u8; LINE_BYTES]> {
    proptest::array::uniform32(any::<u8>()).prop_flat_map(|a| {
        proptest::array::uniform32(any::<u8>()).prop_map(move |b| {
            let mut line = [0u8; LINE_BYTES];
            line[..32].copy_from_slice(&a);
            line[32..].copy_from_slice(&b);
            line
        })
    })
}

proptest! {
    /// Encoding is deterministic and clean decodes are identity.
    #[test]
    fn word_round_trip(data in any::<u64>()) {
        let ecc = encode_word(data);
        prop_assert_eq!(ecc, encode_word(data));
        let d = decode_word(data, ecc).unwrap();
        prop_assert_eq!(d.data, data);
        prop_assert_eq!(d.corrected, None);
    }

    /// Any single data-bit flip is corrected back to the original word.
    #[test]
    fn word_single_bit_correction(data in any::<u64>(), bit in 0u8..64) {
        let ecc = encode_word(data);
        let d = decode_word(data ^ (1u64 << bit), ecc).unwrap();
        prop_assert_eq!(d.data, data);
        prop_assert_eq!(d.corrected, Some(CorrectedBit::Data(bit)));
    }

    /// Any two distinct data-bit flips are detected as uncorrectable.
    #[test]
    fn word_double_bit_detection(data in any::<u64>(), a in 0u8..64, b in 0u8..64) {
        prop_assume!(a != b);
        let ecc = encode_word(data);
        let corrupted = data ^ (1u64 << a) ^ (1u64 << b);
        prop_assert!(decode_word(corrupted, ecc).is_err());
    }

    /// The SEC-DED code has distance >= 4 over data bits: words differing in
    /// one or two bits never share an ECC, so the fingerprint filter never
    /// mistakes near-identical words.
    #[test]
    fn word_near_collision_freedom(data in any::<u64>(), a in 0u8..64, b in 0u8..64) {
        let one = data ^ (1u64 << a);
        prop_assert_ne!(encode_word(data), encode_word(one));
        if a != b {
            let two = one ^ (1u64 << b);
            prop_assert_ne!(encode_word(data), encode_word(two));
        }
    }

    /// Filter property at line granularity: equal content implies equal
    /// fingerprint (trivially), and a corrupted copy decodes back to the
    /// original under single-bit-per-word faults.
    #[test]
    fn line_round_trip_and_correction(line in arb_line(), byte in 0usize..LINE_BYTES, bit in 0u8..8) {
        let ecc = encode_line(&line);
        prop_assert_eq!(EccFingerprint::of_line(&line).to_u64(), ecc.to_u64());

        let mut stored = line;
        stored[byte] ^= 1 << bit;
        let decoded = decode_line(&stored, ecc).unwrap();
        prop_assert_eq!(decoded.line, line);
        prop_assert_eq!(decoded.corrected_words, 1);
    }

    /// Different fingerprints imply different content (the dedup filter
    /// soundness direction), checked by contrapositive on random pairs.
    #[test]
    fn fingerprint_filter_soundness(a in arb_line(), b in arb_line()) {
        if EccFingerprint::of_line(&a) != EccFingerprint::of_line(&b) {
            prop_assert_ne!(a, b);
        }
    }

    /// The decoder's exact-match fast path never masks a correctable fault:
    /// flipping any single ECC *or* data bit still round-trips the line.
    #[test]
    fn decode_fast_path_is_fault_transparent(line in arb_line(), word in 0usize..8, bit in 0u8..8) {
        let mut words = *encode_line(&line).words();
        words[word] ^= 1 << bit;
        let decoded = decode_line(&line, esd_ecc::LineEcc::new(words)).unwrap();
        prop_assert_eq!(decoded.line, line);
    }
}
