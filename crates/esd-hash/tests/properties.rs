//! Property-based tests for the hash/CRC implementations.

use esd_hash::{crc32, crc64, md5, sha1, Crc32, Crc64, Md5, Sha1};
use proptest::prelude::*;

proptest! {
    /// Streaming in arbitrary chunkings equals the one-shot digest.
    #[test]
    fn sha1_streaming_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..512),
                                     cut in any::<prop::sample::Index>()) {
        let split = cut.index(data.len() + 1);
        let mut h = Sha1::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), sha1(&data));
    }

    #[test]
    fn md5_streaming_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..512),
                                    cut in any::<prop::sample::Index>()) {
        let split = cut.index(data.len() + 1);
        let mut h = Md5::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), md5(&data));
    }

    #[test]
    fn crc_streaming_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..512),
                                    cut in any::<prop::sample::Index>()) {
        let split = cut.index(data.len() + 1);
        let mut c = Crc32::new();
        c.update(&data[..split]);
        c.update(&data[split..]);
        prop_assert_eq!(c.finalize(), crc32(&data));

        let mut c = Crc64::new();
        c.update(&data[..split]);
        c.update(&data[split..]);
        prop_assert_eq!(c.finalize(), crc64(&data));
    }

    /// All fingerprints are deterministic functions.
    #[test]
    fn digests_are_deterministic(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        prop_assert_eq!(sha1(&data), sha1(&data));
        prop_assert_eq!(md5(&data), md5(&data));
        prop_assert_eq!(crc32(&data), crc32(&data));
        prop_assert_eq!(crc64(&data), crc64(&data));
    }

    /// Appending one byte always changes every digest (no trivial
    /// extension fixed points on random data).
    #[test]
    fn extension_changes_digest(data in proptest::collection::vec(any::<u8>(), 0..128),
                                extra in any::<u8>()) {
        let mut extended = data.clone();
        extended.push(extra);
        prop_assert_ne!(sha1(&data), sha1(&extended));
        prop_assert_ne!(md5(&data), md5(&extended));
        prop_assert_ne!(crc64(&data), crc64(&extended));
    }

    /// CRC linearity: crc(a xor b) relates a and b — here we check the
    /// weaker but load-bearing property that single-bit flips in a 64-byte
    /// line always change both CRCs.
    #[test]
    fn crc_detects_any_single_bit_flip(line in proptest::array::uniform32(any::<u8>()),
                                       byte in 0usize..32, bit in 0u8..8) {
        let mut flipped = line;
        flipped[byte] ^= 1 << bit;
        prop_assert_ne!(crc32(&line), crc32(&flipped));
        prop_assert_ne!(crc64(&line), crc64(&flipped));
    }
}
