//! Property-based tests for the counter-mode encryption engine.

use esd_crypto::{Aes128, CmeEngine, LINE_BYTES};
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

/// Any 64-byte line address: the engine indexes its per-line state by
/// line number.
fn arb_line_addr() -> impl Strategy<Value = u64> {
    any::<u64>().prop_map(|addr| addr & !63)
}

proptest! {
    /// Encrypt/decrypt is the identity for any key, address and content.
    #[test]
    fn cme_round_trip(key in proptest::array::uniform16(any::<u8>()),
                      addr in arb_line_addr(),
                      line in arb_line()) {
        let mut cme = CmeEngine::new(key);
        let cipher = cme.encrypt_line(addr, &line);
        prop_assert_eq!(cme.decrypt_line(addr, &cipher).unwrap(), line);
    }

    /// Ciphertext never equals plaintext for a full line (pad is never
    /// all-zero across 64 bytes under AES).
    #[test]
    fn cme_actually_encrypts(addr in arb_line_addr(), line in arb_line()) {
        let mut cme = CmeEngine::new([0xA5; 16]);
        let cipher = cme.encrypt_line(addr, &line);
        prop_assert_ne!(cipher, line);
    }

    /// Repeated writes of the same plaintext yield distinct ciphertexts
    /// (counter freshness — the property that breaks dedup-after-encryption).
    #[test]
    fn cme_rewrite_diffusion(addr in arb_line_addr(), line in arb_line()) {
        let mut cme = CmeEngine::new([0x5A; 16]);
        let c1 = cme.encrypt_line(addr, &line);
        let c2 = cme.encrypt_line(addr, &line);
        prop_assert_ne!(c1, c2);
    }

    /// AES block encryption is a bijection on independently chosen inputs:
    /// distinct plaintext blocks never collide under one key.
    #[test]
    fn aes_injective(a in proptest::array::uniform16(any::<u8>()),
                     b in proptest::array::uniform16(any::<u8>())) {
        prop_assume!(a != b);
        let aes = Aes128::new(&[0x3C; 16]);
        prop_assert_ne!(aes.encrypt_block(a), aes.encrypt_block(b));
    }

    /// The 4-lane AES path is bit-exact with four one-block encryptions
    /// (which the crate's unit tests prove against the byte-wise reference)
    /// for any key and block set.
    #[test]
    fn aes_four_lane_matches_scalar(key in proptest::array::uniform16(any::<u8>()),
                                    a in proptest::array::uniform16(any::<u8>()),
                                    b in proptest::array::uniform16(any::<u8>()),
                                    c in proptest::array::uniform16(any::<u8>()),
                                    d in proptest::array::uniform16(any::<u8>())) {
        let aes = Aes128::new(&key);
        let blocks = [a, b, c, d];
        let out = aes.encrypt4(blocks);
        for (lane, block) in blocks.iter().enumerate() {
            prop_assert_eq!(out[lane], aes.encrypt_block(*block), "lane {}", lane);
        }
    }
}
