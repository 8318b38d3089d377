//! An FxHash-style multiply-xor hasher, written in-repo.
//!
//! The keys on the simulator's hot paths are line addresses and 64-bit
//! fingerprints — already well-mixed or trivially mixable — so the DoS
//! resistance `std`'s SipHash buys is pure overhead here. This module
//! provides the classic multiply-xor finisher used by rustc's FxHashMap
//! (one multiply by a 64-bit odd constant per word, one xor-rotate), plus
//! a [`std::hash::Hasher`]/[`std::hash::BuildHasher`] pair so generic
//! `K: Hash` containers can use it.
//!
//! Hashing is deterministic (no per-process seed): identical inputs hash
//! identically across runs, which the replay-determinism tests rely on.

use std::hash::{BuildHasher, Hasher};

/// 2^64 / phi, the multiplicative constant Fx-style hashers use: odd, with
/// well-distributed bits, so multiplication diffuses low-entropy keys.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Mixes one 64-bit word into a running hash: rotate, xor, multiply.
#[inline]
#[must_use]
pub fn mix(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(5) ^ word).wrapping_mul(SEED)
}

/// Hashes a single `u64` key (the common case on the simulator's hot
/// paths) in two multiplies' worth of work.
///
/// The extra xor-shift finisher matters: open-addressed tables take the
/// *high* bits' entropy down into the index mask, and line addresses are
/// 64-aligned (six zero low bits).
///
/// # Examples
///
/// ```
/// use esd_collections::fx::hash_u64;
/// assert_ne!(hash_u64(0x40), hash_u64(0x80));
/// assert_eq!(hash_u64(7), hash_u64(7)); // deterministic, unseeded
/// ```
#[inline]
#[must_use]
pub fn hash_u64(key: u64) -> u64 {
    let h = mix(0, key);
    h ^ (h >> 32)
}

/// A [`Hasher`] over the multiply-xor mixer, for generic `K: Hash` keys.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash ^ (self.hash >> 32)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.hash = mix(self.hash, u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.hash = mix(self.hash, u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        self.hash = mix(self.hash, value);
    }

    #[inline]
    fn write_u32(&mut self, value: u32) {
        self.hash = mix(self.hash, u64::from(value));
    }

    #[inline]
    fn write_u8(&mut self, value: u8) {
        self.hash = mix(self.hash, u64::from(value));
    }

    #[inline]
    fn write_usize(&mut self, value: usize) {
        self.hash = mix(self.hash, value as u64);
    }
}

/// A [`BuildHasher`] producing [`FxHasher`]s, for use as a `HashMap`/
/// custom-container hasher parameter.
///
/// # Examples
///
/// ```
/// use std::hash::BuildHasher;
/// use esd_collections::FxBuildHasher;
/// let build = FxBuildHasher;
/// assert_eq!(build.hash_one(42u64), build.hash_one(42u64));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct FxBuildHasher;

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn u64_fast_path_matches_hasher() {
        // The specialized hash_u64 must agree with the generic Hasher so a
        // key hashed either way lands in the same table slot.
        for key in [0u64, 1, 0x40, 0xDEAD_BEEF, u64::MAX] {
            assert_eq!(hash_u64(key), FxBuildHasher.hash_one(key));
        }
    }

    #[test]
    fn aligned_addresses_spread_in_low_bits() {
        // Line addresses are 64-aligned; their hashes must still differ in
        // the low bits an index mask keeps.
        let mut low = std::collections::HashSet::new();
        for i in 0..1024u64 {
            low.insert(hash_u64(i * 64) & 0x3FF);
        }
        assert!(
            low.len() > 512,
            "only {} distinct low-10-bit values",
            low.len()
        );
    }

    #[test]
    fn write_handles_unaligned_tails() {
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 3, 0, 0]);
        // Different lengths zero-pad differently only through chunking; the
        // point is simply that both produce stable, nonzero hashes.
        assert_ne!(a.finish(), 0);
        assert_ne!(b.finish(), 0);
    }
}
