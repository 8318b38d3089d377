//! Reference implementations of the hash compression functions.
//!
//! These are the original, deliberately plain formulations — SHA-1 with a
//! pre-expanded 80-word schedule and a per-round `match` for `(f, k)`, MD5
//! with a per-round `match` for `(f, g)` — kept verbatim so the unrolled
//! and hardware paths behind [`crate::sha1`], [`crate::md5`] and the lane
//! kernels have an independent implementation to be property-tested
//! against. The module is compiled for the crate's unit tests only.

use crate::{Md5Digest, Sha1Digest};

/// One SHA-1 block compression over `state`, reference formulation.
pub fn sha1_compress(state: &mut [u32; 5], block: &[u8; 64]) {
    let mut w = [0u32; 80];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes(chunk.try_into().expect("4 bytes"));
    }
    for i in 16..80 {
        w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
    }

    let [mut a, mut b, mut c, mut d, mut e] = *state;
    for (i, &wi) in w.iter().enumerate() {
        let (f, k) = match i {
            0..=19 => ((b & c) | ((!b) & d), 0x5A82_7999),
            20..=39 => (b ^ c ^ d, 0x6ED9_EBA1),
            40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1B_BCDC),
            _ => (b ^ c ^ d, 0xCA62_C1D6),
        };
        let temp = a
            .rotate_left(5)
            .wrapping_add(f)
            .wrapping_add(e)
            .wrapping_add(k)
            .wrapping_add(wi);
        e = d;
        d = c;
        c = b.rotate_left(30);
        b = a;
        a = temp;
    }

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
}

/// One MD5 block compression over `state`, reference formulation.
pub fn md5_compress(state: &mut [u32; 4], block: &[u8; 64]) {
    // Per-round shift amounts and sine-derived constants (RFC 1321).
    const S: [u32; 64] = [
        7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, //
        5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, //
        4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, //
        6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
    ];
    const K: [u32; 64] = [
        0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613,
        0xfd469501, 0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193,
        0xa679438e, 0x49b40821, 0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d,
        0x02441453, 0xd8a1e681, 0xe7d3fbc8, 0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed,
        0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a, 0xfffa3942, 0x8771f681, 0x6d9d6122,
        0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70, 0x289b7ec6, 0xeaa127fa,
        0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665, 0xf4292244,
        0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
        0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb,
        0xeb86d391,
    ];

    let mut m = [0u32; 16];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        m[i] = u32::from_le_bytes(chunk.try_into().expect("4 bytes"));
    }

    let [mut a, mut b, mut c, mut d] = *state;
    for i in 0..64 {
        let (f, g) = match i {
            0..=15 => ((b & c) | ((!b) & d), i),
            16..=31 => ((d & b) | ((!d) & c), (5 * i + 1) % 16),
            32..=47 => (b ^ c ^ d, (3 * i + 5) % 16),
            _ => (c ^ (b | !d), (7 * i) % 16),
        };
        let f = f.wrapping_add(a).wrapping_add(K[i]).wrapping_add(m[g]);
        a = d;
        d = c;
        c = b;
        b = b.wrapping_add(f.rotate_left(S[i]));
    }

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
}

/// One-shot reference SHA-1: plain padding plus [`sha1_compress`].
#[must_use]
pub fn sha1(data: &[u8]) -> Sha1Digest {
    let mut state = [
        0x6745_2301u32,
        0xEFCD_AB89,
        0x98BA_DCFE,
        0x1032_5476,
        0xC3D2_E1F0,
    ];
    for block in padded_blocks(data, false) {
        sha1_compress(&mut state, &block);
    }
    let mut out = [0u8; 20];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    Sha1Digest(out)
}

/// One-shot reference MD5: plain padding plus [`md5_compress`].
#[must_use]
pub fn md5(data: &[u8]) -> Md5Digest {
    let mut state = [0x6745_2301u32, 0xefcd_ab89, 0x98ba_dcfe, 0x1032_5476];
    for block in padded_blocks(data, true) {
        md5_compress(&mut state, &block);
    }
    let mut out = [0u8; 16];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
    }
    Md5Digest(out)
}

/// Merkle–Damgård padding: 0x80, zeros to 56 mod 64, then the bit length
/// (little-endian for MD5, big-endian for SHA-1).
fn padded_blocks(data: &[u8], little_endian_length: bool) -> Vec<[u8; 64]> {
    let mut msg = data.to_vec();
    msg.push(0x80);
    while msg.len() % 64 != 56 {
        msg.push(0);
    }
    let bits = (data.len() as u64).wrapping_mul(8);
    if little_endian_length {
        msg.extend_from_slice(&bits.to_le_bytes());
    } else {
        msg.extend_from_slice(&bits.to_be_bytes());
    }
    msg.chunks_exact(64)
        .map(|c| c.try_into().expect("64-byte block"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn reference_sha1_hits_fips_vectors() {
        assert_eq!(sha1(b"").to_hex(), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
        assert_eq!(sha1(b"abc").to_hex(), "a9993e364706816aba3e25717850c26c9cd0d89d");
    }

    #[test]
    fn reference_md5_hits_rfc_vectors() {
        assert_eq!(md5(b"").to_hex(), "d41d8cd98f00b204e9800998ecf8427e");
        assert_eq!(md5(b"abc").to_hex(), "900150983cd24fb0d6963f7d28e17f72");
    }

    #[test]
    fn fast_paths_match_reference_across_lengths() {
        let data: Vec<u8> = (0u32..1000).map(|i| (i * 37 % 256) as u8).collect();
        for len in [0usize, 1, 8, 55, 56, 57, 63, 64, 65, 128, 500, 1000] {
            assert_eq!(crate::sha1(&data[..len]), sha1(&data[..len]), "sha1 len {len}");
            assert_eq!(crate::md5(&data[..len]), md5(&data[..len]), "md5 len {len}");
        }
    }

    proptest! {
        /// The unrolled SHA-1 compression (circular 16-word schedule, phase
        /// split) is bit-exact with the plain reference formulation on random
        /// inputs of random lengths, including multi-block ones.
        #[test]
        fn sha1_fast_path_matches_reference(data in proptest::collection::vec(any::<u8>(), 0..300)) {
            prop_assert_eq!(crate::sha1(&data), sha1(&data));
        }

        /// Same for the phase-split MD5 compression.
        #[test]
        fn md5_fast_path_matches_reference(data in proptest::collection::vec(any::<u8>(), 0..300)) {
            prop_assert_eq!(crate::md5(&data), md5(&data));
        }

        /// The 4-lane SHA-1 kernel is bit-exact with the reference
        /// implementation on four independent random lines.
        #[test]
        fn sha1_four_lane_matches_reference(a in proptest::array::uniform32(any::<u8>()),
                                            b in proptest::array::uniform32(any::<u8>())) {
            let mut lines = [[0u8; 64]; 4];
            for (l, line) in lines.iter_mut().enumerate() {
                for i in 0..32 {
                    line[i] = a[i].rotate_left(l as u32);
                    line[32 + i] = b[i].wrapping_add(l as u8);
                }
            }
            let digests = crate::sha1_lines4(&lines);
            for (digest, line) in digests.iter().zip(&lines) {
                prop_assert_eq!(*digest, sha1(line));
            }
        }

        /// Same for the 4-lane MD5 kernel.
        #[test]
        fn md5_four_lane_matches_reference(a in proptest::array::uniform32(any::<u8>()),
                                           b in proptest::array::uniform32(any::<u8>())) {
            let mut lines = [[0u8; 64]; 4];
            for (l, line) in lines.iter_mut().enumerate() {
                for i in 0..32 {
                    line[i] = a[i].wrapping_mul(2 * l as u8 + 1);
                    line[32 + i] = b[i] ^ (l as u8 * 0x55);
                }
            }
            let digests = crate::md5_lines4(&lines);
            for (digest, line) in digests.iter().zip(&lines) {
                prop_assert_eq!(*digest, md5(line));
            }
        }

        /// Lane-tail batches (sizes straddling the 4-line groups, including
        /// 1, 3, 63 and 65) produce digest-for-digest the reference result
        /// through the batch drivers.
        #[test]
        fn hash_batches_match_reference_at_lane_tails(seed in proptest::array::uniform32(any::<u8>()),
                                                      pick in 0usize..8) {
            let len = [1usize, 2, 3, 4, 5, 63, 64, 65][pick];
            let lines: Vec<[u8; 64]> = (0..len)
                .map(|s| std::array::from_fn(|i| seed[i % 32].wrapping_add((s * 41 + i) as u8)))
                .collect();
            let mut sha = Vec::new();
            crate::sha1_batch(&lines, &mut sha);
            let mut md = Vec::new();
            crate::md5_batch(&lines, &mut md);
            prop_assert_eq!(sha.len(), len);
            prop_assert_eq!(md.len(), len);
            for (i, line) in lines.iter().enumerate() {
                prop_assert_eq!(sha[i], sha1(line));
                prop_assert_eq!(md[i], md5(line));
            }
        }
    }
}
