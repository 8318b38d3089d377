//! Hardware backends for the SHA-1 and MD5 kernels.
//!
//! Two implementations live here, both bit-exact with the scalar
//! compressions in `sha1.rs`/`md5.rs` (the unit tests and proptests hold
//! them to it):
//!
//! * [`sha1_compress_ni`] — one SHA-1 compression through the SHA
//!   extensions (`sha1rnds4`/`sha1nexte`/`sha1msg1`/`sha1msg2`), the
//!   canonical Intel round sequence with ABCD packed in one vector and E
//!   carried separately. The 4-lane SHA-1 kernel is four of these.
//! * [`md5_compress4_avx2`] — four independent MD5 compressions run
//!   vertically (AVX2-encoded 128-bit integer ops). Single-block MD5 stays
//!   scalar: each round depends on the previous, so only the 4-lane shape
//!   vectorizes.
//!
//! All `unsafe` in the crate lives here. Every kernel is
//! `#[target_feature]`-gated and must only be reached through the
//! `*_available` guards, which check the process kernel-backend selector
//! and the host CPUID bits.
#![deny(unsafe_op_in_unsafe_fn)]

use core::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_and_si128, _mm_loadu_si128, _mm_or_si128, _mm_set1_epi32,
    _mm_set_epi32, _mm_set_epi64x, _mm_sha1msg1_epu32, _mm_sha1msg2_epu32, _mm_sha1nexte_epu32,
    _mm_sha1rnds4_epu32, _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_sll_epi32, _mm_srl_epi32,
    _mm_storeu_si128, _mm_xor_si128,
};

/// Whether the SHA-NI path may run.
#[inline]
pub(crate) fn sha_ni_available() -> bool {
    esd_kernels::simd_allowed() && esd_kernels::cpu_features().sha
}

/// Whether the AVX2 4-lane MD5 path may run.
#[inline]
pub(crate) fn avx2_available() -> bool {
    esd_kernels::simd_allowed() && esd_kernels::cpu_features().avx2
}

/// One SHA-1 compression via the SHA extensions.
///
/// ABCD live in one vector (A in the top dword, hence the `0x1B` dword
/// reversal on load/store); E rides in the top dword of a second vector
/// and is advanced by `sha1nexte`. Each `sha1rnds4` executes four rounds
/// with the phase constant selected by its immediate.
///
/// # Safety
/// The host must support the `sha`, `ssse3` and `sse2` target features
/// (checked by [`sha_ni_available`]).
#[target_feature(enable = "sha", enable = "ssse3", enable = "sse2")]
pub(crate) unsafe fn sha1_compress_ni(state: &mut [u32; 5], block: &[u8; 64]) {
    // SAFETY: every intrinsic below requires only sha/ssse3/sse2, provided
    // by this function's target_feature gate (upheld by the caller); all
    // loads/stores are in-bounds unaligned accesses on owned arrays.
    unsafe {
        // Byte shuffle turning each 32-bit message word big-endian.
        let mask = _mm_set_epi64x(0x0001_0203_0405_0607, 0x0809_0a0b_0c0d_0e0f);

        let mut abcd = _mm_loadu_si128(state.as_ptr().cast::<__m128i>());
        abcd = _mm_shuffle_epi32::<0x1B>(abcd);
        let mut e0 = _mm_set_epi32(state[4] as i32, 0, 0, 0);
        let abcd_save = abcd;
        let e0_save = e0;

        let mut msg0 = _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().cast::<__m128i>()), mask);
        let mut msg1 =
            _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().add(16).cast::<__m128i>()), mask);
        let mut msg2 =
            _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().add(32).cast::<__m128i>()), mask);
        let mut msg3 =
            _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().add(48).cast::<__m128i>()), mask);

        // Rounds 0-3.
        e0 = _mm_add_epi32(e0, msg0);
        let mut e1 = abcd;
        abcd = _mm_sha1rnds4_epu32::<0>(abcd, e0);

        // Rounds 4-7.
        e1 = _mm_sha1nexte_epu32(e1, msg1);
        e0 = abcd;
        abcd = _mm_sha1rnds4_epu32::<0>(abcd, e1);
        msg0 = _mm_sha1msg1_epu32(msg0, msg1);

        // Rounds 8-11.
        e0 = _mm_sha1nexte_epu32(e0, msg2);
        e1 = abcd;
        abcd = _mm_sha1rnds4_epu32::<0>(abcd, e0);
        msg1 = _mm_sha1msg1_epu32(msg1, msg2);
        msg0 = _mm_xor_si128(msg0, msg2);

        // Rounds 12-15.
        e1 = _mm_sha1nexte_epu32(e1, msg3);
        e0 = abcd;
        msg0 = _mm_sha1msg2_epu32(msg0, msg3);
        abcd = _mm_sha1rnds4_epu32::<0>(abcd, e1);
        msg2 = _mm_sha1msg1_epu32(msg2, msg3);
        msg1 = _mm_xor_si128(msg1, msg3);

        // Rounds 16-19.
        e0 = _mm_sha1nexte_epu32(e0, msg0);
        e1 = abcd;
        msg1 = _mm_sha1msg2_epu32(msg1, msg0);
        abcd = _mm_sha1rnds4_epu32::<0>(abcd, e0);
        msg3 = _mm_sha1msg1_epu32(msg3, msg0);
        msg2 = _mm_xor_si128(msg2, msg0);

        // Rounds 20-23.
        e1 = _mm_sha1nexte_epu32(e1, msg1);
        e0 = abcd;
        msg2 = _mm_sha1msg2_epu32(msg2, msg1);
        abcd = _mm_sha1rnds4_epu32::<1>(abcd, e1);
        msg0 = _mm_sha1msg1_epu32(msg0, msg1);
        msg3 = _mm_xor_si128(msg3, msg1);

        // Rounds 24-27.
        e0 = _mm_sha1nexte_epu32(e0, msg2);
        e1 = abcd;
        msg3 = _mm_sha1msg2_epu32(msg3, msg2);
        abcd = _mm_sha1rnds4_epu32::<1>(abcd, e0);
        msg1 = _mm_sha1msg1_epu32(msg1, msg2);
        msg0 = _mm_xor_si128(msg0, msg2);

        // Rounds 28-31.
        e1 = _mm_sha1nexte_epu32(e1, msg3);
        e0 = abcd;
        msg0 = _mm_sha1msg2_epu32(msg0, msg3);
        abcd = _mm_sha1rnds4_epu32::<1>(abcd, e1);
        msg2 = _mm_sha1msg1_epu32(msg2, msg3);
        msg1 = _mm_xor_si128(msg1, msg3);

        // Rounds 32-35.
        e0 = _mm_sha1nexte_epu32(e0, msg0);
        e1 = abcd;
        msg1 = _mm_sha1msg2_epu32(msg1, msg0);
        abcd = _mm_sha1rnds4_epu32::<1>(abcd, e0);
        msg3 = _mm_sha1msg1_epu32(msg3, msg0);
        msg2 = _mm_xor_si128(msg2, msg0);

        // Rounds 36-39.
        e1 = _mm_sha1nexte_epu32(e1, msg1);
        e0 = abcd;
        msg2 = _mm_sha1msg2_epu32(msg2, msg1);
        abcd = _mm_sha1rnds4_epu32::<1>(abcd, e1);
        msg0 = _mm_sha1msg1_epu32(msg0, msg1);
        msg3 = _mm_xor_si128(msg3, msg1);

        // Rounds 40-43.
        e0 = _mm_sha1nexte_epu32(e0, msg2);
        e1 = abcd;
        msg3 = _mm_sha1msg2_epu32(msg3, msg2);
        abcd = _mm_sha1rnds4_epu32::<2>(abcd, e0);
        msg1 = _mm_sha1msg1_epu32(msg1, msg2);
        msg0 = _mm_xor_si128(msg0, msg2);

        // Rounds 44-47.
        e1 = _mm_sha1nexte_epu32(e1, msg3);
        e0 = abcd;
        msg0 = _mm_sha1msg2_epu32(msg0, msg3);
        abcd = _mm_sha1rnds4_epu32::<2>(abcd, e1);
        msg2 = _mm_sha1msg1_epu32(msg2, msg3);
        msg1 = _mm_xor_si128(msg1, msg3);

        // Rounds 48-51.
        e0 = _mm_sha1nexte_epu32(e0, msg0);
        e1 = abcd;
        msg1 = _mm_sha1msg2_epu32(msg1, msg0);
        abcd = _mm_sha1rnds4_epu32::<2>(abcd, e0);
        msg3 = _mm_sha1msg1_epu32(msg3, msg0);
        msg2 = _mm_xor_si128(msg2, msg0);

        // Rounds 52-55.
        e1 = _mm_sha1nexte_epu32(e1, msg1);
        e0 = abcd;
        msg2 = _mm_sha1msg2_epu32(msg2, msg1);
        abcd = _mm_sha1rnds4_epu32::<2>(abcd, e1);
        msg0 = _mm_sha1msg1_epu32(msg0, msg1);
        msg3 = _mm_xor_si128(msg3, msg1);

        // Rounds 56-59.
        e0 = _mm_sha1nexte_epu32(e0, msg2);
        e1 = abcd;
        msg3 = _mm_sha1msg2_epu32(msg3, msg2);
        abcd = _mm_sha1rnds4_epu32::<2>(abcd, e0);
        msg1 = _mm_sha1msg1_epu32(msg1, msg2);
        msg0 = _mm_xor_si128(msg0, msg2);

        // Rounds 60-63.
        e1 = _mm_sha1nexte_epu32(e1, msg3);
        e0 = abcd;
        msg0 = _mm_sha1msg2_epu32(msg0, msg3);
        abcd = _mm_sha1rnds4_epu32::<3>(abcd, e1);
        msg2 = _mm_sha1msg1_epu32(msg2, msg3);
        msg1 = _mm_xor_si128(msg1, msg3);

        // Rounds 64-67.
        e0 = _mm_sha1nexte_epu32(e0, msg0);
        e1 = abcd;
        msg1 = _mm_sha1msg2_epu32(msg1, msg0);
        abcd = _mm_sha1rnds4_epu32::<3>(abcd, e0);
        msg3 = _mm_sha1msg1_epu32(msg3, msg0);
        msg2 = _mm_xor_si128(msg2, msg0);

        // Rounds 68-71.
        e1 = _mm_sha1nexte_epu32(e1, msg1);
        e0 = abcd;
        msg2 = _mm_sha1msg2_epu32(msg2, msg1);
        abcd = _mm_sha1rnds4_epu32::<3>(abcd, e1);
        msg3 = _mm_xor_si128(msg3, msg1);

        // Rounds 72-75.
        e0 = _mm_sha1nexte_epu32(e0, msg2);
        e1 = abcd;
        msg3 = _mm_sha1msg2_epu32(msg3, msg2);
        abcd = _mm_sha1rnds4_epu32::<3>(abcd, e0);

        // Rounds 76-79.
        e1 = _mm_sha1nexte_epu32(e1, msg3);
        e0 = abcd;
        abcd = _mm_sha1rnds4_epu32::<3>(abcd, e1);

        // Fold the compressed state into the chaining value.
        e0 = _mm_sha1nexte_epu32(e0, e0_save);
        abcd = _mm_add_epi32(abcd, abcd_save);

        abcd = _mm_shuffle_epi32::<0x1B>(abcd);
        _mm_storeu_si128(state.as_mut_ptr().cast::<__m128i>(), abcd);
        let mut e_out = [0u32; 4];
        _mm_storeu_si128(e_out.as_mut_ptr().cast::<__m128i>(), e0);
        state[4] = e_out[3];
    }
}

/// Little-endian message word `i` of `block` as an `i32`.
#[inline]
fn le_word(block: &[u8; 64], i: usize) -> i32 {
    u32::from_le_bytes(block[4 * i..4 * i + 4].try_into().expect("4 bytes")) as i32
}

/// Four MD5 compressions run vertically, one lane per message, compiled
/// with AVX2 enabled (three-operand VEX forms of the 128-bit integer ops).
///
/// Mirrors the scalar `md5_compress4` phase structure; the message-word
/// index and shift amount are uniform across lanes within a round, which
/// is what makes the vertical form work.
///
/// # Safety
/// The host must support the `avx2` target feature (checked by
/// [`avx2_available`]).
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn md5_compress4_avx2(states: &mut [[u32; 4]; 4], blocks: [&[u8; 64]; 4]) {
    // Rotate each 32-bit lane left by a runtime amount (MD5's shift varies
    // within a phase, so the count rides in a vector register).
    macro_rules! rotl_var {
        ($v:expr, $n:expr) => {
            _mm_or_si128(
                _mm_sll_epi32($v, _mm_set_epi32(0, 0, 0, $n as i32)),
                _mm_srl_epi32($v, _mm_set_epi32(0, 0, 0, 32 - $n as i32)),
            )
        };
    }

    // SAFETY: only sse2-class vector ops (VEX-encoded under this function's
    // avx2 target_feature gate, upheld by the caller); lane extraction at
    // the end stores to owned stack arrays.
    unsafe {
        // Transposed message: m[g] holds word g of all four blocks.
        let mut m = [_mm_set1_epi32(0); 16];
        for (g, word) in m.iter_mut().enumerate() {
            *word = _mm_set_epi32(
                le_word(blocks[3], g),
                le_word(blocks[2], g),
                le_word(blocks[1], g),
                le_word(blocks[0], g),
            );
        }

        let mut a = _mm_set_epi32(
            states[3][0] as i32,
            states[2][0] as i32,
            states[1][0] as i32,
            states[0][0] as i32,
        );
        let mut b = _mm_set_epi32(
            states[3][1] as i32,
            states[2][1] as i32,
            states[1][1] as i32,
            states[0][1] as i32,
        );
        let mut c = _mm_set_epi32(
            states[3][2] as i32,
            states[2][2] as i32,
            states[1][2] as i32,
            states[0][2] as i32,
        );
        let mut d = _mm_set_epi32(
            states[3][3] as i32,
            states[2][3] as i32,
            states[1][3] as i32,
            states[0][3] as i32,
        );

        macro_rules! round {
            ($f:expr, $g:expr, $i:expr) => {{
                let t = _mm_add_epi32(
                    _mm_add_epi32($f, a),
                    _mm_add_epi32(_mm_set1_epi32(crate::md5::K[$i] as i32), m[$g]),
                );
                let next_b = _mm_add_epi32(b, rotl_var!(t, crate::md5::S[$i]));
                a = d;
                d = c;
                c = b;
                b = next_b;
            }};
        }

        let ones = _mm_set1_epi32(-1);
        // F(b, c, d) = (b & c) | (!b & d), as d ^ (b & (c ^ d)).
        macro_rules! f1 {
            () => {
                _mm_xor_si128(d, _mm_and_si128(b, _mm_xor_si128(c, d)))
            };
        }
        // G(b, c, d) = (d & b) | (!d & c), as c ^ (d & (b ^ c)).
        macro_rules! f2 {
            () => {
                _mm_xor_si128(c, _mm_and_si128(d, _mm_xor_si128(b, c)))
            };
        }
        macro_rules! f3 {
            () => {
                _mm_xor_si128(b, _mm_xor_si128(c, d))
            };
        }
        // I(b, c, d) = c ^ (b | !d).
        macro_rules! f4 {
            () => {
                _mm_xor_si128(c, _mm_or_si128(b, _mm_xor_si128(d, ones)))
            };
        }

        // The four round groups share the same indexed-macro shape; the
        // first happens to use `i` as both message and round index.
        #[allow(clippy::needless_range_loop)]
        for i in 0..16 {
            round!(f1!(), i, i);
        }
        for i in 16..32 {
            round!(f2!(), (5 * i + 1) % 16, i);
        }
        for i in 32..48 {
            round!(f3!(), (3 * i + 5) % 16, i);
        }
        for i in 48..64 {
            round!(f4!(), (7 * i) % 16, i);
        }

        let mut lanes = [[0u32; 4]; 4];
        _mm_storeu_si128(lanes[0].as_mut_ptr().cast::<__m128i>(), a);
        _mm_storeu_si128(lanes[1].as_mut_ptr().cast::<__m128i>(), b);
        _mm_storeu_si128(lanes[2].as_mut_ptr().cast::<__m128i>(), c);
        _mm_storeu_si128(lanes[3].as_mut_ptr().cast::<__m128i>(), d);
        for (l, state) in states.iter_mut().enumerate() {
            for (word, lane) in state.iter_mut().zip(&lanes) {
                *word = word.wrapping_add(lane[l]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{md5, sha1, md5_lines4, sha1_lines4, Sha1};

    fn lines(seed: u8) -> [[u8; 64]; 4] {
        std::array::from_fn(|l| {
            std::array::from_fn(|i| (l * 64 + i) as u8 ^ seed ^ (i as u8).wrapping_mul(29))
        })
    }

    #[test]
    fn sha_ni_compress_matches_scalar_streaming() {
        if !super::sha_ni_available() {
            return;
        }
        // `Sha1::update`/`finalize` route every compression through the
        // SHA-NI block; long odd-boundary inputs exercise the chaining.
        let data: Vec<u8> = (0u32..1000).map(|i| (i * 17 % 251) as u8).collect();
        let mut h = Sha1::new();
        for chunk in data.chunks(37) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), sha1(&data));
        assert_eq!(sha1(b"abc").to_hex(), "a9993e364706816aba3e25717850c26c9cd0d89d");
    }

    #[test]
    fn dispatched_lane_kernels_match_one_shot() {
        for seed in [0x11, 0x80, 0xE7] {
            let input = lines(seed);
            let sha_digests = sha1_lines4(&input);
            let md5_digests = md5_lines4(&input);
            for l in 0..4 {
                assert_eq!(sha_digests[l], sha1(&input[l]), "sha1 lane {l}");
                assert_eq!(md5_digests[l], md5(&input[l]), "md5 lane {l}");
            }
        }
    }
}
