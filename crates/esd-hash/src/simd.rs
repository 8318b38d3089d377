//! Hardware backends for the SHA-1 and MD5 kernels.
//!
//! Two kernels live here, both bit-exact with the scalar code in
//! `sha1.rs`/`md5.rs` (the unit tests and proptests hold them to it):
//!
//! * SHA-1 through the SHA extensions (`sha1rnds4`/`sha1nexte`/
//!   `sha1msg1`/`sha1msg2`), ABCD packed in one vector and E carried
//!   separately. One round sequence, [`rounds_ni`], runs over a block's 20
//!   four-word message operands: computed by [`schedule_ni`] for a data
//!   block, the constant [`PAD_OPERANDS`] for the padding block of a
//!   64-byte line. [`sha1_line`] hashes a whole line with the chaining
//!   value kept in registers; [`sha1_compress`] is one block of a
//!   streaming hash.
//! * [`md5_compress4`] — four independent MD5 compressions run vertically
//!   (AVX2-encoded 128-bit integer ops). Single-block MD5 stays scalar:
//!   each round depends on the previous, so only the 4-lane shape
//!   vectorizes.
//!
//! All `unsafe` in the crate lives here (the crate denies it elsewhere).
//! Every kernel is `#[target_feature]`-gated and reached only through the
//! safe entry points above, which check the process kernel-backend selector
//! and the host CPUID bits first and run the scalar fallback they are
//! handed when the hardware path may not run.
#![deny(unsafe_op_in_unsafe_fn)]

use core::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_and_si128, _mm_loadu_si128, _mm_or_si128, _mm_set1_epi32,
    _mm_set_epi32, _mm_set_epi64x, _mm_setzero_si128, _mm_sha1msg1_epu32, _mm_sha1msg2_epu32,
    _mm_sha1nexte_epu32, _mm_sha1rnds4_epu32, _mm_shuffle_epi8, _mm_sll_epi32, _mm_srl_epi32,
    _mm_storeu_si128, _mm_xor_si128,
};

/// Whether the SHA-NI path may run.
#[inline]
fn sha_ni_available() -> bool {
    esd_kernels::simd_allowed() && esd_kernels::cpu_features().sha
}

/// Whether the AVX2 4-lane MD5 path may run.
#[inline]
fn avx2_available() -> bool {
    esd_kernels::simd_allowed() && esd_kernels::cpu_features().avx2
}

/// One SHA-1 compression of `block` into `state` through the SHA
/// extensions when the backend allows SIMD and the host has them,
/// otherwise through `scalar`.
#[inline]
pub(crate) fn sha1_compress(
    state: &mut [u32; 5],
    block: &[u8; 64],
    scalar: impl FnOnce(&mut [u32; 5], &[u8; 64]),
) {
    if sha_ni_available() {
        // SAFETY: `sha_ni_available` confirmed the `sha`+`ssse3`+`sse2` CPU
        // features at runtime.
        unsafe { sha1_compress_ni(state, block) }
    } else {
        scalar(state, block);
    }
}

/// The final SHA-1 chaining value of one 64-byte line (its block, then the
/// constant padding block) through the SHA extensions when the backend
/// allows SIMD and the host has them, otherwise through `scalar`. The
/// fallback is a parameter, not an `Option` return, so the result is
/// written straight into the caller's return slot.
#[inline]
pub(crate) fn sha1_line(line: &[u8; 64], scalar: impl FnOnce(&[u8; 64]) -> [u32; 5]) -> [u32; 5] {
    if sha_ni_available() {
        // SAFETY: `sha_ni_available` confirmed the `sha`+`ssse3`+`sse2` CPU
        // features at runtime.
        unsafe { sha1_line_ni(line) }
    } else {
        scalar(line)
    }
}

/// Four MD5 compressions run vertically through AVX2 when the backend
/// allows SIMD and the host has it, otherwise through `scalar`.
#[inline]
pub(crate) fn md5_compress4<'a>(
    states: &mut [[u32; 4]; 4],
    blocks: [&'a [u8; 64]; 4],
    scalar: impl FnOnce(&mut [[u32; 4]; 4], [&'a [u8; 64]; 4]),
) {
    if avx2_available() {
        // SAFETY: `avx2_available` confirmed the `avx2` CPU feature at
        // runtime.
        unsafe { md5_compress4_avx2(states, blocks) }
    } else {
        scalar(states, blocks);
    }
}

/// [`crate::sha1::SHA1_LINE_PAD_SCHEDULE`] as the 20 four-word operands
/// `sha1rnds4` takes: word `4i` in the top dword, as a byte-reversed load
/// of the block would place it.
const PAD_OPERANDS: [__m128i; 20] = {
    let w = crate::sha1::SHA1_LINE_PAD_SCHEDULE;
    let mut ops = [[0u32; 4]; 20];
    let mut i = 0;
    while i < 20 {
        ops[i] = [w[4 * i + 3], w[4 * i + 2], w[4 * i + 1], w[4 * i]];
        i += 1;
    }
    // SAFETY: `[[u32; 4]; 20]` and `[__m128i; 20]` have the same size, and
    // every bit pattern is a valid `__m128i`.
    unsafe { core::mem::transmute::<[[u32; 4]; 20], [__m128i; 20]>(ops) }
};

/// The 20 four-word message operands of `block`: its four byte-reversed
/// 16-byte loads (each word big-endian, word `4i` in the top dword), then
/// `sha1msg1`/`sha1msg2` for the other sixteen.
#[inline]
#[target_feature(enable = "sha", enable = "ssse3", enable = "sse2")]
fn schedule_ni(block: &[u8; 64]) -> [__m128i; 20] {
    let mask = _mm_set_epi64x(0x0001_0203_0405_0607, 0x0809_0a0b_0c0d_0e0f);
    let mut w = [_mm_setzero_si128(); 20];
    for (word, bytes) in w[..4].iter_mut().zip(block.chunks_exact(16)) {
        // SAFETY: `bytes` is 16 readable bytes; `loadu` needs no alignment.
        let bytes = unsafe { _mm_loadu_si128(bytes.as_ptr().cast::<__m128i>()) };
        *word = _mm_shuffle_epi8(bytes, mask);
    }
    for i in 4..20 {
        let mixed = _mm_xor_si128(_mm_sha1msg1_epu32(w[i - 4], w[i - 3]), w[i - 2]);
        w[i] = _mm_sha1msg2_epu32(mixed, w[i - 1]);
    }
    w
}

/// The 80 rounds of one block over its operands `w`, folded into the
/// chaining value: ABCD packed in one vector (A in the top dword), E in the
/// top dword of a second, advanced by `sha1nexte`. Each `sha1rnds4` runs
/// four rounds with the phase function its immediate selects.
#[inline]
#[target_feature(enable = "sha", enable = "sse2")]
fn rounds_ni(abcd: __m128i, e: __m128i, w: &[__m128i; 20]) -> (__m128i, __m128i) {
    let mut next = _mm_sha1rnds4_epu32::<0>(abcd, _mm_add_epi32(e, w[0]));
    let mut prev = abcd;
    macro_rules! phase {
        ($func:literal, $range:expr) => {
            for &wi in &w[$range] {
                let e = _mm_sha1nexte_epu32(prev, wi);
                prev = next;
                next = _mm_sha1rnds4_epu32::<$func>(next, e);
            }
        };
    }
    phase!(0, 1..5);
    phase!(1, 5..10);
    phase!(2, 10..15);
    phase!(3, 15..20);
    (_mm_add_epi32(next, abcd), _mm_sha1nexte_epu32(prev, e))
}

/// Packs a chaining value into the `(abcd, e)` vectors [`rounds_ni`] takes.
#[inline]
#[target_feature(enable = "sse2")]
fn pack(state: &[u32; 5]) -> (__m128i, __m128i) {
    let [a, b, c, d, e] = state.map(|word| word as i32);
    (_mm_set_epi32(a, b, c, d), _mm_set_epi32(e, 0, 0, 0))
}

/// Unpacks [`rounds_ni`]'s `(abcd, e)` vectors into a chaining value.
#[inline]
#[target_feature(enable = "sse2")]
fn unpack(abcd: __m128i, e: __m128i) -> [u32; 5] {
    let mut words = [0u32; 8];
    // SAFETY: two in-bounds unaligned 16-byte stores into `words`.
    unsafe {
        _mm_storeu_si128(words.as_mut_ptr().cast::<__m128i>(), abcd);
        _mm_storeu_si128(words.as_mut_ptr().add(4).cast::<__m128i>(), e);
    }
    [words[3], words[2], words[1], words[0], words[7]]
}

/// One SHA-1 compression via the SHA extensions.
///
/// # Safety
/// The host must support the `sha`, `ssse3` and `sse2` target features
/// (checked by [`sha1_compress`]).
#[target_feature(enable = "sha", enable = "ssse3", enable = "sse2")]
unsafe fn sha1_compress_ni(state: &mut [u32; 5], block: &[u8; 64]) {
    let (abcd, e) = pack(state);
    let (abcd, e) = rounds_ni(abcd, e, &schedule_ni(block));
    *state = unpack(abcd, e);
}

/// SHA-1 of one 64-byte line via the SHA extensions: the line's schedule
/// and rounds, then the rounds over the padding block's constant
/// operands, with the chaining value kept in registers between them.
///
/// # Safety
/// The host must support the `sha`, `ssse3` and `sse2` target features
/// (checked by [`sha1_line`]).
#[target_feature(enable = "sha", enable = "ssse3", enable = "sse2")]
unsafe fn sha1_line_ni(line: &[u8; 64]) -> [u32; 5] {
    let (abcd, e) = pack(&crate::sha1::SHA1_INIT);
    let (abcd, e) = rounds_ni(abcd, e, &schedule_ni(line));
    let (abcd, e) = rounds_ni(abcd, e, &PAD_OPERANDS);
    unpack(abcd, e)
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
/// [`md5_compress4`]).
#[target_feature(enable = "avx2")]
unsafe fn md5_compress4_avx2(states: &mut [[u32; 4]; 4], blocks: [&[u8; 64]; 4]) {
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
    use super::*;
    use crate::{md5, md5_lines4, sha1, sha1_line, Sha1};

    fn lines(seed: u8) -> [[u8; 64]; 4] {
        std::array::from_fn(|l| {
            std::array::from_fn(|i| (l * 64 + i) as u8 ^ seed ^ (i as u8).wrapping_mul(29))
        })
    }

    #[test]
    fn sha_ni_compress_matches_scalar_streaming() {
        if !sha_ni_available() {
            return;
        }
        // `Sha1::update`/`finalize` route every compression through the
        // SHA-NI block; long odd-boundary inputs exercise the chaining.
        let data: Vec<u8> = (0u32..1000).map(|i| (i * 17 % 251) as u8).collect();
        let mut h = Sha1::new();
        for chunk in data.chunks(37) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), crate::reference::sha1(&data));
        assert_eq!(
            sha1(b"abc").to_hex(),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
    }

    #[test]
    fn pad_operands_are_the_computed_schedule() {
        if !sha_ni_available() {
            return;
        }
        // SAFETY: `sha_ni_available` confirmed the features.
        let computed = unsafe { schedule_ni(&crate::sha1::SHA1_LINE_PAD) };
        let as_words = |ops: &[__m128i; 20]| {
            ops.map(|op| {
                let mut words = [0u32; 4];
                // SAFETY: one in-bounds unaligned 16-byte store.
                unsafe { _mm_storeu_si128(words.as_mut_ptr().cast::<__m128i>(), op) };
                words
            })
        };
        assert_eq!(as_words(&PAD_OPERANDS), as_words(&computed));
    }

    #[test]
    fn dispatched_kernels_match_one_shot() {
        for seed in [0x11, 0x80, 0xE7] {
            let input = lines(seed);
            let md5_digests = md5_lines4(&input);
            for l in 0..4 {
                assert_eq!(sha1_line(&input[l]), sha1(&input[l]), "sha1 line {l}");
                assert_eq!(md5_digests[l], md5(&input[l]), "md5 lane {l}");
            }
        }
    }
}
