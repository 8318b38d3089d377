//! The GFNI line-code kernel: all eight word codes of a line in one
//! affine instruction.
//!
//! All `unsafe` in the crate lives here. The kernel is
//! `#[target_feature]`-gated and reached only through [`line_code`], which
//! checks the process kernel-backend selector and the host CPUID bits
//! first.
#![deny(unsafe_op_in_unsafe_fn)]

use core::arch::x86_64::{
    __m512i, _mm256_castsi256_si128, _mm256_extracti128_si256, _mm256_xor_si256,
    _mm512_castsi512_si256, _mm512_extracti64x4_epi64, _mm512_gf2p8affine_epi64_epi8,
    _mm512_loadu_si512, _mm512_permutexvar_epi8, _mm_cvtsi128_si64, _mm_unpackhi_epi64,
    _mm_xor_si128,
};

use crate::line::LINE_BYTES;

/// The `vpermb` index that transposes the line's 8×8 byte matrix: output
/// byte `8 * j + w` is input byte `8 * w + j`, so qword `j` holds byte `j`
/// of every word.
const TRANSPOSE: [u8; 64] = {
    let mut index = [0u8; 64];
    let mut i = 0;
    while i < 64 {
        index[i] = ((i % 8) * 8 + i / 8) as u8;
        i += 1;
    }
    index
};

/// The packed line code (byte `w` is word `w`'s code) under the per-byte
/// matrices `affine`, or `None` when the backend is `Scalar` or the host
/// lacks GFNI, AVX-512 BW or AVX-512 VBMI.
#[inline]
pub(crate) fn line_code(line: &[u8; LINE_BYTES], affine: &[u64; 8]) -> Option<u64> {
    if esd_kernels::simd_allowed() && esd_kernels::cpu_features().gfni {
        // SAFETY: `cpu_features().gfni` is set only when gfni, avx512f,
        // avx512bw and avx512vbmi are all detected on this host.
        Some(unsafe { line_code_gfni(line, affine) })
    } else {
        None
    }
}

/// # Safety
/// The host must support the `gfni`, `avx512f`, `avx512bw` and
/// `avx512vbmi` target features (checked by [`line_code`]).
#[target_feature(enable = "gfni,avx512f,avx512bw,avx512vbmi")]
unsafe fn line_code_gfni(line: &[u8; LINE_BYTES], affine: &[u64; 8]) -> u64 {
    // SAFETY: the three loads read 64 bytes from owned 64-byte arrays
    // (unaligned loads); every intrinsic needs only the features this
    // function's target_feature gate enables.
    unsafe {
        let data = _mm512_loadu_si512(line.as_ptr().cast::<__m512i>());
        let transpose = _mm512_loadu_si512(TRANSPOSE.as_ptr().cast::<__m512i>());
        let matrices = _mm512_loadu_si512(affine.as_ptr().cast::<__m512i>());
        // Qword j: byte j of words 0..8, each mapped through M_j.
        let bytes_by_position = _mm512_permutexvar_epi8(transpose, data);
        let terms = _mm512_gf2p8affine_epi64_epi8::<0>(bytes_by_position, matrices);
        // Word w's code is the XOR of byte w over the eight qwords.
        let half = _mm256_xor_si256(
            _mm512_castsi512_si256(terms),
            _mm512_extracti64x4_epi64::<1>(terms),
        );
        let quarter = _mm_xor_si128(
            _mm256_castsi256_si128(half),
            _mm256_extracti128_si256::<1>(half),
        );
        _mm_cvtsi128_si64(_mm_xor_si128(quarter, _mm_unpackhi_epi64(quarter, quarter))) as u64
    }
}
