//! `pshufb` nibble-LUT backend for the Hamming(72,64) line encoder.
//!
//! The code is XOR-linear, so a word's 8-bit ECC is the XOR of eight
//! per-byte contributions `ENC_TABLE[j][byte_j]`. Each 256-entry table row
//! splits into two 16-entry nibble tables (`T[j][x] = TLO[j][x & 15] ^
//! THI[j][x >> 4]`, again by linearity), which is exactly the shape
//! `pshufb` evaluates: 16 parallel 4-bit lookups per instruction. A vector
//! of line bytes becomes a vector of contribution bytes in two shuffles
//! per byte position, and an XOR-fold within each 64-bit lane produces the
//! word's code — data parity, check bits and overall parity all at once,
//! because the tables already carry the full 8-bit contribution.
//!
//! The same pass drives both [`encode_line`](crate::encode_line) and the
//! expected-code (syndrome) comparison in
//! [`decode_line`](crate::decode_line); it is bit-exact with the scalar
//! `ENC_TABLE` fold by construction and by the equivalence tests below.
//!
//! All `unsafe` in the crate lives here, `#[target_feature]`-gated and
//! reachable only through [`available`], which checks the process
//! kernel-backend selector and the host CPUID bits.
#![deny(unsafe_op_in_unsafe_fn)]

use core::arch::x86_64::{
    __m128i, __m256i, _mm256_and_si256, _mm256_loadu_si256, _mm256_set1_epi8,
    _mm256_setzero_si256, _mm256_shuffle_epi8, _mm256_srli_epi16, _mm256_srli_epi64,
    _mm256_storeu_si256, _mm256_xor_si256, _mm_and_si128, _mm_loadu_si128, _mm_set1_epi8,
    _mm_setzero_si128, _mm_shuffle_epi8, _mm_srli_epi16, _mm_srli_epi64, _mm_storeu_si128,
    _mm_xor_si128,
};

use crate::hamming::ENC_TABLE;
use crate::line::{LINE_BYTES, WORDS_PER_LINE};

/// Whether the SIMD line encoder may run (`pshufb` needs SSSE3; the wider
/// AVX2 form is picked automatically when present).
#[inline]
pub(crate) fn available() -> bool {
    esd_kernels::simd_allowed() && esd_kernels::cpu_features().ssse3
}

/// Low-nibble contribution tables: `TLO[j][n] = ENC_TABLE[j][n]` for
/// `n < 16`, replicated into both 128-bit halves for `vpshufb`.
const TLO: [[u8; 32]; 8] = nibble_tables(false);
/// High-nibble contribution tables: `THI[j][n] = ENC_TABLE[j][n << 4]`.
const THI: [[u8; 32]; 8] = nibble_tables(true);
/// Byte-position masks: `POS[j]` selects the bytes at position `j` within
/// every 8-byte word of a vector.
const POS: [[u8; 32]; 8] = position_masks();

const fn nibble_tables(high: bool) -> [[u8; 32]; 8] {
    let mut tables = [[0u8; 32]; 8];
    let mut j = 0;
    while j < 8 {
        let mut n = 0;
        while n < 16 {
            let value = if high { ENC_TABLE[j][n << 4] } else { ENC_TABLE[j][n] };
            tables[j][n] = value;
            tables[j][n + 16] = value;
            n += 1;
        }
        j += 1;
    }
    tables
}

const fn position_masks() -> [[u8; 32]; 8] {
    let mut masks = [[0u8; 32]; 8];
    let mut j = 0;
    while j < 8 {
        let mut p = j;
        while p < 32 {
            masks[j][p] = 0xFF;
            p += 8;
        }
        j += 1;
    }
    masks
}

/// Computes the eight per-word codes of a line, dispatching to the widest
/// `pshufb` form the host supports. Callers must have checked
/// [`available`].
#[inline]
pub(crate) fn line_codes(line: &[u8; LINE_BYTES]) -> [u8; WORDS_PER_LINE] {
    // Only the CPU half of `available`: the backend half is a process-wide
    // switch another thread may flip between the caller's check and here
    // (tests that force `Scalar` while others run), and soundness does not
    // depend on it.
    debug_assert!(esd_kernels::cpu_features().ssse3);
    if esd_kernels::cpu_features().avx2 {
        // SAFETY: `cpu_features().avx2` confirmed the `avx2` CPU feature
        // at runtime before taking this path.
        unsafe { line_codes_avx2(line) }
    } else {
        // SAFETY: `available` (its CPU half debug-asserted above, checked
        // by every caller) confirmed the `ssse3`+`sse2` CPU features at
        // runtime.
        unsafe { line_codes_ssse3(line) }
    }
}

/// AVX2 form: two 32-byte vectors per line, four words each.
///
/// # Safety
/// The host must support the `avx2` target feature.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn line_codes_avx2(line: &[u8; LINE_BYTES]) -> [u8; WORDS_PER_LINE] {
    // SAFETY: only avx2 vector ops below, provided by this function's
    // target_feature gate (upheld by the caller); all loads/stores are
    // in-bounds unaligned accesses on owned arrays and `const` tables.
    unsafe {
        let low_nibble = _mm256_set1_epi8(0x0f);
        let mut codes = [0u8; WORDS_PER_LINE];
        for half in 0..2 {
            let v = _mm256_loadu_si256(line.as_ptr().add(32 * half).cast::<__m256i>());
            let lo = _mm256_and_si256(v, low_nibble);
            let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(v), low_nibble);
            let mut acc = _mm256_setzero_si256();
            for j in 0..8 {
                let contrib = _mm256_xor_si256(
                    _mm256_shuffle_epi8(
                        _mm256_loadu_si256(TLO[j].as_ptr().cast::<__m256i>()),
                        lo,
                    ),
                    _mm256_shuffle_epi8(
                        _mm256_loadu_si256(THI[j].as_ptr().cast::<__m256i>()),
                        hi,
                    ),
                );
                let masked = _mm256_and_si256(
                    contrib,
                    _mm256_loadu_si256(POS[j].as_ptr().cast::<__m256i>()),
                );
                acc = _mm256_xor_si256(acc, masked);
            }
            // XOR-fold each 64-bit lane down to its low byte.
            acc = _mm256_xor_si256(acc, _mm256_srli_epi64::<32>(acc));
            acc = _mm256_xor_si256(acc, _mm256_srli_epi64::<16>(acc));
            acc = _mm256_xor_si256(acc, _mm256_srli_epi64::<8>(acc));
            let mut bytes = [0u8; 32];
            _mm256_storeu_si256(bytes.as_mut_ptr().cast::<__m256i>(), acc);
            codes[4 * half] = bytes[0];
            codes[4 * half + 1] = bytes[8];
            codes[4 * half + 2] = bytes[16];
            codes[4 * half + 3] = bytes[24];
        }
        codes
    }
}

/// SSSE3 form: four 16-byte vectors per line, two words each. The 32-byte
/// constant tables double as 16-byte LUTs — their two halves are
/// identical.
///
/// # Safety
/// The host must support the `ssse3` and `sse2` target features (checked
/// by [`available`]).
#[target_feature(enable = "ssse3", enable = "sse2")]
pub(crate) unsafe fn line_codes_ssse3(line: &[u8; LINE_BYTES]) -> [u8; WORDS_PER_LINE] {
    // SAFETY: only sse2/ssse3 vector ops below, provided by this function's
    // target_feature gate (upheld by the caller); all loads/stores are
    // in-bounds unaligned accesses on owned arrays and `const` tables.
    unsafe {
        let low_nibble = _mm_set1_epi8(0x0f);
        let mut codes = [0u8; WORDS_PER_LINE];
        for quarter in 0..4 {
            let v = _mm_loadu_si128(line.as_ptr().add(16 * quarter).cast::<__m128i>());
            let lo = _mm_and_si128(v, low_nibble);
            let hi = _mm_and_si128(_mm_srli_epi16::<4>(v), low_nibble);
            let mut acc = _mm_setzero_si128();
            for j in 0..8 {
                let contrib = _mm_xor_si128(
                    _mm_shuffle_epi8(_mm_loadu_si128(TLO[j].as_ptr().cast::<__m128i>()), lo),
                    _mm_shuffle_epi8(_mm_loadu_si128(THI[j].as_ptr().cast::<__m128i>()), hi),
                );
                let masked =
                    _mm_and_si128(contrib, _mm_loadu_si128(POS[j].as_ptr().cast::<__m128i>()));
                acc = _mm_xor_si128(acc, masked);
            }
            acc = _mm_xor_si128(acc, _mm_srli_epi64::<32>(acc));
            acc = _mm_xor_si128(acc, _mm_srli_epi64::<16>(acc));
            acc = _mm_xor_si128(acc, _mm_srli_epi64::<8>(acc));
            let mut bytes = [0u8; 16];
            _mm_storeu_si128(bytes.as_mut_ptr().cast::<__m128i>(), acc);
            codes[2 * quarter] = bytes[0];
            codes[2 * quarter + 1] = bytes[8];
        }
        codes
    }
}

#[cfg(test)]
mod tests {
    use crate::line::line_codes_scalar;

    fn test_lines() -> Vec<[u8; 64]> {
        let mut lines = vec![[0u8; 64], [0xFF; 64]];
        let mut x = 0x0DDB_A11C_0FFE_E000u64;
        for _ in 0..64 {
            let mut line = [0u8; 64];
            for chunk in line.chunks_exact_mut(8) {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1442695040888963407);
                chunk.copy_from_slice(&x.to_le_bytes());
            }
            lines.push(line);
        }
        lines
    }

    #[test]
    fn avx2_codes_match_scalar_tables() {
        if !(super::available() && esd_kernels::cpu_features().avx2) {
            return;
        }
        for line in test_lines() {
            // SAFETY: avx2 presence checked above.
            let simd = unsafe { super::line_codes_avx2(&line) };
            assert_eq!(simd, line_codes_scalar(&line));
        }
    }

    #[test]
    fn ssse3_codes_match_scalar_tables() {
        if !super::available() {
            return;
        }
        for line in test_lines() {
            // SAFETY: ssse3 presence checked above.
            let simd = unsafe { super::line_codes_ssse3(&line) };
            assert_eq!(simd, line_codes_scalar(&line));
        }
    }
}
