//! AES-NI backend for [`Aes128`](crate::Aes128) block encryption.
//!
//! The hardware instructions implement exactly one AES round each
//! (`aesenc` = ShiftRows → SubBytes → MixColumns → AddRoundKey,
//! `aesenclast` the same without MixColumns), so ten of them over the
//! expanded key schedule reproduce the FIPS-197 cipher bit-for-bit — the
//! scalar T-table path and this module are interchangeable by
//! construction, and the proptests in `aes.rs` hold them to that.
//!
//! All `unsafe` in the crate lives here (the crate denies it elsewhere).
//! Every kernel is `#[target_feature]`-gated and reached only through the
//! safe entry points [`encrypt_block`] and [`encrypt4`], which check both
//! the process kernel-backend selector and the host CPUID bits first and
//! run the scalar fallback they are handed when the hardware path may not
//! run.
#![deny(unsafe_op_in_unsafe_fn)]

use core::arch::x86_64::{
    __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_loadu_si128, _mm_storeu_si128,
    _mm_xor_si128,
};

/// Whether the AES-NI path may run: the backend allows SIMD and the host
/// reports the `aes` (and `sse2`) CPUID bits.
#[inline]
fn available() -> bool {
    esd_kernels::simd_allowed() && esd_kernels::cpu_features().aes
}

/// One block encrypted with the hardware rounds when the backend allows
/// SIMD and the host has AES-NI, otherwise with `scalar`. The fallback is
/// a parameter, not an `Option` return, so the result is written straight
/// into the caller's return slot.
#[inline]
pub(crate) fn encrypt_block(
    round_keys: &[[u8; 16]; 11],
    block: [u8; 16],
    scalar: impl FnOnce([u8; 16]) -> [u8; 16],
) -> [u8; 16] {
    if available() {
        // SAFETY: `available` confirmed the `aes`+`sse2` CPU features at
        // runtime.
        unsafe { encrypt_block_ni(round_keys, block) }
    } else {
        scalar(block)
    }
}

/// Four independent blocks encrypted in lockstep with the hardware rounds
/// when the backend allows SIMD and the host has AES-NI, otherwise with
/// `scalar`.
#[inline]
pub(crate) fn encrypt4(
    round_keys: &[[u8; 16]; 11],
    blocks: [[u8; 16]; 4],
    scalar: impl FnOnce([[u8; 16]; 4]) -> [[u8; 16]; 4],
) -> [[u8; 16]; 4] {
    if available() {
        // SAFETY: `available` confirmed the `aes`+`sse2` CPU features at
        // runtime.
        unsafe { encrypt4_ni(round_keys, blocks) }
    } else {
        scalar(blocks)
    }
}

/// Loads one 16-byte round key into a vector register.
///
/// # Safety
/// Requires SSE2 (guaranteed by the callers' `target_feature` gates).
#[inline]
#[target_feature(enable = "sse2")]
unsafe fn load(bytes: &[u8; 16]) -> __m128i {
    // SAFETY: `bytes` is a valid 16-byte read; `loadu` has no alignment
    // requirement.
    unsafe { _mm_loadu_si128(bytes.as_ptr().cast::<__m128i>()) }
}

/// Encrypts one block with the hardware rounds.
///
/// # Safety
/// The host must support the `aes` and `sse2` target features (checked by
/// the entry points through [`available`]).
#[target_feature(enable = "aes", enable = "sse2")]
unsafe fn encrypt_block_ni(round_keys: &[[u8; 16]; 11], block: [u8; 16]) -> [u8; 16] {
    // SAFETY: all intrinsics below require only aes+sse2, which this
    // function's target_feature gate (upheld by the caller) provides; all
    // loads/stores are in-bounds 16-byte accesses on owned arrays.
    unsafe {
        let mut state = _mm_xor_si128(load(&block), load(&round_keys[0]));
        for rk in &round_keys[1..10] {
            state = _mm_aesenc_si128(state, load(rk));
        }
        state = _mm_aesenclast_si128(state, load(&round_keys[10]));
        let mut out = [0u8; 16];
        _mm_storeu_si128(out.as_mut_ptr().cast::<__m128i>(), state);
        out
    }
}

/// Encrypts four independent blocks in lockstep: one walk of the key
/// schedule, four `aesenc` chains in flight to cover the instruction
/// latency.
///
/// # Safety
/// The host must support the `aes` and `sse2` target features (checked by
/// the entry points through [`available`]).
#[target_feature(enable = "aes", enable = "sse2")]
unsafe fn encrypt4_ni(round_keys: &[[u8; 16]; 11], blocks: [[u8; 16]; 4]) -> [[u8; 16]; 4] {
    // SAFETY: as in `encrypt_block_ni` — aes+sse2 only, in-bounds unaligned
    // 16-byte loads/stores on owned arrays.
    unsafe {
        let rk0 = load(&round_keys[0]);
        let mut s0 = _mm_xor_si128(load(&blocks[0]), rk0);
        let mut s1 = _mm_xor_si128(load(&blocks[1]), rk0);
        let mut s2 = _mm_xor_si128(load(&blocks[2]), rk0);
        let mut s3 = _mm_xor_si128(load(&blocks[3]), rk0);
        for rk_bytes in &round_keys[1..10] {
            let rk = load(rk_bytes);
            s0 = _mm_aesenc_si128(s0, rk);
            s1 = _mm_aesenc_si128(s1, rk);
            s2 = _mm_aesenc_si128(s2, rk);
            s3 = _mm_aesenc_si128(s3, rk);
        }
        let rk10 = load(&round_keys[10]);
        s0 = _mm_aesenclast_si128(s0, rk10);
        s1 = _mm_aesenclast_si128(s1, rk10);
        s2 = _mm_aesenclast_si128(s2, rk10);
        s3 = _mm_aesenclast_si128(s3, rk10);
        let mut out = [[0u8; 16]; 4];
        _mm_storeu_si128(out[0].as_mut_ptr().cast::<__m128i>(), s0);
        _mm_storeu_si128(out[1].as_mut_ptr().cast::<__m128i>(), s1);
        _mm_storeu_si128(out[2].as_mut_ptr().cast::<__m128i>(), s2);
        _mm_storeu_si128(out[3].as_mut_ptr().cast::<__m128i>(), s3);
        out
    }
}
