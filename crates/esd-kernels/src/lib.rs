#![deny(unsafe_code)]

//! Runtime kernel-backend selection for the ESD hot kernels.
//!
//! Each compute kernel keeps exactly one portable scalar implementation —
//! the path every host can run and the reference the tests compare
//! against — and at most one x86-64 hardware implementation, chosen from
//! [`cpu_features`] alone: AES-NI for AES-128 (one block and four lanes),
//! SHA-NI for SHA-1, AVX2 for the 4-lane MD5, GFNI with AVX-512 VBMI for
//! the Hamming(72,64) and Hsiao line codes. This crate owns the one
//! process-wide switch between the two: a [`KernelBackend`] that starts at
//! `Auto` and changes only through [`set_backend`] (which
//! `RunOptions::kernels` calls before a replay starts).
//!
//! Dispatch never changes results — every hardware kernel is bit-exact
//! with its scalar path — so the selector only moves wall-clock time. The
//! leaf crates consult [`simd_allowed`] plus the cached [`cpu_features`]
//! on each kernel entry and fall through to scalar whenever the backend
//! says so or the host lacks the instruction set.
//!
//! Kernel dispatch is all this crate does. It reads no environment
//! variable: the backend is whatever the caller last passed to
//! [`set_backend`].

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Which family of kernel implementations the process should run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum KernelBackend {
    /// Force the portable scalar kernels everywhere.
    Scalar,
    /// Use each kernel's hardware implementation where the host has its
    /// instruction set, the scalar one otherwise. This is the default.
    #[default]
    Auto,
}

impl KernelBackend {
    /// Canonical lowercase name, as printed by [`dispatch_report`].
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Auto => "auto",
        }
    }
}

impl fmt::Display for KernelBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The instruction-set extensions the hardware kernels care about, as
/// detected on this host at first use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuFeatures {
    /// AES-NI (`aesenc`/`aesenclast`) — AES-128 block encryption.
    pub aes: bool,
    /// SHA extensions (`sha1rnds4`/`sha1msg1`/`sha1msg2`) — SHA-1 rounds.
    pub sha: bool,
    /// AVX2 — 4-lane vertical MD5.
    pub avx2: bool,
    /// SSSE3 (`pshufb`). Reported only: the SHA-NI kernel's byte swaps
    /// need it, and [`CpuFeatures::sha`] already requires it.
    pub ssse3: bool,
    /// GFNI together with AVX-512 BW and VBMI (`vgf2p8affineqb` and
    /// `vpermb` on 512-bit registers) — the line-code kernel of `esd-ecc`.
    pub gfni: bool,
}

impl CpuFeatures {
    /// No hardware support at all — the non-x86-64 answer and the scalar
    /// baseline for tests.
    pub const NONE: CpuFeatures = CpuFeatures {
        aes: false,
        sha: false,
        avx2: false,
        ssse3: false,
        gfni: false,
    };
}

#[cfg(target_arch = "x86_64")]
fn detect_features() -> CpuFeatures {
    CpuFeatures {
        aes: std::arch::is_x86_feature_detected!("aes")
            && std::arch::is_x86_feature_detected!("sse2"),
        sha: std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("sse2")
            && std::arch::is_x86_feature_detected!("ssse3"),
        avx2: std::arch::is_x86_feature_detected!("avx2"),
        ssse3: std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse2"),
        gfni: std::arch::is_x86_feature_detected!("gfni")
            && std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
            && std::arch::is_x86_feature_detected!("avx512vbmi"),
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect_features() -> CpuFeatures {
    CpuFeatures::NONE
}

/// The cached host CPU features relevant to kernel dispatch.
pub fn cpu_features() -> CpuFeatures {
    static FEATURES: OnceLock<CpuFeatures> = OnceLock::new();
    *FEATURES.get_or_init(detect_features)
}

// The process-wide backend: `true` is `Scalar`. Starts at `Auto`, so
// nothing resolves it lazily and no first use can overwrite a
// `set_backend` made on another thread.
static SCALAR_FORCED: AtomicBool = AtomicBool::new(false);

/// Selects the process-wide backend, overriding any previous selection.
/// Called by the run path before a replay starts; benchmarks and tests use
/// it to force a backend mid-process.
pub fn set_backend(backend: KernelBackend) {
    SCALAR_FORCED.store(backend == KernelBackend::Scalar, Ordering::Relaxed);
}

/// The currently selected backend.
#[must_use]
pub fn backend() -> KernelBackend {
    if SCALAR_FORCED.load(Ordering::Relaxed) {
        KernelBackend::Scalar
    } else {
        KernelBackend::Auto
    }
}

/// Whether the hardware kernels may run. Kernels still check the specific
/// [`cpu_features`] bit they need; `false` forces scalar everywhere.
#[inline]
#[must_use]
pub fn simd_allowed() -> bool {
    !SCALAR_FORCED.load(Ordering::Relaxed)
}

/// One line naming the implementation of each kernel that the current
/// backend and host features select, so a results file can record which
/// code actually executed.
#[must_use]
pub fn dispatch_report() -> String {
    let features = cpu_features();
    let simd = simd_allowed();
    let pick = |available: bool, hw: &'static str| if simd && available { hw } else { "scalar" };
    format!(
        "kernel dispatch ({}): aes128={} sha1={} md5={} hamming={}",
        backend(),
        pick(features.aes, "aes-ni"),
        pick(features.sha, "sha-ni"),
        pick(features.avx2, "avx2"),
        pick(features.gfni, "gfni"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_backend_is_auto() {
        assert_eq!(KernelBackend::default(), KernelBackend::Auto);
    }

    #[test]
    fn set_backend_controls_simd_allowed() {
        set_backend(KernelBackend::Scalar);
        assert!(!simd_allowed());
        assert_eq!(backend(), KernelBackend::Scalar);
        assert!(dispatch_report().contains("aes128=scalar"));
        assert!(dispatch_report().ends_with("hamming=scalar"));

        set_backend(KernelBackend::Auto);
        assert!(simd_allowed());
        assert!(dispatch_report().starts_with("kernel dispatch (auto):"));
    }

    #[test]
    fn features_are_cached_and_consistent() {
        assert_eq!(cpu_features(), cpu_features());
    }
}
