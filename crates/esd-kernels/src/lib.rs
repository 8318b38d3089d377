//! Runtime kernel-backend selection for the ESD hot kernels.
//!
//! The compute kernels (AES-128, SHA-1, MD5, Hamming(72,64)) each keep a
//! portable scalar implementation as the reference, plus `std::arch`
//! x86-64 implementations (AES-NI, SHA-NI, AVX2/SSSE3) that are bit-exact
//! with it. This crate owns the single process-wide answer to "which one
//! runs": a [`KernelBackend`] selector resolved from, in priority order,
//! an explicit [`set_backend`] call (CLI `--kernels` /
//! `RunOptions::kernels`), the `ESD_KERNEL` environment variable, or
//! `auto`.
//!
//! Dispatch never changes results — every SIMD backend is proven
//! byte-identical to the scalar lanes — so the selector only moves
//! wall-clock time. The leaf crates consult [`simd_allowed`] plus the
//! cached [`cpu_features`] on each kernel entry (two relaxed atomic
//! loads) and fall through to scalar whenever the backend says so or the
//! host lacks the instruction set.

use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Which family of kernel implementations the process should run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum KernelBackend {
    /// Force the portable scalar reference kernels everywhere.
    Scalar,
    /// Prefer the hardware SIMD kernels; any kernel whose instruction-set
    /// extension is missing on this host silently falls back to scalar.
    Simd,
    /// Same dispatch as [`KernelBackend::Simd`]: use hardware where
    /// detected, scalar otherwise. This is the default.
    #[default]
    Auto,
}

impl KernelBackend {
    /// Every backend, for sweeps and tests.
    pub const ALL: [KernelBackend; 3] =
        [KernelBackend::Scalar, KernelBackend::Simd, KernelBackend::Auto];

    /// Canonical lowercase name, as accepted by `--kernels`/`ESD_KERNEL`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Simd => "simd",
            KernelBackend::Auto => "auto",
        }
    }
}

impl fmt::Display for KernelBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for KernelBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Ok(KernelBackend::Scalar),
            "simd" => Ok(KernelBackend::Simd),
            "auto" => Ok(KernelBackend::Auto),
            other => Err(format!(
                "unknown kernel backend {other:?} (expected scalar, simd, or auto)"
            )),
        }
    }
}

/// The instruction-set extensions the SIMD backends care about, as
/// detected on this host at first use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuFeatures {
    /// AES-NI (`aesenc`/`aesenclast`) — AES-128 block encryption.
    pub aes: bool,
    /// SHA extensions (`sha1rnds4`/`sha1msg1`/`sha1msg2`) — SHA-1 rounds.
    pub sha: bool,
    /// AVX2 — 4-lane vertical MD5 and wide message schedules.
    pub avx2: bool,
    /// SSSE3 (`pshufb`) — nibble-LUT parity for the Hamming encoder and
    /// the 4-wide SHA-1 fallback.
    pub ssse3: bool,
}

impl CpuFeatures {
    /// No hardware support at all — the non-x86-64 answer and the scalar
    /// baseline for tests.
    pub const NONE: CpuFeatures =
        CpuFeatures { aes: false, sha: false, avx2: false, ssse3: false };
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

// The process-wide backend: 0 = not yet resolved, else discriminant + 1.
static BACKEND: AtomicU8 = AtomicU8::new(0);

const SCALAR: u8 = 1;
const SIMD: u8 = 2;
const AUTO: u8 = 3;

fn encode(backend: KernelBackend) -> u8 {
    match backend {
        KernelBackend::Scalar => SCALAR,
        KernelBackend::Simd => SIMD,
        KernelBackend::Auto => AUTO,
    }
}

fn decode(raw: u8) -> KernelBackend {
    match raw {
        SCALAR => KernelBackend::Scalar,
        SIMD => KernelBackend::Simd,
        _ => KernelBackend::Auto,
    }
}

/// Reads and parses the environment variable `name` — the one parser
/// behind every `ESD_*` knob. Unset yields `None` silently. A set but
/// malformed value also yields `None`, after one stderr line
/// `warning: ignoring NAME="raw" (<parse error>); <fallback>`, so a typo
/// like `ESD_QUANTUM=4x` neither aborts the run nor passes unnoticed;
/// `fallback` says what the caller does instead (formatted only if the
/// warning is printed).
pub fn env_parse<T>(name: &str, fallback: impl std::fmt::Display) -> Option<T>
where
    T: FromStr,
    T::Err: std::fmt::Display,
{
    let raw = std::env::var(name).ok()?;
    match raw.trim().parse() {
        Ok(value) => Some(value),
        Err(err) => {
            eprintln!("warning: ignoring {name}={raw:?} ({err}); {fallback}");
            None
        }
    }
}

/// [`env_parse`] for a knob with a printable default: the default is what
/// the warning names as the fallback.
pub fn env_or<T>(name: &str, default: T) -> T
where
    T: FromStr + std::fmt::Display,
    T::Err: std::fmt::Display,
{
    env_parse(name, format_args!("using default {default}")).unwrap_or(default)
}

/// The backend `ESD_KERNEL` names: unset, or malformed (with a warning),
/// means `auto`.
#[must_use]
pub fn backend_from_env() -> KernelBackend {
    env_parse("ESD_KERNEL", "using auto").unwrap_or(KernelBackend::Auto)
}

/// Selects the process-wide backend, overriding `ESD_KERNEL` and any
/// previous selection. Called by the run path before a replay starts;
/// benchmarks and tests use it to force a backend mid-process.
pub fn set_backend(backend: KernelBackend) {
    BACKEND.store(encode(backend), Ordering::Relaxed);
}

/// The currently selected backend, resolving `ESD_KERNEL` on first use.
#[must_use]
pub fn backend() -> KernelBackend {
    let raw = BACKEND.load(Ordering::Relaxed);
    if raw != 0 {
        return decode(raw);
    }
    let resolved = backend_from_env();
    // Racing first calls may both read the env; they resolve identically,
    // so last-store-wins is benign.
    BACKEND.store(encode(resolved), Ordering::Relaxed);
    resolved
}

/// Whether the SIMD kernels may run. Kernels still check the specific
/// [`cpu_features`] bit they need; `false` forces scalar everywhere.
#[inline]
#[must_use]
pub fn simd_allowed() -> bool {
    backend() != KernelBackend::Scalar
}

/// One line per kernel naming the implementation the current backend and
/// host features select — printed to stderr by the CLI so runs record
/// which code actually executed.
#[must_use]
pub fn dispatch_report() -> String {
    let features = cpu_features();
    let simd = simd_allowed();
    let pick = |available: bool, hw: &'static str| if simd && available { hw } else { "scalar" };
    let sha1 = if simd && features.sha {
        "sha-ni"
    } else {
        // The 4-wide message-schedule fallback only needs pshufb.
        pick(features.ssse3, "ssse3")
    };
    format!(
        "kernel dispatch ({}): aes128={} sha1={} md5={} hamming={}",
        backend(),
        pick(features.aes, "aes-ni"),
        sha1,
        pick(features.avx2, "avx2"),
        pick(features.ssse3, "ssse3"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_names_round_trip() {
        for backend in KernelBackend::ALL {
            assert_eq!(backend.name().parse::<KernelBackend>().unwrap(), backend);
        }
        assert_eq!(" SIMD ".parse::<KernelBackend>().unwrap(), KernelBackend::Simd);
        assert!("bogus".parse::<KernelBackend>().is_err());
    }

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

        set_backend(KernelBackend::Simd);
        assert!(simd_allowed());

        set_backend(KernelBackend::Auto);
        assert!(simd_allowed());
        assert!(dispatch_report().starts_with("kernel dispatch (auto):"));
    }

    #[test]
    fn env_parse_warns_and_falls_back_on_malformed_values() {
        // Unique variable names: tests in this binary run concurrently and
        // the environment is process-global.
        std::env::set_var("ESD_KERNELS_TEST_BAD", "4x");
        assert_eq!(env_or("ESD_KERNELS_TEST_BAD", 7u32), 7);
        assert_eq!(env_parse::<u64>("ESD_KERNELS_TEST_BAD", "staying off"), None);
        std::env::set_var("ESD_KERNELS_TEST_GOOD", " 12 ");
        assert_eq!(env_or("ESD_KERNELS_TEST_GOOD", 7u32), 12);
        assert_eq!(env_or("ESD_KERNELS_TEST_UNSET", 7usize), 7);
        std::env::set_var("ESD_KERNELS_TEST_BACKEND", "Scalar");
        assert_eq!(
            env_parse("ESD_KERNELS_TEST_BACKEND", "using auto"),
            Some(KernelBackend::Scalar)
        );
        for name in ["BAD", "GOOD", "BACKEND"] {
            std::env::remove_var(format!("ESD_KERNELS_TEST_{name}"));
        }
    }

    #[test]
    fn features_are_cached_and_consistent() {
        assert_eq!(cpu_features(), cpu_features());
    }
}
