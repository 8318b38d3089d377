//! ESD — ECC-assisted and Selective Deduplication for encrypted
//! non-volatile main memory.
//!
//! This is the umbrella crate of the ESD reproduction (HPCA 2023). It
//! re-exports the workspace's crates under one roof:
//!
//! * [`ecc`] — Hamming(72,64) SEC-DED codes and ECC fingerprints.
//! * [`hash`] — SHA-1 / MD5 / CRC fingerprints with cost models.
//! * [`crypto`] — AES-128 counter-mode encryption (CME).
//! * [`sim`] — the cycle-approximate encrypted-NVMM (PCM) simulator.
//! * [`trace`] — SPEC/PARSEC-calibrated synthetic workload generation.
//! * [`core`] — the one write-path `Scheme`, its eight kinds, the trace runner.
//!
//! # Quick start
//!
//! ```
//! use esd::core::{run_app, SchemeKind};
//! use esd::sim::SystemConfig;
//! use esd::trace::AppProfile;
//!
//! let config = SystemConfig::default();
//! let app = AppProfile::by_name("lbm").expect("paper workload");
//! let baseline = run_app(SchemeKind::Baseline, &app, 42, 5_000, &config)?;
//! let esd = run_app(SchemeKind::Esd, &app, 42, 5_000, &config)?;
//! let n = esd.normalized_to(&baseline);
//! println!("write speedup {:.2}x, energy ratio {:.2}", n.write_speedup, n.energy_ratio);
//! # Ok::<(), esd::core::VerifyError>(())
//! ```
//!
//! # One scheme type
//!
//! Every kind is the same [`core::Scheme`]; ESD-only knobs are constructors
//! and methods of it (`with_policy`, `with_codec`, `with_wear_leveling`,
//! `efit_decay_interval`, `efit()`, `crash_and_recover`).
//!
//! ```
//! use esd::core::{run_trace, Scheme, SchemeKind};
//! use esd::sim::{Ps, SystemConfig};
//! use esd::trace::{generate_trace, AppProfile, CacheLine};
//!
//! let config = SystemConfig::default();
//! // Drive one scheme by hand...
//! let mut esd = Scheme::new(SchemeKind::Esd, &config);
//! let first = esd.write(Ps::ZERO, 0x40, CacheLine::from_fill(7));
//! let second = esd.write(first.latency, 0x80, CacheLine::from_fill(7));
//! assert!(second.deduplicated && esd.stats().fingerprint_computations == 0);
//! // ...or replay a trace through it (the scheme is the template every
//! // bank slice is forked from) and read the report.
//! let trace = generate_trace(&AppProfile::demo(), 1, 2_000);
//! let report = run_trace(&Scheme::new(SchemeKind::DeWrite, &config), &trace, &config, true)?;
//! println!("{}", report.summary());
//! # Ok::<(), esd::core::VerifyError>(())
//! ```
//!
//! See `examples/` for runnable end-to-end scenarios and `crates/esd-bench`
//! for the binaries that regenerate every table and figure of the paper.

pub use esd_core as core;
pub use esd_kernels as kernels;
pub use esd_crypto as crypto;
pub use esd_ecc as ecc;
pub use esd_hash as hash;
pub use esd_sim as sim;
pub use esd_trace as trace;
