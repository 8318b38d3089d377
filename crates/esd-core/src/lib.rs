#![warn(missing_docs)]
#![deny(unsafe_code)]

//! ESD: ECC-assisted and Selective Deduplication for encrypted non-volatile
//! main memory — a full reproduction of the HPCA 2023 paper's scheme and its
//! comparison points over a cycle-approximate NVMM simulator.
//!
//! # What ESD does
//!
//! Inline deduplication of LLC evictions can eliminate ~63% of writes to
//! NVMM, but traditional designs pay for it twice: hundreds of nanoseconds
//! of hash computation per line, and fingerprint lookups in NVMM when the
//! fingerprint cache misses. ESD removes both costs:
//!
//! * **ECC-assisted identification** — the per-line ECC the memory
//!   controller already computes is used as a free fingerprint. Different
//!   ECC proves different content (filter property); equal ECC triggers a
//!   cheap read-back byte comparison (PCM reads cost half of writes).
//! * **Selective deduplication** — only fingerprints with high reference
//!   counts are kept, in an SRAM-only EFIT with Least-Reference-Count-Used
//!   replacement. Nothing spills to NVMM, so there are no fingerprint NVMM
//!   lookups, at the price of missing some low-value duplicates.
//!
//! # Crate contents
//!
//! * [`Scheme`] — the one write-path pipeline: fingerprint → index probe →
//!   optional verify read → remap or encrypt-and-write. A [`SchemeKind`]
//!   (the paper's ESD, its comparison points Baseline, Dedup_SHA1 and
//!   DeWrite, and four variants) only selects which stages run.
//! * [`Efit`] (LRCU), [`Amt`], [`FingerprintStore`], [`DupPredictor`],
//!   [`PhysicalAllocator`] — the building blocks.
//! * [`run_trace`] — replay a trace through a scheme, continuing from the
//!   scheme's current state, and collect a [`RunReport`] with every metric
//!   the paper's figures use.
//!
//! # Examples
//!
//! ```
//! use esd_core::{run_trace, RunOptions, Scheme, SchemeKind};
//! use esd_sim::SystemConfig;
//! use esd_trace::{generate_trace, AppProfile};
//!
//! let config = SystemConfig::default();
//! let trace = generate_trace(&AppProfile::demo(), 1, 2_000);
//! // A fresh scheme of `kind`, every read verified (the default options).
//! let run = |kind| run_trace(Scheme::new(kind, &config), &trace, &config, &RunOptions::default());
//! let baseline = run(SchemeKind::Baseline)?;
//! let esd = run(SchemeKind::Esd)?;
//! let n = esd.normalized_to(&baseline);
//! assert!(n.write_traffic_ratio < 1.0, "ESD writes less than Baseline");
//! # Ok::<(), esd_core::VerifyError>(())
//! ```

mod alloc;
mod amt;
mod counter_cache;
mod efit;
mod fpstore;
mod journal;
mod machinery;
mod predictor;
mod replay;
mod report;
mod runner;
mod scheme;
mod scrub;
mod sram_cache;
#[cfg(test)]
mod sram_ref;
pub mod tenant;

pub use alloc::PhysicalAllocator;
pub use amt::{Amt, AMT_ENTRY_BYTES};
pub use counter_cache::{CounterCache, COUNTER_BLOCK_LINES, COUNTER_ENTRY_BYTES};
pub use efit::{Efit, EfitEntry, EfitPolicy, EFIT_ENTRY_BYTES, REFER_MAX};
pub use fpstore::{FingerprintStore, FpLookup, LookupSource};
pub use journal::{
    CrashPoint, CrashStage, MetadataJournal, RecoveryReport, RecoverySummary, JOURNAL_NVMM_BASE,
};
pub use predictor::{DupPredictor, PredictorStats};
pub use report::{Normalized, ReliabilityReport, RunReport};
pub use runner::{
    build_scheme, replay_with, run_trace, RunOptions, VerifyError, DEFAULT_BATCH, DEFAULT_QUANTUM,
};
pub use scheme::{
    FingerprintSpec, MetadataFootprint, ReadOutcome, ReadResult, Scheme, SchemeKind, SchemeStats,
    WriteResult, DEWRITE_ENTRY_BYTES, MD5_ENTRY_BYTES, SHA1_ENTRY_BYTES,
};
pub use scrub::{ScrubStats, Scrubber};

/// The cache hint [`Scheme::prefetch`] issues, for callers that hint their
/// own inputs ahead of a write.
pub use esd_collections::prefetch;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Scheme>();
        assert_send_sync::<RunReport>();
        assert_send_sync::<VerifyError>();
    }
}
