//! The reliability subsystem end to end: fault-injection determinism, the
//! typed error contract (no silently fabricated content), SEC-DED's
//! documented limits, and background scrubbing.

use esd::core::{run_trace, ReadOutcome, RunOptions, RunReport, Scheme, SchemeKind, VerifyError};
use esd::ecc::{decode_word, encode_word, CorrectedBit};
use esd::sim::{Ps, SystemConfig};
use esd::trace::{generate_trace, AppProfile, CacheLine, Trace};
use proptest::prelude::*;

/// An RBER high enough that a few-thousand-access run sees plenty of
/// correctable *and* uncorrectable errors: ~2e9 flips per 10^12 bit-reads
/// is 2e-3 per bit, about 1.15 expected flips per 576-bit line read.
const HEAVY_RBER: u64 = 2_000_000_000;

/// A verified replay of a fresh `kind` scheme.
fn replay(
    kind: SchemeKind,
    trace: &Trace,
    config: &SystemConfig,
) -> Result<RunReport, VerifyError> {
    run_trace(
        Scheme::new(kind, config),
        trace,
        config,
        &RunOptions::default(),
    )
}

fn faulty_config(rber: u64, seed: u64) -> SystemConfig {
    let mut config = SystemConfig::default();
    config.pcm.rber_per_tbit = rber;
    config.pcm.rber_seed = seed;
    config
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A single flip anywhere in the 72 stored bytes — the 64 data bytes
    /// *or* the 8 packed ECC bytes — is corrected transparently: the read
    /// round-trips the written line and is flagged `Corrected`, never
    /// silently degraded.
    #[test]
    fn single_flip_round_trips_for_any_stored_bit(byte in 0usize..72, bit in 0u8..8) {
        let config = SystemConfig::default();
        let mut scheme = Scheme::new(SchemeKind::Baseline, &config);
        let line = CacheLine::from_seed(17);
        scheme.write(Ps::ZERO, 0x40, line);
        let addr = scheme.nvmm().medium().addresses_sorted()[0];
        prop_assert!(scheme.nvmm_mut().medium_mut().inject_bit_flip(addr, byte, bit));
        let read = scheme.read(Ps::from_us(1), 0x40);
        prop_assert_eq!(read.data, line);
        prop_assert_eq!(read.outcome, ReadOutcome::Corrected { words: 1 });
        let stats = scheme.stats();
        prop_assert_eq!(stats.reads_corrected, 1);
        if byte >= 64 {
            prop_assert_eq!(stats.corrected_ecc_bits, 1, "ECC-bit flip attributed");
        } else {
            prop_assert_eq!(stats.corrected_by_word[byte / 8], 1, "word position attributed");
        }
    }

    /// Two flips in one 8-byte word exceed SEC-DED: the read is flagged
    /// `Uncorrectable` (counted, blast radius >= 1) — never returned as a
    /// fabricated zero line pretending to be valid.
    #[test]
    fn double_flip_in_one_word_is_flagged_not_zero_filled(
        word in 0usize..8, a in 0u8..8, b in 0u8..8, seed in 0u64..1024,
    ) {
        prop_assume!(a != b);
        let config = SystemConfig::default();
        let mut scheme = Scheme::new(SchemeKind::Baseline, &config);
        let line = CacheLine::from_seed(seed);
        scheme.write(Ps::ZERO, 0x40, line);
        let addr = scheme.nvmm().medium().addresses_sorted()[0];
        scheme.nvmm_mut().medium_mut().inject_bit_flip(addr, word * 8, a);
        scheme.nvmm_mut().medium_mut().inject_bit_flip(addr, word * 8, b);
        let read = scheme.read(Ps::from_us(1), 0x40);
        prop_assert_eq!(read.outcome, ReadOutcome::Uncorrectable);
        prop_assert!(!read.outcome.is_data_valid());
        prop_assert_ne!(read.data, line);
        let stats = scheme.stats();
        prop_assert_eq!(stats.reads_uncorrectable, 1);
        prop_assert!(stats.uncorrectable_blast_logicals >= 1);
    }
}

/// SEC-DED's documented blind spot: three flips whose syndromes cancel.
/// Data bits 0, 1 and 2 sit at Hamming codeword positions 3, 5 and 6;
/// `3 ^ 5 ^ 6 == 0`, so the syndrome is clean while overall parity is odd
/// — the decoder "corrects" the parity bit and hands back wrong data while
/// claiming success. This is inherent to any single-error-correcting code;
/// the simulator's pristine shadow exists precisely to observe it.
#[test]
fn triple_flip_miscorrects_at_the_codec_level() {
    let data: u64 = 0xDEAD_BEEF_CAFE_F00D;
    let ecc = encode_word(data);
    let corrupted = data ^ 0b111; // data bits 0,1,2
    let decoded = decode_word(corrupted, ecc).expect("decoder claims success");
    assert_eq!(
        decoded.corrected,
        Some(CorrectedBit::OverallParity),
        "the decoder blames the parity bit"
    );
    assert_ne!(
        decoded.data, data,
        "and returns wrong data — a miscorrection"
    );
    assert_eq!(
        decoded.data, corrupted,
        "the three data flips survive untouched"
    );
}

/// The same triple-flip vector through a whole scheme: with ground-truth
/// tracking on, the read is flagged `Miscorrected` (the returned data is
/// still wrong — hardware cannot fix what it cannot see — but it is never
/// presented as valid) and counted.
#[test]
fn scheme_detects_miscorrection_against_ground_truth() {
    let config = SystemConfig::default();
    let mut scheme = Scheme::new(SchemeKind::Baseline, &config);
    // Threshold 0: pristine ground-truth tracking without random flips, so
    // the targeted injections below are recorded as drift.
    scheme.nvmm_mut().medium_mut().enable_fault_injection(0, 0);
    let line = CacheLine::from_seed(7);
    scheme.write(Ps::ZERO, 0x40, line);
    let addr = scheme.nvmm().medium().addresses_sorted()[0];
    for bit in 0..3 {
        scheme.nvmm_mut().medium_mut().inject_bit_flip(addr, 0, bit);
    }
    let read = scheme.read(Ps::from_us(1), 0x40);
    assert_eq!(read.outcome, ReadOutcome::Miscorrected);
    assert!(!read.outcome.is_data_valid());
    assert_ne!(read.data, line, "miscorrected content is wrong");
    assert_eq!(scheme.stats().miscorrections, 1);
    assert_eq!(
        scheme.stats().reads_uncorrectable,
        0,
        "distinct from detected loss"
    );
}

/// Seeded injection is exactly reproducible: two runs with the same
/// (trace, RBER, seed) produce byte-identical reports, and a different
/// fault seed produces a different fault pattern.
#[test]
fn seeded_rber_runs_are_deterministic() {
    let trace = generate_trace(&AppProfile::demo(), 3, 4_000);
    let config = faulty_config(HEAVY_RBER, 0xE5D);
    let a = replay(SchemeKind::Esd, &trace, &config).expect("flagged losses are not errors");
    let b = replay(SchemeKind::Esd, &trace, &config).expect("identical rerun");
    assert_eq!(a, b, "same seed, same faults, same report");
    assert!(
        a.reliability.faults.bits_flipped() > 0,
        "injection actually ran"
    );

    let reseeded =
        replay(SchemeKind::Esd, &trace, &faulty_config(HEAVY_RBER, 0x5EED)).expect("reseeded run");
    assert_ne!(
        a.reliability.faults, reseeded.reliability.faults,
        "a different seed draws a different fault pattern"
    );
}

/// `rber = 0` is bit-identical to a config that never heard of fault
/// injection: the reliability subsystem is pay-for-what-you-use.
#[test]
fn zero_rber_matches_default_config_exactly() {
    let trace = generate_trace(&AppProfile::demo(), 5, 3_000);
    let plain = replay(SchemeKind::Esd, &trace, &SystemConfig::default()).unwrap();
    let zeroed = replay(SchemeKind::Esd, &trace, &faulty_config(0, 0xABCD)).unwrap();
    assert_eq!(plain, zeroed);
    assert_eq!(plain.reliability.faults.bits_flipped(), 0);
    assert_eq!(plain.stats.reads_uncorrectable, 0);
}

/// Under sustained injection, every scheme reports nonzero corrected and
/// uncorrectable reads with a nonzero blast radius — no scheme swallows
/// errors — and the run completes under shadow verification (valid reads
/// still return the right data).
#[test]
fn every_scheme_surfaces_faults_under_heavy_rber() {
    let trace = generate_trace(&AppProfile::demo(), 9, 5_000);
    let config = faulty_config(HEAVY_RBER, 0xE5D);
    for kind in SchemeKind::ALL {
        let report = replay(kind, &trace, &config)
            .unwrap_or_else(|e| panic!("{kind}: valid reads must stay correct: {e}"));
        let stats = &report.stats;
        assert!(stats.reads_corrected > 0, "{kind}: corrected reads");
        assert!(stats.corrected_words > 0, "{kind}: corrected words");
        assert!(stats.reads_uncorrectable > 0, "{kind}: uncorrectable reads");
        // Note: blast radius counts *demand-read* losses only; schemes with
        // write-path verify reads (DeWrite, ESD) also count uncorrectable
        // verify reads, which lose nothing — the write proceeds as unique.
        assert!(
            stats.uncorrectable_blast_logicals > 0,
            "{kind}: demand-read losses carry a blast radius"
        );
        assert!(
            report.reliability.faults.data_bits_flipped > 0
                && report.reliability.faults.ecc_bits_flipped > 0,
            "{kind}: both data and stored-ECC bits degrade"
        );
    }
}

/// Dedup amplifies loss: ESD's blast radius counts every logical line
/// mapped onto a lost physical line, so under identical faults it reports
/// at least as many lost logicals per uncorrectable read as Baseline.
#[test]
fn dedup_blast_radius_amplifies_physical_loss() {
    let trace = generate_trace(&AppProfile::demo(), 9, 5_000);
    let config = faulty_config(HEAVY_RBER, 0xE5D);
    let per_loss = |kind| {
        let r = replay(kind, &trace, &config).unwrap();
        r.stats.uncorrectable_blast_logicals as f64 / r.stats.reads_uncorrectable as f64
    };
    assert!(per_loss(SchemeKind::Esd) >= per_loss(SchemeKind::Baseline));
}

/// Interleaved background scrubbing repairs correctable drift before it
/// accumulates: the scrubber scans and corrects lines, its PCM traffic is
/// charged, and demand reads see fewer uncorrectable errors than the same
/// run without scrubbing.
#[test]
fn background_scrub_repairs_drift_and_reduces_loss() {
    let trace = generate_trace(&AppProfile::demo(), 11, 6_000);
    let config = faulty_config(500_000_000, 0xE5D);
    let unscrubbed = replay(SchemeKind::Esd, &trace, &config).unwrap();
    let scrubbed = run_trace(
        Scheme::new(SchemeKind::Esd, &config),
        &trace,
        &config,
        &RunOptions {
            scrub_interval: Some(200),
            scrub_lines_per_tick: 4096,
            ..RunOptions::default()
        },
    )
    .unwrap();
    let scrub = &scrubbed.reliability.scrub;
    assert!(scrub.ticks > 0 && scrub.lines_scanned > 0, "scrubber ran");
    assert!(scrub.lines_corrected > 0, "scrubber repaired drift");
    assert!(
        scrubbed.pcm.scrub.reads > 0,
        "patrol reads charged to the device"
    );
    assert!(
        scrubbed.pcm.scrub.energy.as_pj() > 0,
        "scrub energy accounted"
    );
    assert!(
        scrubbed.stats.reads_uncorrectable < unscrubbed.stats.reads_uncorrectable,
        "scrubbing reduced demand-read loss: {} vs {}",
        scrubbed.stats.reads_uncorrectable,
        unscrubbed.stats.reads_uncorrectable
    );
}

/// ESD's EFIT drift counter: when a verify read finds the stored ECC —
/// the dedup fingerprint — has drifted (corrected ECC bits), it is counted
/// as fingerprint drift, a hazard unique to ECC-as-fingerprint designs.
#[test]
fn esd_counts_fingerprint_drift_on_verify_reads() {
    let trace = generate_trace(&AppProfile::demo(), 13, 6_000);
    let report = replay(SchemeKind::Esd, &trace, &faulty_config(HEAVY_RBER, 0xE5D)).unwrap();
    assert!(
        report.stats.efit_fingerprint_drift > 0,
        "heavy RBER must hit some verify read's stored ECC"
    );
    let baseline = replay(
        SchemeKind::Baseline,
        &trace,
        &faulty_config(HEAVY_RBER, 0xE5D),
    )
    .unwrap();
    assert_eq!(
        baseline.stats.efit_fingerprint_drift, 0,
        "schemes without ECC fingerprints never count drift"
    );
}
