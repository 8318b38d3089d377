//! Fault injection: the ECC path must recover single-bit medium errors end
//! to end, for every scheme, without disturbing deduplication correctness.

use esd::core::{ReadOutcome, Scheme, SchemeKind};
use esd::sim::{Ps, SystemConfig};
use esd::trace::CacheLine;

#[test]
fn baseline_recovers_single_bit_flips_in_any_byte() {
    let config = SystemConfig::default();
    let mut scheme = Scheme::new(SchemeKind::Baseline, &config);
    let line = CacheLine::from_seed(99);
    for byte in (0..64).step_by(7) {
        let addr = 0x40 * (byte as u64 + 1);
        scheme.write(Ps::ZERO, addr, line);
        assert!(scheme
            .nvmm_mut()
            .medium_mut()
            .inject_bit_flip(addr, byte, 3));
        let read = scheme.read(Ps::from_us(1), addr);
        assert_eq!(read.data, line, "byte {byte} not recovered");
    }
}

#[test]
fn esd_recovers_faults_on_deduplicated_lines() {
    let config = SystemConfig::default();
    let mut esd = Scheme::new(SchemeKind::Esd, &config);
    let line = CacheLine::from_fill(0x3C);
    // Three logicals share one physical line after dedup.
    esd.write(Ps::ZERO, 0x000, line);
    esd.write(Ps::from_us(1), 0x040, line);
    esd.write(Ps::from_us(2), 0x080, line);
    assert_eq!(esd.nvmm().stats().data.writes, 1);
    // Corrupt the single stored copy (ESD allocates physicals from 0).
    assert!(esd.nvmm_mut().medium_mut().inject_bit_flip(0, 31, 7));
    for logical in [0x000u64, 0x040, 0x080] {
        assert_eq!(esd.read(Ps::from_us(3), logical).data, line, "{logical:#x}");
    }
}

#[test]
fn esd_verify_read_survives_fault_during_dedup_check() {
    // A fault on the stored candidate must not break the byte comparison:
    // ECC corrects the read, the compare still matches, the line dedups.
    let config = SystemConfig::default();
    let mut esd = Scheme::new(SchemeKind::Esd, &config);
    let line = CacheLine::from_seed(5);
    esd.write(Ps::ZERO, 0x000, line);
    assert!(esd.nvmm_mut().medium_mut().inject_bit_flip(0, 0, 0));
    let w = esd.write(Ps::from_us(1), 0x040, line);
    assert!(
        w.deduplicated,
        "corrected fault must not defeat deduplication"
    );
}

#[test]
fn double_bit_faults_are_detected_not_silently_returned() {
    // SEC-DED cannot correct 2 flips in one word; the read path must flag
    // the loss instead of fabricating content that looks valid. For every
    // scheme: the outcome is Uncorrectable, the returned data never
    // round-trips the written line, and the loss is counted.
    for kind in SchemeKind::ALL {
        let config = SystemConfig::default();
        let mut scheme = Scheme::new(kind, &config);
        let line = CacheLine::from_seed(1);
        scheme.write(Ps::ZERO, 0x40, line);
        // Find where the content landed: schemes remap logical 0x40 to a
        // scheme-chosen physical line; corrupt the stored copy directly.
        let addr = *scheme
            .nvmm()
            .medium()
            .addresses_sorted()
            .first()
            .expect("one line stored");
        let medium = scheme.nvmm_mut().medium_mut();
        assert!(medium.inject_bit_flip(addr, 8, 0));
        assert!(medium.inject_bit_flip(addr, 8, 1));
        let read = scheme.read(Ps::from_us(1), 0x40);
        assert_eq!(
            read.outcome,
            ReadOutcome::Uncorrectable,
            "{kind}: double flip must be flagged"
        );
        assert!(!read.outcome.is_data_valid(), "{kind}");
        assert_ne!(
            read.data, line,
            "{kind}: uncorrectable data must not round-trip"
        );
        let stats = scheme.stats();
        assert_eq!(stats.reads_uncorrectable, 1, "{kind}: loss is counted");
        assert!(
            stats.uncorrectable_blast_logicals >= 1,
            "{kind}: blast radius is at least the read line"
        );
    }
}

#[test]
fn faults_do_not_leak_across_lines() {
    let config = SystemConfig::default();
    let mut scheme = Scheme::new(SchemeKind::Baseline, &config);
    let a = CacheLine::from_seed(10);
    let b = CacheLine::from_seed(11);
    scheme.write(Ps::ZERO, 0x000, a);
    scheme.write(Ps::ZERO, 0x040, b);
    assert!(scheme.nvmm_mut().medium_mut().inject_bit_flip(0x000, 5, 5));
    assert_eq!(
        scheme.read(Ps::from_us(1), 0x040).data,
        b,
        "neighbor untouched"
    );
    assert_eq!(
        scheme.read(Ps::from_us(2), 0x000).data,
        a,
        "fault corrected"
    );
}
