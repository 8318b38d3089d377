//! The write path kind by kind, driven through the public `Scheme` API:
//! what each `SchemeKind`'s policy row switches on or off, observed from
//! outside. Table-driven where the kinds only differ in the expected
//! numbers.

use esd::core::{
    run_trace, CrashPoint, CrashStage, EfitPolicy, FingerprintSpec, ReadOutcome, RunOptions,
    Scheme, SchemeKind, VerifyError, AMT_ENTRY_BYTES, DEFAULT_BATCH, DEWRITE_ENTRY_BYTES,
    EFIT_ENTRY_BYTES, MD5_ENTRY_BYTES, SHA1_ENTRY_BYTES,
};
use esd::ecc::EccCodec;
use esd::hash::FingerprintKind;
use esd::kernels::KernelBackend;
use esd::sim::{Ps, SystemConfig, WriteLatencyBreakdown};
use esd::trace::{generate_trace, Access, AccessKind, AppProfile, CacheLine, Trace};
use esd_obs::Obs;

fn scheme(kind: SchemeKind) -> Scheme {
    Scheme::new(kind, &SystemConfig::default())
}

/// The seven kinds that deduplicate, with the verify reads a first
/// duplicate costs them (hash-trusting kinds and `ESD_NoVerify`: none).
const DEDUPLICATING: [(SchemeKind, u64); 7] = [
    (SchemeKind::DedupSha1, 0),
    (SchemeKind::DedupMd5, 0),
    (SchemeKind::Pde, 0),
    (SchemeKind::DeWrite, 1),
    (SchemeKind::Esd, 1),
    (SchemeKind::EsdFull, 1),
    (SchemeKind::EsdNoVerify, 0),
];

#[test]
fn duplicate_content_is_stored_once_and_reads_back_everywhere() {
    for (kind, verify_reads) in DEDUPLICATING {
        let mut s = scheme(kind);
        assert_eq!(s.kind(), kind);
        let line = CacheLine::from_fill(0x11);
        let w1 = s.write(Ps::ZERO, 0x00, line);
        let w2 = s.write(Ps::from_us(1), 0x40, line);
        let w3 = s.write(Ps::from_us(2), 0x80, line);
        assert!(!w1.deduplicated, "{kind}");
        assert!(w2.deduplicated && w3.deduplicated, "{kind}");
        assert!(
            w2.device_finish.is_none(),
            "{kind}: a duplicate writes nothing"
        );
        assert!(
            w2.latency < w1.latency,
            "{kind}: dedup skips the 150ns device write"
        );
        assert_eq!(s.nvmm().stats().data.writes, 1, "{kind}: one stored copy");
        assert_eq!(s.stats().compare_reads, 2 * verify_reads, "{kind}");
        assert_eq!(s.stats().compare_hits, 2 * verify_reads, "{kind}");
        for (i, logical) in [0x00u64, 0x40, 0x80].into_iter().enumerate() {
            assert_eq!(
                s.read(Ps::from_us(3 + i as u64), logical).data,
                line,
                "{kind}"
            );
        }
    }
}

#[test]
fn baseline_never_deduplicates_and_keeps_no_metadata() {
    let mut s = scheme(SchemeKind::Baseline);
    let line = CacheLine::from_fill(3);
    for i in 0..10u64 {
        assert!(!s.write(Ps::ZERO, i * 64, line).deduplicated);
    }
    assert_eq!(s.stats().writes_unique, 10);
    assert_eq!(s.nvmm().stats().data.writes, 10);
    assert_eq!(s.metadata_footprint().total_bytes(), 0);
    assert_eq!(
        s.nvmm().stats().metadata.reads + s.nvmm().stats().metadata.writes,
        0
    );
    assert!(s.fingerprint_cache_stats().is_none() && s.amt_cache_stats().is_none());
    assert!(s.fingerprint_spec().is_none() && s.predictor_stats().is_none());
    // Its whole write latency is the unique-write stage.
    let b = s.breakdown();
    assert!(b.unique_write > Ps::ZERO);
    assert_eq!(b.total(), b.unique_write);
}

#[test]
fn baseline_stores_fresh_ciphertext_in_place() {
    let mut s = scheme(SchemeKind::Baseline);
    let line = CacheLine::from_fill(0xAA);
    s.write(Ps::ZERO, 0x40, line);
    let c1 = s
        .nvmm()
        .medium()
        .load(0x40)
        .expect("stored at its own address")
        .data;
    assert_ne!(&c1, line.as_bytes(), "medium must hold ciphertext");
    s.write(Ps::from_ns(500), 0x40, line);
    let c2 = s.nvmm().medium().load(0x40).unwrap().data;
    assert_ne!(c1, c2, "counter-mode freshness");
    assert_eq!(s.read(Ps::from_us(1), 0x40).data, line);
}

#[test]
fn unwritten_addresses_read_as_unmapped_zero_lines() {
    for kind in SchemeKind::EXTENDED {
        let mut s = scheme(kind);
        let r = s.read(Ps::ZERO, 0x1000);
        assert!(r.data.is_zero(), "{kind}");
        assert_eq!(r.outcome, ReadOutcome::Unmapped, "{kind}");
        assert_eq!(s.stats().reads_uncorrectable, 0, "{kind}");
    }
}

#[test]
fn uncorrectable_read_is_flagged_not_zero_masked() {
    for kind in SchemeKind::EXTENDED {
        let mut s = scheme(kind);
        s.write(Ps::ZERO, 0x40, CacheLine::from_fill(0x42));
        let stored = s.nvmm().medium().addresses_sorted()[0];
        s.nvmm_mut().medium_mut().inject_bit_flip(stored, 5, 0);
        s.nvmm_mut().medium_mut().inject_bit_flip(stored, 5, 1);
        let r = s.read(Ps::from_us(1), 0x40);
        assert_eq!(r.outcome, ReadOutcome::Uncorrectable, "{kind}");
        assert!(r.data.is_zero(), "{kind}");
        assert_eq!(s.stats().reads_uncorrectable, 1, "{kind}");
        // The blast radius is the line's reference count: the mapping,
        // plus the index entry pinning it for every kind that has one.
        let pins = u64::from(kind != SchemeKind::Baseline);
        assert_eq!(s.stats().uncorrectable_blast_logicals, 1 + pins, "{kind}");
    }
}

#[test]
fn fingerprint_cost_is_charged_per_write_by_hash_kinds_only() {
    let table = [
        (SchemeKind::Baseline, None),
        (SchemeKind::DedupSha1, Some(FingerprintKind::Sha1)),
        (SchemeKind::DedupMd5, Some(FingerprintKind::Md5)),
        (SchemeKind::Pde, Some(FingerprintKind::Sha1)),
        (SchemeKind::DeWrite, Some(FingerprintKind::Crc32)),
        (SchemeKind::Esd, None),
        (SchemeKind::EsdFull, None),
        (SchemeKind::EsdNoVerify, None),
    ];
    for (kind, hash) in table {
        let mut s = scheme(kind);
        for i in 0..20u64 {
            s.write(Ps::ZERO, i * 64, CacheLine::from_fill((i % 3) as u8));
        }
        match hash {
            // ECC fingerprints are free: no hash is ever computed.
            None => {
                assert_eq!(s.stats().fingerprint_computations, 0, "{kind}");
                assert_eq!(s.breakdown().fingerprint_compute, Ps::ZERO, "{kind}");
            }
            Some(hash) => {
                assert_eq!(
                    s.fingerprint_spec(),
                    Some(FingerprintSpec::Hash(hash)),
                    "{kind}"
                );
                assert_eq!(s.stats().fingerprint_computations, 20, "{kind}");
                let per_write = Ps::from_ns(hash.cost().latency_ns);
                assert!(
                    s.breakdown().fingerprint_compute >= per_write * 20,
                    "{kind}"
                );
            }
        }
    }
    // CRC is the cheap one: under SHA-1's 321 ns even with encryption
    // overlapped onto it.
    let mut dewrite = scheme(SchemeKind::DeWrite);
    dewrite.write(Ps::ZERO, 0x00, CacheLine::from_fill(1));
    assert!(dewrite.breakdown().fingerprint_compute < Ps::from_ns(321));
}

#[test]
fn metadata_footprint_follows_the_index_placement() {
    // After one unique write: one AMT entry, plus one index entry — in
    // NVMM for a full store, in SRAM for the EFIT.
    let table = [
        (SchemeKind::DedupSha1, SHA1_ENTRY_BYTES, 0),
        (SchemeKind::DedupMd5, MD5_ENTRY_BYTES, 0),
        (SchemeKind::Pde, SHA1_ENTRY_BYTES, 0),
        (SchemeKind::DeWrite, DEWRITE_ENTRY_BYTES, 0),
        (SchemeKind::EsdFull, EFIT_ENTRY_BYTES, 0),
        (SchemeKind::Esd, 0, EFIT_ENTRY_BYTES),
        (SchemeKind::EsdNoVerify, 0, EFIT_ENTRY_BYTES),
    ];
    for (kind, nvmm_entry, sram_entry) in table {
        let mut s = scheme(kind);
        s.write(Ps::ZERO, 0x00, CacheLine::from_fill(1));
        let fp = s.metadata_footprint();
        assert_eq!(
            fp.nvmm_bytes,
            (nvmm_entry + AMT_ENTRY_BYTES) as u64,
            "{kind}"
        );
        assert_eq!(fp.sram_bytes, sram_entry as u64, "{kind}");
    }
    const _: () = assert!(DEWRITE_ENTRY_BYTES < SHA1_ENTRY_BYTES);
}

#[test]
fn selective_kinds_never_look_fingerprints_up_in_nvmm() {
    for kind in [SchemeKind::Esd, SchemeKind::EsdNoVerify] {
        let mut s = scheme(kind);
        for i in 0..50u64 {
            s.write(Ps::ZERO, i * 64, CacheLine::from_seed(i % 7));
        }
        assert_eq!(s.breakdown().nvmm_lookup, Ps::ZERO, "{kind}");
        assert_eq!(s.stats().dedup_nvmm_filtered, 0, "{kind}");
        assert!(s.stats().dedup_cache_filtered > 0, "{kind}");
    }
    // The full-store ablation pays exactly that: unique writes go to NVMM
    // for their fingerprint.
    let mut full = scheme(SchemeKind::EsdFull);
    full.write(Ps::ZERO, 0x00, CacheLine::from_fill(1));
    full.write(Ps::from_us(2), 0x80, CacheLine::from_fill(2));
    assert!(full.nvmm().stats().metadata.reads > 0);
    assert!(full.breakdown().nvmm_lookup > Ps::ZERO);
}

#[test]
fn store_hits_classify_as_cache_filtered() {
    let mut s = scheme(SchemeKind::DedupSha1);
    let line = CacheLine::from_fill(5);
    s.write(Ps::ZERO, 0x00, line);
    s.write(Ps::ZERO, 0x40, line); // cache hit
    assert_eq!(s.stats().dedup_cache_filtered, 1);
    assert_eq!(s.stats().dedup_nvmm_filtered, 0);
}

#[test]
fn full_dedup_keeps_overwritten_content_resurrectable() {
    // Full deduplication never reclaims: even after every logical
    // reference to content `a` is overwritten, its fingerprint (and the
    // stored line it pins) remain in NVMM, so a later write of `a`
    // deduplicates against the old copy — the paper's design, and the
    // reason its metadata/space overhead grows without bound.
    for kind in [
        SchemeKind::DedupSha1,
        SchemeKind::DedupMd5,
        SchemeKind::EsdFull,
    ] {
        let mut s = scheme(kind);
        let a = CacheLine::from_fill(1);
        let b = CacheLine::from_fill(2);
        s.write(Ps::ZERO, 0x00, a);
        s.write(Ps::ZERO, 0x00, b); // overwrites; `a` now has no logical refs
        let w = s.write(Ps::from_us(1), 0x40, a);
        assert!(w.deduplicated, "{kind}: the store still knows content `a`");
        assert_eq!(s.read(Ps::from_us(2), 0x00).data, b, "{kind}");
        assert_eq!(s.read(Ps::from_us(3), 0x40).data, a, "{kind}");
    }
}

#[test]
fn esd_dedup_latency_is_read_bound_not_write_bound() {
    let mut s = scheme(SchemeKind::Esd);
    let line = CacheLine::from_fill(0x55);
    s.write(Ps::ZERO, 0x00, line);
    let w = s.write(Ps::from_us(1), 0x40, line);
    // Probe (2ns) + verify read (15ns row hit + 4ns bus) + compare (2ns)
    // + decrypt (5ns) + AMT update.
    assert!(w.latency < Ps::from_ns(120), "dedup path was {}", w.latency);
    assert!(
        w.latency >= Ps::from_ns(15),
        "must include the verify read (row-buffer hit)"
    );
    // Without the verify read the decision is SRAM-speed only.
    let mut trusting = scheme(SchemeKind::EsdNoVerify);
    trusting.write(Ps::ZERO, 0x00, line);
    let w = trusting.write(Ps::from_us(1), 0x40, line);
    assert!(w.deduplicated && w.latency < Ps::from_ns(15));
}

#[test]
fn efit_eviction_causes_missed_duplicates_not_errors() {
    // A tiny EFIT forces evictions; correctness must hold regardless.
    let mut config = SystemConfig::default();
    config.controller.fingerprint_cache_bytes = 14 * 2; // 2 entries
    let mut s = Scheme::new(SchemeKind::Esd, &config);
    let lines: Vec<CacheLine> = (0..5).map(CacheLine::from_seed).collect();
    for (i, line) in lines.iter().enumerate() {
        s.write(Ps::ZERO, (i as u64) * 64, *line);
    }
    // Rewrite the first content: its fingerprint was evicted, so this is
    // a missed duplicate (selectivity), not a failure.
    let w = s.write(Ps::from_us(1), 0x400, lines[0]);
    assert!(!w.deduplicated);
    assert_eq!(s.read(Ps::from_us(2), 0x400).data, lines[0]);
}

#[test]
fn refer_saturation_rewrites_as_new() {
    for kind in [SchemeKind::Esd, SchemeKind::EsdNoVerify] {
        let mut s = scheme(kind);
        let line = CacheLine::from_fill(0x66);
        s.write(Ps::ZERO, 0x00, line);
        // Push referH to the 1-byte limit.
        let deduped = (1..=300u64)
            .filter(|&i| s.write(Ps::from_us(i), i * 64, line).deduplicated)
            .count();
        // referH saturates at 255, after which the line is rewritten as new
        // (and the EFIT entry then points at the new copy).
        assert!(deduped >= 250, "{kind}: deduped {deduped}");
        assert!(
            s.stats().writes_unique >= 2,
            "{kind}: saturation forces a rewrite"
        );
        // All logicals still read back correctly.
        assert_eq!(s.read(Ps::from_us(1000), 0x40 * 3).data, line, "{kind}");
    }
}

#[test]
fn esd_constructors_carry_their_knobs() {
    let config = SystemConfig::default();
    let lru = Scheme::with_policy(&config, EfitPolicy::Lru);
    assert_eq!(lru.kind(), SchemeKind::Esd);
    assert_eq!(
        lru.efit().expect("ESD has an EFIT").policy(),
        EfitPolicy::Lru
    );
    assert!(scheme(SchemeKind::EsdFull).efit().is_none());

    // Hsiao fingerprints deduplicate exact matches just as Hamming's do.
    let mut s = Scheme::with_codec(&config, EccCodec::Hsiao);
    assert_eq!(
        s.fingerprint_spec(),
        Some(FingerprintSpec::Ecc(EccCodec::Hsiao))
    );
    let line = CacheLine::from_fill(0x21);
    let w1 = s.write(Ps::ZERO, 0x00, line);
    let w2 = s.write(Ps::from_us(1), 0x40, line);
    assert!(!w1.deduplicated && w2.deduplicated);
    assert_eq!(s.read(Ps::from_us(2), 0x40).data, line);
}

#[test]
fn block_keys_equal_the_per_line_fingerprints() {
    // The replay engine computes a block's keys in one kernel call; the
    // write path computes a lone line's inline. They must agree for every
    // spec a scheme has, at lengths around the 4-lane groups and the
    // 64-access block.
    let mut specs: Vec<FingerprintSpec> = SchemeKind::EXTENDED
        .into_iter()
        .filter_map(|kind| scheme(kind).fingerprint_spec())
        .collect();
    specs.push(FingerprintSpec::Ecc(EccCodec::Hsiao));
    let lines: Vec<[u8; 64]> = (0..65u64)
        .map(|i| *CacheLine::from_seed(i % 50).as_bytes())
        .collect();
    for spec in specs {
        let inline = |line: &[u8; 64]| match spec {
            FingerprintSpec::Hash(kind) => kind.compute_key(line).expect("hash kinds have a key"),
            FingerprintSpec::Ecc(codec) => codec.line_fingerprint(line),
        };
        for n in [1, 3, 4, 5, 63, 64, 65] {
            let mut keys = Vec::new();
            spec.compute_keys(&lines[..n], &mut keys);
            let expected: Vec<u64> = lines[..n].iter().map(inline).collect();
            assert_eq!(keys, expected, "{spec:?} over {n} lines");
        }
    }
}

#[test]
fn dewrite_counts_both_misprediction_directions() {
    // F4: the cold predictor says non-duplicate for 0x40, so encryption is
    // overlapped with the CRC — and wasted, because the content is one.
    let mut s = scheme(SchemeKind::DeWrite);
    let line = CacheLine::from_fill(7);
    s.write(Ps::ZERO, 0x00, line);
    let w = s.write(Ps::from_us(1), 0x40, line);
    assert!(w.deduplicated);
    assert_eq!(s.stats().mispredictions, 1, "F4: wasted encryption");

    // F2: teach the predictor that 0x40 writes duplicates, then write
    // unique content there — encryption serialises behind everything else.
    s.write(Ps::from_us(2), 0x40, line);
    s.write(Ps::from_us(3), 0x40, line);
    let trained = s.write(Ps::from_us(4), 0x40, line);
    assert_eq!(s.stats().mispredictions, 1, "predicted duplicates by now");
    let w = s.write(Ps::from_us(5), 0x40, CacheLine::from_fill(99));
    assert!(!w.deduplicated);
    assert_eq!(s.stats().mispredictions, 2, "F2: late encryption");
    assert!(w.latency > trained.latency);
    let scored = s.predictor_stats().expect("DeWrite predicts");
    assert_eq!(scored.total(), 6);
    assert_eq!(scored.incorrect, 2);
}

#[test]
fn pde_hides_encryption_but_wastes_crypt_energy_on_duplicates() {
    let mut pde = scheme(SchemeKind::Pde);
    let mut serial = scheme(SchemeKind::DedupSha1);
    let line = CacheLine::from_fill(0x34);
    // Unique write: the 40ns AES hides under the 321ns hash.
    let wp = pde.write(Ps::ZERO, 0x00, line);
    let ws = serial.write(Ps::ZERO, 0x00, line);
    assert!(wp.latency < ws.latency, "PDE hides encryption");
    // Duplicate write: PDE still encrypted it.
    let before = (pde.stats().compute_energy, serial.stats().compute_energy);
    assert!(pde.write(Ps::from_us(1), 0x40, line).deduplicated);
    assert!(serial.write(Ps::from_us(1), 0x40, line).deduplicated);
    let spent = |s: &Scheme, before| s.stats().compute_energy - before;
    assert!(
        spent(&pde, before.0) > spent(&serial, before.1),
        "crypt energy wasted on dup"
    );
}

/// Finds two distinct cache lines with the same ECC fingerprint, by
/// pigeonhole: a line built from one repeated 8-byte word draws its
/// fingerprint from the ≤256 possible per-word SEC-DED codewords, so
/// scanning a few hundred candidate words must produce a collision.
fn ecc_colliding_lines(codec: EccCodec) -> (CacheLine, CacheLine) {
    let repeated = |word: u64| {
        let mut bytes = [0u8; 64];
        for chunk in bytes.chunks_mut(8) {
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        CacheLine::new(bytes)
    };
    let mut seen: Vec<(u64, CacheLine)> = Vec::new();
    for word in 0..600u64 {
        let line = repeated(word);
        let fp = codec.line_fingerprint(line.as_bytes());
        if let Some((_, first)) = seen.iter().find(|(f, _)| *f == fp) {
            return (*first, line);
        }
        seen.push((fp, line));
    }
    unreachable!("pigeonhole guarantees a collision within 257 candidates");
}

#[test]
fn breakdown_buckets_partition_every_write_exactly() {
    // The seven breakdown buckets must sum to each write's end-to-end
    // latency on all three verifying paths: index miss (unique), hit that
    // verifies (dedup), and hit that fails verification (an ECC collision
    // written as unique).
    let (a, b) = ecc_colliding_lines(EccCodec::Hamming);
    assert_ne!(a, b, "collision must be between distinct contents");
    for kind in [SchemeKind::Esd, SchemeKind::EsdFull] {
        let mut s = scheme(kind);
        let charged = |s: &mut Scheme, now, logical, line| {
            let before = s.breakdown().total();
            let w = s.write(now, logical, line);
            assert_eq!(
                s.breakdown().total() - before,
                w.latency,
                "{kind} at {logical:#x}"
            );
            w
        };
        assert!(!charged(&mut s, Ps::ZERO, 0x00, a).deduplicated);
        assert!(charged(&mut s, Ps::from_us(1), 0x40, a).deduplicated);
        // The comparator must be charged separately from the verify read.
        let bd = s.breakdown();
        assert!(
            bd.compare > Ps::ZERO,
            "{kind}: comparator bucket must be charged"
        );
        assert!(
            bd.compare_read > Ps::ZERO && bd.mapping_update > Ps::ZERO,
            "{kind}"
        );
        let reads_before = s.stats().compare_reads;
        let w3 = charged(&mut s, Ps::from_us(2), 0x80, b);
        assert!(
            !w3.deduplicated,
            "{kind}: colliding content must not deduplicate"
        );
        assert_eq!(s.stats().compare_reads, reads_before + 1, "{kind}");
        assert_eq!(
            s.read(Ps::from_us(3), 0x80).data,
            b,
            "{kind}: collision stays safe"
        );
    }
    // The trusting ablation aliases the colliding line — why it is unsafe.
    let mut trusting = scheme(SchemeKind::EsdNoVerify);
    trusting.write(Ps::ZERO, 0x00, a);
    assert!(trusting.write(Ps::from_us(1), 0x40, b).deduplicated);
    assert_eq!(trusting.read(Ps::from_us(2), 0x40).data, a);
}

#[test]
fn verify_shadow_reports_the_first_read_that_returns_aliased_content() {
    // No generated trace ever makes the shadow fire, so build one that
    // must: `ESD_NoVerify` trusts ECC equality, and `b` collides with `a`.
    let (a, b) = ecc_colliding_lines(EccCodec::Hamming);
    let trace = Trace {
        name: "hand-built".into(),
        accesses: vec![
            Access::write(0x000, a, 10),
            Access::write(0x040, CacheLine::from_fill(0x77), 10),
            Access::write(0x200, b, 10), // deduplicated onto `a`
            Access::read(0x000, 10),
            Access::read(0x040, 10),
            Access::read(0x200, 10), // returns `a`
            Access::write(0x200, a, 10),
            Access::read(0x200, 10),
            Access::write(0x200, b, 10),
            Access::read(0x200, 10), // wrong again, but not the first
        ],
    };
    let config = SystemConfig::default();
    let options = RunOptions::default();
    let error = run_trace(
        Scheme::new(SchemeKind::EsdNoVerify, &config),
        &trace,
        &config,
        &options,
    )
    .expect_err("the aliased read must be caught");
    assert_eq!(
        (error.scheme, error.addr, error.access_index),
        (SchemeKind::EsdNoVerify, 0x200, 5),
    );
    // The verifying scheme reads the candidate back and stays safe.
    run_trace(
        Scheme::new(SchemeKind::Esd, &config),
        &trace,
        &config,
        &options,
    )
    .expect("verified run");
}

#[test]
fn verify_shadow_fires_at_far_addresses_as_at_near_ones() {
    // The shadow's array covers as many lines as the trace has accesses,
    // rounded up to a power of two; every other address takes its map. The
    // aliasing trace above, moved from 0x200 to a tenant-namespaced address
    // and to the first line past the array, must stop at the same read.
    let (a, b) = ecc_colliding_lines(EccCodec::Hamming);
    let aliased_at = |addr: u64| {
        vec![
            Access::write(0x000, a, 10),
            Access::write(0x040, CacheLine::from_fill(0x77), 10),
            Access::write(addr, b, 10), // deduplicated onto `a`
            Access::read(0x000, 10),
            Access::read(0x040, 10),
            Access::read(addr, 10), // returns `a`
            Access::write(addr, a, 10),
            Access::read(addr, 10),
            Access::write(addr, b, 10),
            Access::read(addr, 10),
        ]
    };
    let len = 10usize;
    let past_the_array = len.next_power_of_two() as u64 * 64;
    let options = RunOptions::default();
    let near = first_aliased_read(aliased_at(0x200), len, &options);
    assert_eq!(
        (near.scheme, near.addr, near.access_index),
        (SchemeKind::EsdNoVerify, 0x200, 5),
    );
    for addr in [(1 << 48) | 0x200, past_the_array] {
        let error = first_aliased_read(aliased_at(addr), len, &options);
        assert_eq!(
            (error.scheme, error.addr, error.access_index),
            (near.scheme, addr, near.access_index),
            "aliasing pair at {addr:#x}"
        );
    }
}

/// Reads of never-written addresses: the shadow holds nothing for them, so
/// they move the aliased accesses to a chosen trace index without being
/// checked themselves.
fn filler(n: usize) -> impl Iterator<Item = Access> {
    (0..n as u64).map(|i| Access::read(0x10_0000 + 0x40 * i, 10))
}

/// The `VerifyError` an `ESD_NoVerify` replay of `accesses` stops at,
/// after checking that `ESD` replays them cleanly. The trace's length is
/// pinned so a filler miscount cannot go unseen.
fn first_aliased_read(accesses: Vec<Access>, len: usize, options: &RunOptions) -> VerifyError {
    assert_eq!(accesses.len(), len, "filler miscounted");
    let trace = Trace {
        name: "hand-built".into(),
        accesses,
    };
    let config = SystemConfig::default();
    run_trace(
        Scheme::new(SchemeKind::Esd, &config),
        &trace,
        &config,
        options,
    )
    .expect("verified run");
    run_trace(
        Scheme::new(SchemeKind::EsdNoVerify, &config),
        &trace,
        &config,
        options,
    )
    .expect_err("the aliased read must be caught")
}

#[test]
fn verify_shadow_fires_at_the_same_read_wherever_the_block_boundaries_fall() {
    // `b` deduplicates onto `a` under `ESD_NoVerify`, so a read of `b`'s
    // address returns `a`. Filler places the pair relative to the replay's
    // blocks of `DEFAULT_BATCH` accesses.
    let (a, b) = ecc_colliding_lines(EccCodec::Hamming);
    let batch = DEFAULT_BATCH as usize;
    assert_eq!(batch, 64, "the indices below assume 64-access blocks");
    let options = RunOptions::default();
    let pinned = |error: VerifyError| (error.scheme, error.addr, error.access_index);
    let at = |index| (SchemeKind::EsdNoVerify, 0x200, index);

    // The aliasing write and the read it corrupts in one block.
    let mut accesses: Vec<Access> = filler(20).collect();
    accesses.extend([Access::write(0x000, a, 10), Access::write(0x200, b, 10)]);
    accesses.extend(filler(5));
    accesses.push(Access::read(0x200, 10));
    assert_eq!(pinned(first_aliased_read(accesses, 28, &options)), at(27));

    // The write closes one block (index 63), the read opens the next (64).
    let mut accesses = vec![Access::write(0x000, a, 10)];
    accesses.extend(filler(batch - 2));
    accesses.extend([Access::write(0x200, b, 10), Access::read(0x200, 10)]);
    assert_eq!(pinned(first_aliased_read(accesses, 65, &options)), at(64));

    // A read ahead of a same-address write in its own block is checked
    // against the older write. Older `b`, newer `a`: the read fails.
    let accesses = vec![
        Access::write(0x000, a, 10),
        Access::write(0x200, b, 10),
        Access::read(0x200, 10), // returns `a`, the older write said `b`
        Access::write(0x200, a, 10),
        Access::read(0x200, 10),
    ];
    assert_eq!(pinned(first_aliased_read(accesses, 5, &options)), at(2));
    // Older `a`, newer `b`: the read passes, the one after `b` fails.
    let accesses = vec![
        Access::write(0x000, a, 10),
        Access::write(0x200, a, 10),
        Access::read(0x200, 10),
        Access::write(0x200, b, 10),
        Access::read(0x200, 10), // returns `a`
    ];
    assert_eq!(pinned(first_aliased_read(accesses, 5, &options)), at(4));

    // The read closes a block (63) and a write to its address opens the
    // next (64). Replay gathers the block at 64 before the read executes;
    // the read is still checked against the older write, `b`.
    let mut accesses = vec![Access::write(0x000, a, 10), Access::write(0x200, b, 10)];
    accesses.extend(filler(batch - 3));
    accesses.extend([
        Access::read(0x200, 10), // returns `a`, the older write said `b`
        Access::write(0x200, a, 10),
        Access::read(0x200, 10),
    ]);
    assert_eq!(pinned(first_aliased_read(accesses, 66, &options)), at(63));

    // The aliased read closes the second block (127); the write it aliases
    // onto is at index 0 and the one it must return at 1, both in the first
    // block, and the third block, gathered before the read executes,
    // rewrites its address.
    let mut accesses = vec![Access::write(0x000, a, 10), Access::write(0x200, b, 10)];
    accesses.extend(filler(2 * batch - 3));
    accesses.extend([
        Access::read(0x200, 10), // returns `a`
        Access::write(0x200, a, 10),
        Access::read(0x200, 10),
    ]);
    assert_eq!(pinned(first_aliased_read(accesses, 130, &options)), at(127));

    // A crash inside the block that holds the aliased read (index 100 of
    // the block 64..128): before the read, and at the read itself. The
    // alias is durable, so the re-executed read still returns `a`.
    let mut accesses = vec![Access::write(0x000, a, 10), Access::write(0x200, b, 10)];
    accesses.extend(filler(98));
    accesses.push(Access::read(0x200, 10));
    accesses.extend(filler(27));
    for crash in [70, 100] {
        let options = RunOptions {
            crash_at: Some(CrashPoint {
                access: crash,
                stage: CrashStage::MappingUpdate,
            }),
            journal_every: Some(16),
            ..RunOptions::default()
        };
        assert_eq!(
            pinned(first_aliased_read(accesses.clone(), 128, &options)),
            at(100),
            "crash at {crash}"
        );
    }
}

#[test]
fn breakdown_partitions_every_write_of_every_kind() {
    let trace = generate_trace(&AppProfile::demo(), 5, 2_000);
    for kind in SchemeKind::EXTENDED {
        let mut s = scheme(kind);
        for (i, access) in trace.iter().enumerate() {
            let now = Ps::from_ns(400 * i as u64);
            match access.kind {
                AccessKind::Write => {
                    let before = s.breakdown().total();
                    let w = s.write(now, access.addr, access.data.expect("write data"));
                    assert_eq!(
                        s.breakdown().total() - before,
                        w.latency,
                        "{kind} access {i}"
                    );
                }
                AccessKind::Read => {
                    s.read(now, access.addr);
                }
            }
        }
    }
}

#[test]
fn enabled_obs_records_write_path_spans() {
    let mut s = scheme(SchemeKind::Esd);
    *s.obs_mut() = Obs::enabled(0);
    let line = CacheLine::from_fill(0x77);
    s.write(Ps::ZERO, 0x00, line);
    s.write(Ps::from_us(1), 0x40, line);
    let names: Vec<&str> = s.obs_mut().tracer().events().map(|e| e.name).collect();
    for stage in [
        "efit_probe",
        "encrypt",
        "device_write",
        "compare_read",
        "compare",
        "mapping_update",
    ] {
        assert!(names.contains(&stage), "missing span {stage}: {names:?}");
    }
}

/// The span names charged to each bucket, in `WriteLatencyBreakdown::NAMES`
/// order.
const BUCKET_SPANS: [&[&str]; WriteLatencyBreakdown::BUCKETS] = [
    &["fingerprint"],
    &["efit_probe", "fingerprint_cache_probe"],
    &["fingerprint_nvmm_lookup"],
    &["compare_read"],
    &["compare"],
    &["mapping_update"],
    &["unique_write"],
];

#[test]
fn stage_spans_sum_to_the_breakdown_for_every_kind() {
    // Small caches so every bucket, NVMM lookups included, is charged; a
    // ring large enough to drop nothing.
    let mut config = SystemConfig::default();
    config.controller.fingerprint_cache_bytes = 32 << 10;
    config.controller.mapping_cache_bytes = 32 << 10;
    let trace = generate_trace(&AppProfile::demo(), 14, 6_000);
    let options = RunOptions {
        verify: false,
        scrub_interval: None,
        scrub_lines_per_tick: 64,
        observe: true,
        trace_capacity: 1 << 20,
        epoch_interval: None,
        shards: 1,
        batch: 64,
        quantum: 512,
        crash_at: None,
        journal_every: None,
        kernels: KernelBackend::Auto,
    };
    for kind in SchemeKind::EXTENDED {
        let mut report = run_trace(Scheme::new(kind, &config), &trace, &config, &options)
            .expect("unverified run");
        let obs = report.obs.take().expect("observe extracts the collector");
        assert_eq!(
            obs.tracer().dropped(),
            0,
            "{kind}: the ring must hold the run"
        );
        let buckets = report.breakdown.as_array();
        for (i, spans) in BUCKET_SPANS.iter().enumerate() {
            let bucket = WriteLatencyBreakdown::NAMES[i];
            let traced: Ps = obs
                .tracer()
                .events()
                .filter(|e| e.cat == "write" && spans.contains(&e.name))
                .map(|e| e.dur)
                .sum();
            assert_eq!(traced, buckets[i], "{kind}: spans of bucket {bucket}");
            // The metrics registry saw the same samples.
            let recorded: u64 = spans
                .iter()
                .filter_map(|name| obs.registry().histogram(name))
                .map(|h| h.count())
                .sum();
            let events = obs
                .tracer()
                .events()
                .filter(|e| spans.contains(&e.name))
                .count();
            assert_eq!(
                recorded, events as u64,
                "{kind}: registry samples of {bucket}"
            );
        }
        // Observing changes nothing else: the rest of the report is the
        // unobserved run's.
        let plain = RunOptions {
            observe: false,
            ..options
        };
        assert_eq!(
            report,
            run_trace(Scheme::new(kind, &config), &trace, &config, &plain).unwrap(),
            "{kind}"
        );
    }
}
