//! Criterion micro-benchmarks for the components on ESD's critical paths:
//! fingerprint functions (the core of Figure 17's story), the codecs, the
//! metadata structures, and short end-to-end scheme runs.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use esd_collections::U64Map;
use esd_core::{build_scheme, run_trace, Amt, Efit, EfitPolicy, PhysicalAllocator, SchemeKind};
use esd_crypto::{Aes128, CmeEngine};
use esd_ecc::{decode_line, encode_line, encode_word, encode_word_ref, EccFingerprint};
use esd_hash::{crc32, crc64, md5, sha1};
use esd_sim::{Medium, NvmmSystem, PcmConfig, Ps, SystemConfig};
use esd_trace::{generate_trace, AppProfile};

fn bench_fingerprints(c: &mut Criterion) {
    let line = [0xA7u8; 64];
    let mut group = c.benchmark_group("fingerprint_64B");
    group.bench_function("ecc_encode_line", |b| {
        b.iter(|| encode_line(black_box(&line)))
    });
    group.bench_function("ecc_fingerprint", |b| {
        b.iter(|| EccFingerprint::of_line(black_box(&line)))
    });
    group.bench_function("sha1", |b| b.iter(|| sha1(black_box(&line))));
    group.bench_function("md5", |b| b.iter(|| md5(black_box(&line))));
    group.bench_function("crc32", |b| b.iter(|| crc32(black_box(&line))));
    group.bench_function("crc64", |b| b.iter(|| crc64(black_box(&line))));
    group.finish();
}

/// The optimized kernels against the reference formulations they replaced.
fn bench_kernels_vs_reference(c: &mut Criterion) {
    let aes = Aes128::new(&[0x2B; 16]);
    let block = [0x6Bu8; 16];
    let mut group = c.benchmark_group("kernel_vs_reference");
    group.bench_function("aes128_encrypt_block_table", |b| {
        b.iter(|| aes.encrypt_block(black_box(block)))
    });
    group.bench_function("aes128_encrypt_block_ref", |b| {
        b.iter(|| aes.encrypt_block_ref(black_box(block)))
    });
    group.bench_function("hamming_encode_word_table", |b| {
        b.iter(|| encode_word(black_box(0x0123_4567_89AB_CDEFu64)))
    });
    group.bench_function("hamming_encode_word_ref", |b| {
        b.iter(|| encode_word_ref(black_box(0x0123_4567_89AB_CDEFu64)))
    });
    group.finish();
}

/// The batched pipeline's multi-lane kernels against their scalar per-line
/// counterparts, each iteration covering one 4-line group so the two sides
/// share a unit.
fn bench_lane_kernels(c: &mut Criterion) {
    let lines4: [[u8; 64]; 4] =
        std::array::from_fn(|l| std::array::from_fn(|i| (i as u8).wrapping_mul(37) ^ l as u8));
    let aes = Aes128::new(&[0x2B; 16]);
    let blocks4: [[u8; 16]; 4] = std::array::from_fn(|l| std::array::from_fn(|i| i as u8 ^ l as u8));
    let mut group = c.benchmark_group("lane_kernels_4_lines");
    group.bench_function("sha1_lines4", |b| {
        b.iter(|| esd_hash::sha1_lines4(black_box(&lines4)))
    });
    group.bench_function("sha1_scalar_x4", |b| {
        b.iter(|| black_box(&lines4).map(|l| sha1(&l)))
    });
    group.bench_function("md5_lines4", |b| {
        b.iter(|| esd_hash::md5_lines4(black_box(&lines4)))
    });
    group.bench_function("md5_scalar_x4", |b| {
        b.iter(|| black_box(&lines4).map(|l| md5(&l)))
    });
    group.bench_function("aes128_encrypt4", |b| {
        b.iter(|| aes.encrypt4(black_box(blocks4)))
    });
    group.bench_function("aes128_encrypt_block_x4", |b| {
        b.iter(|| black_box(blocks4).map(|blk| aes.encrypt_block(blk)))
    });
    group.bench_function("ecc_encode_lines4", |b| {
        let mut codes = Vec::with_capacity(4);
        b.iter(|| {
            codes.clear();
            esd_ecc::encode_lines(black_box(&lines4[..]), &mut codes);
            codes.len()
        })
    });
    group.bench_function("ecc_encode_line_x4", |b| {
        b.iter(|| black_box(&lines4).map(|l| encode_line(&l)))
    });
    group.finish();
}

fn bench_ecc_decode(c: &mut Criterion) {
    let line = [0x3Cu8; 64];
    let ecc = encode_line(&line);
    let mut corrupted = line;
    corrupted[17] ^= 0x20;
    let mut group = c.benchmark_group("ecc_decode");
    group.bench_function("clean", |b| {
        b.iter(|| decode_line(black_box(&line), black_box(ecc)))
    });
    group.bench_function("one_bit_corrected", |b| {
        b.iter(|| decode_line(black_box(&corrupted), black_box(ecc)))
    });
    group.finish();
}

fn bench_cme(c: &mut Criterion) {
    let mut cme = CmeEngine::new([7u8; 16]);
    let line = [0x11u8; 64];
    let cipher = cme.encrypt_line(0x40, &line);
    let mut group = c.benchmark_group("cme");
    group.bench_function("encrypt_line", |b| {
        let mut cme = CmeEngine::new([7u8; 16]);
        b.iter(|| cme.encrypt_line(black_box(0x40), black_box(&line)))
    });
    group.bench_function("decrypt_line_pad_cached", |b| {
        b.iter(|| cme.decrypt_line(black_box(0x40), black_box(&cipher)))
    });
    group.bench_function("decrypt_line_uncached", |b| {
        let mut cme = CmeEngine::new([7u8; 16]);
        cme.set_pad_cache_lines(0);
        let cipher = cme.encrypt_line(0x40, &line);
        b.iter(|| cme.decrypt_line(black_box(0x40), black_box(&cipher)))
    });
    group.finish();
}

/// The rebuilt flat structures against the implementations they replaced.
fn bench_structures_vs_reference(c: &mut Criterion) {
    const ENTRIES: u64 = 4096;
    let mut group = c.benchmark_group("structure_vs_reference");
    group.bench_function("lru_get_hit_flat", |b| {
        let mut cache: esd_sim::LruCache<u64, u64> = esd_sim::LruCache::new(ENTRIES as usize);
        for i in 0..ENTRIES {
            cache.insert(i * 64, i);
        }
        let mut k = 0u64;
        b.iter(|| {
            k = k.wrapping_add(0x9E37_79B9) % ENTRIES;
            cache.get(black_box(&(k * 64))).copied()
        })
    });
    group.bench_function("u64_table_get_hit", |b| {
        let mut map: U64Map<u64> = U64Map::with_capacity(ENTRIES as usize);
        for i in 0..ENTRIES {
            map.insert(i * 64, i);
        }
        let mut k = 0u64;
        b.iter(|| {
            k = k.wrapping_add(0x9E37_79B9) % ENTRIES;
            map.get(black_box(k * 64)).copied()
        })
    });
    group.bench_function("std_hashmap_get_hit", |b| {
        let mut map: std::collections::HashMap<u64, u64> =
            std::collections::HashMap::with_capacity(ENTRIES as usize);
        for i in 0..ENTRIES {
            map.insert(i * 64, i);
        }
        let mut k = 0u64;
        b.iter(|| {
            k = k.wrapping_add(0x9E37_79B9) % ENTRIES;
            map.get(black_box(&(k * 64))).copied()
        })
    });
    // The content store under every device read and write: a rewrite of a
    // stored line followed by its read-back.
    group.bench_function("medium_store_load", |b| {
        let mut medium = Medium::new();
        for i in 0..ENTRIES {
            medium.store(i * 64, [0; 64], i);
        }
        let mut k = 0u64;
        b.iter(|| {
            k = k.wrapping_add(0x9E37_79B9) % ENTRIES;
            medium.store(black_box(k * 64), [k as u8; 64], k);
            medium.load(k * 64).map(|line| line.ecc)
        })
    });
    group.finish();
}

fn bench_metadata(c: &mut Criterion) {
    let mut group = c.benchmark_group("metadata");
    group.bench_function("efit_lookup_hit", |b| {
        let mut efit = Efit::new(512 << 10, EfitPolicy::Lrcu);
        for fp in 0..10_000u64 {
            efit.insert(fp, fp * 64);
        }
        b.iter(|| efit.lookup(black_box(5_000)))
    });
    group.bench_function("efit_insert_with_eviction", |b| {
        let mut efit = Efit::new(14 * 1024, EfitPolicy::Lrcu); // 1024 entries
        let mut fp = 0u64;
        b.iter(|| {
            fp += 1;
            efit.insert(black_box(fp), fp * 64)
        })
    });
    group.bench_function("efit_bump_ref", |b| {
        // Counts spread over 1..=8 and never decay: a bump moves an entry
        // within the ordered `refer >= 2` set, a re-insert takes it out.
        let mut efit = Efit::new(14 * 1024, EfitPolicy::Lrcu);
        efit.set_decay_interval(u64::MAX);
        for fp in 0..1024u64 {
            efit.insert(fp, fp * 64);
        }
        let mut fp = 0u64;
        b.iter(|| {
            fp = (fp + 1) % 1024;
            if efit.bump_ref(black_box(fp)) == Some(8) {
                efit.insert(fp, fp * 64);
            }
        })
    });
    group.bench_function("efit_decay_tick", |b| {
        // 64 bumps promote 64 entries to refer 2, then one decay pass
        // merges them back into the refer-1 list: a bump plus 1/64 pass.
        let mut efit = Efit::new(14 * 1024, EfitPolicy::Lrcu);
        efit.set_decay_interval(64);
        for fp in 0..1024u64 {
            efit.insert(fp, fp * 64);
        }
        let mut fp = 0u64;
        b.iter(|| {
            fp = (fp + 1) % 1024;
            efit.bump_ref(black_box(fp))
        })
    });
    group.bench_function("alloc_churn", |b| {
        // What one unique write over a full EFIT costs the allocator: a
        // new line, the EFIT's pin on it, the displaced pin, and the last
        // reference to an older line, whose address is then recycled.
        let mut alloc = PhysicalAllocator::new();
        let mut lines: Vec<u64> = (0..4096).map(|_| alloc.allocate()).collect();
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % lines.len();
            let line = alloc.allocate();
            alloc.incref(line);
            alloc.decref(line);
            let old = std::mem::replace(&mut lines[i], line);
            alloc.decref(black_box(old))
        })
    });
    group.bench_function("amt_translate_cached", |b| {
        let mut nvmm = NvmmSystem::new(PcmConfig::default());
        let mut amt = Amt::new(512 << 10);
        for i in 0..1_000u64 {
            amt.update(Ps::ZERO, i * 64, i * 64, &mut nvmm);
        }
        b.iter(|| amt.translate(Ps::ZERO, black_box(512 * 64), &mut nvmm))
    });
    group.finish();
}

fn bench_trace_generation(c: &mut Criterion) {
    let profile = AppProfile::by_name("gcc").expect("paper workload");
    c.bench_function("generate_trace_10k", |b| {
        b.iter(|| generate_trace(black_box(&profile), 42, 10_000))
    });
}

fn bench_schemes_end_to_end(c: &mut Criterion) {
    let config = SystemConfig::default();
    let trace = generate_trace(&AppProfile::demo(), 42, 5_000);
    let mut group = c.benchmark_group("scheme_5k_accesses");
    group.sample_size(10);
    for kind in SchemeKind::ALL {
        group.bench_function(kind.name(), |b| {
            b.iter(|| {
                let scheme = build_scheme(kind, &config);
                run_trace(&scheme, black_box(&trace), &config, false).expect("run")
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_fingerprints,
    bench_kernels_vs_reference,
    bench_lane_kernels,
    bench_ecc_decode,
    bench_cme,
    bench_structures_vs_reference,
    bench_metadata,
    bench_trace_generation,
    bench_schemes_end_to_end
);
criterion_main!(benches);
