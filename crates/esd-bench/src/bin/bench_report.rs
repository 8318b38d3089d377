//! Measures the parallel sweep against its single-threaded reference,
//! times the hot-path kernels and metadata structures against their
//! reference implementations, and writes `BENCH_sweep.json` at the repo
//! root.
//!
//! Runs the full 20-workload x 4-scheme sweep twice: once through
//! [`Sweep::run_serial`] (one thread, each trace generated once) and once
//! through [`Sweep::run_timed`] (the work-stealing pool at full machine
//! parallelism). The report records both wall-clocks and throughputs, the
//! actual pool size used, the parallel speedup, the end-to-end throughput
//! delta against the previously checked-in report, per-(workload, scheme)
//! replay times, the per-operation speedup of each optimized kernel
//! (T-table AES, table-driven Hamming encode, unrolled SHA-1/MD5) over the
//! reference formulation it replaced, and the same for the metadata
//! structures (flat LRU vs the map-based cache, open-addressed `U64Map` vs
//! `std::collections::HashMap`, pad-cached CTR decrypt vs uncached).
//!
//! Also measures the multi-lane kernels behind the batched replay pipeline
//! (4-wide SHA-1/MD5/AES, block-granular ECC encode, batched pad fill)
//! against their scalar per-line shapes, and replays one trace at
//! increasing batch sizes (`batch_scaling`). The report carries an
//! `environment` block (core count, `ESD_*` knobs, build profile) so two
//! checked-in sweeps can be compared knowing what produced them, and a
//! `recovery` block: one trace crashed mid-write and recovered at each of
//! several metadata-journal checkpoint intervals (plus journaling off),
//! the recovery-time-vs-journal-interval curve.
//!
//! Each dispatched compute kernel is timed twice — once with the
//! process-wide backend forced to `scalar`, once forced to `simd` — so
//! the report carries a scalar row and a hardware row (labeled `aes-ni`,
//! `sha-ni`, `avx2`, or `ssse3`) per kernel, and the `environment` block
//! records the detected CPU features the labels came from.
//!
//! Tunables: `ESD_ACCESSES`, `ESD_SEED`, `ESD_THREADS`, `ESD_BATCH`,
//! `ESD_QUANTUM`, `ESD_KERNEL`, and the fault injector's `ESD_RBER` /
//! `ESD_RBER_SEED` / `ESD_SCRUB_EVERY` (see the crate docs), plus
//! `ESD_BENCH_OUT` to redirect the JSON file.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use esd_bench::report_json::{
    read_previous_accesses_per_second, report_path_from_env, write_bench_json, BatchScaling,
    BenchExtras, EnvironmentInfo, KernelSpeedup, RecoveryCurve, RecoveryPoint, SerialBaseline,
    ServiceCurve, ServicePoint, ServiceTenantRow, ShardScaling,
};
use esd_bench::Sweep;
use esd_collections::U64Map;
use esd_core::SchemeKind;
use esd_crypto::{Aes128, CmeEngine};
use esd_kernels::KernelBackend;
use esd_ecc::{encode_line, encode_word_ref, LINE_BYTES};
use esd_sim::{Medium, StoredLine};

/// Nanoseconds per call of `op`, timed over enough iterations to dwarf
/// clock granularity (best of three passes).
fn time_ns(mut op: impl FnMut()) -> f64 {
    // Calibrate: grow the iteration count until one pass takes >= 10 ms.
    let mut iters: u64 = 1_000;
    loop {
        let t0 = Instant::now();
        for _ in 0..iters {
            op();
        }
        let elapsed = t0.elapsed();
        if elapsed.as_millis() >= 10 || iters >= 1 << 24 {
            break;
        }
        iters *= 4;
    }
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        for _ in 0..iters {
            op();
        }
        best = best.min(t0.elapsed().as_secs_f64() * 1e9 / iters as f64);
    }
    best
}

/// The instruction-set label a kernel family dispatches to under the SIMD
/// backend on this host, mirroring [`esd_kernels::dispatch_report`].
fn hw_label(kind: &str) -> &'static str {
    let f = esd_kernels::cpu_features();
    match kind {
        "aes" if f.aes => "aes-ni",
        "sha1" if f.sha => "sha-ni",
        "sha1" if f.ssse3 => "ssse3",
        "md5" if f.avx2 => "avx2",
        "ecc" if f.avx2 => "avx2",
        "ecc" if f.ssse3 => "ssse3",
        _ => "scalar",
    }
}

/// Times one dispatched kernel under both backends and returns its two
/// report rows: the `scalar` row (out-of-line reference shape vs the
/// optimized scalar path) and the hardware row (optimized scalar path vs
/// the SIMD path, labeled with the instruction set it dispatched to — or
/// `scalar` again when the host lacks the extension, in which case both
/// timings ran the same code and the speedup is ~1). The gateable
/// invariant is the hardware row's `speedup >= 1.0`: dispatch must never
/// make a kernel slower than forcing `--kernels scalar`.
fn backend_pair(
    name: &str,
    hw: &'static str,
    mut reference: impl FnMut(),
    mut fast: impl FnMut(),
) -> [KernelSpeedup; 2] {
    esd_kernels::set_backend(KernelBackend::Scalar);
    let reference_ns = time_ns(&mut reference);
    let scalar_ns = time_ns(&mut fast);
    esd_kernels::set_backend(KernelBackend::Simd);
    let simd_ns = time_ns(&mut fast);
    esd_kernels::set_backend(KernelBackend::Auto);
    [
        KernelSpeedup {
            name: name.into(),
            backend: "scalar".into(),
            reference_ns,
            fast_ns: scalar_ns,
        },
        KernelSpeedup {
            name: name.into(),
            backend: hw.into(),
            reference_ns: scalar_ns,
            fast_ns: simd_ns,
        },
    ]
}

fn measure_kernels() -> Vec<KernelSpeedup> {
    let line: [u8; LINE_BYTES] = std::array::from_fn(|i| (i as u8).wrapping_mul(37));
    let aes = Aes128::new(&[0x2b; 16]);
    let block: [u8; 16] = std::array::from_fn(|i| i as u8 ^ 0x5a);

    let mut kernels = Vec::new();

    kernels.extend(backend_pair(
        "aes128_encrypt_block",
        hw_label("aes"),
        || {
            black_box(aes.encrypt_block_ref(black_box(block)));
        },
        || {
            black_box(aes.encrypt_block(black_box(block)));
        },
    ));

    // The word encoder has no SIMD variant (dispatch is at line
    // granularity), so this row is scalar-only: bit-by-bit parity
    // reference vs the byte-table encoder.
    esd_kernels::set_backend(KernelBackend::Scalar);
    kernels.push(KernelSpeedup {
        name: "hamming_encode_word".into(),
        backend: "scalar".into(),
        reference_ns: time_ns(|| {
            black_box(encode_word_ref(black_box(0x0123_4567_89ab_cdefu64)));
        }),
        fast_ns: time_ns(|| {
            black_box(esd_ecc::encode_word(black_box(0x0123_4567_89ab_cdefu64)));
        }),
    });
    esd_kernels::set_backend(KernelBackend::Auto);

    // The seed's line encoder was a per-word `encode_word` loop over u64
    // loads; reconstruct that shape from the reference word encoder so the
    // single-pass byte-table encoder has an end-to-end baseline.
    kernels.extend(backend_pair(
        "ecc_encode_line",
        hw_label("ecc"),
        || {
            let line = black_box(&line);
            let mut ecc = [0u8; 8];
            for (w, chunk) in ecc.iter_mut().zip(line.chunks_exact(8)) {
                *w = encode_word_ref(u64::from_le_bytes(chunk.try_into().unwrap()));
            }
            black_box(ecc);
        },
        || {
            black_box(encode_line(black_box(&line)));
        },
    ));

    kernels.extend(backend_pair(
        "sha1_64B_line",
        hw_label("sha1"),
        || {
            black_box(esd_hash::reference::sha1(black_box(&line)));
        },
        || {
            black_box(esd_hash::sha1(black_box(&line)));
        },
    ));

    // Single-line MD5 has no SIMD variant either (each compress is a
    // sequential dependency chain; only the 4-lane shape vectorizes).
    esd_kernels::set_backend(KernelBackend::Scalar);
    kernels.push(KernelSpeedup {
        name: "md5_64B_line".into(),
        backend: "scalar".into(),
        reference_ns: time_ns(|| {
            black_box(esd_hash::reference::md5(black_box(&line)));
        }),
        fast_ns: time_ns(|| {
            black_box(esd_hash::md5(black_box(&line)));
        }),
    });
    esd_kernels::set_backend(KernelBackend::Auto);

    // The multi-lane kernels behind the batched pipeline, each timed per
    // 4-line group against its scalar per-line counterpart (same unit on
    // both sides, so the ratio is the lane win).
    let lines4: [[u8; LINE_BYTES]; 4] =
        std::array::from_fn(|l| std::array::from_fn(|i| (i as u8).wrapping_mul(37) ^ l as u8));

    kernels.extend(backend_pair(
        "sha1_4_lines",
        hw_label("sha1"),
        || {
            for l in black_box(&lines4) {
                black_box(esd_hash::sha1(l));
            }
        },
        || {
            black_box(esd_hash::sha1_lines4(black_box(&lines4)));
        },
    ));

    kernels.extend(backend_pair(
        "md5_4_lines",
        hw_label("md5"),
        || {
            for l in black_box(&lines4) {
                black_box(esd_hash::md5(l));
            }
        },
        || {
            black_box(esd_hash::md5_lines4(black_box(&lines4)));
        },
    ));

    let blocks4: [[u8; 16]; 4] = std::array::from_fn(|l| std::array::from_fn(|i| i as u8 ^ l as u8));
    kernels.extend(backend_pair(
        "aes128_encrypt_4_blocks",
        hw_label("aes"),
        || {
            for b in black_box(blocks4) {
                black_box(aes.encrypt_block(b));
            }
        },
        || {
            black_box(aes.encrypt4(black_box(blocks4)));
        },
    ));

    let mut codes = Vec::with_capacity(4);
    kernels.extend(backend_pair(
        "ecc_encode_4_lines",
        hw_label("ecc"),
        || {
            for l in black_box(&lines4) {
                black_box(encode_line(l));
            }
        },
        || {
            codes.clear();
            esd_ecc::encode_lines(black_box(&lines4[..]), &mut codes);
            black_box(&codes);
        },
    ));

    // Batched keystream fill vs the scalar shape it replaced: one AES call
    // per 16-byte pad block. Both sides expand 16 line pads (64 blocks).
    let engine = esd_crypto::CmeEngine::new([0x2B; 16]);
    let pairs: Vec<(u64, u64)> = (0..16u64).map(|i| (i * 64, 1)).collect();
    let mut pads = Vec::with_capacity(pairs.len());
    kernels.extend(backend_pair(
        "ctr_pad_fill_16_lines",
        hw_label("aes"),
        || {
            for &(addr, counter) in black_box(&pairs) {
                for blk in 0..4u8 {
                    let mut tweak = [0u8; 16];
                    tweak[..8].copy_from_slice(&addr.to_le_bytes());
                    tweak[8..15].copy_from_slice(&counter.to_le_bytes()[..7]);
                    tweak[15] = blk;
                    black_box(aes.encrypt_block(tweak));
                }
            }
        },
        || {
            pads.clear();
            engine.fill_pads(black_box(&pairs), &mut pads);
            black_box(&pads);
        },
    ));

    kernels
}

/// Times the rebuilt metadata structures against the implementations they
/// replaced, on the access patterns the simulator actually produces
/// (hot-hit lookups over line-aligned u64 keys).
fn measure_structures() -> Vec<KernelSpeedup> {
    const ENTRIES: u64 = 4096;
    let mut structures = Vec::new();

    // Flat LRU (slab + intrusive list + open-addressed index) vs the seed's
    // HashMap + BTreeMap cache: `get` on a full cache is the AMT/fingerprint
    // hot path — every hit re-stamps recency.
    let mut flat: esd_sim::LruCache<u64, u64> = esd_sim::LruCache::new(ENTRIES as usize);
    let mut mapped: esd_sim::reference::LruCache<u64, u64> =
        esd_sim::reference::LruCache::new(ENTRIES as usize);
    for i in 0..ENTRIES {
        flat.insert(i * 64, i);
        mapped.insert(i * 64, i);
    }
    let mut k_ref = 0u64;
    let mut k_fast = 0u64;
    structures.push(KernelSpeedup {
        name: "lru_get_hit".into(),
        backend: String::new(),
        reference_ns: time_ns(|| {
            k_ref = k_ref.wrapping_add(0x9E37_79B9) % ENTRIES;
            black_box(mapped.get(&(k_ref * 64)));
        }),
        fast_ns: time_ns(|| {
            k_fast = k_fast.wrapping_add(0x9E37_79B9) % ENTRIES;
            black_box(flat.get(&(k_fast * 64)));
        }),
    });

    // Open-addressed U64Map vs std HashMap (SipHash): the shape of every
    // AMT / fingerprint-table / refcount probe.
    let mut std_map: HashMap<u64, u64> = HashMap::with_capacity(ENTRIES as usize);
    let mut u64_map: U64Map<u64> = U64Map::with_capacity(ENTRIES as usize);
    for i in 0..ENTRIES {
        std_map.insert(i * 64, i);
        u64_map.insert(i * 64, i);
    }
    let mut k_ref = 0u64;
    let mut k_fast = 0u64;
    structures.push(KernelSpeedup {
        name: "u64_table_get_hit".into(),
        backend: String::new(),
        reference_ns: time_ns(|| {
            k_ref = k_ref.wrapping_add(0x9E37_79B9) % ENTRIES;
            black_box(std_map.get(&(k_ref * 64)));
        }),
        fast_ns: time_ns(|| {
            k_fast = k_fast.wrapping_add(0x9E37_79B9) % ENTRIES;
            black_box(u64_map.get(k_fast * 64));
        }),
    });

    // The content store under every device read and write: one Fx-hashed
    // table of {line, wear} vs the two SipHash maps it replaced, on a
    // rewrite of a stored line followed by its read-back.
    let mut two_maps: (HashMap<u64, StoredLine>, HashMap<u64, u64>) = Default::default();
    let mut medium = Medium::new();
    for i in 0..ENTRIES {
        two_maps.0.insert(
            i * 64,
            StoredLine {
                data: [0; LINE_BYTES],
                ecc: i,
            },
        );
        two_maps.1.insert(i * 64, 1);
        medium.store(i * 64, [0; LINE_BYTES], i);
    }
    let mut k_ref = 0u64;
    let mut k_fast = 0u64;
    structures.push(KernelSpeedup {
        name: "medium_store_load".into(),
        backend: String::new(),
        reference_ns: time_ns(|| {
            k_ref = k_ref.wrapping_add(0x9E37_79B9) % ENTRIES;
            let (lines, wear) = &mut two_maps;
            lines.insert(
                k_ref * 64,
                StoredLine {
                    data: [k_ref as u8; LINE_BYTES],
                    ecc: k_ref,
                },
            );
            *wear.entry(k_ref * 64).or_insert(0) += 1;
            black_box(lines.get(&(k_ref * 64)));
        }),
        fast_ns: time_ns(|| {
            k_fast = k_fast.wrapping_add(0x9E37_79B9) % ENTRIES;
            medium.store(k_fast * 64, [k_fast as u8; LINE_BYTES], k_fast);
            black_box(medium.load(k_fast * 64));
        }),
    });

    // CTR decrypt with the keystream pad cache vs without: the read-path /
    // verify-read cost, where the line's counter has not moved since the
    // pad was last expanded.
    const CME_LINES: u64 = 256;
    let mut cached = CmeEngine::new([0x2Bu8; 16]);
    let mut uncached = CmeEngine::new([0x2Bu8; 16]);
    uncached.set_pad_cache_lines(0);
    let plain = [0xA5u8; 64];
    let mut ciphers = Vec::new();
    for i in 0..CME_LINES {
        let c = cached.encrypt_line(i * 64, &plain);
        uncached.encrypt_line(i * 64, &plain);
        ciphers.push(c);
    }
    let mut k_ref = 0u64;
    let mut k_fast = 0u64;
    structures.push(KernelSpeedup {
        name: "cme_decrypt_line".into(),
        backend: String::new(),
        reference_ns: time_ns(|| {
            k_ref = (k_ref + 1) % CME_LINES;
            black_box(
                uncached
                    .decrypt_line(k_ref * 64, &ciphers[k_ref as usize])
                    .unwrap(),
            );
        }),
        fast_ns: time_ns(|| {
            k_fast = (k_fast + 1) % CME_LINES;
            black_box(
                cached
                    .decrypt_line(k_fast * 64, &ciphers[k_fast as usize])
                    .unwrap(),
            );
        }),
    });

    structures
}

/// Times a verified ESD replay with observability disabled (the no-op sink
/// behind every hot-path call site) and fully enabled (trace ring, span
/// histograms, epoch snapshots), in nanoseconds per access. The disabled
/// figure is the cost the instrumentation adds to every normal run — it
/// must stay within noise of an uninstrumented build, which the report's
/// `speedup_vs_previous` field cross-checks end to end.
fn measure_obs_overhead() -> Vec<KernelSpeedup> {
    use esd_core::{replay_with, RunOptions};
    let trace = esd_trace::generate_trace(&esd_trace::AppProfile::demo(), 42, 100_000);
    let config = esd_sim::SystemConfig::default();
    let run = |options: &RunOptions| {
        let t0 = Instant::now();
        black_box(
            replay_with(SchemeKind::Esd, &trace, &config, options).expect("verified replay"),
        );
        t0.elapsed().as_secs_f64() * 1e9 / trace.len() as f64
    };
    let off = RunOptions::default();
    let on = RunOptions {
        observe: true,
        epoch_interval: Some(10_000),
        ..RunOptions::default()
    };
    // One warmup pair, then best-of-7 interleaved: the replays are short
    // (~60 ms), so minimum-of-many is what rejects scheduler noise.
    let _ = (run(&off), run(&on));
    let (mut off_ns, mut on_ns) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..7 {
        off_ns = off_ns.min(run(&off));
        on_ns = on_ns.min(run(&on));
    }
    vec![KernelSpeedup {
        name: "esd_replay_obs_enabled_vs_off".into(),
        backend: String::new(),
        reference_ns: on_ns,
        fast_ns: off_ns,
    }]
}

/// Times one trace through the bank-sharded replay engine at increasing
/// worker-thread counts (best of three replays each); `shards = 1` is the
/// serial baseline the speedups are relative to.
fn measure_shard_scaling(config: &esd_sim::SystemConfig) -> Vec<ShardScaling> {
    use esd_core::{effective_shards, replay_with, RunOptions};
    const ACCESSES: usize = 200_000;
    let trace = esd_trace::generate_trace(&esd_trace::AppProfile::demo(), 42, ACCESSES);
    let mut points = Vec::new();
    let mut serial_wall = f64::INFINITY;
    for requested in [1u32, 2, 4, 8] {
        let options = RunOptions {
            shards: requested,
            ..RunOptions::default()
        };
        let run = || {
            let t0 = Instant::now();
            black_box(
                replay_with(SchemeKind::Esd, &trace, config, &options)
                    .expect("verified sharded replay"),
            );
            t0.elapsed().as_secs_f64()
        };
        let _ = run(); // warmup
        let wall = (0..3).map(|_| run()).fold(f64::INFINITY, f64::min);
        if requested == 1 {
            serial_wall = wall;
        }
        points.push(ShardScaling {
            requested_shards: requested,
            effective_shards: effective_shards(requested, config),
            wall_seconds: wall,
            accesses_per_second: ACCESSES as f64 / wall.max(1e-9),
            speedup_vs_serial: serial_wall / wall.max(1e-9),
        });
    }
    points
}

/// Times one trace through the stage-pipelined engine at increasing batch
/// sizes (best of five replays each, single worker so the batch effect is
/// not confounded with thread scaling); `batch = 1` is the scalar baseline
/// the speedups are relative to. Uses the MD5 hash-dedup scheme — the
/// heaviest per-write fingerprint whose 4-lane kernel vectorizes — so the
/// curve reflects the pipeline's kernel win, not just gather overhead.
fn measure_batch_scaling(config: &esd_sim::SystemConfig) -> Vec<BatchScaling> {
    use esd_core::{replay_with, RunOptions};
    const ACCESSES: usize = 200_000;
    let trace = esd_trace::generate_trace(&esd_trace::AppProfile::demo(), 42, ACCESSES);
    let mut points = Vec::new();
    let mut scalar_wall = f64::INFINITY;
    for batch in [1u32, 2, 16, 64] {
        let options = RunOptions {
            batch,
            shards: 1,
            ..RunOptions::default()
        };
        let run = || {
            let t0 = Instant::now();
            black_box(
                replay_with(SchemeKind::DedupMd5, &trace, config, &options)
                    .expect("verified batched replay"),
            );
            t0.elapsed().as_secs_f64()
        };
        let _ = run(); // warmup
        let wall = (0..5).map(|_| run()).fold(f64::INFINITY, f64::min);
        if batch == 1 {
            scalar_wall = wall;
        }
        points.push(BatchScaling {
            batch,
            wall_seconds: wall,
            accesses_per_second: ACCESSES as f64 / wall.max(1e-9),
            speedup_vs_scalar: scalar_wall / wall.max(1e-9),
        });
    }
    points
}

/// Crashes one trace at a fixed write-path point and recovers it at each
/// of several journal checkpoint intervals (`0` = journaling off, full
/// metadata scan). Every replay is verified, so an `Ok` result *is* the
/// zero-lost-acknowledged-writes proof; the rest of the accounting comes
/// straight from the merged recovery report.
fn measure_recovery_curve(config: &esd_sim::SystemConfig) -> RecoveryCurve {
    use esd_core::{replay_with, CrashPoint, CrashStage, RunOptions};
    const ACCESSES: usize = 200_000;
    const CRASH_ACCESS: u64 = 150_000;
    const STAGE: CrashStage = CrashStage::MappingUpdate;
    let trace = esd_trace::generate_trace(&esd_trace::AppProfile::demo(), 42, ACCESSES);
    let mut points = Vec::new();
    for journal_every in [16u64, 64, 256, 1024, 0] {
        let options = RunOptions {
            crash_at: Some(CrashPoint {
                access: CRASH_ACCESS,
                stage: STAGE,
            }),
            journal_every: (journal_every > 0).then_some(journal_every),
            ..RunOptions::default()
        };
        let report = replay_with(SchemeKind::Esd, &trace, config, &options)
            .expect("recovery must never lose an acknowledged write");
        let r = report.recovery.expect("in-range crash always fires");
        points.push(RecoveryPoint {
            journal_every,
            recovery_ns: r.latency.as_ps() as f64 / 1_000.0,
            replay_reads: r.replay_reads,
            records_replayed: r.records_replayed,
            energy_pj: r.energy_pj,
            refcounts_leaked: r.refcounts_leaked,
            // The replay is shadow-verified end to end; reaching this line
            // means every acknowledged write survived the crash.
            lost_acknowledged_writes: 0,
        });
    }
    RecoveryCurve {
        scheme: SchemeKind::Esd.name().into(),
        crash_access: CRASH_ACCESS,
        crash_stage: STAGE.name().to_string(),
        points,
    }
}

/// Runs the multi-tenant service load curve: every (tenants, qps)
/// combination replayed through a fresh shared ESD instance with bounded
/// per-tenant admission queues, recording achieved simulated throughput
/// and tail latency. The per-tenant rows let CI gate on every tenant
/// making progress and on `offered = admitted + rejected` with no leaks.
fn measure_service_curve(config: &esd_sim::SystemConfig) -> ServiceCurve {
    use esd_server::{run_load, LoadSpec, Service, ServiceConfig};
    const REQUESTS_PER_TENANT: u64 = 2_000;
    let shape = ServiceConfig {
        system: *config,
        ..ServiceConfig::default()
    };
    let mut points = Vec::new();
    for tenants in [2u32, 4, 8] {
        for qps in [250_000u64, 1_000_000, 4_000_000] {
            let mut service = Service::new(&ServiceConfig {
                tenants,
                ..shape.clone()
            });
            let spec = LoadSpec {
                tenants,
                qps,
                requests_per_tenant: REQUESTS_PER_TENANT,
                ..LoadSpec::default()
            };
            let report = run_load(&mut service, &spec);
            let sim_seconds = report.summary.sim_end.as_ps() as f64 / 1e12;
            let per_tenant: Vec<ServiceTenantRow> = report
                .summary
                .tenants
                .iter()
                .map(|t| ServiceTenantRow {
                    tenant: t.tenant,
                    admitted: t.admitted,
                    rejected: t.rejected,
                    dedup_rate: t.dedup_rate(),
                    throughput_rps: if sim_seconds > 0.0 {
                        (t.writes + t.reads) as f64 / sim_seconds
                    } else {
                        0.0
                    },
                    p99_ns: t.p99.as_ns_f64(),
                })
                .collect();
            let worst = |f: &dyn Fn(&esd_server::TenantSummary) -> f64| -> f64 {
                report.summary.tenants.iter().map(f).fold(0.0, f64::max)
            };
            points.push(ServicePoint {
                tenants,
                qps,
                applied: report.summary.applied,
                rejected: report.summary.tenants.iter().map(|t| t.rejected).sum(),
                throughput_rps: report.achieved_throughput,
                p50_ns: worst(&|t| t.p50.as_ns_f64()),
                p95_ns: worst(&|t| t.p95.as_ns_f64()),
                p99_ns: worst(&|t| t.p99.as_ns_f64()),
                per_tenant,
            });
        }
    }
    ServiceCurve {
        scheme: SchemeKind::Esd.name().into(),
        queue_depth: shape.queue_depth,
        batch: shape.batch,
        workers: shape.workers,
        requests_per_tenant: REQUESTS_PER_TENANT,
        points,
    }
}

fn main() {
    let sweep = Sweep::default();
    let out_path = report_path_from_env();

    eprintln!(
        "bench_report: {} workloads x {} schemes, {} accesses each, seed {}",
        sweep.apps.len(),
        SchemeKind::ALL.len(),
        sweep.accesses,
        sweep.seed
    );
    if sweep.config.pcm.rber_per_tbit > 0 {
        eprintln!(
            "bench_report: fault injection ON (rber {} per 10^12 bit-reads, seed {:#x}, {})",
            sweep.config.pcm.rber_per_tbit,
            sweep.config.pcm.rber_seed,
            sweep
                .scrub_interval
                .map_or_else(|| "scrub off".to_string(), |n| format!("scrub every {n} accesses"))
        );
    }

    // Capture the previous report's end-to-end throughput before we
    // overwrite the file, so the new report can record the delta.
    let previous = read_previous_accesses_per_second(&out_path);

    eprintln!("bench_report: {}", esd_kernels::dispatch_report());
    eprintln!("bench_report: timing hot-path kernels (scalar and SIMD backends) ...");
    let kernels = measure_kernels();
    for k in &kernels {
        eprintln!(
            "bench_report:   {:<24} [{:<6}] {:>8.1} ns -> {:>7.1} ns  ({:.2}x)",
            k.name,
            k.backend,
            k.reference_ns,
            k.fast_ns,
            k.speedup()
        );
    }

    eprintln!("bench_report: timing metadata structures ...");
    let mut structures = measure_structures();
    for s in &structures {
        eprintln!(
            "bench_report:   {:<24} {:>8.1} ns -> {:>7.1} ns  ({:.2}x)",
            s.name,
            s.reference_ns,
            s.fast_ns,
            s.speedup()
        );
    }

    eprintln!("bench_report: timing observability overhead ...");
    let obs = measure_obs_overhead();
    for o in &obs {
        eprintln!(
            "bench_report:   {:<28} enabled {:>7.1} ns/access, disabled {:>7.1} ns/access \
             (full collection costs {:+.1}%)",
            o.name,
            o.reference_ns,
            o.fast_ns,
            (o.reference_ns / o.fast_ns.max(1e-9) - 1.0) * 100.0
        );
    }
    structures.extend(obs);

    eprintln!("bench_report: intra-run shard scaling ...");
    let shard_scaling = measure_shard_scaling(&sweep.config);
    for p in &shard_scaling {
        eprintln!(
            "bench_report:   shards {:>2} (effective {:>2}) {:>8.3}s  {:>10.0} acc/s  {:.2}x",
            p.requested_shards,
            p.effective_shards,
            p.wall_seconds,
            p.accesses_per_second,
            p.speedup_vs_serial
        );
    }

    eprintln!("bench_report: intra-run batch scaling ...");
    let batch_scaling = measure_batch_scaling(&sweep.config);
    for p in &batch_scaling {
        eprintln!(
            "bench_report:   batch {:>3} {:>8.3}s  {:>10.0} acc/s  {:.2}x",
            p.batch, p.wall_seconds, p.accesses_per_second, p.speedup_vs_scalar
        );
    }

    eprintln!("bench_report: crash-recovery curve ...");
    let recovery = measure_recovery_curve(&sweep.config);
    for p in &recovery.points {
        eprintln!(
            "bench_report:   journal {:>5} {:>10.0} ns recovery, {:>6} replay reads, \
             {:>6} records, {} leaks",
            if p.journal_every == 0 { "off".to_string() } else { p.journal_every.to_string() },
            p.recovery_ns,
            p.replay_reads,
            p.records_replayed,
            p.refcounts_leaked
        );
    }

    eprintln!("bench_report: multi-tenant service curve ...");
    let service = measure_service_curve(&sweep.config);
    for p in &service.points {
        eprintln!(
            "bench_report:   tenants {:>2} qps {:>8} {:>10.0} rps  p99 {:>7.0} ns  \
             rejected {}",
            p.tenants, p.qps, p.throughput_rps, p.p99_ns, p.rejected
        );
    }

    eprintln!("bench_report: serial baseline ...");
    let t0 = Instant::now();
    let serial_rows = sweep.run_serial(&SchemeKind::ALL);
    let serial_wall = t0.elapsed();
    eprintln!(
        "bench_report: serial  {:>8.2}s ({} rows)",
        serial_wall.as_secs_f64(),
        serial_rows.len()
    );

    eprintln!("bench_report: parallel sweep ...");
    let outcome = sweep.run_timed(&SchemeKind::ALL);
    eprintln!(
        "bench_report: parallel {:>7.2}s on {} threads ({:.0} accesses/s)",
        outcome.wall.as_secs_f64(),
        outcome.threads,
        outcome.accesses_per_second(sweep.accesses)
    );

    // The parallel scheduler must reproduce the serial sweep exactly; a
    // mismatch means a determinism bug, and the report would be meaningless.
    for (serial, parallel) in serial_rows.iter().zip(&outcome.rows) {
        assert_eq!(serial.app.name, parallel.app.name, "row order diverged");
        assert_eq!(
            serial.reports, parallel.reports,
            "parallel sweep diverged from serial replay for {}",
            serial.app.name
        );
    }

    let speedup = serial_wall.as_secs_f64() / outcome.wall.as_secs_f64().max(1e-9);
    eprintln!("bench_report: parallel speedup {speedup:.2}x");
    if let Some(previous) = previous {
        let delta = outcome.accesses_per_second(sweep.accesses) / previous.max(1e-9);
        eprintln!(
            "bench_report: end-to-end {:.0} accesses/s vs previous {previous:.0} ({delta:.2}x)",
            outcome.accesses_per_second(sweep.accesses),
        );
        if delta < 0.95 {
            eprintln!(
                "bench_report: WARNING: end-to-end throughput is {delta:.2}x of the \
                 previously checked-in report (below the 0.95 regression threshold); \
                 compare the two reports' environment blocks before trusting the delta"
            );
        }
    }

    let environment = EnvironmentInfo::capture();
    write_bench_json(
        &out_path,
        &sweep,
        &outcome,
        &BenchExtras {
            serial: Some(SerialBaseline { wall: serial_wall }),
            kernels: &kernels,
            structures: &structures,
            shard_scaling: &shard_scaling,
            batch_scaling: &batch_scaling,
            recovery: Some(&recovery),
            service: Some(&service),
            environment: Some(&environment),
            previous_accesses_per_second: previous,
        },
    )
    .unwrap_or_else(|e| panic!("writing {}: {e}", out_path.display()));
    println!("wrote {}", out_path.display());
}
