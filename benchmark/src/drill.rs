//! The outside-in layer drill: each layer's public functions, called in
//! isolation over the workload's *own* inputs — the trace's write lines,
//! their fingerprint sequences, the address stream — inside a span each.
//!
//! The replay engine always simulates `banks` one-bank slices, so the
//! stateful drills (EFIT, fingerprint store, AMT, PCM) keep one instance per
//! slice, sized and routed the way the engine sizes and routes them;
//! otherwise their hit ratios, and so their time per operation, would be
//! those of a different machine.

use esd_core::{Amt, Efit, EfitPolicy, FingerprintStore, SchemeKind, SHA1_ENTRY_BYTES};
use esd_crypto::CmeEngine;
use esd_hash::FingerprintKind;
use esd_sim::{CpuModel, NvmmSystem, Ps, SystemConfig, LINE_BYTES};
use esd_trace::{AccessKind, Trace};

use crate::spans::Recorder;

/// Nanoseconds and operation count of one drilled layer, summed over every
/// trace drilled.
#[derive(Debug, Default, Clone, Copy)]
pub struct Cost {
    pub ns: u64,
    pub ops: u64,
}

impl Cost {
    fn add(&mut self, ns: u64, ops: u64) {
        self.ns += ns;
        self.ops += ops;
    }

    /// Nanoseconds per operation; 0 when the layer saw no operation.
    pub fn per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.ns as f64 / self.ops as f64
        }
    }
}

/// Everything the layer drill measures.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerCosts {
    pub ecc: Cost,
    pub ecc_decode: Cost,
    pub sha1: Cost,
    pub md5: Cost,
    pub crc32: Cost,
    pub encrypt: Cost,
    pub decrypt: Cost,
    pub efit: Cost,
    pub fpstore: Cost,
    pub amt: Cost,
    pub pcm: Cost,
    pub cpu: Cost,
    /// Pad-cache hits and lookups of an in-order encrypt/decrypt pass.
    pub pad_hits: u64,
    pub pad_lookups: u64,
}

/// The one-bank slice of `config` the replay engine gives each of its
/// `banks` scheme instances (mirrors `esd_core`'s private `slice_config`).
fn slice_system(config: &SystemConfig) -> SystemConfig {
    let n = u64::from(config.pcm.banks.max(1));
    let share = |bytes: u64| if bytes == 0 { 0 } else { (bytes / n).max(4096) };
    let mut cfg = *config;
    cfg.pcm.banks = 1;
    cfg.pcm.capacity_bytes = (config.pcm.capacity_bytes / n).max(LINE_BYTES as u64);
    cfg.controller.fingerprint_cache_bytes = share(config.controller.fingerprint_cache_bytes);
    cfg.controller.mapping_cache_bytes = share(config.controller.mapping_cache_bytes);
    cfg
}

fn slice_of(addr: u64, slices: usize) -> usize {
    ((addr / LINE_BYTES as u64) % slices as u64) as usize
}

/// Drills every leaf layer over one trace, adding to `costs`.
pub fn drill_layers(
    rec: &mut Recorder,
    trace: &Trace,
    config: &SystemConfig,
    id: u64,
    costs: &mut LayerCosts,
) {
    let slices = config.pcm.banks.max(1) as usize;
    let slice_cfg = slice_system(config);
    let writes: Vec<(u64, [u8; LINE_BYTES])> = trace
        .iter()
        .filter(|a| a.kind == AccessKind::Write)
        .map(|a| (a.addr, *a.data.expect("write carries data").as_bytes()))
        .collect();
    let lines: Vec<[u8; LINE_BYTES]> = writes.iter().map(|&(_, line)| line).collect();
    let n_lines = lines.len() as u64;

    // ECC: the block encoder the batch pipeline and every unique write use.
    let mut codes = Vec::with_capacity(lines.len());
    let ((), ns) = rec.timed("ecc.encode_lines", id, |_| {
        esd_ecc::encode_lines(&lines, &mut codes)
    });
    costs.ecc.add(ns, n_lines);
    let ecc_keys: Vec<u64> = codes.iter().map(|c| c.to_u64()).collect();
    // ... and the decoder every device read runs, over the same lines.
    let ((), ns) = rec.timed("ecc.decode_lines", id, |_| {
        for (line, code) in lines.iter().zip(&codes) {
            std::hint::black_box(esd_ecc::decode_line(line, *code).expect("clean line decodes"));
        }
    });
    costs.ecc_decode.add(ns, n_lines);

    // Hash kernels, through the same block entry point the engine calls.
    let mut sha1_keys = Vec::new();
    for (kind, span, cost) in [
        (FingerprintKind::Sha1, "hash.sha1", &mut costs.sha1),
        (FingerprintKind::Md5, "hash.md5", &mut costs.md5),
        (FingerprintKind::Crc32, "hash.crc32", &mut costs.crc32),
    ] {
        let mut keys = Vec::with_capacity(lines.len());
        let ((), ns) = rec.timed(span, id, |_| kind.compute_keys(&lines, &mut keys));
        cost.add(ns, n_lines);
        std::hint::black_box(&keys);
        if kind == FingerprintKind::Sha1 {
            sha1_keys = keys;
        }
    }

    // Counter-mode encryption: every write line at its address, then a
    // decrypt at every read of a written address.
    let mut cme = CmeEngine::new([0xE5; 16]);
    let ((), ns) = rec.timed("crypto.encrypt", id, |_| {
        for (addr, line) in &writes {
            std::hint::black_box(cme.encrypt_line(*addr, line));
        }
    });
    costs.encrypt.add(ns, n_lines);
    let reads: Vec<u64> = trace
        .iter()
        .filter(|a| a.kind == AccessKind::Read && cme.counter(a.addr).is_some())
        .map(|a| a.addr)
        .collect();
    let ((), ns) = rec.timed("crypto.decrypt", id, |_| {
        for &addr in &reads {
            std::hint::black_box(
                cme.decrypt_line(addr, &[0u8; LINE_BYTES])
                    .expect("address was encrypted"),
            );
        }
    });
    costs.decrypt.add(ns, reads.len() as u64);
    // The pad cache's hit ratio depends on the interleaving, so it comes
    // from a separate pass in trace order.
    let mut ordered = CmeEngine::new([0xE5; 16]);
    for access in trace.iter() {
        match access.kind {
            AccessKind::Write => {
                ordered.encrypt_line(
                    access.addr,
                    access.data.expect("write carries data").as_bytes(),
                );
            }
            AccessKind::Read if ordered.counter(access.addr).is_some() => {
                let _ = ordered.decrypt_line(access.addr, &[0u8; LINE_BYTES]);
            }
            AccessKind::Read => {}
        }
    }
    let (hits, misses) = ordered.pad_cache_stats();
    costs.pad_hits += hits;
    costs.pad_lookups += hits + misses;

    // EFIT: ESD's op sequence over the ECC fingerprints — probe, then bump
    // on a hit or insert on a miss.
    let mut efits: Vec<Efit> = (0..slices)
        .map(|_| {
            Efit::new(
                slice_cfg.controller.fingerprint_cache_bytes,
                EfitPolicy::Lrcu,
            )
        })
        .collect();
    let (ops, ns) = rec.timed("core.efit", id, |_| {
        let mut ops = 0u64;
        for (i, (&(addr, _), &fp)) in writes.iter().zip(&ecc_keys).enumerate() {
            let efit = &mut efits[slice_of(addr, slices)];
            if efit.lookup(fp).is_some() {
                efit.bump_ref(fp);
            } else {
                efit.insert(fp, (i * LINE_BYTES) as u64);
            }
            ops += 2;
        }
        ops
    });
    costs.efit.add(ns, ops);

    // Fingerprint store: full dedup's op sequence over the SHA-1 keys.
    let mut stores: Vec<(FingerprintStore, NvmmSystem)> = (0..slices)
        .map(|_| {
            (
                FingerprintStore::new(
                    slice_cfg.controller.fingerprint_cache_bytes,
                    SHA1_ENTRY_BYTES,
                ),
                NvmmSystem::new(slice_cfg.pcm),
            )
        })
        .collect();
    let (ops, ns) = rec.timed("core.fpstore", id, |_| {
        let mut ops = 0u64;
        for (i, (&(addr, _), &fp)) in writes.iter().zip(&sha1_keys).enumerate() {
            let (store, nvmm) = &mut stores[slice_of(addr, slices)];
            let now = Ps::from_ns(i as u64 * 100);
            let found = store.lookup(now, fp, nvmm);
            ops += 1;
            if found.physical.is_none() {
                store.insert(found.done, fp, (i * LINE_BYTES) as u64, nvmm);
                ops += 1;
            }
        }
        ops
    });
    costs.fpstore.add(ns, ops);

    // AMT: a translate per read, an update per write, over the address stream.
    let mut amts: Vec<(Amt, NvmmSystem)> = (0..slices)
        .map(|_| {
            (
                Amt::with_sram_latency(
                    slice_cfg.controller.mapping_cache_bytes,
                    slice_cfg.controller.sram_latency,
                ),
                NvmmSystem::new(slice_cfg.pcm),
            )
        })
        .collect();
    let ((), ns) = rec.timed("core.amt", id, |_| {
        for (i, access) in trace.iter().enumerate() {
            let (amt, nvmm) = &mut amts[slice_of(access.addr, slices)];
            let now = Ps::from_ns(i as u64 * 100);
            match access.kind {
                AccessKind::Write => {
                    std::hint::black_box(amt.update(
                        now,
                        access.addr,
                        (i * LINE_BYTES) as u64,
                        nvmm,
                    ));
                }
                AccessKind::Read => {
                    std::hint::black_box(amt.translate(now, access.addr, nvmm));
                }
            }
        }
    });
    costs.amt.add(ns, trace.len() as u64);

    // PCM device and medium: a line write per write, a line read per read.
    let mut banks: Vec<NvmmSystem> = (0..slices)
        .map(|_| NvmmSystem::new(slice_cfg.pcm))
        .collect();
    let ((), ns) = rec.timed("sim.pcm", id, |_| {
        for (i, access) in trace.iter().enumerate() {
            let nvmm = &mut banks[slice_of(access.addr, slices)];
            let now = Ps::from_ns(i as u64 * 100);
            match access.kind {
                AccessKind::Write => {
                    let data = access.data.expect("write carries data").into_bytes();
                    std::hint::black_box(nvmm.write_line(now, access.addr, data, 0));
                }
                AccessKind::Read => {
                    std::hint::black_box(nvmm.read_line(now, access.addr));
                }
            }
        }
    });
    costs.pcm.add(ns, trace.len() as u64);

    // CPU model: instruction gaps, write-buffer admission and read stalls
    // at the device's nominal latencies.
    let mut cpu = CpuModel::new(config.cpu, config.controller.write_buffer_depth);
    let ((), ns) = rec.timed("sim.cpu", id, |_| {
        for access in trace.iter() {
            cpu.execute(u64::from(access.instruction_gap));
            match access.kind {
                AccessKind::Write => cpu.admit_write(cpu.now() + config.pcm.write_latency),
                AccessKind::Read => cpu.complete_read(cpu.now() + config.pcm.read_latency),
            }
        }
        std::hint::black_box(cpu.ipc());
    });
    costs.cpu.add(ns, trace.len() as u64);
}

/// The scheme layer without the engine: one `build_scheme` instance and a
/// plain `write`/`read` loop behind the CPU model, as the pre-sharding
/// runner drove it. Returns nanoseconds spent.
pub fn scheme_loop(
    rec: &mut Recorder,
    kind: SchemeKind,
    trace: &Trace,
    config: &SystemConfig,
    id: u64,
) -> u64 {
    let ((), ns) = rec.timed("core.scheme.loop", id, |_| {
        let mut scheme = esd_core::build_scheme(kind, config);
        let mut cpu = CpuModel::new(config.cpu, config.controller.write_buffer_depth);
        for access in trace.iter() {
            cpu.execute(u64::from(access.instruction_gap));
            let now = cpu.now();
            match access.kind {
                AccessKind::Write => {
                    let line = access.data.expect("write carries data");
                    let result = scheme.write(now, access.addr, line);
                    let release = result
                        .device_finish
                        .map_or(result.processing_done, |f| f.max(result.processing_done));
                    cpu.admit_write(release);
                }
                AccessKind::Read => {
                    let result = scheme.read(now, access.addr);
                    cpu.complete_read(result.finish);
                }
            }
        }
        std::hint::black_box(scheme.stats());
    });
    ns
}
