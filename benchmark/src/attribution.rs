//! Turns drill costs and the workload's own counters into per-layer
//! metrics: time per operation, each layer's share of the end-to-end time,
//! and the exact counts that pin simulated behaviour.

use esd_core::{RunReport, SchemeKind, SchemeStats};
use esd_sim::{CacheStats, PcmStats};

use crate::drill::LayerCosts;
use crate::report::Outcome;

/// FNV-1a, the digest the service's own `state_digest` uses.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// The low 48 bits, which an f64 metric value holds exactly.
    pub fn low48(self) -> f64 {
        low48(self.0)
    }
}

/// The low 48 bits of a digest computed elsewhere.
pub fn low48(digest: u64) -> f64 {
    (digest & 0xFFFF_FFFF_FFFF) as f64
}

fn merge(into: &mut CacheStats, from: Option<CacheStats>) {
    if let Some(c) = from {
        into.hits += c.hits;
        into.misses += c.misses;
        into.evictions += c.evictions;
    }
}

/// What the workload itself did, read from its reports (or from the
/// service's scheme): how often each layer was called, and the simulated
/// statistics that must not move.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    // Calls into each layer, the multipliers of the drilled time per call.
    pub ecc_lines: u64,
    pub ecc_decodes: u64,
    pub accesses: u64,
    pub sha1_lines: u64,
    pub crc32_lines: u64,
    pub encrypt_lines: u64,
    pub decrypt_lines: u64,
    pub efit_ops: u64,
    pub fpstore_ops: u64,
    pub amt_ops: u64,
    pub pcm_accesses: u64,
    // Simulated statistics.
    pub efit: CacheStats,
    pub fpstore: CacheStats,
    pub amt: CacheStats,
    pub writes_received: u64,
    pub writes_deduplicated: u64,
    pub pcm_reads: u64,
    pub pcm_writes: u64,
    pub fingerprint_computations: u64,
    pub compare_reads: u64,
    pub write_latency_ps: u128,
    pub writes_timed: u64,
    pub read_latency_ps: u128,
    pub reads_timed: u64,
    pub ipc_sum: f64,
    pub reports: u64,
    pub digest: Fnv,
}

impl Tally {
    /// Adds one scheme instance's counters.
    pub fn add_scheme(
        &mut self,
        kind: SchemeKind,
        stats: &SchemeStats,
        pcm: &PcmStats,
        fingerprint_cache: Option<CacheStats>,
        amt_cache: Option<CacheStats>,
    ) {
        let ecc_fingerprints = matches!(
            kind,
            SchemeKind::Esd | SchemeKind::EsdFull | SchemeKind::EsdNoVerify
        );
        // Every unique write ECC-encodes its ciphertext; ESD also encodes
        // every incoming line for its fingerprint.
        self.ecc_lines += stats.writes_unique
            + if ecc_fingerprints {
                stats.writes_received
            } else {
                0
            };
        match kind {
            SchemeKind::DedupSha1 => self.sha1_lines += stats.fingerprint_computations,
            SchemeKind::DeWrite => self.crc32_lines += stats.fingerprint_computations,
            _ => {}
        }
        self.encrypt_lines += stats.writes_unique;
        self.decrypt_lines += pcm.data.reads;
        self.ecc_decodes += pcm.data.reads;
        self.accesses += stats.reads_served + stats.writes_received;
        let lookups = fingerprint_cache.map_or(0, |c| c.hits + c.misses);
        match kind {
            SchemeKind::Esd | SchemeKind::EsdNoVerify => {
                self.efit_ops += lookups + stats.writes_deduplicated + stats.writes_unique;
                merge(&mut self.efit, fingerprint_cache);
            }
            SchemeKind::Baseline => {}
            _ => {
                self.fpstore_ops += lookups + stats.writes_unique;
                merge(&mut self.fpstore, fingerprint_cache);
            }
        }
        if amt_cache.is_some() {
            self.amt_ops += stats.reads_served + stats.writes_received;
        }
        merge(&mut self.amt, amt_cache);
        self.pcm_accesses += pcm.data.reads + pcm.data.writes;

        self.writes_received += stats.writes_received;
        self.writes_deduplicated += stats.writes_deduplicated;
        self.pcm_reads += pcm.total_reads();
        self.pcm_writes += pcm.total_writes();
        self.fingerprint_computations += stats.fingerprint_computations;
        self.compare_reads += stats.compare_reads;
    }

    /// Adds one replay's report, digest included.
    pub fn add_report(&mut self, report: &RunReport) {
        self.add_scheme(
            report.scheme,
            &report.stats,
            &report.pcm,
            report.fingerprint_cache,
            report.amt_cache,
        );
        self.write_latency_ps += u128::from(report.write_latency.sum().as_ps());
        self.writes_timed += report.write_latency.count();
        self.read_latency_ps += u128::from(report.read_latency.sum().as_ps());
        self.reads_timed += report.read_latency.count();
        self.ipc_sum += report.ipc;
        self.reports += 1;
        self.digest.eat(format!("{report:?}").as_bytes());
    }

    /// Emits the exact counts and ratios (`sim.*`, hit ratios, digest).
    pub fn emit_invariants(&self, out: &mut Outcome) {
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        let mean = |sum: u128, n: u64| {
            if n == 0 {
                0.0
            } else {
                (sum / u128::from(n)) as f64
            }
        };
        out.set("core.efit.hit_ratio", self.efit.hit_rate());
        out.set("core.efit.evictions", self.efit.evictions as f64);
        out.set("core.fpstore.cache_hit_ratio", self.fpstore.hit_rate());
        out.set("core.amt.cache_hit_ratio", self.amt.hit_rate());
        out.set(
            "sim.dedup_ratio",
            ratio(self.writes_deduplicated, self.writes_received),
        );
        out.set("sim.pcm_reads", self.pcm_reads as f64);
        out.set("sim.pcm_writes", self.pcm_writes as f64);
        out.set(
            "sim.fingerprint_computations",
            self.fingerprint_computations as f64,
        );
        out.set("sim.compare_reads", self.compare_reads as f64);
        out.set(
            "sim.avg_write_latency_ps",
            mean(self.write_latency_ps, self.writes_timed),
        );
        out.set(
            "sim.avg_read_latency_ps",
            mean(self.read_latency_ps, self.reads_timed),
        );
        let ipc = if self.reports == 0 {
            0.0
        } else {
            self.ipc_sum / self.reports as f64
        };
        out.set("sim.ipc_milli", (ipc * 1000.0).round());
        out.set(
            "sim.report_digest",
            if self.reports == 0 {
                0.0
            } else {
                self.digest.low48()
            },
        );
    }
}

/// Emits time per operation and share for every leaf layer and the
/// pad-cache ratio; returns the sum of the shares. `base_ns` is the
/// end-to-end time the shares are taken of; `trace_ns` is trace generation
/// inside it (0 when generation is set-up).
pub fn emit_layers(
    out: &mut Outcome,
    costs: &LayerCosts,
    tally: &Tally,
    base_ns: f64,
    trace_ns: f64,
) -> f64 {
    out.set("ecc.encode_ns_per_line", costs.ecc.per_op());
    out.set("ecc.decode_ns_per_line", costs.ecc_decode.per_op());
    out.set("sim.cpu.ns_per_access", costs.cpu.per_op());
    out.set("hash.sha1_ns_per_line", costs.sha1.per_op());
    out.set("hash.md5_ns_per_line", costs.md5.per_op());
    out.set("hash.crc32_ns_per_line", costs.crc32.per_op());
    out.set("crypto.encrypt_ns_per_line", costs.encrypt.per_op());
    out.set("crypto.decrypt_ns_per_line", costs.decrypt.per_op());
    out.set("core.efit.ns_per_op", costs.efit.per_op());
    out.set("core.fpstore.ns_per_op", costs.fpstore.per_op());
    out.set("core.amt.ns_per_op", costs.amt.per_op());
    out.set("sim.pcm.ns_per_access", costs.pcm.per_op());
    out.set(
        "crypto.pad_cache_hit_ratio",
        if costs.pad_lookups == 0 {
            0.0
        } else {
            costs.pad_hits as f64 / costs.pad_lookups as f64
        },
    );

    let share = |per_op: f64, calls: u64| per_op * calls as f64 / base_ns;
    let shares = [
        ("trace.share", trace_ns / base_ns),
        (
            "ecc.share",
            share(costs.ecc.per_op(), tally.ecc_lines)
                + share(costs.ecc_decode.per_op(), tally.ecc_decodes),
        ),
        ("sim.cpu.share", share(costs.cpu.per_op(), tally.accesses)),
        (
            "hash.share",
            share(costs.sha1.per_op(), tally.sha1_lines)
                + share(costs.crc32.per_op(), tally.crc32_lines),
        ),
        (
            "crypto.share",
            share(costs.encrypt.per_op(), tally.encrypt_lines)
                + share(costs.decrypt.per_op(), tally.decrypt_lines),
        ),
        (
            "core.efit.share",
            share(costs.efit.per_op(), tally.efit_ops),
        ),
        (
            "core.fpstore.share",
            share(costs.fpstore.per_op(), tally.fpstore_ops),
        ),
        ("core.amt.share", share(costs.amt.per_op(), tally.amt_ops)),
        (
            "sim.pcm.share",
            share(costs.pcm.per_op(), tally.pcm_accesses),
        ),
    ];
    let mut attributed = 0.0;
    for (name, value) in shares {
        out.set(name, value);
        attributed += value;
    }
    out.set("bench.e2e_base_s", base_ns / 1e9);
    attributed
}
