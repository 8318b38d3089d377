//! The paper's headline results as orderings, signs and crossovers, not
//! magnitudes: one reduced sweep of the 20 workloads through the four
//! evaluated schemes, shared by every assertion, plus the Figure 18 cache
//! sweep. Every parameter is set here; no `ESD_*` variable is read.

use std::sync::OnceLock;

use esd::core::{run_trace, EfitPolicy, RunOptions, RunReport, Scheme, SchemeKind};
use esd::sim::SystemConfig;
use esd::trace::{generate_trace, AppProfile};
use esd_bench::figures::CDF_APPS;
use esd_bench::{AppRow, Sweep};

/// The paper's machine runs 1 000 000 accesses per workload against a
/// 512 KiB fingerprint cache; this sweep runs 1/`SCALE` of both.
const SCALE: u64 = 64;
const ACCESSES: usize = 1_000_000 / SCALE as usize;

/// Table I with the fingerprint cache scaled with the trace.
fn config() -> SystemConfig {
    let mut config = SystemConfig::default();
    config.controller.fingerprint_cache_bytes /= SCALE;
    config
}

fn rows() -> &'static [AppRow] {
    static ROWS: OnceLock<Vec<AppRow>> = OnceLock::new();
    ROWS.get_or_init(|| {
        Sweep {
            apps: AppProfile::all(),
            accesses: ACCESSES,
            seed: 42,
            config: config(),
            threads: None,
            scrub_interval: None,
            epoch_interval: None,
        }
        .run(&SchemeKind::ALL)
    })
}

fn report(row: &AppRow, kind: SchemeKind) -> &RunReport {
    row.report(kind).expect("the sweep ran every paper scheme")
}

#[test]
fn esd_never_loses_ipc_to_baseline() {
    // Figure 14: ESD is at least as fast as Baseline on every workload.
    for row in rows() {
        let base = report(row, SchemeKind::Baseline);
        let ipc = report(row, SchemeKind::Esd).normalized_to(base).ipc_ratio;
        assert!(ipc >= 1.0, "{}: ESD IPC {ipc:.3}x Baseline", row.app.name);
    }
}

/// Each workload's dup rate and Dedup_SHA1 write speedup over Baseline.
fn full_dedup_write_speedups() -> impl Iterator<Item = (&'static str, f64, f64)> {
    rows().iter().map(|row| {
        let base = report(row, SchemeKind::Baseline);
        let speedup = report(row, SchemeKind::DedupSha1)
            .normalized_to(base)
            .write_speedup;
        (row.app.name.as_str(), row.app.dup_rate, speedup)
    })
}

#[test]
fn full_dedup_speeds_writes_up_only_on_dup_heavy_apps() {
    // Figure 12: Dedup_SHA1 hashes every write, which costs more than the
    // duplicates save unless most writes are duplicates.
    for (app, dup_rate, speedup) in full_dedup_write_speedups() {
        if speedup > 1.0 {
            assert!(
                dup_rate > 0.6,
                "{app}: {speedup:.2}x at dup rate {dup_rate}"
            );
        }
    }
}

#[test]
fn full_dedup_speeds_writes_up_on_the_most_dup_heavy_apps() {
    // Figure 12, the other side of the crossover.
    for (app, dup_rate, speedup) in full_dedup_write_speedups() {
        if dup_rate >= 0.75 {
            assert!(speedup > 1.0, "{app}: {speedup:.2}x at dup rate {dup_rate}");
        }
    }
}

#[test]
fn esd_has_the_shortest_write_tail_on_the_figure_15_apps() {
    for row in rows()
        .iter()
        .filter(|r| CDF_APPS.contains(&r.app.name.as_str()))
    {
        let p99 = |kind| report(row, kind).write_latency.percentile(0.99);
        let esd = p99(SchemeKind::Esd);
        for kind in [SchemeKind::DedupSha1, SchemeKind::DeWrite] {
            let other = p99(kind);
            assert!(
                esd < other,
                "{}: ESD p99 {esd} vs {kind} {other}",
                row.app.name
            );
        }
    }
}

#[test]
fn lrcu_hits_at_least_as_often_as_lru_at_every_cache_size() {
    // Figure 18(a): the EFIT hit rate averaged over the eight Figure 15
    // workloads, at each of its cache sizes scaled like the sweep's.
    let traces: Vec<_> = CDF_APPS
        .iter()
        .map(|name| {
            let app = AppProfile::by_name(name).expect("paper workload");
            generate_trace(&app, 42, ACCESSES)
        })
        .collect();
    for kib in [64u64, 128, 256, 512, 1024, 2048] {
        let mut config = config();
        config.controller.fingerprint_cache_bytes = (kib << 10) / SCALE;
        let unverified = RunOptions {
            verify: false,
            ..RunOptions::default()
        };
        let hit_rate = |policy| {
            traces
                .iter()
                .map(|trace| {
                    let scheme = Scheme::with_policy(&config, policy);
                    run_trace(scheme, trace, &config, &unverified)
                        .expect("unverified run")
                        .fingerprint_cache
                        .expect("ESD has an EFIT")
                        .hit_rate()
                })
                .sum::<f64>()
                / traces.len() as f64
        };
        let (lrcu, lru) = (hit_rate(EfitPolicy::Lrcu), hit_rate(EfitPolicy::Lru));
        assert!(lrcu >= lru, "{kib} KiB: LRCU {lrcu:.4} < LRU {lru:.4}");
    }
}

#[test]
fn nvmm_metadata_orders_esd_below_dewrite_below_full_dedup() {
    // Figure 19: ESD keeps only the AMT in NVMM; the full-dedup stores add
    // 17-byte (CRC) and 29-byte (SHA-1) entries.
    for row in rows() {
        let nvmm = |kind| report(row, kind).metadata.nvmm_bytes;
        let (esd, dewrite, sha1) = (
            nvmm(SchemeKind::Esd),
            nvmm(SchemeKind::DeWrite),
            nvmm(SchemeKind::DedupSha1),
        );
        assert!(
            esd < dewrite && dewrite < sha1,
            "{}: {esd} / {dewrite} / {sha1} bytes",
            row.app.name
        );
    }
}

#[test]
fn esd_removes_at_least_ten_points_fewer_writes_than_full_dedup() {
    // Figure 11: the SRAM-only EFIT gives up the less referenced
    // duplicates (paper: 47.8 % of writes removed, about 18 points fewer
    // than full dedup).
    let reduction = |kind| {
        let rows = rows();
        rows.iter()
            .map(|row| {
                let writes = |kind| report(row, kind).nvmm_data_writes() as f64;
                1.0 - writes(kind) / writes(SchemeKind::Baseline)
            })
            .sum::<f64>()
            / rows.len() as f64
    };
    let (esd, sha1) = (reduction(SchemeKind::Esd), reduction(SchemeKind::DedupSha1));
    assert!(
        sha1 - esd >= 0.10,
        "write reduction: ESD {esd:.3}, Dedup_SHA1 {sha1:.3}"
    );
}

#[test]
fn full_dedup_filters_over_a_tenth_of_its_duplicates_in_nvmm() {
    // Figure 5: the fingerprints a full store needs do not fit in SRAM
    // (paper: 13.7 % of duplicates are found by NVMM lookups).
    let total = |stat: fn(&RunReport) -> u64| {
        rows()
            .iter()
            .map(|row| stat(report(row, SchemeKind::DedupSha1)))
            .sum::<u64>() as f64
    };
    let nvmm = total(|r| r.stats.dedup_nvmm_filtered);
    let all = total(|r| r.stats.writes_deduplicated);
    assert!(
        nvmm / all > 0.10,
        "Dedup_SHA1 found {nvmm} of {all} duplicates in NVMM"
    );
}
