//! Cross-scheme invariants: the relationships the paper's evaluation rests
//! on must hold structurally, not just in one lucky run.

use esd::core::{build_scheme, run_trace, RunReport, SchemeKind};
use esd::sim::SystemConfig;
use esd::trace::{generate_trace, AppProfile, Trace};

const ACCESSES: usize = 12_000;

fn run_all(trace: &Trace, config: &SystemConfig) -> Vec<RunReport> {
    SchemeKind::ALL
        .iter()
        .map(|&kind| {
            let scheme = build_scheme(kind, config);
            run_trace(&scheme, trace, config, true).expect("verified run")
        })
        .collect()
}

#[test]
fn full_dedup_schemes_agree_on_eliminated_writes() {
    // Dedup_SHA1 and DeWrite both implement *full* deduplication; modulo
    // fingerprint collisions they must eliminate the same writes.
    let config = SystemConfig::default();
    let trace = generate_trace(&AppProfile::by_name("wrf").unwrap(), 2, ACCESSES);
    let reports = run_all(&trace, &config);
    let sha1 = &reports[1];
    let dewrite = &reports[2];
    let diff = sha1.stats.writes_deduplicated.abs_diff(dewrite.stats.writes_deduplicated);
    assert!(
        diff * 100 <= sha1.stats.writes_deduplicated.max(1),
        "full-dedup schemes diverged: {} vs {}",
        sha1.stats.writes_deduplicated,
        dewrite.stats.writes_deduplicated
    );
}

#[test]
fn esd_is_selective_but_not_crippled() {
    let config = SystemConfig::default();
    let trace = generate_trace(&AppProfile::by_name("facesim").unwrap(), 2, ACCESSES);
    let reports = run_all(&trace, &config);
    let sha1 = reports[1].stats.writes_deduplicated;
    let esd = reports[3].stats.writes_deduplicated;
    assert!(esd <= sha1, "selective dedup cannot beat full dedup");
    assert!(
        esd * 2 >= sha1,
        "ESD should catch the majority of duplicates ({esd} vs {sha1})"
    );
}

#[test]
fn esd_has_lowest_metadata_nvmm_footprint() {
    let config = SystemConfig::default();
    let trace = generate_trace(&AppProfile::by_name("mcf").unwrap(), 4, ACCESSES);
    let reports = run_all(&trace, &config);
    let sha1 = reports[1].metadata.nvmm_bytes;
    let dewrite = reports[2].metadata.nvmm_bytes;
    let esd = reports[3].metadata.nvmm_bytes;
    assert!(esd < dewrite, "ESD stores no fingerprints in NVMM");
    assert!(dewrite < sha1, "CRC entries are smaller than SHA-1 entries");
}

#[test]
fn wear_orders_with_write_traffic() {
    let config = SystemConfig::default();
    let trace = generate_trace(&AppProfile::by_name("blackscholes").unwrap(), 6, ACCESSES);
    let reports = run_all(&trace, &config);
    let baseline = &reports[0];
    for report in &reports[1..] {
        assert!(
            report.pcm.data.writes <= baseline.pcm.data.writes,
            "{}",
            report.scheme
        );
    }
}

#[test]
fn esd_beats_baseline_on_dup_heavy_workloads() {
    // The headline claim, as a structural floor: on the most duplicate
    // workloads ESD must improve writes, reads, IPC and energy.
    let config = SystemConfig::default();
    for name in ["deepsjeng", "lbm", "mcf"] {
        let trace = generate_trace(&AppProfile::by_name(name).unwrap(), 8, ACCESSES);
        let reports = run_all(&trace, &config);
        let n = reports[3].normalized_to(&reports[0]);
        assert!(n.write_speedup > 1.0, "{name}: write {:.2}", n.write_speedup);
        assert!(n.read_speedup > 1.0, "{name}: read {:.2}", n.read_speedup);
        assert!(n.ipc_ratio >= 1.0, "{name}: ipc {:.2}", n.ipc_ratio);
        assert!(n.energy_ratio < 1.0, "{name}: energy {:.2}", n.energy_ratio);
    }
}

#[test]
fn dedup_sha1_shows_the_paper_worst_case_on_leela() {
    // Figure 2: naive SHA-1 dedup degrades the low-duplicate leela.
    let config = SystemConfig::default();
    let trace = generate_trace(&AppProfile::by_name("leela").unwrap(), 8, ACCESSES);
    let reports = run_all(&trace, &config);
    let n = reports[1].normalized_to(&reports[0]);
    assert!(
        n.write_speedup < 1.0,
        "Dedup_SHA1 should slow leela writes, got {:.2}x",
        n.write_speedup
    );
    assert!(n.ipc_ratio < 1.0, "Dedup_SHA1 should hurt leela IPC");
}

#[test]
fn reports_are_reproducible_across_runs() {
    let config = SystemConfig::default();
    let trace = generate_trace(&AppProfile::demo(), 1234, 4_000);
    for kind in SchemeKind::ALL {
        let a = build_scheme(kind, &config);
        let b = build_scheme(kind, &config);
        let ra = run_trace(&a, &trace, &config, true).unwrap();
        let rb = run_trace(&b, &trace, &config, true).unwrap();
        assert_eq!(ra.stats, rb.stats, "{kind}");
        assert_eq!(ra.write_latency, rb.write_latency, "{kind}");
        assert_eq!(ra.pcm, rb.pcm, "{kind}");
        assert_eq!(ra.ipc, rb.ipc, "{kind}");
    }
}
