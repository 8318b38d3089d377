//! Integration coverage for the extended scheme set (Dedup_MD5, PDE,
//! ESD_Full, ESD_NoVerify) and the mixed-workload path.

use esd::core::{run_trace, RunOptions, Scheme, SchemeKind};
use esd::sim::SystemConfig;
use esd::trace::{generate_trace, interleave_traces, AppProfile};

const ACCESSES: usize = 8_000;

#[test]
fn extended_schemes_preserve_data() {
    let config = SystemConfig::default();
    let trace = generate_trace(&AppProfile::by_name("facesim").unwrap(), 19, ACCESSES);
    for kind in [SchemeKind::DedupMd5, SchemeKind::Pde, SchemeKind::EsdFull] {
        let scheme = Scheme::new(kind, &config);
        run_trace(scheme, &trace, &config, &RunOptions::default())
            .unwrap_or_else(|e| panic!("{kind}: {e}"));
    }
}

#[test]
fn md5_and_sha1_full_dedup_agree() {
    let config = SystemConfig::default();
    let trace = generate_trace(&AppProfile::by_name("gcc").unwrap(), 7, ACCESSES);
    let sha1 = Scheme::new(SchemeKind::DedupSha1, &config);
    let md5 = Scheme::new(SchemeKind::DedupMd5, &config);
    let r_sha1 = run_trace(sha1, &trace, &config, &RunOptions::default()).unwrap();
    let r_md5 = run_trace(md5, &trace, &config, &RunOptions::default()).unwrap();
    assert_eq!(
        r_sha1.stats.writes_deduplicated, r_md5.stats.writes_deduplicated,
        "both full hash schemes catch the same duplicates"
    );
    // MD5 is slightly cheaper per line (312 vs 321 ns).
    assert!(r_md5.avg_write_latency() <= r_sha1.avg_write_latency());
}

#[test]
fn pde_is_faster_but_hungrier_than_serial_sha1() {
    let config = SystemConfig::default();
    let trace = generate_trace(&AppProfile::by_name("x264").unwrap(), 7, ACCESSES);
    let serial = Scheme::new(SchemeKind::DedupSha1, &config);
    let pde = Scheme::new(SchemeKind::Pde, &config);
    let r_serial = run_trace(serial, &trace, &config, &RunOptions::default()).unwrap();
    let r_pde = run_trace(pde, &trace, &config, &RunOptions::default()).unwrap();
    assert!(
        r_pde.avg_write_latency() <= r_serial.avg_write_latency(),
        "parallel encryption must not be slower"
    );
    assert!(
        r_pde.stats.compute_energy > r_serial.stats.compute_energy,
        "PDE wastes cryptographic energy on duplicates"
    );
}

#[test]
fn esd_full_trades_lookups_for_coverage() {
    let config = SystemConfig::default();
    let trace = generate_trace(&AppProfile::by_name("wrf").unwrap(), 7, 20_000);
    let selective = Scheme::new(SchemeKind::Esd, &config);
    let full = Scheme::new(SchemeKind::EsdFull, &config);
    let r_sel = run_trace(selective, &trace, &config, &RunOptions::default()).unwrap();
    let r_full = run_trace(full, &trace, &config, &RunOptions::default()).unwrap();
    assert!(
        r_full.stats.writes_deduplicated >= r_sel.stats.writes_deduplicated,
        "the full store can only catch more"
    );
    assert_eq!(
        r_sel.pcm.metadata.reads, 0,
        "selective ESD: no fp NVMM lookups"
    );
    assert!(
        r_full.pcm.metadata.reads > 0,
        "full store pays NVMM lookups"
    );
}

#[test]
fn mixed_workloads_run_verified_through_all_paper_schemes() {
    let config = SystemConfig::default();
    let traces: Vec<_> = ["gcc", "lbm"]
        .iter()
        .map(|n| generate_trace(&AppProfile::by_name(n).unwrap(), 3, 4_000))
        .collect();
    let mixed = interleave_traces(&traces, 1 << 36);
    assert_eq!(mixed.len(), 8_000);
    for kind in SchemeKind::ALL {
        let scheme = Scheme::new(kind, &config);
        let report = run_trace(scheme, &mixed, &config, &RunOptions::default())
            .unwrap_or_else(|e| panic!("{kind} on mix: {e}"));
        assert_eq!(report.stats.writes_received as usize, mixed.write_count());
    }
}

#[test]
fn cross_application_zero_lines_dedup_in_mixes() {
    // Both deepsjeng and roms are zero-line dominated: in a mix their zero
    // lines share one stored copy.
    let config = SystemConfig::default();
    let traces: Vec<_> = ["deepsjeng", "roms"]
        .iter()
        .map(|n| generate_trace(&AppProfile::by_name(n).unwrap(), 3, 4_000))
        .collect();
    let mixed = interleave_traces(&traces, 1 << 36);
    let esd = Scheme::new(SchemeKind::Esd, &config);
    let report = run_trace(esd, &mixed, &config, &RunOptions::default()).unwrap();
    assert!(
        report.write_reduction() > 0.9,
        "cross-app zero lines must dedup ({:.3})",
        report.write_reduction()
    );
}
