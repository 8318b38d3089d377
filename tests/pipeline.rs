//! End-to-end pipeline tests: every scheme replays real paper workloads
//! with full read-back verification (the §III-E "no data loss" guarantee).

use esd::core::{build_scheme, replay_with, run_trace, RunOptions, SchemeKind};
use esd::kernels::KernelBackend;
use esd::sim::SystemConfig;
use esd::trace::{generate_trace, AppProfile};

const ACCESSES: usize = 8_000;

#[test]
fn every_scheme_preserves_data_under_both_kernel_backends() {
    // The full verified pipeline under each forced kernel backend in one
    // process: dispatch is bit-exact, so the everything-verified replay
    // must succeed identically whether the hot kernels run scalar or
    // hardware code. (tests/kernel_backends.rs proves the reports are
    // byte-identical; this covers the read-back guarantee per scheme.)
    let config = SystemConfig::default();
    let trace = generate_trace(&AppProfile::demo(), 17, ACCESSES);
    for kernels in [KernelBackend::Scalar, KernelBackend::Auto] {
        for kind in SchemeKind::ALL {
            let options = RunOptions {
                verify: true,
                kernels,
                ..RunOptions::default()
            };
            replay_with(kind, &trace, &config, &options).unwrap_or_else(|e| {
                panic!("{kind} corrupted data under {kernels} kernels: {e}")
            });
        }
    }
    esd::kernels::set_backend(KernelBackend::Auto);
}

#[test]
fn every_scheme_preserves_data_on_every_paper_workload() {
    let config = SystemConfig::default();
    for app in AppProfile::all() {
        let trace = generate_trace(&app, 11, ACCESSES);
        for kind in SchemeKind::ALL {
            let scheme = build_scheme(kind, &config);
            run_trace(&scheme, &trace, &config, true)
                .unwrap_or_else(|e| panic!("{} corrupted data on {}: {e}", kind, app.name));
        }
    }
}

#[test]
fn dedup_schemes_reduce_write_traffic_on_all_workloads() {
    let config = SystemConfig::default();
    for app in AppProfile::all() {
        let trace = generate_trace(&app, 3, ACCESSES);
        let baseline = build_scheme(SchemeKind::Baseline, &config);
        let base = run_trace(&baseline, &trace, &config, false).unwrap();
        for kind in [SchemeKind::DedupSha1, SchemeKind::DeWrite, SchemeKind::Esd] {
            let scheme = build_scheme(kind, &config);
            let report = run_trace(&scheme, &trace, &config, false).unwrap();
            assert!(
                report.nvmm_data_writes() < base.nvmm_data_writes(),
                "{kind} did not reduce writes on {}",
                app.name
            );
        }
    }
}

#[test]
fn esd_never_computes_hashes_or_touches_nvmm_fingerprints() {
    let config = SystemConfig::default();
    for name in ["lbm", "leela", "deepsjeng", "x264"] {
        let app = AppProfile::by_name(name).unwrap();
        let trace = generate_trace(&app, 5, ACCESSES);
        let scheme = build_scheme(SchemeKind::Esd, &config);
        let report = run_trace(&scheme, &trace, &config, true).unwrap();
        assert_eq!(report.stats.fingerprint_computations, 0, "{name}");
        assert_eq!(
            report.breakdown.fingerprint_compute,
            esd::sim::Ps::ZERO,
            "{name}"
        );
        assert_eq!(report.breakdown.nvmm_lookup, esd::sim::Ps::ZERO, "{name}");
        assert_eq!(report.stats.dedup_nvmm_filtered, 0, "{name}");
    }
}

#[test]
fn full_dedup_schemes_pay_for_fingerprints() {
    let config = SystemConfig::default();
    let app = AppProfile::by_name("gcc").unwrap();
    let trace = generate_trace(&app, 5, ACCESSES);
    for kind in [SchemeKind::DedupSha1, SchemeKind::DeWrite] {
        let scheme = build_scheme(kind, &config);
        let report = run_trace(&scheme, &trace, &config, true).unwrap();
        assert_eq!(
            report.stats.fingerprint_computations,
            report.stats.writes_received,
            "{kind} fingerprints every write"
        );
        assert!(
            report.pcm.metadata.reads > 0,
            "{kind} must perform fingerprint NVMM lookups"
        );
    }
}

#[test]
fn zero_heavy_workloads_collapse_to_almost_no_writes() {
    let config = SystemConfig::default();
    for name in ["deepsjeng", "roms"] {
        let app = AppProfile::by_name(name).unwrap();
        let trace = generate_trace(&app, 9, ACCESSES);
        let scheme = build_scheme(SchemeKind::Esd, &config);
        let report = run_trace(&scheme, &trace, &config, true).unwrap();
        assert!(
            report.write_reduction() > 0.97,
            "{name}: reduction only {:.3}",
            report.write_reduction()
        );
    }
}

#[test]
fn medium_stores_only_ciphertext() {
    // Encrypted NVMM: no plaintext line may appear verbatim on the medium.
    let config = SystemConfig::default();
    let app = AppProfile::demo();
    let trace = generate_trace(&app, 21, 2_000);
    for kind in SchemeKind::ALL {
        let scheme = build_scheme(kind, &config);
        run_trace(&scheme, &trace, &config, true).unwrap();
        let medium = scheme.nvmm().medium();
        for access in &trace {
            if let Some(line) = access.data {
                if line.is_zero() {
                    continue; // the zero line is not distinguishable
                }
                // The plaintext must not be stored at its own logical
                // address (Baseline) — a smoke check of encryption at rest.
                if let Some(stored) = medium.load(access.addr) {
                    assert_ne!(
                        &stored.data,
                        line.as_bytes(),
                        "{kind}: plaintext at rest for {:#x}",
                        access.addr
                    );
                }
            }
        }
    }
}
