//! End-to-end pipeline tests: every scheme replays real paper workloads
//! with full read-back verification (the §III-E "no data loss" guarantee).

use std::collections::HashSet;

use esd::core::{run_trace, CrashPoint, CrashStage, RunOptions, Scheme, SchemeKind};
use esd::kernels::KernelBackend;
use esd::sim::{Ps, SystemConfig};
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
            run_trace(Scheme::new(kind, &config), &trace, &config, &options)
                .unwrap_or_else(|e| panic!("{kind} corrupted data under {kernels} kernels: {e}"));
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
            let scheme = Scheme::new(kind, &config);
            run_trace(scheme, &trace, &config, &RunOptions::default())
                .unwrap_or_else(|e| panic!("{} corrupted data on {}: {e}", kind, app.name));
        }
    }
}

#[test]
fn dedup_schemes_reduce_write_traffic_on_all_workloads() {
    let config = SystemConfig::default();
    let unverified = RunOptions {
        verify: false,
        ..RunOptions::default()
    };
    for app in AppProfile::all() {
        let trace = generate_trace(&app, 3, ACCESSES);
        let baseline = Scheme::new(SchemeKind::Baseline, &config);
        let base = run_trace(baseline, &trace, &config, &unverified).unwrap();
        for kind in [SchemeKind::DedupSha1, SchemeKind::DeWrite, SchemeKind::Esd] {
            let scheme = Scheme::new(kind, &config);
            let report = run_trace(scheme, &trace, &config, &unverified).unwrap();
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
        let scheme = Scheme::new(SchemeKind::Esd, &config);
        let report = run_trace(scheme, &trace, &config, &RunOptions::default()).unwrap();
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
        let scheme = Scheme::new(kind, &config);
        let report = run_trace(scheme, &trace, &config, &RunOptions::default()).unwrap();
        assert_eq!(
            report.stats.fingerprint_computations, report.stats.writes_received,
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
        let scheme = Scheme::new(SchemeKind::Esd, &config);
        let report = run_trace(scheme, &trace, &config, &RunOptions::default()).unwrap();
        assert!(
            report.write_reduction() > 0.97,
            "{name}: reduction only {:.3}",
            report.write_reduction()
        );
    }
}

#[test]
fn medium_stores_only_ciphertext() {
    // Encrypted NVMM: no plaintext line may appear verbatim anywhere on the
    // medium, at its own logical address (Baseline) or at a physical one.
    let config = SystemConfig::default();
    let trace = generate_trace(&AppProfile::demo(), 21, 2_000);
    // The zero line is not distinguishable, so it is not looked for.
    let plaintexts: HashSet<[u8; 64]> = trace
        .iter()
        .filter_map(|access| access.data)
        .filter(|line| !line.is_zero())
        .map(|line| *line.as_bytes())
        .collect();
    assert!(!plaintexts.is_empty());
    for kind in SchemeKind::ALL {
        let mut scheme = Scheme::new(kind, &config);
        let mut now = Ps::ZERO;
        for access in &trace {
            now = match access.data {
                Some(line) => scheme.write(now, access.addr, line).processing_done,
                None => scheme.read(now, access.addr).finish,
            };
        }
        let medium = scheme.nvmm().medium();
        let stored = medium.addresses_sorted();
        assert!(!stored.is_empty(), "{kind}: the medium holds no line");
        for addr in stored {
            let line = medium.load(addr).expect("a listed address is stored");
            assert!(
                !plaintexts.contains(&line.data),
                "{kind}: plaintext at rest at {addr:#x}"
            );
        }
    }
}

#[test]
fn verification_never_changes_a_report() {
    // Verification is host-side checking only: with and without an
    // injected crash, every kind must replay to the same report whether
    // reads are checked or not. The trace is one `ESD_NoVerify` does not
    // alias on, so every verified run completes.
    let config = SystemConfig::default();
    let trace = generate_trace(&AppProfile::demo(), 23, 3_000);
    let total = trace.len() as u64;
    let crashes = [
        None,
        Some(CrashPoint {
            access: total / 2,
            stage: CrashStage::MappingUpdate,
        }),
    ];
    for kind in SchemeKind::EXTENDED {
        for crash_at in crashes {
            let run = |verify| {
                let options = RunOptions {
                    verify,
                    crash_at,
                    journal_every: crash_at.map(|_| 64),
                    // One epoch, closed at the end of the run: its end time
                    // is the clock the IPC divides by.
                    epoch_interval: Some(total),
                    ..RunOptions::default()
                };
                run_trace(Scheme::new(kind, &config), &trace, &config, &options)
                    .unwrap_or_else(|e| panic!("{kind} (crash {crash_at:?}): {e}"))
            };
            let verified = run(true);
            assert_eq!(verified.recovery.is_some(), crash_at.is_some(), "{kind}");
            assert_eq!(verified, run(false), "{kind} (crash {crash_at:?})");
            // Every access executes its instruction gap exactly once, the
            // one a crash interrupts included.
            let end = verified.epochs.last().expect("one epoch").end_time;
            assert_eq!(
                verified.ipc,
                trace.total_instructions() as f64 / config.cpu.clock.ps_to_cycles_f64(end),
                "{kind} (crash {crash_at:?})"
            );
        }
    }
}
