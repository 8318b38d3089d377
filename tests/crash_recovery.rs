//! §III-E crash consistency: losing every SRAM structure must never lose
//! data — the EFIT is advisory (missed dedups only) and the AMT's
//! authoritative copy lives in NVMM.

use esd::core::{run_trace, CrashPoint, CrashStage, RunOptions, Scheme, SchemeKind};
use esd::sim::{Ps, SystemConfig};
use esd::trace::{generate_trace, AppProfile, CacheLine};

#[test]
fn crash_preserves_all_data() {
    let config = SystemConfig::default();
    let mut esd = Scheme::new(SchemeKind::Esd, &config);
    let lines: Vec<CacheLine> = (0..64).map(CacheLine::from_seed).collect();
    for (i, line) in lines.iter().enumerate() {
        // Write each content twice so plenty of dedup state exists.
        esd.write(Ps::from_us(i as u64), (i as u64) * 64, *line);
        esd.write(
            Ps::from_us(100 + i as u64),
            0x10000 + (i as u64) * 64,
            *line,
        );
    }

    esd.crash_and_recover();

    for (i, line) in lines.iter().enumerate() {
        assert_eq!(
            esd.read(Ps::from_us(300), (i as u64) * 64).data,
            *line,
            "line {i}"
        );
        assert_eq!(
            esd.read(Ps::from_us(301), 0x10000 + (i as u64) * 64).data,
            *line,
            "dedup alias {i}"
        );
    }
}

#[test]
fn post_crash_writes_rebuild_dedup_state() {
    let config = SystemConfig::default();
    let mut esd = Scheme::new(SchemeKind::Esd, &config);
    let line = CacheLine::from_fill(0x42);
    esd.write(Ps::ZERO, 0x00, line);
    let pre = esd.write(Ps::from_us(1), 0x40, line);
    assert!(pre.deduplicated);

    esd.crash_and_recover();

    // The EFIT is empty: the first rewrite is a (safe) missed duplicate...
    let miss = esd.write(Ps::from_us(2), 0x80, line);
    assert!(
        !miss.deduplicated,
        "EFIT was lost; dedup opportunity missed"
    );
    // ...but it repopulates the EFIT, so the next one dedups again.
    let hit = esd.write(Ps::from_us(3), 0xC0, line);
    assert!(hit.deduplicated, "dedup state rebuilds after recovery");
    for addr in [0x00u64, 0x40, 0x80, 0xC0] {
        assert_eq!(esd.read(Ps::from_us(4), addr).data, line);
    }
}

#[test]
fn repeated_crashes_under_load_never_corrupt() {
    let config = SystemConfig::default();
    let app = AppProfile::demo();
    let trace = generate_trace(&app, 23, 6_000);
    let mut esd = Scheme::new(SchemeKind::Esd, &config);

    // Replay in three chunks with a crash between each, verifying reads
    // against a shadow copy across the whole run.
    let chunk = trace.len() / 3;
    let mut shadow = std::collections::HashMap::new();
    for (part, accesses) in trace.accesses.chunks(chunk).enumerate() {
        for (i, access) in accesses.iter().enumerate() {
            let now = Ps::from_us((part * chunk + i + 1) as u64);
            match access.kind {
                esd::trace::AccessKind::Write => {
                    let line = access.data.expect("write data");
                    esd.write(now, access.addr, line);
                    shadow.insert(access.addr, line);
                }
                esd::trace::AccessKind::Read => {
                    let got = esd.read(now, access.addr);
                    if let Some(expected) = shadow.get(&access.addr) {
                        assert_eq!(got.data, *expected, "corruption at {:#x}", access.addr);
                    }
                }
            }
        }
        esd.crash_and_recover();
    }
}

#[test]
fn crash_is_idempotent_and_runs_keep_working() {
    let config = SystemConfig::default();
    let app = AppProfile::demo();
    let trace = generate_trace(&app, 31, 2_000);
    let mut esd = Scheme::new(SchemeKind::Esd, &config);
    esd.crash_and_recover();
    esd.crash_and_recover(); // crash with empty state is fine
    let report = run_trace(esd, &trace, &config, &RunOptions::default()).expect("verified run");
    assert!(report.stats.writes_received > 0);
}

#[test]
fn efit_decay_interval_survives_crash() {
    // Regression: recovery used to rebuild the EFIT via `Efit::new`, which
    // silently reset a configured decay interval back to the default — a
    // mid-study crash would quietly change the experiment's parameters.
    let config = SystemConfig::default();
    let mut esd = Scheme::new(SchemeKind::Esd, &config);
    esd.efit_decay_interval(123);
    let line = CacheLine::from_fill(0x5A);
    esd.write(Ps::ZERO, 0x00, line);
    esd.write(Ps::from_us(1), 0x40, line);

    esd.crash_and_recover();

    assert_eq!(
        esd.efit().expect("ESD has an EFIT").decay_interval(),
        123,
        "a crash must not revert the configured EFIT decay interval"
    );
    // The recovered EFIT still works with the preserved configuration.
    let miss = esd.write(Ps::from_us(2), 0x80, line);
    let hit = esd.write(Ps::from_us(3), 0xC0, line);
    assert!(!miss.deduplicated && hit.deduplicated);
}

#[test]
fn run_options_default_is_the_same_in_every_environment() {
    // No crash and no journal unless the caller asks; CI runs this suite
    // with ESD_QUANTUM, ESD_CRASH_AT and ESD_JOURNAL_EVERY set, so a
    // library that reads them again fails here.
    let options = RunOptions::default();
    assert!(options.verify);
    assert_eq!(options.scrub_interval, None);
    assert_eq!(options.scrub_lines_per_tick, 1024);
    assert!(!options.observe);
    assert_eq!(options.trace_capacity, 0);
    assert_eq!(options.epoch_interval, None);
    assert_eq!(options.shards, 1);
    assert_eq!(options.batch, esd::core::DEFAULT_BATCH);
    assert_eq!(options.quantum, esd::core::DEFAULT_QUANTUM);
    assert_eq!(options.crash_at, None);
    assert_eq!(options.journal_every, None);
    assert_eq!(options.kernels, esd::kernels::KernelBackend::Auto);
}

fn crash_options(crash_at: CrashPoint, journal: Option<u64>) -> RunOptions {
    RunOptions {
        verify: true,
        scrub_interval: None,
        scrub_lines_per_tick: 64,
        observe: false,
        trace_capacity: 0,
        epoch_interval: None,
        shards: 1,
        batch: 64,
        quantum: 512,
        crash_at: Some(crash_at),
        journal_every: journal,
        kernels: esd::kernels::KernelBackend::Auto,
    }
}

#[test]
fn injected_crash_fires_at_every_stage() {
    // A seeded crash at each of the seven write-path stages recovers to a
    // verified run, with and without the journal, and the report carries
    // the recovery accounting.
    let config = SystemConfig::default();
    let trace = generate_trace(&AppProfile::demo(), 41, 4_000);
    for stage in CrashStage::ALL {
        for journal in [None, Some(64)] {
            let point = CrashPoint {
                access: 2_000,
                stage,
            };
            let options = crash_options(point, journal);
            let report = run_trace(
                Scheme::new(SchemeKind::Esd, &config),
                &trace,
                &config,
                &options,
            )
            .unwrap_or_else(|e| panic!("{stage}: {e}"));
            let recovery = report.recovery.expect("crash fired");
            assert_eq!(recovery.crash_access, 2_000);
            assert_eq!(recovery.crash_stage, stage);
            assert_eq!(recovery.journal_interval, journal);
            assert_eq!(recovery.refcounts_leaked, 0, "{stage}: refcount leak");
            assert!(recovery.latency > Ps::ZERO, "{stage}: recovery takes time");
            assert_eq!(
                report.stats.writes_received + report.stats.reads_served,
                trace.len() as u64,
                "every access (including the in-flight one) completes post-recovery"
            );
        }
    }
}

#[test]
fn journal_bounds_recovery_reads() {
    // The journal's whole point: replaying a bounded window beats scanning
    // every metadata line. Tighter checkpoint intervals replay fewer
    // records on recovery than the journal-off full scan.
    let config = SystemConfig::default();
    let trace = generate_trace(&AppProfile::demo(), 43, 6_000);
    let point = CrashPoint {
        access: 5_000,
        stage: CrashStage::MappingUpdate,
    };
    let scan = run_trace(
        Scheme::new(SchemeKind::Esd, &config),
        &trace,
        &config,
        &crash_options(point, None),
    )
    .expect("verified")
    .recovery
    .expect("crash fired");
    let journaled = run_trace(
        Scheme::new(SchemeKind::Esd, &config),
        &trace,
        &config,
        &crash_options(point, Some(32)),
    )
    .expect("verified")
    .recovery
    .expect("crash fired");
    assert!(
        journaled.replay_reads < scan.replay_reads,
        "journal replay ({}) must beat the full scan ({})",
        journaled.replay_reads,
        scan.replay_reads
    );
    assert!(journaled.latency < scan.latency);
    // One journal, so the replay window is shorter than one checkpoint
    // interval.
    assert!(
        journaled.records_replayed < 32,
        "replay window {} exceeds the checkpoint interval",
        journaled.records_replayed
    );
}

#[test]
fn crash_recovery_is_reproducible_for_every_scheme() {
    // The crash boundary is a pure function of the crash point, so two
    // replays of one crash must produce byte-identical post-recovery
    // reports, for every kind.
    let config = SystemConfig::default();
    let mut app = AppProfile::demo();
    app.working_set_lines = 2_048;
    let trace = generate_trace(&app, 47, 8_000);
    let point = CrashPoint {
        access: 3_333,
        stage: CrashStage::UniqueWrite,
    };
    let options = crash_options(point, Some(128));
    for kind in SchemeKind::EXTENDED {
        let run = || {
            run_trace(Scheme::new(kind, &config), &trace, &config, &options)
                .unwrap_or_else(|e| panic!("{kind}: {e}"))
        };
        let report = run();
        assert!(report.recovery.is_some(), "{kind}: crash must fire");
        assert_eq!(report, run(), "{kind} diverged between two replays");
    }
}
