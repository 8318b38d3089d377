//! The bank-sliced replay engine's promises: EFIT decay and a mid-run
//! crash are pinned to recorded digests, and epoch occupancies add up
//! across banks.
//!
//! The pinned runs turn on verification, background scrubbing, epoch
//! collection and the observability collector, so a divergence in any of
//! them moves a digest.

use esd::core::{
    replay_with, run_trace_with, CrashPoint, CrashStage, RunOptions, RunReport, Scheme, SchemeKind,
};
use esd::sim::SystemConfig;
use esd::trace::{generate_trace, AppProfile};

fn stress_options() -> RunOptions {
    RunOptions {
        verify: true,
        scrub_interval: Some(1_500),
        scrub_lines_per_tick: 64,
        observe: true,
        trace_capacity: 4_096,
        epoch_interval: Some(2_048),
        shards: 1,
        batch: 64,
        quantum: 4_096,
        crash_at: None,
        journal_every: None,
        kernels: esd::kernels::KernelBackend::Auto,
    }
}

/// FNV-1a of a `Debug` rendering; of a whole report, the same digest the
/// repo benchmark pins as `sim.report_digest`.
fn debug_digest(value: &impl std::fmt::Debug) -> u64 {
    format!("{value:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

// Both taken with `RunReport::obs` cleared: the event stream is allowed to
// grow (the single write path emits a span for every bucket it charges),
// the simulation is not allowed to move. Recorded at the commit before the
// scheme layer was collapsed, where the full-report digests still were
// 12_875_313_727_373_447_909 and 2_373_682_976_565_372_192.
const PINNED_DECAY_DIGEST: u64 = 1_152_712_197_559_032_715;
const PINNED_CRASH_DIGEST: u64 = 17_572_871_077_368_415_657;
// The crash leg's epoch series, which that commit could not produce: the
// crash zeroed the EFIT's hit counters under `merge_epochs` and the next
// epoch's hit delta underflowed. `PINNED_CRASH_DIGEST` is of the report
// without it, as recorded.
const PINNED_CRASH_EPOCHS_DIGEST: u64 = 7_482_864_228_856_138_200;

/// ESD on mostly-unique content with a 292-entry EFIT per slice (the
/// 4 KB floor of `slice_config`) that decays every `decay` operations.
fn decay_run(decay: u64, crash_at: Option<CrashPoint>) -> RunReport {
    let mut config = SystemConfig::default();
    config.controller.fingerprint_cache_bytes = 32 << 10;
    let mut template = Scheme::new(SchemeKind::Esd, &config);
    template.efit_decay_interval(decay);
    // A small working set makes overwrites common, which leaves lines that
    // only the EFIT pins: the crash frees those in `pinned_physicals` order.
    let mut app = AppProfile::by_name("leela").expect("paper workload");
    app.working_set_lines = 4_096;
    let trace = generate_trace(&app, 53, 40_000);
    let options = RunOptions {
        crash_at,
        journal_every: crash_at.map(|_| 128),
        ..stress_options()
    };
    run_trace_with(&template, &trace, &config, &options).expect("verified run")
}

#[test]
fn efit_decay_is_deterministic_and_pinned() {
    // The default decay interval (65 536 operations per slice) never fires
    // in any other run here, so this leg makes it fire every 64. The
    // report's digest is pinned to what the `BTreeSet` EFIT and hash-map
    // refcounts produced at the commit before the slab rewrite: a decay
    // that appends cooled entries instead of merging them by stamp picks
    // other victims and moves it. The crash leg releases every EFIT pin
    // (one to twelve lines per slice become free) and runs on over
    // recycled lines.
    let crash = CrashPoint {
        access: 25_000,
        stage: CrashStage::UniqueWrite,
    };
    for (crash_at, pinned) in [
        (None, PINNED_DECAY_DIGEST),
        (Some(crash), PINNED_CRASH_DIGEST),
    ] {
        let report = decay_run(64, crash_at);
        let cache = report.fingerprint_cache.expect("ESD reports its EFIT");
        assert!(cache.evictions > 1_000, "the small EFIT must overflow");
        assert!(
            report.stats.writes_deduplicated > 1_000,
            "bump_ref must run"
        );
        assert_eq!(report.recovery.is_some(), crash_at.is_some());
        let mut simulation = RunReport {
            obs: None,
            ..report.clone()
        };
        if crash_at.is_some() {
            // Twelve epochs of 2 048 accesses run before the crash, seven
            // after; the EFIT's hit and miss counts must stay cumulative
            // across it (and every rate a ratio of counts, so within 0..=1).
            let epochs = std::mem::take(&mut simulation.epochs);
            assert_eq!(epochs.len(), 19);
            assert!(epochs
                .iter()
                .all(|e| (0.0..=1.0).contains(&e.fingerprint_hit_rate)));
            assert!(epochs[12..].iter().any(|e| e.fingerprint_hit_rate > 0.0));
            assert_eq!(debug_digest(&epochs), PINNED_CRASH_EPOCHS_DIGEST);
        }
        assert_eq!(debug_digest(&simulation), pinned, "crash={crash_at:?}");
        if crash_at.is_none() {
            assert_ne!(
                report.stats,
                decay_run(u64::MAX, None).stats,
                "decay every 64 operations must change what the EFIT keeps"
            );
        }
    }
}

#[test]
fn epoch_occupancies_aggregate_across_all_banks() {
    // Regression for the epoch-merge attribution fix: write_buffer_depth
    // and busy_banks must be summed across slices, not taken from one
    // slice. With the default 32-slot buffer split 4-per-slice across 8
    // banks, a write-heavy trace keeps several slices backlogged at epoch
    // boundaries — the merged depth must exceed any single slice's 4-slot
    // cap, and more than one bank must show up busy.
    let config = SystemConfig::default();
    let mut app = AppProfile::demo();
    app.working_set_lines = 8_192;
    app.dup_rate = 0.0;
    app.zero_fraction = 0.0;
    app.read_fraction = 0.05;
    let trace = generate_trace(&app, 41, 40_000);
    let options = RunOptions {
        epoch_interval: Some(1_024),
        ..RunOptions::default()
    };
    let report =
        replay_with(SchemeKind::Baseline, &trace, &config, &options).expect("verified run");
    assert!(!report.epochs.is_empty(), "epochs collected");
    let per_slice_depth = u64::from(config.controller.write_buffer_depth / config.pcm.banks);
    let max_depth = report
        .epochs
        .iter()
        .map(|e| e.write_buffer_depth)
        .max()
        .unwrap();
    let max_busy = report.epochs.iter().map(|e| e.busy_banks).max().unwrap();
    assert!(
        max_depth > per_slice_depth,
        "merged write-buffer depth ({max_depth}) must aggregate beyond one \
         slice's {per_slice_depth}-slot share"
    );
    assert!(
        max_busy > 1,
        "a saturating write stream must show more than one busy bank \
         (got {max_busy})"
    );
}
