//! Replay's promises: EFIT decay and a mid-run crash are pinned to
//! recorded digests, and epoch occupancies see the whole write buffer and
//! every bank.
//!
//! The pinned runs turn on verification, background scrubbing, epoch
//! collection and the observability collector, so a divergence in any of
//! them moves a digest.

use esd::core::{run_trace, CrashPoint, CrashStage, RunOptions, RunReport, Scheme, SchemeKind};
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

// Both taken with `RunReport::obs` cleared: the event stream may change
// shape, the simulation may not move. The crash leg's epoch series has a
// digest of its own; `PINNED_CRASH_DIGEST` is of the report without it.
const PINNED_DECAY_DIGEST: u64 = 4_211_030_103_213_462_255;
const PINNED_CRASH_DIGEST: u64 = 12_809_041_004_473_726_578;
const PINNED_CRASH_EPOCHS_DIGEST: u64 = 17_007_675_376_354_458_071;

/// ESD on mostly-unique content with a 32 KiB (2 340-entry) EFIT that
/// decays every `decay` operations.
fn decay_run(decay: u64, crash_at: Option<CrashPoint>) -> RunReport {
    let mut config = SystemConfig::default();
    config.controller.fingerprint_cache_bytes = 32 << 10;
    let mut esd = Scheme::new(SchemeKind::Esd, &config);
    esd.efit_decay_interval(decay);
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
    run_trace(esd, &trace, &config, &options).expect("verified run")
}

#[test]
fn efit_decay_is_deterministic_and_pinned() {
    // The default decay interval (65 536 operations) never fires in any
    // other run here, so this leg makes it fire every 64. The report's
    // digest is pinned: a decay that appends cooled entries instead of
    // merging them by stamp picks other victims and moves it. The crash leg
    // releases every EFIT pin (lines only the EFIT held become free) and
    // runs on over recycled lines.
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
    // One write buffer and one device: a write-heavy stream keeps several
    // of the 32 buffer slots occupied and several of the 8 banks busy at
    // epoch boundaries, and never more than the machine has.
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
    let report = run_trace(
        Scheme::new(SchemeKind::Baseline, &config),
        &trace,
        &config,
        &options,
    )
    .expect("verified run");
    assert!(!report.epochs.is_empty(), "epochs collected");
    let depths = report.epochs.iter().map(|e| e.write_buffer_depth);
    let busy = report.epochs.iter().map(|e| e.busy_banks);
    let (max_depth, max_busy) = (depths.max().unwrap(), busy.max().unwrap());
    let (slots, banks) = (
        u64::from(config.controller.write_buffer_depth),
        u64::from(config.pcm.banks),
    );
    assert!(
        max_depth > slots / 8 && max_depth <= slots,
        "write-buffer depth {max_depth} must exceed an eighth of the \
         {slots}-slot buffer and fit in it"
    );
    assert!(
        max_busy > 1 && max_busy <= banks,
        "a saturating write stream must keep more than one of the {banks} \
         banks busy (got {max_busy})"
    );
}

/// `(kind, report digest)` of the plain 6 000-access demo run with 4 KiB
/// fingerprint and mapping caches and a 512 B (seven-block) counter cache.
const PINNED_COUNTER_CACHE: [(SchemeKind, u64); 8] = [
    (SchemeKind::Baseline, 2441044101303779848),
    (SchemeKind::DedupSha1, 9907955484540078860),
    (SchemeKind::DedupMd5, 16256991358353534100),
    (SchemeKind::Pde, 7698853309367819027),
    (SchemeKind::DeWrite, 11379346579231055125),
    (SchemeKind::Esd, 4297572715276224702),
    (SchemeKind::EsdFull, 3911976979455445374),
    (SchemeKind::EsdNoVerify, 18029109457565548895),
];

#[test]
fn finite_counter_cache_reports_are_pinned() {
    // The trace and caches of `tests/report_identity.rs`, plus a counter
    // cache of seven 64-line blocks: every remapping kind's counters miss,
    // evict and write back, so those paths are in the pinned result.
    // Baseline is identity-mapped and gets no counter cache.
    let trace = generate_trace(&AppProfile::demo(), 14, 6_000);
    let mut config = SystemConfig::default();
    config.controller.fingerprint_cache_bytes = 4 << 10;
    config.controller.mapping_cache_bytes = 4 << 10;
    let options = RunOptions {
        scrub_interval: None,
        observe: false,
        trace_capacity: 0,
        epoch_interval: Some(1_000),
        quantum: 512,
        ..stress_options()
    };
    let mut finite = config;
    finite.controller.counter_cache_bytes = 512;
    for (kind, pinned) in PINNED_COUNTER_CACHE {
        let with = run_trace(Scheme::new(kind, &finite), &trace, &finite, &options);
        let without =
            run_trace(Scheme::new(kind, &config), &trace, &config, &options).expect("verified run");
        let metadata = with.as_ref().map(|r| r.pcm.metadata);
        let extra = metadata.map(|m| {
            (
                m.reads - without.pcm.metadata.reads,
                m.writes - without.pcm.metadata.writes,
            )
        });
        if kind == SchemeKind::Baseline {
            assert_eq!(extra, Ok((0, 0)), "{kind}");
        } else {
            let (reads, writes) = extra.expect("verified run");
            assert!(
                reads > 0 && writes > 0,
                "{kind}: counter misses and write-backs"
            );
        }
        if kind == SchemeKind::Esd {
            assert_eq!(extra, Ok((322, 189)));
        }
        assert_eq!(debug_digest(&with), pinned, "{kind}");
    }
}
