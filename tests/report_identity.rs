//! Pins every scheme's `RunReport` to recorded constants, so a refactor of
//! the scheme layer is checked against what the code produced before it,
//! not only against itself.
//!
//! One fixed trace; all eight kinds, plus one journaled crash-and-recover
//! run and one fault-injected, scrubbed run per kind, and a shorter trace
//! crashed at the edges of the replay's 64-access blocks. Every `RunOptions`
//! field is spelled out, so no `ESD_*` variable can move a result. The
//! pinned value is an FNV-1a of the report's `Debug` rendering, which
//! covers every field.
//!
//! If a constant has to change, the model changed: say so in the PR.

use esd::core::{replay_with, CrashPoint, CrashStage, RunOptions, SchemeKind};
use esd::kernels::KernelBackend;
use esd::sim::SystemConfig;
use esd::trace::{generate_trace, AccessKind, AppProfile, Trace};

/// `(kind, plain run, crash run, rber + scrub run)`.
const EXPECTED: [(SchemeKind, u64, u64, u64); 8] = [
    (
        SchemeKind::Baseline,
        2441044101303779848,
        12942163539312644764,
        8435132262847250530,
    ),
    (
        SchemeKind::DedupSha1,
        15815024609141079196,
        4552585978358891733,
        8800566996716268112,
    ),
    (
        SchemeKind::DedupMd5,
        1870624475821286965,
        10725143392519327291,
        7345892702312720249,
    ),
    (
        SchemeKind::Pde,
        13589493867306810651,
        13140450527854661919,
        2813088853286599967,
    ),
    (
        SchemeKind::DeWrite,
        14638145143675745479,
        2987692130847642200,
        339234592176207422,
    ),
    (
        SchemeKind::Esd,
        10075482278522654725,
        8250022262249195329,
        16975409700784099578,
    ),
    (
        SchemeKind::EsdFull,
        17788049164336710890,
        12594326083922811339,
        13360693722110273654,
    ),
    (
        SchemeKind::EsdNoVerify,
        14463496305583745841,
        2456985436250985573,
        5858293850654076145,
    ),
];

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Metadata caches small enough (4 KiB each) that a 6 000-access trace
/// evicts from the EFIT, the fingerprint-store cache and the AMT cache, so
/// the NVMM-lookup and write-back paths are in the pinned result.
fn config() -> SystemConfig {
    let mut config = SystemConfig::default();
    config.controller.fingerprint_cache_bytes = 4 << 10;
    config.controller.mapping_cache_bytes = 4 << 10;
    config
}

fn trace() -> Trace {
    generate_trace(&AppProfile::demo(), 14, 6_000)
}

fn options() -> RunOptions {
    RunOptions {
        verify: true,
        scrub_interval: None,
        scrub_lines_per_tick: 64,
        observe: false,
        trace_capacity: 0,
        epoch_interval: Some(1_000),
        shards: 1,
        batch: 64,
        quantum: 512,
        crash_at: None,
        journal_every: None,
        kernels: KernelBackend::Auto,
    }
}

/// Digest of a run's outcome; a `VerifyError` is an outcome too
/// (`ESD_NoVerify` may alias colliding lines by design).
fn digest(kind: SchemeKind, trace: &Trace, config: &SystemConfig, options: &RunOptions) -> u64 {
    fnv1a(&format!("{:?}", replay_with(kind, trace, config, options)))
}

#[test]
fn plain_reports_match_recorded_digests() {
    let (trace, config) = (trace(), config());
    for (kind, expected, _, _) in EXPECTED {
        assert_eq!(
            digest(kind, &trace, &config, &options()),
            expected,
            "{kind}"
        );
    }
}

#[test]
fn crash_recovery_reports_match_recorded_digests() {
    let (trace, config) = (trace(), config());
    // The first write at or after access 3 000, torn in its mapping update.
    let access = (3_000..trace.len())
        .find(|&i| matches!(trace.accesses[i].kind, AccessKind::Write))
        .expect("the trace writes after access 3000") as u64;
    let options = RunOptions {
        crash_at: Some(CrashPoint {
            access,
            stage: CrashStage::MappingUpdate,
        }),
        journal_every: Some(64),
        // The crash constants were recorded without an epoch series;
        // `tests/replay_pins.rs` pins a crash run with one.
        epoch_interval: None,
        ..options()
    };
    for (kind, _, expected, _) in EXPECTED {
        assert_eq!(digest(kind, &trace, &config, &options), expected, "{kind}");
    }
}

#[test]
fn fault_injected_scrubbed_reports_match_recorded_digests() {
    let trace = trace();
    let mut config = config();
    // About 0.03 expected flips per 576-bit line read: corrections on most
    // runs, a few uncorrectable lines, and scrub repairs in between.
    config.pcm.rber_per_tbit = 50_000_000;
    config.pcm.rber_seed = 0xE5D;
    let options = RunOptions {
        scrub_interval: Some(500),
        ..options()
    };
    for (kind, _, _, expected) in EXPECTED {
        assert_eq!(digest(kind, &trace, &config, &options), expected, "{kind}");
    }
}

/// `(kind, digest of the block-edge crash runs)`: one digest over every
/// crash point and stage, in order.
const EDGE_EXPECTED: [(SchemeKind, u64); 8] = [
    (SchemeKind::Baseline, 13435308963040575365),
    (SchemeKind::DedupSha1, 14846166325469761708),
    (SchemeKind::DedupMd5, 9629066546887941566),
    (SchemeKind::Pde, 12055887827229461974),
    (SchemeKind::DeWrite, 12137281019443130464),
    (SchemeKind::Esd, 17729646782350920850),
    (SchemeKind::EsdFull, 5785271627211762731),
    (SchemeKind::EsdNoVerify, 2737623686047339002),
];

#[test]
fn crashes_at_block_edges_match_recorded_digests() {
    // Replay runs in blocks of 64 accesses and a crash splits the block it
    // falls in, so these points sit on, before and after the first two
    // edges, plus the first and the last access. `MappingUpdate` tears a
    // write's metadata; `SramProbe` does not. Verification is on.
    let trace = generate_trace(&AppProfile::demo(), 14, 1_000);
    let config = config();
    let last = trace.len() as u64 - 1;
    for (kind, expected) in EDGE_EXPECTED {
        let mut runs = String::new();
        for access in [0, 63, 64, 65, 127, 128, last] {
            for stage in [CrashStage::MappingUpdate, CrashStage::SramProbe] {
                let options = RunOptions {
                    crash_at: Some(CrashPoint { access, stage }),
                    journal_every: Some(64),
                    ..options()
                };
                runs.push_str(&format!(
                    "{:?}",
                    replay_with(kind, &trace, &config, &options)
                ));
            }
        }
        assert_eq!(fnv1a(&runs), expected, "{kind}");
    }
}
