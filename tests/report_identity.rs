//! Pins every scheme's `RunReport` to recorded constants, so a refactor of
//! the scheme layer is checked against what the code produced before it,
//! not only against itself.
//!
//! One fixed trace; all eight kinds, plus one journaled crash-and-recover
//! run and one fault-injected, scrubbed run per kind. Every `RunOptions`
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
    (SchemeKind::Baseline, 878580624499648289, 16042734993017391929, 11982038966395858122),
    (SchemeKind::DedupSha1, 2003744597127064785, 1251055445424139074, 9629557353075541580),
    (SchemeKind::DedupMd5, 7844133318286484777, 10751964386709458977, 9414121809874756285),
    (SchemeKind::Pde, 12365257228538051278, 9744560404612226477, 14716952192077137139),
    (SchemeKind::DeWrite, 15714436046500587106, 15282680464170638691, 6971822759277530204),
    (SchemeKind::Esd, 5877870100632886118, 16489971903758159181, 17218751358895343289),
    (SchemeKind::EsdFull, 3070064988442891311, 7396298348601540180, 11130195104184581686),
    (SchemeKind::EsdNoVerify, 14302992358999609256, 7491453745108957696, 9299554169331917490),
];

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Metadata caches small enough (4 KiB per bank slice) that a 6 000-access
/// trace evicts from the EFIT, the fingerprint-store cache and the AMT
/// cache, so the NVMM-lookup and write-back paths are in the pinned result.
fn config() -> SystemConfig {
    let mut config = SystemConfig::default();
    config.controller.fingerprint_cache_bytes = 32 << 10;
    config.controller.mapping_cache_bytes = 32 << 10;
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
        // Eleven merges, so cross-slice publishes become visible mid-run.
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
        assert_eq!(digest(kind, &trace, &config, &options()), expected, "{kind}");
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
        // `tests/sharded_replay.rs` pins a crash run with one.
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
