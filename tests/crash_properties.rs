//! Randomized crash→recover→verify loops: whatever the access pattern,
//! crash point, write-path stage and journal interval, no scheme may lose
//! an acknowledged write or leak a reference count.
//!
//! 25 proptest cases × 8 schemes = 200 randomized crash/recover/verify
//! runs per execution.

use esd::core::{replay_with, CrashPoint, CrashStage, RunOptions, SchemeKind};
use esd::sim::SystemConfig;
use esd::trace::{Access, CacheLine, Trace};
use proptest::prelude::*;

/// An arbitrary access pattern over a small address space and a small
/// content alphabet — maximizing duplicate/overwrite/remap interleavings,
/// the regimes where crash-time dedup bookkeeping can go wrong.
fn arb_trace() -> impl Strategy<Value = Trace> {
    let access = (any::<bool>(), 0u64..24, 0u8..6, 1u32..200).prop_map(
        |(is_read, slot, content, gap)| {
            let addr = slot * 64;
            if is_read {
                Access::read(addr, gap)
            } else {
                let line = if content == 0 {
                    CacheLine::ZERO
                } else {
                    CacheLine::from_seed(u64::from(content))
                };
                Access::write(addr, line, gap)
            }
        },
    );
    proptest::collection::vec(access, 1..400).prop_map(|accesses| {
        let mut t = Trace::new("crash-proptest");
        t.accesses = accesses;
        t
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(25))]

    /// Crash anywhere, in any stage, with any journal interval: every
    /// acknowledged write survives recovery (the
    /// shadow verifier would fail otherwise), the crash is always
    /// reported, and the recovery refcount audit finds zero leaks.
    #[test]
    fn crash_recover_verify_never_loses_acknowledged_writes(
        trace in arb_trace(),
        crash_frac in 0.0f64..1.0,
        stage_ix in 0usize..CrashStage::ALL.len(),
        journal in prop_oneof![Just(None), (1u64..128).prop_map(Some)],
    ) {
        let config = SystemConfig::default();
        let access = ((trace.len() - 1) as f64 * crash_frac) as u64;
        let point = CrashPoint {
            access,
            stage: CrashStage::ALL[stage_ix],
        };
        let options = RunOptions {
            verify: true,
            scrub_interval: None,
            scrub_lines_per_tick: 64,
            observe: false,
            trace_capacity: 0,
            epoch_interval: None,
            shards: 1,
            batch: 64,
            quantum: 64,
            crash_at: Some(point),
            journal_every: journal,
            kernels: esd::kernels::KernelBackend::Auto,
        };
        for kind in SchemeKind::EXTENDED {
            let result = replay_with(kind, &trace, &config, &options);
            // A verify failure here IS a lost acknowledged write.
            prop_assert!(
                result.is_ok(),
                "{kind} lost data crashing at {point}: {:?}",
                result.err()
            );
            let report = result.unwrap();
            let recovery = report.recovery.expect("in-range crash always fires");
            prop_assert_eq!(recovery.crash_access, point.access);
            prop_assert_eq!(
                recovery.refcounts_leaked, 0,
                "{} leaked refcounts crashing at {}", kind, point
            );
            prop_assert_eq!(
                report.stats.writes_received + report.stats.reads_served,
                trace.len() as u64,
                "{}: the in-flight access must re-execute post-recovery", kind
            );
        }
    }
}
