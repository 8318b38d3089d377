//! Cross-crate property tests: dedup correctness under arbitrary access
//! patterns, for every scheme.

use esd::core::{run_trace, RunOptions, Scheme, SchemeKind};
use esd::sim::SystemConfig;
use esd::trace::{Access, CacheLine, Trace};
use proptest::prelude::*;

/// An arbitrary access pattern over a small address space and a small
/// content alphabet — maximizing duplicate/overwrite/remap interleavings,
/// the regimes where dedup bookkeeping can go wrong.
fn arb_trace() -> impl Strategy<Value = Trace> {
    let access =
        (any::<bool>(), 0u64..24, 0u8..6, 1u32..200).prop_map(|(is_read, slot, content, gap)| {
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
        });
    proptest::collection::vec(access, 1..400).prop_map(|accesses| {
        let mut t = Trace::new("proptest");
        t.accesses = accesses;
        t
    })
}

/// Replay options without the read-back check.
fn unverified() -> RunOptions {
    RunOptions {
        verify: false,
        ..RunOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever the interleaving of writes, overwrites, duplicates and
    /// reads: every read returns the latest written content (all schemes).
    #[test]
    fn no_scheme_ever_loses_data(trace in arb_trace()) {
        let config = SystemConfig::default();
        for kind in SchemeKind::ALL {
            let scheme = Scheme::new(kind, &config);
            let result = run_trace(scheme, &trace, &config, &RunOptions::default());
            prop_assert!(result.is_ok(), "{kind}: {:?}", result.err());
        }
    }

    /// Deduplicated + unique always equals received; device writes never
    /// exceed received writes for the dedup schemes.
    #[test]
    fn write_accounting_balances(trace in arb_trace()) {
        let config = SystemConfig::default();
        for kind in SchemeKind::ALL {
            let scheme = Scheme::new(kind, &config);
            let report = run_trace(scheme, &trace, &config, &unverified()).unwrap();
            prop_assert_eq!(
                report.stats.writes_unique + report.stats.writes_deduplicated,
                report.stats.writes_received,
                "{}", kind
            );
            prop_assert!(report.pcm.data.writes <= report.stats.writes_received);
        }
    }

    /// Time never runs backwards: each scheme's reported latencies are
    /// internally consistent with its histograms.
    #[test]
    fn latency_histograms_are_sane(trace in arb_trace()) {
        let config = SystemConfig::default();
        let scheme = Scheme::new(SchemeKind::Esd, &config);
        let report = run_trace(scheme, &trace, &config, &unverified()).unwrap();
        prop_assert_eq!(report.write_latency.count() as usize, trace.write_count());
        prop_assert_eq!(report.read_latency.count() as usize, trace.read_count());
        prop_assert!(report.write_latency.min() <= report.write_latency.max());
        prop_assert!(
            report.write_latency.percentile(0.5) <= report.write_latency.percentile(0.99)
        );
    }
}
