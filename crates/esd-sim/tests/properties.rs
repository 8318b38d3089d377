//! Property tests for the simulator substrate: histogram percentiles
//! against exact quantiles, and device-timing monotonicity. (The metadata
//! caches' LRU is checked against its reference in `esd-core`.)

use esd_sim::{AccessClass, LatencyHistogram, PcmConfig, PcmDevice, PcmOp, Ps, StartGap};
use proptest::prelude::*;

proptest! {
    /// Histogram percentiles are within one log-linear bucket (6.25%) of the
    /// exact sample quantile.
    #[test]
    fn histogram_percentiles_track_exact_quantiles(
        mut samples in proptest::collection::vec(1u64..2_000_000, 10..300),
        q in 0.01f64..0.999,
    ) {
        let mut h = LatencyHistogram::new();
        for &s in &samples {
            h.record(Ps(s));
        }
        samples.sort_unstable();
        let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
        let exact = samples[rank - 1] as f64;
        let approx = h.percentile(q).as_ps() as f64;
        // Bucket lower bounds undershoot by at most 1/16 of the value; the
        // histogram may also land one sample off at bucket boundaries, so
        // compare against the neighboring exact ranks too.
        let lo = samples[rank.saturating_sub(2)] as f64;
        let hi = samples[(rank).min(samples.len() - 1)] as f64;
        prop_assert!(
            approx >= lo * (1.0 - 1.0 / 16.0) - 1.0 && approx <= hi + 1.0,
            "q={q}: approx {approx} not within [{lo}, {hi}] of exact {exact}"
        );
    }

    /// Device completions never move backwards in time and each access
    /// finishes after it starts.
    #[test]
    fn pcm_time_is_monotone_per_bank(ops in proptest::collection::vec(
        (0u64..64, any::<bool>(), 0u64..500), 1..200,
    )) {
        let mut pcm = PcmDevice::new(PcmConfig::default());
        let mut now = Ps::ZERO;
        let mut last_finish_per_bank = std::collections::HashMap::new();
        for &(line, is_write, advance) in &ops {
            now += Ps::from_ns(advance);
            let addr = line * 64;
            let op = if is_write { PcmOp::Write } else { PcmOp::Read };
            let c = pcm.access(now, addr, op, AccessClass::Data);
            prop_assert!(c.start >= now);
            prop_assert!(c.finish > c.start);
            let bank = pcm.bank_of(addr);
            if let Some(&prev) = last_finish_per_bank.get(&bank) {
                prop_assert!(c.start >= prev || c.finish >= prev,
                    "bank {bank} service overlapped");
            }
            last_finish_per_bank.insert(bank, c.finish);
        }
    }

    /// Start-Gap translation stays a bijection under arbitrary write loads.
    #[test]
    fn start_gap_stays_bijective(writes in 1usize..500, lines in 2u64..64, interval in 1u32..16) {
        let mut sg = StartGap::new(lines, interval);
        for _ in 0..writes {
            sg.on_write();
        }
        let mapped: std::collections::HashSet<u64> =
            (0..lines).map(|l| sg.translate(l)).collect();
        prop_assert_eq!(mapped.len() as u64, lines);
        prop_assert!(mapped.iter().all(|&p| p <= lines));
    }
}
