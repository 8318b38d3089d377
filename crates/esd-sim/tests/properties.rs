//! Property tests for the simulator substrate: the LRU cache against a
//! reference model, histogram percentiles against exact quantiles, and
//! device-timing monotonicity.

use esd_sim::{
    AccessClass, LatencyHistogram, LruCache, PcmConfig, PcmDevice, PcmOp, Ps, StartGap,
};
use proptest::prelude::*;

/// Reference LRU: vector ordered most-recent-first.
struct NaiveLru {
    entries: Vec<(u64, u64)>,
    capacity: usize,
}

impl NaiveLru {
    fn new(capacity: usize) -> Self {
        NaiveLru {
            entries: Vec::new(),
            capacity,
        }
    }

    fn get(&mut self, key: u64) -> Option<u64> {
        let pos = self.entries.iter().position(|&(k, _)| k == key)?;
        let entry = self.entries.remove(pos);
        self.entries.insert(0, entry);
        Some(entry.1)
    }

    fn insert(&mut self, key: u64, value: u64) {
        if let Some(pos) = self.entries.iter().position(|&(k, _)| k == key) {
            self.entries.remove(pos);
        } else if self.entries.len() == self.capacity {
            self.entries.pop();
        }
        self.entries.insert(0, (key, value));
    }
}

#[derive(Debug, Clone)]
enum CacheOp {
    Get(u64),
    Insert(u64, u64),
}

proptest! {
    /// The LRU cache agrees with the reference on every get under arbitrary
    /// workloads.
    #[test]
    fn lru_matches_reference(ops in proptest::collection::vec(
        prop_oneof![
            (0u64..16).prop_map(CacheOp::Get),
            (0u64..16, any::<u64>()).prop_map(|(k, v)| CacheOp::Insert(k, v)),
        ],
        1..300,
    )) {
        const CAPACITY: usize = 6;
        let mut cache: LruCache<u64, u64> = LruCache::new(CAPACITY);
        let mut reference = NaiveLru::new(CAPACITY);
        for op in &ops {
            match *op {
                CacheOp::Get(k) => {
                    prop_assert_eq!(cache.get(&k).copied(), reference.get(k), "get({})", k);
                }
                CacheOp::Insert(k, v) => {
                    cache.insert(k, v);
                    reference.insert(k, v);
                }
            }
            prop_assert_eq!(cache.len(), reference.entries.len());
        }
    }

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
