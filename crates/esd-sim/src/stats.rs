//! Latency statistics: log-linear histograms for percentiles and CDFs, and
//! the paper's four-bucket write-latency decomposition.

use crate::time::Ps;

/// Sub-buckets per power-of-two range (higher = finer percentiles).
const SUBBUCKETS: u64 = 16;
const SUBBUCKET_BITS: u32 = 4;

/// A log-linear latency histogram over picosecond values.
///
/// Relative bucket error is bounded by 1/16 (6.25%), plenty for CDF and
/// tail-latency reporting.
///
/// # Examples
///
/// ```
/// use esd_sim::{LatencyHistogram, Ps};
/// let mut h = LatencyHistogram::new();
/// for ns in [10, 20, 30, 40, 1000] {
///     h.record(Ps::from_ns(ns));
/// }
/// assert_eq!(h.count(), 5);
/// assert!(h.percentile(0.99) >= h.percentile(0.50));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum_ps: u128,
    min_ps: u64,
    max_ps: u64,
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: Vec::new(),
            count: 0,
            sum_ps: 0,
            min_ps: u64::MAX,
            max_ps: 0,
        }
    }

    fn bucket_index(value: u64) -> usize {
        if value < SUBBUCKETS {
            value as usize
        } else {
            let exp = 63 - value.leading_zeros();
            let sub = (value >> (exp - SUBBUCKET_BITS)) & (SUBBUCKETS - 1);
            (SUBBUCKETS + u64::from(exp - SUBBUCKET_BITS) * SUBBUCKETS + sub) as usize
        }
    }

    fn bucket_lower_bound(index: usize) -> u64 {
        let index = index as u64;
        if index < SUBBUCKETS {
            index
        } else {
            let exp = (index - SUBBUCKETS) / SUBBUCKETS + u64::from(SUBBUCKET_BITS);
            let sub = (index - SUBBUCKETS) % SUBBUCKETS;
            (1u64 << exp) | (sub << (exp - u64::from(SUBBUCKET_BITS)))
        }
    }

    /// Records one latency sample.
    pub fn record(&mut self, value: Ps) {
        let v = value.as_ps();
        let idx = Self::bucket_index(v);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum_ps += u128::from(v);
        self.min_ps = self.min_ps.min(v);
        self.max_ps = self.max_ps.max(v);
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean sample value, or zero when empty.
    #[must_use]
    pub fn mean(&self) -> Ps {
        if self.count == 0 {
            Ps::ZERO
        } else {
            Ps((self.sum_ps / u128::from(self.count)) as u64)
        }
    }

    /// Sum of all samples.
    #[must_use]
    pub fn sum(&self) -> Ps {
        Ps(self.sum_ps.min(u128::from(u64::MAX)) as u64)
    }

    /// Smallest sample, or zero when empty.
    #[must_use]
    pub fn min(&self) -> Ps {
        if self.count == 0 {
            Ps::ZERO
        } else {
            Ps(self.min_ps)
        }
    }

    /// Largest sample, or zero when empty.
    #[must_use]
    pub fn max(&self) -> Ps {
        Ps(self.max_ps)
    }

    /// The value at quantile `q` in `[0, 1]` (bucket lower bound; zero when
    /// empty).
    ///
    /// # Panics
    ///
    /// Panics if `q` is not within `[0, 1]`.
    #[must_use]
    pub fn percentile(&self, q: f64) -> Ps {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.count == 0 {
            return Ps::ZERO;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Ps(Self::bucket_lower_bound(idx).max(self.min_ps).min(self.max_ps));
            }
        }
        Ps(self.max_ps)
    }

    /// CDF points as `(latency, cumulative_fraction)`, one per non-empty
    /// bucket — ready to print as the paper's Figure 15.
    #[must_use]
    pub fn cdf(&self) -> Vec<(Ps, f64)> {
        let mut points = Vec::new();
        let mut seen = 0u64;
        if self.count == 0 {
            return points;
        }
        for (idx, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            seen += n;
            points.push((
                Ps(Self::bucket_lower_bound(idx)),
                seen as f64 / self.count as f64,
            ));
        }
        points
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (dst, &src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst += src;
        }
        self.count += other.count;
        self.sum_ps += other.sum_ps;
        self.min_ps = self.min_ps.min(other.min_ps);
        self.max_ps = self.max_ps.max(other.max_ps);
    }
}

/// The paper's Figure 17 write-latency decomposition: where critical-path
/// write time goes, by mechanism.
///
/// The buckets partition every write's end-to-end latency exactly: for each
/// write the per-stage attributions sum to `WriteResult::latency`, so the
/// merged breakdown of a run equals the sum of its write latencies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteLatencyBreakdown {
    /// Time computing fingerprints (SHA-1/MD5/CRC; zero for ECC).
    pub fingerprint_compute: Ps,
    /// Time probing SRAM-resident fingerprint structures (ESD's EFIT, the
    /// fingerprint-store cache on a hit).
    pub sram_probe: Ps,
    /// Time spent looking up fingerprints stored in NVMM.
    pub nvmm_lookup: Ps,
    /// Time reading candidate-duplicate lines back for byte comparison.
    pub compare_read: Ps,
    /// Exposed byte-comparator time after the candidate line returned.
    pub compare: Ps,
    /// Time updating the address-mapping table on a successful
    /// deduplication (the remap that replaces the device write).
    pub mapping_update: Ps,
    /// Time writing unique lines (device service incl. queueing) and
    /// encryption exposed on the write path.
    pub unique_write: Ps,
}

impl WriteLatencyBreakdown {
    /// Number of buckets.
    pub const BUCKETS: usize = 7;

    /// Bucket labels, in [`WriteLatencyBreakdown::fractions`] order.
    pub const NAMES: [&'static str; Self::BUCKETS] = [
        "fingerprint_compute",
        "sram_probe",
        "nvmm_lookup",
        "compare_read",
        "compare",
        "mapping_update",
        "unique_write",
    ];

    /// The buckets as an array, in [`WriteLatencyBreakdown::NAMES`] order.
    #[must_use]
    pub fn as_array(&self) -> [Ps; Self::BUCKETS] {
        [
            self.fingerprint_compute,
            self.sram_probe,
            self.nvmm_lookup,
            self.compare_read,
            self.compare,
            self.mapping_update,
            self.unique_write,
        ]
    }

    /// Sum of all buckets.
    #[must_use]
    pub fn total(&self) -> Ps {
        self.as_array().into_iter().sum()
    }

    /// Each bucket as a fraction of the total, in
    /// [`WriteLatencyBreakdown::NAMES`] order.
    #[must_use]
    pub fn fractions(&self) -> [f64; Self::BUCKETS] {
        let total = self.total().as_ps();
        if total == 0 {
            return [0.0; Self::BUCKETS];
        }
        self.as_array()
            .map(|bucket| bucket.as_ps() as f64 / total as f64)
    }

    /// Adds another breakdown into this one.
    pub fn merge(&mut self, other: &WriteLatencyBreakdown) {
        self.fingerprint_compute += other.fingerprint_compute;
        self.sram_probe += other.sram_probe;
        self.nvmm_lookup += other.nvmm_lookup;
        self.compare_read += other.compare_read;
        self.compare += other.compare;
        self.mapping_update += other.mapping_update;
        self.unique_write += other.unique_write;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), Ps::ZERO);
        assert_eq!(h.min(), Ps::ZERO);
        assert_eq!(h.max(), Ps::ZERO);
        assert_eq!(h.percentile(0.5), Ps::ZERO);
        assert!(h.cdf().is_empty());
    }

    #[test]
    fn bucket_bounds_invert_index() {
        for v in [0u64, 1, 15, 16, 17, 100, 1000, 75_000, 150_000, 1 << 40] {
            let idx = LatencyHistogram::bucket_index(v);
            let lower = LatencyHistogram::bucket_lower_bound(idx);
            assert!(lower <= v, "lower {lower} > value {v}");
            // Bucket relative width <= 1/16 beyond the linear range.
            if v >= 16 {
                assert!(v - lower <= v / 16, "bucket too wide for {v}");
            } else {
                assert_eq!(lower, v);
            }
        }
    }

    #[test]
    fn mean_min_max_exact() {
        let mut h = LatencyHistogram::new();
        h.record(Ps(100));
        h.record(Ps(300));
        assert_eq!(h.mean(), Ps(200));
        assert_eq!(h.min(), Ps(100));
        assert_eq!(h.max(), Ps(300));
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn percentiles_are_monotone() {
        let mut h = LatencyHistogram::new();
        for i in 1..=1000u64 {
            h.record(Ps(i * 100));
        }
        let p50 = h.percentile(0.50);
        let p90 = h.percentile(0.90);
        let p99 = h.percentile(0.99);
        assert!(p50 <= p90 && p90 <= p99);
        // p50 of uniform 100..100_000 should be near 50_000 (±1 bucket).
        let mid = p50.as_ps() as f64;
        assert!((45_000.0..=55_000.0).contains(&mid), "p50 was {mid}");
    }

    #[test]
    fn cdf_reaches_one() {
        let mut h = LatencyHistogram::new();
        for i in 0..100u64 {
            h.record(Ps(i * 977));
        }
        let cdf = h.cdf();
        assert!(!cdf.is_empty());
        let (_, last) = cdf.last().unwrap();
        assert!((last - 1.0).abs() < 1e-12);
        // Monotone in both coordinates.
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(Ps(10));
        b.record(Ps(1000));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), Ps(10));
        assert_eq!(a.max(), Ps(1000));
    }

    #[test]
    fn single_sample_percentiles_return_that_sample() {
        let mut h = LatencyHistogram::new();
        h.record(Ps::from_ns(154));
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(h.percentile(q), Ps::from_ns(154), "q={q}");
        }
        assert_eq!(h.min(), Ps::from_ns(154));
        assert_eq!(h.max(), Ps::from_ns(154));
        assert_eq!(h.mean(), Ps::from_ns(154));
    }

    #[test]
    fn breakdown_fractions_sum_to_one() {
        let b = WriteLatencyBreakdown {
            fingerprint_compute: Ps(100),
            sram_probe: Ps(50),
            nvmm_lookup: Ps(200),
            compare_read: Ps(300),
            compare: Ps(20),
            mapping_update: Ps(30),
            unique_write: Ps(400),
        };
        assert_eq!(b.total(), Ps(1100));
        let f = b.fractions();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((f[0] - 100.0 / 1100.0).abs() < 1e-12);
        assert_eq!(
            WriteLatencyBreakdown::default().fractions(),
            [0.0; WriteLatencyBreakdown::BUCKETS]
        );
        assert_eq!(WriteLatencyBreakdown::NAMES.len(), WriteLatencyBreakdown::BUCKETS);
    }

    #[test]
    fn breakdown_merge_adds_every_bucket() {
        let mut a = WriteLatencyBreakdown::default();
        let b = WriteLatencyBreakdown {
            fingerprint_compute: Ps(1),
            sram_probe: Ps(2),
            nvmm_lookup: Ps(3),
            compare_read: Ps(4),
            compare: Ps(5),
            mapping_update: Ps(6),
            unique_write: Ps(7),
        };
        a.merge(&b);
        a.merge(&b);
        assert_eq!(a.total(), Ps(56));
        assert_eq!(a.as_array(), b.as_array().map(|v| v * 2));
    }
}
