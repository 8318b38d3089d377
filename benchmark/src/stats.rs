//! Medians, quartiles and a fixed-size latency histogram.

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The three quartile cut points as Python's
/// `statistics.quantiles(values, n=4)` (the default, exclusive method)
/// gives them — the acceptance check computes spreads from exactly these.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let m = n + 1;
    std::array::from_fn(|k| {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// Log-bucketed latency histogram: 128 buckets per power of two of
/// nanoseconds, so its size does not grow with the number of samples (a
/// faster server must not show up as a larger `peak_rss_mb`). Percentiles
/// interpolate inside a bucket, which is at most 0.8% wide.
#[derive(Debug, Clone)]
pub struct LatencyHist {
    buckets: Vec<u64>,
    count: u64,
}

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;

impl Default for LatencyHist {
    fn default() -> Self {
        LatencyHist::new()
    }
}

impl LatencyHist {
    pub fn new() -> Self {
        LatencyHist {
            buckets: vec![0; (64 * SUB) as usize],
            count: 0,
        }
    }

    fn index(ns: u64) -> usize {
        if ns < SUB {
            return ns as usize; // exact below 128 ns
        }
        let exp = 63 - ns.leading_zeros(); // >= SUB_BITS
        let mantissa = (ns >> (exp - SUB_BITS)) - SUB;
        (u64::from(exp - SUB_BITS + 1) * SUB + mantissa) as usize
    }

    /// Lower edge and width of a bucket, in nanoseconds.
    fn edges(index: usize) -> (f64, f64) {
        let index = index as u64;
        if index < SUB {
            return (index as f64, 1.0);
        }
        let shift = index / SUB - 1;
        let low = (SUB + index % SUB) << shift;
        (low as f64, (1u64 << shift) as f64)
    }

    pub fn record(&mut self, ns: u64) {
        self.buckets[Self::index(ns)] += 1;
        self.count += 1;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// The `q`-quantile in nanoseconds (`q` in 0..=1).
    pub fn quantile_ns(&self, q: f64) -> f64 {
        assert!(self.count > 0, "quantile of an empty histogram");
        let rank = q * (self.count - 1) as f64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n > 0 && (seen + n) as f64 > rank {
                let (low, width) = Self::edges(i);
                return low + width * (rank - seen as f64 + 0.5) / n as f64;
            }
            seen += n;
        }
        unreachable!("rank lies within the recorded count")
    }

    /// The highest of p90, p99, p99.9, p99.99 that still has at least ten
    /// samples beyond it, as `(percentile, nanoseconds)`; falls back to the
    /// median for tiny samples.
    pub fn tail(&self) -> (f64, f64) {
        let pct = [99.99, 99.9, 99.0, 90.0]
            .into_iter()
            .find(|p| self.count as f64 * (1.0 - p / 100.0) >= 10.0)
            .unwrap_or(50.0);
        (pct, self.quantile_ns(pct / 100.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        // statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6], n=4) == [1.25, 3.5, 5.75]
        assert_eq!(
            quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]),
            [1.25, 3.5, 5.75]
        );
    }

    #[test]
    fn histogram_quantiles_are_close_to_exact() {
        let mut h = LatencyHist::new();
        for ns in 1..=100_000u64 {
            h.record(ns * 17);
        }
        let exact = 50_000.0 * 17.0;
        assert!((h.quantile_ns(0.5) - exact).abs() / exact < 0.01);
        let (pct, ns) = h.tail();
        assert_eq!(pct, 99.99);
        assert!((ns - 99_990.0 * 17.0).abs() / (99_990.0 * 17.0) < 0.01);
    }

    #[test]
    fn bucket_edges_invert_the_index() {
        // Probes an f64 holds exactly, so the comparison below is exact too.
        for ns in [
            0u64,
            1,
            127,
            128,
            129,
            255,
            256,
            1_000,
            44_000_000,
            (1 << 53) - 1,
            1 << 62,
        ] {
            let (low, width) = LatencyHist::edges(LatencyHist::index(ns));
            assert!(
                low <= ns as f64 && (ns as f64) < low + width,
                "{ns}: [{low}, +{width})"
            );
        }
        // No latency, however absurd, may index outside the table.
        assert!(LatencyHist::index(u64::MAX) < LatencyHist::new().buckets.len());
    }
}
