//! Offline workload analysis: duplicate rate (paper Figure 1) and
//! content-locality reference-count distributions (paper Figure 3).

use std::collections::HashMap;

use crate::access::{AccessKind, Trace};
use crate::line::CacheLine;

/// Fraction of written lines whose content had already been written earlier
/// in the trace — the paper's Figure 1 metric.
///
/// # Examples
///
/// ```
/// use esd_trace::{duplicate_rate, Access, CacheLine, Trace};
/// let mut t = Trace::new("demo");
/// let line = CacheLine::from_fill(7);
/// t.accesses.push(Access::write(0, line, 0));
/// t.accesses.push(Access::write(64, line, 0));
/// assert_eq!(duplicate_rate(&t), 0.5);
/// ```
#[must_use]
pub fn duplicate_rate(trace: &Trace) -> f64 {
    let mut seen: HashMap<CacheLine, ()> = HashMap::new();
    let mut writes = 0u64;
    let mut dups = 0u64;
    for access in trace {
        if access.kind == AccessKind::Write {
            let line = access.data.expect("write carries data");
            writes += 1;
            if seen.insert(line, ()).is_some() {
                dups += 1;
            }
        }
    }
    if writes == 0 {
        0.0
    } else {
        dups as f64 / writes as f64
    }
}

/// Fraction of written lines that are the all-zero line.
#[must_use]
pub fn zero_line_rate(trace: &Trace) -> f64 {
    let mut writes = 0u64;
    let mut zeros = 0u64;
    for access in trace {
        if access.kind == AccessKind::Write {
            writes += 1;
            if access.data.expect("write carries data").is_zero() {
                zeros += 1;
            }
        }
    }
    if writes == 0 {
        0.0
    } else {
        zeros as f64 / writes as f64
    }
}

/// The paper's Figure 3 reference-count buckets: `num1` is content written
/// exactly once, `num10` 2–10 times, `num100` 11–100, `num1000` 101–1000,
/// `num1000_plus` more than 1000 times.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefCountBuckets {
    /// Unique contents written exactly once.
    pub num1: u64,
    /// Written 2–10 times.
    pub num10: u64,
    /// Written 11–100 times.
    pub num100: u64,
    /// Written 101–1000 times.
    pub num1000: u64,
    /// Written more than 1000 times.
    pub num1000_plus: u64,
    /// Total *writes* landing in each bucket (pre-dedup storage volume),
    /// same order as the count fields.
    pub writes_per_bucket: [u64; 5],
}

impl RefCountBuckets {
    /// Total distinct contents.
    #[must_use]
    pub fn unique_contents(&self) -> u64 {
        self.num1 + self.num10 + self.num100 + self.num1000 + self.num1000_plus
    }

    /// Total writes observed.
    #[must_use]
    pub fn total_writes(&self) -> u64 {
        self.writes_per_bucket.iter().sum()
    }

    /// Unique-content counts as fractions (Fig. 3a), in bucket order.
    #[must_use]
    pub fn content_fractions(&self) -> [f64; 5] {
        let total = self.unique_contents();
        if total == 0 {
            return [0.0; 5];
        }
        [
            self.num1 as f64 / total as f64,
            self.num10 as f64 / total as f64,
            self.num100 as f64 / total as f64,
            self.num1000 as f64 / total as f64,
            self.num1000_plus as f64 / total as f64,
        ]
    }

    /// Pre-dedup storage-volume fractions (Fig. 3b), in bucket order.
    #[must_use]
    pub fn volume_fractions(&self) -> [f64; 5] {
        let total = self.total_writes();
        if total == 0 {
            return [0.0; 5];
        }
        self.writes_per_bucket.map(|w| w as f64 / total as f64)
    }
}

/// Computes the reference-count distribution of a trace's writes.
#[must_use]
pub fn refcount_buckets(trace: &Trace) -> RefCountBuckets {
    let mut counts: HashMap<CacheLine, u64> = HashMap::new();
    for access in trace {
        if access.kind == AccessKind::Write {
            *counts.entry(access.data.expect("write carries data")).or_insert(0) += 1;
        }
    }
    let mut buckets = RefCountBuckets::default();
    for &n in counts.values() {
        let idx = match n {
            1 => {
                buckets.num1 += 1;
                0
            }
            2..=10 => {
                buckets.num10 += 1;
                1
            }
            11..=100 => {
                buckets.num100 += 1;
                2
            }
            101..=1000 => {
                buckets.num1000 += 1;
                3
            }
            _ => {
                buckets.num1000_plus += 1;
                4
            }
        };
        buckets.writes_per_bucket[idx] += n;
    }
    buckets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::Access;

    fn write(addr: u64, fill: u8) -> Access {
        Access::write(addr, CacheLine::from_fill(fill), 0)
    }

    #[test]
    fn duplicate_rate_counts_repeat_content() {
        let mut t = Trace::new("t");
        t.accesses = vec![write(0, 1), write(64, 1), write(128, 2), write(192, 1)];
        // Writes 2 and 4 repeat content `1` => 2/4.
        assert_eq!(duplicate_rate(&t), 0.5);
    }

    #[test]
    fn duplicate_rate_of_empty_trace_is_zero() {
        assert_eq!(duplicate_rate(&Trace::new("empty")), 0.0);
    }

    #[test]
    fn zero_line_rate_counts_zero_content() {
        let mut t = Trace::new("t");
        t.accesses = vec![
            Access::write(0, CacheLine::ZERO, 0),
            write(64, 1),
            Access::read(0, 0),
        ];
        assert_eq!(zero_line_rate(&t), 0.5);
    }

    #[test]
    fn refcount_buckets_classify_by_write_count() {
        let mut t = Trace::new("t");
        // Content 1 written once; content 2 written 5 times; content 3 written 12 times.
        t.accesses.push(write(0, 1));
        for i in 0..5 {
            t.accesses.push(write(64 * (i + 1), 2));
        }
        for i in 0..12 {
            t.accesses.push(write(64 * (i + 10), 3));
        }
        let b = refcount_buckets(&t);
        assert_eq!(b.num1, 1);
        assert_eq!(b.num10, 1);
        assert_eq!(b.num100, 1);
        assert_eq!(b.unique_contents(), 3);
        assert_eq!(b.total_writes(), 18);
        assert_eq!(b.writes_per_bucket, [1, 5, 12, 0, 0]);
        let cf = b.content_fractions();
        assert!((cf.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        let vf = b.volume_fractions();
        assert!((vf[2] - 12.0 / 18.0).abs() < 1e-12);
    }

    #[test]
    fn empty_buckets_have_zero_fractions() {
        let b = RefCountBuckets::default();
        assert_eq!(b.content_fractions(), [0.0; 5]);
        assert_eq!(b.volume_fractions(), [0.0; 5]);
    }
}
