//! Statistics of the controller-resident metadata SRAM caches.
//!
//! The caches themselves live in `esd-core`: the AMT hot-entry cache, the
//! fingerprint caches of the full-deduplication baselines and the
//! encryption-counter cache keep their LRU state (a recency stamp and a
//! dirty bit) in the entries of the tables they cache, and ESD's EFIT uses
//! its own Least-Reference-Count-Used policy. Every one of them reports
//! its hits, misses and evictions as a [`CacheStats`].

/// Hit/miss counters for a metadata cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the key.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit ratio in `[0, 1]`; zero when no lookups happened.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::CacheStats;

    #[test]
    fn hit_rate_is_hits_over_lookups() {
        let stats = CacheStats {
            hits: 1,
            misses: 2,
            evictions: 5,
        };
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        let all_hits = CacheStats {
            hits: 4,
            ..CacheStats::default()
        };
        assert_eq!(all_hits.hit_rate(), 1.0);
    }

    #[test]
    fn hit_rate_is_zero_without_lookups() {
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        let evictions_only = CacheStats {
            evictions: 3,
            ..CacheStats::default()
        };
        assert_eq!(evictions_only.hit_rate(), 0.0);
    }
}
