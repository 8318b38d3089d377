//! DeWrite's duplication predictor.
//!
//! DeWrite decides *before* fingerprinting whether an incoming line is
//! likely a duplicate: predicted-non-duplicate lines have their encryption
//! started in parallel with the CRC computation (hiding its latency), while
//! predicted-duplicate lines skip the speculative encryption. Both kinds of
//! misprediction hurt (paper Fig. 4): F2 serializes CRC + lookup + compare +
//! encryption, and F4 wastes cryptographic work and energy.
//!
//! The predictor here is a per-address two-bit saturating counter backed by
//! a global duplicate-ratio fallback for unseen addresses.

use esd_collections::U64Map;

/// Prediction accuracy counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredictorStats {
    /// Predictions that matched the actual outcome.
    pub correct: u64,
    /// Predictions that did not.
    pub incorrect: u64,
}

impl PredictorStats {
    /// Total predictions scored.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.correct + self.incorrect
    }

    /// Accuracy in `[0, 1]`, or `None` before any outcome is known — a
    /// predictor that has never been consulted is not 0% accurate.
    #[must_use]
    pub fn accuracy(&self) -> Option<f64> {
        let total = self.total();
        if total == 0 {
            None
        } else {
            Some(self.correct as f64 / total as f64)
        }
    }
}

/// Two-bit-counter duplication predictor with a global fallback.
///
/// # Examples
///
/// ```
/// use esd_core::DupPredictor;
/// let mut p = DupPredictor::new();
/// p.update(0x40, true);
/// p.update(0x40, true);
/// assert!(p.predict(0x40)); // learned: this address writes duplicates
/// ```
#[derive(Debug, Clone, Default)]
pub struct DupPredictor {
    counters: U64Map<u8>,
    global_dups: u64,
    global_total: u64,
    stats: PredictorStats,
}

impl DupPredictor {
    /// Creates an empty predictor (initially predicts non-duplicate).
    #[must_use]
    pub fn new() -> Self {
        DupPredictor::default()
    }

    /// Accuracy statistics.
    #[must_use]
    pub fn stats(&self) -> PredictorStats {
        self.stats
    }

    /// Predicts whether the next write to `addr` will be a duplicate.
    #[must_use]
    pub fn predict(&self, addr: u64) -> bool {
        match self.counters.get(addr) {
            Some(&counter) => counter >= 2,
            None => self.global_total > 16 && self.global_dups * 2 > self.global_total,
        }
    }

    /// Records the actual outcome for `addr`, updating accuracy statistics
    /// against the prediction that [`DupPredictor::predict`] would have made.
    pub fn update(&mut self, addr: u64, was_duplicate: bool) {
        if self.predict(addr) == was_duplicate {
            self.stats.correct += 1;
        } else {
            self.stats.incorrect += 1;
        }
        let counter = self.counters.get_or_insert_with(addr, || 1);
        if was_duplicate {
            *counter = (*counter + 1).min(3);
        } else {
            *counter = counter.saturating_sub(1);
        }
        self.global_total += 1;
        if was_duplicate {
            self.global_dups += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_predictor_says_non_duplicate() {
        let p = DupPredictor::new();
        assert!(!p.predict(0x40));
    }

    #[test]
    fn per_address_counters_learn() {
        let mut p = DupPredictor::new();
        p.update(0x40, true);
        p.update(0x40, true);
        assert!(p.predict(0x40));
        p.update(0x40, false);
        p.update(0x40, false);
        assert!(!p.predict(0x40));
    }

    #[test]
    fn global_fallback_kicks_in_for_unseen_addresses() {
        let mut p = DupPredictor::new();
        for i in 0..32u64 {
            p.update(i * 64, true);
        }
        assert!(
            p.predict(0xFFFF_0000),
            "dup-heavy history biases unseen addresses"
        );
    }

    #[test]
    fn accuracy_tracks_outcomes() {
        let mut p = DupPredictor::new();
        p.update(0, false); // cold predicts non-dup: correct
        p.update(0, false); // counter 0: predicts non-dup: correct
        p.update(0, true); // predicts non-dup: incorrect
        let s = p.stats();
        assert_eq!(s.correct, 2);
        assert_eq!(s.incorrect, 1);
        assert_eq!(s.total(), 3);
        let acc = s.accuracy().expect("outcomes recorded");
        assert!((acc - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(
            PredictorStats::default().accuracy(),
            None,
            "no predictions yet is not 0% accuracy"
        );
    }
}
