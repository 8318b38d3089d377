//! Simulation time: picosecond-resolution timestamps and durations.
//!
//! The simulator's clock is a `u64` count of picoseconds, which represents
//! both the 500 ps cycle of the paper's 2 GHz core and nanosecond-scale
//! device constants exactly, with room for ~213 days of simulated time.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulated time or a duration, in picoseconds.
///
/// # Examples
///
/// ```
/// use esd_sim::Ps;
/// let t = Ps::from_ns(75) + Ps::from_ns(150);
/// assert_eq!(t.as_ns(), 225);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ps(pub u64);

impl Ps {
    /// Zero time.
    pub const ZERO: Ps = Ps(0);

    /// Creates a duration from nanoseconds.
    #[must_use]
    pub fn from_ns(ns: u64) -> Self {
        Ps(ns * 1_000)
    }

    /// Creates a duration from microseconds.
    #[must_use]
    pub fn from_us(us: u64) -> Self {
        Ps(us * 1_000_000)
    }

    /// This duration in whole nanoseconds (truncating).
    #[must_use]
    pub fn as_ns(self) -> u64 {
        self.0 / 1_000
    }

    /// This duration in fractional nanoseconds.
    #[must_use]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This duration in picoseconds.
    #[must_use]
    pub fn as_ps(self) -> u64 {
        self.0
    }

    /// The later of two instants.
    #[must_use]
    pub fn max(self, other: Ps) -> Ps {
        Ps(self.0.max(other.0))
    }

    /// Saturating subtraction: `self - other`, or zero if negative.
    #[must_use]
    pub fn saturating_sub(self, other: Ps) -> Ps {
        Ps(self.0.saturating_sub(other.0))
    }

    /// Checked subtraction: `self - other`, or `None` if the result would
    /// be negative. Lets callers surface clock inversions instead of
    /// silently flattening them to zero.
    #[must_use]
    pub fn checked_sub(self, other: Ps) -> Option<Ps> {
        self.0.checked_sub(other.0).map(Ps)
    }
}

impl Add for Ps {
    type Output = Ps;
    fn add(self, rhs: Ps) -> Ps {
        Ps(self.0 + rhs.0)
    }
}

impl AddAssign for Ps {
    fn add_assign(&mut self, rhs: Ps) {
        self.0 += rhs.0;
    }
}

impl Sub for Ps {
    type Output = Ps;
    fn sub(self, rhs: Ps) -> Ps {
        Ps(self.0 - rhs.0)
    }
}

impl SubAssign for Ps {
    fn sub_assign(&mut self, rhs: Ps) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Ps {
    type Output = Ps;
    fn mul(self, rhs: u64) -> Ps {
        Ps(self.0 * rhs)
    }
}

impl Div<u64> for Ps {
    type Output = Ps;
    fn div(self, rhs: u64) -> Ps {
        Ps(self.0 / rhs)
    }
}

impl Sum for Ps {
    fn sum<I: Iterator<Item = Ps>>(iter: I) -> Ps {
        Ps(iter.map(|p| p.0).sum())
    }
}

impl fmt::Display for Ps {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1_000_000.0)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ns", self.0 as f64 / 1_000.0)
        } else {
            write!(f, "{}ps", self.0)
        }
    }
}

/// A CPU clock: converts between cycles and picoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Clock {
    /// Period of one cycle in picoseconds.
    cycle_ps: u64,
}

impl Clock {
    /// Creates a clock from a frequency in megahertz.
    ///
    /// The period is rounded to the nearest whole picosecond. Frequencies
    /// whose rounded period would misrepresent the requested frequency by
    /// more than 0.25% (relative) are rejected rather than silently
    /// drifting — `from_mhz(2100)` yields a 476 ps period (+0.04%, fine),
    /// but e.g. 300 GHz would truncate 3.33 ps to 3 ps (−10%) and panics.
    ///
    /// # Panics
    ///
    /// Panics if `mhz` is zero, if the period rounds to zero picoseconds,
    /// or if the nearest whole-picosecond period deviates from the exact
    /// period by more than 0.25%.
    #[must_use]
    pub fn from_mhz(mhz: u64) -> Self {
        assert!(mhz > 0, "clock frequency must be nonzero");
        let cycle_ps = (1_000_000 + mhz / 2) / mhz;
        assert!(cycle_ps > 0, "clock frequency too high to represent");
        // cycle_ps * mhz would be exactly 10^6 for a drift-free period;
        // bound the relative error at 0.25% (drift/10^6 <= 1/400).
        let drift = (cycle_ps * mhz).abs_diff(1_000_000);
        assert!(
            drift * 400 <= 1_000_000,
            "clock frequency {mhz} MHz needs a fractional-picosecond period \
             (nearest whole period drifts {:.3}%)",
            drift as f64 / 10_000.0
        );
        Clock { cycle_ps }
    }

    /// Period of one cycle.
    #[must_use]
    pub fn cycle(self) -> Ps {
        Ps(self.cycle_ps)
    }

    /// Converts a cycle count to a duration.
    #[must_use]
    pub fn cycles_to_ps(self, cycles: u64) -> Ps {
        Ps(cycles * self.cycle_ps)
    }

    /// Converts a duration to (fractional) cycles.
    #[must_use]
    pub fn ps_to_cycles_f64(self, t: Ps) -> f64 {
        t.0 as f64 / self.cycle_ps as f64
    }
}

impl Default for Clock {
    /// The paper's 2 GHz core clock.
    fn default() -> Self {
        Clock::from_mhz(2000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_round_trip() {
        assert_eq!(Ps::from_ns(75).as_ns(), 75);
        assert_eq!(Ps::from_us(3).as_ns(), 3000);
        assert_eq!(Ps::from_ns(150).as_ps(), 150_000);
    }

    #[test]
    fn arithmetic() {
        let a = Ps::from_ns(10);
        let b = Ps::from_ns(4);
        assert_eq!(a + b, Ps::from_ns(14));
        assert_eq!(a - b, Ps::from_ns(6));
        assert_eq!(a * 3, Ps::from_ns(30));
        assert_eq!(a / 2, Ps::from_ns(5));
        assert_eq!(b.saturating_sub(a), Ps::ZERO);
        assert_eq!(a.checked_sub(b), Some(Ps::from_ns(6)));
        assert_eq!(b.checked_sub(a), None);
        assert_eq!(a.max(b), a);
        assert_eq!(vec![a, b].into_iter().sum::<Ps>(), Ps::from_ns(14));
    }

    #[test]
    fn default_clock_is_2ghz() {
        let clock = Clock::default();
        assert_eq!(clock.cycle(), Ps(500));
        assert_eq!(clock.cycles_to_ps(4), Ps::from_ns(2));
        assert!((clock.ps_to_cycles_f64(Ps::from_ns(1)) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn from_mhz_exact_frequencies() {
        assert_eq!(Clock::from_mhz(2000).cycle(), Ps(500));
        assert_eq!(Clock::from_mhz(1000).cycle(), Ps(1000));
        assert_eq!(Clock::from_mhz(4000).cycle(), Ps(250));
    }

    #[test]
    fn from_mhz_rounds_to_nearest_within_tolerance() {
        // 2100 MHz: exact period 476.19 ps; rounds to 476 ps (+0.04%).
        assert_eq!(Clock::from_mhz(2100).cycle(), Ps(476));
        // 3000 MHz: exact period 333.33 ps; rounds to 333 ps (+0.1%).
        assert_eq!(Clock::from_mhz(3000).cycle(), Ps(333));
        // 2099 MHz: exact period 476.42 ps; rounds to 476 ps, not down to 475.
        assert_eq!(Clock::from_mhz(2099).cycle(), Ps(476));
    }

    #[test]
    #[should_panic(expected = "fractional-picosecond period")]
    fn from_mhz_rejects_large_drift() {
        // 300 GHz: exact period 3.33 ps; 3 ps would run 11% fast.
        let _ = Clock::from_mhz(300_000);
    }

    #[test]
    #[should_panic(expected = "clock frequency must be nonzero")]
    fn from_mhz_rejects_zero() {
        let _ = Clock::from_mhz(0);
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(Ps(500).to_string(), "500ps");
        assert_eq!(Ps::from_ns(75).to_string(), "75.000ns");
        assert_eq!(Ps::from_us(2).to_string(), "2.000us");
    }
}
