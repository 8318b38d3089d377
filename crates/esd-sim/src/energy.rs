//! Energy accounting in picojoules.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub};

/// An amount of energy, in picojoules.
///
/// # Examples
///
/// ```
/// use esd_sim::Energy;
/// let per_write = Energy::from_nj_milli(6750); // 6.75 nJ
/// assert_eq!((per_write * 2).as_pj(), 13_500);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Energy(pub u64);

impl Energy {
    /// Zero energy.
    pub const ZERO: Energy = Energy(0);

    /// Creates an energy amount from picojoules.
    #[must_use]
    pub fn from_pj(pj: u64) -> Self {
        Energy(pj)
    }

    /// Creates an energy amount from thousandths of a nanojoule
    /// (so `from_nj_milli(1490)` is the paper's 1.49 nJ PCM read).
    #[must_use]
    pub fn from_nj_milli(milli_nj: u64) -> Self {
        Energy(milli_nj)
    }

    /// This amount in picojoules.
    #[must_use]
    pub fn as_pj(self) -> u64 {
        self.0
    }

    /// This amount in nanojoules.
    #[must_use]
    pub fn as_nj_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This amount in microjoules.
    #[must_use]
    pub fn as_uj_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }
}

impl Add for Energy {
    type Output = Energy;
    fn add(self, rhs: Energy) -> Energy {
        Energy(self.0 + rhs.0)
    }
}

impl AddAssign for Energy {
    fn add_assign(&mut self, rhs: Energy) {
        self.0 += rhs.0;
    }
}

impl Sub for Energy {
    type Output = Energy;
    fn sub(self, rhs: Energy) -> Energy {
        Energy(self.0 - rhs.0)
    }
}

impl Mul<u64> for Energy {
    type Output = Energy;
    fn mul(self, rhs: u64) -> Energy {
        Energy(self.0 * rhs)
    }
}

impl Sum for Energy {
    fn sum<I: Iterator<Item = Energy>>(iter: I) -> Energy {
        Energy(iter.map(|e| e.0).sum())
    }
}

impl fmt::Display for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}uJ", self.as_uj_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}nJ", self.as_nj_f64())
        } else {
            write!(f, "{}pJ", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(Energy::from_nj_milli(1490).as_pj(), 1490);
        assert!((Energy::from_nj_milli(6750).as_nj_f64() - 6.75).abs() < 1e-9);
        assert!((Energy::from_pj(2_500_000).as_uj_f64() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn arithmetic() {
        let a = Energy::from_pj(100);
        let b = Energy::from_pj(50);
        assert_eq!(a + b, Energy::from_pj(150));
        assert_eq!(a - b, Energy::from_pj(50));
        assert_eq!(b * 4, Energy::from_pj(200));
        assert_eq!(vec![a, b].into_iter().sum::<Energy>(), Energy::from_pj(150));
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(Energy::from_pj(12).to_string(), "12pJ");
        assert_eq!(Energy::from_nj_milli(6750).to_string(), "6.750nJ");
        assert_eq!(Energy::from_pj(1_500_000).to_string(), "1.500uJ");
    }
}
