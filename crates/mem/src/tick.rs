//! Simulation time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time.
///
/// One tick is 100 ms of simulated wall-clock time — the KSM sleep interval
/// used throughout the paper's measurements (§II.C), so one tick corresponds
/// to one scanner wake-up. The paper's 90-minute measurement runs are
/// 54 000 ticks.
///
/// # Example
///
/// ```
/// use mem::Tick;
///
/// let t = Tick(10) + 5;
/// assert_eq!(t, Tick(15));
/// assert_eq!(t - Tick(10), 5);
/// assert_eq!(Tick::from_seconds(1.0), Tick(10));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Tick(pub u64);

/// Number of ticks per simulated second.
pub const TICKS_PER_SECOND: u64 = 10;

impl Tick {
    /// The start of simulated time.
    pub const ZERO: Tick = Tick(0);

    /// Converts a duration in simulated seconds to the equivalent tick.
    #[must_use]
    pub fn from_seconds(seconds: f64) -> Tick {
        Tick((seconds * TICKS_PER_SECOND as f64).round() as u64)
    }

    /// Returns this tick as a number of simulated seconds since time zero.
    #[must_use]
    pub fn as_seconds(self) -> f64 {
        self.0 as f64 / TICKS_PER_SECOND as f64
    }

    /// Returns the tick immediately after this one.
    #[must_use]
    pub fn next(self) -> Tick {
        Tick(self.0 + 1)
    }

    /// Saturating subtraction of a tick count.
    #[must_use]
    pub fn saturating_sub(self, delta: u64) -> Tick {
        Tick(self.0.saturating_sub(delta))
    }
}

impl Add<u64> for Tick {
    type Output = Tick;

    fn add(self, rhs: u64) -> Tick {
        Tick(self.0 + rhs)
    }
}

impl AddAssign<u64> for Tick {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub for Tick {
    type Output = u64;

    fn sub(self, rhs: Tick) -> u64 {
        self.0 - rhs.0
    }
}

impl fmt::Display for Tick {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let mut t = Tick(5);
        t += 3;
        assert_eq!(t, Tick(8));
        assert_eq!(t.next(), Tick(9));
        assert_eq!(t - Tick(2), 6);
        assert_eq!(Tick(3).saturating_sub(10), Tick::ZERO);
    }

    #[test]
    fn seconds_roundtrip() {
        let t = Tick::from_seconds(12.3);
        assert_eq!(t, Tick(123));
        assert!((t.as_seconds() - 12.3).abs() < 1e-9);
    }

    #[test]
    fn display() {
        assert_eq!(Tick(7).to_string(), "t7");
    }
}
