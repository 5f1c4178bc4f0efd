//! Simulated time in integer picoseconds.
//!
//! Picosecond resolution keeps every cost integral (no float drift between
//! runs) while still leaving room for ~213 days of simulated time in a `u64`.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// One nanosecond in picoseconds.
pub const NANOS: u64 = 1_000;
/// One microsecond in picoseconds.
pub const MICROS: u64 = 1_000_000;
/// One millisecond in picoseconds.
pub const MILLIS: u64 = 1_000_000_000;
/// One second in picoseconds.
pub const SECS: u64 = 1_000_000_000_000;

/// A point in simulated time, measured in picoseconds from simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable time; used as "never".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from whole nanoseconds.
    pub(crate) const fn from_nanos(ns: u64) -> Self {
        SimTime(ns * NANOS)
    }

    /// Creates a time from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * MICROS)
    }

    /// Creates a time from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * MILLIS)
    }

    /// Returns the raw picosecond count.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Returns the time as (truncated) whole nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0 / NANOS
    }

    /// Returns the time as fractional microseconds.
    #[cfg(test)]
    pub(crate) fn as_micros_f64(self) -> f64 {
        self.0 as f64 / MICROS as f64
    }

    /// Returns the time as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / SECS as f64
    }

    /// Saturating difference `self - earlier`, in picoseconds.
    pub const fn since(self, earlier: SimTime) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for SimTime {
    type Output = SimTime;

    fn add(self, ps: u64) -> SimTime {
        SimTime(self.0 + ps)
    }
}

impl AddAssign<u64> for SimTime {
    fn add_assign(&mut self, ps: u64) {
        self.0 += ps;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = u64;

    fn sub(self, rhs: SimTime) -> u64 {
        self.0 - rhs.0
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0 as f64 / NANOS as f64)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_nanos(5).as_ps(), 5_000);
        assert_eq!(SimTime::from_micros(2).as_nanos(), 2_000);
        assert_eq!(SimTime::from_millis(1).as_ps(), MILLIS);
        assert_eq!(SimTime(1_500).as_nanos(), 1);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_nanos(10);
        assert_eq!((t + 500).as_ps(), 10_500);
        let u = SimTime::from_nanos(25);
        assert_eq!(u - t, 15_000);
        assert_eq!(t.since(u), 0);
        assert_eq!(u.since(t), 15_000);
    }

    #[test]
    fn float_views() {
        let t = SimTime::from_micros(1_500_000);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
        assert!((SimTime::from_nanos(2_500).as_micros_f64() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_nanos(1) < SimTime::from_nanos(2));
        assert_eq!(SimTime::ZERO, SimTime::default());
    }
}
