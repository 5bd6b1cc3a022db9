//! Virtual time: the clock of the simulated distributed system.
//!
//! The paper's performance argument (§3.1) is about *latency*: "the time
//! required to send a photon from New York to Los Angeles and back again is
//! 30 milliseconds. … A 100 MIPS CPU can execute over 3 million
//! instructions while waiting for a response from the opposite coast."
//! Reproducing that argument requires a clock that is independent of the
//! host machine; [`VirtualTime`] and [`VirtualDuration`] are that clock,
//! with nanosecond resolution in a `u64`.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A point in simulated time, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtualTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtualDuration(u64);

impl VirtualTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: VirtualTime = VirtualTime(0);

    /// A time no event can reach; useful as an "infinite" horizon.
    pub const MAX: VirtualTime = VirtualTime(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        VirtualTime(ns)
    }

    /// Raw nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Elapsed duration since `earlier`, saturating at zero.
    pub fn since(self, earlier: VirtualTime) -> VirtualDuration {
        VirtualDuration(self.0.saturating_sub(earlier.0))
    }

    /// Fractional seconds since simulation start (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Fractional milliseconds since simulation start (for reporting).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }
}

impl VirtualDuration {
    /// The zero-length duration.
    pub const ZERO: VirtualDuration = VirtualDuration(0);

    /// Construct from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        VirtualDuration(ns)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        VirtualDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        VirtualDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        VirtualDuration(s * 1_000_000_000)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// `true` if zero-length.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: VirtualDuration) -> VirtualDuration {
        VirtualDuration(self.0.saturating_sub(rhs.0))
    }

    /// Saturating scalar multiplication (what the `*` operator does too —
    /// this form makes the saturation explicit at call sites computing
    /// exponential backoffs from configured timeouts, where wrapping would
    /// turn a huge deadline into a tiny one).
    pub const fn saturating_mul(self, rhs: u64) -> VirtualDuration {
        VirtualDuration(self.0.saturating_mul(rhs))
    }
}

impl Add<VirtualDuration> for VirtualTime {
    type Output = VirtualTime;
    fn add(self, rhs: VirtualDuration) -> VirtualTime {
        VirtualTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<VirtualDuration> for VirtualTime {
    fn add_assign(&mut self, rhs: VirtualDuration) {
        *self = *self + rhs;
    }
}

impl Sub<VirtualTime> for VirtualTime {
    type Output = VirtualDuration;
    fn sub(self, rhs: VirtualTime) -> VirtualDuration {
        self.since(rhs)
    }
}

impl Add for VirtualDuration {
    type Output = VirtualDuration;
    fn add(self, rhs: VirtualDuration) -> VirtualDuration {
        VirtualDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for VirtualDuration {
    fn add_assign(&mut self, rhs: VirtualDuration) {
        *self = *self + rhs;
    }
}

impl Mul<u64> for VirtualDuration {
    type Output = VirtualDuration;
    fn mul(self, rhs: u64) -> VirtualDuration {
        self.saturating_mul(rhs)
    }
}

impl Div<u64> for VirtualDuration {
    type Output = VirtualDuration;
    /// # Panics
    ///
    /// Panics on division by zero.
    fn div(self, rhs: u64) -> VirtualDuration {
        VirtualDuration(self.0 / rhs)
    }
}

impl Sum for VirtualDuration {
    fn sum<I: Iterator<Item = VirtualDuration>>(iter: I) -> Self {
        iter.fold(VirtualDuration::ZERO, Add::add)
    }
}

impl fmt::Display for VirtualTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", format_ns(self.0))
    }
}

impl fmt::Display for VirtualDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ns(self.0))
    }
}

fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_conversion() {
        assert_eq!(VirtualDuration::from_micros(1).as_nanos(), 1_000);
        assert_eq!(VirtualDuration::from_millis(1).as_nanos(), 1_000_000);
        assert_eq!(VirtualDuration::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(VirtualDuration::from_secs(2).as_secs_f64(), 2.0);
        assert_eq!(VirtualDuration::from_millis(30).as_millis_f64(), 30.0);
    }

    #[test]
    fn arithmetic() {
        let t = VirtualTime::ZERO + VirtualDuration::from_millis(5);
        assert_eq!(t.as_nanos(), 5_000_000);
        let t2 = t + VirtualDuration::from_millis(3);
        assert_eq!((t2 - t).as_nanos(), 3_000_000);
        assert_eq!(t.since(t2), VirtualDuration::ZERO); // saturating
        let mut d = VirtualDuration::from_millis(1);
        d += VirtualDuration::from_millis(2);
        assert_eq!(d, VirtualDuration::from_millis(3));
        assert_eq!(d * 2, VirtualDuration::from_millis(6));
        assert_eq!(d / 3, VirtualDuration::from_millis(1));
        let total: VirtualDuration = (0..4).map(|_| VirtualDuration::from_millis(2)).sum();
        assert_eq!(total, VirtualDuration::from_millis(8));
    }

    #[test]
    fn saturation() {
        assert_eq!(
            VirtualTime::MAX + VirtualDuration::from_secs(1),
            VirtualTime::MAX
        );
        assert_eq!(
            VirtualDuration::from_millis(1).saturating_sub(VirtualDuration::from_secs(1)),
            VirtualDuration::ZERO
        );
        assert_eq!(
            VirtualDuration::from_nanos(u64::MAX / 2).saturating_mul(4),
            VirtualDuration::from_nanos(u64::MAX)
        );
        assert_eq!(
            VirtualDuration::from_nanos(u64::MAX / 2) * 4,
            VirtualDuration::from_nanos(u64::MAX),
            "the operator saturates identically"
        );
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(VirtualDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(VirtualDuration::from_micros(12).to_string(), "12.000µs");
        assert_eq!(VirtualDuration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(VirtualDuration::from_secs(12).to_string(), "12.000s");
        assert!(VirtualTime::from_nanos(1_500_000)
            .to_string()
            .starts_with("t="));
    }

    #[test]
    fn ordering() {
        assert!(VirtualTime::from_nanos(1) < VirtualTime::from_nanos(2));
        assert!(VirtualDuration::from_millis(1) < VirtualDuration::from_secs(1));
        assert!(VirtualDuration::ZERO.is_zero());
    }
}
