//! Simulated time types.
//!
//! Simulated time is an absolute number of nanoseconds since the start of
//! the simulation, stored in a `u64`. Integer nanoseconds keep event
//! ordering exact (no floating-point drift) while still being fine enough
//! to model sub-microsecond service times; a `u64` covers ~584 years of
//! simulated time, far beyond any experiment in this repository.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute point in simulated time (nanoseconds since simulation start).
///
/// `SimTime` is ordered, hashable and cheap to copy. Arithmetic with
/// [`SimDuration`] is provided through the standard operator traits.
///
/// # Example
///
/// ```
/// use ef_simcore::{SimTime, SimDuration};
/// let t = SimTime::ZERO + SimDuration::from_micros(3);
/// assert_eq!(t.as_nanos(), 3_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time (nanoseconds).
///
/// # Example
///
/// ```
/// use ef_simcore::SimDuration;
/// let d = SimDuration::from_millis(2) + SimDuration::from_micros(500);
/// assert_eq!(d.as_secs_f64(), 0.0025);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable time; useful as an "infinity" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from a raw nanosecond count.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates a time from seconds expressed as a float.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid time: {secs}");
        SimTime((secs * 1e9).round() as u64)
    }

    /// Raw nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The duration elapsed since `earlier`.
    ///
    /// Returns [`SimDuration::ZERO`] when `earlier` is later than `self`
    /// (saturating), mirroring `std::time::Instant::saturating_duration_since`.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Returns the later of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Returns the earlier of two times.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from raw nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000_000)
    }

    /// Creates a duration from seconds expressed as a float.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid duration: {secs}");
        SimDuration((secs * 1e9).round() as u64)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Duration in seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration in milliseconds as a float.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// True when the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[expect(
        clippy::expect_used,
        reason = "Add must return SimTime; checked_add makes overflow loud instead of wrapping"
    )]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("simulated time overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics when `rhs` is later than `self`; use
    /// [`SimTime::saturating_since`] when that can happen.
    #[expect(
        clippy::expect_used,
        reason = "documented panic contract; saturating_since is the non-panicking path"
    )]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("negative simulated duration"),
        )
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    /// # Panics
    ///
    /// Panics when the subtraction would go before time zero.
    #[expect(
        clippy::expect_used,
        reason = "documented panic contract on the operator; overflow must be loud"
    )]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("time before zero"))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[expect(
        clippy::expect_used,
        reason = "Add must return SimDuration; checked_add makes overflow loud instead of wrapping"
    )]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("duration overflow"))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics on underflow; use [`SimDuration::saturating_sub`] otherwise.
    #[expect(
        clippy::expect_used,
        reason = "documented panic contract; saturating_sub is the non-panicking path"
    )]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("duration underflow"))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[expect(
        clippy::expect_used,
        reason = "Mul must return SimDuration; checked_mul makes overflow loud instead of wrapping"
    )]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("duration overflow"))
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    /// Scales the duration by a non-negative float factor.
    fn mul(self, rhs: f64) -> SimDuration {
        assert!(rhs.is_finite() && rhs >= 0.0, "invalid scale: {rhs}");
        SimDuration((self.0 as f64 * rhs).round() as u64)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

impl From<SimDuration> for std::time::Duration {
    fn from(d: SimDuration) -> Self {
        std::time::Duration::from_nanos(d.as_nanos())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_nanos(1_500);
        let d = SimDuration::from_micros(2);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn from_secs_f64_rounds() {
        assert_eq!(SimTime::from_secs_f64(1.5).as_nanos(), 1_500_000_000);
        assert_eq!(SimDuration::from_secs_f64(0.25).as_nanos(), 250_000_000);
    }

    #[test]
    fn saturating_since_clamps() {
        let a = SimTime::from_nanos(10);
        let b = SimTime::from_nanos(30);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_since(a), SimDuration::from_nanos(20));
    }

    #[test]
    #[should_panic(expected = "negative simulated duration")]
    fn negative_duration_panics() {
        let _ = SimTime::from_nanos(1) - SimTime::from_nanos(2);
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1_000));
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1_000));
        assert_eq!(SimDuration::from_micros(1), SimDuration::from_nanos(1_000));
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_millis(10);
        assert_eq!(d * 3, SimDuration::from_millis(30));
        assert_eq!(d * 0.5, SimDuration::from_millis(5));
        assert_eq!(d / 2, SimDuration::from_millis(5));
    }

    #[test]
    fn duration_sum() {
        let total: SimDuration = (1..=4).map(SimDuration::from_millis).sum();
        assert_eq!(total, SimDuration::from_millis(10));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_micros(12).to_string(), "12.000us");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimDuration::from_secs(12).to_string(), "12.000s");
    }

    #[test]
    fn min_max() {
        let a = SimTime::from_nanos(5);
        let b = SimTime::from_nanos(9);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }
}
