//! Simulated clock types.
//!
//! The simulator counts microseconds in a `u64`, which covers half a
//! million simulated years — enough for any BcWAN experiment while keeping
//! arithmetic exact (no floating-point clock drift).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant on the simulated clock (microseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time (microseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Builds an instant from raw microseconds.
    pub fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// The instant as raw microseconds.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// The instant as (truncated) whole seconds.
    pub fn as_secs(self) -> u64 {
        self.0 / 1_000_000
    }

    /// The instant as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Elapsed duration since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is after `self`.
    pub(crate) fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("duration_since: earlier is later than self"),
        )
    }

    /// Saturating version of `SimTime::duration_since`.
    pub fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds a duration from microseconds.
    pub fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Builds a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Builds a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Builds a duration from fractional seconds (negative clamps to zero).
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration((s.max(0.0) * 1e6).round() as u64)
    }

    /// The duration as raw microseconds.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// The duration as milliseconds (truncated).
    pub fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// The duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Scales the duration by an integer factor.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, factor: u64) -> Self {
        SimDuration(self.0 * factor)
    }

    /// Checked subtraction.
    pub fn checked_sub(self, other: SimDuration) -> Option<SimDuration> {
        self.0.checked_sub(other.0).map(SimDuration)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, d: SimDuration) -> SimDuration {
        SimDuration(self.0 + d.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, other: SimTime) -> SimDuration {
        self.duration_since(other)
    }
}

/// Pretty-prints a microsecond count, picking µs/ms/s automatically.
fn fmt_micros(us: u64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if us < 1_000 {
        write!(f, "{us}µs")
    } else if us < 1_000_000 {
        write!(f, "{:.3}ms", us as f64 / 1e3)
    } else {
        write!(f, "{:.3}s", us as f64 / 1e6)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_micros(self.0, f)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_micros(self.0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimDuration::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimDuration::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimDuration::from_secs_f64(1.5).as_millis(), 1_500);
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimTime::from_micros(5_500_000).as_secs(), 5);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_secs(1);
        let t2 = t + SimDuration::from_millis(500);
        assert_eq!(t2 - t, SimDuration::from_millis(500));
        assert_eq!(t2.duration_since(SimTime::ZERO).as_secs_f64(), 1.5);
        assert_eq!(
            SimTime::ZERO.saturating_duration_since(t2),
            SimDuration::ZERO
        );
    }

    #[test]
    #[should_panic(expected = "earlier is later")]
    fn duration_since_panics_on_reverse() {
        let _ = SimTime::ZERO.duration_since(SimTime::from_micros(1));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimDuration::from_micros(5).to_string(), "5µs");
        assert_eq!(SimDuration::from_micros(2_500).to_string(), "2.500ms");
        assert_eq!(SimDuration::from_secs(3).to_string(), "3.000s");
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_micros(1) < SimTime::from_micros(2));
        assert!(SimDuration::from_millis(1) < SimDuration::from_secs(1));
    }
}
