//! Virtual time for the discrete-event simulation.
//!
//! All device service times and CPU costs in this workspace are expressed in
//! virtual nanoseconds. A `u64` nanosecond clock gives ~584 years of range,
//! which is far beyond any simulated experiment, while keeping ordering
//! comparisons exact (no floating-point event-time ties).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulation clock, in nanoseconds since simulation start.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of virtual time, in nanoseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; useful as an "inactive" sentinel for event sources.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Raw nanoseconds since simulation start.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds since simulation start, as a float (for reporting).
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Seconds since simulation start, as a float (for reporting).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Duration elapsed since `earlier`. Saturates at zero if `earlier` is
    /// in the future (callers comparing event sources may race on ties).
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from fractional microseconds; negative values clamp to zero.
    ///
    /// Device models compute service times in floating point (seek curves,
    /// bandwidth divisions); this is the single rounding point back into the
    /// integer clock domain: nanoseconds rounded half away from zero,
    /// saturating at `u64::MAX` (NaN becomes zero).
    #[inline]
    pub fn from_micros_f64(us: f64) -> Self {
        if us <= 0.0 {
            return SimDuration(0);
        }
        SimDuration(round_to_u64(us * 1_000.0))
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds, as a float.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Seconds, as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// True if this duration is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

/// `x.round() as u64` without the `round` call, which baseline x86-64
/// makes a software routine. Below 2^53 the truncation `t` and the
/// fraction `x - t` are both exact, so one compare against 0.5 rounds half
/// away from zero; at or above 2^53 every `f64` is an integer and the
/// saturating cast is the answer. NaN fails the first test and casts to 0,
/// negatives truncate to 0 with a negative fraction — the same as `round`.
#[inline]
fn round_to_u64(x: f64) -> u64 {
    const EXACT: f64 = (1u64 << 53) as f64;
    if x < EXACT {
        let t = x as u64;
        t + u64::from(x - t as f64 >= 0.5)
    } else {
        x as u64
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration::from_micros_f64(self.as_micros_f64() * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1_000_000.0)
        } else {
            write!(f, "{:.3}us", self.as_micros_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_micros(5).as_nanos(), 5_000);
        assert_eq!(SimDuration::from_millis(2).as_nanos(), 2_000_000);
        assert_eq!(SimDuration::from_micros(7).as_micros_f64(), 7.0);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_micros(10) + SimDuration::from_micros(5);
        assert_eq!(t.as_nanos(), 15_000);
        assert_eq!((t - SimTime::from_micros(10)).as_micros_f64(), 5.0);
        assert_eq!(
            SimDuration::from_micros(4) * 3,
            SimDuration::from_micros(12)
        );
        assert_eq!(
            SimDuration::from_micros(12) / 4,
            SimDuration::from_micros(3)
        );
    }

    #[test]
    fn subtraction_saturates() {
        let early = SimTime::from_micros(1);
        let late = SimTime::from_micros(9);
        assert_eq!((early - late).as_nanos(), 0);
        assert_eq!(early.since(late), SimDuration::ZERO);
    }

    #[test]
    fn fractional_micros_round() {
        assert_eq!(SimDuration::from_micros_f64(1.5).as_nanos(), 1_500);
        assert_eq!(SimDuration::from_micros_f64(-3.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_micros_f64(0.0004).as_nanos(), 0);
    }

    /// The formula `from_micros_f64` used to evaluate, libm `round` and all.
    fn from_micros_f64_by_round(us: f64) -> u64 {
        if us <= 0.0 {
            0
        } else {
            (us * 1_000.0).round() as u64
        }
    }

    #[test]
    fn rounding_without_libm_is_bit_identical_to_round() {
        let p53 = (1u64 << 53) as f64;
        let mut xs = vec![
            0.0,
            -0.0,
            0.5,
            f64::from_bits(0.5f64.to_bits() - 1),
            f64::from_bits(0.5f64.to_bits() + 1),
            1.5,
            2.5,
            (1u64 << 52) as f64 - 0.5,
            (1u64 << 52) as f64 + 0.5,
            p53 - 1.0,
            p53,
            p53 + 2.0,
            f64::from_bits(p53.to_bits() - 1),
            18_446_744_073_709_551_616.0, // 2^64
            1e300,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::from_bits(1),                     // smallest subnormal
            f64::from_bits(0x000F_FFFF_FFFF_FFFF), // largest subnormal
            -0.4,
            -0.5,
            -1.5,
            -1e300,
        ];
        // Seeded random bit patterns: every exponent, sign and payload.
        let mut r = crate::SimRng::seeded(0x0DD5);
        xs.extend((0..200_000).map(|_| f64::from_bits(r.next_u64())));
        // And the range device models actually produce (0 .. 100 ms in µs).
        xs.extend((0..200_000).map(|_| r.unit() * 100_000.0));
        for &x in &xs {
            assert_eq!(round_to_u64(x), x.round() as u64, "round({x:e})");
            assert_eq!(
                SimDuration::from_micros_f64(x).as_nanos(),
                from_micros_f64_by_round(x),
                "from_micros_f64({x:e})"
            );
        }
    }

    #[test]
    fn ordering_and_sentinels() {
        assert!(SimTime::ZERO < SimTime::MAX);
        assert!(SimTime::from_micros(1) < SimTime::from_micros(2));
    }

    #[test]
    fn display_units_scale() {
        assert_eq!(format!("{}", SimDuration::from_micros(3)), "3.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(3)), "3.000ms");
        assert_eq!(format!("{}", SimDuration::from_millis(3000)), "3.000s");
    }
}
