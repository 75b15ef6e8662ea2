//! Simulated time.
//!
//! Time is an absolute instant measured in integer nanoseconds since the
//! start of the simulation ([`SimTime`]); intervals are [`Duration`]s. Using
//! integers keeps event ordering exact and the simulation deterministic —
//! floating-point time accumulates rounding that can reorder events between
//! runs. Conversions to/from `f64` seconds happen only at model boundaries
//! (bandwidths and compute-time models are naturally `f64`).

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Nanoseconds in one second.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

/// An absolute simulated instant, in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A non-negative simulated interval, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The latest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from whole nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from fractional seconds, rounding to the nearest nanosecond.
    ///
    /// Panics in debug builds if `secs` is negative or non-finite.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        debug_assert!(secs.is_finite() && secs >= 0.0, "bad time: {secs}");
        SimTime((secs * NANOS_PER_SEC as f64).round() as u64)
    }

    /// Nanoseconds since simulation start.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as `f64`.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Milliseconds since simulation start, as `f64`.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// The interval from `earlier` to `self`, saturating at zero.
    ///
    /// Saturation (rather than panicking) matters because model code often
    /// computes "remaining wait" quantities that legitimately clamp at zero,
    /// mirroring the `(·)^+` positive-part operator in the paper's Eq. (2).
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// Checked interval since `earlier`; `None` if `earlier` is later.
    #[inline]
    pub fn checked_since(self, earlier: SimTime) -> Option<Duration> {
        self.0.checked_sub(earlier.0).map(Duration)
    }
}

impl Duration {
    /// The empty interval.
    pub const ZERO: Duration = Duration(0);
    /// The longest representable interval.
    pub const MAX: Duration = Duration(u64::MAX);

    /// Construct from whole nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        Duration(ns)
    }

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Duration(us * 1_000)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Duration(s * NANOS_PER_SEC)
    }

    /// Construct from fractional seconds, rounding to the nearest nanosecond.
    ///
    /// Panics in debug builds if `secs` is negative or non-finite.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        debug_assert!(secs.is_finite() && secs >= 0.0, "bad duration: {secs}");
        Duration((secs * NANOS_PER_SEC as f64).round() as u64)
    }

    /// Nanoseconds in this interval.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds, as `f64`.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Milliseconds, as `f64`.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// True if this is the empty interval.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Sum saturating at `Duration::MAX`.
    #[inline]
    pub fn saturating_add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }

    /// Difference saturating at zero — the `(·)^+` operator of Eq. (2).
    #[inline]
    pub fn saturating_sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }

    /// The time needed to move `bytes` at `bytes_per_sec`.
    ///
    /// Rounds *up* to the next nanosecond so a transfer never completes
    /// before all bytes have left the wire. Zero or non-finite rates map to
    /// `Duration::MAX` (the transfer never completes on a dead link).
    #[inline]
    pub fn for_bytes(bytes: u64, bytes_per_sec: f64) -> Duration {
        Self::for_bytes_f64(bytes as f64, bytes_per_sec)
    }

    /// [`Duration::for_bytes`] for a fractional byte count.
    ///
    /// The fluid network engine tracks residual bytes as `f64`, and a flow
    /// can legitimately hold a sub-byte remainder after a rate change.
    /// Predicting its completion from `remaining.ceil()` makes the flow
    /// *late* by up to `1/rate` seconds — unbounded at low rates — so
    /// completion predictions use the fractional residue directly. The
    /// round-up-to-the-next-nanosecond rule still guarantees the predicted
    /// instant is never before the last byte has left the wire.
    #[inline]
    pub fn for_bytes_f64(bytes: f64, bytes_per_sec: f64) -> Duration {
        debug_assert!(bytes >= 0.0 && bytes.is_finite(), "bad byte count {bytes}");
        if !(bytes_per_sec.is_finite()) || bytes_per_sec <= 0.0 {
            return Duration::MAX;
        }
        let secs = bytes / bytes_per_sec;
        let nanos = (secs * NANOS_PER_SEC as f64).ceil();
        if nanos >= u64::MAX as f64 {
            Duration::MAX
        } else {
            Duration(nanos as u64)
        }
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<Duration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    /// Panics on underflow in debug builds; use [`SimTime::saturating_since`]
    /// where clamping is the intended semantics.
    #[inline]
    fn sub(self, rhs: SimTime) -> Duration {
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction underflow");
        Duration(self.0 - rhs.0)
    }
}

impl Add for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Duration {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for Duration {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Duration) -> Duration {
        debug_assert!(self.0 >= rhs.0, "Duration subtraction underflow");
        Duration(self.0 - rhs.0)
    }
}

impl SubAssign for Duration {
    #[inline]
    fn sub_assign(&mut self, rhs: Duration) {
        debug_assert!(self.0 >= rhs.0, "Duration subtraction underflow");
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    #[inline]
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    #[inline]
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 == u64::MAX {
            write!(f, "inf")
        } else if self.0 >= NANOS_PER_SEC {
            write!(f, "{:.4}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.4}ms", self.as_millis_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simtime_roundtrip_secs() {
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t.as_nanos(), 1_500_000_000);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(Duration::from_secs(2), Duration::from_millis(2_000));
        assert_eq!(Duration::from_millis(3), Duration::from_micros(3_000));
        assert_eq!(Duration::from_micros(5), Duration::from_nanos(5_000));
        assert_eq!(Duration::from_secs_f64(0.25), Duration::from_millis(250));
    }

    #[test]
    fn add_duration_to_time() {
        let t = SimTime::from_secs_f64(1.0) + Duration::from_millis(500);
        assert_eq!(t, SimTime::from_secs_f64(1.5));
    }

    #[test]
    fn saturating_since_clamps_at_zero() {
        let a = SimTime::from_nanos(100);
        let b = SimTime::from_nanos(300);
        assert_eq!(b.saturating_since(a), Duration::from_nanos(200));
        assert_eq!(a.saturating_since(b), Duration::ZERO);
    }

    #[test]
    fn checked_since_detects_order() {
        let a = SimTime::from_nanos(100);
        let b = SimTime::from_nanos(300);
        assert_eq!(b.checked_since(a), Some(Duration::from_nanos(200)));
        assert_eq!(a.checked_since(b), None);
    }

    #[test]
    fn for_bytes_rounds_up() {
        // 1 byte at 3 bytes/sec = 0.333... sec, must round up.
        let d = Duration::for_bytes(1, 3.0);
        assert!(d.as_secs_f64() >= 1.0 / 3.0);
        assert!(d.as_secs_f64() < 1.0 / 3.0 + 1e-8);
    }

    #[test]
    fn for_bytes_dead_link_never_completes() {
        assert_eq!(Duration::for_bytes(100, 0.0), Duration::MAX);
        assert_eq!(Duration::for_bytes(100, -5.0), Duration::MAX);
        assert_eq!(Duration::for_bytes(100, f64::NAN), Duration::MAX);
    }

    #[test]
    fn for_bytes_exact_division() {
        // 1 GB at 1 GB/s is exactly one second.
        let d = Duration::for_bytes(NANOS_PER_SEC, NANOS_PER_SEC as f64);
        assert_eq!(d, Duration::from_secs(1));
    }

    #[test]
    fn positive_part_semantics() {
        let u = Duration::from_millis(10);
        let p = Duration::from_millis(25);
        // (u - p)^+ = 0 when the update lands before the previous forward ends.
        assert_eq!(u.saturating_sub(p), Duration::ZERO);
        assert_eq!(p.saturating_sub(u), Duration::from_millis(15));
    }

    #[test]
    fn time_add_saturates_at_max() {
        let t = SimTime::MAX + Duration::from_secs(1);
        assert_eq!(t, SimTime::MAX);
    }

    #[test]
    fn duration_scalar_ops() {
        assert_eq!(Duration::from_millis(4) * 3, Duration::from_millis(12));
        assert_eq!(Duration::from_millis(12) / 4, Duration::from_millis(3));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Duration::from_secs(2)), "2.0000s");
        assert_eq!(format!("{}", Duration::from_millis(2)), "2.0000ms");
        assert_eq!(format!("{}", Duration::from_nanos(42)), "42ns");
        assert_eq!(format!("{}", Duration::MAX), "inf");
    }
}
