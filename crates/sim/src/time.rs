//! Simulated time at picosecond resolution.
//!
//! Using integer picoseconds keeps cycle arithmetic exact for the frequencies
//! the paper uses (1 cycle at 2 GHz = 500 ps, at 1 GHz = 1000 ps) and keeps
//! the simulation fully deterministic: there is no floating point in the
//! clock.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// An absolute point in simulated time, in picoseconds since simulation start.
///
/// A `u64` picosecond clock wraps after ~213 days of simulated time, far
/// beyond any experiment in this repository (full paper runs simulate less
/// than a minute).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulated time, in picoseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from raw picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Creates a time from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * 1_000)
    }

    /// Creates a time from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000_000)
    }

    /// Creates a time from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000_000)
    }

    /// Raw picoseconds since simulation start.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Whole nanoseconds since simulation start (truncating).
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole microseconds since simulation start (truncating).
    #[inline]
    pub const fn as_us(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds since simulation start, as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-12
    }

    /// The duration elapsed since `earlier`.
    ///
    /// # Panics
    /// Panics in debug builds if `earlier` is later than `self`.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(
            earlier.0 <= self.0,
            "time went backwards: {earlier} > {self}"
        );
        SimDuration(self.0 - earlier.0)
    }

    /// Saturating duration since `earlier` (zero if `earlier` is later).
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Returns the later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Returns the earlier of two instants.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration; used as an "unbounded" sentinel.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from raw picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimDuration(ps)
    }

    /// Creates a duration from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimDuration(ns * 1_000)
    }

    /// Creates a duration from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimDuration(us * 1_000_000)
    }

    /// Creates a duration from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimDuration(ms * 1_000_000_000)
    }

    /// Raw picoseconds.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Whole nanoseconds (truncating).
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole microseconds (truncating).
    #[inline]
    pub const fn as_us(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds, as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-12
    }

    /// True if this duration is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiplies the duration by an integer factor, saturating on overflow.
    #[inline]
    pub fn saturating_mul(self, factor: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(factor))
    }

    /// Scales the duration by a float factor, rounding to the nearest
    /// picosecond with halves away from zero.
    ///
    /// Used by the progress model when re-projecting a task's completion after
    /// a frequency change; `factor` is a progress fraction in `[0, 1]`.
    /// The product is truncated and then bumped by one when its fraction is
    /// at least one half, without a libm call: that equals `f64::round`
    /// followed by `as u64` for every product, ties, values of 2⁵³ and
    /// more (which are whole), values of 2⁶⁴ and more (which saturate) and
    /// NaN (which reads 0) included.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        debug_assert!(factor >= 0.0, "negative duration scale {factor}");
        let x = self.0 as f64 * factor;
        let t = x as u64;
        // Below 2⁵³ both `t as f64` and the subtraction are exact.
        SimDuration(if x - t as f64 >= 0.5 {
            t.saturating_add(1)
        } else {
            t
        })
    }

    /// The ratio of two durations as a float (`self / denom`).
    ///
    /// Returns 0.0 when `denom` is zero.
    #[inline]
    pub fn ratio(self, denom: SimDuration) -> f64 {
        if denom.0 == 0 {
            0.0
        } else {
            self.0 as f64 / denom.0 as f64
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        debug_assert!(rhs.0 <= self.0, "duration underflow");
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        debug_assert!(rhs.0 <= self.0, "duration underflow");
        self.0 -= rhs.0;
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ps(self.0, f)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_ps(self.0, f)
    }
}

/// Human-readable picosecond formatting with an adaptive unit.
fn fmt_ps(ps: u64, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if ps == 0 {
        write!(f, "0s")
    } else if ps < 1_000 {
        write!(f, "{ps}ps")
    } else if ps < 1_000_000 {
        write!(f, "{:.3}ns", ps as f64 / 1e3)
    } else if ps < 1_000_000_000 {
        write!(f, "{:.3}us", ps as f64 / 1e6)
    } else if ps < 1_000_000_000_000 {
        write!(f, "{:.3}ms", ps as f64 / 1e9)
    } else {
        write!(f, "{:.3}s", ps as f64 / 1e12)
    }
}

/// A core clock frequency, stored in megahertz.
///
/// The paper's machine uses 2000 MHz (fast, 1.0 V) and 1000 MHz (slow, 0.8 V);
/// both divide 10⁶ evenly so cycle durations are exact in picoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Frequency(u32);

impl Frequency {
    /// Creates a frequency from megahertz.
    ///
    /// # Panics
    /// Panics if `mhz` is zero: a 0 MHz core would never retire work and every
    /// cycle-to-time conversion would divide by zero.
    #[inline]
    pub const fn from_mhz(mhz: u32) -> Self {
        assert!(mhz > 0, "frequency must be non-zero");
        Frequency(mhz)
    }

    /// Creates a frequency from gigahertz.
    #[inline]
    pub const fn from_ghz(ghz: u32) -> Self {
        Frequency::from_mhz(ghz * 1000)
    }

    /// Frequency in megahertz.
    #[inline]
    pub const fn as_mhz(self) -> u32 {
        self.0
    }

    /// The wall time taken to execute `cycles` cycles at this frequency.
    ///
    /// Exact for frequencies that divide 10⁶ MHz·ps evenly (all paper
    /// frequencies); rounds up otherwise so work is never under-charged.
    /// `ps = ⌈cycles · 10⁶ / mhz⌉` is divided in `u64` whenever
    /// `cycles · 10⁶` fits (up to about 1.8·10¹³ cycles, 2.5 hours at
    /// 2 GHz), and in `u128`, saturating, beyond.
    #[inline]
    pub fn cycles_to_duration(self, cycles: u64) -> SimDuration {
        let ps = match cycles.checked_mul(1_000_000) {
            Some(n) => n.div_ceil(u64::from(self.0)),
            None => {
                let ps = (u128::from(cycles) * 1_000_000).div_ceil(u128::from(self.0));
                ps.min(u128::from(u64::MAX)) as u64
            }
        };
        SimDuration::from_ps(ps)
    }

    /// The number of whole cycles this core retires in `dur`.
    #[inline]
    pub fn duration_to_cycles(self, dur: SimDuration) -> u64 {
        let ps = dur.as_ps() as u128;
        ((ps * self.0 as u128) / 1_000_000).min(u64::MAX as u128) as u64
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_multiple_of(1000) {
            write!(f, "{}GHz", self.0 / 1000)
        } else {
            write!(f, "{}MHz", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_unit_conversions_round_trip() {
        let t = SimTime::from_us(25);
        assert_eq!(t.as_ps(), 25_000_000);
        assert_eq!(t.as_ns(), 25_000);
        assert_eq!(t.as_us(), 25);
        assert_eq!(SimTime::from_ms(3).as_us(), 3_000);
        assert_eq!(SimTime::from_ns(7).as_ps(), 7_000);
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_ns(10);
        let b = SimDuration::from_ns(4);
        assert_eq!((a + b).as_ns(), 14);
        assert_eq!((a - b).as_ns(), 6);
        assert_eq!(
            a.saturating_sub(SimDuration::from_ns(100)),
            SimDuration::ZERO
        );
        let mut c = a;
        c += b;
        assert_eq!(c.as_ns(), 14);
        c -= b;
        assert_eq!(c.as_ns(), 10);
    }

    #[test]
    fn time_plus_duration() {
        let t = SimTime::from_ns(100) + SimDuration::from_ns(50);
        assert_eq!(t.as_ns(), 150);
        assert_eq!(t.since(SimTime::from_ns(100)).as_ns(), 50);
        assert_eq!(
            SimTime::from_ns(10).saturating_since(SimTime::from_ns(20)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn cycles_at_paper_frequencies_are_exact() {
        let fast = Frequency::from_ghz(2);
        let slow = Frequency::from_ghz(1);
        // 1 cycle at 2 GHz = 500 ps; at 1 GHz = 1000 ps.
        assert_eq!(fast.cycles_to_duration(1).as_ps(), 500);
        assert_eq!(slow.cycles_to_duration(1).as_ps(), 1000);
        // 2 M cycles at 2 GHz = 1 ms.
        assert_eq!(fast.cycles_to_duration(2_000_000).as_ns(), 1_000_000);
        // Round trip.
        assert_eq!(
            fast.duration_to_cycles(fast.cycles_to_duration(12345)),
            12345
        );
    }

    #[test]
    fn cycles_round_up_for_awkward_frequencies() {
        let f = Frequency::from_mhz(1500);
        // 1 cycle at 1.5 GHz = 666.67 ps, must round to 667 (never under-charge).
        assert_eq!(f.cycles_to_duration(1).as_ps(), 667);
        // 3 cycles = exactly 2000 ps.
        assert_eq!(f.cycles_to_duration(3).as_ps(), 2000);
    }

    #[test]
    fn large_cycle_counts_do_not_overflow() {
        let f = Frequency::from_ghz(2);
        let d = f.cycles_to_duration(u64::MAX / 2);
        assert!(d.as_ps() > 0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_ps(12).to_string(), "12ps");
        assert_eq!(SimTime::from_ns(1).to_string(), "1.000ns");
        assert_eq!(SimTime::from_us(25).to_string(), "25.000us");
        assert_eq!(SimTime::from_ms(15).to_string(), "15.000ms");
        assert_eq!(Frequency::from_ghz(2).to_string(), "2GHz");
        assert_eq!(Frequency::from_mhz(1500).to_string(), "1500MHz");
    }

    #[test]
    fn mul_f64_rounds() {
        let d = SimDuration::from_ps(1000);
        assert_eq!(d.mul_f64(0.5).as_ps(), 500);
        assert_eq!(d.mul_f64(0.3335).as_ps(), 334); // rounds to nearest
        assert_eq!(d.mul_f64(0.0).as_ps(), 0);
    }

    #[test]
    fn ratio_handles_zero_denominator() {
        assert_eq!(SimDuration::from_ns(5).ratio(SimDuration::ZERO), 0.0);
        let r = SimDuration::from_ns(1).ratio(SimDuration::from_ns(4));
        assert!((r - 0.25).abs() < 1e-12);
    }
}
