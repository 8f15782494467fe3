//! Simulation time.
//!
//! All timing in the workspace is expressed in DRAM *command-clock
//! cycles* (one tick of the DDR command bus, i.e. `tCK`). Using integer
//! cycles rather than wall-clock units keeps timing-constraint
//! arithmetic exact and makes simulations reproducible.
//!
//! A [`Cycle`] is a point in time; a plain `u64` is used for durations
//! where the meaning is unambiguous, and [`Cycle::delta`] /
//! [`Cycle::offset`] convert between the two.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulation time, measured in DRAM command-clock cycles
/// since the start of the simulation.
///
/// # Examples
///
/// ```
/// use hammertime_common::Cycle;
///
/// let t0 = Cycle::ZERO;
/// let t1 = t0 + 14; // 14 cycles later (e.g. tRCD for DDR4-2400)
/// assert_eq!(t1.delta(t0), 14);
/// assert!(t1 > t0);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Cycle(pub u64);

impl Cycle {
    /// The start of simulation time.
    pub const ZERO: Cycle = Cycle(0);

    /// A time later than any the simulator will ever reach; used as the
    /// "no constraint" value in earliest-issue bookkeeping.
    pub const MAX: Cycle = Cycle(u64::MAX);

    /// Returns the raw cycle count.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the duration in cycles from `earlier` to `self`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is after `self`.
    #[inline]
    pub fn delta(self, earlier: Cycle) -> u64 {
        debug_assert!(earlier.0 <= self.0, "delta from a later time");
        self.0 - earlier.0
    }

    /// Returns this time advanced by `cycles`, saturating at
    /// [`Cycle::MAX`].
    #[inline]
    pub const fn offset(self, cycles: u64) -> Cycle {
        Cycle(self.0.saturating_add(cycles))
    }

    /// Returns the later of two times.
    #[inline]
    pub fn max(self, other: Cycle) -> Cycle {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the earlier of two times.
    #[inline]
    pub fn min(self, other: Cycle) -> Cycle {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;

    #[inline]
    fn add(self, rhs: u64) -> Cycle {
        self.offset(rhs)
    }
}

impl AddAssign<u64> for Cycle {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        *self = self.offset(rhs);
    }
}

impl Sub<Cycle> for Cycle {
    type Output = u64;

    #[inline]
    fn sub(self, rhs: Cycle) -> u64 {
        self.delta(rhs)
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cyc", self.0)
    }
}

/// Converts a duration in nanoseconds to command-clock cycles for a bus
/// running at `mhz` megahertz (command rate), rounding up as JEDEC
/// timing conversion requires.
///
/// # Examples
///
/// ```
/// use hammertime_common::time::ns_to_cycles;
///
/// // DDR4-2400: command clock 1200 MHz, tRCD = 13.32 ns -> 16 cycles.
/// assert_eq!(ns_to_cycles(13.32, 1200), 16);
/// ```
pub fn ns_to_cycles(ns: f64, mhz: u64) -> u64 {
    debug_assert!(ns >= 0.0 && ns.is_finite(), "nonsensical duration");
    (ns * mhz as f64 / 1000.0).ceil() as u64
}

/// Converts a cycle count back to nanoseconds for reporting.
///
/// # Examples
///
/// ```
/// use hammertime_common::time::cycles_to_ns;
///
/// assert!((cycles_to_ns(1200, 1200) - 1000.0).abs() < 1e-9);
/// ```
pub fn cycles_to_ns(cycles: u64, mhz: u64) -> f64 {
    cycles as f64 * 1000.0 / mhz as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_ordering_and_arithmetic() {
        let a = Cycle(10);
        let b = a + 5;
        assert_eq!(b, Cycle(15));
        assert_eq!(b - a, 5);
        assert_eq!(b.delta(a), 5);
        assert!(b > a);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn cycle_saturates_at_max() {
        assert_eq!(Cycle::MAX + 1, Cycle::MAX);
        assert_eq!(Cycle::MAX.offset(u64::MAX), Cycle::MAX);
    }

    #[test]
    fn add_assign_advances() {
        let mut t = Cycle::ZERO;
        t += 7;
        t += 3;
        assert_eq!(t.raw(), 10);
    }

    #[test]
    fn ns_conversion_rounds_up() {
        // 0.01 ns at 1200 MHz is a fraction of a cycle; must round to 1.
        assert_eq!(ns_to_cycles(0.01, 1200), 1);
        assert_eq!(ns_to_cycles(0.0, 1200), 0);
        // Round trip within one cycle of slack.
        let cycles = ns_to_cycles(64_000_000.0, 1200); // 64 ms refresh window
        let ns = cycles_to_ns(cycles, 1200);
        assert!((ns - 64_000_000.0).abs() < 1.0);
    }

    // The panic is a `debug_assert!`, absent from builds without debug
    // assertions (plain `--release`).
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "delta from a later time")]
    fn delta_panics_on_reversed_order_in_debug() {
        let _ = Cycle(1).delta(Cycle(2));
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(Cycle(42).to_string(), "42cyc");
    }
}
