//! Physical-unit newtypes used throughout the model.
//!
//! The paper works at 1 Mbit/s where one bit takes exactly one microsecond,
//! which makes unit errors easy to miss. These newtypes keep durations,
//! frame sizes and channel rates statically distinct ([C-NEWTYPE]).
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub};

use serde::{Deserialize, Serialize};

/// A duration in microseconds.
///
/// All channel-time quantities in the model (slot length σ, SIFS, DIFS,
/// frame transmission times, `T_s`, `T_c`, `T_slot`) are expressed in this
/// unit.
///
/// # Examples
///
/// ```
/// use macgame_dcf::units::MicroSecs;
///
/// let sifs = MicroSecs::new(28.0);
/// let difs = MicroSecs::new(128.0);
/// assert_eq!((sifs + difs).value(), 156.0);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct MicroSecs(f64);

impl MicroSecs {
    /// A zero-length duration.
    pub const ZERO: MicroSecs = MicroSecs(0.0);

    /// Creates a duration of `us` microseconds.
    ///
    /// # Panics
    ///
    /// Panics if `us` is negative or not finite.
    #[must_use]
    pub fn new(us: f64) -> Self {
        assert!(us.is_finite() && us >= 0.0, "duration must be finite and non-negative"); // PANIC-POLICY: documented # Panics contract (programmer-error guard)
        MicroSecs(us)
    }

    /// Returns the raw number of microseconds.
    #[must_use]
    pub fn value(self) -> f64 {
        self.0
    }

    /// Returns the duration in seconds.
    #[must_use]
    pub fn to_seconds(self) -> f64 {
        self.0 * 1e-6
    }

    /// Creates a duration from seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    #[must_use]
    pub fn from_seconds(secs: f64) -> Self {
        MicroSecs::new(secs * 1e6)
    }
}

impl fmt::Display for MicroSecs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} µs", self.0)
    }
}

impl Add for MicroSecs {
    type Output = MicroSecs;
    fn add(self, rhs: MicroSecs) -> MicroSecs {
        MicroSecs(self.0 + rhs.0)
    }
}

impl AddAssign for MicroSecs {
    fn add_assign(&mut self, rhs: MicroSecs) {
        self.0 += rhs.0;
    }
}

impl Sub for MicroSecs {
    type Output = MicroSecs;
    fn sub(self, rhs: MicroSecs) -> MicroSecs {
        MicroSecs(self.0 - rhs.0)
    }
}

impl Mul<f64> for MicroSecs {
    type Output = MicroSecs;
    fn mul(self, rhs: f64) -> MicroSecs {
        MicroSecs(self.0 * rhs)
    }
}

impl Mul<MicroSecs> for f64 {
    type Output = MicroSecs;
    fn mul(self, rhs: MicroSecs) -> MicroSecs {
        MicroSecs(self * rhs.0)
    }
}

impl Div<MicroSecs> for MicroSecs {
    /// Dividing two durations yields a dimensionless ratio.
    type Output = f64;
    fn div(self, rhs: MicroSecs) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for MicroSecs {
    fn sum<I: Iterator<Item = MicroSecs>>(iter: I) -> MicroSecs {
        iter.fold(MicroSecs::ZERO, Add::add)
    }
}

/// A frame or header size in bits.
///
/// # Examples
///
/// ```
/// use macgame_dcf::units::{BitRate, Bits};
///
/// let payload = Bits::new(8184);
/// let rate = BitRate::from_mbps(1.0);
/// assert_eq!(payload.tx_time(rate).value(), 8184.0);
/// ```
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct Bits(u32);

impl Bits {
    /// Creates a size of `bits` bits.
    #[must_use]
    pub const fn new(bits: u32) -> Self {
        Bits(bits)
    }

    /// Returns the raw number of bits.
    #[must_use]
    pub const fn value(self) -> u32 {
        self.0
    }

    /// Time needed to transmit this many bits at `rate`.
    #[must_use]
    pub fn tx_time(self, rate: BitRate) -> MicroSecs {
        MicroSecs::new(f64::from(self.0) / rate.bits_per_microsec())
    }
}

impl fmt::Display for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} bits", self.0)
    }
}

impl Add for Bits {
    type Output = Bits;
    fn add(self, rhs: Bits) -> Bits {
        Bits(self.0 + rhs.0)
    }
}

/// A channel bit rate.
///
/// Stored as bits per microsecond so that `Bits / BitRate` lands directly in
/// [`MicroSecs`]; 1 Mbit/s is exactly 1 bit/µs.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct BitRate(f64);

impl BitRate {
    /// Creates a rate from megabits per second.
    ///
    /// # Panics
    ///
    /// Panics if `mbps` is not strictly positive and finite.
    #[must_use]
    pub fn from_mbps(mbps: f64) -> Self {
        assert!(mbps.is_finite() && mbps > 0.0, "bit rate must be positive and finite"); // PANIC-POLICY: documented # Panics contract (programmer-error guard)
        BitRate(mbps)
    }

    /// Returns the rate in bits per microsecond (numerically equal to Mbit/s).
    #[must_use]
    pub fn bits_per_microsec(self) -> f64 {
        self.0
    }
}

impl Default for BitRate {
    /// The paper's 1 Mbit/s channel.
    fn default() -> Self {
        BitRate::from_mbps(1.0)
    }
}

impl fmt::Display for BitRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} Mbit/s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn microsecs_arithmetic() {
        let a = MicroSecs::new(10.0);
        let b = MicroSecs::new(2.5);
        assert_eq!((a + b).value(), 12.5);
        assert_eq!((a - b).value(), 7.5);
        assert_eq!((a * 2.0).value(), 20.0);
        assert_eq!((2.0 * a).value(), 20.0);
        assert!((a / b - 4.0).abs() < 1e-12);
    }

    #[test]
    fn microsecs_sum_and_assign() {
        let total: MicroSecs = [1.0, 2.0, 3.0].into_iter().map(MicroSecs::new).sum();
        assert_eq!(total.value(), 6.0);
        let mut x = MicroSecs::new(1.0);
        x += MicroSecs::new(2.0);
        assert_eq!(x.value(), 3.0);
    }

    #[test]
    fn seconds_round_trip() {
        let t = MicroSecs::from_seconds(2.0);
        assert_eq!(t.value(), 2e6);
        assert_eq!(t.to_seconds(), 2.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_duration_rejected() {
        let _ = MicroSecs::new(-1.0);
    }

    #[test]
    fn one_mbps_bit_takes_one_microsecond() {
        let rate = BitRate::default();
        assert_eq!(Bits::new(8184).tx_time(rate).value(), 8184.0);
    }

    #[test]
    fn two_mbps_halves_tx_time() {
        let rate = BitRate::from_mbps(2.0);
        assert_eq!(Bits::new(1000).tx_time(rate).value(), 500.0);
    }

    #[test]
    fn bits_add() {
        assert_eq!((Bits::new(272) + Bits::new(128)).value(), 400);
    }

    #[test]
    fn display_formats() {
        assert_eq!(MicroSecs::new(50.0).to_string(), "50 µs");
        assert_eq!(Bits::new(112).to_string(), "112 bits");
        assert_eq!(BitRate::default().to_string(), "1 Mbit/s");
    }
}
