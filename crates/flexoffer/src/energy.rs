//! Exact integer energy amounts.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// An energy amount in integer **watt-hours**.
///
/// The MIRABEL pipeline aggregates, schedules, disaggregates and rolls up
/// energy amounts; doing this in floating point would make the
/// "disaggregated schedules sum exactly to the aggregate schedule"
/// invariant (Section 4, aggregation integration) unverifiable. Integer Wh
/// gives 0.001 kWh resolution — finer than any household appliance
/// needs — while keeping every sum exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Energy(i64);

impl Energy {
    /// Zero energy.
    pub const ZERO: Energy = Energy(0);

    /// Creates an amount from watt-hours.
    #[inline]
    pub const fn from_wh(wh: i64) -> Self {
        Energy(wh)
    }

    /// Creates an amount from whole kilowatt-hours.
    #[inline]
    pub const fn from_kwh(kwh: i64) -> Self {
        Energy(kwh * 1_000)
    }

    /// Creates an amount from fractional kilowatt-hours, rounding to the
    /// nearest watt-hour, halves away from zero.
    ///
    /// Equal to `Energy((kwh * 1_000.0).round() as i64)` for every input,
    /// saturating and NaN-to-zero included, without the `round` call:
    /// the baseline x86-64 target has no rounding instruction, so
    /// `f64::round` is a libm call, and the schedulers convert one
    /// residual per slice per candidate start. Truncating is exact, and
    /// so is `wh - t` (an `f64` minus its own integer part), so the
    /// half comparisons are exact too.
    #[inline]
    pub fn from_kwh_f64(kwh: f64) -> Self {
        let wh = kwh * 1_000.0;
        // Saturating toward zero; NaN becomes 0, and so does the
        // fraction test below.
        let t = wh as i64;
        let frac = wh - t as f64;
        if frac >= 0.5 {
            Energy(t.saturating_add(1))
        } else if frac <= -0.5 {
            Energy(t.saturating_sub(1))
        } else {
            Energy(t)
        }
    }

    /// The amount in watt-hours.
    #[inline]
    pub const fn wh(self) -> i64 {
        self.0
    }

    /// The amount in kilowatt-hours.
    #[inline]
    pub fn kwh(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// `true` when the amount is exactly zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Absolute value.
    #[inline]
    pub const fn abs(self) -> Energy {
        Energy(self.0.abs())
    }

    /// The smaller of two amounts.
    #[inline]
    pub fn min(self, other: Energy) -> Energy {
        Energy(self.0.min(other.0))
    }

    /// The larger of two amounts.
    #[inline]
    pub fn max(self, other: Energy) -> Energy {
        Energy(self.0.max(other.0))
    }

    /// Clamps into `[lo, hi]`.
    #[inline]
    pub fn clamp(self, lo: Energy, hi: Energy) -> Energy {
        Energy(self.0.clamp(lo.0, hi.0))
    }

    /// Saturating subtraction: `max(self - other, 0)`.
    #[inline]
    pub fn saturating_sub(self, other: Energy) -> Energy {
        Energy((self.0 - other.0).max(0))
    }
}

impl Add for Energy {
    type Output = Energy;
    #[inline]
    fn add(self, rhs: Energy) -> Energy {
        Energy(self.0 + rhs.0)
    }
}

impl AddAssign for Energy {
    #[inline]
    fn add_assign(&mut self, rhs: Energy) {
        self.0 += rhs.0;
    }
}

impl Sub for Energy {
    type Output = Energy;
    #[inline]
    fn sub(self, rhs: Energy) -> Energy {
        Energy(self.0 - rhs.0)
    }
}

impl SubAssign for Energy {
    #[inline]
    fn sub_assign(&mut self, rhs: Energy) {
        self.0 -= rhs.0;
    }
}

impl Neg for Energy {
    type Output = Energy;
    #[inline]
    fn neg(self) -> Energy {
        Energy(-self.0)
    }
}

impl Mul<i64> for Energy {
    type Output = Energy;
    #[inline]
    fn mul(self, rhs: i64) -> Energy {
        Energy(self.0 * rhs)
    }
}

impl Div<i64> for Energy {
    type Output = Energy;
    #[inline]
    fn div(self, rhs: i64) -> Energy {
        Energy(self.0 / rhs)
    }
}

impl Sum for Energy {
    fn sum<I: Iterator<Item = Energy>>(iter: I) -> Energy {
        Energy(iter.map(|e| e.0).sum())
    }
}

impl fmt::Display for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.abs() >= 1_000 && self.0 % 1_000 == 0 {
            write!(f, "{} kWh", self.0 / 1_000)
        } else if self.0.abs() >= 1_000 {
            write!(f, "{:.3} kWh", self.kwh())
        } else {
            write!(f, "{} Wh", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Energy::from_kwh(2), Energy::from_wh(2_000));
        assert_eq!(Energy::from_kwh_f64(1.5), Energy::from_wh(1_500));
        assert_eq!(Energy::from_kwh_f64(0.0004), Energy::ZERO);
        assert_eq!(Energy::from_wh(2_500).kwh(), 2.5);
    }

    /// What `from_kwh_f64` must equal for every input.
    fn rounded(kwh: f64) -> Energy {
        Energy((kwh * 1_000.0).round() as i64)
    }

    /// `kwh` and its `steps` neighbours on either side, bit for bit.
    fn around(kwh: f64, steps: i64) -> impl Iterator<Item = f64> {
        (-steps..=steps).map(move |d| f64::from_bits(kwh.to_bits().wrapping_add_signed(d)))
    }

    #[test]
    fn from_kwh_f64_rounds_exactly_like_f64_round() {
        let mut cases = vec![
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::EPSILON,
            1.234_567,
            -1.234_567,
        ];
        // Subnormals, smallest to largest.
        for bits in [1, 2, 0x000F_FFFF_FFFF_FFFF] {
            cases.extend([f64::from_bits(bits), -f64::from_bits(bits)]);
        }
        // Half-watt-hour ties (exact after the scaling) and their
        // neighbours.
        for k in -6..=6 {
            cases.extend(around((k as f64 + 0.5) / 1_000.0, 2));
        }
        cases.extend(around(1.0005, 2));
        // Either side of 2^52 Wh (where fractions end) and of 2^63 Wh
        // (where the conversion saturates), both signs.
        for wh in [2f64.powi(52), 2f64.powi(63), 2f64.powi(52) - 0.5] {
            for kwh in around(wh / 1_000.0, 3) {
                cases.extend([kwh, -kwh]);
            }
        }
        for kwh in cases {
            assert_eq!(
                Energy::from_kwh_f64(kwh),
                rounded(kwh),
                "kwh {kwh:e} (bits {:#018x})",
                kwh.to_bits()
            );
        }

        // The named behaviours, spelled out: ties away from zero,
        // saturation, NaN to zero.
        assert_eq!(Energy::from_kwh_f64(0.0005), Energy::from_wh(1));
        assert_eq!(Energy::from_kwh_f64(-0.0005), Energy::from_wh(-1));
        assert_eq!(Energy::from_kwh_f64(0.0025), Energy::from_wh(3));
        assert_eq!(Energy::from_kwh_f64(-0.0025), Energy::from_wh(-3));
        assert_eq!(Energy::from_kwh_f64(f64::INFINITY), Energy::from_wh(i64::MAX));
        assert_eq!(Energy::from_kwh_f64(f64::NEG_INFINITY), Energy::from_wh(i64::MIN));
        assert_eq!(Energy::from_kwh_f64(f64::NAN), Energy::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = Energy::from_wh(500);
        let b = Energy::from_wh(300);
        assert_eq!(a + b, Energy::from_wh(800));
        assert_eq!(a - b, Energy::from_wh(200));
        assert_eq!(-a, Energy::from_wh(-500));
        assert_eq!(a * 3, Energy::from_wh(1_500));
        assert_eq!(a / 2, Energy::from_wh(250));
        let mut c = a;
        c += b;
        c -= Energy::from_wh(100);
        assert_eq!(c, Energy::from_wh(700));
        assert_eq!(b.saturating_sub(a), Energy::ZERO);
        assert_eq!(a.saturating_sub(b), Energy::from_wh(200));
    }

    #[test]
    fn comparisons_and_clamps() {
        let a = Energy::from_wh(500);
        let b = Energy::from_wh(300);
        assert_eq!(a.min(b), b);
        assert_eq!(a.max(b), a);
        assert_eq!(Energy::from_wh(900).clamp(b, a), a);
        assert_eq!(Energy::from_wh(-10).abs(), Energy::from_wh(10));
        assert!(Energy::ZERO.is_zero());
    }

    #[test]
    fn sum_iterator() {
        let total: Energy = (1..=4).map(Energy::from_wh).sum();
        assert_eq!(total, Energy::from_wh(10));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Energy::from_wh(750).to_string(), "750 Wh");
        assert_eq!(Energy::from_kwh(3).to_string(), "3 kWh");
        assert_eq!(Energy::from_wh(1_500).to_string(), "1.500 kWh");
        assert_eq!(Energy::from_wh(-2_000).to_string(), "-2 kWh");
    }
}
