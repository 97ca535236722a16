//! The one checked number type of the exact analysis loops.

use crate::ratio::Q;

/// An exact number at a scale: an `i128` standing for `self / scale`, or a
/// [`Q`] at scale 1. The path searches, the maximum-cycle-ratio iteration
/// and the delay loops are written once over it: in `i128` at a common
/// scale (an lcm of the denominators, so sums and comparisons need no
/// gcd), and in `Q` when that scale or a product leaves `i128`.
///
/// Every operation is checked: `None` means the result is not a number of
/// the type. An `i128` caller then reruns in `Q`; a `Q` caller reports
/// [`ArithmeticError::Overflow`](crate::ArithmeticError::Overflow).
///
/// # Examples
///
/// ```
/// use srtw_minplus::{q, Scalar, Q};
///
/// // 1/3 + 1/6 at scale 6, and the same sum as rationals.
/// let (a, b) = (i128::scaled(q(1, 3), 6).unwrap(), i128::scaled(q(1, 6), 6).unwrap());
/// assert_eq!(a.add(b).unwrap().ratio(1, 6), Some(q(1, 2)));
/// assert_eq!(Scalar::add(q(1, 3), q(1, 6)), Some(q(1, 2)));
/// assert_eq!(Scalar::add(i128::MAX, 1), None);
/// assert_eq!(Scalar::mul(Q::int(i128::MAX), Q::TWO), None);
/// ```
pub trait Scalar: Copy + Ord {
    /// Zero.
    const ZERO: Self;
    /// The integer one (unscaled).
    const ONE: Self;
    /// `self + rhs`.
    fn add(self, rhs: Self) -> Option<Self>;
    /// `self − rhs`.
    fn sub(self, rhs: Self) -> Option<Self>;
    /// `self · rhs`.
    fn mul(self, rhs: Self) -> Option<Self>;
    /// `⌈self / rhs⌉` for `self ≥ 0` and `rhs > 0`.
    fn div_ceil(self, rhs: Self) -> Option<Self>;
    /// The integer `n`, unscaled.
    fn int(n: i128) -> Option<Self>;
    /// `q` at scale `scale` (for `i128`, `None` also when `scale` is not a
    /// multiple of `q`'s denominator).
    fn scaled(q: Q, scale: i128) -> Option<Self>;
    /// The rational `self / (den·scale)` for `den > 0`.
    fn ratio(self, den: Self, scale: i128) -> Option<Q>;
}

impl Scalar for i128 {
    const ZERO: i128 = 0;
    const ONE: i128 = 1;
    #[inline]
    fn add(self, rhs: i128) -> Option<i128> {
        self.checked_add(rhs)
    }
    #[inline]
    fn sub(self, rhs: i128) -> Option<i128> {
        self.checked_sub(rhs)
    }
    #[inline]
    fn mul(self, rhs: i128) -> Option<i128> {
        // Factors that fit `i64` cannot overflow their `i128` product,
        // which skips the checked multiply's slow path.
        if let (Ok(a), Ok(b)) = (i64::try_from(self), i64::try_from(rhs)) {
            return Some(i128::from(a) * i128::from(b));
        }
        self.checked_mul(rhs)
    }
    #[inline]
    fn div_ceil(self, rhs: i128) -> Option<i128> {
        Some(self / rhs + i128::from(self % rhs != 0))
    }
    #[inline]
    fn int(n: i128) -> Option<i128> {
        Some(n)
    }
    #[inline]
    fn scaled(q: Q, scale: i128) -> Option<i128> {
        match scale % q.denom() {
            0 => q.numer().checked_mul(scale / q.denom()),
            _ => None,
        }
    }
    #[inline]
    fn ratio(self, den: i128, scale: i128) -> Option<Q> {
        Some(Q::new(self, den.checked_mul(scale)?))
    }
}

impl Scalar for Q {
    const ZERO: Q = Q::ZERO;
    const ONE: Q = Q::ONE;
    #[inline]
    fn add(self, rhs: Q) -> Option<Q> {
        self.checked_add(rhs)
    }
    #[inline]
    fn sub(self, rhs: Q) -> Option<Q> {
        self.checked_sub(rhs)
    }
    #[inline]
    fn mul(self, rhs: Q) -> Option<Q> {
        self.checked_mul(rhs)
    }
    #[inline]
    fn div_ceil(self, rhs: Q) -> Option<Q> {
        Some(Q::int(self.checked_div(rhs)?.ceil()))
    }
    #[inline]
    fn int(n: i128) -> Option<Q> {
        Some(Q::int(n))
    }
    #[inline]
    fn scaled(q: Q, _scale: i128) -> Option<Q> {
        Some(q)
    }
    #[inline]
    fn ratio(self, den: Q, _scale: i128) -> Option<Q> {
        // Unscaling a weight divides by one: skip the normalising divide.
        if den == Q::ONE {
            Some(self)
        } else {
            self.checked_div(den)
        }
    }
}
