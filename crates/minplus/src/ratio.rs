//! Exact rational arithmetic over `i128`.
//!
//! [`Q`] is the scalar type used for every time instant, workload amount,
//! slope, and bound in this workspace. Values are kept normalized
//! (`gcd(num, den) == 1`, `den > 0`) so that equality and hashing are
//! structural.
//!
//! # Overflow
//!
//! Arithmetic reduces by greatest common divisors before multiplying, which
//! keeps intermediate products far below `i128::MAX` for every realistic
//! real-time-calculus instance (task parameters fit comfortably in 64 bits).
//! If a product nevertheless overflows, operations panic with a clear
//! message rather than returning silently wrong bounds; `checked_*`
//! variants are provided for callers that prefer a recoverable error.

use crate::error::ArithmeticError;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use std::str::FromStr;

/// An exact rational number `num / den` with `den > 0` and `gcd(num, den) == 1`.
///
/// # Examples
///
/// ```
/// use srtw_minplus::Q;
///
/// let a = Q::new(1, 3);
/// let b = Q::new(1, 6);
/// assert_eq!(a + b, Q::new(1, 2));
/// assert!(a > b);
/// assert_eq!((a * b).to_string(), "1/18");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Q {
    num: i128,
    den: i128,
}

/// Greatest common divisor (always non-negative).
///
/// Operands whose magnitudes fit `u64` — nearly all of them in practice —
/// take binary (Stein) gcd on `u64`, which needs no 128-bit division;
/// larger ones take Euclid's algorithm on `i128`.
#[inline]
pub(crate) fn gcd(mut a: i128, mut b: i128) -> i128 {
    if let (Ok(x), Ok(y)) = (
        u64::try_from(a.unsigned_abs()),
        u64::try_from(b.unsigned_abs()),
    ) {
        return i128::from(binary_gcd(x, y));
    }
    a = a.abs();
    b = b.abs();
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Stein's binary gcd: strips common factors of two, then subtracts the
/// smaller odd value from the larger until they meet.
#[inline]
fn binary_gcd(mut a: u64, mut b: u64) -> u64 {
    if a == 0 || b == 0 {
        return a | b;
    }
    let shift = (a | b).trailing_zeros();
    a >>= a.trailing_zeros();
    loop {
        b >>= b.trailing_zeros();
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= a;
        if b == 0 {
            return a << shift;
        }
    }
}

/// Least common multiple, `None` on `i128` overflow.
#[inline]
pub(crate) fn checked_lcm(a: i128, b: i128) -> Option<i128> {
    if a == 0 || b == 0 {
        return Some(0);
    }
    (a / gcd(a, b)).checked_mul(b).map(i128::abs)
}

/// Least common multiple. Thin wrapper over [`checked_lcm`] for callers
/// with statically small operands (panics on overflow).
#[inline]
#[allow(dead_code)]
pub(crate) fn lcm(a: i128, b: i128) -> i128 {
    checked_lcm(a, b).expect("lcm overflow")
}

impl Q {
    /// The rational zero.
    pub const ZERO: Q = Q { num: 0, den: 1 };
    /// The rational one.
    pub const ONE: Q = Q { num: 1, den: 1 };
    /// The rational two.
    pub const TWO: Q = Q { num: 2, den: 1 };

    /// Creates a new rational `num / den`, normalizing sign and common factors.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    ///
    /// # Examples
    ///
    /// ```
    /// use srtw_minplus::Q;
    /// assert_eq!(Q::new(2, 4), Q::new(1, 2));
    /// assert_eq!(Q::new(3, -6), Q::new(-1, 2));
    /// ```
    #[inline]
    pub fn new(num: i128, den: i128) -> Q {
        Q::checked_new(num, den).expect("Q::new: zero denominator")
    }

    /// Creates a new rational, returning `None` if `den == 0`.
    pub fn checked_new(num: i128, den: i128) -> Option<Q> {
        if den == 0 {
            return None;
        }
        // gcd(num, den) >= |den| > 0 is impossible only for num == 0, where
        // gcd(0, den) == |den| >= 1 — either way the divisor is nonzero.
        let g = gcd(num, den);
        let (mut num, mut den) = (num / g, den / g);
        if den < 0 {
            num = -num;
            den = -den;
        }
        debug_assert!(den > 0, "Q normalization: den must end positive");
        debug_assert_eq!(gcd(num, den), 1, "Q normalization: gcd must end 1");
        Some(Q { num, den })
    }

    /// Creates an integer-valued rational.
    ///
    /// # Examples
    ///
    /// ```
    /// use srtw_minplus::Q;
    /// assert_eq!(Q::int(7), Q::new(7, 1));
    /// ```
    #[inline]
    pub const fn int(n: i128) -> Q {
        Q { num: n, den: 1 }
    }

    /// The numerator of the normalized fraction.
    #[inline]
    pub const fn numer(self) -> i128 {
        self.num
    }

    /// The denominator of the normalized fraction (always positive).
    #[inline]
    pub const fn denom(self) -> i128 {
        self.den
    }

    /// Returns `true` if the value is an integer.
    #[inline]
    pub const fn is_integer(self) -> bool {
        self.den == 1
    }

    /// Returns `true` if the value is exactly zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.num == 0
    }

    /// Returns `true` if the value is strictly positive.
    #[inline]
    pub const fn is_positive(self) -> bool {
        self.num > 0
    }

    /// Returns `true` if the value is strictly negative.
    #[inline]
    pub const fn is_negative(self) -> bool {
        self.num < 0
    }

    /// The sign of the value: `-1`, `0`, or `1`.
    #[inline]
    pub const fn signum(self) -> i128 {
        self.num.signum()
    }

    /// Absolute value.
    #[inline]
    pub fn abs(self) -> Q {
        Q {
            num: self.num.abs(),
            den: self.den,
        }
    }

    /// The largest integer `n` with `n <= self`.
    ///
    /// # Examples
    ///
    /// ```
    /// use srtw_minplus::Q;
    /// assert_eq!(Q::new(7, 2).floor(), 3);
    /// assert_eq!(Q::new(-7, 2).floor(), -4);
    /// ```
    pub fn floor(self) -> i128 {
        self.num.div_euclid(self.den)
    }

    /// The smallest integer `n` with `n >= self`.
    ///
    /// # Examples
    ///
    /// ```
    /// use srtw_minplus::Q;
    /// assert_eq!(Q::new(7, 2).ceil(), 4);
    /// assert_eq!(Q::new(-7, 2).ceil(), -3);
    /// ```
    pub fn ceil(self) -> i128 {
        -(-self.num).div_euclid(self.den)
    }

    /// The fractional part `self - floor(self)`, in `[0, 1)`.
    pub fn fract(self) -> Q {
        self - Q::int(self.floor())
    }

    /// Checked addition.
    pub fn checked_add(self, rhs: Q) -> Option<Q> {
        if self.den == 1 && rhs.den == 1 {
            return Some(Q::int(self.num.checked_add(rhs.num)?));
        }
        // a/b + c/d = (a*(d/g) + c*(b/g)) / (b*(d/g)) with g = gcd(b, d).
        let g = gcd(self.den, rhs.den);
        let db = self.den / g;
        let dd = rhs.den / g;
        let num = self
            .num
            .checked_mul(dd)?
            .checked_add(rhs.num.checked_mul(db)?)?;
        let den = self.den.checked_mul(dd)?;
        Q::checked_new(num, den)
    }

    /// Checked subtraction.
    pub fn checked_sub(self, rhs: Q) -> Option<Q> {
        self.checked_add(Q {
            num: rhs.num.checked_neg()?,
            den: rhs.den,
        })
    }

    /// Checked multiplication.
    pub fn checked_mul(self, rhs: Q) -> Option<Q> {
        // Cross-reduce before multiplying to keep products small.
        let g1 = gcd(self.num, rhs.den);
        let g2 = gcd(rhs.num, self.den);
        let num = (self.num / g1).checked_mul(rhs.num / g2)?;
        let den = (self.den / g2).checked_mul(rhs.den / g1)?;
        Q::checked_new(num, den)
    }

    /// Checked division. Returns `None` on division by zero or overflow.
    pub fn checked_div(self, rhs: Q) -> Option<Q> {
        if rhs.is_zero() {
            return None;
        }
        self.checked_mul(Q {
            num: rhs.den,
            den: rhs.num,
        }
        .normalized())
    }

    #[inline]
    fn normalized(self) -> Q {
        Q::new(self.num, self.den)
    }

    /// Returns the smaller of `self` and `other`.
    #[inline]
    pub fn min(self, other: Q) -> Q {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns the larger of `self` and `other`.
    #[inline]
    pub fn max(self, other: Q) -> Q {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Clamps to be at least zero: `max(self, 0)`.
    #[inline]
    pub fn clamp_nonneg(self) -> Q {
        self.max(Q::ZERO)
    }

    /// Lossy conversion to `f64` (for display and plotting only — never used
    /// inside an analysis).
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// The reciprocal `1 / self`.
    ///
    /// # Panics
    ///
    /// Panics if `self` is zero.
    pub fn recip(self) -> Q {
        assert!(!self.is_zero(), "Q::recip of zero");
        Q::new(self.den, self.num)
    }

    /// Smallest common "grid" of two positive rationals: the least positive
    /// rational that is an integer multiple of both. Used to align periodic
    /// curve tails.
    ///
    /// # Panics
    ///
    /// Panics if either value is not strictly positive.
    ///
    /// # Examples
    ///
    /// ```
    /// use srtw_minplus::Q;
    /// assert_eq!(Q::lcm(Q::new(1, 2), Q::new(1, 3)), Q::int(1));
    /// assert_eq!(Q::lcm(Q::int(4), Q::int(6)), Q::int(12));
    /// ```
    pub fn lcm(a: Q, b: Q) -> Q {
        Q::try_lcm(a, b).expect("Q::lcm overflow")
    }

    /// Fallible [`Q::lcm`]: `Err` on `i128` overflow instead of a panic.
    ///
    /// Adversarial inputs with huge coprime periods make this the first
    /// arithmetic casualty of an analysis (the common check horizon of two
    /// periodic curve tails is an lcm); routing it through `Result` lets
    /// the budgeted analyses degrade soundly instead of aborting.
    ///
    /// # Panics
    ///
    /// Panics if either value is not strictly positive (a caller bug, not
    /// an input property).
    ///
    /// # Examples
    ///
    /// ```
    /// use srtw_minplus::{ArithmeticError, Q};
    /// assert_eq!(Q::try_lcm(Q::int(4), Q::int(6)), Ok(Q::int(12)));
    /// let huge = Q::int((1i128 << 100) + 1); // odd, coprime with the power of two
    /// let pow = Q::int(1i128 << 100);
    /// assert_eq!(Q::try_lcm(huge, pow), Err(ArithmeticError::Overflow));
    /// ```
    pub fn try_lcm(a: Q, b: Q) -> Result<Q, ArithmeticError> {
        assert!(
            a.is_positive() && b.is_positive(),
            "Q::lcm needs positive arguments"
        );
        // lcm(n1/d1, n2/d2) = lcm(n1*d2, n2*d1) / (d1*d2)
        let overflow = ArithmeticError::Overflow;
        let x = a.num.checked_mul(b.den).ok_or(overflow)?;
        let y = b.num.checked_mul(a.den).ok_or(overflow)?;
        let den = a.den.checked_mul(b.den).ok_or(overflow)?;
        Ok(Q::new(checked_lcm(x, y).ok_or(overflow)?, den))
    }
}

impl Default for Q {
    fn default() -> Self {
        Q::ZERO
    }
}

impl PartialOrd for Q {
    #[inline]
    fn partial_cmp(&self, other: &Q) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Q {
    fn cmp(&self, other: &Q) -> Ordering {
        if self.den == other.den {
            return self.num.cmp(&other.num);
        }
        // Both denominators are positive, so cross products order the
        // values; they fit `i128` for all but huge operands.
        if let (Some(lhs), Some(rhs)) = (
            self.num.checked_mul(other.den),
            other.num.checked_mul(self.den),
        ) {
            return lhs.cmp(&rhs);
        }
        // Compare a/b vs c/d by (a/g1)*(d/g2) vs (c/g1)*(b/g2),
        // reducing by cross-gcds first to avoid overflow.
        let g1 = gcd(self.num, other.num).max(1);
        let g2 = gcd(self.den, other.den).max(1);
        let lhs = (self.num / g1)
            .checked_mul(other.den / g2)
            .expect("Q::cmp overflow");
        let rhs = (other.num / g1)
            .checked_mul(self.den / g2)
            .expect("Q::cmp overflow");
        // g1 may be negative-free but sign of num/g1 preserved since g1 > 0.
        lhs.cmp(&rhs)
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $checked:ident, $msg:expr) => {
        impl $trait for Q {
            type Output = Q;
            #[inline]
            fn $method(self, rhs: Q) -> Q {
                self.$checked(rhs).expect($msg)
            }
        }
        impl $trait<&Q> for Q {
            type Output = Q;
            #[inline]
            fn $method(self, rhs: &Q) -> Q {
                self.$checked(*rhs).expect($msg)
            }
        }
        impl $trait<Q> for &Q {
            type Output = Q;
            #[inline]
            fn $method(self, rhs: Q) -> Q {
                (*self).$checked(rhs).expect($msg)
            }
        }
        impl $trait<&Q> for &Q {
            type Output = Q;
            #[inline]
            fn $method(self, rhs: &Q) -> Q {
                (*self).$checked(*rhs).expect($msg)
            }
        }
    };
}

impl_binop!(Add, add, checked_add, "Q addition overflow");
impl_binop!(Sub, sub, checked_sub, "Q subtraction overflow");
impl_binop!(Mul, mul, checked_mul, "Q multiplication overflow");
impl_binop!(Div, div, checked_div, "Q division by zero or overflow");

impl AddAssign for Q {
    #[inline]
    fn add_assign(&mut self, rhs: Q) {
        *self = *self + rhs;
    }
}
impl SubAssign for Q {
    #[inline]
    fn sub_assign(&mut self, rhs: Q) {
        *self = *self - rhs;
    }
}
impl MulAssign for Q {
    #[inline]
    fn mul_assign(&mut self, rhs: Q) {
        *self = *self * rhs;
    }
}
impl DivAssign for Q {
    #[inline]
    fn div_assign(&mut self, rhs: Q) {
        *self = *self / rhs;
    }
}

impl Neg for Q {
    type Output = Q;
    #[inline]
    fn neg(self) -> Q {
        Q {
            num: -self.num,
            den: self.den,
        }
    }
}

impl From<i128> for Q {
    #[inline]
    fn from(n: i128) -> Q {
        Q::int(n)
    }
}
impl From<i64> for Q {
    #[inline]
    fn from(n: i64) -> Q {
        Q::int(n as i128)
    }
}
impl From<i32> for Q {
    #[inline]
    fn from(n: i32) -> Q {
        Q::int(n as i128)
    }
}
impl From<u32> for Q {
    #[inline]
    fn from(n: u32) -> Q {
        Q::int(n as i128)
    }
}
impl From<u64> for Q {
    #[inline]
    fn from(n: u64) -> Q {
        Q::int(n as i128)
    }
}

impl fmt::Display for Q {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl fmt::Debug for Q {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q({self})")
    }
}

/// Error returned when parsing a [`Q`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseQError {
    input: String,
}

impl fmt::Display for ParseQError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid rational literal: {:?}", self.input)
    }
}

impl std::error::Error for ParseQError {}

impl FromStr for Q {
    type Err = ParseQError;

    /// Parses `"3"`, `"-3"`, `"3/4"`, or `"-3/4"`.
    ///
    /// # Examples
    ///
    /// ```
    /// use srtw_minplus::Q;
    /// assert_eq!("3/4".parse::<Q>().unwrap(), Q::new(3, 4));
    /// assert!("3/0".parse::<Q>().is_err());
    /// ```
    fn from_str(s: &str) -> Result<Q, ParseQError> {
        let err = || ParseQError {
            input: s.to_owned(),
        };
        match s.split_once('/') {
            None => s.trim().parse::<i128>().map(Q::int).map_err(|_| err()),
            Some((n, d)) => {
                let num = n.trim().parse::<i128>().map_err(|_| err())?;
                let den = d.trim().parse::<i128>().map_err(|_| err())?;
                Q::checked_new(num, den).ok_or_else(err)
            }
        }
    }
}

/// Exact rational arithmetic that can run out of range: the number type the
/// general (min,+) convolution and the envelope are written over.
///
/// Every operation is exact; `None` only means the result is not
/// representable in the implementing type. [`Q64`] returns `None` when a
/// value leaves `i64` (the kernel then re-runs in [`Q`]), and [`Q`] when it
/// leaves `i128` (the kernel then reports an overflow).
pub(crate) trait Rational: Copy + Ord {
    /// The zero value.
    const ZERO: Self;
    /// Converts an exact rational, `None` if it does not fit.
    fn from_q(v: Q) -> Option<Self>;
    /// Converts back to the canonical [`Q`] representation.
    fn to_q(self) -> Q;
    /// Exact addition.
    fn add(self, rhs: Self) -> Option<Self>;
    /// Exact subtraction.
    fn sub(self, rhs: Self) -> Option<Self>;
    /// Exact multiplication.
    fn mul(self, rhs: Self) -> Option<Self>;
    /// Exact division; `None` also on division by zero.
    fn div(self, rhs: Self) -> Option<Self>;
    /// Absolute value.
    fn abs(self) -> Option<Self>;
    /// `true` when the value is strictly negative.
    fn is_negative(self) -> bool;
    /// `true` when the value is exactly zero.
    fn is_zero(self) -> bool;
}

impl Rational for Q {
    const ZERO: Q = Q::ZERO;

    #[inline]
    fn from_q(v: Q) -> Option<Q> {
        Some(v)
    }

    #[inline]
    fn to_q(self) -> Q {
        self
    }

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
    fn div(self, rhs: Q) -> Option<Q> {
        self.checked_div(rhs)
    }

    #[inline]
    fn abs(self) -> Option<Q> {
        Some(Q {
            num: self.num.checked_abs()?,
            den: self.den,
        })
    }

    #[inline]
    fn is_negative(self) -> bool {
        Q::is_negative(self)
    }

    #[inline]
    fn is_zero(self) -> bool {
        Q::is_zero(self)
    }
}

/// A small rational on `i64` components, the fast instantiation of the
/// general convolution kernel.
///
/// Unlike [`Q`], a `Q64` is **not** kept reduced: `den > 0` always holds, but
/// `gcd(num, den)` may exceed 1. Reduction is lazy — [`Q64::pack`] first tries
/// to store an arithmetic result as-is and only pays a gcd when the `i128`
/// intermediates do not fit `i64`. Every operation computes through `i128`
/// intermediates (two `i64` factors can never overflow an `i128` product, and
/// one addition of two such products stays below `2^127`), so results are
/// always *exact*; `None` only means "no longer representable in `i64`", at
/// which point the caller falls back to full [`Q`] arithmetic.
///
/// Comparisons cross-multiply in `i128` and are therefore exact without any
/// normalization, which is where the fast path earns its keep: the envelope
/// walk is comparison-heavy, and `Q`'s comparisons pay one gcd each.
#[derive(Clone, Copy)]
pub(crate) struct Q64 {
    num: i64,
    /// Always strictly positive; not necessarily coprime with `num`.
    den: i64,
}

// Value equality, not structural: 2/4 and 1/2 are the same `Q64`.
impl PartialEq for Q64 {
    #[inline]
    fn eq(&self, other: &Q64) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Q64 {}

impl Q64 {
    /// Stores an exact `i128` value pair as a `Q64`, reducing by the gcd only
    /// when the raw pair does not fit. `den` must be strictly positive.
    #[inline]
    fn pack(num: i128, den: i128) -> Option<Q64> {
        debug_assert!(den > 0, "Q64::pack needs a positive denominator");
        if let (Ok(n), Ok(d)) = (i64::try_from(num), i64::try_from(den)) {
            return Some(Q64 { num: n, den: d });
        }
        Q64::pack_reduced(num, den)
    }

    /// The gcd path of [`Q64::pack`], kept out of line so the common case
    /// stays small enough to inline into the kernel's arithmetic.
    #[cold]
    fn pack_reduced(num: i128, den: i128) -> Option<Q64> {
        let g = gcd(num, den);
        let (num, den) = (num / g, den / g);
        match (i64::try_from(num), i64::try_from(den)) {
            (Ok(n), Ok(d)) => Some(Q64 { num: n, den: d }),
            _ => None,
        }
    }
}

impl Rational for Q64 {
    const ZERO: Q64 = Q64 { num: 0, den: 1 };

    #[inline]
    fn from_q(v: Q) -> Option<Q64> {
        let num = i64::try_from(v.numer()).ok()?;
        let den = i64::try_from(v.denom()).ok()?;
        Some(Q64 { num, den })
    }

    /// Exact: `Q::new` reduces the (possibly unreduced) pair to the unique
    /// normal form.
    #[inline]
    fn to_q(self) -> Q {
        Q::new(self.num as i128, self.den as i128)
    }

    #[inline]
    fn add(self, rhs: Q64) -> Option<Q64> {
        let num = self.num as i128 * rhs.den as i128 + rhs.num as i128 * self.den as i128;
        let den = self.den as i128 * rhs.den as i128;
        Q64::pack(num, den)
    }

    #[inline]
    fn sub(self, rhs: Q64) -> Option<Q64> {
        let num = self.num as i128 * rhs.den as i128 - rhs.num as i128 * self.den as i128;
        let den = self.den as i128 * rhs.den as i128;
        Q64::pack(num, den)
    }

    #[inline]
    fn mul(self, rhs: Q64) -> Option<Q64> {
        Q64::pack(
            self.num as i128 * rhs.num as i128,
            self.den as i128 * rhs.den as i128,
        )
    }

    #[inline]
    fn div(self, rhs: Q64) -> Option<Q64> {
        if rhs.num == 0 {
            return None;
        }
        let mut num = self.num as i128 * rhs.den as i128;
        let mut den = self.den as i128 * rhs.num as i128;
        if den < 0 {
            num = -num;
            den = -den;
        }
        Q64::pack(num, den)
    }

    #[inline]
    fn abs(self) -> Option<Q64> {
        Some(Q64 {
            num: self.num.checked_abs()?,
            den: self.den,
        })
    }

    /// `den` is always positive, so the sign is the numerator's.
    #[inline]
    fn is_negative(self) -> bool {
        self.num < 0
    }

    #[inline]
    fn is_zero(self) -> bool {
        self.num == 0
    }
}

impl PartialOrd for Q64 {
    #[inline]
    fn partial_cmp(&self, other: &Q64) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Q64 {
    /// Exact comparison by `i128` cross-multiplication — both denominators
    /// are positive, so the product order is the value order.
    #[inline]
    fn cmp(&self, other: &Q64) -> Ordering {
        let lhs = self.num as i128 * other.den as i128;
        let rhs = other.num as i128 * self.den as i128;
        lhs.cmp(&rhs)
    }
}

impl fmt::Debug for Q64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q64({}/{})", self.num, self.den)
    }
}

/// Convenience constructor: `q(3, 4)` is `Q::new(3, 4)`.
///
/// # Examples
///
/// ```
/// use srtw_minplus::{q, Q};
/// assert_eq!(q(6, 8), Q::new(3, 4));
/// ```
#[inline]
pub fn q(num: i128, den: i128) -> Q {
    Q::new(num, den)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization() {
        assert_eq!(Q::new(2, 4), Q::new(1, 2));
        assert_eq!(Q::new(-2, -4), Q::new(1, 2));
        assert_eq!(Q::new(2, -4), Q::new(-1, 2));
        assert_eq!(Q::new(0, -7), Q::ZERO);
        assert_eq!(Q::new(0, 7).denom(), 1);
    }

    #[test]
    fn zero_denominator_rejected() {
        assert!(Q::checked_new(1, 0).is_none());
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn new_panics_on_zero_denominator() {
        let _ = Q::new(1, 0);
    }

    #[test]
    fn arithmetic_basics() {
        assert_eq!(q(1, 2) + q(1, 3), q(5, 6));
        assert_eq!(q(1, 2) - q(1, 3), q(1, 6));
        assert_eq!(q(2, 3) * q(3, 4), q(1, 2));
        assert_eq!(q(1, 2) / q(1, 4), Q::TWO);
        assert_eq!(-q(1, 2), q(-1, 2));
    }

    #[test]
    fn assign_ops() {
        let mut x = q(1, 2);
        x += q(1, 2);
        assert_eq!(x, Q::ONE);
        x -= q(1, 4);
        assert_eq!(x, q(3, 4));
        x *= Q::TWO;
        assert_eq!(x, q(3, 2));
        x /= Q::int(3);
        assert_eq!(x, q(1, 2));
    }

    #[test]
    fn ordering() {
        assert!(q(1, 3) < q(1, 2));
        assert!(q(-1, 2) < q(-1, 3));
        assert!(q(7, 7) == Q::ONE);
        assert!(q(10, 3) > Q::int(3));
        let mut v = vec![q(3, 2), Q::ZERO, q(-5, 4), Q::ONE];
        v.sort();
        assert_eq!(v, vec![q(-5, 4), Q::ZERO, Q::ONE, q(3, 2)]);
    }

    #[test]
    fn ordering_past_the_cross_product_range() {
        // Cross products of these leave `i128`; the comparison reduces by
        // the cross gcds instead and stays exact.
        let n = i128::MAX / 3;
        let (a, b) = (q(n, 1_000_003), q(n, 1_000_033));
        assert!(a.numer().checked_mul(b.denom()).is_none());
        assert_eq!((a.cmp(&b), b.cmp(&a)), (Ordering::Greater, Ordering::Less));
        assert!(-a < -b);
        assert!(q(n - 1, 1_000_003) < a);
        assert_eq!(a.cmp(&q(n, 1_000_003)), Ordering::Equal);
    }

    #[test]
    fn floor_ceil_fract() {
        assert_eq!(q(7, 2).floor(), 3);
        assert_eq!(q(7, 2).ceil(), 4);
        assert_eq!(q(-7, 2).floor(), -4);
        assert_eq!(q(-7, 2).ceil(), -3);
        assert_eq!(Q::int(5).floor(), 5);
        assert_eq!(Q::int(5).ceil(), 5);
        assert_eq!(q(7, 2).fract(), q(1, 2));
        assert_eq!(q(-7, 2).fract(), q(1, 2));
    }

    #[test]
    fn min_max_clamp() {
        assert_eq!(q(1, 2).min(q(1, 3)), q(1, 3));
        assert_eq!(q(1, 2).max(q(1, 3)), q(1, 2));
        assert_eq!(q(-1, 2).clamp_nonneg(), Q::ZERO);
        assert_eq!(q(1, 2).clamp_nonneg(), q(1, 2));
    }

    #[test]
    fn division_by_zero_checked() {
        assert!(q(1, 2).checked_div(Q::ZERO).is_none());
    }

    #[test]
    fn display_and_parse_roundtrip() {
        for s in ["0", "5", "-5", "3/4", "-3/4", "7/3"] {
            let v: Q = s.parse().unwrap();
            assert_eq!(v.to_string(), s);
        }
        assert!("1/0".parse::<Q>().is_err());
        assert!("abc".parse::<Q>().is_err());
        assert_eq!(" 3 / 4 ".parse::<Q>().unwrap(), q(3, 4));
    }

    #[test]
    fn lcm_of_rationals() {
        assert_eq!(Q::lcm(q(1, 2), q(1, 3)), Q::ONE);
        assert_eq!(Q::lcm(Q::int(4), Q::int(6)), Q::int(12));
        assert_eq!(Q::lcm(q(3, 2), q(1, 2)), q(3, 2));
        assert_eq!(Q::lcm(q(2, 3), q(1, 2)), Q::int(2));
    }

    #[test]
    fn try_lcm_surfaces_overflow() {
        // Two huge coprime integers: their lcm is their product, which
        // exceeds i128. This used to abort deep inside the curve algebra.
        let a = Q::int((1i128 << 88) - 1);
        let b = Q::int(1i128 << 88);
        assert_eq!(Q::try_lcm(a, b), Err(ArithmeticError::Overflow));
        // Non-overflowing inputs agree with the panicking wrapper.
        assert_eq!(Q::try_lcm(q(3, 2), q(1, 2)), Ok(Q::lcm(q(3, 2), q(1, 2))));
        assert_eq!(checked_lcm(i128::MAX, i128::MAX - 1), None);
        assert_eq!(checked_lcm(0, 7), Some(0));
    }

    /// The Euclid gcd every operand went through before the `u64` fast
    /// path: the oracle for [`gcd`].
    fn euclid_gcd(mut a: i128, mut b: i128) -> i128 {
        a = a.abs();
        b = b.abs();
        while b != 0 {
            let t = a % b;
            a = b;
            b = t;
        }
        a
    }

    /// An `i128` drawn to hit both sides of the `u64` boundary, the edge
    /// values, and operands sharing large powers of two.
    fn operand(rng: &mut srtw_detrand::Rng) -> i128 {
        const EDGES: [i128; 7] = [
            0,
            1,
            -1,
            u64::MAX as i128,
            u64::MAX as i128 + 1,
            -(u64::MAX as i128),
            i128::MAX,
        ];
        let v = match rng.random_range(0..5u32) {
            0 => EDGES[rng.random_range(0..EDGES.len())],
            1 => rng.random_range(-1000..=1000i128),
            2 => rng.random_range(-(1i128 << 64)..=(1i128 << 64)),
            3 => rng.random_range(1..=1i128 << 40) << rng.random_range(0..60u32),
            _ => rng.random_range(-(1i128 << 100)..=(1i128 << 100)),
        };
        if v != i128::MAX && rng.random_ratio(1, 2) {
            -v
        } else {
            v
        }
    }

    #[test]
    fn gcd_agrees_with_euclid() {
        srtw_detrand::prop::forall(
            "gcd_u64_fast_path",
            |rng, _| (operand(rng), operand(rng)),
            |&(a, b)| {
                let g = gcd(a, b);
                assert_eq!(g, euclid_gcd(a, b), "gcd({a}, {b})");
                assert_eq!(g, gcd(b, a));
            },
        );
        let edges = [
            0,
            1,
            -1,
            u64::MAX as i128,
            u64::MAX as i128 + 1,
            -(u64::MAX as i128),
        ];
        for a in edges {
            for b in edges {
                assert_eq!(gcd(a, b), euclid_gcd(a, b), "gcd({a}, {b})");
            }
        }
    }

    /// A rational normalised by the oracle gcd: `(num, den)` in lowest
    /// terms with a positive denominator.
    fn reference(num: i128, den: i128) -> (i128, i128) {
        let g = euclid_gcd(num, den);
        let (n, d) = (num / g, den / g);
        if d < 0 {
            (-n, -d)
        } else {
            (n, d)
        }
    }

    /// A seeded rational small enough that the reference arithmetic below
    /// cannot overflow; a third of them have denominator 1.
    fn rational(rng: &mut srtw_detrand::Rng) -> (i128, i128) {
        let num = rng.random_range(-(1i128 << 40)..=(1i128 << 40));
        let den = match rng.random_range(0..3u32) {
            0 => 1,
            1 => rng.random_range(1..=1000i128),
            _ => rng.random_range(1..=1i128 << 40),
        };
        (num, den)
    }

    #[test]
    fn arithmetic_agrees_with_reference_normalisation() {
        srtw_detrand::prop::forall(
            "q_kernel_vs_reference",
            |rng, _| (rational(rng), rational(rng)),
            |&((a, b), (c, d))| {
                let (x, y) = (Q::new(a, b), Q::new(c, d));
                assert_eq!((x.numer(), x.denom()), reference(a, b));
                assert_eq!((y.numer(), y.denom()), reference(c, d));
                let sum = x + y;
                assert_eq!((sum.numer(), sum.denom()), reference(a * d + c * b, b * d));
                let diff = x - y;
                assert_eq!(
                    (diff.numer(), diff.denom()),
                    reference(a * d - c * b, b * d)
                );
                let prod = x * y;
                assert_eq!((prod.numer(), prod.denom()), reference(a * c, b * d));
                assert_eq!(x.cmp(&y), (a * d).cmp(&(c * b)), "{x} vs {y}");
                // Negative denominators normalise like positive ones.
                assert_eq!(Q::new(-a, -b), x);
            },
        );
    }

    #[test]
    fn gcd_lcm_integers() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(-12, 18), 6);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(lcm(4, 6), 12);
        assert_eq!(lcm(0, 6), 0);
    }

    #[test]
    fn recip() {
        assert_eq!(q(3, 4).recip(), q(4, 3));
        assert_eq!(q(-3, 4).recip(), q(-4, 3));
    }

    #[test]
    fn to_f64_close() {
        assert!((q(1, 3).to_f64() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn conversions() {
        assert_eq!(Q::from(3i32), Q::int(3));
        assert_eq!(Q::from(3u64), Q::int(3));
        assert_eq!(Q::from(-3i64), Q::int(-3));
    }

    #[test]
    fn checked_ops_catch_overflow() {
        let huge = Q::int(i128::MAX / 2);
        assert!(huge.checked_mul(Q::int(4)).is_none());
        assert!(huge.checked_add(huge).is_some()); // exactly representable
        assert!(Q::int(i128::MAX).checked_add(Q::ONE).is_none());
        assert!(Q::int(i128::MIN + 1).checked_sub(Q::int(2)).is_none());
        // Cross-reduction keeps realistic products in range.
        let a = Q::new(1, i128::MAX / 4);
        let b = Q::new(i128::MAX / 4, 1);
        assert_eq!(a.checked_mul(b), Some(Q::ONE));
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn unchecked_mul_panics_on_overflow() {
        let huge = Q::int(i128::MAX / 2);
        let _ = huge * Q::int(4);
    }

    #[test]
    fn q64_roundtrips_and_matches_q() {
        let cases = [
            (q(3, 4), q(5, 6)),
            (q(-7, 2), q(7, 3)),
            (Q::ZERO, q(1, 1_000_000)),
            (Q::int(1 << 40), q(-3, 1 << 20)),
        ];
        for (a, b) in cases {
            let (sa, sb) = (Q64::from_q(a).unwrap(), Q64::from_q(b).unwrap());
            assert_eq!(sa.to_q(), a);
            assert_eq!(sa.add(sb).unwrap().to_q(), a + b);
            assert_eq!(sa.sub(sb).unwrap().to_q(), a - b);
            assert_eq!(sa.mul(sb).unwrap().to_q(), a * b);
            assert_eq!(sa.div(sb).unwrap().to_q(), a / b);
            assert_eq!(sa.cmp(&sb), a.cmp(&b));
            assert_eq!(sa == sb, a == b);
        }
    }

    #[test]
    fn q64_equality_is_by_value() {
        // Unreduced pairs produced by lazy packing compare by value.
        let a = Q64::from_q(q(1, 2)).unwrap();
        let b = Q64::from_q(q(2, 4000000)).unwrap().mul(
            Q64::from_q(Q::int(1_000_000)).unwrap(),
        ).unwrap();
        assert_eq!(a, b);
        assert!(Q64::ZERO.is_zero());
        assert_eq!(Q64::from_q(q(-3, 4)).unwrap().abs().unwrap().to_q(), q(3, 4));
    }

    #[test]
    fn q64_falls_out_of_range_gracefully() {
        // Components beyond i64 are rejected at conversion …
        assert!(Q64::from_q(Q::int(i128::from(i64::MAX) + 1)).is_none());
        assert!(Q64::from_q(Q::new(1, i128::from(i64::MAX) + 2)).is_none());
        // … and arithmetic that cannot reduce back into i64 returns None
        // instead of wrapping: (2^62/1) * (2^62/1) has no i64 form.
        let big = Q64::from_q(Q::int(1 << 62)).unwrap();
        assert!(big.mul(big).is_none());
        // While a product that *can* reduce survives: (2^62/3) * (3/2^62) = 1.
        let a = Q64::from_q(q(1 << 62, 3)).unwrap();
        let b = Q64::from_q(q(3, 1 << 62)).unwrap();
        assert_eq!(a.mul(b).unwrap().to_q(), Q::ONE);
        assert!(big.div(Q64::ZERO).is_none());
    }

    #[test]
    fn signum_and_predicates() {
        assert_eq!(q(-3, 4).signum(), -1);
        assert_eq!(Q::ZERO.signum(), 0);
        assert_eq!(q(3, 4).signum(), 1);
        assert!(q(-1, 9).is_negative());
        assert!(!Q::ZERO.is_negative() && !Q::ZERO.is_positive());
        assert!(q(7, 7).is_integer());
        assert!(!q(7, 2).is_integer());
        assert_eq!(q(-7, 2).abs(), q(7, 2));
        assert_eq!(Q::default(), Q::ZERO);
    }
}
