//! Rationals extended with `+∞`, used for deviations and bounds that may be
//! unbounded (e.g. the delay of an unstable system).

use crate::ratio::Q;
use std::cmp::Ordering;
use std::fmt;

/// A rational extended with positive infinity.
///
/// The ordering places [`Ext::Infinite`] above every finite value, so
/// `max`/`min` behave as expected for bounds.
///
/// # Examples
///
/// ```
/// use srtw_minplus::{Ext, Q};
///
/// let d = Ext::Finite(Q::new(3, 2));
/// assert!(d < Ext::Infinite);
/// assert_eq!(d.finite(), Some(Q::new(3, 2)));
/// assert_eq!(Ext::Infinite.finite(), None);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ext {
    /// A finite rational value.
    Finite(Q),
    /// Positive infinity.
    Infinite,
}

impl Ext {
    /// The extended zero.
    pub const ZERO: Ext = Ext::Finite(Q::ZERO);

    /// Returns the finite value, or `None` for infinity.
    #[inline]
    pub fn finite(self) -> Option<Q> {
        match self {
            Ext::Finite(v) => Some(v),
            Ext::Infinite => None,
        }
    }

    /// Returns `true` for [`Ext::Infinite`].
    #[inline]
    pub fn is_infinite(self) -> bool {
        matches!(self, Ext::Infinite)
    }

    /// Returns `true` for a finite value.
    #[inline]
    pub fn is_finite(self) -> bool {
        matches!(self, Ext::Finite(_))
    }

    /// Returns the finite value.
    ///
    /// # Panics
    ///
    /// Panics if the value is infinite.
    #[inline]
    #[track_caller]
    pub fn unwrap_finite(self) -> Q {
        match self {
            Ext::Finite(v) => v,
            Ext::Infinite => panic!("unwrap_finite on Ext::Infinite"),
        }
    }

    /// The smaller value.
    #[inline]
    pub fn min(self, rhs: Ext) -> Ext {
        if self <= rhs {
            self
        } else {
            rhs
        }
    }

    /// The larger value.
    #[inline]
    pub fn max(self, rhs: Ext) -> Ext {
        if self >= rhs {
            self
        } else {
            rhs
        }
    }

    /// Lossy conversion to `f64`; infinity maps to `f64::INFINITY`.
    pub fn to_f64(self) -> f64 {
        match self {
            Ext::Finite(v) => v.to_f64(),
            Ext::Infinite => f64::INFINITY,
        }
    }
}

impl std::ops::Add for Ext {
    type Output = Ext;

    /// Addition; infinity is absorbing.
    #[inline]
    fn add(self, rhs: Ext) -> Ext {
        match (self, rhs) {
            (Ext::Finite(a), Ext::Finite(b)) => Ext::Finite(a + b),
            _ => Ext::Infinite,
        }
    }
}

impl From<Q> for Ext {
    #[inline]
    fn from(v: Q) -> Ext {
        Ext::Finite(v)
    }
}

impl PartialOrd for Ext {
    #[inline]
    fn partial_cmp(&self, other: &Ext) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ext {
    fn cmp(&self, other: &Ext) -> Ordering {
        match (self, other) {
            (Ext::Finite(a), Ext::Finite(b)) => a.cmp(b),
            (Ext::Finite(_), Ext::Infinite) => Ordering::Less,
            (Ext::Infinite, Ext::Finite(_)) => Ordering::Greater,
            (Ext::Infinite, Ext::Infinite) => Ordering::Equal,
        }
    }
}

impl fmt::Display for Ext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ext::Finite(v) => write!(f, "{v}"),
            Ext::Infinite => write!(f, "∞"),
        }
    }
}

impl fmt::Debug for Ext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ext({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ratio::q;

    #[test]
    fn ordering_places_infinity_on_top() {
        assert!(Ext::Finite(q(1, 1)) < Ext::Infinite);
        assert!(Ext::Infinite == Ext::Infinite);
        assert!(Ext::Finite(q(1, 2)) < Ext::Finite(q(2, 3)));
        assert_eq!(Ext::Infinite.max(Ext::Finite(Q::ZERO)), Ext::Infinite);
        assert_eq!(Ext::Infinite.min(Ext::Finite(Q::ZERO)), Ext::ZERO);
    }

    #[test]
    fn addition_absorbs_infinity() {
        assert_eq!(Ext::Finite(q(1, 2)) + Ext::Finite(q(1, 2)), Ext::Finite(Q::ONE));
        assert_eq!(Ext::Infinite + Ext::Finite(Q::ONE), Ext::Infinite);
        assert_eq!(Ext::Finite(Q::ONE) + Ext::Infinite, Ext::Infinite);
    }

    #[test]
    fn accessors() {
        assert_eq!(Ext::Finite(q(1, 2)).finite(), Some(q(1, 2)));
        assert_eq!(Ext::Infinite.finite(), None);
        assert!(Ext::Infinite.is_infinite());
        assert!(Ext::Finite(Q::ZERO).is_finite());
        assert_eq!(Ext::Finite(q(1, 2)).unwrap_finite(), q(1, 2));
    }

    #[test]
    #[should_panic(expected = "unwrap_finite")]
    fn unwrap_finite_panics_on_infinity() {
        let _ = Ext::Infinite.unwrap_finite();
    }

    #[test]
    fn display() {
        assert_eq!(Ext::Finite(q(3, 4)).to_string(), "3/4");
        assert_eq!(Ext::Infinite.to_string(), "∞");
    }

    #[test]
    fn to_f64() {
        assert!(Ext::Infinite.to_f64().is_infinite());
        assert!((Ext::Finite(q(1, 2)).to_f64() - 0.5).abs() < 1e-12);
    }
}
