//! Monotone piecewise-affine curves with ultimately-affine or
//! ultimately-periodic tails.
//!
//! A [`Curve`] represents a non-decreasing function `f : Q≥0 → Q`,
//! right-continuous, given by a finite list of affine [`Piece`]s plus a
//! [`Tail`] describing its behaviour beyond the explicit pieces. This is the
//! standard representation of arrival and service curves in Real-Time
//! Calculus: token buckets and rate-latency curves have affine tails, while
//! staircase curves (periodic job releases, TDMA service) have periodic
//! tails.

use crate::error::{ArithmeticError, CurveError};
use crate::meter::BudgetMeter;
use crate::ratio::Q;
use crate::stream::{PieceBuf, Unroll};
use std::sync::OnceLock;

/// The overflow error value for `ok_or_else` sites in this module.
fn ovf() -> CurveError {
    CurveError::Arithmetic(ArithmeticError::Overflow)
}

/// One affine piece of a curve.
///
/// On its half-open extent `[start, next_start)` the curve takes the value
/// `value + slope * (t - start)`. The extent's right end is defined by the
/// following piece (or the tail).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Piece {
    /// Start time of the piece.
    pub start: Q,
    /// Curve value at `start` (right-continuous).
    pub value: Q,
    /// Slope of the piece (non-negative for valid curves).
    pub slope: Q,
}

impl Piece {
    /// Creates a piece.
    #[inline]
    pub fn new(start: Q, value: Q, slope: Q) -> Piece {
        Piece { start, value, slope }
    }

    /// Evaluates the affine extension of this piece at `t` (no domain check).
    #[inline]
    pub fn eval(&self, t: Q) -> Q {
        self.value + self.slope * (t - self.start)
    }
}

/// Tail behaviour of a [`Curve`] beyond its explicit pieces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tail {
    /// The last piece extends to `+∞` with its own slope.
    Affine,
    /// The pieces from index `pattern_start` onward form one period of
    /// length `period`; for later times the pattern repeats, shifted up by
    /// `increment` per period:
    /// `f(t) = f(t - k·period) + k·increment` for suitable `k ≥ 1`.
    Periodic {
        /// Index of the first piece of the repeated pattern.
        pattern_start: usize,
        /// Length of one period (strictly positive).
        period: Q,
        /// Vertical growth per period (non-negative).
        increment: Q,
    },
}

/// A non-decreasing, right-continuous, piecewise-affine curve on `[0, ∞)`.
///
/// # Examples
///
/// ```
/// use srtw_minplus::{Curve, Q, q};
///
/// // Rate-latency service curve β(t) = max(0, (t - 2) * 3/4)
/// let beta = Curve::rate_latency(q(3, 4), Q::int(2));
/// assert_eq!(beta.eval(Q::int(2)), Q::ZERO);
/// assert_eq!(beta.eval(Q::int(6)), Q::int(3));
///
/// // Periodic staircase: one unit of work every 5 time units.
/// let alpha = Curve::staircase(Q::int(5), Q::ONE);
/// assert_eq!(alpha.eval(Q::ZERO), Q::ONE);
/// assert_eq!(alpha.eval(Q::int(4)), Q::ONE);
/// assert_eq!(alpha.eval(Q::int(5)), Q::int(2));
/// assert_eq!(alpha.eval(Q::int(100)), Q::int(21));
/// ```
#[derive(Clone)]
pub struct Curve {
    pieces: PieceBuf,
    tail: Tail,
    /// Lazily computed shape class, shared by clones at clone time. The
    /// cache is *not* part of the curve's identity: equality and hashing
    /// look at `pieces` and `tail` only, so two equal curves compare equal
    /// whether or not their shapes have been classified yet.
    shape: OnceLock<Shape>,
    /// Lazily computed reach table behind [`Curve::pseudo_inverse`]: each
    /// explicit piece's left limit at its end. Like `shape`, a derived
    /// cache outside the curve's identity.
    reach: OnceLock<Box<[Q]>>,
}

/// Shape class of a curve, computed once and cached on the [`Curve`].
///
/// Drives the O(n+m) convolution fast paths: concave ⊗ concave and
/// convex ⊗ convex both avoid the quadratic candidate-envelope
/// construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Shape {
    /// Neither convex nor concave.
    General,
    /// Convex (slopes non-decreasing, no upward jumps), not concave.
    Convex,
    /// Concave on `t > 0` (slopes non-increasing, continuous after 0),
    /// not convex.
    Concave,
    /// Both convex and concave: a single affine piece.
    Both,
}

// `shape` and `reach` are derived caches, not state: identity is
// (pieces, tail).
impl PartialEq for Curve {
    fn eq(&self, other: &Curve) -> bool {
        self.pieces == other.pieces && self.tail == other.tail
    }
}

impl Eq for Curve {}

impl std::hash::Hash for Curve {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.pieces.hash(state);
        self.tail.hash(state);
    }
}

impl std::fmt::Debug for Curve {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Curve")
            .field("pieces", &self.pieces)
            .field("tail", &self.tail)
            .finish()
    }
}

impl Curve {
    /// Internal constructor for pieces/tails whose invariants the caller
    /// guarantees (every call site below builds from an already-valid
    /// curve). Starts with empty shape and reach caches.
    #[inline]
    pub(crate) fn raw(pieces: Vec<Piece>, tail: Tail) -> Curve {
        Curve {
            pieces: pieces.into(),
            tail,
            shape: OnceLock::new(),
            reach: OnceLock::new(),
        }
    }

    /// Creates a curve from pieces and a tail descriptor, validating all
    /// representation invariants (non-empty, starts at 0, strictly
    /// increasing starts, non-decreasing values, consistent tail).
    pub fn new(pieces: Vec<Piece>, tail: Tail) -> Result<Curve, CurveError> {
        if pieces.is_empty() {
            return Err(CurveError::Empty);
        }
        if !pieces[0].start.is_zero() {
            return Err(CurveError::FirstPieceNotAtZero {
                start: pieces[0].start,
            });
        }
        for i in 0..pieces.len() {
            if pieces[i].slope.is_negative() {
                return Err(CurveError::NegativeSlope {
                    index: i,
                    slope: pieces[i].slope,
                });
            }
            if i + 1 < pieces.len() {
                if pieces[i + 1].start <= pieces[i].start {
                    return Err(CurveError::NonIncreasingStarts { index: i + 1 });
                }
                let left_limit = pieces[i].eval(pieces[i + 1].start);
                if pieces[i + 1].value < left_limit {
                    return Err(CurveError::DecreasingJump { index: i + 1 });
                }
            }
        }
        if let Tail::Periodic {
            pattern_start,
            period,
            increment,
        } = tail
        {
            if pattern_start >= pieces.len() {
                return Err(CurveError::InvalidPeriodicTail {
                    reason: "pattern_start out of range",
                });
            }
            if !period.is_positive() {
                return Err(CurveError::InvalidPeriodicTail {
                    reason: "period must be positive",
                });
            }
            if increment.is_negative() {
                return Err(CurveError::InvalidPeriodicTail {
                    reason: "increment must be non-negative",
                });
            }
            let s = pieces[pattern_start].start;
            let last = *pieces.last().expect("non-empty");
            if last.start >= s + period {
                return Err(CurveError::InvalidPeriodicTail {
                    reason: "pattern pieces exceed one period",
                });
            }
            // Wrap-around monotonicity: the value at the start of the next
            // period must not be below the left limit at the period's end.
            let end_limit = last.eval(s + period);
            if pieces[pattern_start].value + increment < end_limit {
                return Err(CurveError::InvalidPeriodicTail {
                    reason: "periodic extension would decrease at the wrap point",
                });
            }
        }
        let mut c = Curve::raw(pieces, tail);
        c.normalize();
        Ok(c)
    }

    /// Merges adjacent pieces that are continuous and colinear. Pieces inside
    /// the periodic pattern (and the piece right before it) are left alone to
    /// keep `pattern_start` stable.
    fn normalize(&mut self) {
        let limit = match self.tail {
            Tail::Affine => self.pieces.len(),
            Tail::Periodic { pattern_start, .. } => pattern_start,
        };
        if limit < 2 {
            return;
        }
        let mut merged: Vec<Piece> = Vec::with_capacity(self.pieces.len());
        for (i, p) in self.pieces.iter().enumerate() {
            if i < limit {
                if let Some(prev) = merged.last() {
                    if prev.slope == p.slope && prev.eval(p.start) == p.value {
                        continue; // colinear continuation: drop this breakpoint
                    }
                }
            }
            merged.push(*p);
        }
        let removed = self.pieces.len() - merged.len();
        if removed > 0 {
            if let Tail::Periodic {
                ref mut pattern_start,
                ..
            } = self.tail
            {
                *pattern_start -= removed;
            }
            self.pieces = merged.into();
        }
    }

    /// The explicit pieces of the curve.
    #[inline]
    pub fn pieces(&self) -> &[Piece] {
        &self.pieces
    }

    /// The tail descriptor.
    #[inline]
    pub fn tail(&self) -> Tail {
        self.tail
    }

    /// The time from which the tail alone determines the curve: the start of
    /// the last piece (affine tail) or of the periodic pattern.
    pub fn tail_start(&self) -> Q {
        match self.tail {
            Tail::Affine => self.pieces.last().expect("non-empty").start,
            Tail::Periodic { pattern_start, .. } => self.pieces[pattern_start].start,
        }
    }

    /// The long-run growth rate `lim f(t)/t`.
    pub fn rate(&self) -> Q {
        match self.tail {
            Tail::Affine => self.pieces.last().expect("non-empty").slope,
            Tail::Periodic {
                period, increment, ..
            } => increment / period,
        }
    }

    /// Evaluates the curve at `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t < 0`; curves are defined on `[0, ∞)`.
    pub fn eval(&self, t: Q) -> Q {
        assert!(!t.is_negative(), "Curve::eval at negative time {t}");
        match self.tail {
            Tail::Affine => self.eval_explicit(t),
            Tail::Periodic {
                pattern_start,
                period,
                increment,
            } => {
                let s = self.pieces[pattern_start].start;
                if t < s + period {
                    self.eval_explicit(t)
                } else {
                    let k = ((t - s) / period).floor();
                    let tt = t - period * Q::int(k);
                    self.eval_explicit(tt) + increment * Q::int(k)
                }
            }
        }
    }

    /// Left limit `f(t⁻)`; for `t == 0` this is defined as `f(0)`.
    pub fn eval_left(&self, t: Q) -> Q {
        assert!(!t.is_negative(), "Curve::eval_left at negative time {t}");
        if t.is_zero() {
            return self.eval(Q::ZERO);
        }
        match self.tail {
            Tail::Affine => self.eval_explicit_left(t),
            Tail::Periodic {
                pattern_start,
                period,
                increment,
            } => {
                let s = self.pieces[pattern_start].start;
                if t <= s + period {
                    // `t` within explicit range (the wrap point `s+period`
                    // has its left limit inside the explicit pattern).
                    self.eval_explicit_left(t)
                } else {
                    let mut k = ((t - s) / period).floor();
                    let mut tt = t - period * Q::int(k);
                    if tt == s {
                        // Left limit at an exact period boundary lives in
                        // the previous period.
                        k -= 1;
                        tt += period;
                    }
                    self.eval_explicit_left(tt) + increment * Q::int(k)
                }
            }
        }
    }

    /// Evaluates using only the explicit pieces (last piece extended).
    fn eval_explicit(&self, t: Q) -> Q {
        let idx = self.piece_index(t);
        self.pieces[idx].eval(t)
    }

    /// Left limit using only the explicit pieces.
    fn eval_explicit_left(&self, t: Q) -> Q {
        // Find the piece governing times just below `t`.
        let idx = match self
            .pieces
            .binary_search_by(|p| p.start.cmp(&t))
        {
            Ok(i) => {
                if i == 0 {
                    return self.pieces[0].value;
                }
                i - 1
            }
            Err(0) => 0,
            Err(i) => i - 1,
        };
        self.pieces[idx].eval(t)
    }

    /// Index of the piece whose half-open extent contains `t` (the last
    /// piece for `t` beyond all starts).
    fn piece_index(&self, t: Q) -> usize {
        match self.pieces.binary_search_by(|p| p.start.cmp(&t)) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        }
    }

    /// Unrolls the curve so that explicit pieces cover at least `[0, h]`,
    /// returning the piece list. The affine extension of the returned last
    /// piece is **not** generally valid beyond `h` for periodic curves.
    /// Thin panicking wrapper over [`Curve::try_pieces_upto`].
    pub fn pieces_upto(&self, h: Q) -> Vec<Piece> {
        self.try_pieces_upto(h, &BudgetMeter::unlimited())
            .expect("unmetered pieces_upto cannot trip")
    }

    /// Metered [`Curve::pieces_upto`]: ticks the segment budget once per
    /// emitted piece and returns `Err(CurveError::Budget)` when it trips,
    /// or `Err(CurveError::Arithmetic)` on `i128` overflow while lifting
    /// the periodic pattern. A huge horizon over a tiny period is the
    /// classic blow-up this guards (the unrolled list would be enormous).
    pub fn try_pieces_upto(&self, h: Q, meter: &BudgetMeter) -> Result<Vec<Piece>, CurveError> {
        Unroll::new(self, h, meter).collect()
    }

    /// A line `b + r·t` with `f(t) ≥ b + r·t` for **all** `t ≥ 0`, where
    /// `r` is the curve's long-run [`Curve::rate`].
    ///
    /// Used as the sound service under-approximation of the degraded
    /// analyses: for a lower service curve `β ≥ line`, the pseudo-inverse
    /// satisfies `β⁻¹(w) ≤ (w − b)/r`, which bounds delays without
    /// materializing `β`'s (possibly huge) breakpoint list. For
    /// rate-latency curves the line is exact.
    ///
    /// # Examples
    ///
    /// ```
    /// use srtw_minplus::{Curve, Q};
    /// let beta = Curve::rate_latency(Q::int(2), Q::int(3));
    /// let (b, r) = beta.lower_line();
    /// assert_eq!(r, Q::int(2));
    /// assert_eq!(b, Q::int(-6)); // 2·(t − 3) = −6 + 2t
    /// ```
    pub fn lower_line(&self) -> (Q, Q) {
        let r = self.rate();
        // Tail guarantee: beyond tail_start the curve stays above its
        // linear reference minus the maximal downward deviation; scanning
        // one period (or the last piece) of explicit pieces below covers
        // the transient. f(t) − r·t is affine per piece, so its minimum
        // over the piece sits at an endpoint.
        let mut b = self.pieces[0].value - r * self.pieces[0].start;
        let horizon = match self.tail {
            Tail::Affine => self.tail_start(),
            Tail::Periodic {
                pattern_start,
                period,
                ..
            } => self.pieces[pattern_start].start + period,
        };
        for (i, p) in self.pieces.iter().enumerate() {
            let end = self
                .pieces
                .get(i + 1)
                .map(|n| n.start)
                .unwrap_or(horizon)
                .max(p.start);
            b = b.min(p.value - r * p.start);
            b = b.min(p.eval(end) - r * end);
        }
        (b, r)
    }

    // ----- constructors ---------------------------------------------------

    /// The zero curve `f(t) = 0`.
    pub fn zero() -> Curve {
        Curve::constant(Q::ZERO)
    }

    /// The constant curve `f(t) = c`.
    pub fn constant(c: Q) -> Curve {
        Curve::raw(vec![Piece::new(Q::ZERO, c, Q::ZERO)], Tail::Affine)
    }

    /// The affine curve `f(t) = b + r·t` (a token bucket `γ_{r,b}` under the
    /// right-continuous convention `f(0) = b`).
    ///
    /// # Panics
    ///
    /// Panics if `r < 0`.
    pub fn affine(b: Q, r: Q) -> Curve {
        assert!(!r.is_negative(), "affine curve needs slope >= 0");
        Curve::raw(vec![Piece::new(Q::ZERO, b, r)], Tail::Affine)
    }

    /// The rate-latency service curve `β_{R,T}(t) = R · max(0, t − T)`.
    ///
    /// # Panics
    ///
    /// Panics if `rate < 0` or `latency < 0`.
    pub fn rate_latency(rate: Q, latency: Q) -> Curve {
        assert!(!rate.is_negative(), "rate_latency needs rate >= 0");
        assert!(!latency.is_negative(), "rate_latency needs latency >= 0");
        if latency.is_zero() || rate.is_zero() {
            return Curve::affine(Q::ZERO, rate);
        }
        Curve::raw(
            vec![
                Piece::new(Q::ZERO, Q::ZERO, Q::ZERO),
                Piece::new(latency, Q::ZERO, rate),
            ],
            Tail::Affine,
        )
    }

    /// An upper staircase: `f(t) = height · (1 + floor(t / period))`.
    ///
    /// This is the exact upper arrival curve of a strictly periodic stream
    /// releasing `height` units of work every `period` time units (a release
    /// may land at both ends of a closed window).
    ///
    /// # Panics
    ///
    /// Panics if `period <= 0` or `height < 0`.
    pub fn staircase(period: Q, height: Q) -> Curve {
        assert!(period.is_positive(), "staircase needs period > 0");
        assert!(!height.is_negative(), "staircase needs height >= 0");
        Curve::raw(
            vec![Piece::new(Q::ZERO, height, Q::ZERO)],
            Tail::Periodic {
                pattern_start: 0,
                period,
                increment: height,
            },
        )
    }

    /// A lower staircase: `f(t) = height · floor(t / period)` — the exact
    /// lower arrival curve of a strictly periodic stream.
    ///
    /// # Panics
    ///
    /// Panics if `period <= 0` or `height < 0`.
    pub fn staircase_lower(period: Q, height: Q) -> Curve {
        assert!(period.is_positive(), "staircase_lower needs period > 0");
        assert!(!height.is_negative(), "staircase_lower needs height >= 0");
        Curve::raw(
            vec![Piece::new(Q::ZERO, Q::ZERO, Q::ZERO)],
            Tail::Periodic {
                pattern_start: 0,
                period,
                increment: height,
            },
        )
    }

    /// A burst-delay curve `δ_T`: `0` for `t < T`, then jumps to `cap`
    /// (finite stand-in for the classical `+∞` burst-delay; pick `cap`
    /// larger than any workload of interest).
    ///
    /// # Panics
    ///
    /// Panics if `latency < 0` or `cap < 0`.
    pub fn burst_delay(latency: Q, cap: Q) -> Curve {
        assert!(!latency.is_negative() && !cap.is_negative());
        if latency.is_zero() {
            return Curve::constant(cap);
        }
        Curve::raw(
            vec![
                Piece::new(Q::ZERO, Q::ZERO, Q::ZERO),
                Piece::new(latency, cap, Q::ZERO),
            ],
            Tail::Affine,
        )
    }

    /// Builds a right-continuous staircase through the given `(time, value)`
    /// breakpoints with an affine tail of slope 0 after the last one.
    /// `points` must be strictly increasing in time and non-decreasing in
    /// value; a point at time 0 is required (use value 0 if the curve starts
    /// flat at zero).
    pub fn staircase_from_points(points: &[(Q, Q)]) -> Result<Curve, CurveError> {
        let pieces: Vec<Piece> = points
            .iter()
            .map(|&(t, v)| Piece::new(t, v, Q::ZERO))
            .collect();
        Curve::new(pieces, Tail::Affine)
    }

    /// The curve's [`Shape`] class, computed on first use and cached.
    /// One O(pieces) scan classifies both convexity and concavity; the
    /// convolution fast paths then dispatch on the cached flag for free.
    pub(crate) fn shape(&self) -> Shape {
        *self.shape.get_or_init(|| {
            match (self.scan_convex(), self.scan_concave()) {
                (true, true) => Shape::Both,
                (true, false) => Shape::Convex,
                (false, true) => Shape::Concave,
                (false, false) => Shape::General,
            }
        })
    }

    /// Each explicit piece's reach, its left limit at the end of its
    /// extent, computed on first use and cached. A piece with no end (the
    /// last piece under an affine tail) has no entry; under a periodic
    /// tail the last entry is the maximum of the pattern's first
    /// instance. Reaches are non-decreasing (the curve is), so
    /// [`Curve::pseudo_inverse`] binary-searches them.
    pub fn reach(&self) -> &[Q] {
        self.reach.get_or_init(|| {
            let pieces = &self.pieces;
            let pattern_end = match self.tail {
                Tail::Affine => None,
                Tail::Periodic {
                    pattern_start,
                    period,
                    ..
                } => Some(pieces[pattern_start].start + period),
            };
            (0..pieces.len())
                .map_while(|i| {
                    let end = pieces.get(i + 1).map(|n| n.start).or(pattern_end)?;
                    Some(pieces[i].eval(end))
                })
                .collect()
        })
    }

    /// Is the curve convex? (Slopes non-decreasing and no upward jumps.)
    /// Cached on the curve after the first call.
    pub fn is_convex(&self) -> bool {
        matches!(self.shape(), Shape::Convex | Shape::Both)
    }

    /// Is the curve concave (on `t > 0`)? Slopes non-increasing, jumps allowed
    /// only at 0. Cached on the curve after the first call.
    pub fn is_concave(&self) -> bool {
        matches!(self.shape(), Shape::Concave | Shape::Both)
    }

    fn scan_convex(&self) -> bool {
        if matches!(self.tail, Tail::Periodic { increment, .. } if increment.is_positive()) {
            return false;
        }
        for w in self.pieces.windows(2) {
            if w[1].slope < w[0].slope {
                return false;
            }
            if w[1].value > w[0].eval(w[1].start) {
                return false; // upward jump breaks convexity
            }
        }
        true
    }

    fn scan_concave(&self) -> bool {
        if matches!(self.tail, Tail::Periodic { .. }) {
            return false;
        }
        for w in self.pieces.windows(2) {
            if w[1].slope > w[0].slope {
                return false;
            }
            if w[1].value != w[0].eval(w[1].start) {
                return false;
            }
        }
        true
    }

    /// Shifts the curve up by `dv ≥ 0`: `t ↦ f(t) + dv`.
    ///
    /// # Panics
    ///
    /// Panics if `dv < 0` (would break non-negativity conventions; use
    /// dedicated ops for clamped subtraction).
    pub fn shift_up(&self, dv: Q) -> Curve {
        assert!(!dv.is_negative(), "shift_up needs dv >= 0");
        let pieces = self
            .pieces
            .iter()
            .map(|p| Piece::new(p.start, p.value + dv, p.slope))
            .collect();
        Curve::raw(pieces, self.tail)
    }

    /// Shifts the curve right by `dt ≥ 0`: `t ↦ f(max(0, t − dt))` — i.e.
    /// the curve is delayed by `dt`, holding its initial value on `[0, dt)`.
    pub fn shift_right(&self, dt: Q) -> Curve {
        assert!(!dt.is_negative(), "shift_right needs dt >= 0");
        if dt.is_zero() {
            return self.clone();
        }
        let mut pieces = Vec::with_capacity(self.pieces.len() + 1);
        pieces.push(Piece::new(Q::ZERO, self.pieces[0].value, Q::ZERO));
        for p in self.pieces.iter() {
            pieces.push(Piece::new(p.start + dt, p.value, p.slope));
        }
        let tail = match self.tail {
            Tail::Affine => Tail::Affine,
            Tail::Periodic {
                pattern_start,
                period,
                increment,
            } => Tail::Periodic {
                pattern_start: pattern_start + 1,
                period,
                increment,
            },
        };
        Curve::raw(pieces, tail)
    }

    /// Multiplies values by `k ≥ 0`: `t ↦ k · f(t)`.
    pub fn scale(&self, k: Q) -> Curve {
        assert!(!k.is_negative(), "scale needs k >= 0");
        let pieces = self
            .pieces
            .iter()
            .map(|p| Piece::new(p.start, p.value * k, p.slope * k))
            .collect();
        let tail = match self.tail {
            Tail::Affine => Tail::Affine,
            Tail::Periodic {
                pattern_start,
                period,
                increment,
            } => Tail::Periodic {
                pattern_start,
                period,
                increment: increment * k,
            },
        };
        Curve::raw(pieces, tail)
    }

    /// Checks `self(t) <= other(t)` for all `t` up to a horizon that covers
    /// both curves' transients plus `extra` common periods, *and* compares
    /// long-run rates. This decides global domination for
    /// ultimately-affine/periodic curves when the horizon covers the lcm
    /// alignment (which [`Curve::dominated_by`] computes).
    pub fn dominated_by(&self, other: &Curve) -> bool {
        if self.rate() > other.rate() {
            return false;
        }
        let h = common_check_horizon(self, other);
        let mut ts: Vec<Q> = Vec::new();
        for p in self.pieces_upto(h) {
            ts.push(p.start);
        }
        for p in other.pieces_upto(h) {
            ts.push(p.start);
        }
        ts.push(h);
        ts.sort();
        ts.dedup();
        // On each elementary interval both curves are affine; comparing at
        // both endpoints (right-value at left end, left-limit at right end)
        // decides domination on the whole interval.
        for w in ts.windows(2) {
            let (a, b) = (w[0], w[1]);
            if self.eval(a) > other.eval(a) || self.eval_left(b) > other.eval_left(b) {
                return false;
            }
        }
        let last = *ts.last().expect("non-empty");
        self.eval(last) <= other.eval(last)
    }
}

impl std::fmt::Display for Curve {
    /// Compact rendering: each piece as `[start: value (+slope·Δ)]`, then
    /// the tail (`…affine` or `…period=p +inc`).
    ///
    /// ```
    /// use srtw_minplus::{Curve, Q};
    /// let c = Curve::rate_latency(Q::int(2), Q::int(3));
    /// assert_eq!(c.to_string(), "[0: 0] [3: 0 +2·Δ] …affine");
    /// ```
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, p) in self.pieces().iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            if p.slope.is_zero() {
                write!(f, "[{}: {}]", p.start, p.value)?;
            } else {
                write!(f, "[{}: {} +{}·Δ]", p.start, p.value, p.slope)?;
            }
        }
        match self.tail() {
            Tail::Affine => write!(f, " …affine"),
            Tail::Periodic {
                period, increment, ..
            } => write!(f, " …period={period} +{increment}"),
        }
    }
}

/// A horizon beyond which the pointwise relation of two curves is decided by
/// their tails: both transients plus one common period alignment. Thin
/// panicking wrapper over [`try_common_check_horizon`] for callers with
/// statically tame periods.
pub(crate) fn common_check_horizon(a: &Curve, b: &Curve) -> Q {
    try_common_check_horizon(a, b).expect("common check horizon overflow")
}

/// Fallible [`common_check_horizon`]: `Err(CurveError::Arithmetic)` when
/// the period lcm (or the horizon sum) overflows `i128` — the first
/// casualty of adversarial coprime periods.
pub(crate) fn try_common_check_horizon(a: &Curve, b: &Curve) -> Result<Q, CurveError> {
    let base = a.tail_start().max(b.tail_start());
    let pa = tail_period(a);
    let pb = tail_period(b);
    
    let span = match (pa, pb) {
        (None, None) => Q::ONE,
        (Some(p), None) | (None, Some(p)) => p.checked_add(p).ok_or_else(ovf)?,
        (Some(p1), Some(p2)) => {
            let l = Q::try_lcm(p1, p2).map_err(CurveError::Arithmetic)?;
            l.checked_add(l).ok_or_else(ovf)?
        }
    };
    base.checked_add(span).ok_or_else(ovf)
}

pub(crate) fn tail_period(c: &Curve) -> Option<Q> {
    match c.tail() {
        Tail::Affine => None,
        Tail::Periodic { period, .. } => Some(period),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ratio::q;

    #[test]
    fn validation_rejects_bad_curves() {
        // Empty
        assert_eq!(Curve::new(vec![], Tail::Affine), Err(CurveError::Empty));
        // Not starting at zero
        let e = Curve::new(vec![Piece::new(Q::ONE, Q::ZERO, Q::ZERO)], Tail::Affine);
        assert!(matches!(e, Err(CurveError::FirstPieceNotAtZero { .. })));
        // Non-increasing starts
        let e = Curve::new(
            vec![
                Piece::new(Q::ZERO, Q::ZERO, Q::ZERO),
                Piece::new(Q::ZERO, Q::ONE, Q::ZERO),
            ],
            Tail::Affine,
        );
        assert!(matches!(e, Err(CurveError::NonIncreasingStarts { .. })));
        // Negative slope
        let e = Curve::new(vec![Piece::new(Q::ZERO, Q::ONE, q(-1, 2))], Tail::Affine);
        assert!(matches!(e, Err(CurveError::NegativeSlope { .. })));
        // Downward jump
        let e = Curve::new(
            vec![
                Piece::new(Q::ZERO, Q::int(5), Q::ZERO),
                Piece::new(Q::ONE, Q::int(3), Q::ZERO),
            ],
            Tail::Affine,
        );
        assert!(matches!(e, Err(CurveError::DecreasingJump { .. })));
    }

    #[test]
    fn validation_rejects_bad_periodic_tails() {
        let p = vec![Piece::new(Q::ZERO, Q::ZERO, Q::ZERO)];
        let bad_idx = Curve::new(
            p.clone(),
            Tail::Periodic {
                pattern_start: 5,
                period: Q::ONE,
                increment: Q::ONE,
            },
        );
        assert!(matches!(bad_idx, Err(CurveError::InvalidPeriodicTail { .. })));
        let bad_period = Curve::new(
            p.clone(),
            Tail::Periodic {
                pattern_start: 0,
                period: Q::ZERO,
                increment: Q::ONE,
            },
        );
        assert!(matches!(bad_period, Err(CurveError::InvalidPeriodicTail { .. })));
        // Wrap decrease: pattern rises by 5 within the period but increment 1.
        let wrap = Curve::new(
            vec![Piece::new(Q::ZERO, Q::ZERO, Q::int(5))],
            Tail::Periodic {
                pattern_start: 0,
                period: Q::ONE,
                increment: Q::ONE,
            },
        );
        assert!(matches!(wrap, Err(CurveError::InvalidPeriodicTail { .. })));
    }

    #[test]
    fn eval_rate_latency() {
        let b = Curve::rate_latency(q(1, 2), Q::int(4));
        assert_eq!(b.eval(Q::ZERO), Q::ZERO);
        assert_eq!(b.eval(Q::int(4)), Q::ZERO);
        assert_eq!(b.eval(Q::int(6)), Q::ONE);
        assert_eq!(b.eval(Q::int(100)), Q::int(48));
        assert_eq!(b.rate(), q(1, 2));
        assert!(b.is_convex());
        assert!(!b.is_concave());
    }

    #[test]
    fn eval_staircase_periodic() {
        let s = Curve::staircase(Q::int(10), Q::int(3));
        assert_eq!(s.eval(Q::ZERO), Q::int(3));
        assert_eq!(s.eval(q(99, 10)), Q::int(3));
        assert_eq!(s.eval(Q::int(10)), Q::int(6));
        assert_eq!(s.eval(Q::int(25)), Q::int(9));
        assert_eq!(s.rate(), q(3, 10));
        let lower = Curve::staircase_lower(Q::int(10), Q::int(3));
        assert_eq!(lower.eval(Q::ZERO), Q::ZERO);
        assert_eq!(lower.eval(Q::int(10)), Q::int(3));
        assert_eq!(lower.eval(q(199, 10)), Q::int(3));
        assert_eq!(lower.eval(Q::int(20)), Q::int(6));
    }

    #[test]
    fn eval_left_limits() {
        let s = Curve::staircase(Q::int(10), Q::int(3));
        assert_eq!(s.eval_left(Q::int(10)), Q::int(3));
        assert_eq!(s.eval_left(Q::int(20)), Q::int(6));
        assert_eq!(s.eval_left(Q::int(15)), Q::int(6));
        assert_eq!(s.eval_left(Q::ZERO), Q::int(3));
        let b = Curve::rate_latency(Q::ONE, Q::int(2));
        assert_eq!(b.eval_left(Q::int(2)), Q::ZERO);
        assert_eq!(b.eval_left(Q::int(3)), Q::ONE);
    }

    #[test]
    fn pieces_upto_unrolls_periodic() {
        let s = Curve::staircase(Q::int(5), Q::ONE);
        let ps = s.pieces_upto(Q::int(12));
        assert_eq!(ps.len(), 3);
        assert_eq!(ps[2].start, Q::int(10));
        assert_eq!(ps[2].value, Q::int(3));
    }

    #[test]
    fn try_pieces_upto_trips_segment_budget() {
        use crate::error::CurveError;
        use crate::meter::{Budget, BudgetKind, BudgetMeter};
        let s = Curve::staircase(Q::ONE, Q::ONE);
        let meter = BudgetMeter::new(&Budget::default().with_max_segments(10));
        let got = s.try_pieces_upto(Q::int(1_000_000), &meter);
        assert_eq!(got, Err(CurveError::Budget(BudgetKind::Segments)));
        assert_eq!(meter.tripped(), Some(BudgetKind::Segments));
        // An unlimited meter reproduces the classic behaviour.
        let ok = s
            .try_pieces_upto(Q::int(12), &BudgetMeter::unlimited())
            .unwrap();
        assert_eq!(ok, s.pieces_upto(Q::int(12)));
    }

    #[test]
    fn lower_line_bounds_curve_everywhere() {
        let curves = vec![
            Curve::rate_latency(Q::int(2), Q::int(3)),
            Curve::staircase(Q::int(4), Q::int(2)),
            Curve::staircase_lower(Q::int(3), Q::int(2)),
            Curve::affine(Q::int(5), q(1, 3)),
            Curve::constant(Q::int(3)),
            Curve::burst_delay(Q::int(4), Q::int(7)),
        ];
        for c in &curves {
            let (b, r) = c.lower_line();
            assert_eq!(r, c.rate());
            for i in 0..400 {
                let t = q(i, 3);
                assert!(
                    c.eval(t) >= b + r * t,
                    "lower_line violated for {c} at t = {t}: {} < {}",
                    c.eval(t),
                    b + r * t
                );
            }
        }
        // Exact for rate-latency: the bound is attained beyond the latency.
        let rl = Curve::rate_latency(Q::int(2), Q::int(3));
        let (b, r) = rl.lower_line();
        assert_eq!(rl.eval(Q::int(10)), b + r * Q::int(10));
    }

    #[test]
    fn normalization_merges_colinear() {
        let c = Curve::new(
            vec![
                Piece::new(Q::ZERO, Q::ZERO, Q::ONE),
                Piece::new(Q::int(5), Q::int(5), Q::ONE),
                Piece::new(Q::int(7), Q::int(7), Q::ONE),
            ],
            Tail::Affine,
        )
        .unwrap();
        assert_eq!(c.pieces().len(), 1);
        assert_eq!(c.eval(Q::int(9)), Q::int(9));
    }

    #[test]
    fn shift_and_scale() {
        let b = Curve::rate_latency(Q::ONE, Q::int(2));
        let up = b.shift_up(Q::int(3));
        assert_eq!(up.eval(Q::ZERO), Q::int(3));
        assert_eq!(up.eval(Q::int(4)), Q::int(5));
        let right = b.shift_right(Q::int(3));
        assert_eq!(right.eval(Q::int(5)), Q::ZERO);
        assert_eq!(right.eval(Q::int(7)), Q::int(2));
        let sc = b.scale(q(1, 2));
        assert_eq!(sc.eval(Q::int(6)), Q::int(2));
        let s = Curve::staircase(Q::int(4), Q::int(2)).shift_right(Q::int(3));
        assert_eq!(s.eval(Q::int(2)), Q::int(2)); // held initial value
        assert_eq!(s.eval(Q::int(3)), Q::int(2));
        assert_eq!(s.eval(Q::int(7)), Q::int(4));
        assert_eq!(s.rate(), q(1, 2));
    }

    #[test]
    fn staircase_from_points() {
        let c = Curve::staircase_from_points(&[
            (Q::ZERO, Q::ZERO),
            (Q::int(2), Q::int(3)),
            (Q::int(5), Q::int(4)),
        ])
        .unwrap();
        assert_eq!(c.eval(Q::ONE), Q::ZERO);
        assert_eq!(c.eval(Q::int(2)), Q::int(3));
        assert_eq!(c.eval(Q::int(4)), Q::int(3));
        assert_eq!(c.eval(Q::int(500)), Q::int(4));
    }

    #[test]
    fn burst_delay_curve() {
        let d = Curve::burst_delay(Q::int(3), Q::int(1000));
        assert_eq!(d.eval(Q::int(2)), Q::ZERO);
        assert_eq!(d.eval(Q::int(3)), Q::int(1000));
        let d0 = Curve::burst_delay(Q::ZERO, Q::int(7));
        assert_eq!(d0.eval(Q::ZERO), Q::int(7));
    }

    #[test]
    fn dominated_by_basic() {
        let small = Curve::affine(Q::ZERO, q(1, 2));
        let big = Curve::affine(Q::ONE, Q::ONE);
        assert!(small.dominated_by(&big));
        assert!(!big.dominated_by(&small));
        // Periodic vs its affine upper bound: stairs(5,1) <= 1 + t/5
        let s = Curve::staircase(Q::int(5), Q::ONE);
        let aff = Curve::affine(Q::ONE, q(1, 5));
        assert!(s.dominated_by(&aff));
        assert!(!aff.dominated_by(&s));
        // Equal curves dominate each other.
        assert!(s.dominated_by(&s.clone()));
    }

    #[test]
    fn convexity_checks() {
        assert!(Curve::rate_latency(Q::ONE, Q::int(2)).is_convex());
        assert!(Curve::affine(Q::ONE, Q::ONE).is_concave());
        assert!(!Curve::staircase(Q::int(5), Q::ONE).is_convex());
        assert!(!Curve::staircase(Q::int(5), Q::ONE).is_concave());
        assert!(Curve::zero().is_convex());
        assert!(Curve::zero().is_concave());
    }

    #[test]
    #[should_panic(expected = "negative time")]
    fn eval_negative_panics() {
        Curve::zero().eval(q(-1, 2));
    }

    #[test]
    fn display_rendering() {
        assert_eq!(
            Curve::rate_latency(Q::int(2), Q::int(3)).to_string(),
            "[0: 0] [3: 0 +2·Δ] …affine"
        );
        assert_eq!(
            Curve::staircase(Q::int(5), Q::int(2)).to_string(),
            "[0: 2] …period=5 +2"
        );
        assert_eq!(Curve::constant(q(1, 2)).to_string(), "[0: 1/2] …affine");
    }
}
