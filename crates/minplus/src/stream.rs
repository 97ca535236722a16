//! Small-segment storage and the lazy periodic unroll.
//!
//! * [`PieceBuf`] — the segment store backing [`Curve`]: up to
//!   [`INLINE_PIECES`] pieces inline (no heap traffic for the small curves
//!   that dominate real workloads), spilling to a `Vec` beyond that.
//! * [`Unroll`] — the one periodic-lift loop: an iterator over the pieces
//!   of a curve unrolled to a horizon, metering each lifted piece.
//!   [`Curve::try_pieces_upto`] collects it; the convolution and deviation
//!   kernels stream it.

use crate::curve::{Curve, Piece, Tail};
use crate::error::CurveError;
use crate::meter::BudgetMeter;
use crate::ratio::Q;

/// Number of pieces a [`PieceBuf`] stores without touching the heap.
pub const INLINE_PIECES: usize = 8;

/// The inline filler value (never observed: `len` guards it).
const FILL: Piece = Piece {
    start: Q::ZERO,
    value: Q::ZERO,
    slope: Q::ZERO,
};

/// Small-vector storage for curve pieces: inline up to [`INLINE_PIECES`]
/// entries, heap beyond. Equality, ordering and hashing are by the stored
/// slice, so an inline buffer and a spilled buffer holding the same pieces
/// are indistinguishable.
#[derive(Clone)]
pub struct PieceBuf {
    repr: Repr,
}

// The size gap between the variants is the design: the inline variant IS
// the small-buffer optimization, and boxing it would reintroduce the heap
// round-trip the type exists to avoid.
#[allow(clippy::large_enum_variant)]
#[derive(Clone)]
enum Repr {
    Inline {
        len: u8,
        buf: [Piece; INLINE_PIECES],
    },
    Heap(Vec<Piece>),
}

impl PieceBuf {
    /// An empty buffer (inline).
    #[inline]
    pub fn new() -> PieceBuf {
        PieceBuf {
            repr: Repr::Inline {
                len: 0,
                buf: [FILL; INLINE_PIECES],
            },
        }
    }

    /// Appends a piece, spilling to the heap when the inline capacity is
    /// exhausted.
    pub fn push(&mut self, p: Piece) {
        match &mut self.repr {
            Repr::Inline { len, buf } => {
                let n = *len as usize;
                if n < INLINE_PIECES {
                    buf[n] = p;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(2 * INLINE_PIECES);
                    v.extend_from_slice(&buf[..n]);
                    v.push(p);
                    self.repr = Repr::Heap(v);
                }
            }
            Repr::Heap(v) => v.push(p),
        }
    }

    /// The stored pieces as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[Piece] {
        match &self.repr {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Heap(v) => v,
        }
    }

    /// Is the buffer currently stored inline (no heap allocation)?
    #[cfg(test)]
    fn is_inline(&self) -> bool {
        matches!(self.repr, Repr::Inline { .. })
    }
}

impl Default for PieceBuf {
    fn default() -> Self {
        PieceBuf::new()
    }
}

impl std::ops::Deref for PieceBuf {
    type Target = [Piece];
    #[inline]
    fn deref(&self) -> &[Piece] {
        self.as_slice()
    }
}

impl From<Vec<Piece>> for PieceBuf {
    /// Moves a piece list in; short lists are copied inline (releasing the
    /// heap allocation), longer ones are kept as-is.
    fn from(v: Vec<Piece>) -> PieceBuf {
        if v.len() <= INLINE_PIECES {
            let mut buf = [FILL; INLINE_PIECES];
            buf[..v.len()].copy_from_slice(&v);
            PieceBuf {
                repr: Repr::Inline {
                    len: v.len() as u8,
                    buf,
                },
            }
        } else {
            PieceBuf {
                repr: Repr::Heap(v),
            }
        }
    }
}

impl FromIterator<Piece> for PieceBuf {
    fn from_iter<I: IntoIterator<Item = Piece>>(iter: I) -> PieceBuf {
        let mut out = PieceBuf::new();
        for p in iter {
            out.push(p);
        }
        out
    }
}

impl PartialEq for PieceBuf {
    #[inline]
    fn eq(&self, other: &PieceBuf) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for PieceBuf {}

impl std::hash::Hash for PieceBuf {
    /// Hashes like `Vec<Piece>` (length prefix plus elements), so switching
    /// the `Curve` field from `Vec` to `PieceBuf` left hashes unchanged.
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl std::fmt::Debug for PieceBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

/// Lazy unroll of a curve's pieces so that explicit events cover `[0, h]`:
/// yields the explicit pieces, then the periodically lifted pattern
/// instances one piece at a time, ticking the segment budget once per
/// lifted piece. [`Curve::try_pieces_upto`] collects it; the convolution
/// and deviation kernels consume it without materializing the list.
///
/// Pieces come in strictly increasing `start` order. A budget trip or
/// `i128` overflow is yielded as one `Err`, after which the iterator is
/// exhausted.
#[derive(Debug)]
pub(crate) struct Unroll<'a> {
    curve: &'a Curve,
    h: Q,
    meter: &'a BudgetMeter,
    /// Next explicit piece to yield.
    idx: usize,
    /// Next period instance (periodic tails only).
    k: i128,
    /// Index into `pieces` within the current instance.
    pat_i: usize,
    shift: Q,
    lift: Q,
    instance_ready: bool,
    done: bool,
}

impl<'a> Unroll<'a> {
    /// Streams `curve` unrolled so explicit events cover `[0, h]`.
    ///
    /// # Panics
    ///
    /// Panics if `h < 0`.
    pub(crate) fn new(curve: &'a Curve, h: Q, meter: &'a BudgetMeter) -> Unroll<'a> {
        assert!(!h.is_negative(), "Unroll with negative horizon");
        Unroll {
            curve,
            h,
            meter,
            idx: 0,
            k: 1,
            pat_i: 0,
            shift: Q::ZERO,
            lift: Q::ZERO,
            instance_ready: false,
            done: false,
        }
    }

    fn fail(&mut self, e: CurveError) -> Option<Result<Piece, CurveError>> {
        self.done = true;
        Some(Err(e))
    }
}

impl Iterator for Unroll<'_> {
    type Item = Result<Piece, CurveError>;

    fn next(&mut self) -> Option<Result<Piece, CurveError>> {
        const OVF: CurveError = CurveError::Arithmetic(crate::error::ArithmeticError::Overflow);
        if self.done {
            return None;
        }
        let pieces = self.curve.pieces();
        if self.idx < pieces.len() {
            let p = pieces[self.idx];
            self.idx += 1;
            return Some(Ok(p));
        }
        let (pattern_start, period, increment) = match self.curve.tail() {
            Tail::Affine => {
                self.done = true;
                return None;
            }
            Tail::Periodic {
                pattern_start,
                period,
                increment,
            } => (pattern_start, period, increment),
        };
        let s = pieces[pattern_start].start;
        loop {
            if !self.instance_ready {
                let kq = Q::int(self.k);
                let [Some(shift), Some(lift)] = [period, increment].map(|x| x.checked_mul(kq))
                else {
                    return self.fail(OVF);
                };
                match s.checked_add(shift) {
                    Some(v) if v > self.h => {
                        self.done = true;
                        return None;
                    }
                    Some(_) => {}
                    None => return self.fail(OVF),
                }
                self.shift = shift;
                self.lift = lift;
                self.pat_i = pattern_start;
                self.instance_ready = true;
            }
            if self.pat_i < pieces.len() {
                if !self.meter.tick_segment() {
                    let kind = self
                        .meter
                        .tripped()
                        .expect("tick_segment returned false without tripping");
                    return self.fail(CurveError::Budget(kind));
                }
                let p = pieces[self.pat_i];
                self.pat_i += 1;
                let start = match p.start.checked_add(self.shift) {
                    Some(v) => v,
                    None => return self.fail(OVF),
                };
                let value = match p.value.checked_add(self.lift) {
                    Some(v) => v,
                    None => return self.fail(OVF),
                };
                return Some(Ok(Piece::new(start, value, p.slope)));
            }
            self.instance_ready = false;
            self.k += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ratio::q;

    #[test]
    fn piecebuf_inline_and_spill() {
        let mut b = PieceBuf::new();
        assert!(b.is_inline() && b.is_empty());
        for i in 0..INLINE_PIECES {
            b.push(Piece::new(Q::int(i as i128), Q::int(i as i128), Q::ONE));
        }
        assert!(b.is_inline());
        assert_eq!(b.len(), INLINE_PIECES);
        b.push(Piece::new(Q::int(99), Q::int(99), Q::ONE));
        assert!(!b.is_inline());
        assert_eq!(b.len(), INLINE_PIECES + 1);
        assert_eq!(b[INLINE_PIECES].start, Q::int(99));
        // From<Vec> keeps short lists inline, long lists on the heap.
        let short: PieceBuf = vec![FILL; 3].into();
        assert!(short.is_inline());
        let long: PieceBuf = vec![FILL; 9].into();
        assert!(!long.is_inline());
        // Equality and hashing are representation-independent.
        let a: PieceBuf = b.as_slice().to_vec().into();
        assert_eq!(a, b);
        use std::hash::{Hash, Hasher};
        let mut h1 = std::collections::hash_map::DefaultHasher::new();
        let mut h2 = std::collections::hash_map::DefaultHasher::new();
        a.hash(&mut h1);
        b.hash(&mut h2);
        assert_eq!(h1.finish(), h2.finish());
    }

    fn unrolled(c: &Curve, h: Q) -> Vec<Piece> {
        Unroll::new(c, h, &BudgetMeter::unlimited())
            .map(|ev| ev.expect("unmetered unroll cannot fail"))
            .collect()
    }

    #[test]
    fn unroll_lifts_whole_pattern_instances_up_to_the_horizon() {
        let pc = |s: Q, v: Q, r: Q| Piece::new(s, v, r);
        let (z, one) = (Q::ZERO, Q::ONE);
        let stairs = Curve::staircase(Q::int(5), Q::int(2));
        assert_eq!(unrolled(&stairs, z), [pc(z, Q::int(2), z)]);
        assert_eq!(
            unrolled(&stairs, Q::int(12)),
            [
                pc(z, Q::int(2), z),
                pc(Q::int(5), Q::int(4), z),
                pc(Q::int(10), Q::int(6), z)
            ]
        );
        // An affine tail has nothing to lift, whatever the horizon.
        let rl = Curve::rate_latency(Q::int(2), Q::int(3));
        assert_eq!(
            unrolled(&rl, Q::int(40)),
            [pc(z, z, z), pc(Q::int(3), z, Q::int(2))]
        );
        // Rational period: the instance starting at 9/2 lies past h = 4.
        let lower = Curve::staircase_lower(q(3, 2), one);
        assert_eq!(
            unrolled(&lower, Q::int(4)),
            [
                pc(z, z, z),
                pc(q(3, 2), one, z),
                pc(Q::int(3), Q::int(2), z)
            ]
        );
        // A transient prefix and a two-piece pattern starting at t = 1.
        let tail = Tail::Periodic {
            pattern_start: 1,
            period: Q::int(2),
            increment: one,
        };
        let c = Curve::new(
            vec![pc(z, z, z), pc(one, one, one), pc(Q::int(2), Q::int(2), z)],
            tail,
        )
        .unwrap();
        let two_instances = [
            pc(Q::int(3), Q::int(2), one),
            pc(Q::int(4), Q::int(3), z),
            pc(Q::int(5), Q::int(3), one),
            pc(Q::int(6), Q::int(4), z),
        ];
        assert_eq!(unrolled(&c, Q::int(5))[..3], c.pieces()[..]);
        assert_eq!(unrolled(&c, Q::int(5))[3..], two_instances);
        assert_eq!(c.pieces_upto(Q::int(5)), unrolled(&c, Q::int(5)));
    }

    #[test]
    fn unroll_trips_the_segment_budget_then_stays_exhausted() {
        use crate::meter::{Budget, BudgetKind};
        let c = Curve::staircase(Q::ONE, Q::ONE);
        let meter = BudgetMeter::new(&Budget::default().with_max_segments(10));
        let mut s = Unroll::new(&c, Q::int(50), &meter);
        // The explicit piece (unmetered) plus the 10 budgeted lifts that
        // passed, each one step up the staircase.
        for k in 0..11 {
            let p = s.next().expect("budget not yet spent").unwrap();
            assert_eq!(p, Piece::new(Q::int(k), Q::int(k + 1), Q::ZERO));
        }
        assert_eq!(
            s.next(),
            Some(Err(CurveError::Budget(BudgetKind::Segments)))
        );
        assert!(s.next().is_none(), "stream is exhausted after error");
    }
}
