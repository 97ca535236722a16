//! (min,+) convolution and deconvolution.
//!
//! The convolution `f ⊗ g (t) = inf_{0≤s≤t} f(s) + g(t−s)` and deconvolution
//! `f ⊘ g (t) = sup_{u≥0} f(t+u) − g(u)` are the workhorses of network /
//! real-time calculus: `⊗` composes service curves, `⊘` propagates arrival
//! curves through servers.
//!
//! Following the *finitary* approach (exact computation on a bounded prefix,
//! which is all a delay analysis inside a busy window ever inspects), this
//! module provides:
//!
//! * [`Curve::conv_upto`] — exact on `[0, h]` for **any** operands,
//! * [`Curve::conv`] — exact everywhere for ultimately-affine operands,
//! * [`Curve::deconv_upto`] — exact on `[0, h]` given a sufficient
//!   optimisation horizon for the hidden supremum,
//! * [`Curve::deconv`] — deconvolution with an automatically derived
//!   sufficient horizon for stable operand pairs.

use crate::curve::{try_common_check_horizon, Curve, Piece, Shape, Tail};
use crate::error::CurveError;
use crate::meter::{BudgetKind, BudgetMeter};
use crate::ops::{ck_add, TailInfo};
use crate::ratio::{Q, Q64};
use crate::stream::Unroll;
use std::cell::Cell;

/// The budget error carrying whichever dimension actually tripped `meter`.
fn budget_err(meter: &BudgetMeter) -> CurveError {
    CurveError::Budget(meter.tripped().unwrap_or(BudgetKind::Segments))
}

/// A budget-meter adapter that swallows its first `skip` ticks.
///
/// The i64 scalar kernels tick the real meter as they go; when one
/// overflows after `k` successful ticks, the exact `Q` kernel re-runs the
/// same computation from scratch. Replaying it against a `Ticker` with
/// `skip = k` keeps the meter's observed operation sequence identical to a
/// pure-`Q` run: the replayed prefix (already paid for, and already known
/// not to trip) is silent, and ticks `k+1, k+2, …` land on the meter at
/// exactly the indices the `Q` kernel alone would have produced — so
/// budget caps, cancellation polls, and fault injection by operation index
/// are oblivious to which kernel did the arithmetic.
pub(crate) struct Ticker<'a> {
    meter: &'a BudgetMeter,
    skip: Cell<u64>,
}

impl<'a> Ticker<'a> {
    fn new(meter: &'a BudgetMeter) -> Ticker<'a> {
        Ticker::skipping(meter, 0)
    }

    fn skipping(meter: &'a BudgetMeter, skip: u64) -> Ticker<'a> {
        Ticker {
            meter,
            skip: Cell::new(skip),
        }
    }

    fn tick(&self) -> Result<(), CurveError> {
        let skip = self.skip.get();
        if skip > 0 {
            self.skip.set(skip - 1);
            Ok(())
        } else if self.meter.tick_segment() {
            Ok(())
        } else {
            Err(budget_err(self.meter))
        }
    }
}

/// An affine fragment defined on the half-open interval `[start, end)`,
/// with value `v` at `start` and slope `r`. Used as a convolution /
/// deconvolution candidate before envelope computation.
#[derive(Debug, Clone, Copy)]
struct Part {
    start: Q,
    end: Q,
    v: Q,
    r: Q,
}

impl Part {
    fn eval(&self, t: Q) -> Q {
        self.v + self.r * (t - self.start)
    }
}

/// The i64 mirror of [`Part`]: same fragment, scalar components.
#[derive(Debug, Clone, Copy)]
struct Part64 {
    start: Q64,
    end: Q64,
    v: Q64,
    r: Q64,
}

impl Part64 {
    fn eval(&self, t: Q64) -> Option<Q64> {
        self.v.add(self.r.mul(t.sub(self.start)?)?)
    }

    fn from_part(p: &Part) -> Option<Part64> {
        Some(Part64 {
            start: Q64::from_q(p.start)?,
            end: Q64::from_q(p.end)?,
            v: Q64::from_q(p.v)?,
            r: Q64::from_q(p.r)?,
        })
    }
}

/// The per-call buffers of one convolution or deconvolution: operand
/// fragments, candidates, event grid and envelope lines, in both the exact
/// `Q` and the scalar `Q64` forms. The scalar pass and the `Q` pass that
/// replays it after an overflow share one instance.
#[derive(Debug, Default)]
struct ConvScratch {
    pa: Vec<Part>,
    pb: Vec<Part>,
    cand: Vec<Part>,
    events: Vec<Q>,
    lines: Vec<(Q, Q)>,
    pa64: Vec<Part64>,
    pb64: Vec<Part64>,
    cand64: Vec<Part64>,
    events64: Vec<Q64>,
    lines64: Vec<(Q64, Q64)>,
    out64: Vec<(Q64, Q64, Q64)>,
}

/// Explicit pieces of `c` truncated to `[0, h]`, as [`Part`]s carrying
/// their extents, written into `out` (cleared first).
///
/// Streams the unrolled pieces through [`Unroll`] instead of materializing
/// them: the meter sees the tick sequence of [`Curve::try_pieces_upto`]
/// (the stream is drained to exhaustion even past `h`), but the unrolled
/// `Vec<Piece>` is never built — each event is converted to a [`Part`] on the fly using
/// one event of lookahead for the extent's right end.
fn parts_of_into(
    c: &Curve,
    h: Q,
    meter: &BudgetMeter,
    out: &mut Vec<Part>,
) -> Result<(), CurveError> {
    out.clear();
    let hp1 = h + Q::ONE;
    let mut stream = Unroll::new(c, h, meter);
    let mut pending: Option<Piece> = None;
    while let Some(ev) = stream.next() {
        let p = ev?;
        if let Some(prev) = pending.take() {
            out.push(Part {
                start: prev.start,
                end: p.start.min(hp1),
                v: prev.value,
                r: prev.slope,
            });
        }
        if p.start > h {
            // Past the horizon: nothing further is emitted, but the stream
            // is drained so the metered tick demand matches the
            // materializing unroll exactly.
            for ev in stream {
                ev?;
            }
            return Ok(());
        }
        pending = Some(p);
    }
    if let Some(prev) = pending {
        out.push(Part {
            start: prev.start,
            end: hp1,
            v: prev.value,
            r: prev.slope,
        });
    }
    Ok(())
}

/// Selects the better of two `(value, slope)` lines for an envelope in the
/// given direction, with ties broken by slope so the envelope stays extreme
/// after the tie.
#[inline]
fn better<T: Copy + Ord>(a: (T, T), b: (T, T), upper: bool) -> (T, T) {
    let a_better = if upper {
        a.0 > b.0 || (a.0 == b.0 && a.1 > b.1)
    } else {
        a.0 < b.0 || (a.0 == b.0 && a.1 < b.1)
    };
    if a_better {
        a
    } else {
        b
    }
}

/// Lower or upper envelope of a set of partial affine fragments over
/// `[0, h]`. Every point of `[0, h]` must be covered by at least one part.
/// The envelope is computed per elementary interval (between consecutive
/// part endpoints), where the active parts are full lines. `events` and
/// `lines` are caller-provided scratch buffers (cleared here).
fn envelope(
    parts: &[Part],
    h: Q,
    upper: bool,
    tk: &Ticker,
    events: &mut Vec<Q>,
    lines: &mut Vec<(Q, Q)>,
) -> Result<Vec<Piece>, CurveError> {
    events.clear();
    events.extend(
        parts
            .iter()
            .flat_map(|p| [p.start, p.end])
            .filter(|&t| !t.is_negative() && t <= h),
    );
    events.push(Q::ZERO);
    events.push(h);
    events.sort();
    events.dedup();

    let mut out: Vec<Piece> = Vec::new();
    let push = |p: Piece, out: &mut Vec<Piece>| {
        if let Some(last) = out.last() {
            if last.slope == p.slope && last.eval(p.start) == p.value {
                return;
            }
        }
        out.push(p);
    };

    // One scratch buffer for the whole walk: the per-interval line set is
    // rebuilt in place instead of allocating a fresh Vec per elementary
    // interval (the inner-loop allocation dominated profiles on large
    // horizons).
    for w in events.windows(2) {
        let (x1, x2) = (w[0], w[1]);
        // Active parts cover the whole elementary interval; within it each
        // is a full line, stored as (value at x1, slope).
        lines.clear();
        lines.extend(
            parts
                .iter()
                .filter(|p| p.start <= x1 && p.end >= x2)
                .map(|p| (p.eval(x1), p.r)),
        );
        assert!(
            !lines.is_empty(),
            "envelope: no candidate covers [{x1}, {x2})"
        );
        let value_at = |line: (Q, Q), x: Q| line.0 + line.1 * (x - x1);
        // Walk the envelope from x1 towards x2, re-selecting the extreme
        // line at every switch point (ties broken by slope so the envelope
        // stays extreme after the tie).
        let mut x = x1;
        loop {
            tk.tick()?;
            let cur = lines
                .iter()
                .copied()
                .map(|l| (value_at(l, x), l.1))
                .reduce(|a, b| better(a, b, upper))
                .expect("non-empty");
            push(Piece::new(x, cur.0, cur.1), &mut out);
            // Earliest strict crossing by a line that overtakes `cur`.
            let mut next_x: Option<Q> = None;
            for &l in lines.iter() {
                let overtakes = if upper { l.1 > cur.1 } else { l.1 < cur.1 };
                if !overtakes {
                    continue;
                }
                let vx = value_at(l, x);
                // `cur` is extreme at x, so the candidate sits on the wrong
                // side now and can only cross later.
                let gap = if upper { cur.0 - vx } else { vx - cur.0 };
                if gap.is_negative() || gap.is_zero() {
                    continue; // ties at x are resolved by the re-selection
                }
                let cross = x + gap / (cur.1 - l.1).abs();
                if cross > x && cross < x2 {
                    next_x = Some(match next_x {
                        None => cross,
                        Some(b) => b.min(cross),
                    });
                }
            }
            match next_x {
                None => break,
                Some(nx) => x = nx,
            }
        }
    }
    // The loop above covers [0, h) with right-continuous pieces; the point
    // `h` itself needs its own evaluation (the true function may jump at a
    // part-domain boundary landing exactly on `h`).
    let at_h = parts
        .iter()
        .filter(|p| p.start <= h && p.end > h)
        .map(|p| (p.eval(h), p.r))
        .reduce(|a, b| better(a, b, upper));
    if let Some((v, r)) = at_h {
        push(Piece::new(h, v, r), &mut out);
    }
    Ok(out)
}

/// Outcome of an i64 scalar kernel attempt.
enum ScalarRun {
    /// The whole computation fit in `i64` numerators/denominators; the
    /// result is exactly the pieces the `Q` kernel would produce.
    Done(Vec<Piece>),
    /// Some intermediate fell out of `i64` range after the carried number
    /// of successful meter ticks were issued; the caller re-runs the exact
    /// `Q` kernel with that many leading ticks swallowed (see [`Ticker`]).
    Spill(u64),
}

/// The general-convolution pair loop and lower envelope, entirely in
/// [`Q64`] scalar arithmetic — the fixed-denominator fast path.
///
/// Mirrors the `Q` kernel operation-for-operation: the same candidate
/// fragments in the same order, the same event grid, the same envelope
/// walk with identical tie-breaking (all `Q64` comparisons are exact
/// cross-multiplications, so every branch decides exactly as `Q` would).
/// Every meter tick is issued at the same index. Any intermediate that
/// does not fit an `i64` rational aborts with [`ScalarRun::Spill`]
/// carrying the number of ticks already issued.
fn conv_general_scalar(
    h: Q,
    meter: &BudgetMeter,
    scratch: &mut ConvScratch,
) -> Result<ScalarRun, CurveError> {
    let ConvScratch {
        pa,
        pb,
        pa64,
        pb64,
        cand64,
        events64,
        lines64,
        out64,
        ..
    } = scratch;
    let mut ticks: u64 = 0;
    macro_rules! sp {
        ($e:expr) => {
            match $e {
                Some(v) => v,
                None => return Ok(ScalarRun::Spill(ticks)),
            }
        };
    }
    macro_rules! tick {
        () => {
            if meter.tick_segment() {
                ticks += 1;
            } else {
                return Err(budget_err(meter));
            }
        };
    }

    let h64 = sp!(Q64::from_q(h));
    pa64.clear();
    for p in pa.iter() {
        pa64.push(sp!(Part64::from_part(p)));
    }
    pb64.clear();
    for p in pb.iter() {
        pb64.push(sp!(Part64::from_part(p)));
    }

    // --- pair loop: mirror of the Q candidate construction -------------
    cand64.clear();
    for a in pa64.iter() {
        for b in pb64.iter() {
            tick!();
            let t0 = sp!(a.start.add(b.start));
            if t0 > h64 {
                continue;
            }
            let t1 = sp!(a.end.add(b.end)); // exclusive
            let v0 = sp!(a.v.add(b.v));
            let (rmin, rmax, len_min) = if a.r <= b.r {
                (a.r, b.r, sp!(a.end.sub(a.start)))
            } else {
                (b.r, a.r, sp!(b.end.sub(b.start)))
            };
            let mid = sp!(t0.add(len_min));
            if mid >= t1 {
                cand64.push(Part64 {
                    start: t0,
                    end: t1,
                    v: v0,
                    r: rmin,
                });
            } else {
                cand64.push(Part64 {
                    start: t0,
                    end: mid,
                    v: v0,
                    r: rmin,
                });
                cand64.push(Part64 {
                    start: mid,
                    end: t1,
                    v: sp!(v0.add(sp!(rmin.mul(len_min)))),
                    r: rmax,
                });
            }
        }
    }

    // --- lower envelope: mirror of `envelope(…, upper = false)` --------
    events64.clear();
    events64.extend(
        cand64
            .iter()
            .flat_map(|p| [p.start, p.end])
            .filter(|&t| !t.is_negative() && t <= h64),
    );
    events64.push(Q64::ZERO);
    events64.push(h64);
    events64.sort();
    events64.dedup();

    out64.clear();
    // The merge criterion is the same colinear-continuation test the Q
    // push closure applies; its evaluation can itself overflow, which
    // spills like any other op.
    macro_rules! push64 {
        ($start:expr, $v:expr, $r:expr) => {{
            let (start, v, r) = ($start, $v, $r);
            let merged = match out64.last() {
                Some(&(ls, lv, lr)) => {
                    lr == r && sp!(lv.add(sp!(lr.mul(sp!(start.sub(ls)))))) == v
                }
                None => false,
            };
            if !merged {
                out64.push((start, v, r));
            }
        }};
    }

    let mut i = 0;
    while i + 1 < events64.len() {
        let (x1, x2) = (events64[i], events64[i + 1]);
        i += 1;
        lines64.clear();
        for p in cand64.iter() {
            if p.start <= x1 && p.end >= x2 {
                lines64.push((sp!(p.eval(x1)), p.r));
            }
        }
        assert!(!lines64.is_empty(), "envelope64: no candidate covers an interval");
        let mut x = x1;
        loop {
            tick!();
            let mut cur: Option<(Q64, Q64)> = None;
            for &l in lines64.iter() {
                let lx = (sp!(l.0.add(sp!(l.1.mul(sp!(x.sub(x1)))))), l.1);
                cur = Some(match cur {
                    None => lx,
                    Some(c) => better(c, lx, false),
                });
            }
            let cur = cur.expect("non-empty");
            push64!(x, cur.0, cur.1);
            let mut next_x: Option<Q64> = None;
            for &l in lines64.iter() {
                if l.1 >= cur.1 {
                    continue; // not overtaking (lower envelope)
                }
                let vx = sp!(l.0.add(sp!(l.1.mul(sp!(x.sub(x1))))));
                let gap = sp!(vx.sub(cur.0));
                if gap.is_negative() || gap.is_zero() {
                    continue;
                }
                let cross = sp!(x.add(sp!(gap.div(sp!(sp!(cur.1.sub(l.1)).abs())))));
                if cross > x && cross < x2 {
                    next_x = Some(match next_x {
                        None => cross,
                        Some(b) => b.min(cross),
                    });
                }
            }
            match next_x {
                None => break,
                Some(nx) => x = nx,
            }
        }
    }
    let mut at_h: Option<(Q64, Q64)> = None;
    for p in cand64.iter() {
        if p.start <= h64 && p.end > h64 {
            let lx = (sp!(p.eval(h64)), p.r);
            at_h = Some(match at_h {
                None => lx,
                Some(c) => better(c, lx, false),
            });
        }
    }
    if let Some((v, r)) = at_h {
        push64!(h64, v, r);
    }

    let pieces = out64
        .iter()
        .map(|&(s, v, r)| Piece::new(s.to_q(), v.to_q(), r.to_q()))
        .collect();
    Ok(ScalarRun::Done(pieces))
}

/// The general candidate-envelope convolution over pre-computed parts:
/// scalar fast path first, exact `Q` kernel on spill (with the already
/// issued ticks swallowed so the meter sequence is identical to a pure-`Q`
/// run). Returns the final (already colinear-merged) piece list.
fn conv_general_pieces(
    f: &Curve,
    g: &Curve,
    h: Q,
    meter: &BudgetMeter,
    scratch: &mut ConvScratch,
) -> Result<Vec<Piece>, CurveError> {
    parts_of_into(f, h, meter, &mut scratch.pa)?;
    parts_of_into(g, h, meter, &mut scratch.pb)?;
    let skipped = match conv_general_scalar(h, meter, scratch)? {
        ScalarRun::Done(pieces) => return Ok(pieces),
        ScalarRun::Spill(k) => k,
    };
    let tk = Ticker::skipping(meter, skipped);
    let ConvScratch {
        pa,
        pb,
        cand,
        events,
        lines,
        ..
    } = scratch;
    cand.clear();
    cand.reserve(pa.len() * pb.len() * 2);
    for a in pa.iter() {
        for b in pb.iter() {
            tk.tick()?;
            let t0 = a.start + b.start;
            if t0 > h {
                continue;
            }
            let t1 = a.end + b.end; // exclusive
            let v0 = a.v + b.v;
            let (rmin, rmax, len_min) = if a.r <= b.r {
                (a.r, b.r, a.end - a.start)
            } else {
                (b.r, a.r, b.end - b.start)
            };
            let mid = t0 + len_min;
            if mid >= t1 {
                cand.push(Part {
                    start: t0,
                    end: t1,
                    v: v0,
                    r: rmin,
                });
            } else {
                cand.push(Part {
                    start: t0,
                    end: mid,
                    v: v0,
                    r: rmin,
                });
                cand.push(Part {
                    start: mid,
                    end: t1,
                    v: v0 + rmin * len_min,
                    r: rmax,
                });
            }
        }
    }
    envelope(cand, h, false, &tk, events, lines)
}

impl Curve {
    /// (min,+) convolution `self ⊗ other`, **exact on `[0, h]`**. Beyond `h`
    /// the returned curve continues affinely from its last piece and must
    /// not be relied upon.
    ///
    /// # Examples
    ///
    /// ```
    /// use srtw_minplus::{Curve, Q, q};
    /// // Composing two rate-latency servers adds latencies and takes the
    /// // slower rate.
    /// let b1 = Curve::rate_latency(Q::int(2), Q::int(1));
    /// let b2 = Curve::rate_latency(Q::int(3), Q::int(2));
    /// let c = b1.conv_upto(&b2, Q::int(50));
    /// for t in 0..=50 {
    ///     let t = Q::int(t);
    ///     let expect = Curve::rate_latency(Q::int(2), Q::int(3)).eval(t);
    ///     assert_eq!(c.eval(t), expect);
    /// }
    /// ```
    #[must_use]
    pub fn conv_upto(&self, other: &Curve, h: Q) -> Curve {
        self.try_conv_upto(other, h, &BudgetMeter::unlimited())
            .expect("unmetered conv_upto failed")
    }

    /// Fallible, budgeted [`Curve::conv_upto`]: ticks the segment budget
    /// per generated candidate fragment and per envelope piece, surfacing
    /// exhaustion (and `i128` overflow) as errors instead of grinding
    /// through a quadratic candidate set on an oversized horizon.
    ///
    /// When both operands share a shape class (both concave or both
    /// convex — detected once and cached on the curve), an O(n+m) fast
    /// path replaces the quadratic candidate-envelope construction; the
    /// result is the same function on `[0, h]`, and the segment budget is
    /// ticked proportionally to the (much smaller) work actually done.
    pub fn try_conv_upto(
        &self,
        other: &Curve,
        h: Q,
        meter: &BudgetMeter,
    ) -> Result<Curve, CurveError> {
        assert!(!h.is_negative(), "conv_upto with negative horizon");
        let mut scratch = ConvScratch::default();
        let pieces = match (self.shape(), other.shape()) {
            (Shape::Concave | Shape::Both, Shape::Concave | Shape::Both) => {
                return self.conv_concave(other, meter);
            }
            (Shape::Convex | Shape::Both, Shape::Convex | Shape::Both)
                if matches!(self.tail(), Tail::Affine)
                    && matches!(other.tail(), Tail::Affine) =>
            {
                self.conv_convex_pieces(other, h, meter, &mut scratch)?
            }
            _ => conv_general_pieces(self, other, h, meter, &mut scratch)?,
        };
        Ok(Curve::new(pieces, Tail::Affine).expect("conv_upto produced an invalid curve"))
    }

    /// Concave ⊗ concave in O(n+m): write `f = f(0) + F`, `g = g(0) + G`
    /// with `F, G` concave, non-decreasing and zero at 0. The chord
    /// inequality `F(s) ≥ (s/t)·F(t)` makes `F(s) + G(t−s)` a convex
    /// combination lower-bounded by `min(F(t), G(t))`, and the split points
    /// `s ∈ {0, t}` attain it, so `F ⊗ G = min(F, G)` and
    /// `f ⊗ g = min(g(0) + f, f(0) + g)` — exact **everywhere**, not just
    /// on `[0, h]` (concave curves here have affine tails by definition).
    fn conv_concave(&self, other: &Curve, meter: &BudgetMeter) -> Result<Curve, CurveError> {
        let f0 = self.eval(Q::ZERO);
        let g0 = other.eval(Q::ZERO);
        let shifted = |c: &Curve, dv: Q| {
            let pieces = c
                .pieces()
                .iter()
                .map(|p| Piece::new(p.start, p.value + dv, p.slope))
                .collect();
            Curve::raw(pieces, c.tail())
        };
        let out = shifted(self, g0).pointwise_min(&shifted(other, f0));
        for _ in out.pieces() {
            if !meter.tick_segment() {
                return Err(budget_err(meter));
            }
        }
        Ok(out)
    }

    /// Convex ⊗ convex in O((n+m) log(n+m)): the inf-convolution of convex
    /// piecewise-affine functions starts at `f(0) + g(0)` and concatenates
    /// both operands' segments in ascending slope order (spending time on
    /// the cheapest available slope first is optimal exactly when slopes
    /// only ever get worse). Both operands are continuous (convexity
    /// forbids upward jumps, validation forbids downward ones) with affine
    /// tails, so segment lists cover `[0, h]` and the merge is exact there.
    fn conv_convex_pieces(
        &self,
        other: &Curve,
        h: Q,
        meter: &BudgetMeter,
        scratch: &mut ConvScratch,
    ) -> Result<Vec<Piece>, CurveError> {
        parts_of_into(self, h, meter, &mut scratch.pa)?;
        parts_of_into(other, h, meter, &mut scratch.pb)?;
        let (pa, pb) = (&scratch.pa, &scratch.pb);
        // (slope, length) segments; parts_of_into caps the last extent at
        // h+1, so the combined lengths cover [0, h] with room to spare.
        // The segment list reuses the scratch line buffer.
        let segs = &mut scratch.lines;
        segs.clear();
        segs.reserve(pa.len() + pb.len());
        segs.extend(pa.iter().map(|p| (p.r, p.end - p.start)));
        segs.extend(pb.iter().map(|p| (p.r, p.end - p.start)));
        segs.sort_by_key(|s| s.0);
        let mut pieces: Vec<Piece> = Vec::with_capacity(segs.len());
        let mut t = Q::ZERO;
        let mut v = self.eval(Q::ZERO) + other.eval(Q::ZERO);
        for &(r, len) in segs.iter() {
            if t > h {
                break;
            }
            if !meter.tick_segment() {
                return Err(budget_err(meter));
            }
            pieces.push(Piece::new(t, v, r));
            t += len;
            v += r * len;
        }
        Ok(pieces)
    }

    /// The shape-oblivious quadratic candidate-envelope convolution.
    /// Exposed (hidden from docs) so benchmarks can compare the fast
    /// paths against it on the same operands.
    #[doc(hidden)]
    #[must_use]
    pub fn conv_upto_general(&self, other: &Curve, h: Q) -> Curve {
        self.try_conv_upto_general(other, h, &BudgetMeter::unlimited())
            .expect("unmetered conv_upto failed")
    }

    fn try_conv_upto_general(
        &self,
        other: &Curve,
        h: Q,
        meter: &BudgetMeter,
    ) -> Result<Curve, CurveError> {
        let pieces = conv_general_pieces(self, other, h, meter, &mut ConvScratch::default())?;
        Ok(Curve::new(pieces, Tail::Affine).expect("conv_upto produced an invalid curve"))
    }

    /// (min,+) convolution, exact everywhere, for two **ultimately affine**
    /// curves. Returns [`CurveError::Unsupported`] if either operand has a
    /// periodic tail with positive oscillation (use [`Curve::conv_upto`]
    /// with an explicit horizon instead).
    pub fn conv(&self, other: &Curve) -> Result<Curve, CurveError> {
        if matches!(self.tail(), Tail::Periodic { .. })
            || matches!(other.tail(), Tail::Periodic { .. })
        {
            return Err(CurveError::Unsupported {
                reason: "exact tail-to-infinity convolution requires ultimately affine operands",
            });
        }
        // Beyond the sum of transient lengths every unbounded candidate is
        // affine with slope ≥ min(ra, rb); the envelope settles once the
        // minimum-rate line undercuts every other candidate. A safe horizon:
        // twice the transient sum plus the largest crossing offset, found by
        // growing the horizon until the final slope matches.
        let ra = self.rate();
        let rb = other.rate();
        let target = ra.min(rb);
        let mut h = (self.tail_start() + other.tail_start() + Q::ONE) * Q::TWO;
        for _ in 0..64 {
            let c = self.conv_upto(other, h);
            let last = *c.pieces().last().expect("non-empty");
            if last.slope == target && last.start < h {
                // The last explicit piece already runs at the long-run rate;
                // verify it persists by checking a doubled horizon agrees.
                let c2 = self.conv_upto(other, h * Q::TWO);
                if c2.eval(h * Q::TWO) == c.eval_extended(h * Q::TWO) {
                    return Ok(c);
                }
            }
            h *= Q::TWO;
        }
        Err(CurveError::Unsupported {
            reason: "convolution did not settle (is a rate negative or inconsistent?)",
        })
    }

    /// Evaluates the affine extension of the last explicit piece at `t`
    /// (used internally to confirm tail settlement).
    fn eval_extended(&self, t: Q) -> Q {
        self.pieces().last().expect("non-empty").eval(t)
    }

    /// (min,+) deconvolution `self ⊘ other`, exact on `[0, h]`, with the
    /// inner supremum `sup_u f(t+u) − g(u)` searched over `u ∈ [0, u_cap]`.
    ///
    /// The caller must supply a `u_cap` beyond which the supremum cannot
    /// improve (for a stable system: any bound on the maximum busy-window
    /// length). [`Curve::deconv`] derives such a cap automatically.
    ///
    /// The computation decomposes the bivariate objective by operand piece
    /// pairs: within each feasibility region the objective is affine in
    /// `u`, so its supremum is a value (or one-sided limit) at one of four
    /// canonical points; each contributes an affine candidate in `t`, and
    /// the result is their exact upper envelope.
    #[must_use]
    pub fn deconv_upto(&self, other: &Curve, h: Q, u_cap: Q) -> Curve {
        self.try_deconv_upto(other, h, u_cap, &BudgetMeter::unlimited())
            .expect("unmetered deconv_upto failed")
    }

    /// Fallible, budgeted [`Curve::deconv_upto`]: ticks the segment budget
    /// per region pair, surfacing exhaustion (and `i128` overflow) as
    /// errors.
    pub fn try_deconv_upto(
        &self,
        other: &Curve,
        h: Q,
        u_cap: Q,
        meter: &BudgetMeter,
    ) -> Result<Curve, CurveError> {
        assert!(!h.is_negative() && !u_cap.is_negative());
        let mut scratch = ConvScratch::default();
        parts_of_into(self, ck_add(h, u_cap)?, meter, &mut scratch.pa)?;
        parts_of_into(other, u_cap, meter, &mut scratch.pb)?;
        let ConvScratch {
            pa,
            pb,
            cand,
            events,
            lines,
            ..
        } = &mut scratch;

        // Up to four candidates per region pair (see below); reserving once
        // keeps the inner loop allocation-free.
        cand.clear();
        cand.reserve(pa.len() * pb.len() * 4);
        let mut add = |start: Q, end: Q, v_at_start: Q, r: Q| {
            let s = start.max(Q::ZERO);
            let e = end.min(h + Q::ONE);
            if s < e {
                cand.push(Part {
                    start: s,
                    end: e,
                    v: v_at_start + r * (s - start),
                    r,
                });
            }
        };

        for a in pa.iter() {
            let (xk, xk1) = (a.start, a.end);
            for b in pb.iter() {
                if !meter.tick_segment() {
                    return Err(budget_err(meter));
                }
                let ulo = b.start;
                if ulo > u_cap {
                    continue;
                }
                let uhi = b.end.min(u_cap);
                if uhi < ulo {
                    continue;
                }
                let a_at_xk = a.eval(xk);
                let a_at_xk1 = a.eval(xk1);
                let b_at_ulo = b.eval(ulo);
                let b_at_uhi = b.eval(uhi);
                // Within the region u ∈ [ulo, uhi], t+u ∈ [xk, xk1] the
                // objective is affine in u; its supremum for fixed t sits
                // at one of four canonical points, each contributing an
                // affine candidate in t:
                // 1. u pinned at the region's lower end.
                add(xk - ulo, xk1 - ulo, a_at_xk - b_at_ulo, a.r);
                // 2. u approaching the region's upper end (limit value).
                add(xk - uhi, xk1 - uhi, a_at_xk - b_at_uhi, a.r);
                // 3. t+u pinned at the a-piece's left boundary: u = xk − t.
                add(xk - uhi, xk - ulo, a_at_xk - b_at_uhi, b.r);
                // 4. t+u approaching the a-piece's right boundary:
                //    u = (xk1 − t)⁻ (limit value).
                add(xk1 - uhi, xk1 - ulo, a_at_xk1 - b_at_uhi, b.r);
            }
        }
        if cand.is_empty() {
            return Ok(Curve::constant(self.eval(Q::ZERO) - other.eval(Q::ZERO)));
        }
        let pieces = envelope(cand, h, true, &Ticker::new(meter), events, lines)?;
        Ok(Curve::new(pieces, Tail::Affine).expect("deconv_upto produced an invalid curve"))
    }

    /// (min,+) deconvolution with an automatically derived inner-supremum
    /// horizon, exact on `[0, h]`.
    ///
    /// Returns [`CurveError::Unsupported`] when `self.rate() > other.rate()`
    /// (the supremum diverges: the system is unstable).
    pub fn deconv(&self, other: &Curve, h: Q) -> Result<Curve, CurveError> {
        self.try_deconv(other, h, &BudgetMeter::unlimited())
    }

    /// Fallible, budgeted [`Curve::deconv`]: additionally surfaces `i128`
    /// overflow in the derived inner-supremum horizon (an lcm of the
    /// operands' periods) and budget exhaustion as errors.
    pub fn try_deconv(
        &self,
        other: &Curve,
        h: Q,
        meter: &BudgetMeter,
    ) -> Result<Curve, CurveError> {
        let ta = TailInfo::of(self);
        let tb = TailInfo::of(other);
        if ta.rate > tb.rate {
            return Err(CurveError::Unsupported {
                reason: "deconvolution diverges: left operand grows faster than right",
            });
        }
        let u_cap = if ta.rate == tb.rate {
            // The objective is eventually periodic in u; one aligned common
            // period beyond both tails suffices.
            ck_add(try_common_check_horizon(self, other)?, h)?
        } else {
            // Negative drift in u: beyond the settle point the objective is
            // below its value at small u. Bound via the tail lines.
            let (aup, ar) = ta.upper_line();
            let (blo, br) = tb.lower_line();
            // f(t+u) − g(u) ≤ aup + ar·(t+u) − blo − br·u; compare with the
            // value at u = 0 lower bound: f(t) − g(0) ≥ (alo + ar·t) − g(0).
            let (alo, _) = ta.lower_line();
            let g0 = other.eval(Q::ZERO);
            // Solve aup + ar(t+u) − blo − br·u ≤ alo + ar·t − g0 for u:
            // u ≥ (aup − blo − alo + g0) / (br − ar)
            let bound = (aup - blo - alo + g0) / (br - ar);
            bound.max(ta.s).max(tb.s) + Q::ONE
        };
        self.try_deconv_upto(other, h, u_cap, meter)
    }
}

impl Curve {
    /// Finitary sub-additive closure `f* = min_{n ≥ 1} f^{⊗n}`, exact on
    /// `[0, h]`.
    ///
    /// The closure is the tightest sub-additive curve below `f` (with the
    /// `n ≥ 1` convention, so `f*(0) = f(0)`); it is the canonical way to
    /// tighten an upper arrival curve. Computed by repeated squaring
    /// (`c ← min(c, c ⊗ c)`), which converges on the finite horizon in
    /// logarithmically many steps.
    ///
    /// # Panics
    ///
    /// Panics if the iteration fails to converge within 64 doublings
    /// (cannot happen for monotone curves with `f(0) ≥ 0`).
    ///
    /// # Examples
    ///
    /// ```
    /// use srtw_minplus::{Curve, Q, q};
    /// // A leaky-bucket pair: min(γ_{b1,r1}, γ_{b2,r2}) is generally not
    /// // sub-additive; its closure is the tight concave envelope.
    /// let f = Curve::affine(Q::int(4), q(1, 4)).pointwise_min(&Curve::affine(Q::ONE, Q::ONE));
    /// let g = f.subadditive_closure_upto(Q::int(40));
    /// for i in 0..=40 {
    ///     let t = Q::int(i);
    ///     assert!(g.eval(t) <= f.eval(t));
    /// }
    /// // Sub-additivity on the horizon:
    /// for a in 0..=20 {
    ///     for b in 0..=20 {
    ///         let (a, b) = (Q::int(a), Q::int(b));
    ///         assert!(g.eval(a + b) <= g.eval(a) + g.eval(b));
    ///     }
    /// }
    /// ```
    #[must_use]
    pub fn subadditive_closure_upto(&self, h: Q) -> Curve {
        // Equality on [0, h] only: beyond the horizon conv_upto's affine
        // extension carries no meaning and must not gate convergence.
        let equal_upto = |a: &Curve, b: &Curve| -> bool {
            let mut ts: Vec<Q> = a
                .pieces_upto(h)
                .iter()
                .chain(b.pieces_upto(h).iter())
                .map(|p| p.start)
                .filter(|&t| t <= h)
                .collect();
            ts.push(h);
            ts.sort();
            ts.dedup();
            ts.iter()
                .all(|&t| a.eval(t) == b.eval(t) && a.eval_left(t) == b.eval_left(t))
        };
        let mut c = self.clone();
        for _ in 0..64 {
            let next = c.pointwise_min(&c.conv_upto(&c, h));
            if equal_upto(&next, &c) {
                return c;
            }
            c = next;
        }
        panic!("subadditive closure did not converge within 64 doublings");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ratio::q;

    /// Exact brute-force convolution: the infimum over a closed interval of
    /// a piecewise-affine objective is attained at a breakpoint of either
    /// operand or approached at its left limit, so evaluating value and
    /// left-limit combinations at all such candidates is exact.
    fn brute_conv(f: &Curve, g: &Curve, t: Q, _den: i128) -> Q {
        let mut cands: Vec<Q> = vec![Q::ZERO, t];
        for p in f.pieces_upto(t) {
            if p.start <= t {
                cands.push(p.start);
            }
        }
        for p in g.pieces_upto(t) {
            if p.start <= t {
                cands.push(p.start + Q::ZERO); // g breakpoint at u = start
            }
        }
        let mut best: Option<Q> = None;
        let probe = |v: Q, best: &mut Option<Q>| {
            *best = Some(match *best {
                None => v,
                Some(b) => b.min(v),
            });
        };
        for &c in &cands {
            // Candidate split points s = c (an f breakpoint) and s = t − c
            // (aligning a g breakpoint), with one-sided limits.
            for s in [c, t - c] {
                if s.is_negative() || s > t {
                    continue;
                }
                let u = t - s;
                probe(f.eval(s) + g.eval(u), &mut best);
                probe(f.eval_left(s) + g.eval(u), &mut best);
                probe(f.eval(s) + g.eval_left(u), &mut best);
            }
        }
        best.expect("non-empty candidates")
    }

    /// Brute-force deconvolution on a fine rational grid.
    fn brute_deconv(f: &Curve, g: &Curve, t: Q, u_cap: Q, den: i128) -> Q {
        let steps = (u_cap * Q::int(den)).floor();
        let mut best = f.eval(t) - g.eval(Q::ZERO);
        for i in 0..=steps {
            let u = q(i, den).min(u_cap);
            best = best.max(f.eval(t + u) - g.eval(u));
        }
        best
    }

    #[test]
    fn conv_rate_latency_pair_is_rate_latency() {
        let b1 = Curve::rate_latency(Q::int(2), Q::int(1));
        let b2 = Curve::rate_latency(Q::int(3), Q::int(2));
        let c = b1.conv(&b2).unwrap();
        let expect = Curve::rate_latency(Q::int(2), Q::int(3));
        for i in 0..200 {
            let t = q(i, 2);
            assert_eq!(c.eval(t), expect.eval(t), "at t = {t}");
        }
        assert_eq!(c.rate(), Q::int(2));
    }

    #[test]
    fn conv_with_zero_latency_identity_like() {
        // β ⊗ (affine through origin with huge rate) ≈ β on the prefix.
        let b = Curve::rate_latency(Q::int(2), Q::int(3));
        let id = Curve::affine(Q::ZERO, Q::int(1000));
        let c = b.conv_upto(&id, Q::int(40));
        for i in 0..80 {
            let t = q(i, 2);
            assert_eq!(c.eval(t), brute_conv(&b, &id, t, 8), "at t = {t}");
        }
    }

    #[test]
    fn conv_upto_matches_brute_force_nonconvex() {
        // Staircase (non-convex) against rate-latency.
        let a = Curve::staircase(Q::int(4), Q::int(3));
        let b = Curve::rate_latency(Q::ONE, Q::int(2));
        let c = a.conv_upto(&b, Q::int(24));
        for i in 0..=96 {
            let t = q(i, 4);
            assert_eq!(c.eval(t), brute_conv(&a, &b, t, 8), "at t = {t}");
        }
    }

    #[test]
    fn conv_upto_two_staircases() {
        let a = Curve::staircase(Q::int(3), Q::int(2));
        let b = Curve::staircase(Q::int(5), Q::ONE);
        let c = a.conv_upto(&b, Q::int(30));
        for i in 0..=120 {
            let t = q(i, 4);
            assert_eq!(c.eval(t), brute_conv(&a, &b, t, 4), "at t = {t}");
        }
    }

    #[test]
    fn conv_is_commutative_on_prefix() {
        let a = Curve::staircase(Q::int(4), Q::int(3)).shift_up(Q::ONE);
        let b = Curve::rate_latency(q(3, 2), Q::int(5));
        let ab = a.conv_upto(&b, Q::int(40));
        let ba = b.conv_upto(&a, Q::int(40));
        for i in 0..=160 {
            let t = q(i, 4);
            assert_eq!(ab.eval(t), ba.eval(t), "at t = {t}");
        }
    }

    #[test]
    fn concave_fast_path_matches_general_and_brute() {
        // Leaky-bucket pair (concave): min(γ_{4,1/4}, γ_{1,1}).
        let f = Curve::affine(Q::int(4), q(1, 4)).pointwise_min(&Curve::affine(Q::ONE, Q::ONE));
        let g = Curve::affine(Q::int(2), q(1, 2));
        assert!(f.is_concave() && g.is_concave());
        let h = Q::int(40);
        let fast = f.conv_upto(&g, h);
        let gen = f.conv_upto_general(&g, h);
        for i in 0..=160 {
            let t = q(i, 4);
            assert_eq!(fast.eval(t), gen.eval(t), "general mismatch at t = {t}");
            assert_eq!(fast.eval(t), brute_conv(&f, &g, t, 4), "brute mismatch at t = {t}");
            assert_eq!(fast.eval_left(t), gen.eval_left(t), "left mismatch at t = {t}");
        }
        // Self-convolution of a many-piece concave polyline.
        let many = Curve::min_of(&[
            Curve::affine(Q::int(10), q(1, 8)),
            Curve::affine(Q::int(6), q(1, 3)),
            Curve::affine(Q::int(3), Q::ONE),
            Curve::affine(Q::ONE, Q::int(3)),
        ]);
        assert!(many.is_concave());
        let fast = many.conv_upto(&many, h);
        let gen = many.conv_upto_general(&many, h);
        for i in 0..=160 {
            let t = q(i, 4);
            assert_eq!(fast.eval(t), gen.eval(t), "at t = {t}");
        }
    }

    #[test]
    fn convex_fast_path_matches_general_and_brute() {
        let f = Curve::rate_latency(Q::int(2), Q::int(3));
        let g = Curve::rate_latency(Q::int(5), Q::ONE);
        assert!(f.is_convex() && g.is_convex());
        let h = Q::int(50);
        let fast = f.conv_upto(&g, h);
        let gen = f.conv_upto_general(&g, h);
        for i in 0..=200 {
            let t = q(i, 4);
            assert_eq!(fast.eval(t), gen.eval(t), "general mismatch at t = {t}");
            assert_eq!(fast.eval(t), brute_conv(&f, &g, t, 4), "brute mismatch at t = {t}");
        }
        // Multi-piece convex polylines (max of affine curves).
        let cf = Curve::rate_latency(Q::ONE, Q::int(2))
            .pointwise_max(&Curve::affine(Q::int(-10), Q::int(3)));
        let cg = Curve::rate_latency(q(1, 2), Q::ONE)
            .pointwise_max(&Curve::affine(Q::int(-6), Q::int(2)));
        assert!(cf.is_convex() && cg.is_convex());
        let fast = cf.conv_upto(&cg, h);
        let gen = cf.conv_upto_general(&cg, h);
        for i in 0..=200 {
            let t = q(i, 4);
            assert_eq!(fast.eval(t), gen.eval(t), "at t = {t}");
        }
    }

    #[test]
    fn mixed_shapes_take_the_general_path_and_agree() {
        // Concave ⊗ convex has no fast path; dispatch must agree with the
        // general entry point by construction.
        let f = Curve::affine(Q::int(4), q(1, 4)).pointwise_min(&Curve::affine(Q::ONE, Q::ONE));
        let g = Curve::rate_latency(Q::int(2), Q::int(3));
        let h = Q::int(30);
        let a = f.conv_upto(&g, h);
        let b = f.conv_upto_general(&g, h);
        for i in 0..=120 {
            let t = q(i, 4);
            assert_eq!(a.eval(t), b.eval(t), "at t = {t}");
            assert_eq!(a.eval(t), brute_conv(&f, &g, t, 4), "brute at t = {t}");
        }
    }

    #[test]
    fn fast_paths_respect_segment_budget() {
        use crate::meter::Budget;
        let f = Curve::affine(Q::int(4), q(1, 4)).pointwise_min(&Curve::affine(Q::ONE, Q::ONE));
        let meter = BudgetMeter::new(&Budget::default().with_max_segments(1));
        let got = f.try_conv_upto(&f, Q::int(1000), &meter);
        assert!(matches!(got, Err(CurveError::Budget(_))));
        let g = Curve::rate_latency(Q::int(2), Q::int(3));
        let meter = BudgetMeter::new(&Budget::default().with_max_segments(1));
        let got = g.try_conv_upto(&g, Q::int(1000), &meter);
        assert!(matches!(got, Err(CurveError::Budget(_))));
    }

    #[test]
    fn conv_rejects_periodic_tails() {
        let a = Curve::staircase(Q::int(4), Q::int(3));
        let b = Curve::rate_latency(Q::ONE, Q::int(2));
        assert!(matches!(a.conv(&b), Err(CurveError::Unsupported { .. })));
    }

    #[test]
    fn deconv_upto_matches_brute_force() {
        // Output arrival curve: α ⊘ β.
        let alpha = Curve::staircase(Q::int(5), Q::int(2));
        let beta = Curve::rate_latency(Q::ONE, Q::int(3)); // rate 1 > 2/5
        let d = alpha.deconv(&beta, Q::int(20)).unwrap();
        for i in 0..=80 {
            let t = q(i, 4);
            let brute = brute_deconv(&alpha, &beta, t, Q::int(60), 4);
            assert_eq!(d.eval(t), brute, "at t = {t}");
        }
    }

    #[test]
    fn deconv_equal_rates() {
        let alpha = Curve::staircase(Q::int(4), Q::int(2));
        let beta = Curve::affine(Q::ZERO, q(1, 2));
        let d = alpha.deconv(&beta, Q::int(16)).unwrap();
        for i in 0..=64 {
            let t = q(i, 4);
            let brute = brute_deconv(&alpha, &beta, t, Q::int(80), 4);
            assert_eq!(d.eval(t), brute, "at t = {t}");
        }
    }

    #[test]
    fn deconv_diverging_rejected() {
        let alpha = Curve::affine(Q::ZERO, Q::int(2));
        let beta = Curve::affine(Q::ZERO, Q::ONE);
        assert!(matches!(
            alpha.deconv(&beta, Q::int(10)),
            Err(CurveError::Unsupported { .. })
        ));
    }

    #[test]
    fn conv_monotone_in_operands() {
        // f ≤ f' ⇒ f ⊗ g ≤ f' ⊗ g (checked pointwise on a prefix).
        let f = Curve::rate_latency(Q::ONE, Q::int(4));
        let f2 = Curve::rate_latency(Q::ONE, Q::int(2)); // f ≤ f2
        let g = Curve::staircase(Q::int(3), Q::int(2));
        let c1 = f.conv_upto(&g, Q::int(30));
        let c2 = f2.conv_upto(&g, Q::int(30));
        for i in 0..=120 {
            let t = q(i, 4);
            assert!(c1.eval(t) <= c2.eval(t), "at t = {t}");
        }
    }

    #[test]
    fn closure_is_subadditive_and_idempotent() {
        let f = Curve::affine(Q::int(5), q(1, 5))
            .pointwise_min(&Curve::affine(Q::ONE, Q::int(2)));
        let h = Q::int(30);
        let g = f.subadditive_closure_upto(h);
        for a in 0..=60 {
            for b in 0..=60 {
                let (a, b) = (q(a, 2), q(b, 2));
                if a + b > h {
                    continue;
                }
                assert!(
                    g.eval(a + b) <= g.eval(a) + g.eval(b),
                    "not subadditive at {a} + {b}"
                );
                assert!(g.eval(a) <= f.eval(a));
            }
        }
        let gg = g.subadditive_closure_upto(h);
        for i in 0..=60 {
            let t = q(i, 2);
            assert_eq!(g.eval(t), gg.eval(t), "not idempotent at {t}");
        }
    }

    #[test]
    fn closure_of_subadditive_curve_is_identity() {
        // Staircases are sub-additive: the closure changes nothing.
        let f = Curve::staircase(Q::int(5), Q::int(2));
        let g = f.subadditive_closure_upto(Q::int(40));
        for i in 0..=80 {
            let t = q(i, 2);
            if t > Q::int(40) {
                break;
            }
            assert_eq!(g.eval(t), f.eval(t), "at {t}");
        }
    }
}
