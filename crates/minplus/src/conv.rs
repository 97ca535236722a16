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
//!
//! Concave and convex operand pairs take O(n+m) fast paths. Every other
//! convolution runs one candidate-envelope kernel, written once over the
//! [`Rational`] number type: at [`Q64`] first, and again at [`Q`] when a
//! value leaves `i64` (see [`Ticker`]). An `i128` overflow in the `Q`
//! run's arithmetic is a [`CurveError::Arithmetic`]. Deconvolution builds
//! its own candidates in checked `Q` arithmetic and shares the envelope.

use crate::curve::{try_common_check_horizon, Curve, Piece, Shape, Tail};
use crate::error::CurveError;
use crate::meter::{BudgetKind, BudgetMeter};
use crate::ops::{ck_add, TailInfo, OVF};
use crate::ratio::{Rational, Q, Q64};
use crate::stream::Unroll;

/// The budget error carrying whichever dimension actually tripped `meter`.
fn budget_err(meter: &BudgetMeter) -> CurveError {
    CurveError::Budget(meter.tripped().unwrap_or(BudgetKind::Segments))
}

/// The segment-budget ticks of one kernel run, counted, with the first
/// `skip` of them swallowed.
///
/// The general convolution runs at [`Q64`] first and ticks the real meter
/// as it goes; when an intermediate leaves `i64` after `issued` ticks, the
/// same kernel re-runs from scratch at [`Q`]. Replaying it against a
/// `Ticker` with `skip = issued` keeps the meter's observed operation
/// sequence identical to a pure-`Q` run: the replayed prefix (already paid
/// for, and already known not to trip) is silent, and ticks `issued + 1, …`
/// land on the meter at exactly the indices the `Q` run alone would have
/// produced — so budget caps, cancellation polls, and fault injection by
/// operation index are oblivious to which instantiation did the arithmetic.
///
/// A kernel returns `None` both when the meter refuses a tick and when its
/// arithmetic leaves its number type; [`Ticker::error`] tells the two apart.
struct Ticker<'a> {
    meter: &'a BudgetMeter,
    skip: u64,
    issued: u64,
    refused: bool,
}

impl<'a> Ticker<'a> {
    fn new(meter: &'a BudgetMeter) -> Ticker<'a> {
        Ticker::skipping(meter, 0)
    }

    fn skipping(meter: &'a BudgetMeter, skip: u64) -> Ticker<'a> {
        Ticker {
            meter,
            skip,
            issued: 0,
            refused: false,
        }
    }

    fn tick(&mut self) -> Option<()> {
        if self.skip > 0 {
            self.skip -= 1;
        } else if self.meter.tick_segment() {
            self.issued += 1;
        } else {
            self.refused = true;
            return None;
        }
        Some(())
    }

    /// Why a kernel run against this ticker returned `None`: the budget
    /// error if the meter refused a tick, an `i128` overflow otherwise
    /// (the run was at [`Q`]).
    fn error(&self) -> CurveError {
        if self.refused {
            budget_err(self.meter)
        } else {
            OVF
        }
    }
}

/// An affine fragment defined on the half-open interval `[start, end)`,
/// with value `v` at `start` and slope `r`. Used as a convolution /
/// deconvolution candidate before envelope computation.
#[derive(Debug, Clone, Copy)]
struct Part<N> {
    start: N,
    end: N,
    v: N,
    r: N,
}

impl<N: Rational> Part<N> {
    fn eval(&self, t: N) -> Option<N> {
        self.v.add(self.r.mul(t.sub(self.start)?)?)
    }

    fn convert(p: &Part<Q>) -> Option<Part<N>> {
        Some(Part {
            start: N::from_q(p.start)?,
            end: N::from_q(p.end)?,
            v: N::from_q(p.v)?,
            r: N::from_q(p.r)?,
        })
    }
}

/// Explicit pieces of `c` truncated to `[0, h]`, as [`Part`]s carrying
/// their extents.
///
/// Streams the unrolled pieces through [`Unroll`] instead of materializing
/// them: the meter sees the tick sequence of [`Curve::try_pieces_upto`]
/// (the stream is drained to exhaustion even past `h`), but the unrolled
/// `Vec<Piece>` is never built — each event is converted to a [`Part`] on the fly using
/// one event of lookahead for the extent's right end.
fn parts_of(c: &Curve, h: Q, meter: &BudgetMeter) -> Result<Vec<Part<Q>>, CurveError> {
    let mut out = Vec::new();
    let hp1 = ck_add(h, Q::ONE)?;
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
            return Ok(out);
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
    Ok(out)
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

/// Appends the piece `(start, value, slope)` unless it continues the last
/// one colinearly.
fn push_piece<N: Rational>(out: &mut Vec<(N, N, N)>, start: N, v: N, r: N) -> Option<()> {
    if let Some(&(ls, lv, lr)) = out.last() {
        if lr == r && lv.add(lr.mul(start.sub(ls)?)?)? == v {
            return Some(());
        }
    }
    out.push((start, v, r));
    Some(())
}

/// Lower or upper envelope of a set of partial affine fragments over
/// `[0, h]`. Every point of `[0, h]` must be covered by at least one part.
/// The envelope is computed per elementary interval (between consecutive
/// part endpoints), where the active parts are full lines. Ticks `tk` once
/// per envelope piece; `None` when the meter refuses or the arithmetic
/// leaves `N`.
fn envelope<N: Rational>(
    parts: &[Part<N>],
    h: N,
    upper: bool,
    tk: &mut Ticker,
) -> Option<Vec<Piece>> {
    let mut events: Vec<N> = Vec::with_capacity(2 * parts.len() + 2);
    events.extend(
        parts
            .iter()
            .flat_map(|p| [p.start, p.end])
            .filter(|&t| !t.is_negative() && t <= h),
    );
    events.push(N::ZERO);
    events.push(h);
    // Equal values are interchangeable here (`Q64` representations of one
    // value give the same result), so the faster unstable sort will do.
    events.sort_unstable();
    events.dedup();

    let mut out: Vec<(N, N, N)> = Vec::new();
    // One line buffer for the whole walk: the per-interval line set is
    // rebuilt in place instead of allocating a fresh Vec per elementary
    // interval (the inner-loop allocation dominated profiles on large
    // horizons).
    let mut lines: Vec<(N, N)> = Vec::new();
    for w in events.windows(2) {
        let (x1, x2) = (w[0], w[1]);
        // Active parts cover the whole elementary interval; within it each
        // is a full line, stored as (value at x1, slope).
        lines.clear();
        for p in parts.iter().filter(|p| p.start <= x1 && p.end >= x2) {
            lines.push((p.eval(x1)?, p.r));
        }
        assert!(
            !lines.is_empty(),
            "envelope: no candidate covers [{}, {})",
            x1.to_q(),
            x2.to_q()
        );
        let value_at = |line: (N, N), x: N| line.0.add(line.1.mul(x.sub(x1)?)?);
        // Walk the envelope from x1 towards x2, re-selecting the extreme
        // line at every switch point (ties broken by slope so the envelope
        // stays extreme after the tie).
        let mut x = x1;
        loop {
            tk.tick()?;
            let mut cur: Option<(N, N)> = None;
            for &l in lines.iter() {
                let lx = (value_at(l, x)?, l.1);
                cur = Some(cur.map_or(lx, |c| better(c, lx, upper)));
            }
            let cur = cur.expect("non-empty");
            push_piece(&mut out, x, cur.0, cur.1)?;
            // Earliest strict crossing by a line that overtakes `cur`.
            let mut next_x: Option<N> = None;
            for &l in lines.iter() {
                let overtakes = if upper { l.1 > cur.1 } else { l.1 < cur.1 };
                if !overtakes {
                    continue;
                }
                let vx = value_at(l, x)?;
                // `cur` is extreme at x, so the candidate sits on the wrong
                // side now and can only cross later.
                let gap = if upper {
                    cur.0.sub(vx)?
                } else {
                    vx.sub(cur.0)?
                };
                if gap.is_negative() || gap.is_zero() {
                    continue; // ties at x are resolved by the re-selection
                }
                let cross = x.add(gap.div(cur.1.sub(l.1)?.abs()?)?)?;
                if cross > x && cross < x2 {
                    next_x = Some(next_x.map_or(cross, |b| b.min(cross)));
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
    let mut at_h: Option<(N, N)> = None;
    for p in parts.iter().filter(|p| p.start <= h && p.end > h) {
        let lx = (p.eval(h)?, p.r);
        at_h = Some(at_h.map_or(lx, |c| better(c, lx, upper)));
    }
    if let Some((v, r)) = at_h {
        push_piece(&mut out, h, v, r)?;
    }
    Some(
        out.into_iter()
            .map(|(s, v, r)| Piece::new(s.to_q(), v.to_q(), r.to_q()))
            .collect(),
    )
}

/// The general-convolution candidate construction and lower envelope in
/// `N` arithmetic: every operand piece pair contributes up to two affine
/// candidates, and the result is their exact lower envelope. Ticks `tk`
/// once per pair and per envelope piece; `None` when the meter refuses or
/// an intermediate leaves `N`.
fn conv_kernel<N: Rational>(
    pa: &[Part<Q>],
    pb: &[Part<Q>],
    h: Q,
    tk: &mut Ticker,
) -> Option<Vec<Piece>> {
    let h = N::from_q(h)?;
    let pa: Vec<Part<N>> = pa.iter().map(Part::convert).collect::<Option<_>>()?;
    let pb: Vec<Part<N>> = pb.iter().map(Part::convert).collect::<Option<_>>()?;
    let mut cand = Vec::new();
    for a in &pa {
        for b in &pb {
            tk.tick()?;
            let t0 = a.start.add(b.start)?;
            if t0 > h {
                continue;
            }
            let t1 = a.end.add(b.end)?; // exclusive
            let v0 = a.v.add(b.v)?;
            let (rmin, rmax, len_min) = if a.r <= b.r {
                (a.r, b.r, a.end.sub(a.start)?)
            } else {
                (b.r, a.r, b.end.sub(b.start)?)
            };
            let mid = t0.add(len_min)?;
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
                    v: v0.add(rmin.mul(len_min)?)?,
                    r: rmax,
                });
            }
        }
    }
    envelope(&cand, h, false, tk)
}

/// The general candidate-envelope convolution: the kernel at [`Q64`] first;
/// if an intermediate leaves `i64`, the kernel again at [`Q`] with the
/// already issued ticks swallowed, so the meter sequence is identical to a
/// pure-`Q` run. Returns the final (already colinear-merged) piece list.
fn conv_general_pieces(
    f: &Curve,
    g: &Curve,
    h: Q,
    meter: &BudgetMeter,
) -> Result<Vec<Piece>, CurveError> {
    let pa = parts_of(f, h, meter)?;
    let pb = parts_of(g, h, meter)?;
    let mut tk = Ticker::new(meter);
    if let Some(pieces) = conv_kernel::<Q64>(&pa, &pb, h, &mut tk) {
        return Ok(pieces);
    }
    if tk.refused {
        return Err(tk.error());
    }
    let mut tk = Ticker::skipping(meter, tk.issued);
    conv_kernel::<Q>(&pa, &pb, h, &mut tk).ok_or_else(|| tk.error())
}

/// The deconvolution candidates over operand parts `pa` (on `[0, h +
/// u_cap]`) and `pb` (on `[0, u_cap]`): up to four affine fragments in `t`
/// per part pair, as derived in [`Curve::deconv_upto`]. Ticks `tk` once per
/// pair; `None` when the meter refuses or an intermediate overflows `i128`.
fn deconv_candidates(
    pa: &[Part<Q>],
    pb: &[Part<Q>],
    h: Q,
    u_cap: Q,
    tk: &mut Ticker,
) -> Option<Vec<Part<Q>>> {
    let hp1 = h.add(Q::ONE)?;
    // Up to four candidates per region pair; reserving once keeps the
    // inner loop allocation-free.
    let mut cand = Vec::with_capacity(pa.len() * pb.len() * 4);
    let mut add = |start: Q, end: Q, v_at_start: Q, r: Q| -> Option<()> {
        let s = start.max(Q::ZERO);
        let e = end.min(hp1);
        if s < e {
            cand.push(Part {
                start: s,
                end: e,
                v: v_at_start.add(r.mul(s.sub(start)?)?)?,
                r,
            });
        }
        Some(())
    };
    for a in pa {
        let (xk, xk1) = (a.start, a.end);
        for b in pb {
            tk.tick()?;
            let ulo = b.start;
            if ulo > u_cap {
                continue;
            }
            let uhi = b.end.min(u_cap);
            if uhi < ulo {
                continue;
            }
            let a_at_xk = a.eval(xk)?;
            let a_at_xk1 = a.eval(xk1)?;
            let b_at_ulo = b.eval(ulo)?;
            let b_at_uhi = b.eval(uhi)?;
            // Within the region u ∈ [ulo, uhi], t+u ∈ [xk, xk1] the
            // objective is affine in u; its supremum for fixed t sits at one
            // of four canonical points, each contributing an affine
            // candidate in t:
            // 1. u pinned at the region's lower end.
            add(xk.sub(ulo)?, xk1.sub(ulo)?, a_at_xk.sub(b_at_ulo)?, a.r)?;
            // 2. u approaching the region's upper end (limit value).
            add(xk.sub(uhi)?, xk1.sub(uhi)?, a_at_xk.sub(b_at_uhi)?, a.r)?;
            // 3. t+u pinned at the a-piece's left boundary: u = xk − t.
            add(xk.sub(uhi)?, xk.sub(ulo)?, a_at_xk.sub(b_at_uhi)?, b.r)?;
            // 4. t+u approaching the a-piece's right boundary:
            //    u = (xk1 − t)⁻ (limit value).
            add(xk1.sub(uhi)?, xk1.sub(ulo)?, a_at_xk1.sub(b_at_uhi)?, b.r)?;
        }
    }
    Some(cand)
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
        let pieces = match (self.shape(), other.shape()) {
            (Shape::Concave | Shape::Both, Shape::Concave | Shape::Both) => {
                return self.conv_concave(other, meter);
            }
            (Shape::Convex | Shape::Both, Shape::Convex | Shape::Both)
                if matches!(self.tail(), Tail::Affine)
                    && matches!(other.tail(), Tail::Affine) =>
            {
                self.conv_convex_pieces(other, h, meter)?
            }
            _ => conv_general_pieces(self, other, h, meter)?,
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
    ) -> Result<Vec<Piece>, CurveError> {
        let pa = parts_of(self, h, meter)?;
        let pb = parts_of(other, h, meter)?;
        // (slope, length) segments; parts_of caps the last extent at h+1,
        // so the combined lengths cover [0, h] with room to spare.
        let mut segs: Vec<(Q, Q)> = Vec::with_capacity(pa.len() + pb.len());
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
        let pieces = conv_general_pieces(self, other, h, meter)?;
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
        let pa = parts_of(self, ck_add(h, u_cap)?, meter)?;
        let pb = parts_of(other, u_cap, meter)?;
        let mut tk = Ticker::new(meter);
        let cand = deconv_candidates(&pa, &pb, h, u_cap, &mut tk).ok_or_else(|| tk.error())?;
        if cand.is_empty() {
            let c = self.eval(Q::ZERO).checked_sub(other.eval(Q::ZERO));
            return Ok(Curve::constant(c.ok_or(OVF)?));
        }
        let pieces = envelope(&cand, h, true, &mut tk).ok_or_else(|| tk.error())?;
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
    fn overflowing_values_are_a_typed_error_not_a_panic() {
        // Both value offsets are 2¹²⁶: the first candidate's value sum is
        // 2¹²⁷, past i128, so the kernel leaves Q64 and then Q.
        let big = Q::int(1 << 126);
        let a = Curve::staircase(Q::int(4), Q::int(3)).shift_up(big);
        let b = Curve::staircase(Q::int(5), Q::int(2)).shift_up(big);
        let got = a.try_conv_upto(&b, Q::int(40), &BudgetMeter::unlimited());
        assert_eq!(
            got,
            Err(CurveError::Arithmetic(crate::ArithmeticError::Overflow))
        );
    }
}
