//! Pointwise curve operations: minimum, maximum, addition, and the clamped
//! monotone difference used for leftover service computation.
//!
//! All operations are **exact**: the operands' tails (ultimately affine or
//! ultimately periodic) are analysed symbolically, a sufficient common
//! horizon is materialized, and the result is reassembled with a correct
//! tail descriptor. Unit tests cross-check every operation against pointwise
//! evaluation on dense rational grids.

use crate::curve::{Curve, Piece, Tail};
use crate::error::{ArithmeticError, CurveError};
use crate::meter::BudgetMeter;
use crate::ratio::Q;

/// The overflow error value, shared by the checked helpers below and the
/// convolution kernels.
pub(crate) const OVF: CurveError = CurveError::Arithmetic(ArithmeticError::Overflow);

pub(crate) fn ck_add(a: Q, b: Q) -> Result<Q, CurveError> {
    a.checked_add(b).ok_or(OVF)
}

pub(crate) fn ck_mul(a: Q, b: Q) -> Result<Q, CurveError> {
    a.checked_mul(b).ok_or(OVF)
}

/// Which pointwise operation to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PointOp {
    Add,
    Min,
    Max,
}

/// Symbolic description of a curve's behaviour beyond its tail start:
/// `f(t) = base + rate·(t − s) + dev(t)` with `dev(t) ∈ [dev_min, dev_max]`
/// (and `dev` periodic for periodic tails, identically zero for affine ones).
#[derive(Debug, Clone, Copy)]
pub(crate) struct TailInfo {
    /// Tail start.
    pub(crate) s: Q,
    /// Long-run rate.
    pub(crate) rate: Q,
    /// Period of the deviation (`None` for affine tails).
    pub(crate) period: Option<Q>,
    /// `f(s)`.
    pub(crate) base: Q,
    /// Lower bound on the deviation from the linear reference.
    pub(crate) dev_min: Q,
    /// Upper bound on the deviation from the linear reference.
    pub(crate) dev_max: Q,
}

impl TailInfo {
    pub(crate) fn of(c: &Curve) -> TailInfo {
        let s = c.tail_start();
        let rate = c.rate();
        let base = c.eval(s);
        match c.tail() {
            Tail::Affine => TailInfo {
                s,
                rate,
                period: None,
                base,
                dev_min: Q::ZERO,
                dev_max: Q::ZERO,
            },
            Tail::Periodic {
                pattern_start,
                period,
                ..
            } => {
                let pieces = c.pieces();
                let mut dev_min = Q::ZERO;
                let mut dev_max = Q::ZERO;
                let reference = |t: Q| base + rate * (t - s);
                for i in pattern_start..pieces.len() {
                    let p = pieces[i];
                    let end = if i + 1 < pieces.len() {
                        pieces[i + 1].start
                    } else {
                        s + period
                    };
                    let d_start = p.value - reference(p.start);
                    let d_end = p.eval(end) - reference(end);
                    dev_min = dev_min.min(d_start).min(d_end);
                    dev_max = dev_max.max(d_start).max(d_end);
                }
                TailInfo {
                    s,
                    rate,
                    period: Some(period),
                    base,
                    dev_min,
                    dev_max,
                }
            }
        }
    }

    /// A linear function that upper-bounds `f` for all `t ≥ s`:
    /// returns `(offset, rate)` with `f(t) ≤ offset + rate·t`.
    pub(crate) fn upper_line(&self) -> (Q, Q) {
        (self.base - self.rate * self.s + self.dev_max, self.rate)
    }

    /// A linear function that lower-bounds `f` for all `t ≥ s`.
    pub(crate) fn lower_line(&self) -> (Q, Q) {
        (self.base - self.rate * self.s + self.dev_min, self.rate)
    }
}

/// Combines two curves pointwise on `[0, upto)`, splitting at crossings for
/// min/max. `anchors` are extra mandatory breakpoints (e.g. the future
/// pattern start). Both operands must be affine within every elementary
/// interval of the produced grid, which holds because the grid contains all
/// piece starts below `upto`.
fn combine_pieces(
    a: &Curve,
    b: &Curve,
    upto: Q,
    anchors: &[Q],
    op: PointOp,
    meter: &BudgetMeter,
) -> Result<Vec<Piece>, CurveError> {
    let pa = a.try_pieces_upto(upto, meter)?;
    let pb = b.try_pieces_upto(upto, meter)?;
    let mut ev: Vec<Q> = pa
        .iter()
        .chain(pb.iter())
        .map(|p| p.start)
        .filter(|s| *s < upto)
        .chain(anchors.iter().copied().filter(|s| *s < upto))
        .collect();
    ev.push(Q::ZERO);
    ev.sort();
    ev.dedup();

    let slope_in = |pieces: &[Piece], t: Q| -> (Q, Q) {
        // (value, slope) of the piece governing `t`.
        let idx = match pieces.binary_search_by(|p| p.start.cmp(&t)) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        };
        (pieces[idx].eval(t), pieces[idx].slope)
    };

    let mut out: Vec<Piece> = Vec::with_capacity(ev.len() + 4);
    for (i, &e) in ev.iter().enumerate() {
        let next = ev.get(i + 1).copied().unwrap_or(upto);
        let (va, sa) = slope_in(&pa, e);
        let (vb, sb) = slope_in(&pb, e);
        match op {
            PointOp::Add => out.push(Piece::new(e, va + vb, sa + sb)),
            PointOp::Min | PointOp::Max => {
                let want_min = op == PointOp::Min;
                // Crossing of the two affine extensions inside (e, next)?
                let mut split: Option<Q> = None;
                if sa != sb {
                    let x = e + (vb - va) / (sa - sb);
                    if e < x && x < next {
                        split = Some(x);
                    }
                }
                let pick = |va: Q, vb: Q, sa: Q, sb: Q| -> (Q, Q) {
                    // Which operand realizes the extremum on [e, next)?
                    // Compare values at e, ties broken by slope (after a
                    // tie no crossing can occur strictly inside).
                    let a_chosen = if want_min {
                        va < vb || (va == vb && sa <= sb)
                    } else {
                        va > vb || (va == vb && sa >= sb)
                    };
                    if a_chosen {
                        (va, sa)
                    } else {
                        (vb, sb)
                    }
                };
                match split {
                    None => {
                        let (v, s) = pick(va, vb, sa, sb);
                        out.push(Piece::new(e, v, s));
                    }
                    Some(x) => {
                        let (v1, s1) = pick(va, vb, sa, sb);
                        out.push(Piece::new(e, v1, s1));
                        // At the crossing both sides agree in value; the
                        // winner switches slope.
                        let vx = va + sa * (x - e);
                        let s2 = if s1 == sa { sb } else { sa };
                        out.push(Piece::new(x, vx, s2));
                    }
                }
            }
        }
    }
    Ok(out)
}

/// Picks the common analysis period of two tails (for equal-rate or additive
/// combinations): the lcm of the periods present, or `None` if both affine.
/// Huge coprime periods make the lcm overflow
/// `i128`, which surfaces as [`CurveError::Arithmetic`] here instead of an
/// abort.
pub(crate) fn try_common_period(a: &TailInfo, b: &TailInfo) -> Result<Option<Q>, CurveError> {
    match (a.period, b.period) {
        (None, None) => Ok(None),
        (Some(p), None) | (None, Some(p)) => Ok(Some(p)),
        (Some(p1), Some(p2)) => Q::try_lcm(p1, p2)
            .map(Some)
            .map_err(CurveError::Arithmetic),
    }
}

/// The kernel behind the pointwise entry points: returns the combined
/// pieces and tail descriptor *before* curve construction.
fn try_pointwise_parts(
    a: &Curve,
    b: &Curve,
    op: PointOp,
    meter: &BudgetMeter,
) -> Result<(Vec<Piece>, Tail), CurveError> {
    let ta = TailInfo::of(a);
    let tb = TailInfo::of(b);
    let h0 = ta.s.max(tb.s);

    // Case 1: addition, or min/max with equal long-run rates.
    let equal_rates = ta.rate == tb.rate;
    if op == PointOp::Add || equal_rates {
        match try_common_period(&ta, &tb)? {
            None => {
                // Both affine. For Add the result is affine immediately; for
                // min/max the rates are equal here (distinct rates take the
                // branch below), so the lines are parallel and any horizon
                // past both tail starts works.
                let h = ck_add(h0, Q::ONE)?;
                let pieces = combine_pieces(a, b, h, &[], op, meter)?;
                Ok((pieces, Tail::Affine))
            }
            Some(p) => {
                let rate = match op {
                    PointOp::Add => ck_add(ta.rate, tb.rate)?,
                    _ => ta.rate, // equal rates
                };
                let upto = ck_add(h0, p)?;
                let pieces = combine_pieces(a, b, upto, &[h0], op, meter)?;
                let pattern_start = pieces
                    .iter()
                    .position(|q| q.start >= h0)
                    .expect("anchor piece present");
                let tail = Tail::Periodic {
                    pattern_start,
                    period: p,
                    increment: ck_mul(rate, p)?,
                };
                Ok((pieces, tail))
            }
        }
    } else {
        // Case 2: min/max with distinct rates — one curve eventually wins.
        debug_assert!(op == PointOp::Min || op == PointOp::Max);
        let a_wins = if op == PointOp::Min {
            ta.rate < tb.rate
        } else {
            ta.rate > tb.rate
        };
        let (w, wi, li) = if a_wins { (a, ta, tb) } else { (b, tb, ta) };
        // Find T0 such that the winner is certainly chosen for all t ≥ T0:
        // compare the winner's bounding line against the loser's.
        let ((wo, wr), (lo, lr)) = if op == PointOp::Min {
            (wi.upper_line(), li.lower_line())
        } else {
            (wi.lower_line(), li.upper_line())
        };
        // Solve wo + wr·t ≤/≥ lo + lr·t  ⇒  t ≥ (wo − lo)/(lr − wr) (min case).
        let t0 = (wo - lo) / (lr - wr);
        let t0 = t0.max(h0);
        match wi.period {
            None => {
                let h = ck_add(t0, Q::ONE)?;
                let pieces = combine_pieces(a, b, h, &[], op, meter)?;
                Ok((pieces, Tail::Affine))
            }
            Some(pw) => {
                // Align the future pattern start to the winner's grid.
                let k = ((t0 - wi.s) / pw).ceil().max(0);
                let hstar = ck_add(wi.s, ck_mul(pw, Q::int(k))?)?;
                let upto = ck_add(hstar, pw)?;
                let pieces = combine_pieces(a, b, upto, &[hstar], op, meter)?;
                let pattern_start = pieces
                    .iter()
                    .position(|q| q.start >= hstar)
                    .expect("anchor piece present");
                let increment = match w.tail() {
                    Tail::Periodic { increment, .. } => increment,
                    Tail::Affine => unreachable!("winner has periodic tail"),
                };
                let tail = Tail::Periodic {
                    pattern_start,
                    period: pw,
                    increment,
                };
                Ok((pieces, tail))
            }
        }
    }
}

fn try_pointwise(
    a: &Curve,
    b: &Curve,
    op: PointOp,
    meter: &BudgetMeter,
) -> Result<Curve, CurveError> {
    let (pieces, tail) = try_pointwise_parts(a, b, op, meter)?;
    Ok(Curve::new(pieces, tail).expect("pointwise result invalid"))
}

fn pointwise(a: &Curve, b: &Curve, op: PointOp) -> Curve {
    try_pointwise(a, b, op, &BudgetMeter::unlimited())
        .expect("unmetered pointwise operation failed")
}

impl Curve {
    /// Pointwise minimum `t ↦ min(f(t), g(t))`, exact for all tail
    /// combinations.
    ///
    /// # Examples
    ///
    /// ```
    /// use srtw_minplus::{Curve, Q, q};
    /// let a = Curve::affine(Q::int(4), q(1, 2));
    /// let b = Curve::affine(Q::ZERO, Q::ONE);
    /// let m = a.pointwise_min(&b);
    /// assert_eq!(m.eval(Q::int(2)), Q::int(2));   // b below
    /// assert_eq!(m.eval(Q::int(100)), Q::int(54)); // a below
    /// ```
    #[must_use]
    pub fn pointwise_min(&self, other: &Curve) -> Curve {
        pointwise(self, other, PointOp::Min)
    }

    /// Pointwise maximum `t ↦ max(f(t), g(t))`, exact for all tail
    /// combinations.
    #[must_use]
    pub fn pointwise_max(&self, other: &Curve) -> Curve {
        pointwise(self, other, PointOp::Max)
    }

    /// Pointwise sum `t ↦ f(t) + g(t)`, exact for all tail combinations.
    #[must_use]
    pub fn pointwise_add(&self, other: &Curve) -> Curve {
        pointwise(self, other, PointOp::Add)
    }

    /// Fallible, budgeted [`Curve::pointwise_min`]: surfaces `i128`
    /// overflow (e.g. an lcm of huge coprime periods) as
    /// [`CurveError::Arithmetic`] and budget exhaustion as
    /// [`CurveError::Budget`] instead of aborting or hanging.
    pub fn try_pointwise_min(
        &self,
        other: &Curve,
        meter: &BudgetMeter,
    ) -> Result<Curve, CurveError> {
        try_pointwise(self, other, PointOp::Min, meter)
    }

    /// The non-decreasing clamped difference
    /// `t ↦ sup_{0≤s≤t} max(0, f(s) − g(s))`.
    ///
    /// This is the classical "leftover" closure used to derive remaining
    /// service curves (e.g. blind multiplexing: `β' = [β − α]⁺↑`).
    #[must_use]
    pub fn sub_clamped_monotone(&self, other: &Curve) -> Curve {
        self.try_sub_clamped_monotone(other, &BudgetMeter::unlimited())
            .expect("unmetered sub_clamped_monotone failed")
    }

    /// Fallible, budgeted [`Curve::sub_clamped_monotone`]: surfaces `i128`
    /// overflow and budget exhaustion as errors instead of aborting or
    /// materializing an astronomically long common period.
    pub fn try_sub_clamped_monotone(
        &self,
        other: &Curve,
        meter: &BudgetMeter,
    ) -> Result<Curve, CurveError> {
        let (pieces, tail) = try_sub_clamped_parts(self, other, meter)?;
        Ok(Curve::new(pieces, tail).expect("sub_clamped_monotone result invalid"))
    }

    /// Pointwise minimum over a non-empty set of curves.
    ///
    /// # Panics
    ///
    /// Panics if `curves` is empty.
    pub fn min_of(curves: &[Curve]) -> Curve {
        let (first, rest) = curves.split_first().expect("min_of of empty slice");
        rest.iter().fold(first.clone(), |acc, c| acc.pointwise_min(c))
    }

    /// Pointwise sum over a set of curves (zero curve for an empty slice).
    pub fn sum_of(curves: &[Curve]) -> Curve {
        curves
            .iter()
            .fold(Curve::zero(), |acc, c| acc.pointwise_add(c))
    }
}

/// The kernel behind [`Curve::try_sub_clamped_monotone`]: returns the
/// result's pieces and tail descriptor before curve construction.
fn try_sub_clamped_parts(
    f: &Curve,
    g: &Curve,
    meter: &BudgetMeter,
) -> Result<(Vec<Piece>, Tail), CurveError> {
    let ta = TailInfo::of(f);
    let tb = TailInfo::of(g);
    let h0 = ta.s.max(tb.s);
    let p = try_common_period(&ta, &tb)?.unwrap_or(Q::ONE);
    let dr = ta.rate - tb.rate;

    // First pass: running max on a generous base horizon.
    let h1 = ck_add(ck_add(h0, p)?, p)?;
    let (_, m1) = running_max_diff(f, g, h1, &[], meter)?;

    if dr.is_positive() {
        // The difference eventually grows. The running max becomes
        // periodic once the window is long enough that the drift over
        // one analysis period exceeds the total oscillation of the
        // difference — enlarge the period accordingly.
        let osc = (ta.dev_max - ta.dev_min) + (tb.dev_max - tb.dev_min);
        let enlarge = (osc / (dr * p)).ceil().max(0) + 1;
        let pp = ck_mul(p, Q::int(enlarge))?;
        let (alo, ar) = ta.lower_line();
        let (bup, br) = tb.upper_line();
        // diff(t) ≥ (alo − bup) + dr·t ≥ m1  ⇒  t ≥ (m1 − alo + bup)/dr
        let t0 = ((m1 - alo + bup) / (ar - br)).max(ck_add(h0, pp)?);
        let k = ((t0 - h0) / pp).ceil().max(0) + 1;
        let hstar = ck_add(h0, ck_mul(pp, Q::int(k))?)?;
        let (pieces, _) = running_max_diff(f, g, ck_add(hstar, pp)?, &[hstar], meter)?;
        let pattern_start = pieces
            .iter()
            .position(|q| q.start >= hstar)
            .expect("pattern anchor");
        let tail = Tail::Periodic {
            pattern_start,
            period: pp,
            increment: ck_mul(dr, pp)?,
        };
        Ok((pieces, tail))
    } else if dr.is_zero() {
        // The difference is eventually periodic with zero net growth:
        // the maximum over one aligned period beyond h0 is global.
        let h = ck_add(h0, p)?;
        let (mut pieces, m) = running_max_diff(f, g, h, &[], meter)?;
        pieces.push(Piece::new(h, m, Q::ZERO));
        Ok((pieces, Tail::Affine))
    } else {
        // Negative drift: the difference's upper bounding line decays;
        // once it is below the historical max, the running max is final.
        let (aup, ar) = ta.upper_line();
        let (blo, br) = tb.lower_line();
        // diff(t) ≤ (aup − blo) + dr·t ≤ m1  ⇐  t ≥ (aup − blo − m1)/(−dr)
        let t0 = ((aup - blo - m1) / (br - ar)).max(h0) + Q::ONE;
        let (mut pieces, m) = running_max_diff(f, g, t0, &[], meter)?;
        pieces.push(Piece::new(t0, m, Q::ZERO));
        Ok((pieces, Tail::Affine))
    }
}

/// Computes the running max `M(t) = sup_{s≤t} (f(s) − g(s))⁺` as explicit
/// pieces on `[0, h)`, returning them together with the final max value
/// (the left limit of `M` at `h`). `anchors` are extra mandatory
/// breakpoints. Budgeted via `meter`; errs when materializing either
/// operand up to `h` exhausts the segment budget or overflows.
pub(crate) fn running_max_diff(
    f: &Curve,
    g: &Curve,
    h: Q,
    anchors: &[Q],
    meter: &BudgetMeter,
) -> Result<(Vec<Piece>, Q), CurveError> {
    let pf = f.try_pieces_upto(h, meter)?;
    let pg = g.try_pieces_upto(h, meter)?;
    let mut ev: Vec<Q> = pf
        .iter()
        .chain(pg.iter())
        .map(|p| p.start)
        .filter(|s| *s < h)
        .chain(anchors.iter().copied().filter(|s| *s < h))
        .collect();
    ev.push(Q::ZERO);
    ev.sort();
    ev.dedup();

    let at = |pieces: &[Piece], t: Q| -> (Q, Q) {
        let idx = match pieces.binary_search_by(|p| p.start.cmp(&t)) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        };
        (pieces[idx].eval(t), pieces[idx].slope)
    };

    let mut out: Vec<Piece> = Vec::new();
    let mut m = Q::ZERO;
    let push = |p: Piece, out: &mut Vec<Piece>| {
        if let Some(last) = out.last() {
            // Keep anchor breakpoints explicit: callers locate them later.
            if !anchors.contains(&p.start)
                && last.slope == p.slope
                && last.eval(p.start) == p.value
            {
                return; // colinear continuation
            }
        }
        out.push(p);
    };
    for (i, &e) in ev.iter().enumerate() {
        let next = ev.get(i + 1).copied().unwrap_or(h);
        let (vf, sf) = at(&pf, e);
        let (vg, sg) = at(&pg, e);
        let v = vf - vg; // diff value at e
        let s = sf - sg; // diff slope on [e, next)
        let v_end = v + s * (next - e);
        if v >= m {
            // Diff already at or above the running max.
            if s.is_positive() {
                push(Piece::new(e, v, s), &mut out);
                m = v_end;
            } else {
                push(Piece::new(e, v.max(m), Q::ZERO), &mut out);
                m = m.max(v);
            }
        } else if v_end > m && s.is_positive() {
            // Diff crosses the running max inside the interval.
            let x = e + (m - v) / s;
            push(Piece::new(e, m, Q::ZERO), &mut out);
            push(Piece::new(x, m, s), &mut out);
            m = v_end;
        } else {
            push(Piece::new(e, m, Q::ZERO), &mut out);
        }
    }
    Ok((out, m))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ratio::q;

    /// Dense-grid oracle: checks `combined.eval(t) == op(a(t), b(t))` for
    /// many rational sample points including far beyond all tail starts.
    fn check_pointwise(a: &Curve, b: &Curve, c: &Curve, op: fn(Q, Q) -> Q) {
        for num in 0..400 {
            let t = q(num, 3);
            let expect = op(a.eval(t), b.eval(t));
            assert_eq!(
                c.eval(t),
                expect,
                "mismatch at t = {t}: {} vs {}",
                c.eval(t),
                expect
            );
        }
    }

    #[test]
    fn add_affine_affine() {
        let a = Curve::rate_latency(Q::ONE, Q::int(3));
        let b = Curve::affine(Q::int(2), q(1, 2));
        let c = a.pointwise_add(&b);
        check_pointwise(&a, &b, &c, |x, y| x + y);
        assert_eq!(c.rate(), q(3, 2));
    }

    #[test]
    fn add_periodic_affine() {
        let a = Curve::staircase(Q::int(5), Q::int(2));
        let b = Curve::rate_latency(q(1, 3), Q::int(4));
        let c = a.pointwise_add(&b);
        check_pointwise(&a, &b, &c, |x, y| x + y);
        assert_eq!(c.rate(), q(2, 5) + q(1, 3));
    }

    #[test]
    fn add_periodic_periodic() {
        let a = Curve::staircase(Q::int(4), Q::int(3));
        let b = Curve::staircase(Q::int(6), Q::ONE);
        let c = a.pointwise_add(&b);
        check_pointwise(&a, &b, &c, |x, y| x + y);
    }

    #[test]
    fn min_distinct_rates_affine() {
        let a = Curve::affine(Q::int(4), q(1, 2)); // wins eventually? rate 1/2
        let b = Curve::affine(Q::ZERO, Q::ONE); // lower early
        let c = a.pointwise_min(&b);
        check_pointwise(&a, &b, &c, |x, y| x.min(y));
        assert_eq!(c.rate(), q(1, 2));
        let d = a.pointwise_max(&b);
        check_pointwise(&a, &b, &d, |x, y| x.max(y));
        assert_eq!(d.rate(), Q::ONE);
    }

    #[test]
    fn min_periodic_vs_affine_distinct_rates() {
        // Staircase rate 2/5 vs affine rate 1: staircase wins the min.
        let a = Curve::staircase(Q::int(5), Q::int(2));
        let b = Curve::affine(Q::ZERO, Q::ONE);
        let c = a.pointwise_min(&b);
        check_pointwise(&a, &b, &c, |x, y| x.min(y));
        assert_eq!(c.rate(), q(2, 5));
        // And the affine curve wins the max.
        let d = a.pointwise_max(&b);
        check_pointwise(&a, &b, &d, |x, y| x.max(y));
        assert_eq!(d.rate(), Q::ONE);
    }

    #[test]
    fn min_periodic_vs_periodic_distinct_rates() {
        let a = Curve::staircase(Q::int(3), Q::int(2)); // rate 2/3
        let b = Curve::staircase(Q::int(7), Q::int(3)); // rate 3/7
        let c = a.pointwise_min(&b);
        check_pointwise(&a, &b, &c, |x, y| x.min(y));
        assert_eq!(c.rate(), q(3, 7));
    }

    #[test]
    fn min_equal_rates_periodic() {
        // Same rate 1/2, different phases: result stays periodic.
        let a = Curve::staircase(Q::int(4), Q::int(2));
        let b = Curve::staircase(Q::int(2), Q::ONE).shift_up(Q::ONE);
        let c = a.pointwise_min(&b);
        check_pointwise(&a, &b, &c, |x, y| x.min(y));
        assert_eq!(c.rate(), q(1, 2));
        let d = a.pointwise_max(&b);
        check_pointwise(&a, &b, &d, |x, y| x.max(y));
    }

    #[test]
    fn min_equal_rates_affine_parallel() {
        let a = Curve::affine(Q::int(3), Q::ONE);
        let b = Curve::affine(Q::ONE, Q::ONE);
        let c = a.pointwise_min(&b);
        check_pointwise(&a, &b, &c, |x, y| x.min(y));
        let d = a.pointwise_max(&b);
        check_pointwise(&a, &b, &d, |x, y| x.max(y));
    }

    #[test]
    fn min_rate_latency_pair() {
        // Two rate-latency curves crossing once.
        let a = Curve::rate_latency(Q::int(2), Q::int(1));
        let b = Curve::rate_latency(Q::ONE, Q::ZERO);
        let c = a.pointwise_min(&b);
        check_pointwise(&a, &b, &c, |x, y| x.min(y));
        let d = a.pointwise_max(&b);
        check_pointwise(&a, &b, &d, |x, y| x.max(y));
    }

    #[test]
    fn min_of_and_sum_of() {
        let curves = vec![
            Curve::affine(Q::int(5), q(1, 3)),
            Curve::staircase(Q::int(4), Q::int(2)),
            Curve::rate_latency(Q::ONE, Q::int(2)),
        ];
        let m = Curve::min_of(&curves);
        let s = Curve::sum_of(&curves);
        for num in 0..300 {
            let t = q(num, 2);
            let vals: Vec<Q> = curves.iter().map(|c| c.eval(t)).collect();
            assert_eq!(m.eval(t), vals.iter().copied().fold(vals[0], Q::min));
            assert_eq!(s.eval(t), vals.iter().copied().fold(Q::ZERO, |a, b| a + b));
        }
    }

    #[test]
    #[should_panic(expected = "min_of of empty slice")]
    fn min_of_empty_panics() {
        let _ = Curve::min_of(&[]);
    }

    /// Brute-force oracle for the running-max difference. Samples a dense
    /// grid that contains every breakpoint of the integer-parameter test
    /// curves, and additionally probes left limits there (the supremum may
    /// only be approached from the left at a downward jump of `f − g`).
    fn brute_sub_clamped(f: &Curve, g: &Curve, t: Q, steps: i128) -> Q {
        let mut m = Q::ZERO;
        for i in 0..=steps {
            let s = t * q(i, steps);
            m = m.max((f.eval(s) - g.eval(s)).clamp_nonneg());
            m = m.max((f.eval_left(s) - g.eval_left(s)).clamp_nonneg());
        }
        m
    }

    #[test]
    fn sub_clamped_monotone_positive_drift() {
        // β − α with β growing faster: leftover service.
        let beta = Curve::rate_latency(Q::int(2), Q::int(3));
        let alpha = Curve::staircase(Q::int(4), Q::int(3)); // rate 3/4 < 2
        let left = beta.sub_clamped_monotone(&alpha);
        for num in 0..160 {
            let t = q(num, 2);
            assert_eq!(
                left.eval(t),
                brute_sub_clamped(&beta, &alpha, t, 4 * num.max(1)),
                "at t = {t}"
            );
        }
        assert_eq!(left.rate(), Q::int(2) - q(3, 4));
    }

    #[test]
    fn sub_clamped_monotone_zero_drift() {
        let a = Curve::staircase(Q::int(4), Q::int(2));
        let b = Curve::affine(Q::ZERO, q(1, 2));
        let d = a.sub_clamped_monotone(&b);
        for num in 0..160 {
            let t = q(num, 2);
            assert_eq!(d.eval(t), brute_sub_clamped(&a, &b, t, 4 * num.max(1)));
        }
        assert_eq!(d.rate(), Q::ZERO);
    }

    #[test]
    fn sub_clamped_monotone_negative_drift() {
        let a = Curve::affine(Q::int(5), q(1, 4));
        let b = Curve::rate_latency(Q::ONE, Q::int(2));
        let d = a.sub_clamped_monotone(&b);
        for num in 0..160 {
            let t = q(num, 2);
            assert_eq!(d.eval(t), brute_sub_clamped(&a, &b, t, 4 * num.max(1)));
        }
        assert_eq!(d.rate(), Q::ZERO);
        // Eventually flat at the early maximum 5 + t/4 - (t-2) capped: max at
        // the crossing region; just check monotone and bounded.
        assert!(d.eval(Q::int(1000)) <= Q::int(7));
    }

    #[test]
    fn results_are_monotone_curves() {
        // The Curve constructor enforces monotonicity; exercising a few
        // combinations shouldn't panic.
        let curves = vec![
            Curve::zero(),
            Curve::constant(Q::int(3)),
            Curve::affine(Q::ONE, q(2, 3)),
            Curve::rate_latency(q(3, 2), q(5, 2)),
            Curve::staircase(q(7, 2), Q::int(2)),
            Curve::staircase_lower(Q::int(3), Q::ONE),
        ];
        for a in &curves {
            for b in &curves {
                let _ = a.pointwise_min(b);
                let _ = a.pointwise_max(b);
                let _ = a.pointwise_add(b);
                let _ = a.sub_clamped_monotone(b);
            }
        }
    }
}
