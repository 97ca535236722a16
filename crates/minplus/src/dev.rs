//! Pseudo-inverse and horizontal / vertical deviations.
//!
//! The classical Real-Time-Calculus performance bounds are
//!
//! * **delay**: `hdev(α, β) = sup_t inf { d ≥ 0 : α(t) ≤ β(t + d) }` — the
//!   maximal horizontal distance by which the demand curve `α` leads the
//!   service curve `β`;
//! * **backlog**: `vdev(α, β) = sup_t ( α(t) − β(t) )` — the maximal
//!   vertical gap.
//!
//! Both are computed exactly here, including the tail analysis deciding
//! finiteness (a demand rate exceeding the service rate yields
//! [`Ext::Infinite`]).

use crate::curve::{Curve, Piece, Tail};
use crate::error::CurveError;
use crate::extended::Ext;
use crate::meter::{BudgetKind, BudgetMeter};
use crate::ops::{ck_add, running_max_diff, try_common_period, TailInfo};
use crate::ratio::Q;
use crate::stream::Unroll;

impl Curve {
    /// Lower pseudo-inverse: `f⁻¹(w) = inf { t ≥ 0 : f(t) ≥ w }`.
    ///
    /// Returns [`Ext::Infinite`] if the curve never reaches `w`.
    ///
    /// # Examples
    ///
    /// ```
    /// use srtw_minplus::{Curve, Ext, Q, q};
    /// let beta = Curve::rate_latency(Q::int(2), Q::int(3));
    /// assert_eq!(beta.pseudo_inverse(Q::int(4)), Ext::Finite(Q::int(5)));
    /// assert_eq!(beta.pseudo_inverse(Q::ZERO), Ext::Finite(Q::ZERO));
    /// let flat = Curve::constant(Q::ONE);
    /// assert_eq!(flat.pseudo_inverse(Q::int(2)), Ext::Infinite);
    /// ```
    pub fn pseudo_inverse(&self, w: Q) -> Ext {
        // Pieces before the first whose reach attains `w` end below it; a
        // piece starting at or above `w` answers with its start, any
        // other one reaching `w` crosses it on its (positive) slope, and
        // an affine tail's last piece (no reach) may never reach it.
        let pieces = self.pieces();
        let reach = self.reach();
        let i = reach.partition_point(|&r| r < w);
        let t = match self.tail() {
            // Only under a periodic tail can `w` lie above every reach:
            // above the first pattern instance's maximum. The first
            // instance `k ≥ 1` whose lifted maximum reaches `w` is then
            // searched at `w` lowered by `k` increments.
            Tail::Periodic {
                pattern_start,
                period,
                increment,
            } if i == pieces.len() => {
                if increment.is_zero() {
                    return Ext::Infinite;
                }
                let k = Q::int(((w - reach[i - 1]) / increment).ceil());
                let target = w - increment * k;
                let j = pattern_start + reach[pattern_start..].partition_point(|&r| r < target);
                first_reaching(pieces[j], target).map(|t| t + period * k)
            }
            _ => first_reaching(pieces[i], w),
        };
        t.map_or(Ext::Infinite, Ext::Finite)
    }

    /// Vertical deviation `sup_t (self(t) − other(t))`, clamped at 0.
    ///
    /// Returns [`Ext::Infinite`] when `self` grows strictly faster than
    /// `other`.
    ///
    /// # Examples
    ///
    /// ```
    /// use srtw_minplus::{Curve, Ext, Q};
    /// let alpha = Curve::staircase(Q::int(4), Q::int(2)); // rate 1/2
    /// let beta = Curve::rate_latency(Q::ONE, Q::int(3));  // rate 1
    /// // Worst backlog at t = 4: demand 4 arrived, only 1 served.
    /// assert_eq!(alpha.vdev(&beta), Ext::Finite(Q::int(3)));
    /// ```
    pub fn vdev(&self, other: &Curve) -> Ext {
        self.try_vdev(other, &BudgetMeter::unlimited())
            .expect("unmetered vdev failed")
    }

    /// Fallible, budgeted [`Curve::vdev`]: surfaces `i128` overflow (e.g.
    /// an lcm of huge coprime periods) and budget exhaustion as errors.
    pub fn try_vdev(&self, other: &Curve, meter: &BudgetMeter) -> Result<Ext, CurveError> {
        let ta = TailInfo::of(self);
        let tb = TailInfo::of(other);
        if ta.rate > tb.rate {
            return Ok(Ext::Infinite);
        }
        let h0 = ta.s.max(tb.s);
        let p = try_common_period(&ta, &tb)?.unwrap_or(Q::ONE);
        if ta.rate == tb.rate {
            // Difference eventually periodic with zero net growth: one
            // aligned period beyond both tails carries the global maximum.
            let (_, m) = running_max_diff(self, other, ck_add(h0, p)?, &[], meter)?;
            Ok(Ext::Finite(m))
        } else {
            // Negative drift: settle once the difference's upper bounding
            // line falls below the running maximum so far.
            let h1 = ck_add(ck_add(h0, p)?, p)?;
            let (_, m1) = running_max_diff(self, other, h1, &[], meter)?;
            let (aup, ar) = ta.upper_line();
            let (blo, br) = tb.lower_line();
            let t0 = ((aup - blo - m1) / (br - ar)).max(h0) + Q::ONE;
            let (_, m) = running_max_diff(self, other, t0, &[], meter)?;
            Ok(Ext::Finite(m))
        }
    }

    /// Horizontal deviation
    /// `sup_t inf { d ≥ 0 : self(t) ≤ other(t + d) }` — the classical
    /// worst-case **delay bound** of demand `self` served by `other`.
    ///
    /// Returns [`Ext::Infinite`] when the demand rate exceeds the service
    /// rate, or when `other` saturates below `self`'s reach.
    ///
    /// # Examples
    ///
    /// ```
    /// use srtw_minplus::{Curve, Ext, Q};
    /// let alpha = Curve::staircase(Q::int(4), Q::int(2)); // 2 units / 4 time
    /// let beta = Curve::rate_latency(Q::ONE, Q::int(3));
    /// // Burst of 2 at t=0 finishes at 3 + 2 = 5 ⇒ delay 5.
    /// assert_eq!(alpha.hdev(&beta), Ext::Finite(Q::int(5)));
    /// ```
    pub fn hdev(&self, other: &Curve) -> Ext {
        self.try_hdev(other, &BudgetMeter::unlimited())
            .expect("unmetered hdev failed")
    }

    /// Fallible, budgeted [`Curve::hdev`]: surfaces `i128` overflow (the
    /// check horizon is an lcm of the operands' periods, which huge coprime
    /// periods push past `i128`) and budget exhaustion as errors instead of
    /// aborting or materializing an astronomically long window.
    pub fn try_hdev(&self, other: &Curve, meter: &BudgetMeter) -> Result<Ext, CurveError> {
        let ta = TailInfo::of(self);
        let tb = TailInfo::of(other);
        if ta.rate > tb.rate {
            return Ok(Ext::Infinite);
        }
        if ta.rate == tb.rate && ta.rate.is_zero() {
            // Both saturate; compare the limits.
            let la = ta.base + ta.dev_max; // actually suprema of bounded curves
            let lb_sup = tb.base + tb.dev_max;
            if la > lb_sup {
                // self's eventual level may exceed other's: decide exactly
                // via pseudo-inverse of the supremum demand.
                let h = crate::curve::try_common_check_horizon(self, other)?;
                let sup_demand = self.eval(h).max(self.eval_left(h));
                if other.pseudo_inverse(sup_demand).is_infinite() {
                    return Ok(Ext::Infinite);
                }
            }
        }

        // Horizon beyond which the deviation cannot attain a new supremum.
        let h = if ta.rate == tb.rate {
            // Deviation eventually periodic: one aligned lcm window beyond
            // both tails repeats forever.
            crate::curve::try_common_check_horizon(self, other)?
        } else {
            // Service strictly faster: beyond the settle point d(t) ≤ d at
            // the settle point (the gap only widens). Settle where the
            // demand's upper line is below the service's lower line.
            let (aup, ar) = ta.upper_line();
            let (blo, br) = tb.lower_line();
            let t0 = ((aup - blo) / (br - ar)).max(ta.s).max(tb.s);
            t0 + Q::ONE
        };

        // Candidate times: demand breakpoints, plus times where the demand
        // crosses a service breakpoint's value (there the service
        // pseudo-inverse kinks). Both scans stream the unrolled pieces
        // instead of materializing them (same tick sequence).
        let mut cands: Vec<Q> = Vec::new();
        for ev in Unroll::new(self, h, meter) {
            let p = ev?;
            if p.start <= h {
                cands.push(p.start);
            }
        }
        let demand_max = self.eval(h);
        // Stream service breakpoints up to the service time that covers the
        // maximal demand, with one event of lookahead for the left limits.
        let bh = match other.pseudo_inverse(demand_max) {
            Ext::Finite(t) => t + Q::ONE,
            Ext::Infinite => return Ok(Ext::Infinite),
        };
        let mut service_stream = Unroll::new(other, bh, meter);
        let mut pending = service_stream.next().transpose()?;
        while let Some(p) = pending {
            let next = service_stream.next().transpose()?;
            // Both the piece's start value and its left limit at the next
            // breakpoint are levels where other's pseudo-inverse kinks.
            let levels = [Some(p.value), next.map(|n| p.eval(n.start))];
            for v in levels.into_iter().flatten() {
                if let Ext::Finite(t) = self.pseudo_inverse(v) {
                    if t <= h {
                        cands.push(t);
                    }
                }
            }
            pending = next;
        }
        cands.push(Q::ZERO);
        cands.push(h);
        cands.retain(|t| !t.is_negative());
        cands.sort();
        cands.dedup();

        // d(t) = other⁻¹(self(t)) − t is affine on the open interval
        // between refined candidates (the refinement keeps self(t) within a
        // single affine stretch of other's pseudo-inverse). Evaluate d at
        // every candidate, and recover the interval's one-sided limits by
        // extrapolating from two interior samples — d may jump *up* right
        // after a candidate (e.g. when the demand leaves a service
        // plateau), so the right limit at t1 matters as much as the left
        // limit at t2. Clamping happens only at the very end.
        let d_at = |t: Q| -> Ext {
            match other.pseudo_inverse(self.eval(t)) {
                Ext::Finite(x) => Ext::Finite(x - t),
                Ext::Infinite => Ext::Infinite,
            }
        };
        let third = Q::new(1, 3);
        let mut best = Q::ZERO;
        for (i, &t1) in cands.iter().enumerate() {
            if !meter.tick_segment() {
                let kind = meter.tripped().unwrap_or(BudgetKind::Segments);
                return Err(CurveError::Budget(kind));
            }
            match d_at(t1) {
                Ext::Finite(v) => best = best.max(v),
                Ext::Infinite => return Ok(Ext::Infinite),
            }
            if let Some(&t2) = cands.get(i + 1) {
                let dt = t2 - t1;
                let m1 = t1 + dt * third;
                let m2 = t1 + dt * third * Q::TWO;
                match (d_at(m1), d_at(m2)) {
                    (Ext::Finite(a), Ext::Finite(b)) => {
                        let slope = (b - a) / (m2 - m1);
                        let at_t1 = a - slope * (m1 - t1); // right limit at t1
                        let at_t2 = a + slope * (t2 - m1); // left limit at t2
                        best = best.max(a).max(b).max(at_t1).max(at_t2);
                    }
                    _ => return Ok(Ext::Infinite),
                }
            }
        }
        Ok(Ext::Finite(best.clamp_nonneg()))
    }
}

/// Scans pieces `[from, to)` of `c`, each shifted right by `shift` and up by
/// `lift`, for the first time the curve reaches `w`. Returns the exact
/// crossing time if found.
/// The earliest time at which `p`, extended affinely, reaches `w`, if
/// it ever does (`None` for a flat piece below `w`).
fn first_reaching(p: Piece, w: Q) -> Option<Q> {
    if p.value >= w {
        Some(p.start)
    } else if p.slope.is_positive() {
        Some(p.start + (w - p.value) / p.slope)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ratio::q;

    /// The pseudo-inverse as a linear scan of the pieces that recomputes
    /// the pattern maximum per query: the reference oracle for the reach
    /// table behind [`Curve::pseudo_inverse`].
    fn scan_inverse(c: &Curve, w: Q) -> Ext {
        if c.eval(Q::ZERO) >= w {
            return Ext::Finite(Q::ZERO);
        }
        // Scan the explicit pieces first.
        if let Some(t) = scan_pieces_for(c, w, 0, c.pieces().len(), Q::ZERO, Q::ZERO) {
            return Ext::Finite(t);
        }
        match c.tail() {
            Tail::Affine => {
                let last = *c.pieces().last().expect("non-empty");
                if last.slope.is_positive() {
                    // Solve value + slope·(t − start) = w.
                    Ext::Finite(last.start + (w - last.value) / last.slope)
                } else {
                    Ext::Infinite
                }
            }
            Tail::Periodic {
                pattern_start,
                period,
                increment,
            } => {
                if increment.is_zero() {
                    // The pattern repeats without growth; the explicit scan
                    // already covered one full period.
                    return Ext::Infinite;
                }
                // Highest value reached within the first pattern instance
                // (left limits included via the wrap point).
                let s = c.pieces()[pattern_start].start;
                let mut pmax = c.pieces()[pattern_start].value;
                for i in pattern_start..c.pieces().len() {
                    let p = c.pieces()[i];
                    let end = c
                        .pieces()
                        .get(i + 1)
                        .map(|n| n.start)
                        .unwrap_or(s + period);
                    pmax = pmax.max(p.eval(end));
                }
                // First period instance k whose lifted pattern can reach w.
                let k = ((w - pmax) / increment).ceil().max(0);
                for kk in k..=k + 1 {
                    let lift = increment * Q::int(kk);
                    let shift = period * Q::int(kk);
                    if let Some(t) = scan_pieces_for(
                        c,
                        w,
                        pattern_start,
                        c.pieces().len(),
                        shift,
                        lift,
                    ) {
                        return Ext::Finite(t);
                    }
                    // Wrap point of instance kk: start of instance kk+1.
                    let wrap_v = c.pieces()[pattern_start].value + increment * Q::int(kk + 1);
                    if wrap_v >= w {
                        return Ext::Finite(s + period * Q::int(kk + 1));
                    }
                }
                unreachable!("periodic pseudo-inverse must land within two instances")
            }
        }
    }

    fn scan_pieces_for(c: &Curve, w: Q, from: usize, to: usize, shift: Q, lift: Q) -> Option<Q> {
        let pieces = c.pieces();
        for i in from..to {
            let p = pieces[i];
            let start = p.start + shift;
            let value = p.value + lift;
            if value >= w {
                return Some(start);
            }
            let end = match pieces.get(i + 1) {
                Some(n) => Some(n.start + shift),
                None => match c.tail() {
                    Tail::Affine => None,
                    Tail::Periodic {
                        pattern_start,
                        period,
                        ..
                    } => Some(pieces[pattern_start].start + period + shift),
                },
            };
            if p.slope.is_positive() {
                let t = start + (w - value) / p.slope;
                match end {
                    Some(e) if t >= e => {}
                    _ => return Some(t),
                }
            }
        }
        None
    }

    /// Brute-force pseudo-inverse on a fine grid.
    fn brute_inverse(f: &Curve, w: Q, h: Q, den: i128) -> Option<Q> {
        let steps = (h * Q::int(den)).floor();
        for i in 0..=steps {
            let t = q(i, den);
            if f.eval(t) >= w {
                return Some(t);
            }
        }
        None
    }

    #[test]
    fn pseudo_inverse_rate_latency() {
        let b = Curve::rate_latency(Q::int(2), Q::int(3));
        assert_eq!(b.pseudo_inverse(Q::ZERO), Ext::Finite(Q::ZERO));
        assert_eq!(b.pseudo_inverse(Q::ONE), Ext::Finite(q(7, 2)));
        assert_eq!(b.pseudo_inverse(Q::int(10)), Ext::Finite(Q::int(8)));
    }

    #[test]
    fn pseudo_inverse_staircase() {
        let s = Curve::staircase(Q::int(5), Q::int(2));
        // Reaches 2 at t=0, 4 at t=5, 6 at t=10, ...
        assert_eq!(s.pseudo_inverse(Q::ONE), Ext::Finite(Q::ZERO));
        assert_eq!(s.pseudo_inverse(Q::int(2)), Ext::Finite(Q::ZERO));
        assert_eq!(s.pseudo_inverse(Q::int(3)), Ext::Finite(Q::int(5)));
        assert_eq!(s.pseudo_inverse(Q::int(4)), Ext::Finite(Q::int(5)));
        assert_eq!(s.pseudo_inverse(Q::int(21)), Ext::Finite(Q::int(50)));
        // Cross-check against brute force.
        for wnum in 0..60 {
            let w = q(wnum, 2);
            let got = s.pseudo_inverse(w).finite();
            let brute = brute_inverse(&s, w, Q::int(200), 2);
            assert_eq!(got, brute, "at w = {w}");
        }
    }

    #[test]
    fn pseudo_inverse_flat_tail() {
        let c = Curve::staircase_from_points(&[(Q::ZERO, Q::ZERO), (Q::int(2), Q::int(5))])
            .unwrap();
        assert_eq!(c.pseudo_inverse(Q::int(5)), Ext::Finite(Q::int(2)));
        assert_eq!(c.pseudo_inverse(q(11, 2)), Ext::Infinite);
        // Zero-increment periodic tail.
        let z = Curve::new(
            vec![crate::curve::Piece::new(Q::ZERO, Q::ONE, Q::ZERO)],
            Tail::Periodic {
                pattern_start: 0,
                period: Q::int(3),
                increment: Q::ZERO,
            },
        )
        .unwrap();
        assert_eq!(z.pseudo_inverse(Q::int(2)), Ext::Infinite);
    }

    #[test]
    fn pseudo_inverse_sloped_periodic() {
        // Sawtooth-ish: rises 1 over [0,1), flat over [1,3), +1 per period.
        let c = Curve::new(
            vec![
                crate::curve::Piece::new(Q::ZERO, Q::ZERO, Q::ONE),
                crate::curve::Piece::new(Q::ONE, Q::ONE, Q::ZERO),
            ],
            Tail::Periodic {
                pattern_start: 0,
                period: Q::int(3),
                increment: Q::ONE,
            },
        )
        .unwrap();
        assert_eq!(c.pseudo_inverse(q(1, 2)), Ext::Finite(q(1, 2)));
        assert_eq!(c.pseudo_inverse(q(3, 2)), Ext::Finite(q(7, 2)));
        assert_eq!(c.pseudo_inverse(Q::int(10)), Ext::Finite(Q::int(28)));
        for wnum in 0..40 {
            let w = q(wnum, 4);
            let got = c.pseudo_inverse(w).finite();
            let brute = brute_inverse(&c, w, Q::int(100), 4);
            assert_eq!(got, brute, "at w = {w}");
        }
    }

    /// A small rational `num/den` with `num` in `lo..=hi` and `den` in 1..=3.
    fn small(rng: &mut srtw_detrand::Rng, lo: i128, hi: i128) -> Q {
        Q::new(rng.random_range(lo..=hi), rng.random_range(1..=3i128))
    }

    /// A random valid curve: 1–6 pieces with flat stretches and jumps, and
    /// an affine tail (flat or rising) or a periodic one (growing, or a
    /// flat pattern with zero increment).
    fn inverse_curve(rng: &mut srtw_detrand::Rng, size: u32) -> Curve {
        let n = rng.random_range(1..=2 + size as usize / 20);
        let (periodic, zero_increment) = match rng.random_range(0u32..4) {
            0 => (false, false),
            1 | 2 => (true, false),
            _ => (true, true),
        };
        let pattern_start = rng.random_range(0..n);
        let mut pieces: Vec<Piece> = Vec::with_capacity(n);
        for i in 0..n {
            let flat_pattern = zero_increment && i >= pattern_start;
            let (start, floor) = match pieces.last() {
                None => (Q::ZERO, Q::ZERO),
                Some(prev) => {
                    let start = prev.start + small(rng, 1, 6);
                    (start, prev.eval(start))
                }
            };
            let jump = if (flat_pattern && i > pattern_start) || rng.random_bool() {
                Q::ZERO
            } else {
                small(rng, 0, 5)
            };
            let slope = if flat_pattern || rng.random_bool() {
                Q::ZERO
            } else {
                small(rng, 1, 4)
            };
            pieces.push(Piece::new(start, floor + jump, slope));
        }
        let tail = if periodic {
            let last = pieces[n - 1];
            let s = pieces[pattern_start].start;
            let period = last.start - s + small(rng, 1, 6);
            let wrap_gap = last.eval(s + period) - pieces[pattern_start].value;
            let extra = if zero_increment || rng.random_bool() {
                Q::ZERO
            } else {
                small(rng, 1, 4)
            };
            Tail::Periodic {
                pattern_start,
                period,
                increment: wrap_gap + extra,
            }
        } else {
            Tail::Affine
        };
        Curve::new(pieces, tail).expect("generated curves are valid")
    }

    /// Queries at every reach and piece value (lifted up to five periods
    /// out under a periodic tail), at the curve's values on breakpoints
    /// several periods out, just above and below each of those, and at a
    /// few random levels.
    fn inverse_queries(c: &Curve, rng: &mut srtw_detrand::Rng) -> Vec<Q> {
        let (period, increment) = match c.tail() {
            Tail::Periodic {
                period, increment, ..
            } => (period, increment),
            Tail::Affine => (Q::ZERO, Q::ZERO),
        };
        let mut exact = Vec::new();
        for k in 0..=5 {
            let (shift, lift) = (period * Q::int(k), increment * Q::int(k));
            exact.extend(c.reach().iter().map(|&r| r + lift));
            for p in c.pieces() {
                exact.push(p.value + lift);
                exact.push(c.eval(p.start + shift));
                exact.push(c.eval_left(p.start + shift));
            }
        }
        let eps = q(1, 7);
        let mut ws: Vec<Q> = exact.iter().flat_map(|&w| [w, w - eps, w + eps]).collect();
        ws.extend((0..4).map(|_| small(rng, -2, 90)));
        ws
    }

    #[test]
    fn pseudo_inverse_table_matches_scan_and_brute() {
        // The grid search finds the first multiple of 1/DEN at or after the
        // exact answer, when one lies within the horizon.
        const DEN: i128 = 6;
        srtw_detrand::prop::forall(
            "pseudo_inverse_table_vs_scan",
            |rng, size| {
                let c = inverse_curve(rng, size);
                let ws = inverse_queries(&c, rng);
                (c, ws)
            },
            |(c, ws)| {
                let h = c.tail_start() + Q::int(40);
                for &w in ws {
                    let got = c.pseudo_inverse(w);
                    assert_eq!(got, scan_inverse(c, w), "table vs scan at w = {w}");
                    let on_grid = got
                        .finite()
                        .map(|t| q((t * Q::int(DEN)).ceil(), DEN))
                        .filter(|&t| t <= h);
                    assert_eq!(brute_inverse(c, w, h, DEN), on_grid, "brute at w = {w}");
                }
            },
        );
    }

    /// Brute-force horizontal deviation.
    fn brute_hdev(f: &Curve, g: &Curve, h: Q, den: i128) -> Q {
        let steps = (h * Q::int(den)).floor();
        let mut best = Q::ZERO;
        for i in 0..=steps {
            let t = q(i, den);
            let w = f.eval(t);
            if let Ext::Finite(x) = g.pseudo_inverse(w) {
                best = best.max((x - t).clamp_nonneg());
            }
        }
        best
    }

    #[test]
    fn hdev_staircase_vs_rate_latency() {
        let alpha = Curve::staircase(Q::int(4), Q::int(2));
        let beta = Curve::rate_latency(Q::ONE, Q::int(3));
        assert_eq!(alpha.hdev(&beta), Ext::Finite(Q::int(5)));
        assert_eq!(
            alpha.hdev(&beta).unwrap_finite(),
            brute_hdev(&alpha, &beta, Q::int(100), 4)
        );
    }

    #[test]
    fn hdev_equal_rates() {
        // Periodic demand exactly served by matching-rate fluid service.
        let alpha = Curve::staircase(Q::int(4), Q::int(2));
        let beta = Curve::affine(Q::ZERO, q(1, 2));
        let d = alpha.hdev(&beta);
        assert_eq!(d.unwrap_finite(), brute_hdev(&alpha, &beta, Q::int(120), 4));
        assert_eq!(d, Ext::Finite(Q::int(4))); // burst of 2 at rate 1/2
    }

    #[test]
    fn hdev_infinite_when_demand_faster() {
        let alpha = Curve::affine(Q::ZERO, Q::int(2));
        let beta = Curve::affine(Q::ZERO, Q::ONE);
        assert_eq!(alpha.hdev(&beta), Ext::Infinite);
    }

    #[test]
    fn hdev_infinite_when_service_saturates() {
        let alpha = Curve::staircase(Q::int(4), Q::ONE);
        let beta = Curve::constant(Q::int(3));
        assert_eq!(alpha.hdev(&beta), Ext::Infinite);
        // But a bounded demand below the saturation level is fine.
        let alpha2 = Curve::staircase_from_points(&[(Q::ZERO, Q::ZERO), (Q::int(2), Q::int(3))])
            .unwrap();
        assert_eq!(alpha2.hdev(&beta), Ext::Finite(Q::ZERO));
    }

    #[test]
    fn hdev_various_pairs_match_brute_force() {
        let pairs = vec![
            (
                Curve::staircase(Q::int(3), Q::int(2)),
                Curve::rate_latency(Q::ONE, Q::int(2)),
            ),
            (
                Curve::affine(Q::int(3), q(1, 3)),
                Curve::rate_latency(q(1, 2), Q::int(1)),
            ),
            (
                Curve::staircase(Q::int(5), Q::int(3)).shift_up(Q::ONE),
                Curve::affine(Q::ZERO, Q::ONE),
            ),
            (
                Curve::staircase(Q::int(6), Q::int(2)),
                Curve::staircase_lower(Q::int(3), Q::int(2)),
            ),
        ];
        for (alpha, beta) in pairs {
            let exact = alpha.hdev(&beta).unwrap_finite();
            let brute = brute_hdev(&alpha, &beta, Q::int(150), 6);
            assert_eq!(exact, brute, "hdev mismatch for {alpha:?} vs {beta:?}");
        }
    }

    /// Brute-force vertical deviation (left limits included: the supremum
    /// may only be approached from the left at downward jumps of `f − g`).
    fn brute_vdev(f: &Curve, g: &Curve, h: Q, den: i128) -> Q {
        let steps = (h * Q::int(den)).floor();
        let mut best = Q::ZERO;
        for i in 0..=steps {
            let t = q(i, den);
            best = best.max(f.eval(t) - g.eval(t));
            best = best.max(f.eval_left(t) - g.eval_left(t));
        }
        best
    }

    #[test]
    fn vdev_matches_brute_force() {
        let alpha = Curve::staircase(Q::int(4), Q::int(2));
        let beta = Curve::rate_latency(Q::ONE, Q::int(3));
        assert_eq!(alpha.vdev(&beta), Ext::Finite(Q::int(3)));
        assert_eq!(
            alpha.vdev(&beta).unwrap_finite(),
            brute_vdev(&alpha, &beta, Q::int(100), 4)
        );
        let a2 = Curve::staircase(Q::int(3), Q::int(2));
        let b2 = Curve::staircase_lower(Q::int(3), Q::int(2));
        assert_eq!(
            a2.vdev(&b2).unwrap_finite(),
            brute_vdev(&a2, &b2, Q::int(100), 4)
        );
    }

    #[test]
    fn vdev_infinite_on_overload() {
        let alpha = Curve::affine(Q::ZERO, Q::int(2));
        let beta = Curve::affine(Q::ZERO, Q::ONE);
        assert_eq!(alpha.vdev(&beta), Ext::Infinite);
    }

    #[test]
    fn try_hdev_surfaces_lcm_overflow() {
        // Equal rates with huge coprime periods: the common check horizon
        // is their lcm, which overflows i128. The fallible entry point
        // reports it; the panicking one used to abort the process.
        let p1 = Q::int(1i128 << 88);
        let p2 = Q::int((1i128 << 88) - 1);
        let alpha = Curve::staircase(p1, p1);
        let beta = Curve::staircase_lower(p2, p2);
        let got = alpha.try_hdev(&beta, &BudgetMeter::unlimited());
        assert_eq!(
            got,
            Err(CurveError::Arithmetic(crate::error::ArithmeticError::Overflow))
        );
        let got_v = alpha.try_vdev(&beta, &BudgetMeter::unlimited());
        assert_eq!(
            got_v,
            Err(CurveError::Arithmetic(crate::error::ArithmeticError::Overflow))
        );
    }

    #[test]
    fn try_hdev_trips_budget_on_long_horizon() {
        use crate::meter::Budget;
        // Coprime-ish periods force a long lcm window; a tight segment cap
        // stops the scan early instead of materializing millions of pieces.
        let p = Q::int(999_983); // prime
        let alpha = Curve::staircase(Q::ONE, Q::ONE);
        let beta = Curve::staircase_lower(p, p);
        let meter = BudgetMeter::new(&Budget::default().with_max_segments(100));
        let got = alpha.try_hdev(&beta, &meter);
        assert_eq!(got, Err(CurveError::Budget(BudgetKind::Segments)));
        // The unmetered result agrees between try_ and classic entry points
        // on a benign pair.
        let a2 = Curve::staircase(Q::int(4), Q::int(2));
        let b2 = Curve::rate_latency(Q::ONE, Q::int(3));
        assert_eq!(
            a2.try_hdev(&b2, &BudgetMeter::unlimited()).unwrap(),
            a2.hdev(&b2)
        );
        assert_eq!(
            a2.try_vdev(&b2, &BudgetMeter::unlimited()).unwrap(),
            a2.vdev(&b2)
        );
    }
}
