//! Request-bound functions of digraph real-time tasks.
//!
//! The **request-bound function** `rbf(t)` of a [`DrtTask`] is the maximum
//! total WCET a single behaviour of the task can release inside any closed
//! time window of length `t` (releases at both window ends count, so
//! `rbf(0)` is the largest single WCET). It is the exact structural
//! abstraction used as the task's *upper arrival curve* by the RTC baseline
//! and as the busy-window bound by the structural analysis.
//!
//! `rbf` is computed by abstract-path exploration with dominance pruning
//! (see [`crate::paths`]) and returned as a right-continuous staircase.

use crate::digraph::DrtTask;
use crate::paths::{ExploreConfig, Explorer};
use srtw_minplus::{BudgetKind, BudgetMeter, Curve, Piece, Q, Tail};

/// The request-bound function of a task, materialized up to a horizon.
///
/// # Examples
///
/// ```
/// use srtw_workload::{DrtTaskBuilder, Rbf};
/// use srtw_minplus::Q;
///
/// let mut b = DrtTaskBuilder::new("periodic-ish");
/// let v = b.vertex("job", Q::int(2));
/// b.edge(v, v, Q::int(5));
/// let task = b.build().unwrap();
///
/// let rbf = Rbf::compute(&task, Q::int(20));
/// assert_eq!(rbf.eval(Q::ZERO), Q::int(2));
/// assert_eq!(rbf.eval(Q::int(4)), Q::int(2));
/// assert_eq!(rbf.eval(Q::int(5)), Q::int(4));
/// assert_eq!(rbf.eval(Q::int(20)), Q::int(10));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rbf {
    /// Staircase breakpoints `(span, max work)` with strictly increasing
    /// span and work. On a truncated rbf only **exact** breakpoints are
    /// kept (spans strictly below [`Rbf::exact_span`]).
    points: Vec<(Q, Q)>,
    horizon: Q,
    /// Spans strictly below this are exact. Equals `horizon` for exact
    /// rbfs; smaller when the exploration was interrupted by a budget.
    exact_span: Q,
    /// `Some(kind)` when the exploration was interrupted and the rbf falls
    /// back to its coarse affine over-approximation beyond `exact_span`.
    truncated: Option<BudgetKind>,
    /// Offset of the coarse affine tail `tail_base + tail_rate·t`.
    tail_base: Q,
    /// Rate of the coarse affine tail.
    tail_rate: Q,
}

impl Rbf {
    /// Computes the request-bound function of `task` on `[0, horizon]`.
    pub fn compute(task: &DrtTask, horizon: Q) -> Rbf {
        Rbf::compute_metered(task, horizon, &BudgetMeter::unlimited())
    }

    /// Budgeted [`Rbf::compute`]: when the exploration budget trips, the
    /// result degrades instead of failing. Breakpoints are kept only for
    /// the completely-enumerated span prefix (see
    /// [`crate::Exploration::complete_span`]), and demand beyond it is
    /// over-approximated by an affine tail derived from subadditivity:
    ///
    /// > `rbf(a + b) ≤ rbf(a) + rbf(b)` (a window splits into sub-windows
    /// > whose paths are themselves legal), hence for every `s < S`:
    /// > `rbf(t) ≤ ⌈t/s⌉·rbf(s) ≤ (1 + t/s)·rbf(s) ≤ (1 + t/s)·W` with
    /// > `W = sup_{s<S} rbf(s)`, and in the limit `s → S`:
    /// > `rbf(t) ≤ W + (W/S)·t` for all `t ≥ 0`.
    ///
    /// When nothing was enumerated (`S = 0`), the generic job-packing
    /// bound `rbf(t) ≤ e_max·(1 + t/p_min)` over the largest WCET and the
    /// smallest edge separation is used instead (flat `e_max` for an
    /// edgeless task). Either way the truncated rbf **dominates** the true
    /// rbf everywhere, so any delay bound computed from it is sound.
    pub fn compute_metered(task: &DrtTask, horizon: Q, meter: &BudgetMeter) -> Rbf {
        let mut explorer = Explorer::new(task, &ExploreConfig::new(horizon));
        explorer.extend_to(horizon, meter);
        explorer.rbf(horizon)
    }

    /// The rbf with the given exact staircase `points` (spans below
    /// `exact_span`) and the task's [`packing_line`].
    pub(crate) fn from_staircase(
        points: Vec<(Q, Q)>,
        horizon: Q,
        exact_span: Q,
        truncated: Option<BudgetKind>,
        packing: (Q, Q),
    ) -> Rbf {
        // Coarse affine tail dominating the true rbf everywhere (only used
        // when truncated; see `compute_metered` for the soundness
        // argument). Both the subadditive line (from the exact prefix) and
        // the job-packing line dominate the rbf globally; keep the one
        // with the smaller rate — a short exact prefix makes the
        // subadditive rate `W/S` arbitrarily steep (or leaves `Q`), while
        // the packing rate never exceeds `e_max/p_min`.
        let subadditive = match points.last() {
            Some(&(_, w)) if exact_span.is_positive() => w.checked_div(exact_span).map(|r| (w, r)),
            _ => None,
        };
        let (tail_base, tail_rate) = match subadditive {
            Some(line) if line.1 <= packing.1 => line,
            _ => packing,
        };
        Rbf {
            points,
            horizon,
            exact_span,
            truncated,
            tail_base,
            tail_rate,
        }
    }

    /// The horizon up to which this rbf is valid. A truncated rbf remains
    /// evaluable (coarsely) beyond it.
    pub fn horizon(&self) -> Q {
        self.horizon
    }

    /// The staircase breakpoints `(span, work)`.
    pub fn points(&self) -> &[(Q, Q)] {
        &self.points
    }

    /// Spans strictly below this value are exact. Equals
    /// [`Rbf::horizon`] for exact rbfs.
    pub fn exact_span(&self) -> Q {
        self.exact_span
    }

    /// The budget dimension that truncated this rbf, if any.
    pub fn truncated(&self) -> Option<BudgetKind> {
        self.truncated
    }

    /// The coarse affine tail `(base, rate)` with
    /// `rbf(t) ≤ base + rate·t` for all `t`. Meaningful mostly for
    /// truncated rbfs, but always a valid upper line.
    pub fn coarse_line(&self) -> (Q, Q) {
        (self.tail_base, self.tail_rate)
    }

    /// Evaluates `rbf(t)` — exactly below [`Rbf::exact_span`], via the
    /// dominating affine tail beyond it on truncated rbfs.
    ///
    /// # Panics
    ///
    /// Panics if `t` is negative, or if `t` is beyond the computed horizon
    /// on an **exact** rbf (a truncated rbf accepts any `t`: its tail is
    /// defined everywhere).
    pub fn eval(&self, t: Q) -> Q {
        assert!(!t.is_negative(), "rbf at negative window length");
        if self.truncated.is_some() && t >= self.exact_span {
            return self.tail_base + self.tail_rate * t;
        }
        assert!(
            t <= self.horizon,
            "rbf({t}) beyond computed horizon {}",
            self.horizon
        );
        match self.points.partition_point(|p| p.0 <= t) {
            0 => Q::ZERO,
            i => self.points[i - 1].1,
        }
    }

    /// Total-function demand bound, defined for every `t ≥ 0` and never
    /// panicking on the horizon.
    ///
    /// On an **exact** rbf this is the staircase value clamped at the
    /// horizon — sound inside any finitary analysis whose busy window fits
    /// the horizon, exactly like [`Rbf::eval`] at
    /// `t.min(horizon)`. On a **truncated** rbf the dominating affine tail
    /// covers everything beyond the exact prefix, so the result
    /// upper-bounds the true rbf unconditionally.
    pub fn bound_at(&self, t: Q) -> Q {
        if self.truncated.is_some() {
            self.eval(t)
        } else {
            self.eval(t.min(self.horizon))
        }
    }

    /// The rbf as a [`Curve`].
    ///
    /// For an **exact** rbf this is the staircase on `[0, horizon]`;
    /// beyond the horizon the curve stays flat, which under-approximates
    /// future demand and is only sound inside a finitary analysis whose
    /// busy window fits the horizon (exactly how the `srtw-core` analyses
    /// use it). For a **truncated** rbf the exact staircase prefix is
    /// extended with the dominating affine tail from `exact_span` on, so
    /// the returned curve upper-bounds the true rbf **everywhere**.
    pub fn curve(&self) -> Curve {
        let staircase = |points: &[(Q, Q)]| -> Curve {
            let mut pts = Vec::with_capacity(points.len() + 1);
            if points[0].0 != Q::ZERO {
                pts.push((Q::ZERO, Q::ZERO));
            }
            pts.extend(points.iter().copied());
            Curve::staircase_from_points(&pts).expect("rbf staircase invalid")
        };
        match self.truncated {
            None => {
                if self.points.is_empty() {
                    Curve::zero()
                } else {
                    staircase(&self.points)
                }
            }
            Some(_) => {
                // Exact prefix, then the dominating affine tail. The tail
                // value at exact_span is ≥ the last exact work (base alone
                // already is), so the pieces stay non-decreasing.
                let mut pieces: Vec<Piece> = if self.points.is_empty() {
                    Vec::new()
                } else {
                    staircase(&self.points)
                        .pieces()
                        .iter()
                        .copied()
                        .filter(|p| p.start < self.exact_span)
                        .collect()
                };
                if pieces.is_empty() {
                    pieces.push(Piece::new(Q::ZERO, self.tail_base, self.tail_rate));
                } else {
                    pieces.push(Piece::new(
                        self.exact_span,
                        self.tail_base + self.tail_rate * self.exact_span,
                        self.tail_rate,
                    ));
                }
                Curve::new(pieces, Tail::Affine).expect("truncated rbf curve invalid")
            }
        }
    }
}

/// The job-packing line `(e_max, e_max/p_min)` of `task` over its largest
/// WCET and smallest separation (flat `e_max` without edges).
pub(crate) fn packing_line(task: &DrtTask) -> (Q, Q) {
    let e_max = task.max_wcet();
    match task.min_separation() {
        Some(p) => (e_max, e_max / p),
        None => (e_max, Q::ZERO),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digraph::DrtTaskBuilder;
    use srtw_minplus::q;

    /// Brute-force rbf by exhaustive DFS over all paths (no pruning).
    fn brute_rbf(task: &DrtTask, t: Q) -> Q {
        fn dfs(task: &DrtTask, v: crate::digraph::VertexId, span: Q, work: Q, t: Q, best: &mut Q) {
            if work > *best {
                *best = work;
            }
            for e in task.out_edges(v) {
                let s = span + e.separation;
                if s <= t {
                    dfs(task, e.to, s, work + task.wcet(e.to), t, best);
                }
            }
        }
        let mut best = Q::ZERO;
        for v in task.vertex_ids() {
            dfs(task, v, Q::ZERO, task.wcet(v), t, &mut best);
        }
        best
    }

    fn branching() -> DrtTask {
        let mut b = DrtTaskBuilder::new("branching");
        let a = b.vertex("a", Q::int(3));
        let x = b.vertex("x", Q::ONE);
        let y = b.vertex("y", Q::int(2));
        b.edge(a, x, Q::int(4));
        b.edge(a, y, Q::int(6));
        b.edge(x, a, Q::int(4));
        b.edge(y, a, Q::int(3));
        b.build().unwrap()
    }

    /// [`branching`] with rational WCETs and separations.
    fn rational_branching() -> DrtTask {
        let mut b = DrtTaskBuilder::new("rational-branching");
        let a = b.vertex("a", q(5, 2));
        let x = b.vertex("x", q(4, 3));
        let y = b.vertex("y", q(7, 4));
        b.edge(a, x, q(9, 2));
        b.edge(a, y, q(17, 3));
        b.edge(x, a, q(11, 4));
        b.edge(y, a, q(10, 3));
        b.edge(y, y, q(13, 5));
        b.build().unwrap()
    }

    /// Every breakpoint of `rbf` and a point just below each one.
    fn breakpoint_probes(rbf: &Rbf) -> Vec<Q> {
        rbf.points()
            .iter()
            .flat_map(|p| [p.0, p.0 - q(1, 1000)])
            .filter(|t| !t.is_negative())
            .collect()
    }

    #[test]
    fn rbf_matches_brute_force() {
        let task = branching();
        let rbf = Rbf::compute(&task, Q::int(40));
        let grid = (0..=80).map(|i| q(i, 2));
        for t in grid.chain(breakpoint_probes(&rbf)) {
            assert_eq!(rbf.eval(t), brute_rbf(&task, t), "rbf({t})");
        }
        // Rational separations: probe on a grid finer than every
        // separation denominator, plus every breakpoint and just below.
        let task = rational_branching();
        let rbf = Rbf::compute(&task, Q::int(24));
        let grid = (0..=24 * 120).map(|i| q(i, 120));
        for t in grid.chain(breakpoint_probes(&rbf)) {
            assert_eq!(rbf.eval(t), brute_rbf(&task, t), "rbf({t})");
        }
    }

    #[test]
    fn unscalable_rbf_matches_brute_force() {
        // WCET denominators whose product overflows i128: the rbf is
        // explored in exact rationals and must still be exact.
        const PRIMES: [i128; 3] = [1_099_511_627_791, 1_099_511_627_803, 1_099_511_627_831];
        let mut b = DrtTaskBuilder::new("primes");
        for (i, p) in PRIMES.into_iter().enumerate() {
            let v = b.vertex(format!("v{i}"), Q::new(2 * p + 1, p));
            b.edge(v, v, Q::int(7 + i as i128));
        }
        let task = b.build().unwrap();
        let rbf = Rbf::compute(&task, Q::int(30));
        for i in 0..=60 {
            let t = q(i, 2);
            assert_eq!(rbf.eval(t), brute_rbf(&task, t), "rbf({t})");
        }
    }

    #[test]
    fn rbf_monotone_and_subadditive() {
        // rbf is monotone and subadditive (a window splits into two halves
        // whose sub-paths are themselves legal paths) — the latter is also
        // covered by a property test over random graphs.
        let task = branching();
        let rbf = Rbf::compute(&task, Q::int(60));
        let mut prev = Q::ZERO;
        for i in 0..=60 {
            let v = rbf.eval(Q::int(i));
            assert!(v >= prev);
            prev = v;
        }
        for a in 0..=30 {
            for b in 0..=30 {
                let (qa, qb) = (Q::int(a), Q::int(b));
                assert!(rbf.eval(qa + qb) <= rbf.eval(qa) + rbf.eval(qb));
            }
        }
    }

    #[test]
    fn rbf_zero_is_max_wcet() {
        let task = branching();
        let rbf = Rbf::compute(&task, Q::int(10));
        assert_eq!(rbf.eval(Q::ZERO), Q::int(3));
    }

    #[test]
    fn rbf_curve_agrees_with_eval() {
        let task = branching();
        let rbf = Rbf::compute(&task, Q::int(30));
        let c = rbf.curve();
        for i in 0..=60 {
            let t = q(i, 2);
            assert_eq!(c.eval(t), rbf.eval(t), "curve vs eval at {t}");
        }
    }

    #[test]
    fn rbf_dag_saturates() {
        let mut b = DrtTaskBuilder::new("dag");
        let a = b.vertex("a", Q::int(2));
        let c = b.vertex("b", Q::int(3));
        b.edge(a, c, Q::int(5));
        let task = b.build().unwrap();
        let rbf = Rbf::compute(&task, Q::int(100));
        assert_eq!(rbf.eval(Q::int(4)), Q::int(3)); // single heaviest job
        assert_eq!(rbf.eval(Q::int(5)), Q::int(5)); // a then b
        assert_eq!(rbf.eval(Q::int(100)), Q::int(5)); // no more work exists
    }

    #[test]
    #[should_panic(expected = "beyond computed horizon")]
    fn rbf_eval_beyond_horizon_panics() {
        let task = branching();
        let rbf = Rbf::compute(&task, Q::int(10));
        let _ = rbf.eval(Q::int(11));
    }

    #[test]
    fn truncated_rbf_dominates_exact() {
        use srtw_minplus::Budget;
        let task = branching();
        let exact = Rbf::compute(&task, Q::int(60));
        let meter = BudgetMeter::new(&Budget::default().with_max_paths(6));
        let coarse = Rbf::compute_metered(&task, Q::int(60), &meter);
        assert!(coarse.truncated().is_some());
        assert!(coarse.exact_span() < Q::int(60));
        let c = coarse.curve();
        for i in 0..=240 {
            let t = q(i, 2);
            // Both the direct eval and the curve dominate the true rbf.
            assert!(
                coarse.eval(t) >= exact.eval(t.min(Q::int(60))),
                "eval not dominating at {t}"
            );
            assert!(
                c.eval(t) >= exact.eval(t.min(Q::int(60))),
                "curve not dominating at {t}"
            );
            // ... and they agree below the exact span.
            if t < coarse.exact_span() {
                assert_eq!(coarse.eval(t), exact.eval(t), "exact prefix differs at {t}");
            }
        }
        // Truncated rbfs stay evaluable beyond the horizon.
        let _ = coarse.eval(Q::int(1_000_000));
    }

    #[test]
    fn fully_truncated_rbf_uses_packing_bound() {
        use srtw_minplus::Budget;
        let task = branching();
        // Budget of zero paths: nothing is enumerated at all.
        let meter = BudgetMeter::new(&Budget::default().with_max_paths(0));
        let coarse = Rbf::compute_metered(&task, Q::int(40), &meter);
        assert!(coarse.truncated().is_some());
        assert_eq!(coarse.exact_span(), Q::ZERO);
        assert!(coarse.points().is_empty());
        let exact = Rbf::compute(&task, Q::int(40));
        for i in 0..=80 {
            let t = q(i, 2);
            assert!(coarse.eval(t) >= exact.eval(t), "packing bound fails at {t}");
        }
        // e_max = 3, p_min = 3 ⇒ rbf(t) ≤ 3 + t.
        let (b, r) = coarse.coarse_line();
        assert_eq!(b, Q::int(3));
        assert_eq!(r, Q::ONE);
    }

    #[test]
    fn exact_rbf_curve_is_unchanged_by_metered_entry() {
        let task = branching();
        let a = Rbf::compute(&task, Q::int(30));
        let b = Rbf::compute_metered(&task, Q::int(30), &BudgetMeter::unlimited());
        assert_eq!(a, b);
        assert_eq!(a.truncated(), None);
        assert_eq!(a.exact_span(), Q::int(30));
    }
}
