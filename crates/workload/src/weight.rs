//! Exact weights for the graph searches of this crate: rationals, or the
//! same rationals scaled to integers by one common denominator.
//!
//! Scaling every WCET and separation of a task by `D`, the lcm of their
//! denominators, turns every sum of them into an integer, and multiplying
//! by a positive constant preserves every comparison. A search that only
//! adds and compares weights therefore makes exactly the same decisions
//! over the scaled integers as over the rationals — without a gcd per
//! operation. The searches are written once, generic over [`Weight`], and
//! instantiated at `i128` where the scaled values provably (or checkably)
//! fit, and at exact [`Q`] otherwise.

use crate::digraph::{DrtTask, VertexId};
use srtw_minplus::Q;

/// An `i128` sum left its range; the caller redoes the search in `Q`.
pub(crate) struct Overflow;

/// A weight of a graph search: an exact rational, or the same rational
/// scaled to an integer.
pub(crate) trait Weight: Copy + Ord {
    const ZERO: Self;
    fn plus(self, rhs: Self) -> Result<Self, Overflow>;
    fn minus(self, rhs: Self) -> Result<Self, Overflow>;
    fn times(self, rhs: Self) -> Result<Self, Overflow>;
    /// The ratio `work / span` (`span > 0`) as a pair `(p, q)` with
    /// `q > 0` that is equal for equal ratios: reduced integers, or the
    /// exact quotient over 1.
    fn ratio(work: Self, span: Self) -> (Self, Self);
    /// The rational this weight stands for when the graph was scaled by
    /// `scale` (always 1 for [`Q`]).
    fn unscale(self, scale: i128) -> Q;
}

impl Weight for i128 {
    const ZERO: i128 = 0;
    fn plus(self, rhs: i128) -> Result<i128, Overflow> {
        self.checked_add(rhs).ok_or(Overflow)
    }
    fn minus(self, rhs: i128) -> Result<i128, Overflow> {
        self.checked_sub(rhs).ok_or(Overflow)
    }
    fn times(self, rhs: i128) -> Result<i128, Overflow> {
        // Factors that fit `i64` cannot overflow their `i128` product,
        // which skips the checked multiply's slow path.
        if let (Ok(a), Ok(b)) = (i64::try_from(self), i64::try_from(rhs)) {
            return Ok(i128::from(a) * i128::from(b));
        }
        self.checked_mul(rhs).ok_or(Overflow)
    }
    fn ratio(work: i128, span: i128) -> (i128, i128) {
        let r = Q::new(work, span);
        (r.numer(), r.denom())
    }
    fn unscale(self, scale: i128) -> Q {
        Q::new(self, scale)
    }
}

impl Weight for Q {
    const ZERO: Q = Q::ZERO;
    fn plus(self, rhs: Q) -> Result<Q, Overflow> {
        Ok(self + rhs)
    }
    fn minus(self, rhs: Q) -> Result<Q, Overflow> {
        Ok(self - rhs)
    }
    fn times(self, rhs: Q) -> Result<Q, Overflow> {
        Ok(self * rhs)
    }
    fn ratio(work: Q, span: Q) -> (Q, Q) {
        (work / span, Q::ONE)
    }
    fn unscale(self, _scale: i128) -> Q {
        self
    }
}

/// The task's weights scaled by `scale`: per vertex `scale·wcet`, and per
/// edge (in `out_edges` order, source by source) the triple
/// `(scale·wcet(target), scale·separation, target)`.
#[derive(Debug, Clone)]
pub(crate) struct ScaledGraph<W> {
    /// The common scale: `D` for `i128` weights, 1 for exact rationals.
    pub(crate) scale: i128,
    pub(crate) wcets: Vec<W>,
    pub(crate) edges: Vec<(W, W, VertexId)>,
    /// `edges[first[v]..first[v + 1]]` are the out-edges of vertex `v`.
    first: Vec<usize>,
}

impl<W: Weight> ScaledGraph<W> {
    /// The scaled `(wcet(target), separation, target)` of `v`'s out-edges.
    pub(crate) fn out(&self, v: VertexId) -> &[(W, W, VertexId)] {
        &self.edges[self.range(v.index())]
    }

    /// The indices in `edges` of vertex `v`'s out-edges.
    pub(crate) fn range(&self, v: usize) -> std::ops::Range<usize> {
        self.first[v]..self.first[v + 1]
    }

    /// The same graph over exact rationals (`scale` 1).
    pub(crate) fn unscaled(&self) -> ScaledGraph<Q> {
        let q = |w: W| w.unscale(self.scale);
        ScaledGraph {
            scale: 1,
            wcets: self.wcets.iter().map(|&w| q(w)).collect(),
            edges: self
                .edges
                .iter()
                .map(|&(w, s, to)| (q(w), q(s), to))
                .collect(),
            first: self.first.clone(),
        }
    }

    fn build(task: &DrtTask, scale: i128, f: impl Fn(Q) -> Option<W>) -> Option<ScaledGraph<W>> {
        let mut first = Vec::with_capacity(task.num_vertices() + 1);
        let mut edges = Vec::with_capacity(task.num_edges());
        for v in task.vertex_ids() {
            first.push(edges.len());
            for e in task.out_edges(v) {
                edges.push((f(task.wcet(e.to))?, f(e.separation)?, e.to));
            }
        }
        first.push(edges.len());
        let wcets = task
            .vertex_ids()
            .map(|v| f(task.wcet(v)))
            .collect::<Option<_>>()?;
        Some(ScaledGraph {
            scale,
            wcets,
            edges,
            first,
        })
    }
}

impl ScaledGraph<Q> {
    /// The unscaled graph (`scale` 1).
    pub(crate) fn exact(task: &DrtTask) -> ScaledGraph<Q> {
        ScaledGraph::build(task, 1, Some).expect("identity scaling cannot fail")
    }
}

impl ScaledGraph<i128> {
    /// The graph scaled by `D`, the lcm of every WCET and separation
    /// denominator; `None` when `D` or a scaled value overflows `i128`.
    pub(crate) fn new(task: &DrtTask) -> Option<ScaledGraph<i128>> {
        let denominators = task.vertex_ids().map(|v| task.wcet(v).denom()).chain(
            task.vertex_ids()
                .flat_map(|v| task.out_edges(v).iter().map(|e| e.separation.denom())),
        );
        let mut d = Q::ONE;
        for den in denominators.filter(|&den| den != 1) {
            d = Q::try_lcm(d, Q::int(den)).ok()?;
        }
        let d = d.numer();
        let factor = |den: i128| if den == 1 { d } else { d / den };
        ScaledGraph::build(task, d, |x| x.numer().checked_mul(factor(x.denom())))
    }
}
