//! Exact weights for the graph searches of this crate: rationals, or the
//! same rationals scaled to integers by one common denominator.
//!
//! Scaling every WCET and separation of a task by `D`, the lcm of their
//! denominators, turns every sum of them into an integer, and multiplying
//! by a positive constant preserves every comparison. A search that only
//! adds and compares weights therefore makes exactly the same decisions
//! over the scaled integers as over the rationals — without a gcd per
//! operation. The searches are written once, generic over [`Scalar`], and
//! instantiated at `i128` where the scaled values provably (or checkably)
//! fit, and at exact [`Q`] otherwise.

use crate::digraph::{DrtTask, VertexId};
use srtw_minplus::{Scalar, Q};

/// The rational a weight stands for when the graph was scaled by `scale`.
pub(crate) fn unscale<W: Scalar>(w: W, scale: i128) -> Q {
    w.ratio(W::ONE, scale)
        .expect("a weight over one at its own scale is representable")
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

impl<W: Scalar> ScaledGraph<W> {
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
        let q = |w: W| unscale(w, self.scale);
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

    /// The task's weights at `scale`; `None` when one is not a number of
    /// `W` there.
    fn build(task: &DrtTask, scale: i128) -> Option<ScaledGraph<W>> {
        let f = |q: Q| W::scaled(q, scale);
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
        ScaledGraph::build(task, 1).expect("rationals need no scale")
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
        ScaledGraph::build(task, d.numer())
    }
}
