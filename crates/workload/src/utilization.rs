//! Long-run utilization of digraph tasks: the maximum cycle ratio
//! `U = max over cycles (Σ wcet) / (Σ separation)`.
//!
//! `U` is the task's asymptotic demand rate: `rbf(t) = U·t + O(1)`. The
//! delay analyses use it for the stability check (`U` must stay below the
//! service rate for any finite bound to exist) and for busy-window horizon
//! estimates.
//!
//! The computation is Howard's policy iteration (Cochet-Terrasson et al.,
//! IFAC 1998; the fastest known method in practice, Dasdan, ACM TODAES
//! 2004). A policy picks one out-edge per vertex, so every vertex leads
//! to exactly one policy cycle; its value is that cycle's ratio `χ` plus
//! a bias `x` relative to the cycle. The policy improves first where an
//! edge reaches a larger `χ`, and otherwise where an edge of equal `χ`
//! raises the bias; when neither is possible, no cycle of the graph beats
//! the best policy cycle. Everything is exact: over the graph scaled to
//! integers (`ScaledGraph`, biases scaled by each ratio's reduced
//! denominator, ratios compared by cross-multiplication), and over
//! rationals when a product leaves `i128`.

use crate::digraph::{DrtTask, VertexId};
use crate::weight::{Overflow, ScaledGraph, Weight};
use srtw_minplus::Q;

/// A cycle witnessing the maximum ratio: vertex sequence (first vertex not
/// repeated at the end) and the exact ratio.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalCycle {
    /// The vertices of the cycle, in order.
    pub vertices: Vec<VertexId>,
    /// The exact cycle ratio `Σ wcet / Σ separation`.
    pub ratio: Q,
}

/// The long-run utilization of the task: the maximum cycle ratio, or zero
/// for an acyclic graph (finite total demand).
///
/// # Examples
///
/// ```
/// use srtw_workload::{DrtTaskBuilder, long_run_utilization};
/// use srtw_minplus::{q, Q};
///
/// let mut b = DrtTaskBuilder::new("loop");
/// let v = b.vertex("v", Q::int(2));
/// b.edge(v, v, Q::int(5));
/// let task = b.build().unwrap();
/// assert_eq!(long_run_utilization(&task), q(2, 5));
/// ```
pub fn long_run_utilization(task: &DrtTask) -> Q {
    critical_cycle(task).map_or(Q::ZERO, |c| c.ratio)
}

/// Finds a cycle achieving the maximum ratio (`None` for acyclic graphs).
pub fn critical_cycle(task: &DrtTask) -> Option<CriticalCycle> {
    match ScaledGraph::new(task) {
        Some(g) => scaled_critical_cycle(&g),
        None => exact_critical_cycle(&ScaledGraph::exact(task)),
    }
}

/// [`critical_cycle`] of a graph scaled to integers, redone over exact
/// rationals when an intermediate leaves `i128`.
pub(crate) fn scaled_critical_cycle(g: &ScaledGraph<i128>) -> Option<CriticalCycle> {
    howard(g).unwrap_or_else(|Overflow| exact_critical_cycle(&g.unscaled()))
}

/// [`critical_cycle`] of an unscaled graph.
pub(crate) fn exact_critical_cycle(g: &ScaledGraph<Q>) -> Option<CriticalCycle> {
    howard(g).unwrap_or_else(|Overflow| unreachable!("Q arithmetic never reports overflow"))
}

/// A vertex's value under a policy: the ratio `(p, q)` of the policy
/// cycle it leads to (canonical, see [`Weight::ratio`]) and its bias
/// scaled by `q`.
#[derive(Clone, Copy)]
struct Value<W> {
    p: W,
    q: W,
    bias: W,
}

impl<W: Weight> Value<W> {
    /// Does `self` lead to the same ratio as `other`?
    fn same_ratio(&self, other: &Value<W>) -> bool {
        (self.p, self.q) == (other.p, other.q)
    }

    /// Does `self` lead to a strictly larger ratio than `other`?
    fn exceeds(&self, other: &Value<W>) -> Result<bool, Overflow> {
        Ok(!self.same_ratio(other) && self.p.times(other.q)? > other.p.times(self.q)?)
    }

    /// The scaled bias `q·wcet − p·separation + bias(target)` that taking
    /// an edge into `target` gives under this value's ratio.
    fn through(&self, (w, s, _): (W, W, VertexId), target: &Value<W>) -> Result<W, Overflow> {
        self.q.times(w)?.minus(self.p.times(s)?)?.plus(target.bias)
    }
}

/// Howard's policy iteration over `g` (see the module docs).
fn howard<W: Weight>(g: &ScaledGraph<W>) -> Result<Option<CriticalCycle>, Overflow> {
    let n = g.wcets.len();
    let target = |e: usize| g.edges[e].2.index();
    // Peel off the vertices that reach no cycle: they get no policy.
    let mut live = vec![true; n];
    while let Some(u) = (0..n).find(|&u| live[u] && !g.range(u).any(|e| live[target(e)])) {
        live[u] = false;
    }
    if !live.contains(&true) {
        return Ok(None);
    }
    let live_out = |u: usize| g.range(u).filter(|&e| live[target(e)]);
    // The initial policy: each live vertex's live out-edge of largest
    // `wcet / separation`.
    let mut policy = vec![usize::MAX; n];
    for u in (0..n).filter(|&u| live[u]) {
        for e in live_out(u) {
            let (w, s, _) = g.edges[e];
            let better = match g.edges.get(policy[u]) {
                None => true,
                Some(&(bw, bs, _)) => w.times(bs)? > bw.times(s)?,
            };
            if better {
                policy[u] = e;
            }
        }
    }
    let zero = Value {
        p: W::ZERO,
        q: W::ZERO,
        bias: W::ZERO,
    };
    let mut value = vec![zero; n];
    loop {
        let roots = evaluate(g, &policy, &live, &mut value)?;
        // First: any edge into a larger ratio.
        let mut changed = false;
        for u in (0..n).filter(|&u| live[u]) {
            let mut best = value[u];
            for e in live_out(u) {
                if value[target(e)].exceeds(&best)? {
                    (best, policy[u], changed) = (value[target(e)], e, true);
                }
            }
        }
        // Otherwise: any edge of equal ratio that raises the bias.
        let raise_bias = !changed;
        for u in (0..n).filter(|&u| raise_bias && live[u]) {
            let (here, mut bias) = (value[u], value[u].bias);
            for e in live_out(u).filter(|&e| value[target(e)].same_ratio(&here)) {
                let through = here.through(g.edges[e], &value[target(e)])?;
                if through > bias {
                    (bias, policy[u], changed) = (through, e, true);
                }
            }
        }
        if changed {
            continue;
        }
        // Optimal: the best policy cycle is a critical cycle.
        let mut best = roots[0];
        for &r in &roots[1..] {
            if value[r].exceeds(&value[best])? {
                best = r;
            }
        }
        let mut vertices = vec![VertexId(best)];
        let mut v = target(policy[best]);
        while v != best {
            vertices.push(VertexId(v));
            v = target(policy[v]);
        }
        let ratio = value[best].p.unscale(1) / value[best].q.unscale(1);
        return Ok(Some(CriticalCycle { vertices, ratio }));
    }
}

/// Value determination: every live vertex's [`Value`] under `policy`.
/// Each policy cycle gets the ratio of its edges and bias 0 at its
/// smallest vertex (so a cycle the policy keeps keeps its biases); every
/// other vertex takes its successor's ratio and adds its edge's scaled
/// reduced weight to the successor's bias. Returns the cycles' roots.
fn evaluate<W: Weight>(
    g: &ScaledGraph<W>,
    policy: &[usize],
    live: &[bool],
    value: &mut [Value<W>],
) -> Result<Vec<usize>, Overflow> {
    let (new, on_path, done) = (0u8, 1u8, 2u8);
    let next = |v: usize| g.edges[policy[v]].2.index();
    let mut state = vec![new; live.len()];
    let (mut roots, mut path) = (Vec::new(), Vec::new());
    for start in (0..live.len()).filter(|&v| live[v]) {
        let mut v = start;
        while state[v] == new {
            state[v] = on_path;
            path.push(v);
            v = next(v);
        }
        if state[v] == on_path {
            // A new policy cycle, `path[at..]`: value its root, and leave
            // the rest of it on the path, ordered to be valued backwards
            // from the root.
            let at = path.iter().position(|&x| x == v).expect("v is on the path");
            let (mut work, mut span) = (W::ZERO, W::ZERO);
            for &c in &path[at..] {
                work = work.plus(g.edges[policy[c]].0)?;
                span = span.plus(g.edges[policy[c]].1)?;
            }
            let root_at = (at..path.len())
                .min_by_key(|&i| path[i])
                .expect("non-empty");
            path[at..].rotate_left(root_at + 1 - at);
            let root = path.pop().expect("non-empty");
            let (p, q) = W::ratio(work, span);
            value[root] = Value {
                p,
                q,
                bias: W::ZERO,
            };
            state[root] = done;
            roots.push(root);
        }
        while let Some(u) = path.pop() {
            let succ = value[next(u)];
            value[u] = Value {
                bias: succ.through(g.edges[policy[u]], &succ)?,
                ..succ
            };
            state[u] = done;
        }
    }
    Ok(roots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digraph::DrtTaskBuilder;
    use srtw_minplus::q;

    /// The parametric Bellman–Ford improvement loop, the oracle for
    /// Howard's iteration: from `λ = 0`, while a cycle with positive
    /// reduced weight `Σ (wcet − λ·separation)` exists (Bellman–Ford
    /// longest-path relaxation over exact rationals), replace `λ` by that
    /// cycle's ratio.
    mod oracle {
        use super::*;

        pub(super) fn critical_cycle(task: &DrtTask) -> Option<CriticalCycle> {
            let mut best: Option<CriticalCycle> = None;
            loop {
                let lambda = best.as_ref().map_or(Q::ZERO, |c| c.ratio);
                let Some(vertices) = positive_cycle(task, lambda) else {
                    return best;
                };
                let ratio = cycle_ratio(task, &vertices);
                assert!(ratio > lambda, "a positive cycle beats λ");
                best = Some(CriticalCycle { vertices, ratio });
            }
        }

        /// The exact ratio of a vertex cycle; panics if an edge is missing.
        pub(super) fn cycle_ratio(task: &DrtTask, cycle: &[VertexId]) -> Q {
            let (mut work, mut span) = (Q::ZERO, Q::ZERO);
            for (i, &v) in cycle.iter().enumerate() {
                let next = cycle[(i + 1) % cycle.len()];
                work += task.wcet(next);
                let e = task.out_edges(v).iter().find(|e| e.to == next);
                span += e.expect("cycle edge must exist").separation;
            }
            work / span
        }

        /// A cycle of positive reduced weight at `lambda`, via
        /// Bellman–Ford from a virtual super-source: a vertex improved in
        /// round `n` leads back along parent pointers onto one.
        fn positive_cycle(task: &DrtTask, lambda: Q) -> Option<Vec<VertexId>> {
            let n = task.num_vertices();
            let mut dist = vec![Q::ZERO; n];
            let mut parent: Vec<Option<usize>> = vec![None; n];
            let mut last = None;
            for _ in 0..n {
                last = None;
                for u in 0..n {
                    for e in task.out_edges(VertexId(u)) {
                        let cand = dist[u] + task.wcet(e.to) - lambda * e.separation;
                        if cand > dist[e.to.0] {
                            (dist[e.to.0], parent[e.to.0], last) = (cand, Some(u), Some(e.to.0));
                        }
                    }
                }
            }
            // Walk n parent steps to land on the cycle, then trace it.
            let mut v = last?;
            for _ in 0..n {
                v = parent[v]?;
            }
            let mut cycle = vec![VertexId(v)];
            let mut cur = parent[v]?;
            while cur != v {
                cycle.push(VertexId(cur));
                cur = parent[cur]?;
            }
            cycle.reverse();
            Some(cycle)
        }
    }

    #[test]
    fn self_loop_ratio() {
        let mut b = DrtTaskBuilder::new("loop");
        let v = b.vertex("v", Q::int(3));
        b.edge(v, v, Q::int(7));
        let t = b.build().unwrap();
        assert_eq!(long_run_utilization(&t), q(3, 7));
        let c = critical_cycle(&t).unwrap();
        assert_eq!(c.vertices, vec![v]);
    }

    #[test]
    fn acyclic_is_zero() {
        let mut b = DrtTaskBuilder::new("dag");
        let a = b.vertex("a", Q::ONE);
        let c = b.vertex("b", Q::ONE);
        b.edge(a, c, Q::ONE);
        assert_eq!(long_run_utilization(&b.build().unwrap()), Q::ZERO);
    }

    #[test]
    fn picks_heavier_of_two_loops() {
        let mut b = DrtTaskBuilder::new("two-loops");
        let a = b.vertex("a", Q::ONE); // loop ratio 1/10
        let c = b.vertex("c", Q::int(4)); // loop ratio 4/9
        b.edge(a, a, Q::int(10));
        b.edge(c, c, Q::int(9));
        b.edge(a, c, Q::int(3));
        b.edge(c, a, Q::int(3));
        let t = b.build().unwrap();
        // Candidate cycles: a (1/10), c (4/9), a-c (5/6? work 1+4=5, span 6).
        // a→c→a: work e(c)+e(a)=5, span 3+3=6 ⇒ 5/6 — the maximum.
        assert_eq!(long_run_utilization(&t), q(5, 6));
    }

    #[test]
    fn mixed_cycle_beats_self_loops() {
        let mut b = DrtTaskBuilder::new("ring");
        let x = b.vertex("x", Q::int(2));
        let y = b.vertex("y", Q::int(2));
        let z = b.vertex("z", Q::int(2));
        b.edge(x, y, Q::int(2));
        b.edge(y, z, Q::int(2));
        b.edge(z, x, Q::int(2));
        let t = b.build().unwrap();
        assert_eq!(long_run_utilization(&t), Q::ONE);
    }

    #[test]
    fn ratio_matches_rbf_growth() {
        // rbf(t)/t → U for large t.
        let mut b = DrtTaskBuilder::new("two-mode");
        let h = b.vertex("h", Q::int(4));
        let l = b.vertex("l", Q::ONE);
        b.edge(h, l, Q::int(10));
        b.edge(l, h, Q::int(5));
        let t = b.build().unwrap();
        let u = long_run_utilization(&t);
        assert_eq!(u, q(5, 15)); // cycle h→l→h: work 5, span 15
        let rbf = crate::rbf::Rbf::compute(&t, Q::int(300));
        let big = rbf.eval(Q::int(300));
        // |rbf(t) − U·t| bounded: within one cycle's work of the line.
        let line = u * Q::int(300);
        assert!((big - line).abs() <= Q::int(5), "rbf deviates: {big} vs {line}");
    }

    #[test]
    fn utilization_of_branching_graph() {
        let mut b = DrtTaskBuilder::new("branching");
        let a = b.vertex("a", Q::int(3));
        let x = b.vertex("x", Q::ONE);
        let y = b.vertex("y", Q::int(2));
        b.edge(a, x, Q::int(4));
        b.edge(a, y, Q::int(6));
        b.edge(x, a, Q::int(4));
        b.edge(y, a, Q::int(3));
        let t = b.build().unwrap();
        // Cycles: a→x→a (work 4, span 8 = 1/2), a→y→a (work 5, span 9 = 5/9).
        assert_eq!(long_run_utilization(&t), q(5, 9));
        let c = critical_cycle(&t).unwrap();
        assert_eq!(c.vertices.len(), 2);
    }

    /// A random digraph with rational WCETs and separations: every
    /// vertex on a ring (so there is a cycle), plus random chords, and
    /// up to three off-ring vertices that lead into the ring, hang off
    /// it as sinks, or both.
    fn random_task(rng: &mut srtw_detrand::Rng, size: u32) -> DrtTask {
        let n = rng.random_range(1..=2 + size as i128 / 8) as usize;
        let off = rng.random_range(0..=3usize);
        let mut b = DrtTaskBuilder::new("random");
        let vs: Vec<VertexId> = (0..n + off)
            .map(|i| {
                let wcet = Q::new(rng.random_range(1..=40i128), rng.random_range(1..=12i128));
                b.vertex(format!("v{i}"), wcet)
            })
            .collect();
        let sep = |rng: &mut srtw_detrand::Rng| {
            Q::new(rng.random_range(1..=90i128), rng.random_range(1..=8i128))
        };
        for i in 0..n {
            let s = sep(rng);
            b.edge(vs[i], vs[(i + 1) % n], s);
        }
        for i in 0..n {
            for j in 0..n {
                if j != (i + 1) % n && rng.random_ratio(1, 3) {
                    let s = sep(rng);
                    b.edge(vs[i], vs[j], s);
                }
            }
        }
        for k in n..n + off {
            // 0: leads into the ring, 1: hangs off it as a sink, 2: both.
            let (ring, how) = (vs[rng.random_range(0..n)], rng.random_range(0..3u32));
            if how != 1 {
                b.edge(vs[k], ring, sep(rng));
            }
            if how != 0 {
                b.edge(ring, vs[k], sep(rng));
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn howard_matches_the_bellman_ford_oracle() {
        srtw_detrand::prop::forall(
            "max_cycle_ratio_howard_vs_bellman_ford",
            random_task,
            |task| {
                let scaled = ScaledGraph::new(task).expect("small denominators scale");
                let oracle = oracle::critical_cycle(task).unwrap();
                let integer = howard(&scaled)
                    .ok()
                    .flatten()
                    .expect("small weights stay in i128");
                let exact = exact_critical_cycle(&ScaledGraph::exact(task)).unwrap();
                for c in [&integer, &exact] {
                    assert_eq!(c.ratio, oracle.ratio);
                    // The returned cycle is a cycle of the task with that ratio.
                    assert_eq!(oracle::cycle_ratio(task, &c.vertices), c.ratio);
                }
                assert_eq!(critical_cycle(task).unwrap(), integer);
            },
        );
    }

    #[test]
    fn overflowing_scale_falls_back_to_exact_rationals() {
        // Distinct primes just above 2^40: all four multiply past i128, so
        // the common denominator D overflows, while each self-loop's
        // reduced weight (two of them at a time) stays representable in Q.
        const PRIMES: [i128; 4] = [
            1_099_511_627_791,
            1_099_511_627_803,
            1_099_511_627_831,
            1_099_511_627_873,
        ];
        let mut b = DrtTaskBuilder::new("primes");
        for (i, p) in PRIMES.into_iter().enumerate() {
            let v = b.vertex(format!("v{i}"), Q::new(3 * p + 1, p));
            b.edge(v, v, Q::int(10 + i as i128));
        }
        let t = b.build().unwrap();
        assert!(ScaledGraph::new(&t).is_none(), "D must overflow");
        // Ratios (3 + 1/p_i) / (10 + i): v0 has the largest.
        let c = critical_cycle(&t).unwrap();
        assert_eq!(c.vertices, vec![VertexId(0)]);
        assert_eq!(c.ratio, Q::new(3 * PRIMES[0] + 1, 10 * PRIMES[0]));
        assert_eq!(c, oracle::critical_cycle(&t).unwrap());

        // Primes near 2^28: D (≈2^112) and every scaled weight fit i128,
        // but comparing two scaled ratios multiplies two of them, so the
        // integer iteration gives way to the rational one.
        let mut b = DrtTaskBuilder::new("primes");
        let primes = [268_435_399, 268_435_459, 268_435_463, 268_435_493];
        let vs: Vec<VertexId> = (0..4)
            .map(|i| b.vertex(format!("v{i}"), Q::new(3 * primes[i] + 1, primes[i])))
            .collect();
        for i in 0..4 {
            b.edge(vs[i], vs[i], Q::int(10 + i as i128));
            b.edge(vs[i], vs[(i + 1) % 4], Q::int(40));
        }
        let t = b.build().unwrap();
        let g = ScaledGraph::new(&t).expect("D fits i128");
        assert!(howard(&g).is_err(), "the integer iteration must overflow");
        let c = scaled_critical_cycle(&g).unwrap();
        assert_eq!(c.ratio, oracle::critical_cycle(&t).unwrap().ratio);
        assert_eq!(oracle::cycle_ratio(&t, &c.vertices), c.ratio);
    }

    #[test]
    fn decoder_system_utilization_is_pinned() {
        // systems/decoder.srtw: the decoder's B→P→B loop (9 per 30) plus
        // the telemetry self-loop (1 per 25) report U = 17/50.
        let mut b = DrtTaskBuilder::new("decoder");
        let i = b.vertex("I", Q::int(12));
        let p = b.vertex("P", Q::int(6));
        let bb = b.vertex("B", Q::int(3));
        b.edge(i, bb, Q::int(15));
        b.edge(bb, bb, Q::int(15));
        b.edge(bb, p, Q::int(15));
        b.edge(p, bb, Q::int(15));
        b.edge(p, i, Q::int(45));
        let decoder = b.build().unwrap();
        let mut b = DrtTaskBuilder::new("telemetry");
        let t = b.vertex("t", Q::ONE);
        b.edge(t, t, Q::int(25));
        let telemetry = b.build().unwrap();

        let c = critical_cycle(&decoder).unwrap();
        assert_eq!(c.ratio, q(3, 10));
        assert_eq!(c.vertices.len(), 2);
        assert_eq!(
            long_run_utilization(&decoder) + long_run_utilization(&telemetry),
            q(17, 50)
        );
    }
}
