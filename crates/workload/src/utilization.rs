//! Long-run utilization of digraph tasks: the maximum cycle ratio
//! `U = max over cycles (Σ wcet) / (Σ separation)`.
//!
//! `U` is the task's asymptotic demand rate: `rbf(t) = U·t + O(1)`. The
//! delay analyses use it for the stability check (`U` must stay below the
//! service rate for any finite bound to exist) and for busy-window horizon
//! estimates.
//!
//! The computation uses the classical parametric-improvement scheme: start
//! from the ratio of any cycle, and while a cycle with positive reduced
//! weight `Σ (wcet − λ·separation) > 0` exists (detected by Bellman–Ford
//! longest-path relaxation), replace `λ` by that cycle's exact ratio. All
//! arithmetic is exact, so the result is the exact maximum cycle ratio.
//! The relaxation runs over integers: every reduced weight is scaled by
//! the same positive constant (`ScaledGraph`), falling back to
//! rationals only when the scaled values leave `i128`.

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
    critical_cycle(task).map(|c| c.ratio).unwrap_or(Q::ZERO)
}

/// Finds a cycle achieving the maximum ratio (`None` for acyclic graphs).
pub fn critical_cycle(task: &DrtTask) -> Option<CriticalCycle> {
    critical_cycle_by(task, ScaledGraph::new(task).as_ref())
}

/// [`critical_cycle`] with the integer-scaled graph made explicit: `None`
/// relaxes every `λ` over exact rationals, `Some` over scaled integers
/// wherever they fit. Both give the same cycle and ratio (the unit tests
/// compare them).
fn critical_cycle_by(task: &DrtTask, scaled: Option<&ScaledGraph<i128>>) -> Option<CriticalCycle> {
    let mut cycle = any_cycle(task)?;
    let mut lambda = cycle_ratio(task, &cycle);
    // Improvement loop: each extracted cycle has a strictly larger ratio;
    // ratios come from a finite set, so this terminates.
    loop {
        let found = match scaled.and_then(|g| g.weights(lambda)) {
            Some(w) => {
                positive_cycle(task, &w).unwrap_or_else(|Overflow| exact_cycle(task, lambda))
            }
            None => exact_cycle(task, lambda),
        };
        match found {
            None => {
                return Some(CriticalCycle {
                    vertices: cycle,
                    ratio: lambda,
                });
            }
            Some(better) => {
                let r = cycle_ratio(task, &better);
                if r <= lambda {
                    // Defensive: extraction failed to improve (cannot happen
                    // for a correct positive-cycle witness); stop with the
                    // current — still valid — maximum candidate.
                    return Some(CriticalCycle {
                        vertices: cycle,
                        ratio: lambda,
                    });
                }
                lambda = r;
                cycle = better;
            }
        }
    }
}

/// The positive-cycle search over the exact rational reduced weights.
fn exact_cycle(task: &DrtTask, lambda: Q) -> Option<Vec<VertexId>> {
    let weights: Vec<Q> = (0..task.num_vertices())
        .flat_map(|u| task.out_edges(VertexId(u)))
        .map(|e| task.wcet(e.to) - lambda * e.separation)
        .collect();
    positive_cycle(task, &weights)
        .unwrap_or_else(|Overflow| unreachable!("Q::plus never reports overflow"))
}

/// The exact ratio of a vertex cycle.
fn cycle_ratio(task: &DrtTask, cycle: &[VertexId]) -> Q {
    let mut work = Q::ZERO;
    let mut span = Q::ZERO;
    for (i, &v) in cycle.iter().enumerate() {
        let next = cycle[(i + 1) % cycle.len()];
        work += task.wcet(next);
        let e = task
            .out_edges(v)
            .iter()
            .find(|e| e.to == next)
            .expect("cycle edge must exist");
        span += e.separation;
    }
    work / span
}

/// Any cycle of the graph, via DFS back-edge detection.
fn any_cycle(task: &DrtTask) -> Option<Vec<VertexId>> {
    let n = task.num_vertices();
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let mut color = vec![Color::White; n];
    let mut stack_path: Vec<usize> = Vec::new();
    for start in 0..n {
        if color[start] != Color::White {
            continue;
        }
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        color[start] = Color::Gray;
        stack_path.push(start);
        while let Some(&(v, ei)) = stack.last() {
            if ei < task.out_edges(VertexId(v)).len() {
                stack.last_mut().expect("non-empty").1 += 1;
                let w = task.out_edges(VertexId(v))[ei].to.0;
                match color[w] {
                    Color::Gray => {
                        // Found a back edge: the cycle is the path suffix
                        // from w.
                        let pos = stack_path
                            .iter()
                            .position(|&x| x == w)
                            .expect("gray vertex on path");
                        return Some(stack_path[pos..].iter().map(|&x| VertexId(x)).collect());
                    }
                    Color::White => {
                        color[w] = Color::Gray;
                        stack.push((w, 0));
                        stack_path.push(w);
                    }
                    Color::Black => {}
                }
            } else {
                color[v] = Color::Black;
                stack.pop();
                stack_path.pop();
            }
        }
    }
    None
}

/// Detects a cycle with strictly positive reduced weight
/// `Σ (wcet(target) − λ·separation)` via Bellman–Ford longest-path
/// relaxation from a virtual super-source, returning the cycle if found.
/// `weights` holds the reduced weight of every edge in `out_edges` order,
/// source by source.
fn positive_cycle<W: Weight>(
    task: &DrtTask,
    weights: &[W],
) -> Result<Option<Vec<VertexId>>, Overflow> {
    let n = task.num_vertices();
    let mut dist = vec![W::ZERO; n];
    let mut parent: Vec<Option<usize>> = vec![None; n];
    let mut improved_vertex = None;
    for round in 0..n {
        let mut improved = false;
        let mut w = weights.iter();
        for u in 0..n {
            for e in task.out_edges(VertexId(u)) {
                let cand = dist[u].plus(*w.next().expect("one weight per edge"))?;
                if cand > dist[e.to.0] {
                    dist[e.to.0] = cand;
                    parent[e.to.0] = Some(u);
                    improved = true;
                    if round == n - 1 {
                        improved_vertex = Some(e.to.0);
                    }
                }
            }
        }
        if !improved {
            return Ok(None);
        }
    }
    Ok(extract_cycle(improved_vertex, &parent))
}

/// The cycle on the parent pointers reached from the vertex improved in
/// the last relaxation round.
fn extract_cycle(
    improved_vertex: Option<usize>,
    parent: &[Option<usize>],
) -> Option<Vec<VertexId>> {
    let n = parent.len();
    let mut v = improved_vertex?;
    // Walk the parent chain until a vertex repeats: that vertex lies on the
    // positive cycle recorded by the parent pointers.
    let mut seen = vec![false; n];
    loop {
        if seen[v] {
            break;
        }
        seen[v] = true;
        v = parent[v]?;
    }
    // Extract the cycle through v.
    let mut cycle = vec![v];
    let mut cur = parent[v]?;
    while cur != v {
        cycle.push(cur);
        cur = parent[cur]?;
    }
    cycle.reverse();
    Some(cycle.into_iter().map(VertexId).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digraph::DrtTaskBuilder;
    use srtw_minplus::q;

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
    /// vertex on a ring (so there is a cycle), plus random chords.
    fn random_task(rng: &mut srtw_detrand::Rng, size: u32) -> DrtTask {
        let n = rng.random_range(1..=2 + size as i128 / 8) as usize;
        let mut b = DrtTaskBuilder::new("random");
        let vs: Vec<VertexId> = (0..n)
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
        b.build().unwrap()
    }

    #[test]
    fn integer_and_rational_relaxation_find_the_same_cycle() {
        srtw_detrand::prop::forall("max_cycle_ratio_i128_vs_q", random_task, |task| {
            let scaled = ScaledGraph::new(task).expect("small denominators scale");
            let integer = critical_cycle_by(task, Some(&scaled)).unwrap();
            let exact = critical_cycle_by(task, None).unwrap();
            assert_eq!(integer, exact);
        });
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
        assert_eq!(c, critical_cycle_by(&t, None).unwrap());
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
