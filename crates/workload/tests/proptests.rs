//! Property-based tests for the workload models and their bound functions.
//!
//! Runs on the in-house seeded harness ([`srtw_detrand::prop`]); set
//! `SRTW_PROP_CASES` / `SRTW_PROP_SEED` / `SRTW_PROP_REPLAY` to control it.

use srtw_detrand::prop::forall;
use srtw_detrand::Rng;
use srtw_minplus::Q;
use srtw_workload::{
    explore, long_run_utilization, Dbf, DrtTask, DrtTaskBuilder, ExploreConfig, Rbf,
};

/// Generator: a random small strongly-connected-ish digraph task built from
/// a ring plus chords, with optional deadlines.
fn task(rng: &mut Rng, with_deadlines: bool) -> DrtTask {
    let n = rng.random_range(2usize..6);
    let chords: Vec<(usize, usize, i128)> = (0..rng.random_range(0usize..6))
        .map(|_| {
            (
                rng.random_range(0usize..6),
                rng.random_range(0usize..6),
                rng.random_range(2i128..12),
            )
        })
        .collect();
    let params: Vec<(i128, i128)> = (0..6)
        .map(|_| (rng.random_range(1i128..6), rng.random_range(3i128..15)))
        .collect();

    let mut b = DrtTaskBuilder::new("prop");
    let ids: Vec<_> = (0..n)
        .map(|i| {
            let (w, d) = params[i];
            if with_deadlines {
                b.vertex_with_deadline(format!("v{i}"), Q::int(w), Q::int(d + w))
            } else {
                b.vertex(format!("v{i}"), Q::int(w))
            }
        })
        .collect();
    let mut present = std::collections::HashSet::new();
    for i in 0..n {
        let j = (i + 1) % n;
        let (_, sep) = params[i];
        b.edge(ids[i], ids[j], Q::int(sep));
        present.insert((i, j));
    }
    for (i, j, sep) in chords {
        let (i, j) = (i % n, j % n);
        if present.insert((i, j)) {
            b.edge(ids[i], ids[j], Q::int(sep));
        }
    }
    b.build().expect("generated task valid")
}

#[test]
fn rbf_is_subadditive() {
    forall(
        "rbf_is_subadditive",
        |rng, _| task(rng, false),
        |task| {
            // rbf(a + b) ≤ rbf(a) + rbf(b): a window splits into two halves
            // whose sub-paths are themselves legal paths.
            let h = Q::int(60);
            let rbf = Rbf::compute(task, h);
            for a in 0..30i128 {
                for b in 0..30i128 {
                    let (qa, qb) = (Q::int(a), Q::int(b));
                    assert!(
                        rbf.eval(qa + qb) <= rbf.eval(qa) + rbf.eval(qb),
                        "rbf not subadditive at {a} + {b}"
                    );
                }
            }
        },
    );
}

#[test]
fn dbf_below_rbf_everywhere() {
    forall(
        "dbf_below_rbf_everywhere",
        |rng, _| task(rng, true),
        |task| {
            let h = Q::int(50);
            let rbf = Rbf::compute(task, h);
            let dbf = Dbf::compute(task, h).unwrap();
            for t in 0..=50i128 {
                let t = Q::int(t);
                assert!(dbf.eval(t) <= rbf.eval(t), "dbf > rbf at {t}");
            }
        },
    );
}

#[test]
fn rbf_growth_matches_utilization() {
    forall(
        "rbf_growth_matches_utilization",
        |rng, _| task(rng, false),
        |task| {
            // Long-run rbf slope approaches U: |rbf(T) − U·T| bounded by a
            // constant independent of T (total WCET is a safe constant here).
            let u = long_run_utilization(task).unwrap();
            let total_wcet: Q = task
                .vertex_ids()
                .map(|v| task.wcet(v))
                .fold(Q::ZERO, |a, b| a + b);
            let slack = total_wcet * Q::int(2) + Q::int(2);
            for &t in &[100i128, 200, 400] {
                let t = Q::int(t);
                let rbf = Rbf::compute(task, t);
                let v = rbf.eval(t);
                assert!(v <= u * t + slack, "rbf too high at {t}");
                // The critical cycle can be driven forever, so rbf also grows
                // at least at rate U (minus one cycle of slack).
                assert!(v + slack >= u * t, "rbf too low at {t}");
            }
        },
    );
}

#[test]
fn exploration_spans_are_sorted_and_within_horizon() {
    forall(
        "exploration_spans_are_sorted_and_within_horizon",
        |rng, _| task(rng, false),
        |task| {
            let h = Q::int(40);
            let ex = explore(task, &ExploreConfig::new(h));
            let mut prev = Q::ZERO;
            for n in ex.nodes() {
                assert!(n.span >= prev, "nodes not in span order");
                assert!(n.span <= h, "span beyond horizon");
                assert!(n.work.is_positive());
                prev = n.span;
            }
        },
    );
}

#[test]
fn witness_paths_are_graph_walks() {
    forall(
        "witness_paths_are_graph_walks",
        |rng, _| task(rng, false),
        |task| {
            let ex = explore(task, &ExploreConfig::new(Q::int(30)));
            for i in 0..ex.nodes().len().min(50) {
                let path = ex.path_of(i);
                assert_eq!(*path.last().unwrap(), ex.nodes()[i].vertex);
                for w in path.windows(2) {
                    assert!(
                        task.out_edges(w[0]).iter().any(|e| e.to == w[1]),
                        "witness path uses a non-edge"
                    );
                }
                assert_eq!(path.len(), ex.nodes()[i].len);
            }
        },
    );
}

#[test]
fn utilization_below_one_iff_bounded_by_cycle_check() {
    forall(
        "utilization_below_one_iff_bounded_by_cycle_check",
        |rng, _| task(rng, false),
        |task| {
            // The exact utilization equals the max over a brute-force cycle
            // enumeration on these small graphs (DFS up to n edges deep).
            let u = long_run_utilization(task).unwrap();
            let n = task.num_vertices();
            let mut best = Q::ZERO;
            // Enumerate simple cycles by DFS from each vertex.
            fn dfs(
                task: &DrtTask,
                start: srtw_workload::VertexId,
                v: srtw_workload::VertexId,
                visited: &mut Vec<bool>,
                work: Q,
                span: Q,
                best: &mut Q,
            ) {
                for e in task.out_edges(v) {
                    let w = task.wcet(e.to);
                    if e.to == start {
                        let ratio = (work + w) / (span + e.separation);
                        if ratio > *best {
                            *best = ratio;
                        }
                    } else if !visited[e.to.index()] {
                        visited[e.to.index()] = true;
                        dfs(task, start, e.to, visited, work + w, span + e.separation, best);
                        visited[e.to.index()] = false;
                    }
                }
            }
            for s in task.vertex_ids() {
                let mut visited = vec![false; n];
                visited[s.index()] = true;
                dfs(task, s, s, &mut visited, Q::ZERO, Q::ZERO, &mut best);
            }
            assert_eq!(u, best, "utilization mismatch vs brute-force cycles");
        },
    );
}
