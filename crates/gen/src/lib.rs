//! # srtw-gen — seeded random workload and server generation
//!
//! The experiment harness needs reproducible synthetic workloads in the
//! style used throughout the digraph-real-time-task literature: a random
//! strongly-connected base ring with extra chord edges, integer
//! separations and WCETs drawn from ranges, and an exact rescaling pass
//! that hits a target long-run utilization. All generation is seeded and
//! deterministic.
//!
//! # Example
//!
//! ```
//! use srtw_gen::{generate_drt, DrtGenConfig};
//! use srtw_minplus::{q, Q};
//! use srtw_workload::long_run_utilization;
//!
//! let cfg = DrtGenConfig {
//!     vertices: 6,
//!     extra_edges: 4,
//!     target_utilization: Some(q(3, 5)),
//!     ..DrtGenConfig::default()
//! };
//! let task = generate_drt(&cfg, 42);
//! assert_eq!(task.num_vertices(), 6);
//! assert_eq!(long_run_utilization(&task), Ok(q(3, 5)));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

use srtw_detrand::Rng;
use srtw_minplus::Q;
use srtw_workload::{critical_cycle, DrtTask, DrtTaskBuilder, VertexId};

/// Configuration of the random digraph-task generator.
#[derive(Debug, Clone)]
pub struct DrtGenConfig {
    /// Number of vertices (≥ 1).
    pub vertices: usize,
    /// Number of extra chord edges beyond the Hamiltonian base ring.
    pub extra_edges: usize,
    /// Inclusive range of integer edge separations.
    pub separation_range: (i128, i128),
    /// Inclusive range of integer vertex WCETs (before rescaling).
    pub wcet_range: (i128, i128),
    /// If set, rescale all WCETs exactly so the maximum cycle ratio equals
    /// this utilization.
    pub target_utilization: Option<Q>,
    /// If set, assign each vertex the deadline
    /// `factor · min(incoming separations)`.
    pub deadline_factor: Option<Q>,
}

impl Default for DrtGenConfig {
    fn default() -> DrtGenConfig {
        DrtGenConfig {
            vertices: 8,
            extra_edges: 8,
            separation_range: (5, 50),
            wcet_range: (1, 10),
            target_utilization: None,
            deadline_factor: None,
        }
    }
}

/// Generates a random strongly-connected digraph task (base ring plus
/// random chords), deterministically from `seed`.
///
/// # Panics
///
/// Panics on degenerate configurations (zero vertices, empty ranges,
/// non-positive target utilization).
pub fn generate_drt(cfg: &DrtGenConfig, seed: u64) -> DrtTask {
    assert!(cfg.vertices >= 1, "need at least one vertex");
    let (smin, smax) = cfg.separation_range;
    let (wmin, wmax) = cfg.wcet_range;
    assert!(0 < smin && smin <= smax, "bad separation range");
    assert!(0 < wmin && wmin <= wmax, "bad wcet range");

    let mut rng = Rng::seed_from_u64(seed);
    let mut b = DrtTaskBuilder::new(format!("rand-{seed}"));
    let n = cfg.vertices;

    // Draw raw integer WCETs; rescale exactly later.
    let wcets: Vec<i128> = (0..n).map(|_| rng.random_range(wmin..=wmax)).collect();
    let ids: Vec<VertexId> = wcets
        .iter()
        .enumerate()
        .map(|(i, &w)| b.vertex(format!("v{i}"), Q::int(w)))
        .collect();

    // Base ring guarantees strong connectivity (and hence cycles);
    // a single vertex gets a self-loop.
    let mut present = std::collections::HashSet::new();
    for i in 0..n {
        let j = (i + 1) % n;
        let sep = rng.random_range(smin..=smax);
        b.edge(ids[i], ids[j], Q::int(sep));
        present.insert((i, j));
    }

    // Random chords.
    let mut added = 0;
    let mut attempts = 0;
    while added < cfg.extra_edges && attempts < cfg.extra_edges * 20 + 50 {
        attempts += 1;
        let i = rng.random_range(0..n);
        let j = rng.random_range(0..n);
        if present.contains(&(i, j)) {
            continue;
        }
        let sep = rng.random_range(smin..=smax);
        b.edge(ids[i], ids[j], Q::int(sep));
        present.insert((i, j));
        added += 1;
    }

    let task = b.build().expect("generated graph must be valid");

    // Exact utilization rescaling: cycle ratios scale linearly with WCETs.
    match cfg.target_utilization {
        Some(u) => {
            assert!(u.is_positive(), "target utilization must be positive");
            let u0 = critical_cycle(&task)
                .expect("small integer weights fit i128")
                .expect("ring graph always has a cycle")
                .ratio;
            rebuild_scaled(&task, u / u0, cfg.deadline_factor)
        }
        None => match cfg.deadline_factor {
            Some(_) => rebuild_scaled(&task, Q::ONE, cfg.deadline_factor),
            None => task,
        },
    }
}

/// Rebuilds a task with WCETs scaled by `factor` and optional deadlines
/// `deadline_factor · min(incoming separations)`.
fn rebuild_scaled(task: &DrtTask, factor: Q, deadline_factor: Option<Q>) -> DrtTask {
    let mut b = DrtTaskBuilder::new(task.name().to_owned());
    let n = task.num_vertices();
    // Min incoming separation per vertex.
    let mut min_in: Vec<Option<Q>> = vec![None; n];
    for v in task.vertex_ids() {
        for e in task.out_edges(v) {
            let slot = &mut min_in[e.to.index()];
            *slot = Some(match *slot {
                None => e.separation,
                Some(m) => m.min(e.separation),
            });
        }
    }
    let ids: Vec<VertexId> = task
        .vertex_ids()
        .map(|v| {
            let w = task.wcet(v) * factor;
            let id = b.vertex(task.vertex(v).label.clone(), w);
            if let Some(df) = deadline_factor {
                if let Some(m) = min_in[v.index()] {
                    b.set_deadline(id, df * m);
                }
            }
            id
        })
        .collect();
    for v in task.vertex_ids() {
        for e in task.out_edges(v) {
            b.edge(ids[v.index()], ids[e.to.index()], e.separation);
        }
    }
    b.build().expect("rescaled graph must be valid")
}

/// Pairwise-distinct primes used by the adversarial generators. Drawing
/// separations from here guarantees no two edge periods share a factor,
/// so rbf breakpoints never align and hyperperiods explode.
const COPRIME_POOL: &[i128] = &[
    10_007,
    10_009,
    10_037,
    100_003,
    100_019,
    100_043,
    999_983,
    1_299_709,
    15_485_863,
    179_424_673,
    982_451_653,
];

/// Adversarial: a ring whose separations are huge pairwise-coprime primes
/// and whose WCETs carry coprime denominators.
///
/// Stresses exact rational arithmetic (lcm growth in curve alignment) and
/// the segment budget: every pairwise sum of separations is a fresh rbf
/// breakpoint, none ever coincide, and normalisation denominators grow
/// multiplicatively. Utilization stays low (≤ `n · 10⁻⁴`), so systems
/// built from this task are schedulable on any unit-rate server — the
/// *analysis effort* is what blows up, not the load.
pub fn adversarial_coprime(n: usize, seed: u64) -> DrtTask {
    let n = n.clamp(1, COPRIME_POOL.len());
    let mut rng = Rng::seed_from_u64(seed);
    let mut b = DrtTaskBuilder::new(format!("coprime-{seed}"));
    // Random rotation of the pool keeps different seeds structurally
    // different while preserving pairwise coprimality.
    let start = rng.random_range(0..COPRIME_POOL.len());
    let ids: Vec<VertexId> = (0..n)
        .map(|i| {
            // wcet = k + 1/den: an integer part for real demand plus a
            // prime denominator, so work sums never share factors and
            // rational normalisation does real lcm work. Denominators
            // stay in the small end of the pool: their running product
            // (the worst-case common denominator) must survive squaring
            // inside the curve algebra without overflowing `i128`.
            let den = COPRIME_POOL[(start + i) % 3];
            let k = rng.random_range(1i128..=3);
            b.vertex(format!("c{i}"), Q::int(k) + Q::new(1, den))
        })
        .collect();
    for i in 0..n {
        let p = COPRIME_POOL[(start + i) % COPRIME_POOL.len()];
        b.edge(ids[i], ids[(i + 1) % n], Q::int(p));
    }
    b.build().expect("coprime ring is a valid graph")
}

/// Adversarial: a deep chain `v0 → v1 → … → v_{depth-1} → v0` with tiny
/// forward separations and one long closing edge.
///
/// Stresses path exploration depth: abstract paths along the chain are
/// long and their spans dense, so the heap of open paths grows with the
/// busy-window horizon. The closing edge keeps the only cycle's ratio —
/// and hence the long-run utilization — near `1/12` regardless of depth.
pub fn adversarial_deep_chain(depth: usize, seed: u64) -> DrtTask {
    let depth = depth.max(2);
    let mut rng = Rng::seed_from_u64(seed);
    let mut b = DrtTaskBuilder::new(format!("chain-{seed}"));
    let ids: Vec<VertexId> = (0..depth)
        .map(|i| b.vertex(format!("d{i}"), Q::ONE))
        .collect();
    for i in 0..depth - 1 {
        b.edge(ids[i], ids[i + 1], Q::int(rng.random_range(1i128..=3)));
    }
    b.edge(ids[depth - 1], ids[0], Q::int(10 * depth as i128));
    b.build().expect("chain is a valid graph")
}

/// Adversarial: a dense digraph — every ordered pair of distinct vertices
/// is an edge — with small random separations.
///
/// Stresses path *count*: exploration branches `n − 1` ways at every
/// vertex, so the number of abstract paths grows as `(n−1)^k` with depth
/// `k` and only Pareto pruning or a path budget keeps it finite. The raw
/// task is usually unstable on a unit-rate server; pass it through
/// [`rescale_utilization`] to obtain a schedulable stress instance.
pub fn adversarial_dense(n: usize, seed: u64) -> DrtTask {
    let n = n.max(2);
    let mut rng = Rng::seed_from_u64(seed);
    let mut b = DrtTaskBuilder::new(format!("dense-{seed}"));
    let ids: Vec<VertexId> = (0..n)
        .map(|i| b.vertex(format!("x{i}"), Q::int(rng.random_range(1i128..=3))))
        .collect();
    for i in 0..n {
        for j in 0..n {
            if i != j {
                b.edge(ids[i], ids[j], Q::int(rng.random_range(2i128..=7)));
            }
        }
    }
    b.build().expect("dense graph is a valid graph")
}

/// Adversarial: a ring of `n` vertices, each with a self-loop, whose WCETs
/// and separations are fractions with numerators near 2⁷⁰ and
/// denominators near 2⁴⁰, all drawn independently.
///
/// Stresses the range of exact arithmetic rather than its effort: the
/// common denominator of three such weights leaves `i128`, so the searches
/// run in exact rationals, and a sum of a few weights (a cycle's work or
/// span, a busy window's demand) can leave `i128` too. Each weight is near
/// 2³⁰, separations one to four times a WCET, so cycle ratios land between
/// about ¼ and 1 and the generated systems are stable on some of the
/// servers a stress test draws.
pub fn adversarial_wide(n: usize, seed: u64) -> DrtTask {
    let n = n.max(1);
    let mut rng = Rng::seed_from_u64(seed);
    let mut b = DrtTaskBuilder::new(format!("wide-{seed}"));
    // `times` · (2⁷⁰ + r) / (2⁴⁰ + d).
    let wide = |rng: &mut Rng, times: i128| {
        let num = times * ((1i128 << 70) + i128::from(rng.next_u64()));
        let den = (1i128 << 40) + rng.random_range(1i128..=1 << 32);
        Q::new(num, den)
    };
    let ids: Vec<VertexId> = (0..n)
        .map(|i| b.vertex(format!("w{i}"), wide(&mut rng, 1)))
        .collect();
    for i in 0..n {
        let times = rng.random_range(1i128..=4);
        b.edge(ids[i], ids[i], wide(&mut rng, times));
        if n > 1 {
            let times = rng.random_range(1i128..=4);
            b.edge(ids[i], ids[(i + 1) % n], wide(&mut rng, times));
        }
    }
    b.build().expect("wide ring is a valid graph")
}

/// Rebuilds `task` with WCETs scaled exactly so its long-run utilization
/// (maximum cycle ratio) equals `target`.
///
/// # Panics
///
/// Panics if `target` is not positive, the task has no cycle, or its
/// maximum cycle ratio overflows `i128`.
pub fn rescale_utilization(task: &DrtTask, target: Q) -> DrtTask {
    assert!(target.is_positive(), "target utilization must be positive");
    let u0 = critical_cycle(task)
        .expect("the task's maximum cycle ratio fits i128")
        .expect("rescaled task must contain a cycle")
        .ratio;
    rebuild_scaled(task, target / u0, None)
}

/// Generates a set of `count` tasks whose utilizations sum to
/// `total_utilization` (uniform split), for FIFO multiplex experiments.
pub fn generate_task_set(
    cfg: &DrtGenConfig,
    count: usize,
    total_utilization: Q,
    seed: u64,
) -> Vec<DrtTask> {
    assert!(count >= 1);
    let share = total_utilization / Q::int(count as i128);
    (0..count)
        .map(|i| {
            let mut c = cfg.clone();
            c.target_utilization = Some(share);
            generate_drt(&c, seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use srtw_minplus::q;
    use srtw_minplus::ArithmeticError;
    use srtw_workload::long_run_utilization;

    #[test]
    fn generation_is_deterministic() {
        let cfg = DrtGenConfig::default();
        let a = generate_drt(&cfg, 1);
        let b = generate_drt(&cfg, 1);
        assert_eq!(a, b);
        let c = generate_drt(&cfg, 2);
        assert_ne!(a, c);
    }

    #[test]
    fn hits_target_utilization_exactly() {
        for seed in 0..20 {
            let cfg = DrtGenConfig {
                vertices: 6,
                extra_edges: 5,
                target_utilization: Some(q(7, 10)),
                ..DrtGenConfig::default()
            };
            let t = generate_drt(&cfg, seed);
            assert_eq!(long_run_utilization(&t), Ok(q(7, 10)), "seed {seed}");
        }
    }

    #[test]
    fn ring_always_cyclic_and_connected() {
        for n in 1..10 {
            let cfg = DrtGenConfig {
                vertices: n,
                extra_edges: 0,
                ..DrtGenConfig::default()
            };
            let t = generate_drt(&cfg, 99);
            assert_eq!(t.num_vertices(), n);
            assert!(t.has_cycle());
            assert_eq!(t.num_edges(), n);
        }
    }

    #[test]
    fn deadlines_assigned_when_requested() {
        let cfg = DrtGenConfig {
            vertices: 5,
            deadline_factor: Some(q(1, 2)),
            target_utilization: Some(q(1, 2)),
            ..DrtGenConfig::default()
        };
        let t = generate_drt(&cfg, 5);
        for v in t.vertex_ids() {
            let d = t.deadline(v).expect("deadline assigned");
            assert!(d.is_positive());
        }
    }

    #[test]
    fn task_set_split_utilization() {
        let cfg = DrtGenConfig {
            vertices: 4,
            ..DrtGenConfig::default()
        };
        let set = generate_task_set(&cfg, 3, q(3, 4), 7);
        assert_eq!(set.len(), 3);
        let total: Q = set
            .iter()
            .map(|t| long_run_utilization(t).unwrap())
            .fold(Q::ZERO, |a, b| a + b);
        assert_eq!(total, q(3, 4));
    }

    #[test]
    fn coprime_ring_has_coprime_separations_and_low_utilization() {
        let t = adversarial_coprime(5, 11);
        assert_eq!(t.num_vertices(), 5);
        let seps: Vec<i128> = t
            .vertex_ids()
            .flat_map(|v| t.out_edges(v).iter().map(|e| e.separation.numer()).collect::<Vec<_>>())
            .collect();
        for (i, a) in seps.iter().enumerate() {
            for b in &seps[i + 1..] {
                assert_ne!(a, b, "separations must be distinct primes");
                assert_eq!(gcd(*a, *b), 1, "{a} and {b} must be coprime");
            }
        }
        assert!(long_run_utilization(&t).unwrap() < q(1, 100));
        assert_eq!(t, adversarial_coprime(5, 11), "deterministic");
    }

    fn gcd(a: i128, b: i128) -> i128 {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }

    #[test]
    fn deep_chain_has_bounded_utilization() {
        for depth in [2, 10, 40] {
            let t = adversarial_deep_chain(depth, 7);
            assert_eq!(t.num_vertices(), depth);
            assert_eq!(t.num_edges(), depth);
            let u = long_run_utilization(&t).unwrap();
            assert!(u <= q(1, 10), "depth {depth}: utilization {u}");
        }
    }

    #[test]
    fn wide_ring_weights_are_near_two_to_the_thirty() {
        let t = adversarial_wide(4, 3);
        assert_eq!((t.num_vertices(), t.num_edges()), (4, 8));
        let seps = t
            .vertex_ids()
            .flat_map(|v| t.out_edges(v).iter().map(|e| e.separation));
        for w in t.vertex_ids().map(|v| t.wcet(v)).chain(seps) {
            assert!(Q::int(1 << 29) < w && w < Q::int(1 << 33) && w.denom() > 1 << 30);
        }
        // A one-vertex ring's ratio fits; a longer ring's cycle sums do not.
        assert!(long_run_utilization(&adversarial_wide(1, 3)).is_ok());
        assert_eq!(long_run_utilization(&t), Err(ArithmeticError::Overflow));
    }

    #[test]
    fn dense_graph_is_complete_and_rescalable() {
        let t = adversarial_dense(5, 13);
        assert_eq!(t.num_edges(), 20); // 5·4 ordered pairs
        let scaled = rescale_utilization(&t, q(2, 5));
        assert_eq!(long_run_utilization(&scaled), Ok(q(2, 5)));
        assert_eq!(scaled.num_edges(), 20);
    }

    #[test]
    fn single_vertex_graph() {
        let cfg = DrtGenConfig {
            vertices: 1,
            extra_edges: 0,
            ..DrtGenConfig::default()
        };
        let t = generate_drt(&cfg, 3);
        assert_eq!(t.num_vertices(), 1);
        assert!(t.has_cycle()); // self-loop ring
    }
}
