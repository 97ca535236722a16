//! Property-based tests for the workload generator.
//!
//! Runs on the in-house seeded harness ([`srtw_detrand::prop`]); set
//! `SRTW_PROP_CASES` / `SRTW_PROP_SEED` / `SRTW_PROP_REPLAY` to control it.

use srtw_detrand::prop::forall;
use srtw_detrand::Rng;
use srtw_gen::{generate_drt, generate_task_set, DrtGenConfig};
use srtw_minplus::Q;
use srtw_workload::long_run_utilization;

fn config(rng: &mut Rng) -> DrtGenConfig {
    DrtGenConfig {
        vertices: rng.random_range(2usize..8),
        extra_edges: rng.random_range(0usize..10),
        separation_range: (3, 30),
        wcet_range: (1, 8),
        target_utilization: Some(Q::new(rng.random_range(1i128..9), 10)),
        deadline_factor: if rng.random_bool() {
            Some(Q::int(2))
        } else {
            None
        },
    }
}

#[test]
fn generator_is_deterministic_and_hits_target() {
    forall(
        "generator_is_deterministic_and_hits_target",
        |rng, _| (config(rng), rng.next_u64()),
        |(cfg, seed)| {
            let a = generate_drt(cfg, *seed);
            let b = generate_drt(cfg, *seed);
            assert_eq!(&a, &b, "same seed must reproduce the same task");
            assert_eq!(a.num_vertices(), cfg.vertices);
            assert_eq!(
                long_run_utilization(&a),
                Ok(cfg.target_utilization.unwrap()),
                "exact utilization rescaling failed"
            );
            assert!(a.has_cycle(), "ring construction guarantees a cycle");
            if cfg.deadline_factor.is_some() {
                for v in a.vertex_ids() {
                    assert!(a.deadline(v).is_some());
                }
            }
        },
    );
}

#[test]
fn task_sets_partition_utilization() {
    forall(
        "task_sets_partition_utilization",
        |rng, _| {
            (
                config(rng),
                rng.random_range(1usize..5),
                rng.next_u64(),
                rng.random_range(1i128..9),
            )
        },
        |(cfg, count, seed, unum)| {
            let total = Q::new(*unum, 10);
            let set = generate_task_set(cfg, *count, total, *seed);
            assert_eq!(set.len(), *count);
            let sum: Q = set
                .iter()
                .map(|t| long_run_utilization(t).unwrap())
                .fold(Q::ZERO, |a, b| a + b);
            assert_eq!(sum, total);
        },
    );
}

#[test]
fn generated_graphs_are_analysable() {
    forall(
        "generated_graphs_are_analysable",
        |rng, _| (config(rng), rng.next_u64()),
        |(cfg, seed)| {
            // Every generated stable task must pass the full analysis without
            // panicking, and satisfy the stream-max == RTC theorem.
            let task = generate_drt(cfg, *seed);
            let beta = srtw_minplus::Curve::affine(Q::ZERO, Q::ONE);
            if long_run_utilization(&task).unwrap() < Q::ONE {
                let s = srtw_core::structural_delay(&task, &beta).unwrap();
                let r = srtw_core::rtc_delay(&task, &beta).unwrap();
                assert_eq!(s.stream_bound, r.bound);
            }
        },
    );
}
