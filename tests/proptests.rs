//! Cross-crate property-based tests: the analysis theorems must hold for
//! arbitrary generated workloads and servers.
//!
//! Runs on the in-house seeded harness ([`srtw_detrand::prop`]); set
//! `SRTW_PROP_CASES` / `SRTW_PROP_SEED` / `SRTW_PROP_REPLAY` to control it.

use srtw::prop::forall;
use srtw::{
    earliest_random_walk, generate_drt, q, rtc_delay, simulate_fifo, structural_delay,
    structural_delay_with, AnalysisConfig, Curve, DrtGenConfig, DrtTask, Q, Rng, Server,
    ServiceProcess,
};

/// Generator: a random generated task plus the parameters that shaped it.
fn task(rng: &mut Rng) -> DrtTask {
    let cfg = DrtGenConfig {
        vertices: rng.random_range(2usize..7),
        extra_edges: rng.random_range(0usize..8),
        separation_range: (3, 20),
        wcet_range: (1, 6),
        target_utilization: Some(Q::new(rng.random_range(1i128..8), 10)),
        deadline_factor: None,
    };
    generate_drt(&cfg, rng.next_u64())
}

/// Generator: a random stable server for the given demand-rate ceiling.
fn server(rng: &mut Rng) -> Curve {
    match rng.random_range(0u32..3) {
        0 => Curve::rate_latency(
            q(rng.random_range(8i128..=20), 10),
            Q::int(rng.random_range(0i128..=8)),
        ),
        1 => Curve::affine(Q::ZERO, Q::ONE),
        _ => {
            let slot = rng.random_range(1i128..=3);
            let cycle = rng.random_range(4i128..=6);
            srtw::TdmaServer::new(Q::int(slot), Q::int(cycle), Q::int(2))
                .expect("valid tdma")
                .beta_lower()
        }
    }
}

/// Generator: a `(task, server)` pair with the stability side-condition
/// `U < rate(β)` built in (the old `prop_assume!`): draw until it holds,
/// falling back to the always-stable unit-rate server after a bounded
/// number of rejections (target utilizations top out at 0.8 < 1).
fn stable_pair(rng: &mut Rng) -> (DrtTask, Curve) {
    for _ in 0..64 {
        let t = task(rng);
        let beta = server(rng);
        if srtw::long_run_utilization(&t).unwrap() < beta.rate() {
            return (t, beta);
        }
    }
    let t = task(rng);
    let beta = Curve::affine(Q::ZERO, Q::ONE);
    assert!(srtw::long_run_utilization(&t).unwrap() < beta.rate());
    (t, beta)
}

#[test]
fn stream_max_equals_rtc() {
    forall(
        "stream_max_equals_rtc",
        |rng, _| stable_pair(rng),
        |(task, beta)| {
            let s = structural_delay(task, beta).unwrap();
            let r = rtc_delay(task, beta).unwrap();
            assert_eq!(s.stream_bound, r.bound);
            for vb in &s.per_vertex {
                assert!(vb.bound <= r.bound);
            }
        },
    );
}

#[test]
fn pruning_is_lossless() {
    forall(
        "pruning_is_lossless",
        |rng, _| stable_pair(rng),
        |(task, beta)| {
            let pruned = structural_delay(task, beta).unwrap();
            let raw = structural_delay_with(
                task,
                beta,
                &AnalysisConfig {
                    no_prune: true,
                    ..Default::default()
                },
            )
            .unwrap();
            for (a, b) in pruned.per_vertex.iter().zip(raw.per_vertex.iter()) {
                assert_eq!(a.bound, b.bound, "pruning changed a bound");
            }
            assert!(raw.paths_retained >= pruned.paths_retained);
        },
    );
}

#[test]
fn horizon_fraction_is_sound_and_bracketed() {
    forall(
        "horizon_fraction_is_sound_and_bracketed",
        |rng, _| {
            let (task, beta) = stable_pair(rng);
            (task, beta, rng.random_range(0i128..=4))
        },
        |(task, beta, knum)| {
            let full = structural_delay(task, beta).unwrap();
            let rtc = rtc_delay(task, beta).unwrap();
            let a = structural_delay_with(
                task,
                beta,
                &AnalysisConfig {
                    horizon_fraction: Some(q(*knum, 4)),
                    ..Default::default()
                },
            )
            .unwrap();
            let max = a.per_vertex.iter().map(|b| b.bound).fold(Q::ZERO, Q::max);
            assert!(max <= rtc.bound, "partial analysis worse than RTC");
            for (x, f) in a.per_vertex.iter().zip(full.per_vertex.iter()) {
                assert!(x.bound >= f.bound, "partial analysis unsound vs full");
            }
        },
    );
}

#[test]
fn simulated_delays_below_bounds() {
    forall(
        "simulated_delays_below_bounds",
        |rng, _| (task(rng), rng.next_u64()),
        |(task, trace_seed)| {
            let rate = Q::ONE;
            let beta = Curve::affine(Q::ZERO, rate);
            // Generated target utilizations are ≤ 0.8, so the unit-rate
            // server is always stable (the old assume was vacuous here).
            assert!(srtw::long_run_utilization(task).unwrap() < rate);
            let analysis = structural_delay(task, &beta).unwrap();
            let trace = earliest_random_walk(task, Q::int(150), None, *trace_seed);
            assert!(trace.is_legal(task));
            let out = simulate_fifo(
                std::slice::from_ref(task),
                std::slice::from_ref(&trace),
                &ServiceProcess::fluid(rate),
            );
            for v in task.vertex_ids() {
                assert!(out.max_delay_of(0, v) <= analysis.bound_of(v));
            }
        },
    );
}

#[test]
fn rbf_envelope_dominates_every_trace() {
    forall(
        "rbf_envelope_dominates_every_trace",
        |rng, _| (task(rng), rng.next_u64()),
        |(task, seed)| {
            let rbf = srtw::Rbf::compute(task, Q::int(100));
            let trace = earliest_random_walk(task, Q::int(100), None, *seed);
            // Any window of any legal trace carries at most rbf(len) work.
            let releases = trace.releases();
            for i in 0..releases.len() {
                for j in i..releases.len() {
                    let len = releases[j].time - releases[i].time;
                    let work: Q = releases[i..=j]
                        .iter()
                        .map(|r| task.wcet(r.vertex))
                        .fold(Q::ZERO, |a, b| a + b);
                    assert!(work <= rbf.eval(len), "trace window exceeds rbf");
                }
            }
        },
    );
}

#[test]
fn utilization_bounds_rbf_growth() {
    forall(
        "utilization_bounds_rbf_growth",
        |rng, _| task(rng),
        |task| {
            // rbf(t) ≤ U·t + n·max_wcet (coarse linear envelope).
            let u = srtw::long_run_utilization(task).unwrap();
            let rbf = srtw::Rbf::compute(task, Q::int(200));
            let slack = task.max_wcet() * Q::int(task.num_vertices() as i128 + 1);
            for i in 0..=20 {
                let t = Q::int(i * 10);
                assert!(
                    rbf.eval(t) <= u * t + slack,
                    "rbf({t}) = {} exceeds linear envelope",
                    rbf.eval(t)
                );
            }
        },
    );
}
