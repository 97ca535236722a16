//! Adversarial stress properties for the budgeted analysis engine.
//!
//! Four claims, each over seeded random adversarial workloads (huge
//! coprime periods, deep chains, dense graphs, weights whose exact sums
//! leave `i128`):
//!
//! 1. the engine never panics — every outcome is `Ok` or a typed `Err`;
//! 2. it terminates promptly once its effort budget trips;
//! 3. degraded bounds are sandwiched: at least the full structural bound
//!    (soundness) and at most the RTC baseline under the same budget
//!    (graceful degradation never does worse than the fraction-0
//!    fallback);
//! 4. the sandwich also holds when the run is cancelled from another
//!    thread at an arbitrary point mid-exploration — the way a serve
//!    drain and the batch watchdog stop an analysis.
//!
//! Case counts follow `SRTW_PROP_CASES` (default 64); failures print a
//! `SRTW_PROP_REPLAY=<seed>:<size>` handle for exact reproduction.

use srtw::gen::{
    adversarial_coprime, adversarial_deep_chain, adversarial_dense, adversarial_wide,
    rescale_utilization,
};
use srtw::prop::forall;
use srtw::{
    earliest_random_walk, q, rtc_delay_with, simulate_fifo, structural_delay,
    structural_delay_with, AnalysisConfig, AnalysisError, Budget, CancelToken, Curve, DrtTask,
    FaultPlan, Q, Rng, ServiceProcess,
};
use std::time::{Duration, Instant};

/// An adversarial task of any shape and a random rate-latency server.
/// Sizes are uncapped except by the harness `size` budget: instances may
/// well be unstable or far too big to analyse exactly — that is the point.
fn any_adversarial(rng: &mut Rng, size: u32) -> (DrtTask, Curve) {
    let seed = rng.next_u64();
    let task = match rng.random_range(0u32..5) {
        0 => adversarial_coprime(1 + size as usize / 4, seed),
        1 => adversarial_deep_chain(2 + size as usize, seed),
        2 => adversarial_dense(2 + size as usize / 8, seed),
        3 => adversarial_wide(1 + size as usize / 16, seed),
        _ => rescale_utilization(&adversarial_dense(2 + size as usize / 8, seed), q(1, 2)),
    };
    let rate = Q::int(rng.random_range(1i128..=4));
    let latency = Q::int(rng.random_range(0i128..=5));
    (task, Curve::rate_latency(rate, latency))
}

/// A *small, stable* adversarial instance on a rate-2 server: exact
/// analysis stays cheap, and the coarse packing rate of every shape stays
/// below the service rate, so degradation always has a sound fallback.
fn small_stable(rng: &mut Rng, size: u32) -> (DrtTask, Curve) {
    let seed = rng.next_u64();
    let task = match rng.random_range(0u32..3) {
        0 => adversarial_coprime(1 + size as usize % 3, seed),
        1 => adversarial_deep_chain(2 + size as usize % 7, seed),
        _ => rescale_utilization(&adversarial_dense(2 + size as usize % 3, seed), q(1, 2)),
    };
    let latency = Q::int(rng.random_range(0i128..=3));
    (task, Curve::rate_latency(Q::int(2), latency))
}

#[test]
fn adversarial_systems_never_panic_and_respect_the_budget() {
    forall("no_panic_within_budget", any_adversarial, |(task, beta)| {
        let budget = Budget::wall_ms(150)
            .with_max_paths(400)
            .with_max_segments(4000);
        let cfg = AnalysisConfig {
            budget,
            ..Default::default()
        };
        let t0 = Instant::now();
        let result = structural_delay_with(task, beta, &cfg);
        // Cooperative metering: the run must wind down promptly after the
        // 150 ms wall budget trips (generous slack for slow machines).
        assert!(
            t0.elapsed() < Duration::from_secs(20),
            "analysis overran its budget: {:?}",
            t0.elapsed()
        );
        match result {
            Ok(a) => {
                // A degraded verdict must say what was degraded.
                assert_eq!(a.quality.is_exact(), a.degradations.is_empty());
                for vb in &a.per_vertex {
                    assert!(vb.bound >= Q::ZERO);
                    assert!(vb.bound <= a.stream_bound);
                }
            }
            // Typed refusals (unstable, saturated, exhausted, overflow)
            // are legitimate outcomes; reaching this arm at all means no
            // panic escaped the engine.
            Err(e) => {
                let _ = e.to_string();
            }
        }
    });
}

#[test]
fn degraded_bounds_are_sandwiched_between_structural_and_rtc() {
    forall("structural_le_degraded_le_rtc", small_stable, |(task, beta)| {
        let exact = structural_delay(task, beta).expect("small stable instance");
        for cap in [0u64, 2, 8, 32] {
            let budget = Budget::default().with_max_paths(cap);
            let cfg = AnalysisConfig {
                budget: budget.clone(),
                ..Default::default()
            };
            let degraded = structural_delay_with(task, beta, &cfg);
            let rtc = rtc_delay_with(task, beta, &budget);
            match (degraded, rtc) {
                (Ok(a), Ok(r)) => {
                    assert!(
                        a.stream_bound >= exact.stream_bound,
                        "cap {cap}: degraded stream bound {} below exact {}",
                        a.stream_bound,
                        exact.stream_bound
                    );
                    for (d, e) in a.per_vertex.iter().zip(exact.per_vertex.iter()) {
                        assert!(
                            d.bound >= e.bound,
                            "cap {cap}: vertex '{}' degraded {} below exact {}",
                            d.label,
                            d.bound,
                            e.bound
                        );
                    }
                    assert!(
                        a.stream_bound <= r.bound,
                        "cap {cap}: degraded stream bound {} above RTC baseline {}",
                        a.stream_bound,
                        r.bound
                    );
                }
                (Err(AnalysisError::BudgetExhausted { .. }), _)
                | (_, Err(AnalysisError::BudgetExhausted { .. })) => {}
                (a, r) => panic!("cap {cap}: unexpected outcome {a:?} / {r:?}"),
            }
        }
    });
}

/// A small stable instance plus a seeded fault plan and a simulation seed.
fn small_stable_with_fault(rng: &mut Rng, size: u32) -> (DrtTask, Curve, u64, u64) {
    let (task, beta) = small_stable(rng, size);
    (task, beta, rng.next_u64(), rng.next_u64())
}

/// The differential oracle under failure: a fault-injected degraded run is
/// replayed through the event simulator, and no observed delay may ever
/// exceed the degraded analytic bound. This checks the *end-to-end*
/// soundness story — whatever a fault does to the engine mid-flight (trip,
/// synthetic overflow, clock jump), the bounds it still reports are real
/// bounds on real schedules.
#[test]
fn fault_injected_degraded_bounds_dominate_simulated_delays() {
    forall(
        "degraded_vs_simulation",
        small_stable_with_fault,
        |(task, beta, fault_seed, sim_seed)| {
            let plan = FaultPlan::seeded(*fault_seed, 64);
            let cfg = AnalysisConfig {
                budget: Budget::default().with_fault(plan),
                ..Default::default()
            };
            match structural_delay_with(task, beta, &cfg) {
                Ok(a) => {
                    // The fluid service at the guaranteed rate dominates the
                    // declared lower curve, so every simulated schedule is
                    // one the analysis covers.
                    let service = ServiceProcess::fluid(beta.rate());
                    let horizon = Q::int(200);
                    for run in 0..4u64 {
                        let trace =
                            earliest_random_walk(task, horizon, None, sim_seed.wrapping_mul(31) + run);
                        let out = simulate_fifo(
                            std::slice::from_ref(task),
                            std::slice::from_ref(&trace),
                            &service,
                        );
                        for v in task.vertex_ids() {
                            let observed = out.max_delay_of(0, v);
                            assert!(
                                observed <= a.bound_of(v),
                                "fault {plan:?}: observed delay {observed} exceeds \
                                 degraded bound {} for {v} (quality {:?})",
                                a.bound_of(v),
                                a.quality
                            );
                        }
                    }
                }
                // An injected overflow surfaces as the typed arithmetic
                // error; a trip can leave no sound coarse finish on some
                // instances. Both are legitimate refusals — never unsound
                // bounds, never panics.
                Err(AnalysisError::Arithmetic(_))
                | Err(AnalysisError::BudgetExhausted { .. }) => {}
                Err(e) => panic!("fault {plan:?}: unexpected error {e}"),
            }
        },
    );
}

#[test]
fn rtc_degradation_is_sound_and_flagged() {
    forall("rtc_degrades_soundly", small_stable, |(task, beta)| {
        let exact = rtc_delay_with(task, beta, &Budget::UNLIMITED).expect("small stable instance");
        assert!(exact.quality.is_exact());
        for cap in [0u64, 1, 8] {
            match rtc_delay_with(task, beta, &Budget::default().with_max_paths(cap)) {
                Ok(r) => {
                    assert!(
                        r.bound >= exact.bound,
                        "cap {cap}: degraded RTC bound {} below exact {}",
                        r.bound,
                        exact.bound
                    );
                }
                Err(AnalysisError::BudgetExhausted { .. }) => {}
                Err(e) => panic!("cap {cap}: unexpected error {e}"),
            }
        }
    });
}

/// A small stable instance plus a seeded canceller delay (from nothing to
/// about a millisecond of spinning).
fn small_stable_with_cancel(rng: &mut Rng, size: u32) -> (DrtTask, Curve, u64) {
    let (task, beta) = small_stable(rng, size);
    (task, beta, rng.random_range(0u64..200_000))
}

/// A cancel raised from another thread lands anywhere from before the
/// first exploration step to after the last one. Whatever it interrupts,
/// the run must finish sandwiched between the exact bound and the RTC
/// baseline, or refuse with a typed `BudgetExhausted` — never panic and
/// never report an unsound bound.
#[test]
fn cross_thread_cancellation_is_sandwiched_between_exact_and_rtc() {
    forall(
        "cancel_mid_exploration",
        small_stable_with_cancel,
        |(task, beta, delay_ops)| {
            let exact = structural_delay(task, beta).expect("small stable instance");
            let rtc = rtc_delay_with(task, beta, &Budget::UNLIMITED).expect("small stable instance");
            let token = CancelToken::new();
            let cfg = AnalysisConfig {
                budget: Budget::default().with_cancel(token.clone()),
                ..Default::default()
            };
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    for _ in 0..*delay_ops {
                        std::hint::spin_loop();
                    }
                    token.cancel();
                });
                match structural_delay_with(task, beta, &cfg) {
                    Ok(a) => {
                        assert!(
                            a.stream_bound >= exact.stream_bound,
                            "cancelled run reported {} below the exact bound {}",
                            a.stream_bound,
                            exact.stream_bound
                        );
                        assert!(
                            a.stream_bound <= rtc.bound,
                            "cancelled run reported {} above the RTC baseline {}",
                            a.stream_bound,
                            rtc.bound
                        );
                        for (d, e) in a.per_vertex.iter().zip(exact.per_vertex.iter()) {
                            assert!(
                                d.bound >= e.bound,
                                "vertex '{}': cancelled bound {} below exact {}",
                                d.label,
                                d.bound,
                                e.bound
                            );
                        }
                        assert_eq!(a.quality.is_exact(), a.degradations.is_empty());
                    }
                    // A very early cancel can leave no sound coarse finish.
                    Err(AnalysisError::BudgetExhausted { .. }) => {}
                    Err(e) => panic!("cancelled run failed unexpectedly: {e}"),
                }
            });
        },
    );
}
