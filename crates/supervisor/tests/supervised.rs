//! The supervised ladder under deterministic fault injection.
//!
//! Every failure mode the supervisor guards against is driven here on
//! purpose, via [`FaultPlan`]s threaded into each attempt's budget:
//!
//! * budget trips at the N-th metered op → the attempt *completes*, with a
//!   sound degraded bound (cancellation composes with PR 2's degradation);
//! * injected arithmetic overflow → every rung fails with a typed error
//!   and the job is reported failed with full attempt provenance;
//! * a watchdog timeout → cancellation winds the attempt down promptly.
//!
//! Plus the sandwich invariant under failure: whatever the fault, a
//! completed structural bound is ≥ the exact bound and ≤ the RTC baseline.

use srtw_core::textfmt::parse_system;
use srtw_core::{fifo_rtc, fifo_structural, AnalysisConfig};
use srtw_detrand::prop::forall;
use srtw_detrand::Rng;
use srtw_gen::{adversarial_coprime, adversarial_deep_chain, adversarial_dense, rescale_utilization};
use srtw_minplus::{BudgetKind, CancelToken, Curve, FaultKind, FaultPlan, Q};
use srtw_supervisor::{
    run_batch, run_batch_observed, run_supervised, AnalysisOutput, AttemptStatus, BatchConfig,
    BatchCounts, BatchStatus, JobOutcome, JobSpec, JobStatus, Rung, SupervisorConfig,
};
use std::time::Duration;

fn counts(outcomes: &[JobOutcome]) -> BatchCounts {
    BatchCounts::of(outcomes.iter().map(|o| o.status))
}

fn q(n: i128, d: i128) -> Q {
    Q::new(n, d)
}

/// A small, stable job the exact rung finishes instantly.
fn small_job(name: &str, seed: u64) -> JobSpec {
    let task = rescale_utilization(&adversarial_dense(3, seed), q(1, 2));
    JobSpec::new(name, vec![task], Curve::rate_latency(Q::int(2), Q::ONE))
}

/// A deliberately expensive job (huge coprime periods) for watchdog tests.
fn heavy_job(name: &str, seed: u64) -> JobSpec {
    let task = adversarial_coprime(9, seed);
    JobSpec::new(name, vec![task], Curve::rate_latency(Q::int(1), Q::int(3)))
}

#[test]
fn clean_job_completes_exactly_on_the_first_rung() {
    let out = run_supervised(&small_job("clean", 7), &SupervisorConfig::default());
    assert_eq!(out.status, JobStatus::Exact);
    assert_eq!(out.rung, Some(Rung::Exact));
    assert_eq!(out.attempts.len(), 1);
    assert_eq!(out.attempts[0].status, AttemptStatus::Completed);
    assert!(!out.attempts[0].degraded);
    assert!(out.error.is_none());
    assert!(matches!(out.output, Some(AnalysisOutput::Structural(_))));
}

#[test]
fn injected_budget_trip_degrades_instead_of_failing() {
    let cfg = SupervisorConfig {
        fault: Some(FaultPlan::new(1, FaultKind::TripBudget)),
        ..Default::default()
    };
    let out = run_supervised(&small_job("tripped", 11), &cfg);
    // A tripped budget is exactly the watchdog-cancellation path: the
    // analysis winds down to a *sound* degraded bound, it does not fail.
    assert_ne!(out.status, JobStatus::Failed, "error: {:?}", out.error);
    if out.status == JobStatus::Degraded {
        let last = out.attempts.last().unwrap();
        assert_eq!(last.status, AttemptStatus::Completed);
        assert!(last.degraded);
        assert!(
            !last.degradations.is_empty() || out.rung == Some(Rung::RtcBaseline),
            "degraded outcome must carry provenance"
        );
    }
}

#[test]
fn injected_overflow_fails_every_rung_with_full_provenance() {
    let cfg = SupervisorConfig {
        fault: Some(FaultPlan::new(1, FaultKind::Overflow)),
        ..Default::default()
    };
    let out = run_supervised(&small_job("poisoned", 13), &cfg);
    assert_eq!(out.status, JobStatus::Failed);
    assert_eq!(out.rung, None);
    // The full ladder was descended: exact, both budgeted retries, rtc.
    assert_eq!(out.attempts.len(), cfg.rungs().len());
    assert_eq!(out.attempts[0].rung, Rung::Exact);
    assert_eq!(out.attempts.last().unwrap().rung, Rung::RtcBaseline);
    for a in &out.attempts {
        assert!(
            matches!(a.status, AttemptStatus::Failed { ref error } if error.contains("overflow")),
            "unexpected attempt status: {:?}",
            a.status
        );
    }
    assert!(out.error.as_deref().unwrap_or("").contains("overflow"));
}

#[test]
fn budgeted_rungs_halve_their_wall_caps() {
    let cfg = SupervisorConfig {
        budget_ms: 800,
        budget_retries: 3,
        ..Default::default()
    };
    assert_eq!(
        cfg.rungs(),
        vec![
            Rung::Exact,
            Rung::Budgeted { wall_ms: 800 },
            Rung::Budgeted { wall_ms: 400 },
            Rung::Budgeted { wall_ms: 200 },
            Rung::RtcBaseline,
        ]
    );
}

#[test]
fn watchdog_cancellation_winds_a_heavy_job_down_promptly() {
    let cfg = SupervisorConfig {
        timeout: Some(Duration::from_millis(40)),
        grace: Duration::from_secs(10),
        budget_ms: 40,
        budget_retries: 1,
        ..Default::default()
    };
    let out = run_supervised(&heavy_job("heavy", 3), &cfg);
    // Cancellation is polled at every metered op, so no attempt should
    // come anywhere near the 10 s grace period (the generous bound keeps
    // slow CI honest, not tight).
    assert!(
        out.wall < Duration::from_secs(8),
        "supervised run took {:?}",
        out.wall
    );
    for a in &out.attempts {
        assert_ne!(
            a.status,
            AttemptStatus::HardTimeout,
            "metered analysis should cancel cooperatively"
        );
    }
    // Whatever rung completed (if any), a completed-but-cancelled attempt
    // must be flagged degraded.
    if out.status == JobStatus::Exact {
        assert!(out.attempts.iter().all(|a| !a.degraded));
    }
}

#[test]
fn external_cancel_reaches_the_running_attempt_through_its_child_token() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../systems/adversarial.srtw");
    let sys = parse_system(&std::fs::read_to_string(path).unwrap()).unwrap();
    let beta = sys.server.as_ref().unwrap().beta_lower().unwrap();
    let job = JobSpec::new("adversarial", sys.tasks, beta);
    // No watchdog and a 60 s budget: only the external token can end the
    // exact attempt, which does not finish on its own.
    let token = CancelToken::new();
    let cfg = SupervisorConfig {
        budget_ms: 60_000,
        cancel: Some(token.clone()),
        ..Default::default()
    };
    let raise = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(100));
        token.cancel();
    });
    let out = run_supervised(&job, &cfg);
    raise.join().unwrap();
    assert!(out.wall < Duration::from_secs(10), "took {:?}", out.wall);
    assert_eq!(out.status, JobStatus::Degraded);
    assert_eq!(out.rung, Some(Rung::Exact));
    let first = &out.attempts[0];
    assert_eq!(first.status, AttemptStatus::Completed);
    assert!(
        first
            .degradations
            .iter()
            .any(|d| d.tripped == BudgetKind::Cancelled),
        "{:?}",
        first.degradations
    );
}

#[test]
fn sandwich_invariant_holds_under_injected_trips() {
    fn small_stable(rng: &mut Rng, size: u32) -> (JobSpec, u64) {
        let seed = rng.next_u64();
        let task = match rng.random_range(0u32..3) {
            0 => adversarial_coprime(1 + size as usize % 3, seed),
            1 => adversarial_deep_chain(2 + size as usize % 7, seed),
            _ => rescale_utilization(&adversarial_dense(2 + size as usize % 3, seed), q(1, 2)),
        };
        let latency = Q::int(rng.random_range(0i128..=3));
        let spec = JobSpec::new(
            "prop",
            vec![task],
            Curve::rate_latency(Q::int(2), latency),
        );
        (spec, 1 + rng.next_u64() % 64)
    }

    forall("supervised_sandwich", small_stable, |(spec, at_op)| {
        let exact = fifo_structural(&spec.tasks, &spec.beta, &AnalysisConfig::default())
            .expect("small stable instance");
        let rtc = fifo_rtc(&spec.tasks, &spec.beta).expect("small stable instance");
        let cfg = SupervisorConfig {
            fault: Some(FaultPlan::new(*at_op, FaultKind::TripBudget)),
            ..Default::default()
        };
        let out = run_supervised(spec, &cfg);
        assert_ne!(out.status, JobStatus::Failed, "error: {:?}", out.error);
        match &out.output {
            Some(AnalysisOutput::Structural(per)) => {
                for (d, e) in per.iter().zip(exact.iter()) {
                    assert!(
                        d.stream_bound >= e.stream_bound,
                        "op {at_op}: degraded {} below exact {}",
                        d.stream_bound,
                        e.stream_bound
                    );
                    assert!(
                        d.stream_bound <= rtc.bound,
                        "op {at_op}: degraded {} above RTC {}",
                        d.stream_bound,
                        rtc.bound
                    );
                }
            }
            Some(AnalysisOutput::Rtc(r)) => {
                assert!(
                    r.bound >= rtc.bound || r.quality.is_exact(),
                    "op {at_op}: rtc rung bound {} vs baseline {}",
                    r.bound,
                    rtc.bound
                );
            }
            None => panic!("op {at_op}: no output despite non-failed status"),
        }
    });
}

#[test]
fn batch_preserves_input_order_and_counts_accurately() {
    let specs = vec![
        small_job("a", 1),
        small_job("b", 2),
        small_job("c", 3),
        small_job("d", 4),
    ];
    let cfg = BatchConfig {
        jobs: 3,
        ..Default::default()
    };
    let report = run_batch(specs, &cfg);
    assert_eq!(
        report.iter().map(|j| j.name.as_str()).collect::<Vec<_>>(),
        vec!["a", "b", "c", "d"]
    );
    let c = counts(&report);
    assert_eq!(c.exact + c.degraded + c.failed + c.skipped, 4);
    assert_eq!(c.exact, 4);
    assert_eq!(c.status(), BatchStatus::AllExact);
}

#[test]
fn batch_with_poisoned_jobs_reports_failure_without_panicking() {
    let specs = vec![small_job("x", 5), small_job("y", 6)];
    let cfg = BatchConfig {
        jobs: 2,
        supervisor: SupervisorConfig {
            fault: Some(FaultPlan::new(2, FaultKind::Overflow)),
            ..Default::default()
        },
        fail_fast: false,
    };
    let report = run_batch(specs, &cfg);
    let c = counts(&report);
    assert_eq!(c.status(), BatchStatus::SomeFailed);
    assert_eq!(c.failed, 2);
    assert_eq!(c.status().as_str(), "some_failed");
}

/// A panic that escapes a job (here, from the observer) ends only the
/// worker it hit: the job it held is reported skipped, on the calling
/// thread (one worker) as on a pool thread (two).
#[test]
fn a_panicking_worker_leaves_its_job_skipped() {
    for (jobs, expected) in [
        (1, [JobStatus::Exact, JobStatus::Skipped, JobStatus::Skipped]),
        (2, [JobStatus::Exact, JobStatus::Skipped, JobStatus::Exact]),
    ] {
        let specs: Vec<JobSpec> = (0..3).map(|i| small_job(&format!("p{i}"), i)).collect();
        let cfg = BatchConfig {
            jobs,
            ..Default::default()
        };
        let report = run_batch_observed(specs, &cfg, &|i, _| {
            if i == 1 {
                panic!("observer fault");
            }
        });
        let statuses: Vec<JobStatus> = report.iter().map(|o| o.status).collect();
        assert_eq!(statuses, expected, "jobs = {jobs}");
    }
}

#[test]
fn fail_fast_skips_unclaimed_jobs() {
    let specs: Vec<JobSpec> = (0..6).map(|i| small_job(&format!("j{i}"), i as u64)).collect();
    let cfg = BatchConfig {
        jobs: 1,
        supervisor: SupervisorConfig {
            fault: Some(FaultPlan::new(1, FaultKind::Overflow)),
            ..Default::default()
        },
        fail_fast: true,
    };
    let report = run_batch(specs, &cfg);
    let c = counts(&report);
    assert_eq!(c.failed, 1, "first job fails, cursor stops");
    assert_eq!(c.skipped, 5);
    assert_eq!(c.status(), BatchStatus::SomeFailed);
    assert_eq!(report[1].status, JobStatus::Skipped);
    assert!(report[1].error.as_deref().unwrap().contains("fail-fast"));
}

#[test]
fn batch_status_maps_degraded_batches_to_a_warning_not_a_failure() {
    let specs = vec![small_job("ok", 8), small_job("slow", 9)];
    let cfg = BatchConfig {
        jobs: 2,
        supervisor: SupervisorConfig {
            fault: Some(FaultPlan::new(5, FaultKind::TripBudget)),
            ..Default::default()
        },
        fail_fast: false,
    };
    let report = run_batch(specs, &cfg);
    let c = counts(&report);
    assert_ne!(c.status(), BatchStatus::SomeFailed);
    assert_eq!(c.failed + c.skipped, 0);
}
