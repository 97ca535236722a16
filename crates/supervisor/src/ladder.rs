//! The supervised retry/degrade ladder for one job.
//!
//! An attempt runs behind `catch_unwind` ([`contain`]). With a hard
//! deadline (`--timeout-ms`) it runs on its own thread and the
//! supervising thread doubles as the watchdog: it waits for the result
//! with a timeout, raises the attempt's [`CancelToken`] when the hard
//! deadline passes, and abandons the thread if it does not wind down
//! within the grace period (safe Rust cannot kill a thread — an abandoned
//! attempt keeps its core busy until it next polls its meter, but the
//! batch moves on). Without one it runs inline on the batch worker.

use crate::job::{
    AnalysisOutput, Attempt, AttemptStatus, JobOutcome, JobSpec, JobStatus, Rung,
};
use crate::supervise::{contain, Contained};
use srtw_core::{fifo_rtc_with, fifo_structural, AnalysisConfig, AnalysisError};
use srtw_minplus::{Budget, CancelToken, FaultPlan};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of the supervision around one job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Hard wall-clock deadline per attempt, enforced by the watchdog via
    /// cancellation. `None` disables the watchdog (attempts may then only
    /// end cooperatively).
    pub timeout: Option<Duration>,
    /// Extra wait after cancellation before the worker thread is
    /// abandoned and the attempt recorded as a hard timeout.
    pub grace: Duration,
    /// Starting wall-clock cap (milliseconds) of the budgeted rung;
    /// halved on each budgeted retry.
    pub budget_ms: u64,
    /// Number of budgeted rungs between exact and the RTC baseline.
    pub budget_retries: u32,
    /// Deterministic fault injected into every attempt (testing only).
    pub fault: Option<FaultPlan>,
    /// External cancellation: every attempt runs under a
    /// [`CancelToken::child`] of this token, so when it is raised (e.g.
    /// the batch's client disconnected) each in-flight attempt's meter
    /// trips at its next metered operation and the job winds down
    /// cooperatively with a sound, degraded result rather than running to
    /// completion. The watchdog cancels only the attempt's child.
    pub cancel: Option<CancelToken>,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            timeout: None,
            grace: Duration::from_secs(2),
            budget_ms: 1_000,
            budget_retries: 2,
            fault: None,
            cancel: None,
        }
    }
}

impl SupervisorConfig {
    /// The ladder this configuration descends: exact, then
    /// `budget_retries` budgeted rungs with halving wall caps, then the
    /// RTC baseline.
    pub fn rungs(&self) -> Vec<Rung> {
        let mut rungs = vec![Rung::Exact];
        let mut ms = self.budget_ms.max(1);
        for _ in 0..self.budget_retries {
            rungs.push(Rung::Budgeted { wall_ms: ms });
            ms = (ms / 2).max(1);
        }
        rungs.push(Rung::RtcBaseline);
        rungs
    }

    /// The cooperative budget of an attempt at `rung` (before the cancel
    /// token and fault plan are attached).
    fn base_budget(&self, rung: Rung) -> Budget {
        match rung {
            Rung::Exact => Budget::default(),
            Rung::Budgeted { wall_ms } => Budget::wall_ms(wall_ms),
            // The baseline still gets a generous cooperative cap so a
            // pathological rbf materialisation degrades instead of
            // hanging until the watchdog fires.
            Rung::RtcBaseline => Budget::wall_ms(self.budget_ms.max(1)),
        }
    }
}

/// Runs one job down the retry/degrade ladder and reports full
/// provenance. Never panics and never blocks past
/// `rungs × (timeout + grace)`.
pub fn run_supervised(spec: &JobSpec, cfg: &SupervisorConfig) -> JobOutcome {
    let started = Instant::now();
    let spec = Arc::new(spec.clone());
    let mut attempts: Vec<Attempt> = Vec::new();
    let mut last_error: Option<String> = None;

    for rung in cfg.rungs() {
        let attempt = run_attempt(&spec, rung, cfg);
        let done = matches!(attempt.status, AttemptStatus::Completed);
        match &attempt.status {
            AttemptStatus::Failed { error } => last_error = Some(error.clone()),
            AttemptStatus::Panicked { message } => {
                last_error = Some(format!("panic: {message}"))
            }
            AttemptStatus::HardTimeout => {
                last_error = Some("hard timeout: attempt abandoned by the watchdog".into())
            }
            AttemptStatus::Completed => {}
        }
        let degraded = attempt.degraded;
        let output = attempt_output(&attempt);
        attempts.push(strip_output(attempt));
        if done {
            return JobOutcome {
                name: spec.name.clone(),
                status: if degraded {
                    JobStatus::Degraded
                } else {
                    JobStatus::Exact
                },
                rung: Some(rung),
                attempts,
                wall: started.elapsed(),
                output,
                error: None,
            };
        }
    }

    JobOutcome {
        name: spec.name.clone(),
        status: JobStatus::Failed,
        rung: None,
        attempts,
        wall: started.elapsed(),
        output: None,
        error: last_error.or_else(|| Some("no rung completed".into())),
    }
}

/// An attempt together with its (not yet stripped) analysis output.
struct RawAttempt {
    rung: Rung,
    status: AttemptStatus,
    degraded: bool,
    wall: Duration,
    degradations: Vec<srtw_core::Degradation>,
    output: Option<AnalysisOutput>,
}

fn attempt_output(a: &RawAttempt) -> Option<AnalysisOutput> {
    a.output.clone()
}

fn strip_output(a: RawAttempt) -> Attempt {
    Attempt {
        rung: a.rung,
        status: a.status,
        degraded: a.degraded,
        wall: a.wall,
        degradations: a.degradations,
    }
}

/// Runs one attempt at one rung behind the shared containment primitive
/// ([`contain`]), acting as its watchdog when it has a deadline.
fn run_attempt(spec: &Arc<JobSpec>, rung: Rung, cfg: &SupervisorConfig) -> RawAttempt {
    // A child of the batch-wide token: an external cancel reaches this
    // attempt's meter directly, while the watchdog cancels only the attempt.
    let token = cfg.cancel.as_ref().map_or_else(CancelToken::new, CancelToken::child);
    let mut budget = cfg.base_budget(rung).with_cancel(token.clone());
    if let Some(f) = cfg.fault {
        budget = budget.with_fault(f);
    }

    let started = Instant::now();
    let job = Arc::clone(spec);
    let contained = contain(
        &format!("srtw-{}", spec.name),
        cfg.timeout,
        cfg.grace,
        &token,
        move || analyse(&job, rung, budget),
    );
    let wall = started.elapsed();

    let (status, degraded, degradations, output) = match contained {
        Contained::HardTimeout => (AttemptStatus::HardTimeout, false, Vec::new(), None),
        Contained::SpawnFailed => (
            AttemptStatus::Failed {
                error: "could not spawn worker thread".into(),
            },
            false,
            Vec::new(),
            None,
        ),
        Contained::Panicked { message } => (
            AttemptStatus::Panicked { message },
            false,
            Vec::new(),
            None,
        ),
        Contained::Completed(Err(e)) => (
            AttemptStatus::Failed {
                error: e.to_string(),
            },
            false,
            Vec::new(),
            None,
        ),
        Contained::Completed(Ok(out)) => {
            let degraded = out.any_degraded() || rung == Rung::RtcBaseline;
            let records = out.degradations();
            (AttemptStatus::Completed, degraded, records, Some(out))
        }
    };
    RawAttempt {
        rung,
        status,
        degraded,
        wall,
        degradations,
        output,
    }
}

/// The analysis an attempt at `rung` actually runs.
fn analyse(spec: &JobSpec, rung: Rung, budget: Budget) -> Result<AnalysisOutput, AnalysisError> {
    match rung {
        Rung::Exact | Rung::Budgeted { .. } => {
            let cfg = AnalysisConfig {
                budget,
                ..Default::default()
            };
            fifo_structural(&spec.tasks, &spec.beta, &cfg).map(AnalysisOutput::Structural)
        }
        Rung::RtcBaseline => {
            fifo_rtc_with(&spec.tasks, &spec.beta, &budget).map(AnalysisOutput::Rtc)
        }
    }
}
