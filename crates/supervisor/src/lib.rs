//! # srtw-supervisor — crash-contained supervised batch analysis
//!
//! PR 2 made a *single* analysis run budgeted and panic-free. This crate
//! supplies the supervision *around* runs that a service analysing many
//! systems needs:
//!
//! * **Isolation** — every attempt executes behind `catch_unwind`
//!   ([`contain`]), on its own thread when it has a deadline to enforce
//!   and inline otherwise, so one pathological system (a residual panic,
//!   an arithmetic overflow, an analysis that will not finish) cannot
//!   take down the batch ([`run_supervised`]).
//! * **Hard deadlines** — a watchdog enforces a wall-clock timeout per
//!   attempt by raising a [`CancelToken`] threaded into the analysis'
//!   [`srtw_minplus::BudgetMeter`]. Every hot loop the meter already
//!   instruments polls the flag, so cancellation is prompt even where the
//!   cooperative wall-clock checks are starved; a thread stuck outside
//!   metered code is *abandoned* after a grace period and the attempt is
//!   recorded as a hard timeout.
//! * **A retry/degrade ladder** — failed or timed-out attempts retry down
//!   [`Rung::Exact`] → [`Rung::Budgeted`] (halving the wall cap per
//!   retry) → [`Rung::RtcBaseline`], the operational analogue of the
//!   hybrid analyses in this research line that fall back to
//!   coarser-but-sound component analyses when the precise one is
//!   infeasible. Every rung inherits PR 2's monotone-truncation
//!   degradation, so whatever rung completes, the reported bound is sound
//!   and sandwiched `exact ≤ degraded ≤ RTC`.
//! * **Process restart policy** — for supervising long-running *children*
//!   (service replicas) rather than attempts: [`RestartTracker`] applies
//!   exponential backoff with a restart-intensity cap, the supervision-
//!   tree rule that a crash-looping child eventually signals a systemic
//!   fault instead of being restarted forever.
//! * **Durability** — an append-only write-ahead [`journal`] of per-job
//!   outcomes, written in the one CRC-framed, fsync'd-per-record log
//!   format of [`framed`] (shared with the `srtw-persist` spill store),
//!   makes a batch crash-recoverable: recovery tolerates torn tails and
//!   bit corruption, and replay is idempotent (keep-first by manifest
//!   position and input digest, so a record replays only onto the bytes
//!   it was written for), and `srtw batch --journal PATH --resume` skips
//!   completed jobs and still renders a report byte-identical to an
//!   uninterrupted run.
//! * **One batch runner** — [`BatchPlan`] sits behind both `srtw batch`
//!   and `POST /batch`: it loads manifest entries ([`BatchEntry`]),
//!   resumes a [`BatchJournal`], runs the fresh jobs on the pool, and
//!   returns the records in manifest order.
//! * **Provenance** — a [`JobOutcome`] records every attempt (rung,
//!   status, wall time, degradation records), and a [`JournaledReport`]
//!   renders a batch's records as text or JSON.
//!
//! Failure paths are testable, not theoretical: a deterministic
//! [`srtw_minplus::FaultPlan`] can trip the budget, inject a synthetic
//! overflow or jump the wall clock at the N-th metered operation of every
//! attempt, letting seeded tests drive each rung of the ladder.
//!
//! # Example
//!
//! ```
//! use srtw_supervisor::{run_supervised, JobSpec, JobStatus, SupervisorConfig};
//! use srtw_minplus::{Curve, Q};
//! use srtw_workload::DrtTaskBuilder;
//!
//! let mut b = DrtTaskBuilder::new("periodic");
//! let v = b.vertex("p", Q::ONE);
//! b.edge(v, v, Q::int(8));
//! let spec = JobSpec::new("demo", vec![b.build().unwrap()], Curve::affine(Q::ZERO, Q::ONE));
//!
//! let outcome = run_supervised(&spec, &SupervisorConfig::default());
//! assert_eq!(outcome.status, JobStatus::Exact);
//! assert_eq!(outcome.attempts.len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod framed;
mod job;
pub mod journal;
mod ladder;
mod pool;
mod report;
mod restart;
mod supervise;

pub use job::{AnalysisOutput, Attempt, AttemptStatus, JobOutcome, JobSpec, JobStatus, Rung};
pub use framed::{FaultLog, LogWarning, WriteFault, WriteFaultKind};
pub use journal::{JournalRecord, JournalWriter, Recovery};
pub use ladder::{run_supervised, SupervisorConfig};
pub use pool::{
    manifest_lines, run_batch, run_batch_observed, BatchConfig, BatchEntry, BatchJournal,
    BatchPlan, JournalPolicy, OutcomeObserver,
};
pub use report::{BatchCounts, BatchStatus, JournaledReport};
pub use restart::{RestartDecision, RestartPolicy, RestartTracker};
pub use supervise::{contain, panic_message, Contained};

pub use srtw_minplus::{CancelToken, FaultKind, FaultPlan};
