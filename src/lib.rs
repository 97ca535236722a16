//! # srtw — Delay Analysis of Structural Real-Time Workload
//!
//! A from-scratch Rust reproduction of the analysis stack behind *“Delay
//! analysis of structural real-time workload”* (DATE 2015): exact
//! Real-Time-Calculus curve algebra, the digraph real-time task model, a
//! structure-aware per-job-type delay analysis with its arrival-curve
//! (RTC) baseline, resource/server models, a validating simulator, and
//! reproducible workload generators.
//!
//! This facade re-exports the member crates under stable module names:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`minplus`] | `srtw-minplus` | rationals, curves, (min,+) operators, hdev/vdev |
//! | [`workload`] | `srtw-workload` | digraph tasks, rbf, utilization, traces |
//! | [`resource`] | `srtw-resource` | rate-latency / TDMA / periodic-resource servers |
//! | [`core`] | `srtw-core` | structural & RTC delay / backlog analyses |
//! | [`sim`] | `srtw-sim` | FIFO simulator, trace generators |
//! | [`gen`] | `srtw-gen` | seeded random workload generation |
//! | [`detrand`] | `srtw-detrand` | deterministic PRNG + property-test harness |
//! | [`supervisor`] | `srtw-supervisor` | crash-contained batch runs, watchdog, retry/degrade ladder |
//! | [`serve`] | `srtw-serve` | resilient analysis service: admission control, deadlines, drain |
//! | [`textfmt`] | `srtw-core` | the `.srtw` text format (hardened parser, caps, typed errors) |
//!
//! The most common items are additionally re-exported at the top level.
//!
//! # Quickstart
//!
//! ```
//! use srtw::{structural_delay, rtc_delay, Curve, DrtTaskBuilder, Q};
//!
//! // A mode-switching task: heavy job, then a light one, alternating.
//! let mut b = DrtTaskBuilder::new("modes");
//! let heavy = b.vertex("heavy", Q::int(4));
//! let light = b.vertex("light", Q::ONE);
//! b.edge(heavy, light, Q::int(6));
//! b.edge(light, heavy, Q::int(6));
//! let task = b.build().unwrap();
//!
//! // Served on a unit-rate resource that can be blocked for 2 time units.
//! let beta = Curve::rate_latency(Q::ONE, Q::int(2));
//!
//! let structural = structural_delay(&task, &beta).unwrap();
//! let baseline = rtc_delay(&task, &beta).unwrap();
//!
//! // The stream-wide bounds agree (theorem) …
//! assert_eq!(structural.stream_bound, baseline.bound);
//! // … but the structural analysis attributes delays per job type:
//! assert!(structural.bound_of(light) < baseline.bound);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use srtw_core::textfmt;

pub use srtw_core as core;
pub use srtw_serve as serve;
pub use srtw_detrand as detrand;
pub use srtw_detrand::prop;
pub use srtw_detrand::Rng;
pub use srtw_gen as gen;
pub use srtw_minplus as minplus;
pub use srtw_resource as resource;
pub use srtw_sim as sim;
pub use srtw_supervisor as supervisor;
pub use srtw_workload as workload;

pub use srtw_core::{
    backlog_bound, busy_window, busy_window_metered, edf_schedulable, fifo_rtc, fifo_rtc_with,
    fifo_structural, fixed_priority_structural, fixed_priority_structural_with, rtc_delay,
    rtc_delay_with, structural_delay, structural_delay_with, tandem_backlog_at, tandem_delay,
    AnalysisConfig, AnalysisError, BoundQuality, Budget, BudgetKind, BudgetMeter, BusyWindow,
    Degradation, DelayAnalysis, EdfReport, Fallback, Json, RtcReport, TandemReport, VertexBound,
    WitnessPath,
};
pub use srtw_gen::{generate_drt, generate_task_set, DrtGenConfig};
pub use srtw_minplus::{q, CancelToken, Curve, CurveError, Ext, FaultKind, FaultPlan, Piece, Q, Tail};
// `Server` stays behind `serve::` — the flat namespace already has the
// resource-model `Server` trait.
pub use srtw_serve::{fifo_report, DrainReport, FifoReport, ServeConfig};
pub use srtw_supervisor::{
    contain, run_batch, run_supervised, BatchConfig, BatchStatus, Contained, JournaledReport,
    JobOutcome, JobSpec, JobStatus, Rung, SupervisorConfig,
};
pub use srtw_resource::{
    concatenate_upto, leftover_blind, leftover_chain, ExplicitServer, PeriodicResource,
    RateLatencyServer, ResourceError, Server, TdmaServer,
};
pub use srtw_sim::{
    earliest_random_walk, lazy_random_walk, simulate_edf, simulate_fifo, simulate_fixed_priority,
    simulate_preemptive, witness_trace, JobRecord, SchedPolicy, ServiceProcess, SimOutcome,
};
pub use srtw_workload::{
    critical_cycle, explore, explore_metered, long_run_utilization, Dbf, DrtTask, DrtTaskBuilder,
    ExploreConfig, Exploration, Explorer, MultiframeTask, PathNode, PeriodicTask, Rbf, RbNode,
    RecurringBranchingTask, ReleaseTrace, SporadicTask, VertexId, WorkloadError,
};
