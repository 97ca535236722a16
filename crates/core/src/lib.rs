//! # srtw-core — structure-aware delay analysis of real-time workload
//!
//! This crate is the workspace's headline: worst-case **delay** (response
//! time) and **backlog** bounds for [`srtw_workload::DrtTask`] streams
//! served on `srtw-resource` service-curve resources.
//!
//! Two analyses are provided and compared throughout the experiments:
//!
//! * [`rtc_delay`] / [`fifo_rtc`] — the classical Real-Time-Calculus
//!   baseline on the arrival-curve abstraction (one stream-wide bound);
//! * [`structural_delay`] / [`fifo_structural`] — the structure-aware
//!   analysis: abstract-path exploration inside the busy window yielding
//!   **per-job-type** bounds, with the stream-wide maximum provably equal
//!   to the RTC bound and the per-type bounds typically far tighter.
//!
//! The [`AnalysisConfig::horizon_fraction`] knob interpolates between the
//! two (the ablation axis), and [`busy_window`] exposes the finitary
//! horizon every bound is computed on. Beyond the headline analysis the
//! crate also provides [`edf_schedulable`] (the exact processor-demand
//! criterion on demand-bound functions) and [`tandem_delay`] (end-to-end
//! vs per-hop multi-server analysis — pay bursts only once).
//!
//! # Example
//!
//! ```
//! use srtw_core::{rtc_delay, structural_delay};
//! use srtw_minplus::{Curve, Q};
//! use srtw_workload::DrtTaskBuilder;
//!
//! let mut b = DrtTaskBuilder::new("hl");
//! let h = b.vertex("heavy", Q::int(4));
//! let l = b.vertex("light", Q::ONE);
//! b.edge(h, l, Q::int(6));
//! b.edge(l, h, Q::int(6));
//! let task = b.build().unwrap();
//! let beta = Curve::rate_latency(Q::ONE, Q::int(2));
//!
//! let s = structural_delay(&task, &beta).unwrap();
//! let r = rtc_delay(&task, &beta).unwrap();
//! assert_eq!(s.stream_bound, r.bound);          // theorem
//! assert!(s.bound_of(l) < r.bound);             // attribution pays off
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod analysis;
mod busy;
mod edf;
mod error;
mod fp;
pub mod json;
mod report;
mod scale;
mod tandem;
pub mod textfmt;

pub use analysis::{
    backlog_bound, fifo_analysis, fifo_rtc, fifo_rtc_with, fifo_structural, rtc_delay,
    rtc_delay_with, structural_delay, structural_delay_with, AnalysisConfig,
};
pub use busy::{busy_window, busy_window_metered, BusyWindow};
pub use edf::{edf_schedulable, EdfReport};
pub use fp::{fixed_priority_structural, fixed_priority_structural_with};
pub use tandem::{tandem_backlog_at, tandem_delay, TandemReport};
pub use error::AnalysisError;
pub use json::Json;
pub use report::{
    BoundQuality, Degradation, DelayAnalysis, Fallback, RtcReport, VertexBound, WitnessPath,
};
// Budget types live in `srtw-minplus` (the metered hot loops sit there);
// re-exported here so analysis users need only this crate.
pub use srtw_minplus::{Budget, BudgetKind, BudgetMeter, CancelToken, FaultKind, FaultPlan};
