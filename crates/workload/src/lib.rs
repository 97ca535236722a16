//! # srtw-workload — structural real-time workload models
//!
//! The *structural* workload model of this workspace is the **digraph
//! real-time task** ([`DrtTask`]): job types as graph vertices (with WCETs
//! and optional deadlines), minimum inter-release separations as edge
//! labels, and legal behaviours as timed walks. Classical periodic,
//! sporadic and generalized-multiframe tasks embed as special graphs
//! ([`PeriodicTask`], [`SporadicTask`], [`MultiframeTask`]).
//!
//! On top of the model the crate provides the analyses every delay bound
//! builds upon:
//!
//! * [`explore`] / [`Explorer`] — abstract-path enumeration with Pareto
//!   dominance pruning (the demand-tuple technique), one-shot or grown
//!   through increasing horizons,
//! * [`Rbf`] / [`Dbf`] — request- and demand-bound functions as exact
//!   staircases,
//! * [`long_run_utilization`] / [`critical_cycle`] — exact maximum cycle
//!   ratio,
//! * [`ReleaseTrace`] — concrete behaviours with legality checking.
//!
//! # Example
//!
//! ```
//! use srtw_workload::{DrtTaskBuilder, Rbf, long_run_utilization};
//! use srtw_minplus::{q, Q};
//!
//! // A video-decoder-like task: I-frames are heavy, P-frames light.
//! let mut b = DrtTaskBuilder::new("decoder");
//! let i = b.vertex("I", Q::int(6));
//! let p = b.vertex("P", Q::int(2));
//! b.edge(i, p, Q::int(10));
//! b.edge(p, p, Q::int(10));
//! b.edge(p, i, Q::int(12));
//! let task = b.build().unwrap();
//!
//! // Cycles: P→P has ratio 2/10; I→P→I has ratio (6+2)/(10+12) = 4/11.
//! assert_eq!(long_run_utilization(&task), Ok(q(4, 11)));
//!
//! // Worst demand in any window of length 10: an I followed by a P.
//! let rbf = Rbf::compute(&task, Q::int(30));
//! assert_eq!(rbf.eval(Q::int(10)), Q::int(8));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod dbf;
mod digraph;
mod error;
mod models;
mod paths;
mod rbf;
mod trace;
mod utilization;
mod weight;

pub use dbf::{Dbf, MissingDeadline};
pub use digraph::{DrtTask, DrtTaskBuilder, Edge, Vertex, VertexId};
pub use error::WorkloadError;
pub use models::{
    Frame, MultiframeTask, PeriodicTask, RbNode, RecurringBranchingTask, SporadicTask,
};
pub use paths::{explore, explore_metered, ExploreConfig, Exploration, Explorer, PathNode, Paths};
pub use rbf::Rbf;
pub use trace::{Release, ReleaseTrace};
pub use utilization::{critical_cycle, long_run_utilization, CriticalCycle};
