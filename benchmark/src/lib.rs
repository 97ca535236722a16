//! `srtw-benchmark`: the end-to-end benchmark of the srtw analysis
//! service. See `README.md` next to this crate for the workloads, the
//! metrics and how to compare two commits.

mod client;
pub mod compare;
pub mod json;
pub mod metrics;
mod oracle;
pub mod run;
mod stats;
mod trace;
pub mod workload;

/// Measured seconds per run when `--seconds` is not given (the
/// `run_seconds` of `BENCHMARK.json`).
pub const DEFAULT_SECONDS: f64 = 15.0;
