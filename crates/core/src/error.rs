//! Error types of the delay analyses.

use srtw_minplus::{ArithmeticError, BudgetKind, CurveError, Q};
use std::fmt;

/// Errors produced by the delay and backlog analyses.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AnalysisError {
    /// The workload's long-run utilization reaches or exceeds the
    /// guaranteed service rate: no finite busy window (and hence no finite
    /// delay bound) exists.
    Unstable {
        /// Total long-run demand rate.
        utilization: Q,
        /// Guaranteed long-run service rate.
        service_rate: Q,
    },
    /// The busy-window fixpoint iteration did not converge within the
    /// iteration cap (pathological parameters).
    BusyWindowDiverged {
        /// The horizon reached when giving up.
        reached: Q,
    },
    /// The service curve saturates below the demand (no rate at all).
    ServiceSaturated,
    /// A deadline-based analysis (EDF) needs a deadline on every vertex.
    MissingDeadline {
        /// The task whose vertex lacks a deadline.
        task: String,
        /// Index of the offending vertex.
        vertex: usize,
    },
    /// The requested analysis does not support the given service curves
    /// (e.g. exact tandem convolution of periodic-tailed curves).
    UnsupportedService {
        /// Human-readable reason.
        reason: &'static str,
    },
    /// Exact `i128` rational arithmetic overflowed: in a curve operation,
    /// or in an analysis loop (the path search, the maximum-cycle-ratio
    /// iteration, the utilization sum). The inputs are simply too large
    /// for the representation.
    Arithmetic(ArithmeticError),
    /// An analysis budget was exhausted **and** no sound degraded bound
    /// exists: the coarse affine demand abstraction's rate reaches the
    /// guaranteed service rate, so even the fallback busy window is
    /// unbounded. (Whenever a sound degraded bound does exist the analyses
    /// return it with a [`crate::BoundQuality::Degraded`] marker instead
    /// of this error.)
    BudgetExhausted {
        /// The budget dimension that tripped.
        tripped: BudgetKind,
    },
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::Unstable {
                utilization,
                service_rate,
            } => write!(
                f,
                "unstable: utilization {utilization} ≥ service rate {service_rate}"
            ),
            AnalysisError::BusyWindowDiverged { reached } => {
                write!(f, "busy-window iteration diverged (reached {reached})")
            }
            AnalysisError::ServiceSaturated => {
                write!(f, "service curve saturates below the demand")
            }
            AnalysisError::MissingDeadline { task, vertex } => {
                write!(f, "task '{task}': vertex {vertex} has no deadline")
            }
            AnalysisError::UnsupportedService { reason } => {
                write!(f, "unsupported service curves: {reason}")
            }
            AnalysisError::Arithmetic(e) => write!(f, "{e}"),
            AnalysisError::BudgetExhausted { tripped } => write!(
                f,
                "budget exhausted ({tripped}) with no sound degraded bound: \
                 the coarse demand abstraction saturates the service rate"
            ),
        }
    }
}

impl std::error::Error for AnalysisError {}

impl From<ArithmeticError> for AnalysisError {
    fn from(e: ArithmeticError) -> Self {
        AnalysisError::Arithmetic(e)
    }
}

impl From<CurveError> for AnalysisError {
    fn from(e: CurveError) -> Self {
        match e {
            CurveError::Arithmetic(a) => AnalysisError::Arithmetic(a),
            CurveError::Budget(k) => AnalysisError::BudgetExhausted { tripped: k },
            _ => AnalysisError::UnsupportedService {
                reason: "curve operation rejected its operands",
            },
        }
    }
}
