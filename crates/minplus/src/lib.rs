//! # srtw-minplus — exact (min,+) curve algebra for real-time calculus
//!
//! This crate provides the mathematical substrate of the `srtw` workspace:
//! exact rational arithmetic ([`Q`]), the checked number type the exact
//! analysis loops are written over ([`Scalar`]), monotone piecewise-affine
//! curves with ultimately-affine or ultimately-periodic tails ([`Curve`]),
//! and the (min,+) operators of Network / Real-Time Calculus:
//!
//! * pointwise [`Curve::pointwise_min`] / [`Curve::pointwise_max`] /
//!   [`Curve::pointwise_add`], exact for **all** tail combinations,
//! * (min,+) convolution [`Curve::conv`] / [`Curve::conv_upto`] and
//!   deconvolution [`Curve::deconv`] / [`Curve::deconv_upto`] (finitary:
//!   exact on a caller-chosen prefix, which is all a busy-window delay
//!   analysis ever inspects),
//! * the performance bounds [`Curve::hdev`] (delay), [`Curve::vdev`]
//!   (backlog), and the lower pseudo-inverse [`Curve::pseudo_inverse`],
//! * the leftover-service closure [`Curve::sub_clamped_monotone`].
//!
//! All computations are exact — no floating point is involved anywhere in an
//! analysis; `f64` appears only in display/plot helpers.
//!
//! # Example
//!
//! ```
//! use srtw_minplus::{Curve, Ext, Q};
//!
//! // A periodic demand of 2 units of work every 4 time units …
//! let alpha = Curve::staircase(Q::int(4), Q::int(2));
//! // … served by a unit-rate server that may be blocked for 3 time units.
//! let beta = Curve::rate_latency(Q::ONE, Q::int(3));
//!
//! // Worst-case delay and backlog:
//! assert_eq!(alpha.hdev(&beta), Ext::Finite(Q::int(5)));
//! assert_eq!(alpha.vdev(&beta), Ext::Finite(Q::int(3)));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod conv;
mod curve;
mod dev;
mod error;
mod extended;
mod meter;
mod ops;
mod ratio;
mod scalar;
mod stream;

pub use curve::{Curve, Piece, Tail};
pub use error::{ArithmeticError, CurveError};
pub use extended::Ext;
pub use meter::{
    Budget, BudgetKind, BudgetMeter, CancelToken, FaultKind, FaultPlan, CLOCK_STRIDE,
};
pub use ratio::{q, ParseQError, Q};
pub use scalar::Scalar;
