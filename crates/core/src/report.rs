//! Analysis result types and their pretty-printers (text and JSON).
//!
//! Each type writes its JSON form straight into a caller's buffer
//! (`write_json`). The types other crates embed in a `Json` tree keep a
//! `to_json` that returns that same text as a verbatim [`Json::Raw`]
//! fragment.

use crate::json::{push_array, push_bool, push_float, push_int, push_rational, push_str, Json};
use crate::push_object;
use srtw_minplus::{BudgetKind, Q};
use srtw_workload::{DrtTask, VertexId};
use std::fmt;
use std::time::Duration;

/// The coarsest abstraction a budget-degraded bound had to fall back to.
///
/// Ordered from mildest to coarsest: each variant's bound is still sound
/// (it upper-bounds the true worst case), only potentially more
/// pessimistic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fallback {
    /// The exact path exploration was cut short; demand beyond the cut is
    /// covered by the (still exact) arrival-curve abstraction — the same
    /// mechanism as a deliberate `horizon_fraction < 1`.
    TruncatedHorizon,
    /// The structural exploration completed nothing, but every
    /// request-bound function is exact: the bound is precisely the RTC
    /// (arrival-curve) baseline.
    RtcBaseline,
    /// At least one request-bound function is itself truncated, so parts
    /// of the bound rest on its coarse affine over-approximation — the
    /// weakest (but always available, and always sound) abstraction.
    CoarseRbf,
}

impl Fallback {
    /// Stable machine-readable name (used in JSON output).
    pub fn as_str(&self) -> &'static str {
        match self {
            Fallback::TruncatedHorizon => "truncated_horizon",
            Fallback::RtcBaseline => "rtc_baseline",
            Fallback::CoarseRbf => "coarse_rbf",
        }
    }
}

impl fmt::Display for Fallback {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Fallback::TruncatedHorizon => "truncated exploration horizon",
            Fallback::RtcBaseline => "RTC arrival-curve baseline",
            Fallback::CoarseRbf => "coarse affine rbf tail",
        })
    }
}

/// Whether a reported bound is exact or budget-degraded.
///
/// Degraded bounds are **sound** — they never under-estimate the true
/// worst case — they may merely be pessimistic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundQuality {
    /// The analysis ran to completion within its budget.
    Exact,
    /// A budget tripped; the analysis degraded gracefully.
    Degraded {
        /// The coarsest abstraction the bound had to fall back to.
        fallback: Fallback,
    },
}

impl BoundQuality {
    /// `true` for [`BoundQuality::Exact`].
    pub fn is_exact(&self) -> bool {
        matches!(self, BoundQuality::Exact)
    }

    /// Appends the quality as JSON to `out`.
    pub fn write_json(&self, out: &mut String) {
        match self {
            BoundQuality::Exact => push_object!(out, "exact" => push_bool(out, true)),
            BoundQuality::Degraded { fallback } => push_object!(out,
                "exact" => push_bool(out, false),
                "fallback" => push_str(out, fallback.as_str()),
            ),
        }
    }
}

/// One budget-degradation event recorded during an analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Degradation {
    /// The analysis component that was cut short (`busy_window`,
    /// `exploration('task')`, `rbf('task')`, `interference_rbf('task')`).
    pub component: String,
    /// The budget dimension that tripped.
    pub tripped: BudgetKind,
    /// What exactly was truncated, human-readable.
    pub detail: String,
}

impl Degradation {
    /// Appends the degradation event as JSON to `out`.
    pub fn write_json(&self, out: &mut String) {
        push_object!(out,
            "component" => push_str(out, &self.component),
            "tripped" => push_str(out, self.tripped.as_str()),
            "detail" => push_str(out, &self.detail),
        );
    }

    /// The degradation event as a JSON value.
    pub fn to_json(&self) -> Json {
        Json::writing(|out| self.write_json(out))
    }
}

/// The witness abstract path realizing a delay bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WitnessPath {
    /// Vertex sequence of the path (last vertex is the analysed job type).
    pub vertices: Vec<VertexId>,
    /// Minimum span between first and last release.
    pub span: Q,
    /// Total WCET along the path.
    pub work: Q,
}

impl WitnessPath {
    /// Renders the witness with vertex labels from the task.
    pub fn render(&self, task: &DrtTask) -> String {
        let labels: Vec<&str> = self
            .vertices
            .iter()
            .map(|&v| task.vertex(v).label.as_str())
            .collect();
        format!(
            "{} (span {}, work {})",
            labels.join(" → "),
            self.span,
            self.work
        )
    }

    /// Appends the witness as JSON to `out` (vertex indices, span,
    /// work).
    pub fn write_json(&self, out: &mut String) {
        push_object!(out,
            "vertices" => push_array(out, &self.vertices, |out, v| push_int(out, v.index() as i128)),
            "span" => push_rational(out, self.span),
            "work" => push_rational(out, self.work),
        );
    }
}

/// Delay bound of one job type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VertexBound {
    /// The job type.
    pub vertex: VertexId,
    /// Its label (copied from the task for self-contained reports).
    pub label: String,
    /// Worst-case response-time bound for jobs of this type.
    pub bound: Q,
    /// The abstract path realizing the bound (absent when the bound comes
    /// from the truncation fallback).
    pub witness: Option<WitnessPath>,
    /// Did the abstraction-depth fallback determine this bound?
    pub from_fallback: bool,
}

impl VertexBound {
    /// Appends the bound as JSON to `out`.
    pub fn write_json(&self, out: &mut String) {
        push_object!(out,
            "vertex" => push_int(out, self.vertex.index() as i128),
            "label" => push_str(out, &self.label),
            "bound" => push_rational(out, self.bound),
            "witness" => match &self.witness {
                Some(w) => w.write_json(out),
                None => out.push_str("null"),
            },
            "from_fallback" => push_bool(out, self.from_fallback),
        );
    }
}

/// Result of a structural delay analysis of one stream.
#[derive(Debug, Clone)]
pub struct DelayAnalysis {
    /// Name of the analysed task.
    pub task_name: String,
    /// Per-job-type delay bounds — the structural analysis' distinguishing
    /// output (an arrival-curve analysis cannot attribute delays to types).
    pub per_vertex: Vec<VertexBound>,
    /// The stream-wide bound `max over job types` (provably equal to the
    /// RTC bound at full depth).
    pub stream_bound: Q,
    /// The busy-window bound the analysis ran to.
    pub busy_window: Q,
    /// Long-run utilization of the analysed workload (all streams).
    pub utilization: Q,
    /// Abstract paths retained after pruning.
    pub paths_retained: usize,
    /// Abstract path candidates generated.
    pub paths_generated: usize,
    /// Candidates discarded by dominance pruning.
    pub paths_pruned: usize,
    /// Wall-clock analysis time.
    pub runtime: Duration,
    /// Exact, or degraded because an analysis budget tripped.
    pub quality: BoundQuality,
    /// Every budget-degradation event hit while computing this result
    /// (empty iff `quality` is [`BoundQuality::Exact`]).
    pub degradations: Vec<Degradation>,
}

impl DelayAnalysis {
    /// The bound for a specific job type.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a vertex of the analysed task.
    pub fn bound_of(&self, v: VertexId) -> Q {
        self.per_vertex
            .iter()
            .find(|b| b.vertex == v)
            .map(|b| b.bound)
            .expect("unknown vertex in bound_of")
    }

    /// Are all per-type bounds within their deadlines? Vertices without a
    /// deadline are unconstrained.
    pub fn schedulable(&self, task: &DrtTask) -> bool {
        self.per_vertex.iter().all(|b| match task.deadline(b.vertex) {
            Some(d) => b.bound <= d,
            None => true,
        })
    }

    /// Appends the full analysis as JSON to `out` (the stream object of
    /// `srtw analyze --json`).
    pub fn write_json(&self, out: &mut String) {
        push_object!(out,
            "task" => push_str(out, &self.task_name),
            "per_vertex" => push_array(out, &self.per_vertex, |out, b| b.write_json(out)),
            "stream_bound" => push_rational(out, self.stream_bound),
            "busy_window" => push_rational(out, self.busy_window),
            "utilization" => push_rational(out, self.utilization),
            "paths_retained" => push_int(out, self.paths_retained as i128),
            "paths_generated" => push_int(out, self.paths_generated as i128),
            "paths_pruned" => push_int(out, self.paths_pruned as i128),
            "runtime_secs" => push_float(out, self.runtime.as_secs_f64()),
            "quality" => self.quality.write_json(out),
            "degradations" => push_array(out, &self.degradations, |out, d| d.write_json(out)),
        );
    }

    /// The full analysis as a JSON value.
    pub fn to_json(&self) -> Json {
        Json::writing(|out| self.write_json(out))
    }
}

impl fmt::Display for DelayAnalysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "structural delay analysis of '{}' (U = {}, busy window ≤ {}, {} paths, {} pruned, {:?})",
            self.task_name,
            self.utilization,
            self.busy_window,
            self.paths_retained,
            self.paths_pruned,
            self.runtime,
        )?;
        for b in &self.per_vertex {
            writeln!(
                f,
                "  {:<12} delay ≤ {}{}",
                b.label,
                b.bound,
                if b.from_fallback { " (fallback)" } else { "" }
            )?;
        }
        if let BoundQuality::Degraded { fallback } = self.quality {
            writeln!(
                f,
                "  DEGRADED (sound, possibly pessimistic): fell back to {fallback}"
            )?;
            for d in &self.degradations {
                writeln!(f, "    - {}: {} budget: {}", d.component, d.tripped, d.detail)?;
            }
        }
        write!(f, "  stream bound: {}", self.stream_bound)
    }
}

/// Result of the RTC (arrival-curve) baseline analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RtcReport {
    /// The single stream-wide delay bound the abstraction permits.
    pub bound: Q,
    /// The busy-window bound used.
    pub busy_window: Q,
    /// Number of rbf breakpoints inspected.
    pub breakpoints: usize,
    /// Exact, or degraded because an analysis budget tripped.
    pub quality: BoundQuality,
}

impl RtcReport {
    /// Appends the report as JSON to `out`.
    pub fn write_json(&self, out: &mut String) {
        push_object!(out,
            "bound" => push_rational(out, self.bound),
            "busy_window" => push_rational(out, self.busy_window),
            "breakpoints" => push_int(out, self.breakpoints as i128),
            "quality" => self.quality.write_json(out),
        );
    }

    /// The report as a JSON value.
    pub fn to_json(&self) -> Json {
        Json::writing(|out| self.write_json(out))
    }
}

impl fmt::Display for RtcReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "RTC delay ≤ {} (busy window ≤ {}, {} breakpoints{})",
            self.bound,
            self.busy_window,
            self.breakpoints,
            if self.quality.is_exact() {
                ""
            } else {
                ", DEGRADED"
            }
        )
    }
}
