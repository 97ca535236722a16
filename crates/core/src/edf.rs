//! EDF schedulability of digraph workload: the processor-demand criterion.
//!
//! Under earliest-deadline-first scheduling, a set of streams with
//! per-job-type deadlines is schedulable on a resource with lower service
//! curve `β` iff the summed demand-bound functions never exceed the
//! service: `Σ dbf_i(t) ≤ β(t)` for all `t` up to the busy-window bound.
//! Both sides are exact staircases/piecewise-affine curves here, so the
//! check is exact and returns the earliest violating window when the
//! answer is negative.

use crate::busy::busy_window;
use crate::error::AnalysisError;
use srtw_minplus::{Curve, Q};
use srtw_workload::{Dbf, DrtTask, VertexId};

/// Result of an EDF schedulability test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdfReport {
    /// Does the demand stay below the service everywhere?
    pub schedulable: bool,
    /// The earliest violating window `(t, demand, supply)` if not.
    pub violation: Option<(Q, Q, Q)>,
    /// The busy-window bound the check ran to.
    pub busy_window: Q,
    /// Number of demand breakpoints inspected.
    pub breakpoints: usize,
}

impl EdfReport {
    /// The report as a JSON value.
    pub fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        Json::object(vec![
            ("schedulable", Json::Bool(self.schedulable)),
            (
                "violation",
                match self.violation {
                    Some((t, demand, supply)) => Json::object(vec![
                        ("window", Json::rational(t)),
                        ("demand", Json::rational(demand)),
                        ("supply", Json::rational(supply)),
                    ]),
                    None => Json::Null,
                },
            ),
            ("busy_window", Json::rational(self.busy_window)),
            ("breakpoints", Json::Int(self.breakpoints as i128)),
        ])
    }
}

/// EDF processor-demand test for `tasks` sharing a resource with lower
/// service curve `beta`. Every vertex of every task must carry a deadline.
///
/// # Errors
///
/// [`AnalysisError::Unstable`] / [`AnalysisError::ServiceSaturated`] as in
/// the delay analyses, and [`AnalysisError::MissingDeadline`] if a vertex
/// has no deadline.
///
/// # Examples
///
/// ```
/// use srtw_core::edf_schedulable;
/// use srtw_minplus::{Curve, Q};
/// use srtw_workload::DrtTaskBuilder;
///
/// let mut b = DrtTaskBuilder::new("p");
/// let v = b.vertex_with_deadline("j", Q::int(2), Q::int(4));
/// b.edge(v, v, Q::int(5));
/// let task = b.build().unwrap();
///
/// let ok = edf_schedulable(&[task.clone()], &Curve::affine(Q::ZERO, Q::ONE)).unwrap();
/// assert!(ok.schedulable);
/// let slow = edf_schedulable(&[task], &Curve::affine(Q::ZERO, Q::new(9, 20))).unwrap();
/// assert!(!slow.schedulable);
/// assert!(slow.violation.is_some());
/// ```
pub fn edf_schedulable(tasks: &[DrtTask], beta: &Curve) -> Result<EdfReport, AnalysisError> {
    let missing = |t: &DrtTask, v: VertexId| AnalysisError::MissingDeadline {
        task: t.name().to_owned(),
        vertex: v.index(),
    };
    // A missing deadline is a property of the input: report it before
    // any analysis runs.
    for t in tasks {
        if let Some(v) = t.vertex_ids().find(|&v| t.deadline(v).is_none()) {
            return Err(missing(t, v));
        }
    }
    let bw = busy_window(tasks, beta)?;
    let horizon = bw.bound;
    let dbfs: Vec<Dbf> = tasks
        .iter()
        .map(|t| Dbf::compute(t, horizon).map_err(|e| missing(t, e.vertex)))
        .collect::<Result<_, _>>()?;

    // Check at every breakpoint of the summed demand staircase: between
    // breakpoints the demand is constant and the service non-decreasing,
    // so the left endpoint is the binding instant.
    let mut ts: Vec<Q> = dbfs
        .iter()
        .flat_map(|d| d.points().iter().map(|p| p.0))
        .filter(|&t| t <= horizon)
        .collect();
    ts.sort();
    ts.dedup();
    let breakpoints = ts.len();
    for &t in &ts {
        let demand: Q = dbfs.iter().map(|d| d.eval(t)).fold(Q::ZERO, |a, b| a + b);
        let supply = beta.eval(t);
        if demand > supply {
            return Ok(EdfReport {
                schedulable: false,
                violation: Some((t, demand, supply)),
                busy_window: horizon,
                breakpoints,
            });
        }
    }
    Ok(EdfReport {
        schedulable: true,
        violation: None,
        busy_window: horizon,
        breakpoints,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use srtw_minplus::q;
    use srtw_workload::DrtTaskBuilder;

    fn deadline_task(scale: Q) -> DrtTask {
        let mut b = DrtTaskBuilder::new("dl");
        let a = b.vertex_with_deadline("a", Q::int(3) * scale, Q::int(8));
        let x = b.vertex_with_deadline("x", Q::ONE * scale, Q::int(4));
        b.edge(a, x, Q::int(5));
        b.edge(x, a, Q::int(5));
        b.build().unwrap()
    }

    #[test]
    fn schedulable_on_fast_server() {
        let t = deadline_task(Q::ONE);
        let r = edf_schedulable(&[t], &Curve::affine(Q::ZERO, Q::ONE)).unwrap();
        assert!(r.schedulable);
        assert!(r.violation.is_none());
        // The busy window (3) ends before the first deadline (4): the
        // demand check is vacuous here, which is exactly why it passes.
        assert_eq!(r.breakpoints, 0);
    }

    #[test]
    fn violation_reported_with_witness() {
        let t = deadline_task(Q::ONE);
        // Rate slightly above U = 4/10 but with big latency.
        let beta = Curve::rate_latency(q(1, 2), Q::int(6));
        let r = edf_schedulable(&[t], &beta).unwrap();
        assert!(!r.schedulable);
        let (tv, demand, supply) = r.violation.unwrap();
        assert!(demand > supply);
        assert!(tv.is_positive() && tv <= r.busy_window);
        // The witness is a real violation of the curves.
        assert!(demand > beta.eval(tv));
    }

    #[test]
    fn multi_task_demand_sums() {
        let t1 = deadline_task(Q::ONE);
        let t2 = deadline_task(Q::ONE);
        let beta = Curve::affine(Q::ZERO, Q::ONE);
        // Each alone fits easily; two copies double the demand.
        assert!(edf_schedulable(std::slice::from_ref(&t1), &beta)
            .unwrap()
            .schedulable);
        let both = edf_schedulable(&[t1, t2], &beta).unwrap();
        // U = 0.8 total on unit rate with tight deadlines: demand of 2
        // heavy jobs (6) + 2 light (2) within deadline 8 vs β(8) = 8 — OK;
        // the exact verdict is what we pin here.
        assert!(both.schedulable);
    }

    #[test]
    fn missing_deadline_surfaces() {
        let mut b = DrtTaskBuilder::new("no-dl");
        let v = b.vertex("v", Q::ONE);
        b.edge(v, v, Q::int(5));
        let t = b.build().unwrap();
        let e = edf_schedulable(&[t], &Curve::affine(Q::ZERO, Q::ONE));
        assert!(matches!(e, Err(AnalysisError::MissingDeadline { .. })));
    }

    #[test]
    fn edf_dominates_fifo_structural_acceptance() {
        // EDF (deadline-aware scheduling) accepts whenever the FIFO
        // per-type bounds meet the deadlines — and usually more.
        use crate::analysis::structural_delay;
        for seed in 0..10u64 {
            let cfg = srtw_gen_like(seed);
            let beta = Curve::rate_latency(Q::ONE, Q::int(2));
            let fifo_ok = match structural_delay(&cfg, &beta) {
                Ok(a) => a.schedulable(&cfg),
                Err(_) => false,
            };
            let edf_ok = match edf_schedulable(std::slice::from_ref(&cfg), &beta) {
                Ok(r) => r.schedulable,
                Err(_) => false,
            };
            if fifo_ok {
                assert!(edf_ok, "seed {seed}: EDF must accept whenever FIFO does");
            }
        }
    }

    /// A tiny deterministic "random" deadline task family (avoiding a dev
    /// dependency on srtw-gen from this crate).
    fn srtw_gen_like(seed: u64) -> DrtTask {
        let s = (seed % 5 + 3) as i128;
        let mut b = DrtTaskBuilder::new(format!("g{seed}"));
        let a = b.vertex_with_deadline("a", Q::int(1 + (seed % 3) as i128), Q::int(3 * s));
        let x = b.vertex_with_deadline("x", Q::ONE, Q::int(2 * s));
        let y = b.vertex_with_deadline("y", Q::int(2), Q::int(3 * s));
        b.edge(a, x, Q::int(s + 2));
        b.edge(x, y, Q::int(s + 1));
        b.edge(y, a, Q::int(s + 3));
        b.edge(x, a, Q::int(2 * s));
        b.build().unwrap()
    }
}
