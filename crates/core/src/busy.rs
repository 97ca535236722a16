//! Maximum-busy-window bounds.
//!
//! Every bound this crate computes lives inside a *busy window*: a maximal
//! interval in which the server is continuously backlogged. For a stable
//! system (total demand rate strictly below the guaranteed service rate)
//! the busy-window length is bounded by the smallest `L > 0` with
//! `rbf_total(L) ≤ β(L)`, obtained here by the classical fixpoint
//! iteration `L ← β⁻¹(rbf_total(L))`. All path exploration and deviation
//! suprema can then be restricted to `[0, L]` — the finitary argument that
//! keeps every computation exact and finite.
//!
//! The fixpoint grows one [`Explorer`] per stream to each iterate and keeps
//! it, so later reads (rbfs, paths, fallback rbfs) explore nothing twice.
//! The stability check reads each stream's utilization off the graph its
//! explorer already holds ([`Explorer::utilization`]), so every task is
//! scaled to integers once per analysis.

use crate::error::AnalysisError;
use srtw_minplus::{ArithmeticError, BudgetKind, BudgetMeter, Curve, Ext, Q};
use srtw_workload::{DrtTask, ExploreConfig, Explorer, Rbf};

/// The busy-window bound of a set of streams sharing a server, together
/// with the per-stream request-bound functions materialized to that bound.
#[derive(Debug, Clone)]
pub struct BusyWindow {
    /// A sound upper bound on every busy-window length.
    pub bound: Q,
    /// Per-stream rbf, valid on `[0, bound]` (possibly truncated when a
    /// budget tripped — evaluate through [`Rbf::bound_at`]).
    pub rbfs: Vec<Rbf>,
    /// Total long-run utilization of all streams.
    pub utilization: Q,
    /// Fixpoint iterations used.
    pub iterations: usize,
    /// `Some(kind)` when a budget tripped while computing the bound: the
    /// bound then comes from the coarse affine demand lines (or the rbfs
    /// are truncated) and is sound but possibly pessimistic.
    pub degraded: Option<BudgetKind>,
    /// Per-stream path searches, grown to the bound (or stopped).
    pub(crate) explorers: Vec<Explorer>,
}

impl BusyWindow {
    /// Total demand of all streams in a window of length `t ≤ bound`.
    pub fn total_rbf(&self, t: Q) -> Q {
        self.rbfs
            .iter()
            .map(|r| r.bound_at(t))
            .fold(Q::ZERO, |a, b| a + b)
    }
}

/// Computes a busy-window bound for `tasks` jointly served by a resource
/// with lower service curve `beta`.
///
/// # Errors
///
/// [`AnalysisError::Unstable`] when the summed utilization reaches the
/// service rate; [`AnalysisError::BusyWindowDiverged`] if the fixpoint does
/// not converge within the iteration cap.
///
/// # Examples
///
/// ```
/// use srtw_core::busy_window;
/// use srtw_minplus::{Curve, Q};
/// use srtw_workload::DrtTaskBuilder;
///
/// let mut b = DrtTaskBuilder::new("loop");
/// let v = b.vertex("v", Q::int(2));
/// b.edge(v, v, Q::int(5));
/// let task = b.build().unwrap();
/// let beta = Curve::affine(Q::ZERO, Q::ONE); // dedicated unit server
///
/// let bw = busy_window(&[task], &beta).unwrap();
/// assert_eq!(bw.bound, Q::int(2)); // one job, done before the next
/// ```
pub fn busy_window(tasks: &[DrtTask], beta: &Curve) -> Result<BusyWindow, AnalysisError> {
    busy_window_metered(tasks, beta, &BudgetMeter::unlimited())
}

/// Budgeted [`busy_window`]: when the meter trips — whether while
/// exploring an rbf or (wall clock) between fixpoint iterations — the
/// iteration stops doing exact work and the bound is finished analytically
/// on the coarse affine demand lines `Σᵢ (bᵢ + rᵢ·t)` (each dominating its
/// stream's true rbf everywhere, see [`Rbf::coarse_line`]) against the
/// service's global lower line `β(t) ≥ b_β + r_β·t`: any `L` with
/// `Σᵢ bᵢ + L·Σᵢ rᵢ ≤ b_β + r_β·L` satisfies `rbf_total(L) ≤ β(L)` and is
/// therefore a sound busy-window bound. The result is marked in
/// [`BusyWindow::degraded`].
///
/// # Errors
///
/// In addition to the [`busy_window`] errors,
/// [`AnalysisError::BudgetExhausted`] when the coarse demand rate reaches
/// the service rate (the affine lines never cross, so no sound degraded
/// bound exists).
pub fn busy_window_metered(
    tasks: &[DrtTask],
    beta: &Curve,
    meter: &BudgetMeter,
) -> Result<BusyWindow, AnalysisError> {
    let cfg = ExploreConfig::new(Q::ZERO);
    let mut explorers: Vec<Explorer> = tasks.iter().map(|t| Explorer::new(t, &cfg)).collect();
    let mut utilization = Q::ZERO;
    for x in &explorers {
        utilization = utilization
            .checked_add(x.utilization()?)
            .ok_or(ArithmeticError::Overflow)?;
    }
    let rate = beta.rate();
    if utilization >= rate {
        // Acyclic-only workloads have utilization 0 < any positive rate; a
        // zero rate with nonzero demand is saturation.
        if rate.is_zero() {
            return Err(AnalysisError::ServiceSaturated);
        }
        return Err(AnalysisError::Unstable {
            utilization,
            service_rate: rate,
        });
    }

    let mut level = Q::ZERO;
    let mut iterations = 0usize;
    const CAP: usize = 100_000;
    loop {
        iterations += 1;
        if iterations > CAP {
            return Err(AnalysisError::BusyWindowDiverged { reached: level });
        }
        for x in &mut explorers {
            x.extend_to(level, meter)?;
        }
        // The demand at `level`, read off the searches' staircases; `None`
        // when a search stopped within `level` (its rbf is truncated).
        let demand = explorers
            .iter()
            .try_fold(Q::ZERO, |a, x| Some(a + x.demand(level)?));
        // Exact iteration on truncated rbfs would chase the continuous
        // affine tail and never attain the fixpoint — switch to the
        // analytic finish as soon as anything trips.
        let demand = match (meter.check_wall(), demand) {
            (true, Some(d)) => d,
            _ => {
                let rbfs = explorers.iter().map(|x| x.rbf(level)).collect();
                return coarse_busy_window(beta, rbfs, explorers, utilization, iterations, meter);
            }
        };
        let next = match beta.pseudo_inverse(demand) {
            Ext::Finite(t) => t,
            Ext::Infinite => return Err(AnalysisError::ServiceSaturated),
        };
        if next <= level {
            // Fixpoint: service catches up with demand at `level`.
            let bound = level.max(Q::ONE);
            // Materialize rbfs on the final bound. If that final pass
            // trips, the bound itself is still the exact fixpoint; only
            // the materialized rbfs are coarse.
            for x in &mut explorers {
                x.extend_to(bound, meter)?;
            }
            let rbfs: Vec<Rbf> = explorers.iter().map(|x| x.rbf(bound)).collect();
            let degraded = if rbfs.iter().any(|r| r.truncated().is_some()) {
                meter.tripped()
            } else {
                None
            };
            return Ok(BusyWindow {
                bound,
                rbfs,
                utilization,
                iterations,
                degraded,
                explorers,
            });
        }
        level = next;
    }
}

/// Analytic busy-window bound from the coarse affine demand lines — the
/// degraded finish of [`busy_window_metered`].
fn coarse_busy_window(
    beta: &Curve,
    rbfs: Vec<Rbf>,
    explorers: Vec<Explorer>,
    utilization: Q,
    iterations: usize,
    meter: &BudgetMeter,
) -> Result<BusyWindow, AnalysisError> {
    let tripped = meter.tripped().unwrap_or(BudgetKind::WallClock);
    let (b_tot, r_tot) = rbfs.iter().fold((Q::ZERO, Q::ZERO), |(b, r), rbf| {
        let (cb, cr) = rbf.coarse_line();
        (b + cb, r + cr)
    });
    let (b_beta, r_beta) = beta.lower_line();
    if r_tot >= r_beta {
        // The coarse demand rate saturates the service: the lines never
        // cross and no sound degraded bound exists.
        return Err(AnalysisError::BudgetExhausted { tripped });
    }
    // Crossing point of the demand and service lines: at L the service
    // line has caught the demand line, so rbf_total(L) ≤ β(L).
    let bound = ((b_tot - b_beta) / (r_beta - r_tot)).max(Q::ONE);
    Ok(BusyWindow {
        bound,
        rbfs,
        utilization,
        iterations,
        degraded: Some(tripped),
        explorers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use srtw_minplus::q;
    use srtw_workload::DrtTaskBuilder;

    fn looped(wcet: i128, sep: i128) -> DrtTask {
        let mut b = DrtTaskBuilder::new("loop");
        let v = b.vertex("v", Q::int(wcet));
        b.edge(v, v, Q::int(sep));
        b.build().unwrap()
    }

    #[test]
    fn single_job_busy_window() {
        let t = looped(2, 5);
        let beta = Curve::affine(Q::ZERO, Q::ONE);
        let bw = busy_window(&[t], &beta).unwrap();
        assert_eq!(bw.bound, Q::int(2));
        assert_eq!(bw.utilization, q(2, 5));
    }

    #[test]
    fn slow_server_long_window() {
        // wcet 2 every 5 on a half-rate server: busy window spans several
        // releases: rbf(t) = 2·(1+⌊t/5⌋), β(t)=t/2.
        // L: 2 -> β⁻¹(2)=4 -> rbf(4)=2 -> stop? rbf(4)=2, β(4)=2 ⇒ fix at 4.
        let t = looped(2, 5);
        let beta = Curve::affine(Q::ZERO, q(1, 2));
        let bw = busy_window(&[t], &beta).unwrap();
        assert_eq!(bw.bound, Q::int(4));
    }

    #[test]
    fn latency_extends_window() {
        let t = looped(2, 5);
        let beta = Curve::rate_latency(Q::ONE, Q::int(4));
        // β(t) = t−4. L: demand 2 → β⁻¹ = 6 → rbf(6)=4 → β⁻¹(4)=8 → rbf(8)=4
        // → stop at 8.
        let bw = busy_window(&[t], &beta).unwrap();
        assert_eq!(bw.bound, Q::int(8));
        // And indeed rbf(8) = 4 ≤ β(8) = 4.
        assert_eq!(bw.total_rbf(Q::int(8)), Q::int(4));
    }

    #[test]
    fn multi_stream_window() {
        let t1 = looped(1, 4);
        let t2 = looped(2, 6);
        let beta = Curve::affine(Q::ZERO, Q::ONE);
        let bw = busy_window(&[t1, t2], &beta).unwrap();
        // demand(0)=3 → 3 → rbf(3)=3 → stop at 3.
        assert_eq!(bw.bound, Q::int(3));
        assert_eq!(bw.utilization, q(1, 4) + q(1, 3));
        assert_eq!(bw.rbfs.len(), 2);
    }

    #[test]
    fn unstable_rejected() {
        let t = looped(3, 4); // U = 3/4
        let beta = Curve::affine(Q::ZERO, q(1, 2));
        assert!(matches!(
            busy_window(&[t], &beta),
            Err(AnalysisError::Unstable { .. })
        ));
    }

    #[test]
    fn saturated_service_rejected() {
        let t = looped(3, 4);
        let beta = Curve::constant(Q::int(100));
        assert!(matches!(
            busy_window(&[t], &beta),
            Err(AnalysisError::ServiceSaturated)
        ));
    }

    #[test]
    fn metered_busy_window_dominates_exact() {
        use srtw_minplus::Budget;
        let t = looped(2, 5);
        let beta = Curve::rate_latency(Q::ONE, Q::int(4));
        let exact = busy_window(std::slice::from_ref(&t), &beta).unwrap();
        assert!(exact.degraded.is_none());
        for cap in [0u64, 1, 2, 5] {
            let meter = BudgetMeter::new(&Budget::default().with_max_paths(cap));
            let bw = busy_window_metered(std::slice::from_ref(&t), &beta, &meter).unwrap();
            assert!(
                bw.bound >= exact.bound,
                "cap {cap}: degraded busy window {} below exact {}",
                bw.bound,
                exact.bound
            );
            if bw.degraded.is_some() {
                // The truncated total demand still dominates the true one.
                assert!(bw.total_rbf(exact.bound) >= exact.total_rbf(exact.bound));
            }
        }
    }

    #[test]
    fn saturating_coarse_rate_is_budget_exhausted() {
        use srtw_minplus::Budget;
        // wcet 2 every 5 has coarse packing rate 2/5 ≥ the service rate
        // 2/5 exactly when nothing at all was enumerated.
        let t = looped(2, 5);
        let beta = Curve::affine(Q::ZERO, q(2, 5) + q(1, 100));
        let meter = BudgetMeter::new(&Budget::default().with_max_paths(0));
        // Utilization 2/5 < rate 2/5+1/100, so the stability check passes,
        // but the packing line's rate 2/5 … let the result speak: either a
        // sound degraded bound or BudgetExhausted — never a panic and
        // never an unsoundly small bound.
        match busy_window_metered(std::slice::from_ref(&t), &beta, &meter) {
            Ok(bw) => {
                let exact = busy_window(&[t], &beta).unwrap();
                assert!(bw.bound >= exact.bound);
            }
            Err(AnalysisError::BudgetExhausted { .. }) => {}
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn acyclic_workload_any_positive_rate() {
        let mut b = DrtTaskBuilder::new("dag");
        let a = b.vertex("a", Q::int(5));
        let c = b.vertex("b", Q::int(5));
        b.edge(a, c, Q::ONE);
        let t = b.build().unwrap();
        let beta = Curve::affine(Q::ZERO, q(1, 10));
        let bw = busy_window(&[t], &beta).unwrap();
        // All 10 units must eventually drain at rate 1/10: window 100.
        assert_eq!(bw.bound, Q::int(100));
    }
}
