//! Fixed-priority analysis: leftover service per priority level.
//!
//! Under preemptive fixed-priority scheduling (priority = position in the
//! task slice, index 0 highest), task `i` is guaranteed at least the
//! *leftover* service `β_i = [β − Σ_{j<i} rbf_j]⁺↑` — the non-decreasing
//! non-negative closure of the full service minus all higher-priority
//! demand. Each task is then analysed structurally on its own leftover
//! curve, retaining per-job-type attribution at every priority level.

use crate::analysis::{structural_delay_at, AnalysisConfig};
use crate::busy::busy_window;
use crate::error::AnalysisError;
use crate::report::DelayAnalysis;
use srtw_minplus::{BudgetMeter, Curve, Q};
use srtw_workload::DrtTask;

/// Structural per-job-type bounds for each task under preemptive
/// fixed-priority scheduling (index 0 = highest priority).
///
/// # Examples
///
/// ```
/// use srtw_core::fixed_priority_structural;
/// use srtw_minplus::{Curve, Q};
/// use srtw_workload::DrtTaskBuilder;
///
/// let mk = |name: &str, wcet: i128, sep: i128| {
///     let mut b = DrtTaskBuilder::new(name);
///     let v = b.vertex("v", Q::int(wcet));
///     b.edge(v, v, Q::int(sep));
///     b.build().unwrap()
/// };
/// let hi = mk("hi", 1, 4);
/// let lo = mk("lo", 2, 10);
/// let beta = Curve::affine(Q::ZERO, Q::ONE);
///
/// let per = fixed_priority_structural(&[hi, lo], &beta).unwrap();
/// // The high-priority task is oblivious to the low one…
/// assert_eq!(per[0].stream_bound, Q::ONE);
/// // …while the low one pays for preemption.
/// assert!(per[1].stream_bound > Q::int(2));
/// ```
pub fn fixed_priority_structural(
    tasks: &[DrtTask],
    beta: &Curve,
) -> Result<Vec<DelayAnalysis>, AnalysisError> {
    fixed_priority_structural_with(tasks, beta, &AnalysisConfig::default())
}

/// [`fixed_priority_structural`] with an explicit analysis configuration.
pub fn fixed_priority_structural_with(
    tasks: &[DrtTask],
    beta: &Curve,
    cfg: &AnalysisConfig,
) -> Result<Vec<DelayAnalysis>, AnalysisError> {
    // Joint busy window: bounds every priority level's busy window (the
    // leftover service of level i at the joint bound L still covers the
    // level's own demand: β_i(L) ≥ β(L) − Σ_{j<i} rbf_j(L) ≥ rbf_i(L)).
    let mut bw = busy_window(tasks, beta)?;
    let horizon = bw.bound;
    // Arrival curves must be exact well past the horizon so the leftover
    // closure is exact wherever the analysis evaluates it: grow the joint
    // window's explorations that far.
    let generous = horizon + horizon + Q::ONE;
    let meter = BudgetMeter::unlimited();
    let alphas: Vec<Curve> = bw
        .explorers
        .iter_mut()
        .map(|x| {
            x.extend_to(generous, &meter);
            x.rbf(generous).curve()
        })
        .collect();

    let mut out = Vec::with_capacity(tasks.len());
    // The leftover-service chain β → [β − rbf₀]⁺↑ → [… − rbf₁]⁺↑ → …
    let mut current = beta.clone();
    for (task, alpha) in tasks.iter().zip(alphas.iter()) {
        // Pin the horizon: the level's own busy-window estimate against
        // the (truncation-optimistic beyond the joint horizon) leftover
        // curve is not trusted; the joint bound is sound for every level
        // and the leftover curve is exact on [0, 2·horizon].
        out.push(structural_delay_at(task, &current, cfg, Some(horizon))?);
        current = current.try_sub_clamped_monotone(alpha, &meter)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::structural_delay;
    use srtw_minplus::q;
    use srtw_workload::DrtTaskBuilder;

    fn looped(name: &str, wcet: i128, sep: i128) -> DrtTask {
        let mut b = DrtTaskBuilder::new(name);
        let v = b.vertex("v", Q::int(wcet));
        b.edge(v, v, Q::int(sep));
        b.build().unwrap()
    }

    #[test]
    fn highest_priority_sees_full_server() {
        let hi = looped("hi", 1, 4);
        let lo = looped("lo", 2, 10);
        let beta = Curve::rate_latency(Q::ONE, Q::int(2));
        let per = fixed_priority_structural(&[hi.clone(), lo], &beta).unwrap();
        let direct = structural_delay(&hi, &beta).unwrap();
        assert_eq!(per[0].stream_bound, direct.stream_bound);
    }

    #[test]
    fn lower_priorities_pay_interference() {
        let hi = looped("hi", 2, 5);
        let mid = looped("mid", 1, 7);
        let lo = looped("lo", 1, 11);
        let beta = Curve::affine(Q::ZERO, Q::ONE);
        let per = fixed_priority_structural(&[hi.clone(), mid.clone(), lo.clone()], &beta).unwrap();
        let d_hi = structural_delay(&hi, &beta).unwrap().stream_bound;
        let d_mid_alone = structural_delay(&mid, &beta).unwrap().stream_bound;
        let d_lo_alone = structural_delay(&lo, &beta).unwrap().stream_bound;
        assert_eq!(per[0].stream_bound, d_hi);
        assert!(per[1].stream_bound >= d_mid_alone);
        assert!(per[2].stream_bound >= d_lo_alone);
        assert!(per[2].stream_bound >= per[1].stream_bound.min(per[0].stream_bound));
    }

    #[test]
    fn priority_order_matters() {
        let heavy = looped("heavy", 3, 10);
        let light = looped("light", 1, 10);
        let beta = Curve::affine(Q::ZERO, q(3, 4));
        let a = fixed_priority_structural(&[heavy.clone(), light.clone()], &beta).unwrap();
        let b = fixed_priority_structural(&[light, heavy], &beta).unwrap();
        // The light task fares better when prioritized.
        assert!(b[0].stream_bound <= a[1].stream_bound);
    }

    #[test]
    fn unstable_mix_rejected() {
        let t1 = looped("a", 3, 5);
        let t2 = looped("b", 3, 5);
        let beta = Curve::affine(Q::ZERO, Q::ONE);
        assert!(matches!(
            fixed_priority_structural(&[t1, t2], &beta),
            Err(AnalysisError::Unstable { .. })
        ));
    }
}
