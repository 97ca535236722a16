//! Tandem (multi-hop) analysis: *pay bursts only once*.
//!
//! A stream crossing servers `β₁, β₂, …, βₖ` in sequence can be analysed
//! two ways:
//!
//! * **end-to-end** — convolve the service curves into `β₁ ⊗ … ⊗ βₖ` and
//!   run the structural analysis once (the burst is "paid" once); or
//! * **per-hop** — bound the delay at hop 1, propagate the output arrival
//!   curve `α′ = α ⊘ β₁`, bound hop 2, and so on, summing the hop delays.
//!
//! The end-to-end bound is never worse and usually strictly better — the
//! classical pay-bursts-only-once phenomenon, reproduced by experiment E9.

use crate::analysis::structural_delay;
use crate::busy::busy_window;
use crate::error::AnalysisError;
use srtw_minplus::{BudgetMeter, Curve, Ext, Q};
use srtw_workload::{DrtTask, Rbf};

/// Result of a tandem analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TandemReport {
    /// End-to-end (convolved-service) structural stream bound.
    pub end_to_end: Q,
    /// Sum of the per-hop delay bounds.
    pub per_hop_sum: Q,
    /// The individual hop delays of the per-hop method.
    pub hop_delays: Vec<Q>,
    /// Busy-window bound against the end-to-end service.
    pub busy_window: Q,
}

impl TandemReport {
    /// The report as a JSON value.
    pub fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        Json::object(vec![
            ("end_to_end", Json::rational(self.end_to_end)),
            ("per_hop_sum", Json::rational(self.per_hop_sum)),
            (
                "hop_delays",
                Json::Array(self.hop_delays.iter().map(|&d| Json::rational(d)).collect()),
            ),
            ("busy_window", Json::rational(self.busy_window)),
        ])
    }
}

/// Analyses a stream crossing `betas` in tandem, returning both the
/// end-to-end and the per-hop bounds.
///
/// All service curves must be ultimately affine (e.g. rate-latency); the
/// exact tail-to-infinity convolution is not defined here for periodic
/// tails — compose such servers with
/// [`srtw_resource::concatenate_upto`] and call
/// [`structural_delay`](crate::structural_delay) directly instead.
///
/// # Examples
///
/// ```
/// use srtw_core::tandem_delay;
/// use srtw_minplus::{Curve, Q};
/// use srtw_workload::DrtTaskBuilder;
///
/// let mut b = DrtTaskBuilder::new("flow");
/// let v = b.vertex("pkt", Q::int(2));
/// b.edge(v, v, Q::int(6));
/// let task = b.build().unwrap();
///
/// let hops = vec![
///     Curve::rate_latency(Q::ONE, Q::int(3)),
///     Curve::rate_latency(Q::ONE, Q::int(2)),
/// ];
/// let r = tandem_delay(&task, &hops).unwrap();
/// assert!(r.end_to_end <= r.per_hop_sum); // pay bursts only once
/// ```
pub fn tandem_delay(task: &DrtTask, betas: &[Curve]) -> Result<TandemReport, AnalysisError> {
    if betas.is_empty() {
        return Err(AnalysisError::UnsupportedService {
            reason: "tandem needs at least one server",
        });
    }

    // End-to-end service: exact convolution of ultimately affine curves.
    let mut e2e = betas[0].clone();
    for b in &betas[1..] {
        e2e = e2e
            .conv(b)
            .map_err(|_| AnalysisError::UnsupportedService {
                reason: "tandem convolution requires ultimately affine service curves",
            })?;
    }
    let e2e_analysis = structural_delay(task, &e2e)?;
    let horizon = e2e_analysis.busy_window;

    // Per-hop: hop delays via hdev, arrival propagation via deconvolution.
    // Each hop's busy window is bounded by the end-to-end busy window (its
    // service dominates the convolved one), so:
    //  * `hdev` suprema are attained within [0, horizon];
    //  * deconvolution suprema are attained for u ≤ horizon.
    // The arrival curve therefore needs to be exact on
    // [0, (hops + 1) · horizon] before the first hop.
    let hops = betas.len() as i128;
    let mut valid = horizon * Q::int(hops + 1) + Q::ONE;
    let rbf = Rbf::compute(task, valid);
    let meter = BudgetMeter::unlimited();
    let mut alpha = rbf.curve();
    let mut hop_delays = Vec::with_capacity(betas.len());
    let mut per_hop_sum = Q::ZERO;
    for beta in betas {
        let d = match alpha.try_hdev(beta, &meter) {
            Ok(Ext::Finite(d)) => d,
            _ => return Err(AnalysisError::ServiceSaturated),
        };
        hop_delays.push(d);
        per_hop_sum += d;
        valid -= horizon;
        alpha = alpha
            .try_deconv_upto(beta, valid, horizon, &meter)
            .map_err(|_| AnalysisError::ServiceSaturated)?;
    }

    Ok(TandemReport {
        end_to_end: e2e_analysis.stream_bound,
        per_hop_sum,
        hop_delays,
        busy_window: horizon,
    })
}

/// Backlog bound at the entrance of hop `k` (0-based) of a tandem: the
/// vertical deviation of the propagated arrival curve against that hop's
/// service.
pub fn tandem_backlog_at(
    task: &DrtTask,
    betas: &[Curve],
    hop: usize,
) -> Result<Q, AnalysisError> {
    if hop >= betas.len() {
        return Err(AnalysisError::UnsupportedService {
            reason: "hop index out of range",
        });
    }
    let mut e2e = betas[0].clone();
    for b in &betas[1..] {
        e2e = e2e
            .conv(b)
            .map_err(|_| AnalysisError::UnsupportedService {
                reason: "tandem convolution requires ultimately affine service curves",
            })?;
    }
    let bw = busy_window(std::slice::from_ref(task), &e2e)?;
    let horizon = bw.bound;
    let hops = betas.len() as i128;
    let mut valid = horizon * Q::int(hops + 1) + Q::ONE;
    let rbf = Rbf::compute(task, valid);
    let meter = BudgetMeter::unlimited();
    let mut alpha = rbf.curve();
    for beta in betas.iter().take(hop) {
        valid -= horizon;
        alpha = alpha
            .try_deconv_upto(beta, valid, horizon, &meter)
            .map_err(|_| AnalysisError::ServiceSaturated)?;
    }
    match alpha.try_vdev(&betas[hop], &meter) {
        Ok(Ext::Finite(v)) => Ok(v),
        _ => Err(AnalysisError::ServiceSaturated),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srtw_minplus::q;
    use srtw_workload::DrtTaskBuilder;

    fn stream() -> DrtTask {
        let mut b = DrtTaskBuilder::new("flow");
        let burst = b.vertex("burst", Q::int(3));
        let tail = b.vertex("tail", Q::ONE);
        b.edge(burst, tail, Q::int(4));
        b.edge(tail, tail, Q::int(4));
        b.edge(tail, burst, Q::int(12));
        b.build().unwrap()
    }

    #[test]
    fn pay_bursts_only_once() {
        let task = stream();
        let hops = vec![
            Curve::rate_latency(Q::ONE, Q::int(3)),
            Curve::rate_latency(q(4, 5), Q::int(2)),
            Curve::rate_latency(Q::ONE, Q::int(4)),
        ];
        let r = tandem_delay(&task, &hops).unwrap();
        assert_eq!(r.hop_delays.len(), 3);
        assert!(
            r.end_to_end <= r.per_hop_sum,
            "PBOO violated: {} > {}",
            r.end_to_end,
            r.per_hop_sum
        );
        // With three latencies the per-hop method pays the burst thrice:
        // expect a strict gap on this bursty stream.
        assert!(r.end_to_end < r.per_hop_sum);
        assert_eq!(r.hop_delays, [Q::int(6), Q::int(6), Q::int(8)]);
        assert_eq!(r.per_hop_sum, Q::int(20));
        assert_eq!(r.end_to_end, q(51, 4));
    }

    #[test]
    fn single_hop_tandem_matches_structural() {
        let task = stream();
        let beta = Curve::rate_latency(Q::ONE, Q::int(3));
        let r = tandem_delay(&task, std::slice::from_ref(&beta)).unwrap();
        let direct = structural_delay(&task, &beta).unwrap();
        assert_eq!(r.end_to_end, direct.stream_bound);
        // One hop: per-hop method is the plain RTC bound, equal to the
        // structural stream bound (theorem).
        assert_eq!(r.per_hop_sum, direct.stream_bound);
    }

    #[test]
    fn periodic_tails_rejected() {
        let task = stream();
        let tdma = srtw_resource::TdmaServer::new(Q::int(2), Q::int(5), Q::ONE).unwrap();
        use srtw_resource::Server;
        let hops = vec![tdma.beta_lower(), Curve::rate_latency(Q::ONE, Q::ONE)];
        assert!(matches!(
            tandem_delay(&task, &hops),
            Err(AnalysisError::UnsupportedService { .. })
        ));
    }

    #[test]
    fn empty_tandem_rejected() {
        let task = stream();
        assert!(matches!(
            tandem_delay(&task, &[]),
            Err(AnalysisError::UnsupportedService { .. })
        ));
    }

    #[test]
    fn backlog_per_hop_consistent() {
        let task = stream();
        let hops = vec![
            Curve::rate_latency(Q::ONE, Q::int(4)),
            Curve::rate_latency(Q::ONE, Q::int(4)),
        ];
        // Hop 0 sees the raw arrival curve: its backlog equals the direct
        // single-server backlog bound.
        let b0 = tandem_backlog_at(&task, &hops, 0).unwrap();
        let direct =
            crate::analysis::backlog_bound(std::slice::from_ref(&task), &hops[0]).unwrap();
        assert_eq!(b0, direct);
        assert_eq!(b0, Q::int(4));
        // Downstream backlog is finite (note: it may legitimately *exceed*
        // the upstream one — a server's output is burstier than its input,
        // releasing accumulated backlog at line rate).
        let b1 = tandem_backlog_at(&task, &hops, 1).unwrap();
        assert_eq!(b1, Q::int(5));
        assert!(tandem_backlog_at(&task, &hops, 2).is_err());
    }
}
