//! Structure-aware delay analysis — the core contribution.
//!
//! # The two analyses
//!
//! **RTC baseline** ([`rtc_delay`]). The workload is abstracted into its
//! request-bound function `rbf` (an upper arrival curve) and the delay
//! bound is the horizontal deviation `sup_t [β⁻¹(rbf(t)) − t]`. The
//! abstraction collapses all job types into an anonymous fluid: the result
//! is one stream-wide bound, necessarily calibrated to the *worst* job
//! type, and the only sound per-type claim it supports is that every job
//! type meets that single bound.
//!
//! **Structural analysis** ([`structural_delay`]). Work directly on the
//! digraph: enumerate (with dominance pruning) the abstract paths
//! `(span, work)` inside the busy window and bound the response time of
//! the job at the *end* of each path by `β⁻¹(work) − span`. Taking the
//! maximum per final vertex yields **per-job-type** bounds
//! `delay(v) = max over paths ending at v`.
//!
//! # Number domains
//!
//! The per-node loop and the RTC breakpoint loop run at one common scale
//! `L` per request, in checked `i128` (see `scale.rs`): spans, works, the
//! competing rbf staircases and β's breakpoints are all integers there,
//! β⁻¹ is an unreduced fraction and candidates compare by
//! cross-multiplication, without a gcd. Only each vertex's winner becomes
//! a [`Q`] and a witness path. The same loops instantiated at `Q` run
//! when an explorer searches in exact rationals, an rbf is truncated, or
//! `L` or a product overflows — the same values, so the same bytes.
//!
//! # Relationship (tested as a theorem)
//!
//! `max over v of structural delay(v)  ==  RTC bound`: the rbf envelope's
//! breakpoints are exactly the Pareto-maximal abstract paths, so the
//! stream-wide structural maximum and the RTC horizontal deviation inspect
//! the same candidates. The structural gain is the *attribution*: light
//! job types receive much smaller bounds than the stream-wide worst case,
//! which is what per-type deadlines (and the acceptance-ratio experiments)
//! exploit.
//!
//! # Abstraction horizon (the tightness/effort knob)
//!
//! [`AnalysisConfig::horizon_fraction`] caps the *span* of exactly explored
//! paths at a fraction of the busy window; any demand farther out falls
//! back to the arrival-curve abstraction (candidates
//! `β⁻¹(rbf(δ)) − δ` for `δ` beyond the cap). The resulting bound is
//! monotonically non-increasing in the fraction: at `0` it degenerates
//! exactly to the RTC baseline, at `1` it is the full structural analysis —
//! the knob the ablation experiment sweeps.

use crate::busy::{busy_window, busy_window_metered, BusyWindow};
use crate::error::AnalysisError;
use crate::report::{
    BoundQuality, Degradation, DelayAnalysis, Fallback, RtcReport, VertexBound, WitnessPath,
};
use crate::scale::Scales;
use srtw_minplus::{Budget, BudgetMeter, Curve, Ext, Q};
use srtw_workload::{DrtTask, ExploreConfig, Explorer, Rbf};
use std::time::Instant;

/// Configuration of the structural analysis.
#[derive(Debug, Clone, Default)]
pub struct AnalysisConfig {
    /// Fraction (in `[0, 1]`) of the busy window explored *exactly*; demand
    /// beyond the cap is covered by the arrival-curve abstraction.
    /// `Some(0)` degenerates to the RTC baseline; `None` (or `Some(1)`)
    /// is the full structural analysis.
    pub horizon_fraction: Option<Q>,
    /// Disable dominance pruning (for ablation measurements only).
    pub no_prune: bool,
    /// Effort budget for the whole invocation. When a dimension trips, the
    /// analysis degrades gracefully instead of failing: exploration and
    /// rbf horizons are truncated soundly and the result carries a
    /// [`BoundQuality::Degraded`] marker plus [`Degradation`] records.
    /// Defaults to [`Budget::UNLIMITED`].
    pub budget: Budget,
}

/// Structural per-job-type delay analysis of a single stream on a resource
/// with lower service curve `beta`.
///
/// # Examples
///
/// ```
/// use srtw_core::structural_delay;
/// use srtw_minplus::{Curve, Q};
/// use srtw_workload::DrtTaskBuilder;
///
/// // Heavy job, then a light job 6 later, loop back after 6 more.
/// let mut b = DrtTaskBuilder::new("hl");
/// let h = b.vertex("heavy", Q::int(4));
/// let l = b.vertex("light", Q::ONE);
/// b.edge(h, l, Q::int(6));
/// b.edge(l, h, Q::int(6));
/// let task = b.build().unwrap();
/// let beta = Curve::affine(Q::ZERO, Q::ONE);
///
/// let a = structural_delay(&task, &beta).unwrap();
/// // The heavy job type needs 4 units; the light one at most 1 (it never
/// // queues behind the heavy job: 6 time units have passed).
/// assert_eq!(a.bound_of(h), Q::int(4));
/// assert_eq!(a.bound_of(l), Q::int(1));
/// assert_eq!(a.stream_bound, Q::int(4));
/// ```
pub fn structural_delay(task: &DrtTask, beta: &Curve) -> Result<DelayAnalysis, AnalysisError> {
    structural_delay_with(task, beta, &AnalysisConfig::default())
}

/// [`structural_delay`] with an explicit configuration.
pub fn structural_delay_with(
    task: &DrtTask,
    beta: &Curve,
    cfg: &AnalysisConfig,
) -> Result<DelayAnalysis, AnalysisError> {
    structural_delay_at(task, beta, cfg, None)
}

/// [`structural_delay_with`] exploring up to `horizon` instead of the
/// stream's own busy-window bound (the fixed-priority analysis passes its
/// joint busy window). The analysis still covers at least the stream's
/// exact busy-window bound: a shorter horizon only moves demand from
/// exact paths to the arrival-curve fallback, and the result is then
/// labelled degraded. When the stream's own fixpoint degrades under the
/// budget, its bound is only a coarse over-estimate and `horizon` is
/// used as given, so `horizon` must itself bound the busy window (the
/// joint window bounds every priority level's).
pub(crate) fn structural_delay_at(
    task: &DrtTask,
    beta: &Curve,
    cfg: &AnalysisConfig,
    horizon: Option<Q>,
) -> Result<DelayAnalysis, AnalysisError> {
    let start = Instant::now();
    let meter = BudgetMeter::new(&cfg.budget);
    let result =
        busy_window_metered(std::slice::from_ref(task), beta, &meter).and_then(|mut bw| {
            let mut explorer = bw.explorers.pop().expect("one explorer per task");
            let scales = Scales::new(&bw, std::slice::from_ref(&explorer), beta);
            let horizon = horizon.unwrap_or(bw.bound);
            let ceiling = || rtc_report(&bw, beta, &scales).map(|rtc| rtc.bound);
            analyse_stream(
                task,
                &mut explorer,
                beta,
                &bw,
                horizon,
                0,
                &[],
                &scales,
                &ceiling,
                cfg,
                &meter,
                start,
            )
        });
    surface_injected_fault(result, &meter)
}

/// The arrival-curve (RTC) baseline: one stream-wide delay bound from the
/// request-bound function.
///
/// The bound is `max over rbf breakpoints (s, w) of β⁻¹(w) − s`, which is
/// exactly the horizontal deviation `hdev(rbf, β)` restricted to the busy
/// window (the finitary argument makes the restriction lossless).
pub fn rtc_delay(task: &DrtTask, beta: &Curve) -> Result<RtcReport, AnalysisError> {
    rtc_delay_with(task, beta, &Budget::UNLIMITED)
}

/// [`rtc_delay`] under an effort budget. When the budget trips, the bound
/// is finished on the coarse affine rbf tail (sound everywhere) and the
/// report is marked [`BoundQuality::Degraded`].
pub fn rtc_delay_with(
    task: &DrtTask,
    beta: &Curve,
    budget: &Budget,
) -> Result<RtcReport, AnalysisError> {
    fifo_rtc_with(std::slice::from_ref(task), beta, budget)
}

/// Structural analysis of each stream in a FIFO multiplex: the analysed
/// stream keeps its structure while the competing streams are abstracted
/// into their request-bound curves (the standard structural-FIFO setup).
///
/// Returns one [`DelayAnalysis`] per input task, in order.
pub fn fifo_structural(
    tasks: &[DrtTask],
    beta: &Curve,
    cfg: &AnalysisConfig,
) -> Result<Vec<DelayAnalysis>, AnalysisError> {
    fifo_analysis(tasks, beta, cfg).map(|(per, _)| per)
}

/// The FIFO engine: one busy-window fixpoint for the whole multiplex, the
/// structural analysis of every stream (in task order), and the RTC
/// baseline of the multiplex — all from that one window and one meter.
/// Each stream's analysis reads the exploration the fixpoint grew for it,
/// so a request explores every stream once. The baseline equals
/// [`fifo_rtc_with`] under `cfg.budget` — that function computes the same
/// fixpoint from a fresh meter, which replays exactly the ticks this one
/// spent on it — except that a wall-clock trip inside the fixpoint
/// degrades the baseline too.
pub fn fifo_analysis(
    tasks: &[DrtTask],
    beta: &Curve,
    cfg: &AnalysisConfig,
) -> Result<(Vec<DelayAnalysis>, RtcReport), AnalysisError> {
    let meter = BudgetMeter::new(&cfg.budget);
    let result = busy_window_metered(tasks, beta, &meter).and_then(|mut bw| {
        let mut explorers = std::mem::take(&mut bw.explorers);
        let scales = Scales::new(&bw, &explorers, beta);
        let rtc = rtc_report(&bw, beta, &scales)?;
        let ceiling = || Ok(rtc.bound);
        let per = (0..tasks.len())
            .map(|i| {
                let start = Instant::now();
                let others: Vec<&Rbf> = bw
                    .rbfs
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, r)| r)
                    .collect();
                analyse_stream(
                    &tasks[i],
                    &mut explorers[i],
                    beta,
                    &bw,
                    bw.bound,
                    i,
                    &others,
                    &scales,
                    &ceiling,
                    cfg,
                    &meter,
                    start,
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok((per, rtc))
    });
    surface_injected_fault(result, &meter)
}

/// The FIFO RTC baseline: one bound for *all* streams from the summed
/// request-bound curves.
pub fn fifo_rtc(tasks: &[DrtTask], beta: &Curve) -> Result<RtcReport, AnalysisError> {
    fifo_rtc_with(tasks, beta, &Budget::UNLIMITED)
}

/// [`fifo_rtc`] under an effort budget, degrading to the summed coarse
/// affine rbf tails when it trips.
pub fn fifo_rtc_with(
    tasks: &[DrtTask],
    beta: &Curve,
    budget: &Budget,
) -> Result<RtcReport, AnalysisError> {
    let meter = BudgetMeter::new(budget);
    let result = busy_window_metered(tasks, beta, &meter)
        .and_then(|bw| rtc_report(&bw, beta, &Scales::new(&bw, &bw.explorers, beta)));
    surface_injected_fault(result, &meter)
}

/// Worst-case backlog bound (vertical deviation of demand vs service inside
/// the busy window) of the whole multiplex.
pub fn backlog_bound(tasks: &[DrtTask], beta: &Curve) -> Result<Q, AnalysisError> {
    let bw = busy_window(tasks, beta)?;
    let mut spans: Vec<Q> = bw
        .rbfs
        .iter()
        .flat_map(|r| r.points().iter().map(|p| p.0))
        .collect();
    spans.push(Q::ZERO);
    spans.sort();
    spans.dedup();
    let mut bound = Q::ZERO;
    for &s in &spans {
        bound = bound.max(bw.total_rbf(s) - beta.eval(s));
    }
    Ok(bound.clamp_nonneg())
}

/// Surfaces a fault-injected synthetic overflow as the typed arithmetic
/// error a real overflow would produce, whatever the analysis itself
/// concluded (an injected overflow also trips the meter, so the underlying
/// result may be a sound degradation or a `BudgetExhausted`). Every entry
/// point funnels its result through here, so a plan firing at *any*
/// metered operation reliably drives the error path (which is what the
/// supervisor's retry ladder and its tests rely on).
fn surface_injected_fault<T>(
    result: Result<T, AnalysisError>,
    meter: &BudgetMeter,
) -> Result<T, AnalysisError> {
    match meter.injected_overflow() {
        Some(e) => Err(AnalysisError::Arithmetic(e)),
        None => result,
    }
}

/// Shared engine: per-vertex structural bounds for `task`, stream
/// `stream` of the request, with FIFO interference from `others` (the
/// request's other rbfs, empty for a dedicated stream).
///
/// Paths are explored up to `horizon` (times the configured fraction),
/// but the bounds cover the window `W = max(horizon, bw.bound)` (just
/// `horizon` when the fixpoint degraded): demand at spans from the exact
/// cap up to `W` comes from the arrival-curve fallback, so a horizon
/// below the busy window can cost tightness but never soundness, and
/// such a result is never labelled exact. Both the paths and the
/// fallback rbf are read off `explorer`, grown further only where the
/// fixpoint did not reach; `no_prune` explores its own unpruned arena,
/// the oracle the pruned one is checked against. The per-node loop runs
/// in `scales`, which read the same rbfs as `others`.
#[allow(clippy::too_many_arguments)]
fn analyse_stream(
    task: &DrtTask,
    explorer: &mut Explorer,
    beta: &Curve,
    bw: &BusyWindow,
    horizon: Q,
    stream: usize,
    others: &[&Rbf],
    scales: &Scales<'_>,
    ceiling: &dyn Fn() -> Result<Q, AnalysisError>,
    cfg: &AnalysisConfig,
    meter: &BudgetMeter,
    start: Instant,
) -> Result<DelayAnalysis, AnalysisError> {
    let mut degradations: Vec<Degradation> = Vec::new();
    if let Some(k) = bw.degraded {
        degradations.push(Degradation {
            component: "busy_window".to_owned(),
            tripped: k,
            detail: format!(
                "fixpoint finished on the coarse affine demand lines (bound {})",
                bw.bound
            ),
        });
    }
    for r in others {
        if let Some(k) = r.truncated() {
            degradations.push(Degradation {
                component: "interference_rbf".to_owned(),
                tripped: k,
                detail: format!(
                    "a competing stream's rbf is exact only below span {}",
                    r.exact_span()
                ),
            });
        }
    }

    // `bound_at` evaluates exact rbfs clamped at their horizon (the
    // finitary argument makes the clamp sound) and truncated rbfs through
    // their dominating affine tail.
    let interference = |s: Q| -> Q {
        others.iter().map(|r| r.bound_at(s)).fold(Q::ZERO, |a, b| a + b)
    };

    // The span cap for exact exploration.
    let span_cap = match cfg.horizon_fraction {
        Some(f) => {
            let f = f.clamp_nonneg().min(Q::ONE);
            horizon * f
        }
        None => horizon,
    };

    let unpruned;
    let paths = if cfg.no_prune {
        let mut x = Explorer::new(task, &ExploreConfig::new(span_cap).without_pruning());
        x.extend_to(span_cap, meter)?;
        unpruned = x;
        unpruned.paths(span_cap)
    } else {
        explorer.extend_to(span_cap, meter)?;
        explorer.paths(span_cap)
    };
    if let Some(k) = paths.interrupted {
        degradations.push(Degradation {
            component: format!("exploration('{}')", task.name()),
            tripped: k,
            detail: format!(
                "abstract paths complete only below span {} (cap {})",
                paths.complete_span, span_cap
            ),
        });
    }
    // Every enumerated node is a genuine abstract path, so all of them may
    // contribute candidates even on an interrupted run; only the
    // *completeness* claim shrinks to spans strictly below `complete_span`.
    // Only each vertex's winner is unscaled into a witness.
    let n = task.num_vertices();
    let best: Vec<Option<(Q, WitnessPath)>> = scales
        .winners(stream, n, &paths)?
        .into_iter()
        .map(|w| {
            w.map(|(d, idx)| {
                let node = paths.node(idx);
                let witness = WitnessPath {
                    vertices: paths.path_of(idx),
                    span: node.span,
                    work: node.work,
                };
                (d, witness)
            })
        })
        .collect();
    let (retained, generated, pruned) = (paths.len(), paths.generated, paths.pruned);
    let (complete_span, interrupted) = (paths.complete_span, paths.interrupted);

    // Demand beyond the exactly-covered span prefix is covered by the
    // arrival-curve abstraction: any path with span δ ≥ exact_cap has work
    // ≤ rbf(δ), so its end job's delay is at most
    // β⁻¹(rbf(δ) + interference(δ)) − δ.
    let exact_cap = span_cap.min(complete_span);
    // A budget-degraded fixpoint bound is a coarse over-estimate of the
    // busy window, not a finding the caller's horizon missed.
    let window = match bw.degraded {
        None => horizon.max(bw.bound),
        Some(_) => horizon,
    };
    let fallback_active = exact_cap < window || interrupted.is_some();
    let mut fallback = Q::ZERO;
    let mut own_truncated = false;
    if fallback_active {
        explorer.extend_to(window, meter)?;
        let own_rbf = explorer.rbf(window);
        if let Some(k) = own_rbf.truncated() {
            own_truncated = true;
            degradations.push(Degradation {
                component: format!("rbf('{}')", task.name()),
                tripped: k,
                detail: format!(
                    "fallback rbf exact only below span {} of horizon {}",
                    own_rbf.exact_span(),
                    window
                ),
            });
        }
        for &(delta, w) in own_rbf.points() {
            // Any path with span δ ≥ exact_cap has work ≤ rbf(δ); on each
            // rbf plateau the worst candidate sits at its left end, clamped
            // to the cap (evaluating *at* the cap is conservative).
            let d0 = delta.max(exact_cap);
            if delta > window {
                break;
            }
            let ahead = w + interference(d0);
            match beta.pseudo_inverse(ahead) {
                Ext::Finite(t) => fallback = fallback.max((t - d0).clamp_nonneg()),
                Ext::Infinite => return Err(AnalysisError::ServiceSaturated),
            }
        }
        if own_truncated {
            // The staircase points stop at the truncation; spans from
            // there to the window are covered by the affine demand lines
            // (own coarse tail plus the competing streams' coarse tails,
            // each dominating the respective true rbf everywhere).
            let lo = exact_cap.max(own_rbf.exact_span());
            let intf_line = others.iter().fold((Q::ZERO, Q::ZERO), |(b, r), o| {
                let (cb, cr) = o.coarse_line();
                (b + cb, r + cr)
            });
            fallback = fallback.max(affine_region_bound(
                own_rbf.coarse_line(),
                intf_line,
                beta,
                lo,
                window,
            )?);
        }
    }

    // The degraded candidates can come from a wider window than the busy
    // window's rbfs, or from the coarse tail of a search the stream's own
    // exploration stopped early, so they can overshoot the
    // stream-agnostic RTC baseline. That baseline is itself
    // a sound delay bound for every job of the multiplex, so cap the
    // fallback there — pinning the sandwich
    // `exact structural ≤ degraded ≤ RTC baseline`.
    if fallback_active {
        if let Ok(ceiling) = ceiling() {
            fallback = fallback.min(ceiling);
        }
    }

    let mut per_vertex = Vec::with_capacity(n);
    let mut stream_bound = Q::ZERO;
    for (v, found) in task.vertex_ids().zip(best) {
        let (mut bound, witness, mut from_fallback) = match found {
            Some((d, witness)) => (d, Some(witness), false),
            None => (Q::ZERO, None, fallback_active),
        };
        if fallback_active && fallback > bound {
            bound = fallback;
            from_fallback = true;
        }
        stream_bound = stream_bound.max(bound);
        per_vertex.push(VertexBound {
            vertex: v,
            label: task.vertex(v).label.clone(),
            bound,
            witness,
            from_fallback,
        });
    }

    let quality = if degradations.is_empty() && horizon >= window {
        BoundQuality::Exact
    } else {
        let coarse = bw.degraded.is_some()
            || own_truncated
            || others.iter().any(|r| r.truncated().is_some());
        let fallback_kind = if coarse {
            Fallback::CoarseRbf
        } else if exact_cap.is_zero() {
            Fallback::RtcBaseline
        } else {
            Fallback::TruncatedHorizon
        };
        BoundQuality::Degraded {
            fallback: fallback_kind,
        }
    };

    Ok(DelayAnalysis {
        task_name: task.name().to_owned(),
        per_vertex,
        stream_bound,
        busy_window: window,
        utilization: bw.utilization,
        paths_retained: retained,
        paths_generated: generated,
        paths_pruned: pruned,
        runtime: start.elapsed(),
        quality,
        degradations,
    })
}

/// Upper-bounds `sup over δ in [lo, hi] of β⁻¹(demand(δ)) − δ` where the
/// demand is replaced by the affine line `own + intf` (given as
/// `(base, rate)` pairs dominating the true demand everywhere) and `β` by
/// its global lower line `β(t) ≥ b_β + r_β·t`: the resulting candidate
/// expression is affine in `δ`, so its maximum sits at an interval end.
fn affine_region_bound(
    own: (Q, Q),
    intf: (Q, Q),
    beta: &Curve,
    lo: Q,
    hi: Q,
) -> Result<Q, AnalysisError> {
    if lo > hi {
        return Ok(Q::ZERO);
    }
    let (b_beta, r_beta) = beta.lower_line();
    if !r_beta.is_positive() {
        return Err(AnalysisError::ServiceSaturated);
    }
    let cand =
        |d: Q| ((own.0 + own.1 * d + intf.0 + intf.1 * d - b_beta) / r_beta - d).clamp_nonneg();
    Ok(cand(lo).max(cand(hi)))
}

/// The RTC baseline of the whole multiplex, computed from an
/// already-materialised busy window: `max over union breakpoint spans s of
/// β⁻¹(Σ rbf(s)) − s` (run in `scales`, which read the same rbfs),
/// extended by the summed coarse affine tails when any rbf is truncated
/// (the report is then marked degraded). `breakpoints` counts the union
/// spans inspected.
///
/// This is both the public RTC bound ([`rtc_delay_with`] /
/// [`fifo_rtc_with`]) and the fraction-0 *ceiling* the structural analysis
/// clamps degraded results to — sharing the materialisation pins the
/// documented sandwich `exact structural ≤ degraded ≤ RTC baseline`.
fn rtc_report(
    bw: &BusyWindow,
    beta: &Curve,
    scales: &Scales<'_>,
) -> Result<RtcReport, AnalysisError> {
    let (mut bound, breakpoints) = scales.rtc()?;
    let degraded = bw
        .degraded
        .or_else(|| bw.rbfs.iter().find_map(|r| r.truncated()));
    if degraded.is_some() {
        // Beyond the earliest truncation the total demand keeps growing
        // continuously along the coarse tails; cover the whole region with
        // the summed affine lines (each dominates its stream everywhere).
        let lo = bw
            .rbfs
            .iter()
            .map(|r| r.exact_span())
            .fold(bw.bound, Q::min);
        let line = bw.rbfs.iter().fold((Q::ZERO, Q::ZERO), |(b, r), rbf| {
            let (cb, cr) = rbf.coarse_line();
            (b + cb, r + cr)
        });
        bound = bound.max(affine_region_bound(
            line,
            (Q::ZERO, Q::ZERO),
            beta,
            lo,
            bw.bound,
        )?);
    }
    Ok(RtcReport {
        bound: bound.clamp_nonneg(),
        busy_window: bw.bound,
        breakpoints,
        quality: match degraded {
            None => BoundQuality::Exact,
            Some(_) => BoundQuality::Degraded {
                fallback: Fallback::CoarseRbf,
            },
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use srtw_minplus::q;
    use srtw_resource::{PeriodicResource, Server, TdmaServer};
    use srtw_workload::DrtTaskBuilder;

    fn heavy_light() -> DrtTask {
        let mut b = DrtTaskBuilder::new("hl");
        let h = b.vertex("heavy", Q::int(4));
        let l = b.vertex("light", Q::ONE);
        b.edge(h, l, Q::int(6));
        b.edge(l, h, Q::int(6));
        b.build().unwrap()
    }

    fn branching() -> DrtTask {
        let mut b = DrtTaskBuilder::new("branching");
        let a = b.vertex("a", Q::int(3));
        let x = b.vertex("x", Q::ONE);
        let y = b.vertex("y", Q::int(2));
        b.edge(a, x, Q::int(4));
        b.edge(a, y, Q::int(6));
        b.edge(x, a, Q::int(4));
        b.edge(y, a, Q::int(3));
        b.build().unwrap()
    }

    #[test]
    fn per_vertex_attribution_beats_stream_bound() {
        let task = heavy_light();
        let beta = Curve::rate_latency(Q::ONE, Q::ONE);
        let a = structural_delay(&task, &beta).unwrap();
        let rtc = rtc_delay(&task, &beta).unwrap();
        // Theorem: stream-wide structural max equals the RTC bound.
        assert_eq!(a.stream_bound, rtc.bound);
        // The light vertex is strictly better off than the stream bound.
        let light = task.vertex_ids().nth(1).unwrap();
        assert!(a.bound_of(light) < rtc.bound);
    }

    #[test]
    fn stream_max_equals_rtc_on_many_graphs() {
        let betas = [
            Curve::affine(Q::ZERO, Q::ONE),
            Curve::rate_latency(Q::ONE, Q::int(2)),
            Curve::rate_latency(q(3, 4), Q::int(1)),
            TdmaServer::new(Q::int(3), Q::int(4), Q::ONE)
                .unwrap()
                .beta_lower(),
        ];
        for task in [heavy_light(), branching()] {
            for beta in &betas {
                let a = structural_delay(&task, beta).unwrap();
                let rtc = rtc_delay(&task, beta).unwrap();
                assert_eq!(
                    a.stream_bound, rtc.bound,
                    "stream/RTC mismatch for {} on {beta:?}",
                    task.name()
                );
                for vb in &a.per_vertex {
                    assert!(vb.bound <= rtc.bound);
                }
            }
        }
    }

    #[test]
    fn witness_paths_are_legal_and_consistent() {
        let task = branching();
        let beta = Curve::rate_latency(q(3, 4), Q::int(2));
        let a = structural_delay(&task, &beta).unwrap();
        for vb in &a.per_vertex {
            let w = vb.witness.as_ref().expect("full analysis has witnesses");
            assert_eq!(*w.vertices.last().unwrap(), vb.vertex);
            // Work is the sum of WCETs along the path.
            let work: Q = w
                .vertices
                .iter()
                .map(|&v| task.wcet(v))
                .fold(Q::ZERO, |x, y| x + y);
            assert_eq!(work, w.work);
            // Consecutive vertices must be connected.
            for pair in w.vertices.windows(2) {
                assert!(task
                    .out_edges(pair[0])
                    .iter()
                    .any(|e| e.to == pair[1]));
            }
        }
    }

    #[test]
    fn fraction_zero_equals_rtc_everywhere() {
        let task = branching();
        let beta = Curve::rate_latency(q(3, 4), Q::int(2));
        let rtc = rtc_delay(&task, &beta).unwrap();
        let cfg = AnalysisConfig {
            horizon_fraction: Some(Q::ZERO),
            ..Default::default()
        };
        let a = structural_delay_with(&task, &beta, &cfg).unwrap();
        assert_eq!(a.stream_bound, rtc.bound, "fraction-0 must equal RTC");
        for vb in &a.per_vertex {
            assert!(vb.bound <= rtc.bound);
        }
    }

    #[test]
    fn fraction_one_equals_full() {
        let task = branching();
        let beta = Curve::rate_latency(q(3, 4), Q::int(2));
        let full = structural_delay(&task, &beta).unwrap();
        let cfg = AnalysisConfig {
            horizon_fraction: Some(Q::ONE),
            ..Default::default()
        };
        let a = structural_delay_with(&task, &beta, &cfg).unwrap();
        for (x, y) in a.per_vertex.iter().zip(full.per_vertex.iter()) {
            assert_eq!(x.bound, y.bound);
        }
    }

    #[test]
    fn fraction_interpolates_monotonically() {
        let task = branching();
        let beta = Curve::rate_latency(q(2, 3), Q::int(2));
        let full = structural_delay(&task, &beta).unwrap();
        let mut prev: Option<Vec<Q>> = None;
        for k in 0..=8 {
            let cfg = AnalysisConfig {
                horizon_fraction: Some(q(k, 8)),
                ..Default::default()
            };
            let a = structural_delay_with(&task, &beta, &cfg).unwrap();
            let bounds: Vec<Q> = a.per_vertex.iter().map(|b| b.bound).collect();
            // Sound: never below the full structural bound.
            for (b, f) in bounds.iter().zip(full.per_vertex.iter()) {
                assert!(
                    *b >= f.bound,
                    "fraction {k}/8 bound {b} below full {}",
                    f.bound
                );
            }
            if let Some(p) = prev {
                for (b, pb) in bounds.iter().zip(p.iter()) {
                    assert!(b <= pb, "fraction {k}/8 not monotone: {b} > {pb}");
                }
            }
            prev = Some(bounds);
        }
    }

    #[test]
    fn no_prune_gives_identical_bounds() {
        let task = branching();
        let beta = Curve::rate_latency(q(3, 4), Q::int(1));
        let pruned = structural_delay(&task, &beta).unwrap();
        let raw = structural_delay_with(
            &task,
            &beta,
            &AnalysisConfig {
                no_prune: true,
                ..Default::default()
            },
        )
        .unwrap();
        for (a, b) in pruned.per_vertex.iter().zip(raw.per_vertex.iter()) {
            assert_eq!(a.bound, b.bound);
        }
        assert!(raw.paths_retained >= pruned.paths_retained);
    }

    #[test]
    fn fifo_structural_vs_fifo_rtc() {
        let t1 = heavy_light();
        let t2 = {
            let mut b = DrtTaskBuilder::new("periodic");
            let v = b.vertex("p", Q::ONE);
            b.edge(v, v, Q::int(8));
            b.build().unwrap()
        };
        let beta = Curve::affine(Q::ZERO, Q::ONE);
        let tasks = vec![t1, t2];
        let rtc = fifo_rtc(&tasks, &beta).unwrap();
        let per = fifo_structural(&tasks, &beta, &AnalysisConfig::default()).unwrap();
        assert_eq!(per.len(), 2);
        let mut overall = Q::ZERO;
        for a in &per {
            for vb in &a.per_vertex {
                assert!(vb.bound <= rtc.bound, "structural FIFO must refine RTC");
                overall = overall.max(vb.bound);
            }
        }
        // The light periodic stream's job is strictly better off than the
        // stream-agnostic bound.
        let light_bound = per[1].per_vertex[0].bound;
        assert!(light_bound <= rtc.bound);
        assert!(overall.is_positive());
    }

    #[test]
    fn backlog_matches_brute_force_curves() {
        let task = heavy_light();
        let beta = Curve::rate_latency(Q::ONE, Q::int(2));
        let b = backlog_bound(std::slice::from_ref(&task), &beta).unwrap();
        // Cross-check against the curve-level vertical deviation.
        let bw = busy_window(std::slice::from_ref(&task), &beta).unwrap();
        let vd = bw.rbfs[0].curve().vdev(&beta).unwrap_finite();
        assert_eq!(b, vd);
    }

    #[test]
    fn unstable_task_errors() {
        let mut b = DrtTaskBuilder::new("hot");
        let v = b.vertex("v", Q::int(5));
        b.edge(v, v, Q::int(4));
        let task = b.build().unwrap();
        let beta = Curve::affine(Q::ZERO, Q::ONE);
        assert!(matches!(
            structural_delay(&task, &beta),
            Err(AnalysisError::Unstable { .. })
        ));
    }

    #[test]
    fn unlimited_budget_stays_exact() {
        let task = branching();
        let beta = Curve::rate_latency(q(3, 4), Q::int(2));
        let a = structural_delay(&task, &beta).unwrap();
        assert_eq!(a.quality, crate::report::BoundQuality::Exact);
        assert!(a.degradations.is_empty());
        let r = rtc_delay(&task, &beta).unwrap();
        assert!(r.quality.is_exact());
    }

    #[test]
    fn path_budget_degrades_soundly() {
        use crate::report::BoundQuality;
        use srtw_minplus::Budget;
        let task = branching();
        // Service rate 2 exceeds even the coarsest packing rate
        // (e_max/p_min = 1), so every budget level has a sound degraded
        // bound and never needs BudgetExhausted.
        let beta = Curve::rate_latency(Q::int(2), Q::ONE);
        let exact = structural_delay(&task, &beta).unwrap();
        for cap in [0u64, 1, 2, 4, 8, 16] {
            let cfg = AnalysisConfig {
                budget: Budget::default().with_max_paths(cap),
                ..Default::default()
            };
            let a = structural_delay_with(&task, &beta, &cfg).unwrap();
            // Sound: degraded bounds dominate the exact structural bounds.
            assert!(
                a.stream_bound >= exact.stream_bound,
                "cap {cap}: degraded stream bound {} below exact {}",
                a.stream_bound,
                exact.stream_bound
            );
            for (d, e) in a.per_vertex.iter().zip(exact.per_vertex.iter()) {
                assert!(d.bound >= e.bound, "cap {cap}: vertex bound shrank");
            }
            if let BoundQuality::Degraded { .. } = a.quality {
                assert!(!a.degradations.is_empty());
            } else {
                // A generous cap may finish the analysis exactly.
                assert!(a.degradations.is_empty());
            }
        }
    }

    #[test]
    fn tight_budget_on_slow_server_degrades_or_exhausts() {
        use srtw_minplus::Budget;
        // On a sub-unit-rate server the coarse packing rate (1) saturates
        // the service, so a starved budget may legitimately report
        // BudgetExhausted — but must never panic or return an unsound
        // (too small) bound.
        let task = branching();
        let beta = Curve::rate_latency(q(3, 4), Q::int(2));
        let exact = structural_delay(&task, &beta).unwrap();
        for cap in [0u64, 1, 2, 4, 8, 16, 64] {
            let cfg = AnalysisConfig {
                budget: Budget::default().with_max_paths(cap),
                ..Default::default()
            };
            match structural_delay_with(&task, &beta, &cfg) {
                Ok(a) => assert!(a.stream_bound >= exact.stream_bound),
                Err(AnalysisError::BudgetExhausted { .. }) => {}
                Err(e) => panic!("cap {cap}: unexpected error {e}"),
            }
        }
    }

    #[test]
    fn zero_wall_budget_falls_back_to_coarse_lines() {
        use crate::report::{BoundQuality, Fallback};
        use srtw_minplus::Budget;
        let task = branching();
        // Fast server: the coarse line of the horizon-1 prefix (rate 3)
        // stays below the service rate 4, so the degraded path succeeds.
        let beta = Curve::affine(Q::ZERO, Q::int(4));
        let exact = structural_delay(&task, &beta).unwrap();
        let cfg = AnalysisConfig {
            budget: Budget::wall_ms(0),
            ..Default::default()
        };
        let a = structural_delay_with(&task, &beta, &cfg).unwrap();
        assert_eq!(
            a.quality,
            BoundQuality::Degraded {
                fallback: Fallback::CoarseRbf
            }
        );
        assert!(!a.degradations.is_empty());
        assert!(a.stream_bound >= exact.stream_bound);
    }

    #[test]
    fn rtc_with_budget_degrades_soundly() {
        use srtw_minplus::Budget;
        let task = branching();
        let beta = Curve::rate_latency(Q::int(2), Q::ONE);
        let exact = rtc_delay(&task, &beta).unwrap();
        for cap in [0u64, 1, 3, 6] {
            let r =
                rtc_delay_with(&task, &beta, &Budget::default().with_max_paths(cap)).unwrap();
            assert!(
                r.bound >= exact.bound,
                "cap {cap}: degraded RTC bound {} below exact {}",
                r.bound,
                exact.bound
            );
        }
        let r = rtc_delay_with(&task, &beta, &Budget::default().with_max_paths(0)).unwrap();
        assert!(!r.quality.is_exact());
    }

    #[test]
    fn fifo_budget_degrades_soundly() {
        use srtw_minplus::Budget;
        let t1 = heavy_light();
        let t2 = branching();
        // Rate 3 dominates the summed coarse packing rates (2/3 + 1).
        let beta = Curve::affine(Q::ZERO, Q::int(3));
        let tasks = vec![t1, t2];
        let exact = fifo_structural(&tasks, &beta, &AnalysisConfig::default()).unwrap();
        let exact_rtc = fifo_rtc(&tasks, &beta).unwrap();
        let cfg = AnalysisConfig {
            budget: Budget::default().with_max_paths(3),
            ..Default::default()
        };
        let per = fifo_structural(&tasks, &beta, &cfg).unwrap();
        for (d, e) in per.iter().zip(exact.iter()) {
            assert!(d.stream_bound >= e.stream_bound);
        }
        let rtc = fifo_rtc_with(&tasks, &beta, &Budget::default().with_max_paths(3)).unwrap();
        assert!(rtc.bound >= exact_rtc.bound);
    }

    #[test]
    fn pre_cancelled_run_degrades_like_a_wall_trip() {
        use crate::report::BoundQuality;
        use srtw_minplus::{Budget, CancelToken};
        let task = branching();
        // Fast server: the coarse degraded path always succeeds.
        let beta = Curve::affine(Q::ZERO, Q::int(4));
        let exact = structural_delay(&task, &beta).unwrap();
        let token = CancelToken::new();
        token.cancel();
        let cfg = AnalysisConfig {
            budget: Budget::default().with_cancel(token),
            ..Default::default()
        };
        let a = structural_delay_with(&task, &beta, &cfg).unwrap();
        assert!(matches!(a.quality, BoundQuality::Degraded { .. }));
        assert!(a
            .degradations
            .iter()
            .any(|d| d.tripped == srtw_minplus::BudgetKind::Cancelled));
        // Cancellation can only truncate earlier: same sandwich as PR 2.
        assert!(a.stream_bound >= exact.stream_bound);
        let rtc = rtc_delay(&task, &beta).unwrap();
        assert!(a.stream_bound <= rtc.bound);
    }

    #[test]
    fn uncancelled_token_changes_nothing() {
        use srtw_minplus::{Budget, CancelToken};
        let task = branching();
        let beta = Curve::rate_latency(q(3, 4), Q::int(2));
        let exact = structural_delay(&task, &beta).unwrap();
        let cfg = AnalysisConfig {
            budget: Budget::default().with_cancel(CancelToken::new()),
            ..Default::default()
        };
        let a = structural_delay_with(&task, &beta, &cfg).unwrap();
        assert!(a.quality.is_exact());
        assert_eq!(a.stream_bound, exact.stream_bound);
        for (x, y) in a.per_vertex.iter().zip(exact.per_vertex.iter()) {
            assert_eq!(x.bound, y.bound);
        }
    }

    #[test]
    fn injected_overflow_surfaces_as_typed_arithmetic_error() {
        use srtw_minplus::{ArithmeticError, Budget, FaultKind, FaultPlan};
        let task = branching();
        let beta = Curve::rate_latency(q(3, 4), Q::int(2));
        // The run has 24 metered operations: 18 path pops (one search to
        // the busy window) and one wall-clock check per fixpoint iteration.
        for at_op in [1u64, 5, 24] {
            let cfg = AnalysisConfig {
                budget: Budget::default()
                    .with_fault(FaultPlan::new(at_op, FaultKind::Overflow)),
                ..Default::default()
            };
            match structural_delay_with(&task, &beta, &cfg) {
                Err(AnalysisError::Arithmetic(ArithmeticError::Overflow)) => {}
                other => panic!("op {at_op}: expected injected overflow, got {other:?}"),
            }
            let budget = Budget::default().with_fault(FaultPlan::new(at_op, FaultKind::Overflow));
            match rtc_delay_with(&task, &beta, &budget) {
                Err(AnalysisError::Arithmetic(ArithmeticError::Overflow)) => {}
                other => panic!("op {at_op}: RTC expected injected overflow, got {other:?}"),
            }
        }
        // A plan firing far past the run's operation count never fires.
        let cfg = AnalysisConfig {
            budget: Budget::default()
                .with_fault(FaultPlan::new(u64::MAX, FaultKind::Overflow)),
            ..Default::default()
        };
        assert!(structural_delay_with(&task, &beta, &cfg).is_ok());
    }

    #[test]
    fn injected_trip_degrades_soundly_at_any_op() {
        use srtw_minplus::{Budget, FaultKind, FaultPlan};
        let task = branching();
        // Fast server: a sound coarse fallback always exists.
        let beta = Curve::affine(Q::ZERO, Q::int(4));
        let exact = structural_delay(&task, &beta).unwrap();
        let rtc = rtc_delay(&task, &beta).unwrap();
        for at_op in 1..40u64 {
            let cfg = AnalysisConfig {
                budget: Budget::default()
                    .with_fault(FaultPlan::new(at_op, FaultKind::TripBudget)),
                ..Default::default()
            };
            let a = structural_delay_with(&task, &beta, &cfg)
                .unwrap_or_else(|e| panic!("op {at_op}: {e}"));
            assert!(
                a.stream_bound >= exact.stream_bound && a.stream_bound <= rtc.bound,
                "op {at_op}: degraded bound {} outside sandwich [{}, {}]",
                a.stream_bound,
                exact.stream_bound,
                rtc.bound
            );
        }
    }

    #[test]
    fn tdma_case_delays() {
        // Stream on a TDMA slot: delays include blackout waits.
        let task = heavy_light();
        let server = TdmaServer::new(Q::int(4), Q::int(6), Q::ONE).unwrap();
        let a = structural_delay(&task, &server.beta_lower()).unwrap();
        let rtc = rtc_delay(&task, &server.beta_lower()).unwrap();
        assert_eq!(a.stream_bound, rtc.bound);
        assert!(a.stream_bound >= Q::int(4)); // at least the heavy WCET
        assert!(a.schedulable(&task)); // no deadlines set: vacuously true
    }

    /// `a(1) →1 b(4) →20 a`: the worst `b` job ends the path `a → b` of
    /// span 1, which a horizon below 1 cuts off.
    fn short_horizon_task() -> DrtTask {
        let mut b = DrtTaskBuilder::new("ab");
        let a = b.vertex("a", Q::ONE);
        let bb = b.vertex("b", Q::int(4));
        b.edge(a, bb, Q::ONE);
        b.edge(bb, a, Q::int(20));
        b.build().unwrap()
    }

    /// An exploration horizon below the busy window must come out
    /// degraded, cover the whole busy window, and bound every job type at
    /// least as high as the full exact analysis does.
    fn assert_short_horizon_degrades(task: &DrtTask, beta: &Curve) {
        let cfg = AnalysisConfig::default();
        let full = structural_delay(task, beta).unwrap();
        assert!(full.quality.is_exact());
        let window = full.busy_window;
        assert_eq!(
            structural_delay_at(task, beta, &cfg, Some(window))
                .unwrap()
                .per_vertex,
            full.per_vertex
        );
        for h in [q(1, 2), window / Q::int(2), window - q(1, 7)] {
            let short = structural_delay_at(task, beta, &cfg, Some(h)).unwrap();
            assert_eq!(
                short.quality,
                BoundQuality::Degraded {
                    fallback: Fallback::TruncatedHorizon
                },
                "horizon {h}"
            );
            assert_eq!(short.busy_window, window);
            for (s, f) in short.per_vertex.iter().zip(&full.per_vertex) {
                assert!(
                    s.bound >= f.bound,
                    "{}: {} < {} at horizon {h}",
                    s.label,
                    s.bound,
                    f.bound
                );
            }
        }
    }

    #[test]
    fn horizon_below_the_busy_window_is_degraded_not_exact() {
        let task = short_horizon_task();
        let beta = Curve::affine(Q::ZERO, q(1, 2));
        let full = structural_delay(&task, &beta).unwrap();
        assert_eq!(full.bound_of(task.vertex_ids().nth(1).unwrap()), Q::int(9));
        assert_eq!(full.busy_window, Q::int(10));
        assert_short_horizon_degrades(&task, &beta);
    }

    #[test]
    fn horizon_below_the_busy_window_on_tdma_and_periodic_resource() {
        let task = short_horizon_task();
        let tdma = TdmaServer::new(Q::int(3), Q::int(4), Q::ONE).unwrap();
        assert_short_horizon_degrades(&task, &tdma.beta_lower());
        let pr = PeriodicResource::new(Q::int(5), Q::int(4)).unwrap();
        assert_short_horizon_degrades(&task, &pr.beta_lower());
        assert_short_horizon_degrades(&branching(), &pr.beta_lower());
    }
}
