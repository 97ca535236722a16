//! The per-node delay loop and the RTC breakpoint loop, written once over
//! their number type and run at one common scale per request.
//!
//! Both loops evaluate `β⁻¹(demand) − span` at many spans: the
//! structural loop at every retained path node of a stream (demand: the
//! node's work plus the competing streams' rbfs at its span), the RTC
//! loop at every rbf breakpoint of the multiplex (demand: the summed
//! rbfs). Each stream's explorer already searches in integers scaled by
//! its own `D_i` (the lcm of its WCET and separation denominators). A
//! [`Request<i128>`] puts everything the loops read at one scale `L`: the
//! lcm of every `D_i` and of the denominators of β's piece starts,
//! values and reaches, period and increment. Then
//!
//! * a node of stream `i` contributes `S = span·L/D_i` and
//!   `A = work·L/D_i + Σ_{j≠i} I_j(S)`, where `I_j` is a binary search of
//!   stream `j`'s rbf staircase (the explorer's integer steps times
//!   `L/D_j`);
//! * `β⁻¹(A)` is searched in the scaled reach table and returned as the
//!   unreduced fraction `num/den` — `start` at or above a piece's value,
//!   `(start·sn + (A − value)·sd)/sn` on a piece of slope `sn/sd`, and on
//!   a periodic tail `k·period·den` more after searching the pattern at
//!   `A − k·inc`, `k = ⌈(A − reach_last)/inc⌉`;
//! * a candidate is `max(0, num − S·den)/den`, compared with the others by
//!   cross-multiplication under a strict `>` (the first maximal node stays
//!   the witness), and only each vertex's winner becomes a [`Q`] — the
//!   candidate over `den·L`.
//!
//! All of that is integer arithmetic without a gcd. Every operation is
//! checked ([`Scalar`]); when `L` or a product leaves `i128`, when an
//! explorer runs in exact rationals, or when an rbf is truncated (a budget
//! tripped), the same loops run as [`Request<Q>`] at scale 1 on the
//! materialized rbfs — the same values, so the same answer bytes. A `Q`
//! value that leaves `i128` is an [`ArithmeticError::Overflow`].

use crate::busy::BusyWindow;
use crate::error::AnalysisError;
use srtw_minplus::{ArithmeticError, Curve, Scalar, Tail, Q};
use srtw_workload::{Explorer, Paths, Rbf, VertexId};
use std::cell::OnceCell;

/// A checked operation left the loop's number type: the `i128` loops
/// rerun in `Q`, and the `Q` loops report it.
const OVF: AnalysisError = AnalysisError::Arithmetic(ArithmeticError::Overflow);

/// Whether the fraction `a` exceeds `b` (denominators positive).
fn exceeds<N: Scalar>((an, ad): (N, N), (bn, bd): (N, N)) -> Result<bool, AnalysisError> {
    Ok(an.mul(bd).ok_or(OVF)? > bn.mul(ad).ok_or(OVF)?)
}

/// One piece of β at a request's scale: start and value scaled, the
/// slope `sn/sd` as it is.
#[derive(Debug, Clone, Copy)]
struct Piece<N> {
    start: N,
    value: N,
    sn: N,
    sd: N,
}

impl<N: Scalar> Piece<N> {
    /// The first time this piece reaches `w`, as a fraction.
    fn first_reaching(&self, w: N) -> Result<Option<(N, N)>, AnalysisError> {
        if self.value >= w {
            Ok(Some((self.start, N::ONE)))
        } else if self.sn > N::ZERO {
            Ok(Some((self.rising_to(w).ok_or(OVF)?, self.sn)))
        } else {
            Ok(None)
        }
    }

    /// `start·sn + (w − value)·sd`: the numerator, over `sn`, of where the
    /// piece's line reaches `w`.
    fn rising_to(&self, w: N) -> Option<N> {
        self.start
            .mul(self.sn)?
            .add(w.sub(self.value)?.mul(self.sd)?)
    }
}

/// β at a request's scale, with the reach table of
/// [`Curve::reach`] scaled alike.
#[derive(Debug, Clone)]
struct Service<N> {
    pieces: Vec<Piece<N>>,
    reach: Vec<N>,
    /// A periodic tail's pattern start, scaled period and increment.
    periodic: Option<(usize, N, N)>,
}

impl<N: Scalar> Service<N> {
    fn new(beta: &Curve, scale: i128) -> Option<Service<N>> {
        let s = |q: Q| N::scaled(q, scale);
        let pieces = beta
            .pieces()
            .iter()
            .map(|p| {
                Some(Piece {
                    start: s(p.start)?,
                    value: s(p.value)?,
                    sn: N::int(p.slope.numer())?,
                    sd: N::int(p.slope.denom())?,
                })
            })
            .collect::<Option<_>>()?;
        let reach = beta.reach().iter().map(|&r| s(r)).collect::<Option<_>>()?;
        let periodic = match beta.tail() {
            Tail::Affine => None,
            Tail::Periodic {
                pattern_start,
                period,
                increment,
            } => Some((pattern_start, s(period)?, s(increment)?)),
        };
        Some(Service {
            pieces,
            reach,
            periodic,
        })
    }

    /// `β⁻¹(w)` as an unreduced fraction `(num, den)`, `den > 0`; `None`
    /// when β never reaches `w`. Mirrors [`Curve::pseudo_inverse`].
    fn inverse(&self, w: N) -> Result<Option<(N, N)>, AnalysisError> {
        let i = self.reach.partition_point(|&r| r < w);
        match self.periodic {
            Some((pattern_start, period, increment)) if i == self.pieces.len() => {
                if increment == N::ZERO {
                    return Ok(None);
                }
                let k = w
                    .sub(self.reach[i - 1])
                    .and_then(|a| a.div_ceil(increment))
                    .ok_or(OVF)?;
                let target = increment.mul(k).and_then(|a| w.sub(a)).ok_or(OVF)?;
                let j =
                    pattern_start + self.reach[pattern_start..].partition_point(|&r| r < target);
                match self.pieces[j].first_reaching(target)? {
                    Some((num, den)) => {
                        let lifted = k.mul(period).and_then(|a| a.mul(den)?.add(num));
                        Ok(Some((lifted.ok_or(OVF)?, den)))
                    }
                    None => Ok(None),
                }
            }
            _ => self.pieces[i].first_reaching(w),
        }
    }
}

/// One stream's rbf at a request's scale.
#[derive(Debug, Clone)]
struct Staircase<N> {
    /// Breakpoints `(span, work)`, strictly increasing in both.
    steps: Vec<(N, N)>,
    /// A truncated rbf's coarse line `(exact span, base, rate)`, which
    /// bounds it from the exact span on. Only a [`Request<Q>`] has one:
    /// the scaled request refuses truncated rbfs.
    coarse: Option<(N, N, N)>,
}

impl<N: Scalar> Staircase<N> {
    /// The rbf at span `s`, as [`Rbf::bound_at`] evaluates it.
    fn at(&self, s: N) -> Option<N> {
        if let Some((exact, base, rate)) = self.coarse {
            if s >= exact {
                return base.add(rate.mul(s)?);
            }
        }
        Some(match self.steps.partition_point(|p| p.0 <= s) {
            0 => N::ZERO,
            k => self.steps[k - 1].1,
        })
    }
}

/// One request's service and rbfs at one scale.
#[derive(Debug, Clone)]
pub(crate) struct Request<N> {
    /// The common scale `L` (1 for [`Q`]).
    scale: i128,
    service: Service<N>,
    /// Per stream, in task order.
    rbfs: Vec<Staircase<N>>,
}

impl<N: Scalar> Request<N> {
    /// The summed rbfs of every stream but `skip` at span `s`.
    fn demand(&self, skip: Option<usize>, s: N) -> Result<N, AnalysisError> {
        let mut total = N::ZERO;
        for (j, r) in self.rbfs.iter().enumerate() {
            if Some(j) != skip {
                total = r.at(s).and_then(|d| total.add(d)).ok_or(OVF)?;
            }
        }
        Ok(total)
    }

    /// The per-node loop: for each of stream `stream`'s `vertices`, the
    /// largest candidate `β⁻¹(work + Σ_{j≠stream} I_j(span)) − span`
    /// (clamped at 0) over `nodes` — `(vertex, span, work)` at the
    /// stream's own scale, multiplied by `factor` to the request's — and
    /// the index of the first node attaining it.
    fn winners(
        &self,
        stream: usize,
        vertices: usize,
        nodes: impl Iterator<Item = (VertexId, N, N)>,
        factor: N,
    ) -> Result<Vec<Option<(Q, usize)>>, AnalysisError> {
        let mut best: Vec<Option<((N, N), usize)>> = vec![None; vertices];
        for (i, (vertex, span, work)) in nodes.enumerate() {
            let (span, work) = if factor == N::ONE {
                (span, work)
            } else {
                (span.mul(factor).ok_or(OVF)?, work.mul(factor).ok_or(OVF)?)
            };
            let ahead = work.add(self.demand(Some(stream), span)?).ok_or(OVF)?;
            let (num, den) = self
                .service
                .inverse(ahead)?
                .ok_or(AnalysisError::ServiceSaturated)?;
            let delay = span.mul(den).and_then(|a| num.sub(a)).ok_or(OVF)?;
            let candidate = (delay.max(N::ZERO), den);
            let slot = &mut best[vertex.index()];
            let better = match *slot {
                Some((b, _)) => exceeds(candidate, b)?,
                None => true,
            };
            if better {
                *slot = Some((candidate, i));
            }
        }
        let scale = self.scale;
        best.into_iter()
            .map(|b| match b {
                Some(((c, den), i)) => Ok(Some((c.ratio(den, scale).ok_or(OVF)?, i))),
                None => Ok(None),
            })
            .collect()
    }

    /// The RTC breakpoint loop: `max(0, max over s of β⁻¹(Σ_j I_j(s)) −
    /// s)` over the union `s` of every rbf's breakpoint spans and 0, and
    /// how many spans that union has.
    fn rtc(&self) -> Result<(Q, usize), AnalysisError> {
        let mut spans: Vec<N> = self
            .rbfs
            .iter()
            .flat_map(|r| r.steps.iter().map(|p| p.0))
            .collect();
        spans.push(N::ZERO);
        spans.sort();
        spans.dedup();
        let mut best = (N::ZERO, N::ONE);
        for &s in &spans {
            let (num, den) = self
                .service
                .inverse(self.demand(None, s)?)?
                .ok_or(AnalysisError::ServiceSaturated)?;
            let candidate = (s.mul(den).and_then(|a| num.sub(a)).ok_or(OVF)?, den);
            if exceeds(candidate, best)? {
                best = candidate;
            }
        }
        Ok((best.0.ratio(best.1, self.scale).ok_or(OVF)?, spans.len()))
    }
}

impl Request<i128> {
    /// The request at one scale `L` over the explorers' staircases to
    /// `horizon`; `None` when an explorer runs in exact rationals or
    /// stopped within `horizon`, or when `L` or a scaled value leaves
    /// `i128`.
    fn scaled(explorers: &[Explorer], horizon: Q, beta: &Curve) -> Option<Request<i128>> {
        let stairs = explorers
            .iter()
            .map(|x| x.scaled_staircase(horizon))
            .collect::<Option<Vec<_>>>()?;
        let tail = match beta.tail() {
            Tail::Affine => vec![],
            Tail::Periodic {
                period, increment, ..
            } => vec![period, increment],
        };
        let service_denominators = beta
            .pieces()
            .iter()
            .flat_map(|p| [p.start, p.value])
            .chain(beta.reach().iter().copied())
            .chain(tail)
            .map(Q::denom);
        let mut scale = Q::ONE;
        for d in stairs.iter().map(|s| s.0).chain(service_denominators) {
            scale = Q::try_lcm(scale, Q::int(d)).ok()?;
        }
        let scale = scale.numer();
        let rbfs = stairs
            .iter()
            .map(|&(d, steps)| {
                let m = scale / d;
                let steps = steps
                    .iter()
                    .map(|&(s, w)| Some((s.checked_mul(m)?, w.checked_mul(m)?)))
                    .collect::<Option<_>>()?;
                Some(Staircase {
                    steps,
                    coarse: None,
                })
            })
            .collect::<Option<_>>()?;
        Some(Request {
            scale,
            service: Service::new(beta, scale)?,
            rbfs,
        })
    }
}

impl Request<Q> {
    /// The request over the materialized rbfs, at scale 1.
    fn exact(rbfs: &[Rbf], beta: &Curve) -> Request<Q> {
        let rbfs = rbfs
            .iter()
            .map(|r| Staircase {
                steps: r.points().to_vec(),
                coarse: r.truncated().map(|_| {
                    let (base, rate) = r.coarse_line();
                    (r.exact_span(), base, rate)
                }),
            })
            .collect();
        Request {
            scale: 1,
            service: Service::new(beta, 1).expect("rationals need no scale"),
            rbfs,
        }
    }
}

/// One request's loops: at the scale `L` when everything fits, and in
/// `Q` — built on first need — otherwise.
pub(crate) struct Scales<'a> {
    scaled: Option<Request<i128>>,
    rbfs: &'a [Rbf],
    beta: &'a Curve,
    exact: OnceCell<Request<Q>>,
}

impl<'a> Scales<'a> {
    /// The loops of the request whose fixpoint is `bw` and whose streams'
    /// searches are `explorers` (grown to `bw.bound`). A degraded
    /// fixpoint runs in `Q`: its explorers may not reach the bound.
    pub(crate) fn new(bw: &'a BusyWindow, explorers: &[Explorer], beta: &'a Curve) -> Scales<'a> {
        let scaled = match bw.degraded {
            None => Request::scaled(explorers, bw.bound, beta),
            Some(_) => None,
        };
        Scales {
            scaled,
            rbfs: &bw.rbfs,
            beta,
            exact: OnceCell::new(),
        }
    }

    fn exact(&self) -> &Request<Q> {
        self.exact
            .get_or_init(|| Request::exact(self.rbfs, self.beta))
    }

    /// The RTC breakpoint maximum (at least 0) and the number of
    /// breakpoint spans inspected.
    pub(crate) fn rtc(&self) -> Result<(Q, usize), AnalysisError> {
        if let Some(r) = &self.scaled {
            match r.rtc() {
                Err(OVF) => {}
                done => return done,
            }
        }
        self.exact().rtc()
    }

    /// Per vertex of stream `stream` (of `vertices`), the largest delay
    /// candidate over `paths` as a bound and the index of its witness.
    pub(crate) fn winners(
        &self,
        stream: usize,
        vertices: usize,
        paths: &Paths<'_>,
    ) -> Result<Vec<Option<(Q, usize)>>, AnalysisError> {
        if let (Some(r), Some((d, nodes))) = (&self.scaled, paths.scaled()) {
            if r.scale % d == 0 {
                match r.winners(stream, vertices, nodes, r.scale / d) {
                    Err(OVF) => {}
                    done => return done,
                }
            }
        }
        let nodes = (0..paths.len()).map(|i| {
            let n = paths.node(i);
            (n.vertex, n.span, n.work)
        });
        self.exact().winners(stream, vertices, nodes, Q::ONE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{fifo_analysis, AnalysisConfig};
    use crate::busy::busy_window;
    use crate::report::{DelayAnalysis, RtcReport};
    use srtw_detrand::Rng;
    use srtw_gen::{generate_task_set, DrtGenConfig};
    use srtw_minplus::{q, BudgetMeter, Ext, Piece as CurvePiece};
    use srtw_resource::{PeriodicResource, RateLatencyServer, Server, TdmaServer};
    use srtw_workload::{DrtTask, DrtTaskBuilder, ExploreConfig};

    fn pick<T: Copy>(rng: &mut Rng, xs: &[T]) -> T {
        xs[rng.random_range(0..xs.len())]
    }

    /// A periodic staircase of rational slopes 9/10 and 7/3 (and flat
    /// stretches) in time units of `u`.
    fn rational_staircase(u: Q) -> Curve {
        let (a, b) = (q(9, 10), q(7, 3));
        let pieces = vec![
            CurvePiece::new(Q::ZERO, Q::ZERO, Q::ZERO),
            CurvePiece::new(u, Q::ZERO, a),
            CurvePiece::new(Q::int(3) * u, Q::TWO * a * u, b),
            CurvePiece::new(Q::int(4) * u, (Q::TWO * a + b) * u, Q::ZERO),
        ];
        let tail = Tail::Periodic {
            pattern_start: 1,
            period: Q::int(4) * u,
            increment: (Q::TWO * a + b) * u,
        };
        Curve::new(pieces, tail).expect("valid staircase")
    }

    /// A rate-latency, TDMA or periodic-resource server, or a rational
    /// staircase; every one faster than 4/5.
    fn service(rng: &mut Rng) -> Curve {
        let rates = [Q::ONE, q(9, 10), q(7, 3)];
        match rng.random_range(0..4) {
            0 => {
                let latency = q(rng.random_range(0..=16i128), rng.random_range(1..=3i128));
                RateLatencyServer::new(pick(rng, &rates), latency)
                    .unwrap()
                    .beta_lower()
            }
            1 => {
                let cycle = pick(rng, &[Q::int(10), Q::int(20), q(15, 2)]);
                let capacity = pick(rng, &[Q::ONE, q(7, 3)]);
                TdmaServer::new(cycle * q(9, 10), cycle, capacity)
                    .unwrap()
                    .beta_lower()
            }
            2 => {
                let period = pick(rng, &[Q::int(10), Q::int(20), q(25, 3)]);
                PeriodicResource::new(period, period * q(9, 10))
                    .unwrap()
                    .beta_lower()
            }
            _ => rational_staircase(pick(rng, &[Q::ONE, q(1, 2), q(5, 3)])),
        }
    }

    /// 1–3 generated streams sharing a server. The generator rescales
    /// WCETs to the drawn utilization, so they carry its denominators
    /// (3, 65, 275, …).
    fn system(rng: &mut Rng, size: u32) -> (Vec<DrtTask>, Curve) {
        let vertices = rng.random_range(1..=3 + size as usize / 12);
        let cfg = DrtGenConfig {
            vertices,
            extra_edges: vertices,
            separation_range: (5, 40),
            wcet_range: (1, 9),
            target_utilization: None,
            deadline_factor: None,
        };
        let streams = rng.random_range(1..=3usize);
        let u = q(rng.random_range(50i128..=80), 100);
        let tasks = generate_task_set(&cfg, streams, u, rng.next_u64());
        (tasks, service(rng))
    }

    /// The per-node loop as plain rationals: [`Curve::pseudo_inverse`]
    /// and [`Rbf::bound_at`], the first maximal node kept.
    fn reference_winners(
        paths: &Paths<'_>,
        rbfs: &[Rbf],
        stream: usize,
        beta: &Curve,
        vertices: usize,
    ) -> Vec<Option<(Q, usize)>> {
        let mut best: Vec<Option<(Q, usize)>> = vec![None; vertices];
        for i in 0..paths.len() {
            let node = paths.node(i);
            let others = rbfs.iter().enumerate().filter(|&(j, _)| j != stream);
            let ahead = others.fold(node.work, |a, (_, r)| a + r.bound_at(node.span));
            let d = match beta.pseudo_inverse(ahead) {
                Ext::Finite(t) => (t - node.span).clamp_nonneg(),
                Ext::Infinite => panic!("saturated service"),
            };
            let slot = &mut best[node.vertex.index()];
            if slot.is_none_or(|(b, _)| d > b) {
                *slot = Some((d, i));
            }
        }
        best
    }

    /// The RTC breakpoint loop as plain rationals.
    fn reference_rtc(rbfs: &[Rbf], beta: &Curve) -> (Q, usize) {
        let mut spans: Vec<Q> = rbfs
            .iter()
            .flat_map(|r| r.points().iter().map(|p| p.0))
            .collect();
        spans.push(Q::ZERO);
        spans.sort();
        spans.dedup();
        let mut bound = Q::ZERO;
        for &s in &spans {
            let total = rbfs.iter().fold(Q::ZERO, |a, r| a + r.bound_at(s));
            bound = bound.max(beta.pseudo_inverse(total).unwrap_finite() - s);
        }
        (bound, spans.len())
    }

    /// Demands at and around β's breakpoints, reaches and their lifts by
    /// whole increments, on the grid `1/scale`.
    fn inverse_queries(beta: &Curve, scale: i128) -> Vec<Q> {
        let lift = match beta.tail() {
            Tail::Periodic { increment, .. } => increment,
            Tail::Affine => Q::ONE,
        };
        let eps = q(1, scale);
        let mut out = Vec::new();
        let levels = beta
            .pieces()
            .iter()
            .map(|p| p.value)
            .chain(beta.reach().iter().copied());
        for w in levels {
            for k in 0..4 {
                let w = w + lift * Q::int(k);
                out.extend(
                    [w - eps, w, w + eps]
                        .into_iter()
                        .filter(|w| !w.is_negative()),
                );
            }
        }
        out
    }

    /// `β⁻¹(w)` through a request's service, as a rational.
    fn inverse_of<N: Scalar>(r: &Request<N>, w: Q) -> Option<Q> {
        let w = N::scaled(w, r.scale).expect("query on the scale's grid");
        let (num, den) = r.service.inverse(w).expect("no overflow")?;
        Some(num.ratio(den, r.scale).expect("no overflow"))
    }

    #[test]
    fn scaled_loops_match_rationals_and_the_reference() {
        srtw_detrand::prop::forall("delay_loop_i128_vs_q", system, |(tasks, beta)| {
            let bw = busy_window(tasks, beta).expect("stable system");
            let scaled = Request::scaled(&bw.explorers, bw.bound, beta).expect("fits i128");
            let exact = Request::exact(&bw.rbfs, beta);
            for w in inverse_queries(beta, scaled.scale) {
                let want = beta.pseudo_inverse(w).finite();
                assert_eq!(inverse_of(&scaled, w), want, "i128 β⁻¹({w})");
                assert_eq!(inverse_of(&exact, w), want, "Q β⁻¹({w})");
            }
            let rtc = scaled.rtc().expect("no overflow");
            assert_eq!(rtc, exact.rtc().expect("no overflow"), "RTC i128 vs Q");
            assert_eq!(rtc, reference_rtc(&bw.rbfs, beta), "RTC vs reference");
            for fraction in [Q::ONE, q(1, 2)] {
                let cap = bw.bound * fraction;
                for (i, (task, x)) in tasks.iter().zip(&bw.explorers).enumerate() {
                    let n = task.num_vertices();
                    // The unpruned arena (the ablation oracle's) holds
                    // nodes tied in span and work, so the witness rule
                    // is exercised too.
                    let mut cfg = ExploreConfig::new(cap).without_pruning();
                    cfg.node_limit = 400;
                    let mut raw = Explorer::new(task, &cfg);
                    raw.extend_to(cap, &BudgetMeter::unlimited()).unwrap();
                    for paths in [x.paths(cap), raw.paths(cap)] {
                        let (d, nodes) = paths.scaled().expect("scaled search");
                        let int = scaled
                            .winners(i, n, nodes, scaled.scale / d)
                            .expect("no overflow");
                        let nodes = (0..paths.len()).map(|k| {
                            let p = paths.node(k);
                            (p.vertex, p.span, p.work)
                        });
                        let rat = exact.winners(i, n, nodes, Q::ONE).expect("no overflow");
                        assert_eq!(int, rat, "stream {i} at fraction {fraction}: i128 vs Q");
                        let want = reference_winners(&paths, &bw.rbfs, i, beta, n);
                        assert_eq!(rat, want, "stream {i} at fraction {fraction}: vs reference");
                    }
                }
            }
        });
    }

    /// `a(2) →2 b(2) →20 a` on `β(t) = t − 2`: the paths `b` (span 0,
    /// work 2) and `a → b` (span 2, work 4) both give `b` the candidate 4,
    /// and the first of them in the arena must stay the witness.
    #[test]
    fn tied_candidates_keep_the_first_node_as_witness() {
        let mut b = DrtTaskBuilder::new("tie");
        let a = b.vertex("a", Q::TWO);
        let bb = b.vertex("b", Q::TWO);
        b.edge(a, bb, Q::TWO);
        b.edge(bb, a, Q::int(20));
        let task = b.build().unwrap();
        let beta = Curve::rate_latency(Q::ONE, Q::TWO);
        let bw = busy_window(std::slice::from_ref(&task), &beta).unwrap();
        let paths = bw.explorers[0].paths(bw.bound);
        let first = (0..paths.len())
            .find(|&i| paths.node(i).vertex == bb)
            .expect("a path ends at b");
        let scaled = Request::scaled(&bw.explorers, bw.bound, &beta).expect("fits i128");
        let (d, nodes) = paths.scaled().expect("scaled search");
        let int = scaled.winners(0, 2, nodes, scaled.scale / d).unwrap();
        let nodes = (0..paths.len()).map(|k| {
            let p = paths.node(k);
            (p.vertex, p.span, p.work)
        });
        let rat = Request::exact(&bw.rbfs, &beta)
            .winners(0, 2, nodes, Q::ONE)
            .unwrap();
        assert_eq!(int[1], Some((Q::int(4), first)));
        assert_eq!(rat[1], Some((Q::int(4), first)));
        let analysis = crate::analysis::structural_delay(&task, &beta).unwrap();
        let witness = analysis.per_vertex[1].witness.as_ref().unwrap();
        assert_eq!(witness.vertices, vec![bb]);
    }

    /// FNV-1a digest of the rendered per-stream analyses (runtimes
    /// zeroed) and the RTC baseline: the bytes a FIFO report is built
    /// from.
    fn answer_digest(per: &[DelayAnalysis], rtc: &RtcReport) -> u64 {
        let mut text = String::new();
        for a in per {
            let mut a = a.clone();
            a.runtime = std::time::Duration::ZERO;
            text.push_str(&a.to_json().render());
        }
        text.push_str(&rtc.to_json().render());
        text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    /// Four self-looped vertices whose WCET denominators are distinct
    /// primes just above 2^40 (their product overflows `i128`, so the
    /// explorer runs in exact rationals), beside an integer stream.
    fn unscalable_system() -> (Vec<DrtTask>, Curve) {
        const PRIMES: [i128; 4] = [
            1_099_511_627_791,
            1_099_511_627_803,
            1_099_511_627_831,
            1_099_511_627_873,
        ];
        let mut b = DrtTaskBuilder::new("primes");
        for (i, &p) in PRIMES.iter().enumerate() {
            let v = b.vertex(format!("v{i}"), Q::new(3 * p + 1, p));
            b.edge(v, v, Q::int(10 + i as i128));
        }
        let primes = b.build().unwrap();
        let mut b = DrtTaskBuilder::new("tick");
        let t = b.vertex("t", Q::ONE);
        b.edge(t, t, Q::int(25));
        let beta = Curve::rate_latency(q(1, 2), Q::int(2));
        (vec![primes, b.build().unwrap()], beta)
    }

    /// Two self-looped vertices with WCET denominators primes just above
    /// 2^40 (the explorer scales by their product, ≈2^80) on a server
    /// whose rate has a numerator near 2^24: the common scale fits
    /// `i128`, but a candidate's cross-multiplication does not.
    fn overflowing_scale_system() -> (Vec<DrtTask>, Curve) {
        let mut b = DrtTaskBuilder::new("wide");
        let x = b.vertex("x", Q::new(3, 1_099_511_627_791));
        let y = b.vertex("y", Q::new(5, 1_099_511_627_803));
        b.edge(x, x, Q::ONE);
        b.edge(y, y, Q::int(2));
        let wide = b.build().unwrap();
        let mut b = DrtTaskBuilder::new("tick");
        let t = b.vertex("t", q(1, 3));
        b.edge(t, t, Q::int(5));
        let beta = Curve::rate_latency(q(16_777_213, 16_777_259), Q::int(3));
        (vec![wide, b.build().unwrap()], beta)
    }

    fn digest_of(tasks: &[DrtTask], beta: &Curve) -> u64 {
        let (per, rtc) = fifo_analysis(tasks, beta, &AnalysisConfig::default()).unwrap();
        answer_digest(&per, &rtc)
    }

    /// The digests pinned below were taken from the rational-only loop
    /// this module replaced.
    #[test]
    fn exact_explorer_runs_in_rationals_with_the_same_bytes() {
        let (tasks, beta) = unscalable_system();
        let bw = busy_window(&tasks, &beta).unwrap();
        assert!(bw.explorers[0].paths(bw.bound).scaled().is_none());
        assert!(Request::scaled(&bw.explorers, bw.bound, &beta).is_none());
        assert_eq!(digest_of(&tasks, &beta), 0x7ef5_fd87_5726_5c70);
    }

    #[test]
    fn overflowing_products_run_in_rationals_with_the_same_bytes() {
        let (tasks, beta) = overflowing_scale_system();
        let bw = busy_window(&tasks, &beta).unwrap();
        let r = Request::scaled(&bw.explorers, bw.bound, &beta).expect("L fits i128");
        let paths = bw.explorers[0].paths(bw.bound);
        let (d, nodes) = paths.scaled().expect("scaled search");
        assert!(matches!(r.winners(0, 2, nodes, r.scale / d), Err(OVF)));
        assert_eq!(digest_of(&tasks, &beta), 0x4093_702d_ef50_c5d9);
    }
}
