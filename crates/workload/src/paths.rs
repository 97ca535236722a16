//! Abstract-path exploration with dominance pruning.
//!
//! The structural analyses of this workspace all reduce to enumerating the
//! *abstract paths* of a [`DrtTask`]: walks `v₁ → … → vₖ` abstracted to
//! demand pairs `(span, work)` where `span` is the minimum time between the
//! first and last release and `work` the total WCET. Two paths ending at
//! the same vertex compare by Pareto dominance — `(span′ ≤ span, work′ ≥
//! work)` dominates — and dominance is preserved under extension, so
//! dominated paths can be pruned without affecting any maximisation of the
//! form `max f(work) − g(span)` with monotone `f`, `g`. This is the
//! classical demand-tuple technique of the DRT analysis literature and the
//! engine behind both the request-bound function and the structural delay
//! analysis.
//!
//! Candidates pop in ascending span, so a search to a horizon `h` is an
//! exact prefix of a search to any `h′ > h` as long as the successors
//! beyond `h` wait in the heap. An [`Explorer`] keeps them there: one
//! search per task grows through increasing horizons, and every read at a
//! horizon it reached equals a fresh [`explore_metered`] to that horizon.

use crate::digraph::{DrtTask, VertexId};
use crate::rbf::{packing_line, Rbf};
use crate::utilization::{howard, scaled_critical_cycle};
use crate::weight::{unscale, ScaledGraph};
use srtw_minplus::{ArithmeticError, BudgetKind, BudgetMeter, Scalar, Q};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One non-dominated abstract path, ending at [`PathNode::vertex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathNode {
    /// The vertex whose job is released last on this path.
    pub vertex: VertexId,
    /// Minimum time between the path's first and last release.
    pub span: Q,
    /// Total WCET of all jobs on the path (including the last).
    pub work: Q,
    /// Number of jobs on the path.
    pub len: usize,
    /// Arena index of the predecessor node.
    pub(crate) parent: Option<usize>,
}

/// Configuration of a path exploration.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Only paths with `span ≤ horizon` are enumerated.
    pub horizon: Q,
    /// Enable Pareto dominance pruning (disable only to measure its effect).
    pub prune: bool,
    /// Safety valve: stop retaining nodes beyond this count (default one
    /// million). Reaching it interrupts the exploration gracefully — the
    /// result reports [`Exploration::interrupted`] and a correspondingly
    /// reduced [`Exploration::complete_span`] — exactly like tripping an
    /// explored-paths budget.
    pub node_limit: usize,
}

impl ExploreConfig {
    /// Standard configuration: given horizon, pruning on.
    pub fn new(horizon: Q) -> ExploreConfig {
        ExploreConfig {
            horizon,
            prune: true,
            node_limit: 1_000_000,
        }
    }

    /// Disables dominance pruning.
    #[must_use]
    pub fn without_pruning(mut self) -> ExploreConfig {
        self.prune = false;
        self
    }
}

/// Result of a path exploration: the arena of retained (non-dominated)
/// nodes plus bookkeeping counters.
#[derive(Debug, Clone)]
pub struct Exploration {
    nodes: Vec<PathNode>,
    /// Number of candidate nodes generated (before pruning).
    pub generated: usize,
    /// Number of candidates discarded by dominance.
    pub pruned: usize,
    /// The horizon the exploration ran to.
    pub horizon: Q,
    /// Spans **strictly below** this value are completely enumerated even
    /// if the exploration was interrupted. Candidates pop in ascending
    /// span order, so an interruption at span `s` leaves every span `< s`
    /// final — the basis of the sound horizon-truncation fallback. Equals
    /// `horizon` (and covers it inclusively) for uninterrupted runs.
    pub complete_span: Q,
    /// `Some(kind)` when a budget dimension (or the node limit, reported
    /// as [`BudgetKind::Paths`]) stopped the exploration early.
    pub interrupted: Option<BudgetKind>,
}

impl Exploration {
    /// The retained path nodes, in non-decreasing span order.
    pub fn nodes(&self) -> &[PathNode] {
        &self.nodes
    }

    /// Reconstructs the vertex sequence of the path ending at `node_index`.
    pub fn path_of(&self, node_index: usize) -> Vec<VertexId> {
        walk(node_index, |i| (self.nodes[i].vertex, self.nodes[i].parent))
    }
}

/// The vertices from the root of an arena to node `last`, where `link`
/// gives a node's vertex and parent.
fn walk(last: usize, link: impl Fn(usize) -> (VertexId, Option<usize>)) -> Vec<VertexId> {
    let mut rev = Vec::new();
    let mut cur = Some(last);
    while let Some(i) = cur {
        let (vertex, parent) = link(i);
        rev.push(vertex);
        cur = parent;
    }
    rev.reverse();
    rev
}

/// An exploration read off an [`Explorer`] without unscaling its arena:
/// the counters of [`Explorer::exploration`] at once, the nodes one at a
/// time. A search in scaled integers hands its nodes out as they are
/// ([`Paths::scaled`]), so a caller that works at a scale of its own
/// builds a rational [`PathNode`] only for the nodes it keeps.
#[derive(Debug, Clone, Copy)]
pub struct Paths<'a> {
    arena: Arena<'a>,
    /// Number of candidate nodes generated (before pruning).
    pub generated: usize,
    /// Number of candidates discarded by dominance.
    pub pruned: usize,
    /// The horizon the paths were read at.
    pub horizon: Q,
    /// As [`Exploration::complete_span`].
    pub complete_span: Q,
    /// As [`Exploration::interrupted`].
    pub interrupted: Option<BudgetKind>,
}

/// The retained nodes of a [`Paths`] read, in the search's weight domain.
#[derive(Debug, Clone, Copy)]
enum Arena<'a> {
    /// Nodes whose weights are scaled by the given `D`.
    Scaled(i128, &'a [Candidate<i128>]),
    /// Nodes over exact rationals.
    Exact(&'a [Candidate<Q>]),
}

impl<'a> Paths<'a> {
    /// The number of retained nodes.
    pub fn len(&self) -> usize {
        match self.arena {
            Arena::Scaled(_, n) => n.len(),
            Arena::Exact(n) => n.len(),
        }
    }

    /// Whether no node was retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The search's scale `D` and every node's `(vertex, D·span, D·work)`
    /// in arena order, when the search runs in scaled integers; `None`
    /// in exact rationals.
    pub fn scaled(&self) -> Option<(i128, impl Iterator<Item = (VertexId, i128, i128)> + 'a)> {
        match self.arena {
            Arena::Scaled(d, nodes) => Some((d, nodes.iter().map(|c| (c.vertex, c.span, c.work)))),
            Arena::Exact(_) => None,
        }
    }

    /// Node `i`, unscaled.
    pub fn node(&self, i: usize) -> PathNode {
        match self.arena {
            Arena::Scaled(d, nodes) => nodes[i].unscale(d),
            Arena::Exact(nodes) => nodes[i].unscale(1),
        }
    }

    /// The vertex sequence of the path ending at node `i`.
    pub fn path_of(&self, i: usize) -> Vec<VertexId> {
        match self.arena {
            Arena::Scaled(_, nodes) => walk(i, |k| (nodes[k].vertex, nodes[k].parent)),
            Arena::Exact(nodes) => walk(i, |k| (nodes[k].vertex, nodes[k].parent)),
        }
    }

    /// The read as an owned [`Exploration`], every node unscaled.
    pub(crate) fn to_exploration(self) -> Exploration {
        Exploration {
            nodes: (0..self.len()).map(|i| self.node(i)).collect(),
            generated: self.generated,
            pruned: self.pruned,
            horizon: self.horizon,
            complete_span: self.complete_span,
            interrupted: self.interrupted,
        }
    }
}

/// Explores all non-dominated abstract paths of `task` within the
/// configuration's horizon.
///
/// # Examples
///
/// ```
/// use srtw_workload::{DrtTaskBuilder, explore, ExploreConfig};
/// use srtw_minplus::Q;
///
/// let mut b = DrtTaskBuilder::new("loop");
/// let v = b.vertex("v", Q::int(2));
/// b.edge(v, v, Q::int(5));
/// let task = b.build().unwrap();
///
/// let ex = explore(&task, &ExploreConfig::new(Q::int(12)));
/// // Paths: v (span 0), v→v (span 5), v→v→v (span 10).
/// assert_eq!(ex.nodes().len(), 3);
/// assert_eq!(ex.nodes()[2].work, Q::int(6));
/// ```
///
/// # Panics
///
/// When a span or work leaves `i128` even as an exact rational (see
/// [`explore_metered`], which reports that as an error).
pub fn explore(task: &DrtTask, cfg: &ExploreConfig) -> Exploration {
    explore_metered(task, cfg, &BudgetMeter::unlimited()).expect("path weights overflow i128")
}

/// Budgeted [`explore`]: ticks the explored-paths budget once per heap pop
/// and stops at a **clean prefix** when any dimension (or the
/// [`ExploreConfig::node_limit`]) trips.
///
/// Because candidates pop in ascending span order (successors strictly
/// increase the span — separations are positive), interruption at a
/// candidate of span `s` leaves every abstract path of span `< s` fully
/// enumerated. The result's [`Exploration::complete_span`] records that
/// exclusive frontier; retained nodes at span `≥ s` are genuine paths too
/// (sound for maximisation) but possibly not exhaustive.
///
/// # Errors
///
/// [`ArithmeticError::Overflow`] when a span or work leaves `i128` even as
/// an exact rational.
pub fn explore_metered(
    task: &DrtTask,
    cfg: &ExploreConfig,
    meter: &BudgetMeter,
) -> Result<Exploration, ArithmeticError> {
    let mut explorer = Explorer::new(task, cfg);
    explorer.extend_to(cfg.horizon, meter)?;
    Ok(explorer.exploration(cfg.horizon))
}

/// A resumable [`explore_metered`]: one search of a task, grown through
/// increasing horizons with [`Explorer::extend_to`].
///
/// Every read at a horizon the search reached equals a fresh
/// [`explore_metered`] (or [`Rbf::compute_metered`]) to that horizon,
/// parents and counters included: the pops up to a horizon are the same
/// in both, and the successors beyond it wait in the heap. Each pop ticks
/// the meter once, so a grown search ticks exactly as often as one search
/// to its last horizon. A failed tick leaves its candidate in the heap and
/// stops the search for good; reads at or beyond the stop report it like
/// an interrupted run. Reads panic at a horizon the search neither reached
/// nor stopped within. The search runs in scaled `i128` while a static
/// bound proves every span and work fits, and in exact rationals from the
/// first horizon that could leave `i128`; a sum that leaves `i128` even
/// there is an [`ArithmeticError::Overflow`], after which the search must
/// not be read or grown again.
///
/// ```
/// use srtw_workload::{DrtTaskBuilder, ExploreConfig, Explorer, Rbf};
/// use srtw_minplus::{BudgetMeter, Q};
///
/// let mut b = DrtTaskBuilder::new("loop");
/// let v = b.vertex("v", Q::int(2));
/// b.edge(v, v, Q::int(5));
/// let task = b.build().unwrap();
/// let mut x = Explorer::new(&task, &ExploreConfig::new(Q::ZERO));
/// x.extend_to(Q::int(12), &BudgetMeter::unlimited()).unwrap();
/// x.extend_to(Q::int(20), &BudgetMeter::unlimited()).unwrap();
/// assert_eq!(x.exploration(Q::int(12)).nodes().len(), 3);
/// assert_eq!(x.rbf(Q::int(20)), Rbf::compute(&task, Q::int(20)));
/// ```
#[derive(Debug, Clone)]
pub struct Explorer {
    search: Domain,
    prune: bool,
    node_limit: usize,
    /// The largest horizon the search was extended to without stopping.
    reach: Option<Q>,
    /// The task's job-packing demand line (see [`Rbf::compute_metered`]).
    packing: (Q, Q),
}

/// The search in the weight domain it currently runs in.
#[derive(Debug, Clone)]
enum Domain {
    /// Over the task's weights scaled to integers.
    Scaled(Search<i128>),
    /// Over exact rationals: the scaled weights could leave `i128`.
    Exact(Search<Q>),
}

/// Evaluates `$body` with `$s` bound to the search of either domain.
macro_rules! on_search {
    ($domain:expr, $s:ident => $body:expr) => {
        match $domain {
            Domain::Scaled($s) => $body,
            Domain::Exact($s) => $body,
        }
    };
}

impl Explorer {
    /// A search of `task` that has not popped anything yet, pruning and
    /// limiting nodes as `cfg` says. The configuration's horizon is not
    /// used: [`Explorer::extend_to`] sets how far the search reaches.
    pub fn new(task: &DrtTask, cfg: &ExploreConfig) -> Explorer {
        let search = match ScaledGraph::new(task) {
            Some(g) => Domain::Scaled(Search::new(g)),
            None => Domain::Exact(Search::new(ScaledGraph::exact(task))),
        };
        Explorer {
            search,
            prune: cfg.prune,
            node_limit: cfg.node_limit,
            reach: None,
            packing: packing_line(task),
        }
    }

    /// Pops every candidate of span `≤ horizon`, ticking `meter` once per
    /// pop, unless the search already reached `horizon` or has stopped.
    ///
    /// # Errors
    ///
    /// [`ArithmeticError::Overflow`] when a span or work leaves `i128` as
    /// an exact rational.
    pub fn extend_to(&mut self, horizon: Q, meter: &BudgetMeter) -> Result<(), ArithmeticError> {
        if self.interrupted().is_some() || self.reach.is_some_and(|r| horizon <= r) {
            return Ok(());
        }
        let (prune, limit) = (self.prune, self.node_limit);
        match &mut self.search {
            Domain::Scaled(s) => match scaled_horizon(&s.graph, horizon) {
                Some(h) => s.run(h, prune, limit, meter)?,
                None => {
                    // Replay the pops so far over exact rationals, in the
                    // same order and unmetered (they were ticked once).
                    let mut exact = Search::new(s.graph.unscaled());
                    if let Some(r) = self.reach {
                        exact.run(r, prune, limit, &BudgetMeter::unlimited())?;
                    }
                    exact.run(horizon, prune, limit, meter)?;
                    self.search = Domain::Exact(exact);
                }
            },
            Domain::Exact(s) => s.run(horizon, prune, limit, meter)?,
        }
        if self.interrupted().is_none() {
            self.reach = Some(horizon);
        }
        Ok(())
    }

    /// The task's long-run utilization ([`long_run_utilization`]), its
    /// maximum cycle ratio, computed on the graph this search already
    /// holds.
    ///
    /// # Errors
    ///
    /// As [`long_run_utilization`].
    ///
    /// [`long_run_utilization`]: crate::long_run_utilization
    pub fn utilization(&self) -> Result<Q, ArithmeticError> {
        let cycle = match &self.search {
            Domain::Scaled(s) => scaled_critical_cycle(&s.graph),
            Domain::Exact(s) => howard(&s.graph),
        }?;
        Ok(cycle.map_or(Q::ZERO, |c| c.ratio))
    }

    /// The budget dimension that stopped the search, if any.
    fn interrupted(&self) -> Option<BudgetKind> {
        on_search!(&self.search, s => s.stopped.map(|(_, kind)| kind))
    }

    /// The exploration to `horizon`, as [`explore_metered`] would return it.
    pub fn exploration(&self, horizon: Q) -> Exploration {
        self.paths(horizon).to_exploration()
    }

    /// The exploration to `horizon` as [`Explorer::exploration`] returns
    /// it, but with the arena left in the search's weight domain.
    pub fn paths(&self, horizon: Q) -> Paths<'_> {
        self.assert_read(horizon);
        match &self.search {
            Domain::Scaled(s) => s.paths(horizon, |n| Arena::Scaled(s.graph.scale, n)),
            Domain::Exact(s) => s.paths(horizon, Arena::Exact),
        }
    }

    /// The request-bound function on `[0, horizon]`, as
    /// [`Rbf::compute_metered`] would return it.
    pub fn rbf(&self, horizon: Q) -> Rbf {
        self.assert_read(horizon);
        let (points, exact_span, truncated) = on_search!(&self.search, s => s.staircase(horizon));
        Rbf::from_staircase(points, horizon, exact_span, truncated, self.packing)
    }

    /// `rbf(horizon)`, the largest work of a path within `horizon`, read
    /// off the staircase without materializing it: equal to
    /// `self.rbf(horizon).eval(horizon)` when that rbf is exact, and
    /// `None` when the search stopped within `horizon` (the rbf is
    /// truncated there).
    pub fn demand(&self, horizon: Q) -> Option<Q> {
        self.assert_read(horizon);
        on_search!(&self.search, s => {
            let (end, _, truncated) = s.stair_end(horizon);
            match (truncated, end) {
                (Some(_), _) => None,
                (None, 0) => Some(Q::ZERO),
                (None, end) => Some(unscale(s.steps[end - 1].1, s.graph.scale)),
            }
        })
    }

    /// The rbf staircase on `[0, horizon]` in the search's scaled
    /// integers: the scale `D` and the breakpoints `(D·span, D·work)`.
    /// `None` when the search runs in exact rationals, or stopped within
    /// `horizon` (the rbf is truncated there).
    pub fn scaled_staircase(&self, horizon: Q) -> Option<(i128, &[(i128, i128)])> {
        self.assert_read(horizon);
        match &self.search {
            Domain::Scaled(s) => match s.stair_end(horizon) {
                (end, _, None) => Some((s.graph.scale, &s.steps[..end])),
                (_, _, Some(_)) => None,
            },
            Domain::Exact(_) => None,
        }
    }

    fn assert_read(&self, horizon: Q) {
        assert!(
            self.interrupted().is_some() || self.reach.is_some_and(|r| horizon <= r),
            "read at horizon {horizon} beyond the explored prefix"
        );
    }
}

/// Heap entry ordered by ascending span (BinaryHeap is a max-heap, so the
/// ordering is reversed). Popped entries become the arena's nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Candidate<W> {
    span: W,
    work: W,
    vertex: VertexId,
    len: usize,
    parent: Option<usize>,
}

impl<W: Scalar> Candidate<W> {
    fn unscale(self, scale: i128) -> PathNode {
        PathNode {
            vertex: self.vertex,
            span: unscale(self.span, scale),
            work: unscale(self.work, scale),
            len: self.len,
            parent: self.parent,
        }
    }
}

impl<W: Ord> Ord for Candidate<W> {
    fn cmp(&self, other: &Candidate<W>) -> Ordering {
        // Reverse span; tie-break on descending work so the strongest
        // tuple at a span is installed first (maximising pruning). The
        // final parent tie-break makes the order *total* over distinct
        // candidates, so the pop sequence — and with it the witness
        // retained among fully tied tuples — is deterministic.
        other
            .span
            .cmp(&self.span)
            .then(self.work.cmp(&other.work))
            .then(self.vertex.cmp(&other.vertex).reverse())
            .then(self.len.cmp(&other.len).reverse())
            .then(self.parent.cmp(&other.parent).reverse())
    }
}

impl<W: Ord> PartialOrd for Candidate<W> {
    fn partial_cmp(&self, other: &Candidate<W>) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Per-vertex Pareto frontier: entries `(span, work, node_index)` strictly
/// increasing in both `span` and `work`.
#[derive(Debug, Clone)]
struct Frontier<W> {
    entries: Vec<(W, W, usize)>,
}

impl<W: Scalar> Frontier<W> {
    fn new() -> Frontier<W> {
        Frontier {
            entries: Vec::new(),
        }
    }

    /// Is `(span, work)` dominated by an existing entry?
    fn dominated(&self, span: W, work: W) -> bool {
        // Last entry with span' ≤ span carries the best work at or before
        // `span` (entries are increasing in both coordinates).
        match self.entries.iter().rev().find(|e| e.0 <= span) {
            Some(&(_, w, _)) => w >= work,
            None => false,
        }
    }

    /// Inserts a non-dominated `(span, work, idx)` and evicts entries it
    /// dominates.
    fn insert(&mut self, span: W, work: W, idx: usize) {
        let pos = self.entries.partition_point(|e| e.0 < span);
        // Evict subsequent entries with work ≤ work (they have span ≥ span).
        let mut end = pos;
        while end < self.entries.len() && self.entries[end].1 <= work {
            end += 1;
        }
        self.entries.splice(pos..end, [(span, work, idx)]);
    }
}

/// The state of one search in one weight domain.
#[derive(Debug, Clone)]
struct Search<W> {
    graph: ScaledGraph<W>,
    /// Candidates not popped yet, successors beyond the reach included.
    heap: BinaryHeap<Candidate<W>>,
    frontiers: Vec<Frontier<W>>,
    /// The retained nodes, in pop order (non-decreasing span).
    nodes: Vec<Candidate<W>>,
    /// The spans of the pops discarded as dominated (or, unpruned, as
    /// exact duplicates), in pop order.
    pruned: Vec<W>,
    /// The rbf staircase of `nodes`: the running maximum of work in pop
    /// order, strictly increasing in span and work.
    steps: Vec<(W, W)>,
    /// Where and why the search stopped: the span of the candidate it
    /// stopped at (still in the heap), and the budget dimension.
    stopped: Option<(W, BudgetKind)>,
}

impl<W: Scalar> Search<W> {
    fn new(graph: ScaledGraph<W>) -> Search<W> {
        let n = graph.wcets.len();
        let heap = (0..n)
            .map(|v| Candidate {
                span: W::ZERO,
                work: graph.wcets[v],
                vertex: VertexId(v),
                len: 1,
                parent: None,
            })
            .collect();
        Search {
            graph,
            heap,
            frontiers: vec![Frontier::new(); n],
            nodes: Vec::new(),
            pruned: Vec::new(),
            steps: Vec::new(),
            stopped: None,
        }
    }

    /// The exploration loop: pops candidates of span `≤ target` until the
    /// heap holds none or the meter or node limit stops the search (which
    /// must not have stopped before), or a successor's span or work
    /// leaves `W`.
    fn run(
        &mut self,
        target: W,
        prune: bool,
        limit: usize,
        meter: &BudgetMeter,
    ) -> Result<(), ArithmeticError> {
        let sum = |a: W, b: W| a.add(b).ok_or(ArithmeticError::Overflow);
        while let Some(&c) = self.heap.peek() {
            if c.span > target {
                break;
            }
            if !meter.tick_path() {
                self.stopped = Some((c.span, meter.tripped().unwrap_or(BudgetKind::Paths)));
                break;
            }
            self.heap.pop();
            let discard = if prune {
                self.frontiers[c.vertex.index()].dominated(c.span, c.work)
            } else {
                // Even without pruning, drop exact duplicates to stay finite.
                self.nodes.iter().any(|n| {
                    n.vertex == c.vertex && n.span == c.span && n.work == c.work && n.len == c.len
                })
            };
            if discard {
                self.pruned.push(c.span);
                continue;
            }
            let idx = self.nodes.len();
            if idx >= limit {
                self.heap.push(c);
                self.stopped = Some((c.span, BudgetKind::Paths));
                break;
            }
            self.nodes.push(c);
            if prune {
                self.frontiers[c.vertex.index()].insert(c.span, c.work, idx);
            }
            // A later node at the same span can only raise that span's
            // value; keep strictly increasing work.
            match self.steps.last_mut() {
                Some(last) if last.0 == c.span => last.1 = last.1.max(c.work),
                Some(last) if c.work <= last.1 => {}
                _ => self.steps.push((c.span, c.work)),
            }
            for &(wcet, sep, to) in self.graph.out(c.vertex) {
                self.heap.push(Candidate {
                    span: sum(c.span, sep)?,
                    work: sum(c.work, wcet)?,
                    vertex: to,
                    len: c.len + 1,
                    parent: Some(idx),
                });
            }
        }
        Ok(())
    }

    /// Whether a weight of this domain stands for at most `horizon`.
    fn within(&self, horizon: Q) -> impl Fn(W) -> bool {
        let scale = self.graph.scale;
        move |w: W| unscale(w, scale) <= horizon
    }

    /// The read to `horizon`, its retained nodes wrapped by `arena`.
    fn paths<'a>(
        &'a self,
        horizon: Q,
        arena: impl FnOnce(&'a [Candidate<W>]) -> Arena<'a>,
    ) -> Paths<'a> {
        let (within, scale) = (self.within(horizon), self.graph.scale);
        let retained = self.nodes.partition_point(|c| within(c.span));
        let pruned = self.pruned.partition_point(|&s| within(s));
        // Uninterrupted, every candidate within the horizon was popped;
        // interrupted, the ones still waiting were generated too.
        let (complete_span, interrupted, waiting) = match self.stopped {
            Some((s, kind)) if within(s) => (
                unscale(s, scale),
                Some(kind),
                self.heap.iter().filter(|c| within(c.span)).count(),
            ),
            _ => (horizon, None, 0),
        };
        Paths {
            arena: arena(&self.nodes[..retained]),
            generated: retained + pruned + waiting,
            pruned,
            horizon,
            complete_span,
            interrupted,
        }
    }

    /// How many staircase breakpoints are exact to `horizon`, the exact
    /// span and the truncation: past a stop only the spans strictly below
    /// it are exact.
    fn stair_end(&self, horizon: Q) -> (usize, Q, Option<BudgetKind>) {
        let within = self.within(horizon);
        match self.stopped {
            Some((s, kind)) if within(s) => (
                self.steps.partition_point(|p| p.0 < s),
                unscale(s, self.graph.scale),
                Some(kind),
            ),
            _ => (self.steps.partition_point(|p| within(p.0)), horizon, None),
        }
    }

    /// The rbf breakpoints to `horizon`, its exact span and truncation.
    fn staircase(&self, horizon: Q) -> (Vec<(Q, Q)>, Q, Option<BudgetKind>) {
        let (end, exact_span, truncated) = self.stair_end(horizon);
        let scale = self.graph.scale;
        let points = self.steps[..end]
            .iter()
            .map(|&(s, w)| (unscale(s, scale), unscale(w, scale)))
            .collect();
        (points, exact_span, truncated)
    }
}

/// `⌊horizon·D⌋` when every span and work of a search grown to `horizon`
/// provably fits `i128` at scale `D`, `None` otherwise.
///
/// For an integer span `s`, `s > horizon·D` iff `s > ⌊horizon·D⌋`, so the
/// scaled horizon test is exact. Every popped node has span at most
/// `H = max(⌊horizon·D⌋, 0)`, so a successor's span is at most
/// `H + max sep`; a path within `H` has at most `H / min sep + 1` jobs,
/// and a successor one more, so every work is at most `H / min sep + 2`
/// times the largest WCET.
fn scaled_horizon(g: &ScaledGraph<i128>, horizon: Q) -> Option<i128> {
    let h = horizon.checked_mul(Q::int(g.scale))?.floor();
    let reach = h.max(0);
    let seps = || g.edges.iter().map(|e| e.1);
    reach.checked_add(seps().max().unwrap_or(0))?;
    let jobs = seps()
        .min()
        .map_or(Some(1), |s| (reach / s).checked_add(2))?;
    jobs.checked_mul(g.wcets.iter().copied().max().unwrap_or(0))?;
    Some(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digraph::DrtTaskBuilder;

    fn diamond() -> DrtTask {
        // a -> b (sep 3, e=1), a -> c (sep 4, e=5), b -> d, c -> d
        let mut b = DrtTaskBuilder::new("diamond");
        let a = b.vertex("a", Q::int(2));
        let bb = b.vertex("b", Q::ONE);
        let c = b.vertex("c", Q::int(5));
        let d = b.vertex("d", Q::ONE);
        b.edge(a, bb, Q::int(3));
        b.edge(a, c, Q::int(4));
        b.edge(bb, d, Q::int(3));
        b.edge(c, d, Q::int(2));
        b.build().unwrap()
    }

    #[test]
    fn explore_single_loop() {
        let mut b = DrtTaskBuilder::new("loop");
        let v = b.vertex("v", Q::int(2));
        b.edge(v, v, Q::int(5));
        let task = b.build().unwrap();
        let ex = explore(&task, &ExploreConfig::new(Q::int(20)));
        let spans: Vec<Q> = ex.nodes().iter().map(|n| n.span).collect();
        assert_eq!(
            spans,
            vec![Q::ZERO, Q::int(5), Q::int(10), Q::int(15), Q::int(20)]
        );
        let works: Vec<Q> = ex.nodes().iter().map(|n| n.work).collect();
        assert_eq!(
            works,
            vec![Q::int(2), Q::int(4), Q::int(6), Q::int(8), Q::int(10)]
        );
    }

    #[test]
    fn explore_diamond_prunes_weak_branch() {
        let task = diamond();
        let ex = explore(&task, &ExploreConfig::new(Q::int(100)));
        // Path a→c→d (span 6, work 8) dominates a→b→d (span 6, work 4):
        // only one node at vertex d with span 6 must remain.
        let d_nodes: Vec<&PathNode> = ex
            .nodes()
            .iter()
            .filter(|n| n.vertex.index() == 3 && n.span == Q::int(6))
            .collect();
        assert_eq!(d_nodes.len(), 1);
        assert_eq!(d_nodes[0].work, Q::int(8));
        assert!(ex.pruned > 0);
    }

    #[test]
    fn witness_reconstruction() {
        let task = diamond();
        let ex = explore(&task, &ExploreConfig::new(Q::int(100)));
        let best_d = ex
            .nodes()
            .iter()
            .enumerate()
            .filter(|(_, n)| n.vertex.index() == 3)
            .max_by_key(|(_, n)| n.work)
            .map(|(i, _)| i)
            .unwrap();
        let path = ex.path_of(best_d);
        let labels: Vec<&str> = path
            .iter()
            .map(|&v| task.vertex(v).label.as_str())
            .collect();
        assert_eq!(labels, vec!["a", "c", "d"]);
    }

    #[test]
    fn pruning_preserves_rbf_envelope() {
        // With and without pruning, the attainable (span, work) envelope
        // must agree: for every unpruned node there is a pruned-run node
        // with span ≤ and work ≥.
        let task = diamond();
        let pruned = explore(&task, &ExploreConfig::new(Q::int(30)));
        let raw = explore(&task, &ExploreConfig::new(Q::int(30)).without_pruning());
        assert!(raw.nodes().len() >= pruned.nodes().len());
        for n in raw.nodes() {
            assert!(
                pruned
                    .nodes()
                    .iter()
                    .any(|m| m.vertex == n.vertex && m.span <= n.span && m.work >= n.work),
                "node {n:?} not covered"
            );
        }
    }

    #[test]
    fn metered_explore_stops_at_clean_prefix() {
        use srtw_minplus::Budget;
        let mut b = DrtTaskBuilder::new("loop");
        let v = b.vertex("v", Q::int(2));
        b.edge(v, v, Q::int(5));
        let task = b.build().unwrap();
        let cfg = ExploreConfig::new(Q::int(1000));
        let meter = BudgetMeter::new(&Budget::default().with_max_paths(10));
        let ex = explore_metered(&task, &cfg, &meter).unwrap();
        assert_eq!(ex.interrupted, Some(BudgetKind::Paths));
        assert!(ex.complete_span < Q::int(1000));
        // Exclusive completeness: compare against an unmetered run capped
        // at the reported complete span.
        let full = explore(&task, &ExploreConfig::new(Q::int(1000)));
        let expect: Vec<&PathNode> = full
            .nodes()
            .iter()
            .filter(|n| n.span < ex.complete_span)
            .collect();
        for want in &expect {
            assert!(
                ex.nodes().iter().any(|n| n.span == want.span
                    && n.work == want.work
                    && n.vertex == want.vertex),
                "missing complete-prefix node {want:?}"
            );
        }
        // An unmetered run reports full completeness.
        assert_eq!(full.interrupted, None);
        assert_eq!(full.complete_span, Q::int(1000));
    }

    #[test]
    fn node_limit_interrupts_instead_of_panicking() {
        let mut b = DrtTaskBuilder::new("loop");
        let v = b.vertex("v", Q::ONE);
        b.edge(v, v, Q::ONE);
        let task = b.build().unwrap();
        let mut cfg = ExploreConfig::new(Q::int(10_000));
        cfg.node_limit = 5;
        let ex = explore(&task, &cfg);
        assert_eq!(ex.interrupted, Some(BudgetKind::Paths));
        assert_eq!(ex.nodes().len(), 5);
        assert!(ex.complete_span <= Q::int(5));
    }

    #[test]
    fn frontier_insert_and_dominate() {
        let mut f = Frontier::new();
        f.insert(Q::ZERO, Q::ONE, 0);
        assert!(f.dominated(Q::ONE, Q::ONE));
        assert!(!f.dominated(Q::ONE, Q::TWO));
        f.insert(Q::ONE, Q::int(3), 1);
        // New stronger entry at same span evicts weaker-later ones.
        f.insert(Q::ONE, Q::int(5), 2);
        assert!(f.dominated(Q::int(2), Q::int(5)));
        assert_eq!(f.entries.len(), 2);
    }

    use crate::rbf::Rbf;
    use crate::weight::ScaledGraph;
    use srtw_detrand::Rng;
    use srtw_minplus::{q, Budget};

    /// A random task with rational WCETs *and* rational separations: every
    /// vertex on a ring, plus random chords.
    fn rational_task(rng: &mut Rng, size: u32) -> DrtTask {
        let n = rng.random_range(1..=2 + size as i128 / 8) as usize;
        let mut b = DrtTaskBuilder::new("rational");
        let vs: Vec<VertexId> = (0..n)
            .map(|i| {
                let wcet = Q::new(rng.random_range(1..=40i128), rng.random_range(1..=12i128));
                b.vertex(format!("v{i}"), wcet)
            })
            .collect();
        let sep = |rng: &mut Rng| Q::new(rng.random_range(1..=90i128), rng.random_range(1..=8i128));
        for i in 0..n {
            let s = sep(rng);
            b.edge(vs[i], vs[(i + 1) % n], s);
        }
        for i in 0..n {
            for j in 0..n {
                if j != (i + 1) % n && rng.random_ratio(1, 3) {
                    let s = sep(rng);
                    b.edge(vs[i], vs[j], s);
                }
            }
        }
        b.build().unwrap()
    }

    /// Rebuilds a task made by `srtw-gen` as this crate's type (the
    /// generator links its own copy of the crate, whose types differ).
    macro_rules! adopt {
        ($task:expr) => {{
            let t = $task;
            let mut b = DrtTaskBuilder::new(t.name());
            let ids: Vec<VertexId> = t
                .vertex_ids()
                .map(|v| b.vertex(t.vertex(v).label.clone(), t.wcet(v)))
                .collect();
            for v in t.vertex_ids() {
                for e in t.out_edges(v) {
                    b.edge(ids[v.index()], ids[e.to.index()], e.separation);
                }
            }
            b.build().unwrap()
        }};
    }

    /// Default, unpruned (kept finite by a node limit) and node-limited
    /// configurations at horizon `h`.
    fn configs(h: Q) -> [ExploreConfig; 3] {
        let mut raw = ExploreConfig::new(h).without_pruning();
        raw.node_limit = 300;
        let mut small = ExploreConfig::new(h);
        small.node_limit = 7;
        [ExploreConfig::new(h), raw, small]
    }

    const MAX_PATHS: [Option<u64>; 7] = [
        None,
        Some(0),
        Some(1),
        Some(2),
        Some(5),
        Some(17),
        Some(100),
    ];

    fn meter(max_paths: Option<u64>) -> BudgetMeter {
        match max_paths {
            None => BudgetMeter::unlimited(),
            Some(n) => BudgetMeter::new(&Budget::default().with_max_paths(n)),
        }
    }

    fn assert_same(a: &Exploration, b: &Exploration) {
        assert_eq!(a.nodes(), b.nodes(), "arenas differ");
        assert_eq!(a.generated, b.generated, "generated");
        assert_eq!(a.pruned, b.pruned, "pruned");
        assert_eq!(a.complete_span, b.complete_span, "complete span");
        assert_eq!(a.interrupted, b.interrupted, "interrupted");
        assert_eq!(a.horizon, b.horizon, "horizon");
    }

    fn is_scaled(x: &Explorer) -> bool {
        matches!(x.search, Domain::Scaled(_))
    }

    /// An explorer forced into the exact-rational domain.
    fn exact_explorer(task: &DrtTask, cfg: &ExploreConfig) -> Explorer {
        let mut x = Explorer::new(task, cfg);
        x.search = Domain::Exact(Search::new(ScaledGraph::exact(task)));
        x
    }

    /// Runs the search in scaled `i128` and in exact `Q` under every
    /// configuration and path cap, and asserts identical explorations
    /// (parents included) and identical rbfs.
    fn assert_domains_agree(task: &DrtTask, horizons: &[Q]) {
        let scaled = ScaledGraph::new(task).expect("task scales to i128");
        for &h in horizons {
            assert!(scaled_horizon(&scaled, h).is_some(), "scaled horizon fits");
            for cfg in configs(h) {
                for mp in MAX_PATHS {
                    let mut int = Explorer::new(task, &cfg);
                    int.extend_to(h, &meter(mp)).unwrap();
                    assert!(is_scaled(&int), "expected the i128 domain");
                    let mut rat = exact_explorer(task, &cfg);
                    rat.extend_to(h, &meter(mp)).unwrap();
                    assert_eq!(
                        int.rbf(h),
                        rat.rbf(h),
                        "rbf at horizon {h}, cap {mp:?}, {cfg:?}"
                    );
                    assert_same(&int.exploration(h), &rat.exploration(h));
                }
            }
        }
    }

    #[test]
    fn scaled_and_exact_explorations_agree_on_rational_tasks() {
        srtw_detrand::prop::forall("explorer_i128_vs_q", rational_task, |task| {
            assert_domains_agree(task, &[Q::ZERO, q(5, 3), q(37, 2), Q::int(60), q(301, 2)]);
        });
    }

    #[test]
    fn scaled_and_exact_explorations_agree_on_adversarial_tasks() {
        for seed in 0..4 {
            let coprime = adopt!(srtw_gen::adversarial_coprime(3 + seed as usize, seed));
            assert_domains_agree(
                &coprime,
                &[Q::int(20_000), Q::int(400_000), q(3_000_000_001, 2)],
            );
            let chain = adopt!(srtw_gen::adversarial_deep_chain(30, seed));
            assert_domains_agree(&chain, &[Q::int(10), q(201, 2), Q::int(700)]);
            let dense = adopt!(srtw_gen::adversarial_dense(6, seed));
            assert_domains_agree(&dense, &[Q::int(5), q(41, 3), Q::int(30)]);
        }
    }

    /// Every node's span and work equal the sums along its reconstructed
    /// path, and the nodes come out in non-decreasing span.
    fn assert_consistent(task: &DrtTask, ex: &Exploration) {
        for (i, n) in ex.nodes().iter().enumerate() {
            let path = ex.path_of(i);
            let work = path.iter().fold(Q::ZERO, |w, &v| w + task.wcet(v));
            let span = path.windows(2).fold(Q::ZERO, |s, pair| {
                let e = task.out_edges(pair[0]).iter().filter(|e| e.to == pair[1]);
                s + e.map(|e| e.separation).min().unwrap()
            });
            assert_eq!((n.work, n.len), (work, path.len()));
            assert!(n.span >= span && n.span <= ex.horizon.max(Q::ZERO));
        }
        assert!(ex.nodes().windows(2).all(|w| w[0].span <= w[1].span));
    }

    #[test]
    fn unscalable_denominators_explore_in_exact_rationals() {
        // Distinct primes just above 2^40: their product overflows i128,
        // so no common scale exists, while each self-loop's sums (one
        // denominator each) stay representable in Q.
        const PRIMES: [i128; 4] = [
            1_099_511_627_791,
            1_099_511_627_803,
            1_099_511_627_831,
            1_099_511_627_873,
        ];
        let mut b = DrtTaskBuilder::new("primes");
        let vs: Vec<VertexId> = PRIMES
            .iter()
            .enumerate()
            .map(|(i, &p)| b.vertex(format!("v{i}"), Q::new(3 * p + 1, p)))
            .collect();
        for (i, &v) in vs.iter().enumerate() {
            b.edge(v, v, Q::int(10 + i as i128));
        }
        let task = b.build().unwrap();
        assert!(ScaledGraph::new(&task).is_none(), "D must overflow");
        let cfg = ExploreConfig::new(Q::int(40));
        assert!(
            !is_scaled(&Explorer::new(&task, &cfg)),
            "expected the Q domain"
        );
        let ex = explore(&task, &cfg);
        // Spans 0, 10, 20, 30, 40 on v0; 0, 11, 22, 33 on v1; …
        assert_eq!(ex.nodes().len(), 5 + 4 + 4 + 4);
        assert_consistent(&task, &ex);
    }

    /// `x →1 y` with WCET denominators primes just above 2^40: the scale
    /// `D = p·p' ≈ 2^80` fits `i128`, but `2^50·D ≈ 2^130` does not.
    fn wide() -> DrtTask {
        let mut b = DrtTaskBuilder::new("wide");
        let x = b.vertex("x", Q::new(1, 1_099_511_627_791));
        let y = b.vertex("y", Q::new(1, 1_099_511_627_803));
        b.edge(x, y, Q::ONE);
        b.build().unwrap()
    }

    #[test]
    fn oversized_scaled_horizon_explores_in_exact_rationals() {
        let task = wide();
        let g = ScaledGraph::new(&task).expect("D fits");
        let horizon = Q::int(1 << 50);
        assert_eq!(scaled_horizon(&g, horizon), None);
        let mut auto = Explorer::new(&task, &ExploreConfig::new(horizon));
        auto.extend_to(horizon, &BudgetMeter::unlimited()).unwrap();
        assert!(!is_scaled(&auto), "expected the Q domain");
        let ex = explore(&task, &ExploreConfig::new(horizon));
        assert_eq!(ex.nodes().len(), 3);
        assert_consistent(&task, &ex);
        // Work, not span, can also fail the bound: 2^30 jobs of 2^100.
        let mut b = DrtTaskBuilder::new("heavy");
        let v = b.vertex("v", Q::int(1 << 100));
        b.edge(v, v, Q::ONE);
        let heavy = b.build().unwrap();
        let g = ScaledGraph::new(&heavy).expect("integers scale");
        assert_eq!(scaled_horizon(&g, Q::int(1 << 20)), Some(1 << 20));
        assert_eq!(scaled_horizon(&g, Q::int(1 << 30)), None);
    }

    /// Reads of `x` at every horizon it can answer — reached, or any once
    /// stopped — equal fresh runs under the same configuration and path
    /// cap; so do its rbfs under the default configuration.
    fn assert_reads_fresh(
        task: &DrtTask,
        x: &Explorer,
        horizons: &[Q],
        cfg: &ExploreConfig,
        mp: Option<u64>,
    ) {
        for &h in horizons {
            if x.interrupted().is_none() && x.reach.is_none_or(|r| h > r) {
                continue;
            }
            let cfg = ExploreConfig {
                horizon: h,
                ..cfg.clone()
            };
            assert_same(
                &x.exploration(h),
                &explore_metered(task, &cfg, &meter(mp)).unwrap(),
            );
            if cfg.prune && cfg.node_limit == ExploreConfig::new(h).node_limit {
                assert_eq!(
                    x.rbf(h),
                    Rbf::compute_metered(task, h, &meter(mp)).unwrap(),
                    "rbf at {h}, cap {mp:?}"
                );
            }
        }
    }

    #[test]
    fn explorer_grown_vs_fresh() {
        srtw_detrand::prop::forall("explorer_grown_vs_fresh", rational_task, |task| {
            let horizons = [Q::ZERO, q(5, 3), q(37, 2), Q::int(60), q(301, 2)];
            for cfg in configs(Q::ZERO) {
                for mp in MAX_PATHS {
                    let m = meter(mp);
                    let mut x = Explorer::new(task, &cfg);
                    for &h in &horizons {
                        x.extend_to(h, &m).unwrap();
                        assert_reads_fresh(task, &x, &horizons, &cfg, mp);
                    }
                    let last = horizons[horizons.len() - 1];
                    let cfg = ExploreConfig {
                        horizon: last,
                        ..cfg.clone()
                    };
                    assert_same(
                        &x.exploration(last),
                        &explore_metered(task, &cfg, &meter(mp)).unwrap(),
                    );
                }
            }
        });
    }

    #[test]
    fn explorer_promotes_to_exact_rationals_mid_growth() {
        let task = wide();
        let meter = BudgetMeter::unlimited();
        let (low, high) = (Q::int(7), Q::int(1 << 50));
        let mut x = Explorer::new(&task, &ExploreConfig::new(low));
        x.extend_to(low, &meter).unwrap();
        assert!(is_scaled(&x), "expected the i128 domain at {low}");
        assert_same(
            &x.exploration(low),
            &explore(&task, &ExploreConfig::new(low)),
        );
        x.extend_to(high, &meter).unwrap();
        assert!(!is_scaled(&x), "expected the Q domain at {high}");
        for h in [low, high] {
            let fresh = explore(&task, &ExploreConfig::new(h));
            assert_same(&x.exploration(h), &fresh);
            assert_consistent(&task, &fresh);
            assert_eq!(x.rbf(h), Rbf::compute(&task, h), "rbf at {h}");
        }
    }

    #[test]
    #[should_panic(expected = "beyond the explored prefix")]
    fn reading_past_the_reach_panics() {
        let task = diamond();
        let mut x = Explorer::new(&task, &ExploreConfig::new(Q::ZERO));
        x.extend_to(Q::int(5), &BudgetMeter::unlimited()).unwrap();
        let _ = x.exploration(Q::int(6));
    }

    #[test]
    fn scaled_horizon_is_the_floor() {
        let mut b = DrtTaskBuilder::new("thirds");
        let v = b.vertex("v", q(1, 3));
        b.edge(v, v, q(5, 2));
        let task = b.build().unwrap();
        let g = ScaledGraph::new(&task).unwrap();
        assert_eq!(g.scale, 6);
        assert_eq!(scaled_horizon(&g, q(7, 4)), Some(10));
        assert_eq!(scaled_horizon(&g, Q::int(5)), Some(30));
        assert_eq!(scaled_horizon(&g, q(-1, 4)), Some(-2));
        // Spans 0, 5/2, 5 at horizon 5 — and 5 is excluded at 49/10.
        assert_eq!(
            explore(&task, &ExploreConfig::new(Q::int(5))).nodes().len(),
            3
        );
        assert_eq!(
            explore(&task, &ExploreConfig::new(q(49, 10))).nodes().len(),
            2
        );
    }
}
