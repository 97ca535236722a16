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

use crate::digraph::{DrtTask, VertexId};
use srtw_minplus::{BudgetKind, BudgetMeter, Q};
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
    /// Optional bound on the number of jobs per path (`None` = unbounded).
    /// Used by the abstraction-depth ablation.
    pub max_len: Option<usize>,
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
    /// Standard configuration: given horizon, unbounded length, pruning on.
    pub fn new(horizon: Q) -> ExploreConfig {
        ExploreConfig {
            horizon,
            max_len: None,
            prune: true,
            node_limit: 1_000_000,
        }
    }

    /// Limits the number of jobs per path.
    #[must_use]
    pub fn with_max_len(mut self, max_len: usize) -> ExploreConfig {
        self.max_len = Some(max_len);
        self
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
    /// Whether path length was capped (some continuations not explored).
    pub truncated_by_len: bool,
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
        let mut rev = Vec::new();
        let mut cur = Some(node_index);
        while let Some(i) = cur {
            rev.push(self.nodes[i].vertex);
            cur = self.nodes[i].parent;
        }
        rev.reverse();
        rev
    }

    /// Finds the arena index of a node (identity by value triple).
    pub fn index_of(&self, node: &PathNode) -> Option<usize> {
        self.nodes.iter().position(|n| n == node)
    }
}

/// Heap entry ordered by ascending span (BinaryHeap is a max-heap, so the
/// ordering is reversed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Candidate {
    span: Q,
    work: Q,
    vertex: VertexId,
    len: usize,
    parent: Option<usize>,
}

impl Ord for Candidate {
    fn cmp(&self, other: &Candidate) -> Ordering {
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

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Candidate) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Per-vertex Pareto frontier: entries `(span, work, node_index)` strictly
/// increasing in both `span` and `work`.
#[derive(Debug, Default, Clone)]
struct Frontier {
    entries: Vec<(Q, Q, usize)>,
}

impl Frontier {
    /// Is `(span, work)` dominated by an existing entry?
    fn dominated(&self, span: Q, work: Q) -> bool {
        // Last entry with span' ≤ span carries the best work at or before
        // `span` (entries are increasing in both coordinates).
        match self.entries.iter().rev().find(|e| e.0 <= span) {
            Some(&(_, w, _)) => w >= work,
            None => false,
        }
    }

    /// Inserts a non-dominated `(span, work, idx)` and evicts entries it
    /// dominates.
    fn insert(&mut self, span: Q, work: Q, idx: usize) {
        let pos = self.entries.partition_point(|e| e.0 < span);
        // Evict subsequent entries with work ≤ work (they have span ≥ span).
        let mut end = pos;
        while end < self.entries.len() && self.entries[end].1 <= work {
            end += 1;
        }
        self.entries.splice(pos..end, [(span, work, idx)]);
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
pub fn explore(task: &DrtTask, cfg: &ExploreConfig) -> Exploration {
    explore_metered(task, cfg, &BudgetMeter::unlimited())
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
pub fn explore_metered(task: &DrtTask, cfg: &ExploreConfig, meter: &BudgetMeter) -> Exploration {
    let mut nodes: Vec<PathNode> = Vec::new();
    let mut frontiers: Vec<Frontier> = vec![Frontier::default(); task.num_vertices()];
    let mut heap: BinaryHeap<Candidate> = BinaryHeap::new();
    let mut generated = 0usize;
    let mut pruned = 0usize;
    let mut truncated_by_len = false;
    let mut complete_span = cfg.horizon;
    let mut interrupted: Option<BudgetKind> = None;

    for v in task.vertex_ids() {
        generated += 1;
        heap.push(Candidate {
            span: Q::ZERO,
            work: task.wcet(v),
            vertex: v,
            len: 1,
            parent: None,
        });
    }

    while let Some(c) = heap.pop() {
        if !meter.tick_path() {
            interrupted = meter.tripped().or(Some(BudgetKind::Paths));
            complete_span = c.span;
            break;
        }
        if cfg.prune && frontiers[c.vertex.index()].dominated(c.span, c.work) {
            pruned += 1;
            continue;
        }
        if !cfg.prune {
            // Even without pruning, drop exact duplicates to stay finite.
            if nodes
                .iter()
                .any(|n| n.vertex == c.vertex && n.span == c.span && n.work == c.work && n.len == c.len)
            {
                pruned += 1;
                continue;
            }
        }
        let idx = nodes.len();
        if idx >= cfg.node_limit {
            interrupted = Some(BudgetKind::Paths);
            complete_span = c.span;
            break;
        }
        nodes.push(PathNode {
            vertex: c.vertex,
            span: c.span,
            work: c.work,
            len: c.len,
            parent: c.parent,
        });
        if cfg.prune {
            frontiers[c.vertex.index()].insert(c.span, c.work, idx);
        }
        if let Some(ml) = cfg.max_len {
            if c.len >= ml {
                if !task.out_edges(c.vertex).is_empty() {
                    truncated_by_len = true;
                }
                continue;
            }
        }
        for e in task.out_edges(c.vertex) {
            let span = c.span + e.separation;
            if span > cfg.horizon {
                continue;
            }
            generated += 1;
            heap.push(Candidate {
                span,
                work: c.work + task.wcet(e.to),
                vertex: e.to,
                len: c.len + 1,
                parent: Some(idx),
            });
        }
    }

    Exploration {
        nodes,
        generated,
        pruned,
        horizon: cfg.horizon,
        truncated_by_len,
        complete_span,
        interrupted,
    }
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
    fn max_len_truncation_flag() {
        let mut b = DrtTaskBuilder::new("loop");
        let v = b.vertex("v", Q::ONE);
        b.edge(v, v, Q::ONE);
        let task = b.build().unwrap();
        let ex = explore(&task, &ExploreConfig::new(Q::int(50)).with_max_len(3));
        assert!(ex.truncated_by_len);
        assert!(ex.nodes().iter().all(|n| n.len <= 3));
        let full = explore(&task, &ExploreConfig::new(Q::int(50)));
        assert!(!full.truncated_by_len);
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
        let ex = explore_metered(&task, &cfg, &meter);
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
        let mut f = Frontier::default();
        f.insert(Q::ZERO, Q::ONE, 0);
        assert!(f.dominated(Q::ONE, Q::ONE));
        assert!(!f.dominated(Q::ONE, Q::TWO));
        f.insert(Q::ONE, Q::int(3), 1);
        // New stronger entry at same span evicts weaker-later ones.
        f.insert(Q::ONE, Q::int(5), 2);
        assert!(f.dominated(Q::int(2), Q::int(5)));
        assert_eq!(f.entries.len(), 2);
    }
}
