//! Classical task models as special cases of the digraph model.
//!
//! Periodic, sporadic, and generalized-multiframe (GMF) tasks all embed
//! into [`DrtTask`]s — a single self-loop vertex for (s)periodic tasks, a
//! ring for GMF. The converters here make it easy to mix classical and
//! structural workload in one analysis and serve as the baselines in the
//! experiments.

use crate::digraph::{DrtTask, DrtTaskBuilder};
use crate::error::WorkloadError;
use srtw_minplus::{Curve, Piece, Q, Tail};

/// A strictly periodic task (optionally with release jitter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeriodicTask {
    /// Release period (strictly positive).
    pub period: Q,
    /// Worst-case execution time (strictly positive).
    pub wcet: Q,
    /// Release jitter (non-negative).
    pub jitter: Q,
    /// Relative deadline (defaults to the period if `None`).
    pub deadline: Option<Q>,
}

impl PeriodicTask {
    /// Creates a jitter-free periodic task with implicit deadline.
    pub fn new(period: Q, wcet: Q) -> PeriodicTask {
        PeriodicTask {
            period,
            wcet,
            jitter: Q::ZERO,
            deadline: None,
        }
    }

    /// Validates the parameters.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        if !self.period.is_positive() {
            return Err(WorkloadError::InvalidParameter {
                reason: "period must be positive",
            });
        }
        if !self.wcet.is_positive() {
            return Err(WorkloadError::InvalidParameter {
                reason: "wcet must be positive",
            });
        }
        if self.jitter.is_negative() {
            return Err(WorkloadError::InvalidParameter {
                reason: "jitter must be non-negative",
            });
        }
        Ok(())
    }

    /// Embeds the task (ignoring jitter, which the graph model cannot
    /// shrink below the period) as a one-vertex self-loop digraph. With
    /// jitter zero the embedding is exact; with jitter the digraph is a
    /// sporadic relaxation using separation `period − jitter` (sound).
    pub fn to_drt(&self, name: impl Into<String>) -> Result<DrtTask, WorkloadError> {
        self.validate()?;
        let sep = self.period - self.jitter;
        if !sep.is_positive() {
            return Err(WorkloadError::InvalidParameter {
                reason: "jitter must be smaller than the period for a digraph embedding",
            });
        }
        let mut b = DrtTaskBuilder::new(name);
        let v = b.vertex("job", self.wcet);
        if let Some(d) = self.deadline {
            b.set_deadline(v, d);
        } else {
            b.set_deadline(v, self.period);
        }
        b.edge(v, v, sep);
        b.build()
    }

    /// The exact upper arrival curve `α(Δ) = e · (⌊(Δ + j) / p⌋ + 1)`
    /// (the classical PJ curve).
    ///
    /// # Examples
    ///
    /// ```
    /// use srtw_workload::PeriodicTask;
    /// use srtw_minplus::Q;
    /// let t = PeriodicTask::new(Q::int(10), Q::int(3));
    /// let a = t.arrival_curve();
    /// assert_eq!(a.eval(Q::ZERO), Q::int(3));
    /// assert_eq!(a.eval(Q::int(10)), Q::int(6));
    /// ```
    pub fn arrival_curve(&self) -> Curve {
        let p = self.period;
        let e = self.wcet;
        let j = self.jitter;
        // Value at 0: e · (⌊j/p⌋ + 1); next jump where (Δ + j)/p crosses the
        // next integer: Δ₁ = (⌊j/p⌋ + 1)·p − j.
        let k0 = Q::int(j.checked_div(p).expect("p > 0").floor()) + Q::ONE;
        let t1 = k0 * p - j;
        if t1.is_zero() || t1 == p {
            // Phase aligns with the grid: plain staircase (possibly lifted).
            return Curve::staircase(p, e).shift_up(e * (k0 - Q::ONE));
        }
        let pieces = vec![
            Piece::new(Q::ZERO, e * k0, Q::ZERO),
            Piece::new(t1, e * (k0 + Q::ONE), Q::ZERO),
        ];
        Curve::new(
            pieces,
            Tail::Periodic {
                pattern_start: 1,
                period: p,
                increment: e,
            },
        )
        .expect("periodic arrival curve invalid")
    }
}

/// A sporadic task: minimum inter-arrival separation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SporadicTask {
    /// Minimum inter-arrival time (strictly positive).
    pub min_interarrival: Q,
    /// Worst-case execution time (strictly positive).
    pub wcet: Q,
    /// Relative deadline (defaults to `min_interarrival` if `None`).
    pub deadline: Option<Q>,
}

impl SporadicTask {
    /// Creates a sporadic task with implicit deadline.
    pub fn new(min_interarrival: Q, wcet: Q) -> SporadicTask {
        SporadicTask {
            min_interarrival,
            wcet,
            deadline: None,
        }
    }

    /// Embeds the task exactly as a one-vertex self-loop digraph (the DRT
    /// semantics of minimum separations *is* the sporadic semantics).
    pub fn to_drt(&self, name: impl Into<String>) -> Result<DrtTask, WorkloadError> {
        if !self.min_interarrival.is_positive() || !self.wcet.is_positive() {
            return Err(WorkloadError::InvalidParameter {
                reason: "sporadic task needs positive separation and wcet",
            });
        }
        let mut b = DrtTaskBuilder::new(name);
        let v = b.vertex("job", self.wcet);
        b.set_deadline(v, self.deadline.unwrap_or(self.min_interarrival));
        b.edge(v, v, self.min_interarrival);
        b.build()
    }

    /// The exact upper arrival curve `α(Δ) = e · (⌊Δ/p⌋ + 1)`.
    pub fn arrival_curve(&self) -> Curve {
        Curve::staircase(self.min_interarrival, self.wcet)
    }
}

/// One frame of a generalized multiframe (GMF) task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    /// WCET of this frame's job.
    pub wcet: Q,
    /// Minimum separation to the *next* frame's release.
    pub separation: Q,
    /// Relative deadline of this frame's job, if any.
    pub deadline: Option<Q>,
}

/// A generalized multiframe task: a fixed cyclic sequence of frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiframeTask {
    /// The frames, visited cyclically in order.
    pub frames: Vec<Frame>,
}

impl MultiframeTask {
    /// Creates a GMF task from `(wcet, separation)` pairs.
    pub fn new(frames: impl IntoIterator<Item = (Q, Q)>) -> MultiframeTask {
        MultiframeTask {
            frames: frames
                .into_iter()
                .map(|(wcet, separation)| Frame {
                    wcet,
                    separation,
                    deadline: None,
                })
                .collect(),
        }
    }

    /// Embeds the task exactly as a ring digraph.
    pub fn to_drt(&self, name: impl Into<String>) -> Result<DrtTask, WorkloadError> {
        if self.frames.is_empty() {
            return Err(WorkloadError::InvalidParameter {
                reason: "multiframe task needs at least one frame",
            });
        }
        let mut b = DrtTaskBuilder::new(name);
        let ids: Vec<_> = self
            .frames
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let v = b.vertex(format!("frame{i}"), f.wcet);
                if let Some(d) = f.deadline {
                    b.set_deadline(v, d);
                }
                v
            })
            .collect();
        for (i, f) in self.frames.iter().enumerate() {
            let next = ids[(i + 1) % ids.len()];
            b.edge(ids[i], next, f.separation);
        }
        b.build()
    }
}

/// A node of a recurring-branching task tree: a job plus the alternative
/// continuations (at most one branch is taken per instance).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RbNode {
    /// Label for reports.
    pub label: String,
    /// WCET of this node's job.
    pub wcet: Q,
    /// Relative deadline, if any.
    pub deadline: Option<Q>,
    /// Alternative continuations: `(min separation to the child, child)`.
    pub children: Vec<(Q, RbNode)>,
}

impl RbNode {
    /// A leaf node.
    pub fn leaf(label: impl Into<String>, wcet: Q) -> RbNode {
        RbNode {
            label: label.into(),
            wcet,
            deadline: None,
            children: Vec::new(),
        }
    }

    /// Adds an alternative continuation, returning `self` for chaining.
    #[must_use]
    pub fn branch(mut self, separation: Q, child: RbNode) -> RbNode {
        self.children.push((separation, child));
        self
    }
}

/// A recurring-branching task (Baruah's RB model): each instance executes
/// one root-to-leaf path of a tree; after a leaf, the next instance's root
/// may be released no earlier than `restart_separation` after the leaf.
///
/// The embedding into the digraph model is exact: tree edges become graph
/// edges, every leaf links back to the root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecurringBranchingTask {
    /// The behaviour tree.
    pub root: RbNode,
    /// Minimum separation from a leaf's release to the next root release.
    pub restart_separation: Q,
}

impl RecurringBranchingTask {
    /// Embeds the task as a digraph (tree edges + leaf→root restarts).
    pub fn to_drt(&self, name: impl Into<String>) -> Result<DrtTask, WorkloadError> {
        if !self.restart_separation.is_positive() {
            return Err(WorkloadError::InvalidParameter {
                reason: "restart separation must be positive",
            });
        }
        let mut b = DrtTaskBuilder::new(name);

        // Iterative DFS: add vertices, remember leaves.
        struct Frame<'a> {
            node: &'a RbNode,
            parent: Option<(crate::digraph::VertexId, Q)>,
        }
        let mut leaves = Vec::new();
        let mut stack = vec![Frame {
            node: &self.root,
            parent: None,
        }];
        let mut root_id = None;
        while let Some(f) = stack.pop() {
            let id = match f.node.deadline {
                Some(d) => b.vertex_with_deadline(f.node.label.clone(), f.node.wcet, d),
                None => b.vertex(f.node.label.clone(), f.node.wcet),
            };
            if let Some((pid, sep)) = f.parent {
                b.edge(pid, id, sep);
            } else {
                root_id = Some(id);
            }
            if f.node.children.is_empty() {
                leaves.push(id);
            }
            for (sep, child) in &f.node.children {
                stack.push(Frame {
                    node: child,
                    parent: Some((id, *sep)),
                });
            }
        }
        let root_id = root_id.expect("tree has a root");
        for leaf in leaves {
            b.edge(leaf, root_id, self.restart_separation);
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rbf::Rbf;
    use crate::utilization::long_run_utilization;
    use srtw_minplus::q;

    #[test]
    fn periodic_embedding_matches_arrival_curve() {
        let t = PeriodicTask::new(Q::int(10), Q::int(3));
        let drt = t.to_drt("p").unwrap();
        let rbf = Rbf::compute(&drt, Q::int(60));
        let alpha = t.arrival_curve();
        for i in 0..=60 {
            assert_eq!(rbf.eval(Q::int(i)), alpha.eval(Q::int(i)), "at {i}");
        }
        assert_eq!(long_run_utilization(&drt), Ok(q(3, 10)));
    }

    #[test]
    fn periodic_with_jitter_curve() {
        let t = PeriodicTask {
            period: Q::int(10),
            wcet: Q::int(2),
            jitter: Q::int(4),
            deadline: None,
        };
        let a = t.arrival_curve();
        // α(Δ) = 2·(⌊(Δ+4)/10⌋ + 1): α(0)=2, α(6)=4, α(16)=6.
        assert_eq!(a.eval(Q::ZERO), Q::int(2));
        assert_eq!(a.eval(q(59, 10)), Q::int(2));
        assert_eq!(a.eval(Q::int(6)), Q::int(4));
        assert_eq!(a.eval(Q::int(15)), Q::int(4));
        assert_eq!(a.eval(Q::int(16)), Q::int(6));
        assert_eq!(a.rate(), q(1, 5));
    }

    #[test]
    fn periodic_jitter_multiple_of_period() {
        let t = PeriodicTask {
            period: Q::int(10),
            wcet: Q::int(2),
            jitter: Q::int(10),
            deadline: None,
        };
        let a = t.arrival_curve();
        // α(Δ) = 2·(⌊(Δ+10)/10⌋ + 1) = 2·(⌊Δ/10⌋ + 2).
        assert_eq!(a.eval(Q::ZERO), Q::int(4));
        assert_eq!(a.eval(Q::int(10)), Q::int(6));
        // Digraph embedding must reject jitter ≥ period.
        assert!(t.to_drt("x").is_err());
    }

    #[test]
    fn sporadic_embedding() {
        let t = SporadicTask::new(Q::int(7), Q::int(2));
        let drt = t.to_drt("s").unwrap();
        let rbf = Rbf::compute(&drt, Q::int(30));
        let a = t.arrival_curve();
        for i in 0..=30 {
            assert_eq!(rbf.eval(Q::int(i)), a.eval(Q::int(i)));
        }
        assert_eq!(drt.deadline(drt.vertex_ids().next().unwrap()), Some(Q::int(7)));
    }

    #[test]
    fn multiframe_ring() {
        // Frames: (5, 10), (1, 10): ring with alternating demand.
        let t = MultiframeTask::new([(Q::int(5), Q::int(10)), (Q::ONE, Q::int(10))]);
        let drt = t.to_drt("gmf").unwrap();
        assert_eq!(drt.num_vertices(), 2);
        assert_eq!(long_run_utilization(&drt), Ok(q(6, 20)));
        let rbf = Rbf::compute(&drt, Q::int(40));
        // Worst window starts at the heavy frame: 5, then +1 at 10, +5 at 20...
        assert_eq!(rbf.eval(Q::ZERO), Q::int(5));
        assert_eq!(rbf.eval(Q::int(10)), Q::int(6));
        assert_eq!(rbf.eval(Q::int(20)), Q::int(11));
    }

    #[test]
    fn validation_errors() {
        assert!(PeriodicTask::new(Q::ZERO, Q::ONE).validate().is_err());
        assert!(PeriodicTask::new(Q::ONE, Q::ZERO).validate().is_err());
        assert!(SporadicTask::new(Q::ZERO, Q::ONE).to_drt("x").is_err());
        assert!(MultiframeTask::new(std::iter::empty()).to_drt("x").is_err());
        let bad_jitter = PeriodicTask {
            period: Q::ONE,
            wcet: Q::ONE,
            jitter: -Q::ONE,
            deadline: None,
        };
        assert!(bad_jitter.validate().is_err());
    }

    #[test]
    fn recurring_branching_embedding() {
        // Root (wcet 2) branches into a cheap path (1) or expensive (4).
        let tree = RbNode {
            label: "root".into(),
            wcet: Q::int(2),
            deadline: Some(Q::int(10)),
            children: vec![],
        }
        .branch(Q::int(5), RbNode::leaf("cheap", Q::ONE))
        .branch(Q::int(5), RbNode::leaf("expensive", Q::int(4)));
        let task = RecurringBranchingTask {
            root: tree,
            restart_separation: Q::int(10),
        };
        let drt = task.to_drt("rb").unwrap();
        assert_eq!(drt.num_vertices(), 3);
        // Tree edges (2) + leaf restarts (2).
        assert_eq!(drt.num_edges(), 4);
        assert!(drt.has_cycle());
        // Utilization: worst cycle root→expensive→root: (2+4)/(5+10) = 2/5.
        assert_eq!(long_run_utilization(&drt), Ok(q(2, 5)));
        // rbf picks the expensive branch.
        let rbf = Rbf::compute(&drt, Q::int(20));
        assert_eq!(rbf.eval(Q::ZERO), Q::int(4));
        assert_eq!(rbf.eval(Q::int(5)), Q::int(6)); // root + expensive
        // Deadline preserved on the root.
        let root = drt
            .vertex_ids()
            .find(|&v| drt.vertex(v).label == "root")
            .unwrap();
        assert_eq!(drt.deadline(root), Some(Q::int(10)));
    }

    #[test]
    fn recurring_branching_validation() {
        let task = RecurringBranchingTask {
            root: RbNode::leaf("r", Q::ONE),
            restart_separation: Q::ZERO,
        };
        assert!(task.to_drt("bad").is_err());
        // Single-node tree: self-restart loop.
        let ok = RecurringBranchingTask {
            root: RbNode::leaf("r", Q::ONE),
            restart_separation: Q::int(5),
        }
        .to_drt("ok")
        .unwrap();
        assert_eq!(ok.num_edges(), 1);
        assert_eq!(long_run_utilization(&ok), Ok(q(1, 5)));
    }

    #[test]
    fn recurring_branching_nested_tree() {
        // root → a → (a1 | a2), root → b.
        let tree = RbNode {
            label: "root".into(),
            wcet: Q::ONE,
            deadline: None,
            children: vec![],
        }
        .branch(
            Q::int(4),
            RbNode::leaf("a", Q::int(2))
                .branch(Q::int(3), RbNode::leaf("a1", Q::ONE))
                .branch(Q::int(3), RbNode::leaf("a2", Q::int(3))),
        )
        .branch(Q::int(4), RbNode::leaf("b", Q::ONE));
        let drt = RecurringBranchingTask {
            root: tree,
            restart_separation: Q::int(8),
        }
        .to_drt("nested")
        .unwrap();
        assert_eq!(drt.num_vertices(), 5);
        // Edges: root→a, root→b, a→a1, a→a2 (4 tree) + 3 leaves→root.
        assert_eq!(drt.num_edges(), 7);
        // Worst cycle: root→a→a2→root = (1+2+3)/(4+3+8) = 6/15 = 2/5.
        assert_eq!(long_run_utilization(&drt), Ok(q(2, 5)));
    }
}
