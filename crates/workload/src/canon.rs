//! Canonical forms and structural hashes of DRT tasks.
//!
//! Two parsed systems that differ only in *presentation* — vertex
//! insertion order, vertex labels, task names, task order — describe the
//! same workload and admit the same delay bounds. This module computes a
//! **canonical form**: a relabelling-insensitive serialization of a
//! [`DrtTask`] (and, via [`combine_forms`], of a whole system) such that
//!
//! * isomorphic presentations produce byte-equal forms (and therefore
//!   equal [`CanonicalForm::hash`] values), and
//! * **form equality always implies isomorphism** — the form is a full
//!   serialization of a concretely relabelled graph, so two equal forms
//!   describe literally the same graph. A content-addressed cache that
//!   verifies form equality on every hit can never serve a wrong result;
//!   hash collisions and canonicalization incompleteness both degrade to
//!   cache *misses*, never to wrong answers.
//!
//! The canonical labelling uses Weisfeiler–Leman colour refinement over
//! `(WCET, deadline, sorted in/out edge (separation, colour) multisets)`
//! followed by individualization of ambiguous colour classes with a
//! branch search (take the lexicographically smallest code over all
//! branches). A colouring that refinement already makes discrete — most
//! tasks — is its own single leaf. Symmetric graphs (rings, complete
//! digraphs, stars) are where the search branches, and two mechanisms
//! keep them to a few leaves without changing the minimum (see
//! `Canonicalizer::search`): automorphism pruning, which skips branches
//! that an automorphism found from two equal leaves maps onto explored
//! ones, and a single descent below a uniform colouring, whose leaves
//! are all automorphic. A leaf cap bounds what is left; when it trips
//! the form is the least code seen so far, which weakens *completeness*
//! (an isomorphic copy may canonicalize differently — a cache miss) but
//! never *soundness*.

use crate::digraph::{DrtTask, VertexId};
use srtw_minplus::Q;

/// SplitMix64 finalizer — the workspace's stable mixing primitive
/// (`std::hash` is explicitly not stable across releases, so cache keys
/// must not depend on it).
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Incremental two-lane structural hasher over `u64` lanes.
///
/// Deterministic across platforms and releases (unlike
/// `std::collections::hash_map::DefaultHasher`), producing a 128-bit
/// digest. Used for canonical hashes and for the service's presentation
/// digests.
#[derive(Debug, Clone)]
pub struct StructHasher {
    lo: u64,
    hi: u64,
    count: u64,
}

impl StructHasher {
    /// A hasher seeded with a domain-separation tag.
    pub fn new(tag: u64) -> StructHasher {
        StructHasher {
            lo: mix64(tag ^ 0x5274_775f_6c6f_0001),
            hi: mix64(tag ^ 0x5274_775f_6869_0002),
            count: 0,
        }
    }

    /// Absorbs one lane.
    pub fn absorb(&mut self, v: u64) {
        self.count = self.count.wrapping_add(1);
        self.lo = mix64(self.lo ^ v);
        self.hi = mix64(self.hi.rotate_left(17) ^ v.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    }

    /// Absorbs an `i128` as two lanes.
    pub fn absorb_i128(&mut self, v: i128) {
        self.absorb(v as u64);
        self.absorb((v >> 64) as u64);
    }

    /// Absorbs an exact rational as its reduced numerator and denominator.
    pub fn absorb_q(&mut self, q: Q) {
        self.absorb_i128(q.numer());
        self.absorb_i128(q.denom());
    }

    /// Absorbs raw bytes (length-prefixed, 8 bytes per lane).
    pub fn absorb_bytes(&mut self, bytes: &[u8]) {
        self.absorb(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut lane = [0u8; 8];
            lane[..chunk.len()].copy_from_slice(chunk);
            self.absorb(u64::from_le_bytes(lane));
        }
    }

    /// The 128-bit digest.
    pub fn finish(&self) -> u128 {
        let a = mix64(self.lo ^ self.count);
        let b = mix64(self.hi ^ self.count.rotate_left(32));
        ((a as u128) << 64) | b as u128
    }

    /// The digest truncated to 64 bits (colour values, presentation keys).
    pub fn finish64(&self) -> u64 {
        mix64(self.lo ^ self.hi ^ self.count)
    }
}

/// Encodes a `Q` into code lanes (reduced numerator then denominator,
/// each as two `u64` halves).
fn push_q(code: &mut Vec<u64>, q: Q) {
    let n = q.numer();
    let d = q.denom();
    code.push(n as u64);
    code.push((n >> 64) as u64);
    code.push(d as u64);
    code.push((d >> 64) as u64);
}

/// A canonical, presentation-insensitive serialization of a task or
/// system.
///
/// Equality of forms is equality of the underlying relabelled graphs —
/// the decisive property for content-addressed caching (see the module
/// docs). Forms are cheap to compare (`Vec<u64>` equality) and hash to a
/// stable 128-bit digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonicalForm {
    code: Vec<u64>,
}

impl CanonicalForm {
    /// Reconstructs a form from its code lanes, e.g. when loading a
    /// spilled cache entry from disk. The caller should verify the
    /// round-trip (`from_code(lanes).hash() == stored_hash`) before
    /// trusting a deserialized form — `hash()` is recomputed from the
    /// lanes, so a corrupt record can only fail verification, never
    /// impersonate a different system.
    pub fn from_code(code: Vec<u64>) -> CanonicalForm {
        CanonicalForm { code }
    }

    /// The code lanes (exposed for tests and size accounting).
    pub fn code(&self) -> &[u64] {
        &self.code
    }

    /// Approximate heap size of this form in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.code.len() * 8 + std::mem::size_of::<CanonicalForm>()
    }

    /// The stable 128-bit structural hash of the form.
    pub fn hash(&self) -> u128 {
        let mut h = StructHasher::new(0xca40_4f4e);
        for &lane in &self.code {
            h.absorb(lane);
        }
        h.finish()
    }
}

/// Maximum number of leaves (completed labellings) the
/// individualization search visits before it settles for the least code
/// seen so far. Automorphism pruning and the uniform descent (see
/// [`Canonicalizer::search`]) resolve a ring in at most `1 + log2 n`
/// leaves (two when its vertices are listed in ring order) and a
/// complete digraph or a star in one, so the cap only bounds graphs whose
/// colour classes refinement cannot split and whose branches are not
/// automorphic.
const LEAF_CAP: usize = 64;

/// The cells one vertex joins completely, as `(cell, separation)`.
type Joins = Vec<(usize, Q)>;

/// The first leaf the search reached: the vertices individualized on the
/// way, its canonical order and its code.
struct FirstLeaf {
    path: Vec<usize>,
    order: Vec<usize>,
    code: Vec<u64>,
}

struct Canonicalizer<'a> {
    task: &'a DrtTask,
    /// Out-edges as `(separation, target)` per vertex.
    out: Vec<Vec<(Q, usize)>>,
    /// In-edges as `(separation, source)` per vertex.
    inn: Vec<Vec<(Q, usize)>>,
    leaves: usize,
    /// The least code seen, when it is less than the first leaf's.
    best: Option<Vec<u64>>,
    /// The vertices individualized from the root to the current node.
    path: Vec<usize>,
    first: Option<FirstLeaf>,
    /// Automorphisms found so far, as vertex maps (`g[v]` is `v`'s image).
    automorphisms: Vec<Vec<usize>>,
    /// Pending back-jump: unwind to the node at this depth.
    jump: Option<usize>,
}

impl<'a> Canonicalizer<'a> {
    fn new(task: &'a DrtTask) -> Canonicalizer<'a> {
        let n = task.num_vertices();
        let mut out = vec![Vec::new(); n];
        let mut inn = vec![Vec::new(); n];
        for v in task.vertex_ids() {
            for e in task.out_edges(v) {
                out[v.index()].push((e.separation, e.to.index()));
                inn[e.to.index()].push((e.separation, v.index()));
            }
        }
        Canonicalizer {
            task,
            out,
            inn,
            leaves: 0,
            best: None,
            path: Vec::new(),
            first: None,
            automorphisms: Vec::new(),
            jump: None,
        }
    }

    /// Initial colours from vertex-local data only.
    fn initial_colors(&self) -> Vec<u64> {
        self.task
            .vertex_ids()
            .map(|v| {
                let mut h = StructHasher::new(0x1e17);
                h.absorb_q(self.task.wcet(v));
                match self.task.deadline(v) {
                    Some(d) => {
                        h.absorb(1);
                        h.absorb_q(d);
                    }
                    None => h.absorb(0),
                }
                h.finish64()
            })
            .collect()
    }

    /// One WL round: recolour every vertex from its colour and the sorted
    /// `(separation, neighbour colour)` multisets of its out- and
    /// in-edges. Colour values are themselves hashes of values, so the
    /// result is independent of vertex order.
    fn wl_round(&self, colors: &[u64]) -> Vec<u64> {
        (0..colors.len())
            .map(|v| {
                let mut h = StructHasher::new(0x3177);
                h.absorb(colors[v]);
                let mut sig: Vec<(Q, u64)> = self.out[v]
                    .iter()
                    .map(|&(sep, to)| (sep, colors[to]))
                    .collect();
                sig.sort();
                h.absorb(sig.len() as u64);
                for (sep, c) in sig {
                    h.absorb_q(sep);
                    h.absorb(c);
                }
                let mut sig: Vec<(Q, u64)> = self.inn[v]
                    .iter()
                    .map(|&(sep, from)| (sep, colors[from]))
                    .collect();
                sig.sort();
                h.absorb(sig.len() as u64);
                for (sep, c) in sig {
                    h.absorb_q(sep);
                    h.absorb(c);
                }
                h.finish64()
            })
            .collect()
    }

    /// Refines until the partition (number of distinct colours) is stable.
    fn refine(&self, colors: &mut Vec<u64>) {
        let mut classes = distinct(colors);
        for _ in 0..colors.len().max(1) {
            let next = self.wl_round(colors);
            let next_classes = distinct(&next);
            *colors = next;
            if next_classes == classes {
                return;
            }
            classes = next_classes;
        }
    }

    /// Serializes the task under the canonical order `perm`
    /// (`perm[canonical index] = original index`).
    fn code_for(&self, perm: &[usize]) -> Vec<u64> {
        let n = perm.len();
        let mut canon_of = vec![0usize; n];
        for (ci, &v) in perm.iter().enumerate() {
            canon_of[v] = ci;
        }
        let mut code = Vec::with_capacity(n * 8);
        code.push(n as u64);
        for &v in perm {
            let vid = VertexId(v);
            push_q(&mut code, self.task.wcet(vid));
            match self.task.deadline(vid) {
                Some(d) => {
                    code.push(1);
                    push_q(&mut code, d);
                }
                None => code.push(0),
            }
            let mut edges: Vec<(usize, Q)> = self.out[v]
                .iter()
                .map(|&(sep, to)| (canon_of[to], sep))
                .collect();
            edges.sort();
            code.push(edges.len() as u64);
            for (to, sep) in edges {
                code.push(to as u64);
                push_q(&mut code, sep);
            }
        }
        code
    }

    /// Is the colouring discrete (all colours distinct)? If so, returns
    /// the canonical order (vertices sorted by colour).
    fn discrete_order(colors: &[u64]) -> Option<Vec<usize>> {
        let mut order: Vec<usize> = (0..colors.len()).collect();
        order.sort_by_key(|&v| colors[v]);
        for w in order.windows(2) {
            if colors[w[0]] == colors[w[1]] {
                return None;
            }
        }
        Some(order)
    }

    /// The members of the cell the search branches on: the ambiguous
    /// class with the smallest colour value — a choice depending only on
    /// colour values, not vertex order — in vertex order.
    fn target_cell(colors: &[u64]) -> Vec<usize> {
        let mut sorted = colors.to_vec();
        sorted.sort_unstable();
        let target = sorted
            .windows(2)
            .find(|w| w[0] == w[1])
            .expect("non-discrete colouring has a tied class")[0];
        (0..colors.len()).filter(|&v| colors[v] == target).collect()
    }

    /// Is the refined colouring uniform: every cell of one (WCET,
    /// deadline), and every ordered pair of cells, self-loops included,
    /// either joined completely with one separation or not at all? Then
    /// every permutation inside the cells is an automorphism, and so is
    /// every permutation fixing an individualized vertex too: all leaves
    /// below are automorphic and one descent finds their code.
    fn is_uniform(&self, colors: &[u64]) -> bool {
        let mut keys = colors.to_vec();
        keys.sort_unstable();
        keys.dedup();
        let cell: Vec<usize> = colors
            .iter()
            .map(|c| keys.binary_search(c).expect("every colour is a key"))
            .collect();
        let mut size = vec![0usize; keys.len()];
        for &c in &cell {
            size[c] += 1;
        }
        // Per cell: its first vertex and that vertex's joins, as
        // `(target cell, separation)`. A join is complete when it reaches
        // every other member of the target cell, all at one separation
        // (tasks have no parallel edges); a self-loop joins cell
        // `usize::MAX`.
        let mut first: Vec<Option<(usize, Joins)>> = vec![None; keys.len()];
        for v in 0..colors.len() {
            let mut edges: Vec<(usize, Q)> = self.out[v]
                .iter()
                .map(|&(sep, to)| (if to == v { usize::MAX } else { cell[to] }, sep))
                .collect();
            edges.sort_unstable();
            let mut joins = Vec::with_capacity(edges.len());
            for run in edges.chunk_by(|a, b| a.0 == b.0) {
                let (b, sep) = run[0];
                let full = match b {
                    usize::MAX => 1,
                    _ => size[b] - usize::from(b == cell[v]),
                };
                if run.len() != full || run.iter().any(|&(_, s)| s != sep) {
                    return false;
                }
                joins.push((b, sep));
            }
            match &first[cell[v]] {
                None => first[cell[v]] = Some((v, joins)),
                Some((r, r_joins)) => {
                    let (r, vid) = (VertexId(*r), VertexId(v));
                    if *r_joins != joins
                        || self.task.wcet(r) != self.task.wcet(vid)
                        || self.task.deadline(r) != self.task.deadline(vid)
                    {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Individualization-refinement search for the lexicographically
    /// smallest code, bounded by [`LEAF_CAP`] leaves. Every node branches
    /// on the members of [`Self::target_cell`]; the minimum over all
    /// leaves is the canonical code. Two mechanisms skip subtrees whose
    /// leaves repeat codes already seen (nauty/Traces, McKay & Piperno
    /// 2014), so the minimum is the one the full tree would give:
    ///
    /// * **Automorphism pruning.** A leaf whose code equals the first
    ///   leaf's yields the automorphism mapping one order onto the other.
    ///   A member in the orbit of an explored sibling, under the
    ///   automorphisms that fix the node's individualized prefix
    ///   pointwise, roots an image of an explored subtree and is skipped.
    ///   When that automorphism maps the first path onto the leaf's path,
    ///   the whole branch where the paths part is such an image, and the
    ///   search jumps back to the node where they part.
    /// * **Uniform descent.** Below a uniform node ([`Self::is_uniform`])
    ///   all leaves are automorphic: only the first member is descended,
    ///   down to a real leaf. Uniformity is inherited, so it is checked
    ///   until a node on the path has it.
    ///
    /// A discrete colouring is a leaf at once and costs nothing extra.
    fn search(&mut self, colors: Vec<u64>, uniform: bool) {
        if self.leaves >= LEAF_CAP {
            return;
        }
        if let Some(order) = Self::discrete_order(&colors) {
            self.leaf(order);
            return;
        }
        let uniform = uniform || self.is_uniform(&colors);
        let depth = self.path.len();
        let mut explored: Vec<usize> = Vec::new();
        // Orbits of the automorphisms fixing `self.path`, over the first
        // `absorbed` entries of `self.automorphisms`.
        let mut orbits: Vec<usize> = (0..colors.len()).collect();
        let mut absorbed = 0;
        for v in Self::target_cell(&colors) {
            if self.leaves >= LEAF_CAP || (uniform && !explored.is_empty()) {
                return;
            }
            if !explored.is_empty() {
                for g in &self.automorphisms[absorbed..] {
                    if self.path.iter().all(|&p| g[p] == p) {
                        for (a, &b) in g.iter().enumerate() {
                            union(&mut orbits, a, b);
                        }
                    }
                }
                absorbed = self.automorphisms.len();
                let root = find(&mut orbits, v);
                if explored.iter().any(|&u| find(&mut orbits, u) == root) {
                    continue;
                }
            }
            let mut branch = colors.clone();
            branch[v] = mix64(branch[v] ^ 0x1d1d_1d1d_1d1d_1d1d);
            self.refine(&mut branch);
            self.path.push(v);
            self.search(branch, uniform);
            self.path.pop();
            explored.push(v);
            match self.jump {
                Some(d) if d < depth => return,
                Some(_) => self.jump = None,
                None => {}
            }
        }
    }

    /// Records a leaf: the first, a new least code, or an automorphism
    /// when the code equals the first leaf's.
    fn leaf(&mut self, order: Vec<usize>) {
        self.leaves += 1;
        let code = self.code_for(&order);
        let Some(first) = &self.first else {
            self.first = Some(FirstLeaf {
                path: self.path.clone(),
                order,
                code,
            });
            return;
        };
        if code == first.code {
            let mut gamma = vec![0usize; order.len()];
            for (&a, &b) in first.order.iter().zip(&order) {
                gamma[a] = b;
            }
            // Depth of the node where this path leaves the first path.
            let d = first
                .path
                .iter()
                .zip(&self.path)
                .take_while(|(a, b)| a == b)
                .count();
            if self.path[..d].iter().all(|&p| gamma[p] == p) && gamma[first.path[d]] == self.path[d]
            {
                self.jump = Some(d);
            }
            self.automorphisms.push(gamma);
        } else if code < *self.best.as_ref().unwrap_or(&first.code) {
            self.best = Some(code);
        }
    }

    fn run(&mut self) -> CanonicalForm {
        let n = self.task.num_vertices();
        if n == 0 {
            return CanonicalForm { code: vec![0] };
        }
        let mut colors = self.initial_colors();
        self.refine(&mut colors);
        self.search(colors.clone(), false);
        let least = self.best.take();
        let code = match least.or_else(|| self.first.take().map(|f| f.code)) {
            Some(code) => code,
            None => {
                // No labelling completed: complete by (colour,
                // presentation order). Sound — the code still fully
                // serializes the graph — merely not canonical across
                // presentations.
                let mut order: Vec<usize> = (0..n).collect();
                order.sort_by_key(|&v| (colors[v], v));
                self.code_for(&order)
            }
        };
        CanonicalForm { code }
    }
}

/// Union–find root of `v`, halving the path on the way.
fn find(parent: &mut [usize], mut v: usize) -> usize {
    while parent[v] != v {
        parent[v] = parent[parent[v]];
        v = parent[v];
    }
    v
}

fn union(parent: &mut [usize], a: usize, b: usize) {
    let (ra, rb) = (find(parent, a), find(parent, b));
    if ra != rb {
        parent[ra.max(rb)] = ra.min(rb);
    }
}

fn distinct(colors: &[u64]) -> usize {
    let mut sorted = colors.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    sorted.len()
}

/// The canonical form of a single task. Vertex order, vertex labels and
/// the task name do not influence the result; WCETs, deadlines, edges and
/// separations all do.
pub fn canonical_task_form(task: &DrtTask) -> CanonicalForm {
    Canonicalizer::new(task).run()
}

/// Combines per-task canonical forms and an extra lane sequence (the
/// resource/server component) into a system-level canonical form.
///
/// The task multiset is order-insensitive: forms are sorted
/// lexicographically before concatenation (duplicates are kept — two
/// identical streams load the resource twice).
pub fn combine_forms(mut task_forms: Vec<CanonicalForm>, extra: &[u64]) -> CanonicalForm {
    task_forms.sort_by(|a, b| a.code.cmp(&b.code));
    let mut code = Vec::new();
    code.push(task_forms.len() as u64);
    for f in task_forms {
        code.push(f.code.len() as u64);
        code.extend_from_slice(&f.code);
    }
    code.push(0x5e7a_11ed);
    code.push(extra.len() as u64);
    code.extend_from_slice(extra);
    CanonicalForm { code }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digraph::DrtTaskBuilder;
    use srtw_detrand::Rng;
    use srtw_minplus::q;

    fn decoder_like(name: &str, swap: bool) -> DrtTask {
        // Same graph built in two different vertex insertion orders with
        // different labels.
        let mut b = DrtTaskBuilder::new(name);
        if swap {
            let p = b.vertex("beta", Q::int(6));
            let i = b.vertex_with_deadline("alpha", Q::int(12), Q::int(60));
            b.edge(i, p, Q::int(10));
            b.edge(p, p, Q::int(10));
            b.edge(p, i, Q::int(12));
        } else {
            let i = b.vertex_with_deadline("I", Q::int(12), Q::int(60));
            let p = b.vertex("P", Q::int(6));
            b.edge(i, p, Q::int(10));
            b.edge(p, p, Q::int(10));
            b.edge(p, i, Q::int(12));
        }
        b.build().unwrap()
    }

    #[test]
    fn presentation_insensitive() {
        let a = canonical_task_form(&decoder_like("one", false));
        let b = canonical_task_form(&decoder_like("two", true));
        assert_eq!(a, b);
        assert_eq!(a.hash(), b.hash());
    }

    #[test]
    fn wcet_mutation_changes_form() {
        let a = canonical_task_form(&decoder_like("t", false));
        let mut b = DrtTaskBuilder::new("t");
        let i = b.vertex_with_deadline("I", Q::int(12), Q::int(60));
        let p = b.vertex("P", Q::int(7)); // 6 → 7
        b.edge(i, p, Q::int(10));
        b.edge(p, p, Q::int(10));
        b.edge(p, i, Q::int(12));
        let b = canonical_task_form(&b.build().unwrap());
        assert_ne!(a, b);
        assert_ne!(a.hash(), b.hash());
    }

    #[test]
    fn symmetric_ring_is_rotation_invariant() {
        // A 5-ring of identical vertices: WL cannot split the single
        // colour class, so the individualization search does the work.
        // Any rotation must canonicalize identically.
        let ring = |rot: usize| {
            let mut b = DrtTaskBuilder::new("ring");
            let vs: Vec<_> = (0..5)
                .map(|i| b.vertex(format!("v{i}"), Q::int(2)))
                .collect();
            for i in 0..5 {
                b.edge(vs[(i + rot) % 5], vs[(i + rot + 1) % 5], Q::int(7));
            }
            b.build().unwrap()
        };
        let forms: Vec<_> = (0..5).map(|r| canonical_task_form(&ring(r))).collect();
        for f in &forms[1..] {
            assert_eq!(forms[0], *f);
        }
    }

    #[test]
    fn system_combination_is_task_order_insensitive() {
        let t1 = canonical_task_form(&decoder_like("a", false));
        let mut b = DrtTaskBuilder::new("b");
        let v = b.vertex("x", Q::ONE);
        b.edge(v, v, q(25, 1));
        let t2 = canonical_task_form(&b.build().unwrap());
        let s1 = combine_forms(vec![t1.clone(), t2.clone()], &[1, 2]);
        let s2 = combine_forms(vec![t2.clone(), t1.clone()], &[1, 2]);
        assert_eq!(s1, s2);
        let s3 = combine_forms(vec![t1, t2], &[1, 3]);
        assert_ne!(s1, s3);
    }

    #[test]
    fn duplicate_tasks_are_a_multiset() {
        let t = canonical_task_form(&decoder_like("a", false));
        let one = combine_forms(vec![t.clone()], &[]);
        let two = combine_forms(vec![t.clone(), t], &[]);
        assert_ne!(one, two);
    }

    /// The reference: the individualization tree walked in full, without
    /// the leaf cap or any pruning, each node branching on every member
    /// of its least tied colour class.
    fn exhaustive_code(task: &DrtTask) -> Vec<u64> {
        fn walk(c: &Canonicalizer, colors: Vec<u64>, best: &mut Option<Vec<u64>>) {
            if let Some(order) = Canonicalizer::discrete_order(&colors) {
                let code = c.code_for(&order);
                if best.as_ref().is_none_or(|b| code < *b) {
                    *best = Some(code);
                }
                return;
            }
            let mut target: Option<u64> = None;
            for (i, &c) in colors.iter().enumerate() {
                if colors.iter().enumerate().any(|(j, &d)| j != i && d == c) {
                    target = Some(target.map_or(c, |t: u64| t.min(c)));
                }
            }
            let target = target.expect("non-discrete colouring has a tied class");
            for v in (0..colors.len()).filter(|&v| colors[v] == target) {
                let mut branch = colors.clone();
                branch[v] = mix64(branch[v] ^ 0x1d1d_1d1d_1d1d_1d1d);
                c.refine(&mut branch);
                walk(c, branch, best);
            }
        }
        let c = Canonicalizer::new(task);
        let mut colors = c.initial_colors();
        c.refine(&mut colors);
        let mut best = None;
        walk(&c, colors, &mut best);
        best.expect("the tree has a leaf")
    }

    /// The form and the number of leaves the search visited.
    fn form_and_leaves(task: &DrtTask) -> (CanonicalForm, usize) {
        let mut c = Canonicalizer::new(task);
        let form = c.run();
        (form, c.leaves)
    }

    /// A task as plain data, so the harness can print and shrink it.
    #[derive(Debug, Clone)]
    struct Shape {
        family: &'static str,
        /// `(wcet, deadline)` per vertex.
        vertices: Vec<(i128, Option<i128>)>,
        /// `(from, to, separation)`.
        edges: Vec<(usize, usize, i128)>,
    }

    impl Shape {
        fn new(family: &'static str, n: usize, wcet: i128, deadline: Option<i128>) -> Shape {
            Shape {
                family,
                vertices: vec![(wcet, deadline); n],
                edges: Vec::new(),
            }
        }

        /// Adds `from → to` unless that pair is joined already.
        fn edge(&mut self, from: usize, to: usize, sep: i128) {
            if !self.edges.iter().any(|&(f, t, _)| (f, t) == (from, to)) {
                self.edges.push((from, to, sep));
            }
        }

        /// Builds the task with vertex `order[k]` inserted `k`-th, under
        /// labels `{prefix}{k}`; edges are inserted in the new order too.
        fn build(&self, order: &[usize], prefix: &str) -> DrtTask {
            let mut pos = vec![0usize; order.len()];
            for (k, &old) in order.iter().enumerate() {
                pos[old] = k;
            }
            let mut b = DrtTaskBuilder::new(prefix);
            let ids: Vec<_> = order
                .iter()
                .enumerate()
                .map(|(k, &old)| match self.vertices[old] {
                    (w, Some(d)) => {
                        b.vertex_with_deadline(format!("{prefix}{k}"), Q::int(w), Q::int(d))
                    }
                    (w, None) => b.vertex(format!("{prefix}{k}"), Q::int(w)),
                })
                .collect();
            let mut edges: Vec<_> = self
                .edges
                .iter()
                .map(|&(f, t, s)| (pos[f], pos[t], s))
                .collect();
            edges.sort_unstable();
            for (f, t, s) in edges {
                b.edge(ids[f], ids[t], Q::int(s));
            }
            b.build().expect("shapes are valid tasks")
        }

        fn identity(&self) -> Vec<usize> {
            (0..self.vertices.len()).collect()
        }
    }

    /// A directed ring of `n` identical vertices.
    fn ring(n: usize, sep: i128) -> Shape {
        let mut s = Shape::new("ring", n, 2, Some(30));
        for i in 0..n {
            s.edge(i, (i + 1) % n, sep);
        }
        s
    }

    /// The complete digraph on `n` identical vertices, no self-loops.
    fn complete(n: usize, sep: i128) -> Shape {
        let mut s = Shape::new("complete", n, 3, Some(45));
        for i in 0..n {
            for j in (0..n).filter(|&j| j != i) {
                s.edge(i, j, sep);
            }
        }
        s
    }

    /// A hub joined both ways to `k` identical leaves.
    fn star(k: usize) -> Shape {
        let mut s = Shape::new("star", k + 1, 1, None);
        s.vertices[0] = (4, Some(40));
        for leaf in 1..=k {
            s.edge(0, leaf, 10);
            s.edge(leaf, 0, 15);
        }
        s
    }

    /// A seeded symmetric shape of at most seven vertices, in one of the
    /// families WL refinement cannot split: separations come from a
    /// two-value alphabet so the search really branches.
    fn symmetric_shape(rng: &mut Rng) -> Shape {
        let wcet = rng.random_range(1i128..=3);
        let deadline = rng.random_bool().then_some(wcet * 4);
        let sep = |rng: &mut Rng| rng.random_range(1i128..=2);
        match rng.random_range(0u32..7) {
            0 => {
                // Ring, one way or both ways.
                let n = rng.random_range(3usize..=7);
                let (a, back) = (sep(rng), rng.random_bool().then(|| sep(rng)));
                let mut s = Shape::new("ring", n, wcet, deadline);
                for i in 0..n {
                    s.edge(i, (i + 1) % n, a);
                    if let Some(b) = back {
                        s.edge((i + 1) % n, i, b);
                    }
                }
                s
            }
            1 => {
                // Circulant: the ring plus chords of one stride.
                let n = rng.random_range(4usize..=7);
                let stride = rng.random_range(2usize..n);
                let (a, b) = (sep(rng), sep(rng));
                let mut s = Shape::new("circulant", n, wcet, deadline);
                for i in 0..n {
                    s.edge(i, (i + 1) % n, a);
                    s.edge(i, (i + stride) % n, b);
                }
                s
            }
            2 => {
                // Complete digraph: one separation, random ones, or one
                // that marks the cycles of a permutation (every vertex
                // then looks alike to refinement, yet the cycles need not
                // be automorphic); loops on none, all, or some vertices.
                let n = rng.random_range(2usize..=6);
                let mode = rng.random_range(0u32..3);
                let one = sep(rng);
                let mut successor: Vec<usize> = (0..n).collect();
                rng.shuffle(&mut successor);
                let loops = rng.random_range(0u32..3);
                let mut s = Shape::new("complete", n, wcet, deadline);
                for (i, &next) in successor.iter().enumerate() {
                    for j in 0..n {
                        let join = if i == j {
                            loops == 1 || (loops == 2 && rng.random_bool())
                        } else {
                            true
                        };
                        if join {
                            let sep = match mode {
                                0 => one,
                                1 => sep(rng),
                                _ => 1 + i128::from(next == j),
                            };
                            s.edge(i, j, sep);
                        }
                    }
                }
                s
            }
            3 => {
                // Star with identical leaves.
                let k = rng.random_range(2usize..=6);
                let (a, b) = (sep(rng), sep(rng));
                let mut s = Shape::new("star", k + 1, wcet, deadline);
                s.vertices[0].0 = wcet + rng.random_range(0i128..=1);
                for leaf in 1..=k {
                    s.edge(0, leaf, a);
                    s.edge(leaf, 0, b);
                }
                s
            }
            4 => {
                // Two identical rings joined through one hub.
                let k = rng.random_range(2usize..=3);
                let (a, b) = (sep(rng), sep(rng));
                let mut s = Shape::new("twin_rings", 2 * k + 1, wcet, deadline);
                for r in 0..2 {
                    let base = 1 + r * k;
                    for i in 0..k {
                        s.edge(base + i, base + (i + 1) % k, a);
                    }
                    s.edge(0, base, b);
                    s.edge(base, 0, b);
                }
                s
            }
            5 => {
                // Disjoint directed cycles whose lengths WL cannot tell
                // apart: every vertex has one in- and one out-edge.
                let a = sep(rng);
                let lengths: &[usize] = match rng.random_range(0u32..4) {
                    0 => &[3, 4],
                    1 => &[2, 2, 3],
                    2 => &[3, 3],
                    _ => &[2, 5],
                };
                let mut s = Shape::new("cycles", lengths.iter().sum(), wcet, deadline);
                let mut base = 0;
                for &len in lengths {
                    for i in 0..len {
                        s.edge(base + i, base + (i + 1) % len, a);
                    }
                    base += len;
                }
                s
            }
            _ => {
                // Random digraph on identical vertices.
                let n = rng.random_range(3usize..=7);
                let mut s = Shape::new("random", n, wcet, deadline);
                for i in 0..n {
                    for _ in 0..rng.random_range(1usize..=2) {
                        let to = rng.random_range(0usize..n);
                        let sep = sep(rng);
                        s.edge(i, to, sep);
                    }
                }
                s
            }
        }
    }

    /// On symmetric shapes the pruned search must find exactly the code
    /// of the full tree, whatever the presentation.
    #[test]
    fn pruned_search_matches_exhaustive_reference() {
        srtw_detrand::prop::forall(
            "canon_pruned_vs_exhaustive",
            |rng, _size| {
                let s = symmetric_shape(rng);
                let mut perm = s.identity();
                rng.shuffle(&mut perm);
                (s, perm)
            },
            |(s, perm)| {
                let base = s.build(&s.identity(), "v");
                let form = canonical_task_form(&base);
                let permuted = canonical_task_form(&s.build(perm, "renamed_"));
                assert_eq!(form, permuted, "the presentation changed the form");
                assert_eq!(
                    form.code(),
                    exhaustive_code(&base),
                    "the search missed the least code of the full tree"
                );
            },
        );
    }

    /// The Shrikhande graph beside the complement of a 9-cycle: every
    /// vertex has six neighbours, so refinement cannot split the root.
    /// Around an individualized Shrikhande vertex the nine non-neighbours
    /// form one colour class yet two orbits of its stabilizer, so pruning
    /// with an automorphism that moves the individualized vertex (one
    /// found below a co-C9 root) can skip the branches that hold the
    /// least code. The families of `symmetric_shape` are too small to
    /// show this: refinement after one individualization finds their
    /// orbits.
    fn shrikhande_beside_co_c9() -> Shape {
        let mut s = Shape::new("shrikhande_co_c9", 25, 1, None);
        for i in 0..16 {
            for (a, b) in [(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)] {
                s.edge(i, (i / 4 + a) % 4 * 4 + (i % 4 + b) % 4, 1);
            }
        }
        for i in 0..9 {
            for j in (0..9).filter(|&j| !matches!((9 + j - i) % 9, 0 | 1 | 8)) {
                s.edge(16 + i, 16 + j, 1);
            }
        }
        s
    }

    #[test]
    fn pruning_fixes_the_individualized_prefix() {
        let s = shrikhande_beside_co_c9();
        let least = exhaustive_code(&s.build(&s.identity(), "v"));
        let mut rng = Rng::seed_from_u64(9);
        for _ in 0..16 {
            let mut order = s.identity();
            rng.shuffle(&mut order);
            let form = canonical_task_form(&s.build(&order, "v"));
            assert_eq!(form.code(), least, "the search missed the least code");
        }
    }

    /// Rings and complete digraphs resolve in one or two leaves, never
    /// through the presentation-order fallback, and rotated or relabelled
    /// copies give equal forms. A shuffled ring may take more leaves: its
    /// first two members need not be neighbours, but every further leaf
    /// at least doubles the automorphism group found, so a ring of `n`
    /// takes at most `1 + log2 n`.
    #[test]
    fn symmetric_families_resolve_in_few_leaves() {
        let mut rng = Rng::seed_from_u64(28);
        let mut check = |s: Shape, max_leaves: usize, shuffled_max: usize| {
            let n = s.vertices.len();
            let mut rotated = s.identity();
            rotated.rotate_left(n / 3 + 1);
            let mut shuffled = s.identity();
            rng.shuffle(&mut shuffled);
            let (form, _) = form_and_leaves(&s.build(&s.identity(), "v"));
            for (order, max) in [
                (s.identity(), max_leaves),
                (rotated, max_leaves),
                (shuffled, shuffled_max),
            ] {
                let (other, leaves) = form_and_leaves(&s.build(&order, "relabelled_"));
                assert!(
                    (1..=max).contains(&leaves),
                    "{} of {n} vertices took {leaves} leaves",
                    s.family
                );
                assert_eq!(form, other, "{} of {n} vertices", s.family);
            }
        };
        for n in (8..=64).chain([1024]) {
            check(ring(n, 7), 2, 1 + n.ilog2() as usize);
        }
        for n in 6..=12 {
            check(complete(n, 5), 1, 1);
        }
    }

    /// Pinned hashes of symmetric tasks, as the unpruned search computed
    /// them: forms key the result cache and the spill store, so a change
    /// that moves them orphans every spilled record.
    #[test]
    fn symmetric_hashes_are_pinned() {
        for (s, pinned) in [
            (ring(12, 7), 0x53d9_0833_c2a9_1da0_da50_c47c_8e08_a3f9_u128),
            (complete(6, 5), 0xcb10_9024_f4ca_b824_a3d8_9d82_42ff_f897),
            (complete(12, 5), 0x1285_d046_524b_6252_f75a_6b2b_dce9_4516),
            (star(5), 0x7a90_6126_0320_3688_2b75_ac3f_48ff_8f19),
        ] {
            let form = canonical_task_form(&s.build(&s.identity(), "v"));
            assert_eq!(form.hash(), pinned, "{}", s.family);
        }
    }
}
