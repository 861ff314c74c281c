//! Arena-allocated generalization tree.
//!
//! Leaves correspond 1:1 to the interned value ids (`0..n_leaves`) of
//! the attribute the hierarchy governs. Each node stores the DFS span
//! of leaves below it, so subset/containment tests, `leaf_count` and
//! NCP are O(1). LCA queries are answered in O(1) from an Euler tour
//! plus a sparse table (depth range-minimum), built once at
//! construction; the information-loss penalty of every node is also
//! precomputed, so the `ncp(lca(a, b))` kernel at the heart of the
//! clustering algorithms costs two array reads.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of a node within its [`Hierarchy`]'s arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a usable index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Errors raised while building or validating hierarchies.
#[derive(Debug, PartialEq, Eq)]
pub enum HierarchyError {
    /// A leaf value id is missing from the hierarchy.
    MissingLeaf(u32),
    /// Two leaves carry the same value id.
    DuplicateLeaf(u32),
    /// The builder produced a forest or a cycle instead of one tree.
    NotATree(String),
    /// Hierarchy file was malformed.
    Parse { line: usize, message: String },
    /// Reading or writing a hierarchy file failed at the I/O layer.
    Io {
        path: std::path::PathBuf,
        message: String,
    },
    /// The hierarchy has no nodes.
    Empty,
}

impl fmt::Display for HierarchyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HierarchyError::MissingLeaf(v) => {
                write!(f, "value id {v} has no leaf in the hierarchy")
            }
            HierarchyError::DuplicateLeaf(v) => {
                write!(f, "value id {v} appears as two different leaves")
            }
            HierarchyError::NotATree(msg) => write!(f, "not a tree: {msg}"),
            HierarchyError::Parse { line, message } => {
                write!(f, "hierarchy file line {line}: {message}")
            }
            HierarchyError::Io { path, message } => {
                write!(f, "hierarchy file {}: {message}", path.display())
            }
            HierarchyError::Empty => write!(f, "hierarchy has no nodes"),
        }
    }
}

impl std::error::Error for HierarchyError {}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Node {
    label: String,
    parent: Option<NodeId>,
    children: Vec<NodeId>,
    /// Leaf value id when this node is a leaf.
    leaf: Option<u32>,
    /// Depth from the root (root = 0).
    depth: u32,
    /// DFS leaf span `[lo, hi)` of leaves below (inclusive of self for
    /// leaves).
    span: (u32, u32),
}

/// An immutable generalization hierarchy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Hierarchy {
    nodes: Vec<Node>,
    root: NodeId,
    /// Leaf node per value id (`leaf_of[v]` is the node whose
    /// `leaf == v`).
    leaf_of: Vec<NodeId>,
    /// DFS position of each value id's leaf.
    leaf_pos: Vec<u32>,
    /// Value id at each DFS position (inverse of `leaf_pos`).
    pos_leaf: Vec<u32>,
    height: u32,
    /// Euler tour of the tree: node at each tour step (2n-1 steps).
    euler: Vec<u32>,
    /// First tour step at which each node appears.
    first_visit: Vec<u32>,
    /// Sparse table over the tour for O(1) depth range-minimum:
    /// `rmq[k][i]` is the tour step of the shallowest node in the
    /// window `[i, i + 2^k)`; ties keep the leftmost step.
    rmq: Vec<Vec<u32>>,
    /// Precomputed `ncp()` per node.
    ncp_of: Vec<f64>,
}

impl Hierarchy {
    /// The root node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of nodes (leaves + interior).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaves (= attribute domain size).
    pub fn n_leaves(&self) -> usize {
        self.leaf_of.len()
    }

    /// Tree height: maximum leaf depth (root at depth 0). A hierarchy
    /// of bare leaves under a root has height 1.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Display label of `node`.
    pub fn label(&self, node: NodeId) -> &str {
        &self.nodes[node.index()].label
    }

    /// Parent of `node` (`None` for the root).
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.nodes[node.index()].parent
    }

    /// Children of `node` (empty for leaves).
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        &self.nodes[node.index()].children
    }

    /// Depth of `node` from the root (root = 0).
    pub fn depth(&self, node: NodeId) -> u32 {
        self.nodes[node.index()].depth
    }

    /// True when `node` is a leaf.
    pub fn is_leaf(&self, node: NodeId) -> bool {
        self.nodes[node.index()].leaf.is_some()
    }

    /// The value id of a leaf node, `None` for interior nodes.
    pub fn leaf_value(&self, node: NodeId) -> Option<u32> {
        self.nodes[node.index()].leaf
    }

    /// The leaf node of value id `value`.
    #[inline]
    pub fn leaf(&self, value: u32) -> NodeId {
        self.leaf_of[value as usize]
    }

    /// Number of leaves below `node` (1 for leaves).
    #[inline]
    pub fn leaf_count(&self, node: NodeId) -> usize {
        let (lo, hi) = self.nodes[node.index()].span;
        (hi - lo) as usize
    }

    /// Does the subtree of `node` contain the leaf of value `value`?
    #[inline]
    pub fn contains(&self, node: NodeId, value: u32) -> bool {
        let (lo, hi) = self.nodes[node.index()].span;
        let pos = self.leaf_pos[value as usize];
        lo <= pos && pos < hi
    }

    /// Value ids of all leaves below `node`, in DFS order.
    pub fn leaves_under(&self, node: NodeId) -> impl Iterator<Item = u32> + '_ {
        let (lo, hi) = self.nodes[node.index()].span;
        (lo..hi).map(move |p| self.pos_leaf[p as usize])
    }

    /// Is `anc` an ancestor of (or equal to) `node`?
    pub fn is_ancestor_or_self(&self, anc: NodeId, node: NodeId) -> bool {
        let (alo, ahi) = self.nodes[anc.index()].span;
        let (nlo, nhi) = self.nodes[node.index()].span;
        alo <= nlo && nhi <= ahi && self.depth(anc) <= self.depth(node)
    }

    /// Lowest common ancestor of two nodes, in O(1).
    ///
    /// Answers a depth range-minimum query on the Euler tour between
    /// the nodes' first visits. The shallowest node on that tour
    /// segment is unique (leaving the LCA's subtree is impossible
    /// without stepping above it), so no tie-breaking is needed.
    #[inline]
    pub fn lca(&self, a: NodeId, b: NodeId) -> NodeId {
        if a == b {
            return a;
        }
        let (mut i, mut j) = (
            self.first_visit[a.index()] as usize,
            self.first_visit[b.index()] as usize,
        );
        if i > j {
            std::mem::swap(&mut i, &mut j);
        }
        let k = (j - i + 1).ilog2() as usize;
        let left = self.rmq[k][i];
        let right = self.rmq[k][j + 1 - (1usize << k)];
        let best = if self.depth_at_step(right) < self.depth_at_step(left) {
            right
        } else {
            left
        };
        NodeId(self.euler[best as usize])
    }

    #[inline]
    fn depth_at_step(&self, step: u32) -> u32 {
        self.nodes[self.euler[step as usize] as usize].depth
    }

    /// Lowest common ancestor of the leaves of a set of value ids.
    /// Returns `None` for an empty set.
    pub fn lca_of_values(&self, values: impl IntoIterator<Item = u32>) -> Option<NodeId> {
        let mut it = values.into_iter();
        let first = self.leaf(it.next()?);
        Some(it.fold(first, |acc, v| self.lca(acc, self.leaf(v))))
    }

    /// Ancestor of `node` exactly `steps` levels up, clamped at the
    /// root. `steps == 0` returns `node`.
    pub fn ancestor_up(&self, node: NodeId, steps: u32) -> NodeId {
        let mut n = node;
        for _ in 0..steps {
            match self.parent(n) {
                Some(p) => n = p,
                None => break,
            }
        }
        n
    }

    /// Full-domain generalization of value `value` to level `level`
    /// (0 = original value, `height()` = root). For unbalanced trees a
    /// leaf shallower than `level` clamps at the root, matching the
    /// conventional leaf-padding semantics of full-domain recoding.
    pub fn generalize(&self, value: u32, level: u32) -> NodeId {
        self.ancestor_up(self.leaf(value), level)
    }

    /// Full-domain recode table of `level`: entry `v` is
    /// [`Hierarchy::generalize`]`(v, level)` for every value id in the
    /// domain. Computed with one parent step per level over the whole
    /// table instead of a per-value ancestor walk, so exporting all
    /// levels of a hierarchy costs O(height · n_leaves). Values whose
    /// leaves sit shallower than `level` clamp at the root, matching
    /// [`Hierarchy::generalize`]. The relational counting kernels
    /// precompute these tables once per run and never call
    /// `generalize` in a hot loop.
    pub fn level_table(&self, level: u32) -> Vec<NodeId> {
        let mut table = self.leaf_of.clone();
        for _ in 0..level {
            for n in table.iter_mut() {
                if let Some(p) = self.parent(*n) {
                    *n = p;
                }
            }
        }
        table
    }

    /// Normalized Certainty Penalty of publishing `node` instead of a
    /// leaf: `(leaves(node) - 1) / (n_leaves - 1)`; 0 for leaves and
    /// for degenerate single-value domains, 1 for the root.
    /// Precomputed at construction — a single array read.
    #[inline]
    pub fn ncp(&self, node: NodeId) -> f64 {
        self.ncp_of[node.index()]
    }

    /// First node carrying `label` in arena order (labels are unique in
    /// auto-generated hierarchies but files may repeat them).
    pub fn node_by_label(&self, label: &str) -> Option<NodeId> {
        self.nodes
            .iter()
            .position(|n| n.label == label)
            .map(|i| NodeId(i as u32))
    }

    /// All nodes at depth `d`, in DFS-span order.
    pub fn nodes_at_depth(&self, d: u32) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = (0..self.nodes.len() as u32)
            .map(NodeId)
            .filter(|&n| self.depth(n) == d)
            .collect();
        v.sort_by_key(|n| self.nodes[n.index()].span.0);
        v
    }

    /// Iterate every node id.
    pub fn all_nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Path of labels from a leaf value to the root (inclusive).
    pub fn path_to_root(&self, value: u32) -> Vec<&str> {
        let mut path = Vec::new();
        let mut n = Some(self.leaf(value));
        while let Some(node) = n {
            path.push(self.label(node));
            n = self.parent(node);
        }
        path
    }
}

/// Incremental builder for [`Hierarchy`].
#[derive(Debug, Default)]
pub struct HierarchyBuilder {
    labels: Vec<String>,
    parents: Vec<Option<NodeId>>,
    leaves: Vec<Option<u32>>,
}

impl HierarchyBuilder {
    /// Fresh builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node; `parent` must already exist. Returns its id.
    pub fn add_node(&mut self, label: &str, parent: Option<NodeId>) -> NodeId {
        let id = NodeId(self.labels.len() as u32);
        self.labels.push(label.to_owned());
        self.parents.push(parent);
        self.leaves.push(None);
        id
    }

    /// Add a leaf for value id `value` under `parent`.
    pub fn add_leaf(&mut self, label: &str, parent: NodeId, value: u32) -> NodeId {
        let id = self.add_node(label, Some(parent));
        self.leaves[id.index()] = Some(value);
        id
    }

    /// Validate and freeze. `n_values` is the attribute's domain size;
    /// every value id in `0..n_values` must appear exactly once as a
    /// leaf.
    pub fn build(self, n_values: usize) -> Result<Hierarchy, HierarchyError> {
        if self.labels.is_empty() {
            return Err(HierarchyError::Empty);
        }
        let n = self.labels.len();

        // find the root, reject forests
        let mut root = None;
        for (i, p) in self.parents.iter().enumerate() {
            if p.is_none() {
                if root.is_some() {
                    return Err(HierarchyError::NotATree("multiple parentless nodes".into()));
                }
                root = Some(NodeId(i as u32));
            }
        }
        let root = root.ok_or_else(|| HierarchyError::NotATree("no root".into()))?;

        let mut children: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for (i, p) in self.parents.iter().enumerate() {
            if let Some(p) = p {
                if p.index() >= n {
                    return Err(HierarchyError::NotATree(format!(
                        "node {i} references unknown parent {p}"
                    )));
                }
                children[p.index()].push(NodeId(i as u32));
            }
        }

        // leaf coverage
        let mut leaf_of = vec![None; n_values];
        for (i, l) in self.leaves.iter().enumerate() {
            if let Some(v) = l {
                let v = *v;
                if v as usize >= n_values {
                    return Err(HierarchyError::NotATree(format!(
                        "leaf value id {v} exceeds domain size {n_values}"
                    )));
                }
                if leaf_of[v as usize].is_some() {
                    return Err(HierarchyError::DuplicateLeaf(v));
                }
                if !children[i].is_empty() {
                    return Err(HierarchyError::NotATree(format!(
                        "leaf node {i} has children"
                    )));
                }
                leaf_of[v as usize] = Some(NodeId(i as u32));
            }
        }
        for (v, l) in leaf_of.iter().enumerate() {
            if l.is_none() {
                return Err(HierarchyError::MissingLeaf(v as u32));
            }
        }
        let leaf_of: Vec<NodeId> = leaf_of.into_iter().map(Option::unwrap).collect();

        // Interior nodes with no leaf below are tolerated only if they
        // have children; childless interior nodes are dead weight and
        // indicate a malformed file.
        for (i, ch) in children.iter().enumerate() {
            if self.leaves[i].is_none() && ch.is_empty() {
                return Err(HierarchyError::NotATree(format!(
                    "interior node {:?} has no children",
                    self.labels[i]
                )));
            }
        }

        // iterative DFS computing depth + spans, detecting cycles via
        // visit counting
        let mut depth = vec![0u32; n];
        let mut span = vec![(0u32, 0u32); n];
        let mut leaf_pos = vec![0u32; n_values];
        let mut pos_leaf = vec![0u32; n_values];
        let mut next_pos = 0u32;
        let mut visited = 0usize;
        let mut height = 0u32;

        // stack of (node, child_cursor)
        let mut stack: Vec<(NodeId, usize)> = vec![(root, 0)];
        visited += 1;
        while let Some(&mut (node, ref mut cursor)) = stack.last_mut() {
            let ni = node.index();
            if *cursor == 0 {
                // entering
                if let Some(v) = self.leaves[ni] {
                    span[ni] = (next_pos, next_pos + 1);
                    leaf_pos[v as usize] = next_pos;
                    pos_leaf[next_pos as usize] = v;
                    next_pos += 1;
                    height = height.max(depth[ni]);
                    stack.pop();
                    continue;
                }
                span[ni].0 = next_pos;
            }
            if *cursor < children[ni].len() {
                let child = children[ni][*cursor];
                *cursor += 1;
                depth[child.index()] = depth[ni] + 1;
                visited += 1;
                if visited > n {
                    return Err(HierarchyError::NotATree("cycle detected".into()));
                }
                stack.push((child, 0));
            } else {
                span[ni].1 = next_pos;
                stack.pop();
            }
        }
        if visited != n {
            return Err(HierarchyError::NotATree(format!(
                "{} of {} nodes reachable from root",
                visited, n
            )));
        }

        let nodes: Vec<Node> = children
            .iter_mut()
            .enumerate()
            .map(|(i, ch)| Node {
                label: self.labels[i].clone(),
                parent: self.parents[i],
                children: std::mem::take(ch),
                leaf: self.leaves[i],
                depth: depth[i],
                span: span[i],
            })
            .collect();

        let (euler, first_visit, rmq) = build_lca_tables(&nodes, root);
        let ncp_of = build_ncp_table(&nodes, n_values);

        Ok(Hierarchy {
            nodes,
            root,
            leaf_of,
            leaf_pos,
            pos_leaf,
            height,
            euler,
            first_visit,
            rmq,
            ncp_of,
        })
    }
}

/// Euler tour + sparse table for O(1) LCA queries.
///
/// The tour visits a node once on entry and again after each child's
/// subtree (2n-1 steps for n nodes); an LCA query becomes a depth
/// range-minimum over the tour segment between the two nodes' first
/// visits. The sparse table answers that in O(1) with
/// O(n log n) u32s of storage.
fn build_lca_tables(nodes: &[Node], root: NodeId) -> (Vec<u32>, Vec<u32>, Vec<Vec<u32>>) {
    let n = nodes.len();
    let mut euler: Vec<u32> = Vec::with_capacity(2 * n - 1);
    let mut first_visit = vec![u32::MAX; n];

    // iterative tour: (node, next-child cursor)
    let mut stack: Vec<(u32, usize)> = vec![(root.0, 0)];
    while let Some(&mut (node, ref mut cursor)) = stack.last_mut() {
        let ni = node as usize;
        if *cursor == 0 {
            first_visit[ni] = euler.len() as u32;
        }
        euler.push(node);
        if *cursor < nodes[ni].children.len() {
            let child = nodes[ni].children[*cursor];
            *cursor += 1;
            stack.push((child.0, 0));
        } else {
            stack.pop();
        }
    }

    let m = euler.len();
    let levels = if m <= 1 { 1 } else { m.ilog2() as usize + 1 };
    let mut rmq: Vec<Vec<u32>> = Vec::with_capacity(levels);
    rmq.push((0..m as u32).collect());
    let mut k = 1usize;
    while (1usize << k) <= m {
        let half = 1usize << (k - 1);
        let prev = &rmq[k - 1];
        let mut row = Vec::with_capacity(m + 1 - (1 << k));
        for i in 0..=m - (1 << k) {
            let a = prev[i];
            let b = prev[i + half];
            // ties keep the leftmost step
            let da = nodes[euler[a as usize] as usize].depth;
            let db = nodes[euler[b as usize] as usize].depth;
            row.push(if db < da { b } else { a });
        }
        rmq.push(row);
        k += 1;
    }

    (euler, first_visit, rmq)
}

/// NCP of every node, precomputed with the same formula as the old
/// on-demand implementation: `(leaves(node) - 1) / (n_leaves - 1)`.
fn build_ncp_table(nodes: &[Node], n_values: usize) -> Vec<f64> {
    if n_values <= 1 {
        return vec![0.0; nodes.len()];
    }
    let denom = (n_values - 1) as f64;
    nodes
        .iter()
        .map(|node| {
            let leaves = (node.span.1 - node.span.0) as usize;
            (leaves - 1) as f64 / denom
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// root
    /// ├── A: a0 a1
    /// └── B: b0 b1 b2
    /// with value ids interleaved: a0=0, b0=1, a1=2, b1=3, b2=4
    fn sample() -> Hierarchy {
        let mut b = HierarchyBuilder::new();
        let root = b.add_node("*", None);
        let a = b.add_node("A", Some(root));
        let bb = b.add_node("B", Some(root));
        b.add_leaf("a0", a, 0);
        b.add_leaf("a1", a, 2);
        b.add_leaf("b0", bb, 1);
        b.add_leaf("b1", bb, 3);
        b.add_leaf("b2", bb, 4);
        b.build(5).unwrap()
    }

    #[test]
    fn structure_queries() {
        let h = sample();
        assert_eq!(h.n_leaves(), 5);
        assert_eq!(h.n_nodes(), 8);
        assert_eq!(h.height(), 2);
        assert_eq!(h.label(h.root()), "*");
        assert_eq!(h.leaf_count(h.root()), 5);
        let a = h.node_by_label("A").unwrap();
        assert_eq!(h.leaf_count(a), 2);
        assert_eq!(h.depth(a), 1);
        assert!(!h.is_leaf(a));
        assert!(h.is_leaf(h.leaf(0)));
        assert_eq!(h.leaf_value(h.leaf(3)), Some(3));
    }

    #[test]
    fn containment_respects_interleaved_ids() {
        let h = sample();
        let a = h.node_by_label("A").unwrap();
        let b = h.node_by_label("B").unwrap();
        assert!(h.contains(a, 0));
        assert!(h.contains(a, 2));
        assert!(!h.contains(a, 1));
        assert!(h.contains(b, 1));
        assert!(h.contains(b, 4));
        assert!(!h.contains(b, 2));
        assert!(h.contains(h.root(), 3));
        let under_a: Vec<u32> = h.leaves_under(a).collect();
        assert_eq!(under_a, vec![0, 2]);
        let under_b: Vec<u32> = h.leaves_under(b).collect();
        assert_eq!(under_b, vec![1, 3, 4]);
    }

    #[test]
    fn lca_and_ancestry() {
        let h = sample();
        let a = h.node_by_label("A").unwrap();
        let b = h.node_by_label("B").unwrap();
        assert_eq!(h.lca(h.leaf(0), h.leaf(2)), a);
        assert_eq!(h.lca(h.leaf(0), h.leaf(1)), h.root());
        assert_eq!(h.lca(a, h.leaf(2)), a);
        assert_eq!(h.lca_of_values([1, 3, 4]), Some(b));
        assert_eq!(h.lca_of_values([1, 2]), Some(h.root()));
        assert_eq!(h.lca_of_values(Vec::<u32>::new()), None);
        assert!(h.is_ancestor_or_self(h.root(), a));
        assert!(h.is_ancestor_or_self(a, a));
        assert!(!h.is_ancestor_or_self(a, b));
        assert!(!h.is_ancestor_or_self(h.leaf(0), a));
    }

    /// Lowest common ancestor by walking parent pointers, O(height):
    /// the pre-Euler-tour implementation, an independent reference.
    fn lca_walk(h: &Hierarchy, mut a: NodeId, mut b: NodeId) -> NodeId {
        while h.depth(a) > h.depth(b) {
            a = h.parent(a).expect("deeper node has a parent");
        }
        while h.depth(b) > h.depth(a) {
            b = h.parent(b).expect("deeper node has a parent");
        }
        while a != b {
            a = h.parent(a).expect("non-root differs from sibling");
            b = h.parent(b).expect("non-root differs from sibling");
        }
        a
    }

    #[test]
    fn euler_lca_agrees_with_parent_walk() {
        let h = sample();
        for a in h.all_nodes() {
            for b in h.all_nodes() {
                assert_eq!(h.lca(a, b), lca_walk(&h, a, b), "lca({a}, {b})");
            }
        }
    }

    #[test]
    fn euler_lca_on_single_node_tree() {
        let mut b = HierarchyBuilder::new();
        let root = b.add_node("*", None);
        b.add_leaf("x", root, 0);
        let h = b.build(1).unwrap();
        assert_eq!(h.lca(h.root(), h.root()), h.root());
        assert_eq!(h.lca(h.leaf(0), h.root()), h.root());
    }

    #[test]
    fn precomputed_ncp_matches_formula() {
        let h = sample();
        for n in h.all_nodes() {
            let expected = (h.leaf_count(n) - 1) as f64 / (h.n_leaves() - 1) as f64;
            assert_eq!(h.ncp(n), expected, "{n}");
        }
    }

    #[test]
    fn generalize_levels() {
        let h = sample();
        assert_eq!(h.generalize(0, 0), h.leaf(0));
        assert_eq!(h.generalize(0, 1), h.node_by_label("A").unwrap());
        assert_eq!(h.generalize(0, 2), h.root());
        // clamps past the root
        assert_eq!(h.generalize(0, 99), h.root());
    }

    #[test]
    fn level_table_matches_generalize() {
        let h = sample();
        for level in 0..=h.height() + 1 {
            let table = h.level_table(level);
            assert_eq!(table.len(), h.n_leaves());
            for v in 0..h.n_leaves() as u32 {
                assert_eq!(
                    table[v as usize],
                    h.generalize(v, level),
                    "v={v} level={level}"
                );
            }
        }
    }

    #[test]
    fn level_table_clamps_unbalanced_leaves() {
        // root -> (deep -> d0), s0: the shallow leaf reaches the root
        // one level before the deep one and stays there
        let mut b = HierarchyBuilder::new();
        let root = b.add_node("*", None);
        let deep = b.add_node("deep", Some(root));
        b.add_leaf("d0", deep, 0);
        b.add_leaf("s0", root, 1);
        let h = b.build(2).unwrap();
        assert_eq!(
            h.level_table(1),
            vec![h.node_by_label("deep").unwrap(), h.root()]
        );
        assert_eq!(h.level_table(2), vec![h.root(), h.root()]);
    }

    #[test]
    fn ncp_values() {
        let h = sample();
        assert_eq!(h.ncp(h.leaf(0)), 0.0);
        assert_eq!(h.ncp(h.root()), 1.0);
        let a = h.node_by_label("A").unwrap();
        assert!((h.ncp(a) - 0.25).abs() < 1e-12); // (2-1)/(5-1)
    }

    #[test]
    fn nodes_at_depth_ordered_by_span() {
        let h = sample();
        let d1 = h.nodes_at_depth(1);
        let labels: Vec<&str> = d1.iter().map(|&n| h.label(n)).collect();
        assert_eq!(labels, vec!["A", "B"]);
        assert_eq!(h.nodes_at_depth(0), vec![h.root()]);
        assert_eq!(h.nodes_at_depth(2).len(), 5);
    }

    #[test]
    fn path_to_root() {
        let h = sample();
        assert_eq!(h.path_to_root(4), vec!["b2", "B", "*"]);
    }

    #[test]
    fn missing_leaf_rejected() {
        let mut b = HierarchyBuilder::new();
        let root = b.add_node("*", None);
        b.add_leaf("x", root, 0);
        assert_eq!(b.build(2).unwrap_err(), HierarchyError::MissingLeaf(1));
    }

    #[test]
    fn duplicate_leaf_rejected() {
        let mut b = HierarchyBuilder::new();
        let root = b.add_node("*", None);
        b.add_leaf("x", root, 0);
        b.add_leaf("y", root, 0);
        assert_eq!(b.build(1).unwrap_err(), HierarchyError::DuplicateLeaf(0));
    }

    #[test]
    fn forest_rejected() {
        let mut b = HierarchyBuilder::new();
        let r1 = b.add_node("r1", None);
        b.add_node("r2", None);
        b.add_leaf("x", r1, 0);
        assert!(matches!(
            b.build(1).unwrap_err(),
            HierarchyError::NotATree(_)
        ));
    }

    #[test]
    fn childless_interior_rejected() {
        let mut b = HierarchyBuilder::new();
        let root = b.add_node("*", None);
        b.add_node("dead", Some(root));
        b.add_leaf("x", root, 0);
        assert!(matches!(
            b.build(1).unwrap_err(),
            HierarchyError::NotATree(_)
        ));
    }

    #[test]
    fn empty_rejected() {
        assert_eq!(
            HierarchyBuilder::new().build(0).unwrap_err(),
            HierarchyError::Empty
        );
    }

    #[test]
    fn single_leaf_domain() {
        let mut b = HierarchyBuilder::new();
        let root = b.add_node("*", None);
        b.add_leaf("only", root, 0);
        let h = b.build(1).unwrap();
        assert_eq!(h.height(), 1);
        assert_eq!(h.ncp(h.root()), 0.0, "degenerate domain has zero NCP");
        assert_eq!(h.generalize(0, 1), h.root());
    }

    #[test]
    fn unbalanced_tree_heights() {
        // root -> (deep -> d0), s0
        let mut b = HierarchyBuilder::new();
        let root = b.add_node("*", None);
        let deep = b.add_node("deep", Some(root));
        b.add_leaf("d0", deep, 0);
        b.add_leaf("s0", root, 1);
        let h = b.build(2).unwrap();
        assert_eq!(h.height(), 2);
        // shallow leaf clamps at root when generalized by 2
        assert_eq!(h.generalize(1, 2), h.root());
        assert_eq!(h.generalize(0, 1), h.node_by_label("deep").unwrap());
    }
}
