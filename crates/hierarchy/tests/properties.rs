//! Property tests of hierarchy and cut invariants.

use proptest::prelude::*;
use secreta_data::{AttributeKind, ValuePool};
use secreta_hierarchy::{auto_hierarchy, Cut, Hierarchy, NodeId};

/// Lowest common ancestor by walking parent pointers, O(height): the
/// pre-Euler-tour implementation, an independent reference.
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

fn pool_of(n: usize) -> ValuePool {
    let mut p = ValuePool::new();
    for i in 0..n {
        p.intern(&format!("v{i:04}"));
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn auto_hierarchy_structural_invariants(
        n in 1usize..200,
        fanout in 2usize..7,
        numeric in any::<bool>(),
    ) {
        let p = pool_of(n);
        let kind = if numeric { AttributeKind::Numeric } else { AttributeKind::Categorical };
        let h = auto_hierarchy(&p, kind, fanout).unwrap();

        prop_assert_eq!(h.n_leaves(), n);
        prop_assert_eq!(h.leaf_count(h.root()), n);
        // every leaf id maps to a leaf node carrying that id
        for v in 0..n as u32 {
            prop_assert_eq!(h.leaf_value(h.leaf(v)), Some(v));
            prop_assert!(h.contains(h.root(), v));
        }
        // interior nodes partition their children's leaves
        for node in h.all_nodes() {
            if !h.is_leaf(node) {
                let child_sum: usize =
                    h.children(node).iter().map(|&c| h.leaf_count(c)).sum();
                prop_assert_eq!(child_sum, h.leaf_count(node));
                // children's depths = node depth + 1
                for &c in h.children(node) {
                    prop_assert_eq!(h.depth(c), h.depth(node) + 1);
                    prop_assert!(h.is_ancestor_or_self(node, c));
                }
            }
        }
        // ncp grows monotonically towards the root on every leaf path
        for v in (0..n as u32).step_by(1 + n / 16) {
            let mut node = h.leaf(v);
            let mut last = h.ncp(node);
            while let Some(parent) = h.parent(node) {
                let ncp = h.ncp(parent);
                prop_assert!(ncp >= last - 1e-15);
                last = ncp;
                node = parent;
            }
            let expected_root_ncp = if n == 1 { 0.0 } else { 1.0 };
            prop_assert!((last - expected_root_ncp).abs() < 1e-12);
        }
    }

    #[test]
    fn lca_properties(
        n in 2usize..150,
        fanout in 2usize..5,
        a in 0u32..150,
        b in 0u32..150,
    ) {
        let (a, b) = (a % n as u32, b % n as u32);
        let p = pool_of(n);
        let h = auto_hierarchy(&p, AttributeKind::Categorical, fanout).unwrap();
        let la = h.leaf(a);
        let lb = h.leaf(b);
        let lca = h.lca(la, lb);
        prop_assert!(h.is_ancestor_or_self(lca, la));
        prop_assert!(h.is_ancestor_or_self(lca, lb));
        prop_assert_eq!(h.lca(lb, la), lca, "lca is symmetric");
        prop_assert_eq!(h.lca(la, la), la, "lca is idempotent");
        // minimality: no child of the lca covers both
        for &c in h.children(lca) {
            prop_assert!(!(h.contains(c, a) && h.contains(c, b)));
        }
    }

    #[test]
    fn euler_tour_lca_matches_parent_walk(
        n in 2usize..300,
        fanout in 2usize..7,
        pairs in prop::collection::vec((0u32..300, 0u32..300), 1..40),
    ) {
        let p = pool_of(n);
        let h = auto_hierarchy(&p, AttributeKind::Categorical, fanout).unwrap();
        for (a, b) in pairs {
            let la = h.leaf(a % n as u32);
            let lb = h.leaf(b % n as u32);
            prop_assert_eq!(h.lca(la, lb), lca_walk(&h, la, lb));
            // interior nodes too: lift one side to an arbitrary ancestor
            let anc = h.ancestor_up(la, (a % 4) + 1);
            prop_assert_eq!(h.lca(anc, lb), lca_walk(&h, anc, lb));
        }
    }

    #[test]
    fn cut_moves_preserve_partition(
        n in 2usize..100,
        fanout in 2usize..5,
        moves in prop::collection::vec(0usize..1000, 0..20),
    ) {
        let p = pool_of(n);
        let h = auto_hierarchy(&p, AttributeKind::Categorical, fanout).unwrap();
        let mut cut = Cut::leaves(&h);
        for mv in moves {
            let cands = cut.generalization_candidates(&h);
            if cands.is_empty() {
                break;
            }
            cut.generalize_to(&h, cands[mv % cands.len()]);
            // invariant: every value maps to exactly one cut node that
            // contains it, and cut nodes never nest
            for v in 0..n as u32 {
                prop_assert!(h.contains(cut.node_of(v), v));
            }
            let nodes = cut.nodes();
            for (i, &x) in nodes.iter().enumerate() {
                for &y in &nodes[i + 1..] {
                    prop_assert!(!h.is_ancestor_or_self(x, y));
                    prop_assert!(!h.is_ancestor_or_self(y, x));
                }
            }
        }
    }

    #[test]
    fn generalize_then_specialize_roundtrips(
        n in 2usize..80,
        fanout in 2usize..5,
        pick in 0usize..1000,
    ) {
        let p = pool_of(n);
        let h = auto_hierarchy(&p, AttributeKind::Categorical, fanout).unwrap();
        let mut cut = Cut::leaves(&h);
        let cands = cut.generalization_candidates(&h);
        prop_assume!(!cands.is_empty());
        let target = cands[pick % cands.len()];
        let before = cut.clone();
        cut.generalize_to(&h, target);
        prop_assert!(cut.specialize(&h, target));
        prop_assert_eq!(cut, before);
    }

    #[test]
    fn file_roundtrip_random_domains(
        n in 1usize..120,
        fanout in 2usize..6,
    ) {
        let p = pool_of(n);
        let h = auto_hierarchy(&p, AttributeKind::Categorical, fanout).unwrap();
        let mut buf = Vec::new();
        secreta_hierarchy::io::write_hierarchy(&h, &mut buf, ';').unwrap();
        let h2 = secreta_hierarchy::io::read_hierarchy(buf.as_slice(), &p, ';').unwrap();
        prop_assert_eq!(h.n_nodes(), h2.n_nodes());
        prop_assert_eq!(h.height(), h2.height());
        for v in 0..n as u32 {
            prop_assert_eq!(h.path_to_root(v), h2.path_to_root(v));
            prop_assert_eq!(h.leaf_count(h.leaf(v)), 1);
        }
    }
}
