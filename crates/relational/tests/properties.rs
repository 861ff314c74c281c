//! Property tests of the relational algorithms: privacy, truthfulness
//! and minimality invariants on randomized inputs.

use proptest::prelude::*;
use secreta_data::{Attribute, AttributeKind, RtTable, Schema};
use secreta_hierarchy::auto_hierarchy;
use secreta_metrics::{gcp, GenEntry};
use secreta_oracle::relational::min_class_size;
use secreta_relational::{is_k_anonymous, RelationalAlgorithm, RelationalInput};

fn build_table(rows: &[(usize, usize)], dom_a: usize, dom_b: usize) -> RtTable {
    let schema = Schema::new(vec![Attribute::numeric("A"), Attribute::categorical("B")]).unwrap();
    let mut t = RtTable::new(schema);
    for v in 0..dom_a {
        t.intern_value(0, &v.to_string()).unwrap();
    }
    for v in 0..dom_b {
        t.intern_value(1, &format!("b{v}")).unwrap();
    }
    for &(a, b) in rows {
        t.push_row(&[&(a % dom_a).to_string(), &format!("b{}", b % dom_b)], &[])
            .unwrap();
    }
    t
}

fn input(t: &RtTable, k: usize, fanout: usize) -> RelationalInput<'_> {
    RelationalInput {
        table: t,
        qi_attrs: vec![0, 1],
        hierarchies: vec![
            auto_hierarchy(t.pool(0), AttributeKind::Numeric, fanout).unwrap(),
            auto_hierarchy(t.pool(1), AttributeKind::Categorical, fanout).unwrap(),
        ],
        k,
    }
}

fn rows_strategy() -> impl Strategy<Value = Vec<(usize, usize)>> {
    prop::collection::vec((0usize..64, 0usize..64), 4..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_algorithms_satisfy_k_anonymity(
        rows in rows_strategy(),
        dom_a in 2usize..12,
        dom_b in 2usize..8,
        k in 2usize..5,
        fanout in 2usize..4,
        seed in 0u64..100,
    ) {
        prop_assume!(rows.len() >= k);
        let t = build_table(&rows, dom_a, dom_b);
        for algo in RelationalAlgorithm::all() {
            let i = input(&t, k, fanout);
            let out = algo.run(&i, seed).expect("k <= n is feasible");
            prop_assert!(is_k_anonymous(&out.anon, k), "{algo:?}");
            let hs = input(&t, k, fanout).hierarchies;
            prop_assert!(
                out.anon.is_truthful(&t, |a| Some(hs[a].clone()), None),
                "{algo:?}"
            );
            let g = gcp(&t, &out.anon, |a| Some(hs[a].clone()));
            prop_assert!((0.0..=1.0 + 1e-12).contains(&g), "{algo:?}: gcp {g}");
        }
    }

    #[test]
    fn incognito_result_is_minimal_full_domain(
        rows in rows_strategy(),
        dom_a in 2usize..10,
        k in 2usize..4,
    ) {
        prop_assume!(rows.len() >= k);
        let t = build_table(&rows, dom_a, 4);
        let i = input(&t, k, 2);
        let out = RelationalAlgorithm::Incognito.run(&i, 0).expect("feasible");
        let hs = &i.hierarchies;

        // recover the chosen per-attribute levels from the output
        let mut levels = Vec::new();
        for (pos, col) in out.anon.rel.iter().enumerate() {
            let GenEntry::Node(node) = &col.domain[0] else {
                panic!("Incognito emits node entries");
            };
            levels.push(hs[pos].height() - hs[pos].depth(*node));
        }

        // minimality: reducing any coordinate by one must break
        // k-anonymity
        for pos in 0..levels.len() {
            if levels[pos] == 0 {
                continue;
            }
            let mut reduced = levels.clone();
            reduced[pos] -= 1;
            let m = min_class_size(&i, |p, v| hs[p].generalize(v, reduced[p]));
            prop_assert!(
                m < k,
                "node {levels:?} is not minimal: {reduced:?} still k-anonymous"
            );
        }
    }

    #[test]
    fn duplicated_datasets_need_no_generalization(
        base in prop::collection::vec((0usize..6, 0usize..6), 2..10),
        k in 2usize..4,
    ) {
        // replicate every record k times: already k-anonymous
        let mut rows = Vec::new();
        for &r in &base {
            for _ in 0..k {
                rows.push(r);
            }
        }
        let t = build_table(&rows, 6, 6);
        for algo in [
            RelationalAlgorithm::Incognito,
            RelationalAlgorithm::TopDown,
            RelationalAlgorithm::BottomUp,
        ] {
            let i = input(&t, k, 2);
            let out = algo.run(&i, 0).expect("feasible");
            let hs = input(&t, k, 2).hierarchies;
            let g = gcp(&t, &out.anon, |a| Some(hs[a].clone()));
            prop_assert!(
                g.abs() < 1e-12,
                "{algo:?} must keep duplicated data untouched, gcp={g}"
            );
        }
    }

    #[test]
    fn cluster_optimized_matches_reference(
        rows in rows_strategy(),
        dom_a in 2usize..12,
        dom_b in 2usize..8,
        k in 2usize..5,
        seed in 0u64..100,
    ) {
        prop_assume!(rows.len() >= k);
        let t = build_table(&rows, dom_a, dom_b);
        let i = input(&t, k, 3);
        let fast = secreta_relational::cluster::anonymize(&i, seed).expect("feasible");
        let slow = secreta_oracle::relational::cluster::anonymize(&i, seed).expect("feasible");
        prop_assert_eq!(fast.anon, slow.anon);
    }

    #[test]
    fn cluster_classes_at_least_k_and_at_most_n(
        rows in rows_strategy(),
        k in 2usize..6,
        seed in 0u64..50,
    ) {
        prop_assume!(rows.len() >= k);
        let t = build_table(&rows, 10, 6);
        let i = input(&t, k, 3);
        let out = RelationalAlgorithm::Cluster.run(&i, seed).expect("feasible");
        let sizes = out.anon.equivalence_classes().sizes;
        prop_assert_eq!(sizes.iter().sum::<usize>(), t.n_rows());
        for s in sizes {
            prop_assert!(s >= k);
        }
    }
}
