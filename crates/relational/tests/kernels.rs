//! Kernel-vs-naive identity tests for the relational counting kernels.
//!
//! Every algorithm's `Counting::Kernel` path must produce output
//! byte-identical to its `Counting::Naive` oracle on arbitrary inputs.

use proptest::prelude::*;
use secreta_data::{Attribute, AttributeKind, RtTable, Schema};
use secreta_hierarchy::auto_hierarchy;
use secreta_relational::{bottomup, incognito, topdown};
use secreta_relational::{Counting, RelationalInput};

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
    fn incognito_kernel_matches_naive(
        rows in rows_strategy(),
        dom_a in 2usize..12,
        dom_b in 2usize..8,
        k in 2usize..5,
        fanout in 2usize..4,
    ) {
        prop_assume!(rows.len() >= k);
        let t = build_table(&rows, dom_a, dom_b);
        let i = input(&t, k, fanout);
        let fast = incognito::anonymize_with(&i, Counting::Kernel).expect("feasible");
        let slow = incognito::anonymize_with(&i, Counting::Naive).expect("feasible");
        prop_assert_eq!(fast.anon, slow.anon);
    }

    #[test]
    fn topdown_kernel_matches_naive(
        rows in rows_strategy(),
        dom_a in 2usize..12,
        dom_b in 2usize..8,
        k in 2usize..5,
        fanout in 2usize..4,
    ) {
        prop_assume!(rows.len() >= k);
        let t = build_table(&rows, dom_a, dom_b);
        let i = input(&t, k, fanout);
        let fast = topdown::anonymize_with(&i, Counting::Kernel).expect("feasible");
        let slow = topdown::anonymize_with(&i, Counting::Naive).expect("feasible");
        prop_assert_eq!(fast.anon, slow.anon);
    }

    #[test]
    fn bottomup_kernel_matches_naive(
        rows in rows_strategy(),
        dom_a in 2usize..12,
        dom_b in 2usize..8,
        k in 2usize..5,
        fanout in 2usize..4,
    ) {
        prop_assume!(rows.len() >= k);
        let t = build_table(&rows, dom_a, dom_b);
        let i = input(&t, k, fanout);
        let fast = bottomup::anonymize_with(&i, Counting::Kernel).expect("feasible");
        let slow = bottomup::anonymize_with(&i, Counting::Naive).expect("feasible");
        prop_assert_eq!(fast.anon, slow.anon);
    }
}
