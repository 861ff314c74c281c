//! Kernel-vs-oracle identity tests for the relational algorithms.
//!
//! Every algorithm's production path must produce output byte-identical
//! to its naive oracle in `secreta-oracle`, on arbitrary inputs and on
//! the fixtures below.

use proptest::prelude::*;
use secreta_data::{Attribute, AttributeKind, RtTable, Schema};
use secreta_hierarchy::auto_hierarchy;
use secreta_oracle::relational as oracle;
use secreta_relational::RelationalInput;

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
        let fast = secreta_relational::incognito::anonymize(&i).expect("feasible");
        let slow = oracle::incognito::anonymize(&i).expect("feasible");
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
        let fast = secreta_relational::topdown::anonymize(&i).expect("feasible");
        let slow = oracle::topdown::anonymize(&i).expect("feasible");
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
        let fast = secreta_relational::bottomup::anonymize(&i).expect("feasible");
        let slow = oracle::bottomup::anonymize(&i).expect("feasible");
        prop_assert_eq!(fast.anon, slow.anon);
    }
}

/// The eight-row Age × Edu table the lattice and cut searches share.
fn fixture() -> RtTable {
    let schema = Schema::new(vec![
        Attribute::numeric("Age"),
        Attribute::categorical("Edu"),
    ])
    .unwrap();
    let mut t = RtTable::new(schema);
    for (age, edu) in [
        ("30", "BSc"),
        ("31", "BSc"),
        ("32", "MSc"),
        ("33", "MSc"),
        ("60", "BSc"),
        ("61", "BSc"),
        ("62", "MSc"),
        ("63", "MSc"),
    ] {
        t.push_row(&[age, edu], &[]).unwrap();
    }
    t
}

mod incognito {
    use super::*;
    use secreta_metrics::GenEntry;
    use secreta_relational::incognito::anonymize;

    #[test]
    fn equal_gcp_tie_resolves_to_lexicographically_smallest_node() {
        // two perfectly symmetric attributes: at k=2 both [0,1] and
        // [1,0] are minimal k-anonymous nodes with identical GCP, so
        // selection must fall back to lexicographic node order
        let schema = Schema::new(vec![
            Attribute::categorical("A"),
            Attribute::categorical("B"),
        ])
        .unwrap();
        let mut t = RtTable::new(schema);
        for (a, b) in [("a", "x"), ("a", "y"), ("b", "x"), ("b", "y")] {
            t.push_row(&[a, b], &[]).unwrap();
        }
        let i = RelationalInput {
            table: &t,
            qi_attrs: vec![0, 1],
            hierarchies: vec![
                auto_hierarchy(t.pool(0), AttributeKind::Categorical, 2).unwrap(),
                auto_hierarchy(t.pool(1), AttributeKind::Categorical, 2).unwrap(),
            ],
            k: 2,
        };
        let hs = &i.hierarchies;
        // confirm the tie exists: both single-raise nodes are minimal
        for node in [[0u32, 1], [1, 0]] {
            let m = oracle::min_class_size(&i, |p, v| hs[p].generalize(v, node[p]));
            assert!(m >= 2, "node {node:?} must be k-anonymous");
        }
        for (path, out) in [
            ("oracle", oracle::incognito::anonymize(&i)),
            ("kernel", anonymize(&i)),
        ] {
            let levels: Vec<u32> = out
                .unwrap()
                .anon
                .rel
                .iter()
                .enumerate()
                .map(|(pos, col)| {
                    let GenEntry::Node(node) = &col.domain[0] else {
                        panic!("Incognito emits Node entries");
                    };
                    hs[pos].height() - hs[pos].depth(*node)
                })
                .collect();
            assert_eq!(levels, vec![0, 1], "{path} must publish [0,1]");
        }
    }

    #[test]
    fn kernel_matches_naive_on_fixture() {
        let t = fixture();
        for k in [1, 2, 3, 4, 8] {
            let fast = anonymize(&input(&t, k, 2)).unwrap();
            let slow = oracle::incognito::anonymize(&input(&t, k, 2)).unwrap();
            assert_eq!(fast.anon, slow.anon, "k={k}");
        }
    }
}

mod topdown {
    use super::*;

    #[test]
    fn kernel_matches_naive_on_fixture() {
        let t = fixture();
        for k in [1, 2, 3, 4, 8] {
            let fast = secreta_relational::topdown::anonymize(&input(&t, k, 2)).unwrap();
            let slow = oracle::topdown::anonymize(&input(&t, k, 2)).unwrap();
            assert_eq!(fast.anon, slow.anon, "k={k}");
        }
    }
}

mod bottomup {
    use super::*;

    #[test]
    fn kernel_matches_naive_on_fixture() {
        let t = fixture();
        for k in [1, 2, 3, 4, 8] {
            let fast = secreta_relational::bottomup::anonymize(&input(&t, k, 2)).unwrap();
            let slow = oracle::bottomup::anonymize(&input(&t, k, 2)).unwrap();
            assert_eq!(fast.anon, slow.anon, "k={k}");
        }
    }
}

mod cluster {
    use super::*;
    use secreta_relational::cluster::anonymize;

    /// The shared fixture plus one PhD row, so k = 4 leaves a leftover.
    fn table() -> RtTable {
        let mut t = fixture();
        t.push_row(&["64", "PhD"], &[]).unwrap();
        t
    }

    /// A table wide enough for many clusters and leftovers.
    fn big_table(rows: usize) -> RtTable {
        let schema = Schema::new(vec![
            Attribute::numeric("Age"),
            Attribute::categorical("Edu"),
        ])
        .unwrap();
        let mut t = RtTable::new(schema);
        let edus = ["BSc", "MSc", "PhD", "HS"];
        for i in 0..rows {
            let age = (18 + (i * 13) % 60).to_string();
            t.push_row(&[&age, edus[(i * 7) % edus.len()]], &[])
                .unwrap();
        }
        t
    }

    #[test]
    fn optimized_matches_reference_implementation() {
        let t = table();
        for seed in 0..4 {
            for k in [1, 2, 3, 5] {
                let fast = anonymize(&input(&t, k, 2), seed).unwrap();
                let slow = oracle::cluster::anonymize(&input(&t, k, 2), seed).unwrap();
                assert_eq!(fast.anon, slow.anon, "seed={seed} k={k}");
            }
        }
    }

    #[test]
    fn optimized_matches_reference_on_large_input() {
        let t = big_table(700);
        let fast = anonymize(&input(&t, 10, 2), 3).unwrap();
        let slow = oracle::cluster::anonymize(&input(&t, 10, 2), 3).unwrap();
        assert_eq!(fast.anon, slow.anon);
    }

    /// The first `q` columns of `t` as QIs, each with an auto
    /// hierarchy of fanout `fanout`.
    fn wide_input(t: &RtTable, q: usize, k: usize, fanout: usize) -> RelationalInput<'_> {
        RelationalInput {
            table: t,
            qi_attrs: (0..q).collect(),
            hierarchies: (0..q)
                .map(|pos| auto_hierarchy(t.pool(pos), kind(pos), fanout).unwrap())
                .collect(),
            k,
        }
    }

    fn kind(pos: usize) -> AttributeKind {
        if pos.is_multiple_of(2) {
            AttributeKind::Numeric
        } else {
            AttributeKind::Categorical
        }
    }

    /// One column per entry of `doms`, numeric and categorical in
    /// turn, column `pos` with the value domain `0..doms[pos]`; each
    /// row's cells are taken modulo their column's domain.
    fn wide_table(doms: &[usize], rows: &[Vec<usize>]) -> RtTable {
        let attrs = (0..doms.len())
            .map(|pos| Attribute::new(format!("A{pos}"), kind(pos)))
            .collect();
        let mut t = RtTable::new(Schema::new(attrs).unwrap());
        for (pos, &dom) in doms.iter().enumerate() {
            for v in 0..dom {
                t.intern_value(pos, &v.to_string()).unwrap();
            }
        }
        for row in rows {
            let cells: Vec<String> = row
                .iter()
                .zip(doms)
                .map(|(c, dom)| (c % dom).to_string())
                .collect();
            let cells: Vec<&str> = cells.iter().map(String::as_str).collect();
            t.push_row(&cells, &[]).unwrap();
        }
        t
    }

    /// Which scan paths one kernel run took, from its counters.
    struct Paths {
        /// Candidate costs the greedy steps compared (`ncp_evals`
        /// without the leftover phase's).
        greedy_evals: u64,
        /// Candidate costs summed from the tables: short of
        /// `greedy_evals` exactly when some step kept the sums.
        cost_sums: u64,
        /// Greedy picks that moved no LCA: each was a 0.0 minimum, so
        /// its scan ended at the first zero.
        zero_picks: u64,
    }

    fn traced(i: &RelationalInput, seed: u64) -> (secreta_metrics::AnonTable, Paths) {
        let rec = secreta_obsv::Recorder::enabled();
        let out = {
            let _installed = secreta_obsv::install(&rec);
            anonymize(i, seed).unwrap()
        };
        let profile = rec.finish("cluster").unwrap();
        let count = |name| profile.counter(name).unwrap_or(0);
        let clusters = count("cluster/clusters");
        let paths = Paths {
            greedy_evals: count("cluster/ncp_evals") - count("cluster/leftovers") * clusters,
            cost_sums: count("cluster/cost_sums"),
            zero_picks: clusters * i.k as u64 - count("cluster/cost_rebuilds"),
        };
        (out.anon, paths)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Every QI width from 1 to 9 (the kernel's unrolled widths and
        /// its plain loop), on a table full of duplicates and on one of
        /// distinct rows, at every k from 1 to n.
        #[test]
        fn kernel_matches_oracle_at_every_width_and_k(
            n in 6usize..22,
            cells in prop::collection::vec(0usize..1000, 9 * 22),
            templates in 1usize..4,
            dom in 2usize..9,
            fanout in 2usize..4,
            seed in any::<u64>(),
        ) {
            for q in 1..=9 {
                let row = |i: usize| cells[i * 9..i * 9 + q].to_vec();
                // full of duplicates: every row repeats one of a few
                let dups: Vec<Vec<usize>> = (0..n).map(|i| row(i % templates)).collect();
                // distinct: the first column alone tells the rows apart
                let distinct: Vec<Vec<usize>> = (0..n)
                    .map(|i| {
                        let mut r = row(i);
                        r[0] = i;
                        r
                    })
                    .collect();
                let mut doms = vec![dom; q];
                let dup_table = wide_table(&doms, &dups);
                doms[0] = n;
                let distinct_table = wide_table(&doms, &distinct);

                let (mut kept, mut zeros) = (false, false);
                for k in 1..=n {
                    for (name, t) in [("dups", &dup_table), ("distinct", &distinct_table)] {
                        let i = wide_input(t, q, k, fanout);
                        let (fast, paths) = traced(&i, seed);
                        let slow = oracle::cluster::anonymize(&i, seed).unwrap();
                        prop_assert_eq!(&fast, &slow.anon, "{} q={} k={}", name, q, k);
                        prop_assert!(paths.cost_sums <= paths.greedy_evals);
                        if name == "dups" {
                            kept |= paths.cost_sums < paths.greedy_evals;
                            zeros |= paths.zero_picks > 0;
                        }
                    }
                }
                prop_assert!(kept, "q={}: no greedy step kept its sums", q);
                prop_assert!(zeros, "q={}: no scan ended at a zero cost", q);
            }
        }
    }
}
