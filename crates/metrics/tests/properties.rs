//! Property tests of the utility measures and query estimation.

use proptest::prelude::*;
use secreta_data::{Attribute, AttributeKind, ItemId, RtTable, Schema};
use secreta_hierarchy::{auto_hierarchy, Hierarchy};
use secreta_metrics::anon::{rel_column_from_value_map, AnonTransaction};
use secreta_metrics::{
    average_relative_error, gcp, loss, transaction_gcp, utility_loss, AnonTable, GenEntry, Query,
    QueryAtom, RelColumn, Workload,
};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Build a table with one relational attribute of domain `dom` and a
/// `items`-sized item universe, `n` rows, deterministically from a
/// seed-ish stream of choices.
fn build_table(dom: usize, items: usize, rows: &[(usize, Vec<usize>)]) -> RtTable {
    let schema = Schema::new(vec![
        Attribute::categorical("A"),
        Attribute::transaction("Items"),
    ])
    .unwrap();
    let mut t = RtTable::new(schema);
    for v in 0..dom {
        t.intern_value(0, &format!("a{v}")).unwrap();
    }
    for i in 0..items {
        t.intern_item(&format!("i{i}")).unwrap();
    }
    for (val, tx) in rows {
        let val = format!("a{}", val % dom);
        let items_s: Vec<String> = tx.iter().map(|i| format!("i{}", i % items)).collect();
        let refs: Vec<&str> = items_s.iter().map(String::as_str).collect();
        t.push_row(&[&val], &refs).unwrap();
    }
    t
}

/// A random partition of `0..dom` into generalized sets.
fn random_partition(dom: usize, cuts: &[usize]) -> Vec<Vec<u32>> {
    let mut boundaries: Vec<usize> = cuts.iter().map(|c| c % dom.max(1)).collect();
    boundaries.push(0);
    boundaries.push(dom);
    boundaries.sort_unstable();
    boundaries.dedup();
    boundaries
        .windows(2)
        .map(|w| (w[0] as u32..w[1] as u32).collect())
        .filter(|g: &Vec<u32>| !g.is_empty())
        .collect()
}

fn rows_strategy() -> impl Strategy<Value = Vec<(usize, Vec<usize>)>> {
    prop::collection::vec(
        (0usize..100, prop::collection::vec(0usize..100, 0..6)),
        1..40,
    )
}

/// The per-row `Query::estimate` that resolved each relational atom's
/// column and hierarchy again for every row. Kept verbatim as the
/// oracle the tabulated estimate must match bit for bit.
fn reference_estimate(
    q: &Query,
    table: &RtTable,
    anon: &AnonTable,
    rel_hierarchy: &impl Fn(usize) -> Option<Hierarchy>,
    tx_hierarchy: Option<&Hierarchy>,
) -> f64 {
    let mut total = 0.0;
    for row in 0..anon.n_rows {
        let mut p = 1.0f64;
        for atom in &q.atoms {
            if p == 0.0 {
                break;
            }
            match atom {
                QueryAtom::Rel { attr, values } => {
                    match anon.rel_column(*attr) {
                        Some(col) => {
                            let entry = col.entry(row);
                            let h = rel_hierarchy(*attr);
                            let s = entry.leaf_count(h.as_ref());
                            if s == 0 {
                                p = 0.0;
                                continue;
                            }
                            let hits = values
                                .iter()
                                .filter(|&&v| entry.covers(v, h.as_ref()))
                                .count();
                            p *= hits as f64 / s as f64;
                        }
                        None => {
                            // attribute published unchanged
                            let v = table.value(row, *attr).0;
                            if values.binary_search(&v).is_err() {
                                p = 0.0;
                            }
                        }
                    }
                }
                QueryAtom::Items { items } => match &anon.tx {
                    Some(tx) => {
                        let row_items = tx.row_items(row);
                        let mult = tx.row_multiplicity(row);
                        for queried in items {
                            if tx.suppressed.binary_search(queried).is_ok() {
                                p = 0.0;
                                break;
                            }
                            // probability the queried item is among
                            // this row's original items
                            let mut pa = 0.0f64;
                            for (pos, &g) in row_items.iter().enumerate() {
                                let entry = &tx.domain[g as usize];
                                if entry.covers(queried.0, tx_hierarchy) {
                                    let s = entry.leaf_count(tx_hierarchy).max(1);
                                    pa = (mult[pos] as f64 / s as f64).min(1.0);
                                    break;
                                }
                            }
                            p *= pa;
                            if p == 0.0 {
                                break;
                            }
                        }
                    }
                    None => {
                        // transaction attribute published unchanged
                        let tx_orig = table.transaction(row);
                        for it in items {
                            if tx_orig.binary_search(it).is_err() {
                                p = 0.0;
                                break;
                            }
                        }
                    }
                },
            }
        }
        total += p;
    }
    total
}

/// `average_relative_error` over [`reference_estimate`], sequentially.
fn reference_are(
    table: &RtTable,
    anon: &AnonTable,
    workload: &Workload,
    rel_hierarchy: &impl Fn(usize) -> Option<Hierarchy>,
    tx_hierarchy: Option<&Hierarchy>,
) -> f64 {
    if workload.is_empty() {
        return 0.0;
    }
    let errors: Vec<f64> = workload
        .queries
        .iter()
        .map(|q| {
            let exact = q.count(table) as f64;
            let est = reference_estimate(q, table, anon, rel_hierarchy, tx_hierarchy);
            (exact - est).abs() / exact.max(1.0)
        })
        .collect();
    errors.iter().sum::<f64>() / workload.len() as f64
}

/// Relational attributes of [`build_mixed_table`]: `A` (categorical)
/// and `B` (numeric) get anonymized, `C` stays published unchanged.
const MIXED_ATTRS: usize = 3;

/// A table with the three relational attributes of [`MIXED_ATTRS`],
/// domains of `doms` values, and an `items`-sized item universe.
fn build_mixed_table(
    doms: [usize; MIXED_ATTRS],
    items: usize,
    rows: &[([usize; MIXED_ATTRS], Vec<usize>)],
) -> RtTable {
    let schema = Schema::new(vec![
        Attribute::categorical("A"),
        Attribute::numeric("B"),
        Attribute::categorical("C"),
        Attribute::transaction("Items"),
    ])
    .unwrap();
    let mut t = RtTable::new(schema);
    for (attr, &dom) in doms.iter().enumerate() {
        for v in 0..dom {
            t.intern_value(attr, &format!("{v}")).unwrap();
        }
    }
    for i in 0..items {
        t.intern_item(&format!("i{i}")).unwrap();
    }
    for (vals, tx) in rows {
        let vals: Vec<String> = (0..MIXED_ATTRS)
            .map(|a| format!("{}", vals[a] % doms[a]))
            .collect();
        let items_s: Vec<String> = tx.iter().map(|i| format!("i{}", i % items)).collect();
        let refs: Vec<&str> = items_s.iter().map(String::as_str).collect();
        t.push_row(&[&vals[0], &vals[1], &vals[2]], &refs).unwrap();
    }
    t
}

/// Auto hierarchies (fan-out 2) of the two anonymized attributes.
fn mixed_hierarchies(t: &RtTable) -> Vec<Hierarchy> {
    [AttributeKind::Categorical, AttributeKind::Numeric]
        .into_iter()
        .enumerate()
        .map(|(attr, kind)| auto_hierarchy(t.pool(attr), kind, 2).unwrap())
        .collect()
}

/// Recode attribute `attr` value by value: `kinds[v]` picks a `Node`
/// ancestor of `v`'s leaf (its level clamped to the hierarchy), the
/// `Set` of `v`'s partition group, or `Suppressed`.
fn mixed_column(
    t: &RtTable,
    attr: usize,
    h: &Hierarchy,
    kinds: &[(u8, u32)],
    cuts: &[usize],
) -> RelColumn {
    let dom = t.domain_size(attr);
    let groups = random_partition(dom, cuts);
    rel_column_from_value_map(t, attr, |v| match kinds[v.index() % kinds.len()] {
        (0, level) => GenEntry::Node(h.generalize(v.0, level % (h.height() + 1))),
        (1, _) => GenEntry::set(
            groups
                .iter()
                .find(|g| g.contains(&v.0))
                .expect("partition covers the domain")
                .clone(),
        ),
        _ => GenEntry::Suppressed,
    })
}

/// Anonymize `A` and `B` of a [`build_mixed_table`] table with
/// [`mixed_column`]; `C` is left out of `rel`. With `tx_cuts`, items
/// are set-recoded into partition groups and items whose id is
/// divisible by 5 are suppressed.
fn mixed_anon(
    t: &RtTable,
    hs: &[Hierarchy],
    kinds: &[(u8, u32)],
    cuts: &[usize],
    tx_cuts: Option<&[usize]>,
) -> AnonTable {
    let rel = (0..2)
        .map(|attr| mixed_column(t, attr, &hs[attr], kinds, cuts))
        .collect();
    let tx = tx_cuts.map(|tx_cuts| {
        let groups = random_partition(t.item_universe(), tx_cuts);
        let domain = groups.iter().map(|g| GenEntry::set(g.clone())).collect();
        AnonTransaction::from_mapping(t, domain, |it| {
            (it.0 % 5 != 0).then(|| {
                groups
                    .iter()
                    .position(|g| g.contains(&it.0))
                    .expect("partition covers the universe") as u32
            })
        })
    });
    AnonTable {
        rel,
        tx,
        n_rows: t.n_rows(),
    }
}

/// A query from `(target, picks)` atoms: targets 0..3 are the
/// relational attributes (1–3 values each), 3 is the item attribute.
fn mixed_query(t: &RtTable, atoms: &[(usize, Vec<usize>)]) -> Query {
    let atoms = atoms
        .iter()
        .map(|(target, picks)| {
            let modulus = if *target < MIXED_ATTRS {
                t.domain_size(*target)
            } else {
                t.item_universe()
            };
            let mut ids: Vec<u32> = picks.iter().map(|&p| (p % modulus) as u32).collect();
            ids.sort_unstable();
            ids.dedup();
            if *target < MIXED_ATTRS {
                QueryAtom::Rel {
                    attr: *target,
                    values: ids,
                }
            } else {
                QueryAtom::Items {
                    items: ids.into_iter().map(ItemId).collect(),
                }
            }
        })
        .collect();
    Query { atoms }
}

fn mixed_rows_strategy() -> impl Strategy<Value = Vec<([usize; MIXED_ATTRS], Vec<usize>)>> {
    prop::collection::vec(
        (
            (0usize..100, 0usize..100, 0usize..100).prop_map(|(a, b, c)| [a, b, c]),
            prop::collection::vec(0usize..100, 0..5),
        ),
        1..60,
    )
}

fn mixed_workload_strategy() -> impl Strategy<Value = Vec<Vec<(usize, Vec<usize>)>>> {
    prop::collection::vec(
        prop::collection::vec(
            (
                0usize..=MIXED_ATTRS,
                prop::collection::vec(0usize..100, 1..=3),
            ),
            1..5,
        ),
        1..8,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn partition_recoding_is_truthful_and_bounded(
        rows in rows_strategy(),
        dom in 1usize..12,
        items in 1usize..12,
        cuts in prop::collection::vec(0usize..12, 0..4),
    ) {
        let t = build_table(dom, items, &rows);
        let groups = random_partition(dom, &cuts);
        let group_of = |v: u32| {
            groups
                .iter()
                .position(|g| g.contains(&v))
                .expect("partition covers the domain")
        };
        let col = rel_column_from_value_map(&t, 0, |v| {
            GenEntry::set(groups[group_of(v.0)].clone())
        });
        let item_groups = random_partition(items, &cuts);
        let idx_of = |v: u32| {
            item_groups
                .iter()
                .position(|g| g.contains(&v))
                .expect("partition covers the universe") as u32
        };
        let domain: Vec<GenEntry> = item_groups
            .iter()
            .map(|g| GenEntry::set(g.clone()))
            .collect();
        let tx = AnonTransaction::from_mapping(&t, domain, |it| Some(idx_of(it.0)));
        let anon = AnonTable {
            rel: vec![col],
            tx: Some(tx),
            n_rows: t.n_rows(),
        };

        prop_assert!(anon.is_truthful(&t, |_| None, None));
        prop_assert!(anon.is_complete(&t, None));
        let g = gcp(&t, &anon, |_| None);
        prop_assert!((0.0..=1.0).contains(&g));
        let tg = transaction_gcp(&t, &anon, None);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&tg));
        let ul = utility_loss(&t, &anon, None);
        prop_assert!((0.0..=1.0).contains(&ul));
        let d = loss::discernibility(&anon);
        let n = t.n_rows() as u64;
        prop_assert!(d >= n && d <= n * n);
    }

    #[test]
    fn estimates_never_exceed_row_count(
        rows in rows_strategy(),
        dom in 1usize..10,
        items in 1usize..10,
        cuts in prop::collection::vec(0usize..10, 0..3),
        qv in 0usize..10,
        qi in 0usize..10,
    ) {
        let t = build_table(dom, items, &rows);
        let groups = random_partition(dom, &cuts);
        let col = rel_column_from_value_map(&t, 0, |v| {
            GenEntry::set(
                groups
                    .iter()
                    .find(|g| g.contains(&v.0))
                    .expect("covered")
                    .clone(),
            )
        });
        let anon = AnonTable {
            rel: vec![col],
            tx: None,
            n_rows: t.n_rows(),
        };
        let q = Query {
            atoms: vec![
                QueryAtom::Rel { attr: 0, values: vec![(qv % dom) as u32] },
                QueryAtom::Items { items: vec![ItemId((qi % items) as u32)] },
            ],
        };
        let est = q.estimate(&t, &anon, &|_| None, None);
        prop_assert!(est >= -1e-9);
        prop_assert!(est <= t.n_rows() as f64 + 1e-9);
        // exact count is a valid probability-1 estimate of itself
        prop_assert!(q.count(&t) as usize <= t.n_rows());
    }

    #[test]
    fn identity_estimates_are_exact(
        rows in rows_strategy(),
        dom in 1usize..10,
        items in 1usize..10,
        queries in prop::collection::vec((0usize..10, 0usize..10), 1..8),
    ) {
        let t = build_table(dom, items, &rows);
        let anon = AnonTable::identity(&t, &[0]);
        let workload = Workload {
            queries: queries
                .iter()
                .map(|&(v, i)| Query {
                    atoms: vec![
                        QueryAtom::Rel { attr: 0, values: vec![(v % dom) as u32] },
                        QueryAtom::Items { items: vec![ItemId((i % items) as u32)] },
                    ],
                })
                .collect(),
        };
        let are = average_relative_error(&t, &anon, &workload, |_| None, None);
        prop_assert!(are.abs() < 1e-9, "identity must answer exactly, got {are}");
    }

    #[test]
    fn coarser_partitions_never_reduce_gcp(
        rows in rows_strategy(),
        dom in 2usize..10,
    ) {
        let t = build_table(dom, 2, &rows);
        // fine: singletons; coarse: one full-domain set
        let fine = rel_column_from_value_map(&t, 0, |v| GenEntry::Set(vec![v.0]));
        let coarse = rel_column_from_value_map(&t, 0, |_| {
            GenEntry::set((0..dom as u32).collect())
        });
        let mk = |col| AnonTable { rel: vec![col], tx: None, n_rows: t.n_rows() };
        let g_fine = gcp(&t, &mk(fine), |_| None);
        let g_coarse = gcp(&t, &mk(coarse), |_| None);
        prop_assert!(g_fine <= g_coarse + 1e-12);
        prop_assert!((g_fine - 0.0).abs() < 1e-12);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The tabulated estimate equals the per-row reference by
    /// `f64::to_bits`, query by query and as ARE, on columns mixing
    /// `Node`, `Set` and `Suppressed` entries beside an attribute
    /// published unchanged, with and without an anonymized item
    /// attribute; ARE is bit-identical at 1, 2 and 8 threads.
    #[test]
    fn tabulated_estimates_match_the_per_row_oracle(
        rows in mixed_rows_strategy(),
        ((dom_a, dom_b, dom_c), items) in ((1usize..10, 1usize..10, 1usize..10), 1usize..10),
        (kinds, cuts) in (
            prop::collection::vec((0u8..3, 0u32..5), 1..12),
            prop::collection::vec(0usize..10, 0..4),
        ),
        (anonymize_items, tx_cuts) in (any::<bool>(), prop::collection::vec(0usize..10, 0..4)),
        queries in mixed_workload_strategy(),
    ) {
        let t = build_mixed_table([dom_a, dom_b, dom_c], items, &rows);
        let hs = mixed_hierarchies(&t);
        let tx_cuts = anonymize_items.then_some(tx_cuts.as_slice());
        let anon = mixed_anon(&t, &hs, &kinds, &cuts, tx_cuts);
        let hierarchy_of = |attr: usize| hs.get(attr).cloned();
        let workload = Workload {
            queries: queries.iter().map(|atoms| mixed_query(&t, atoms)).collect(),
        };
        for q in &workload.queries {
            let got = q.estimate(&t, &anon, &hierarchy_of, None);
            let want = reference_estimate(q, &t, &anon, &hierarchy_of, None);
            prop_assert_eq!(got.to_bits(), want.to_bits(), "{:?}: {} vs {}", q, got, want);
        }
        let want = reference_are(&t, &anon, &workload, &hierarchy_of, None).to_bits();
        for threads in [1usize, 2, 8] {
            let got = secreta_parallel::with_threads(threads, || {
                average_relative_error(&t, &anon, &workload, hierarchy_of, None)
            });
            prop_assert_eq!(got.to_bits(), want, "ARE at {} threads", threads);
        }
    }
}

/// ARE resolves each relational atom's hierarchy once, not once per
/// row: over 240 rows of `Node`-recoded columns the hierarchy closure
/// runs at most once per relational atom of the workload.
#[test]
fn are_asks_for_each_hierarchy_once_per_atom() {
    let rows: Vec<([usize; MIXED_ATTRS], Vec<usize>)> = (0..240)
        .map(|r| ([r * 7, r * 5, r], vec![r, r / 3]))
        .collect();
    let t = build_mixed_table([9, 11, 4], 6, &rows);
    let hs = mixed_hierarchies(&t);
    let anon = mixed_anon(&t, &hs, &[(0, 1), (0, 2), (0, 0)], &[], Some(&[3]));
    let workload = Workload {
        queries: (0..10)
            .map(|i| mixed_query(&t, &[(0, vec![i, i + 1]), (1, vec![i]), (3, vec![i])]))
            .collect(),
    };
    let rel_atoms = workload
        .queries
        .iter()
        .flat_map(|q| &q.atoms)
        .filter(|a| matches!(a, QueryAtom::Rel { .. }))
        .count();
    let calls = AtomicUsize::new(0);
    let are = average_relative_error(
        &t,
        &anon,
        &workload,
        |attr| {
            calls.fetch_add(1, Ordering::Relaxed);
            hs.get(attr).cloned()
        },
        None,
    );
    let calls = calls.into_inner();
    assert!(
        calls <= rel_atoms,
        "{calls} hierarchy lookups for {rel_atoms} relational atoms"
    );
    let oracle = reference_are(&t, &anon, &workload, &|attr| hs.get(attr).cloned(), None);
    assert_eq!(are.to_bits(), oracle.to_bits());
}
