//! Cross-checks of the interned/sharded support kernels: every
//! algorithm must produce byte-identical output to its naive oracle in
//! `secreta-oracle` on random RT-tables (random universes, duplicate
//! items, empty transactions) and at any thread budget.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use secreta_data::{Attribute, AttributeKind, ItemId, RtTable, Schema};
use secreta_hierarchy::auto_hierarchy;
use secreta_oracle::transaction as oracle;
use secreta_transaction::{
    self as tx, set_density_threshold, RhoParams, TransactionInput, TxError, TxOutput,
};
use std::sync::Mutex;

/// Tests here mutate or depend on the process-global bitmap density
/// threshold; they take this lock so the mutations never interleave.
static GLOBALS: Mutex<()> = Mutex::new(());

fn build_table(rows: &[Vec<usize>], universe: usize) -> RtTable {
    let schema = Schema::new(vec![Attribute::transaction("Items")]).unwrap();
    let mut t = RtTable::new(schema);
    for i in 0..universe {
        t.intern_item(&format!("i{i:02}")).unwrap();
    }
    for tx in rows {
        let items: Vec<String> = tx.iter().map(|i| format!("i{:02}", i % universe)).collect();
        let refs: Vec<&str> = items.iter().map(String::as_str).collect();
        t.push_row(&[], &refs).unwrap();
    }
    t
}

/// Transactions may be empty and may repeat items — both must be
/// handled identically by the oracles and the kernels.
fn rows_strategy() -> impl Strategy<Value = Vec<Vec<usize>>> {
    prop::collection::vec(prop::collection::vec(0usize..32, 0..6), 4..40)
}

fn agree(
    label: &str,
    fast: Result<TxOutput, TxError>,
    base: Result<TxOutput, TxError>,
) -> Result<(), TestCaseError> {
    match (fast, base) {
        (Ok(f), Ok(b)) => prop_assert_eq!(&f.anon, &b.anon, "{} diverged", label),
        (Err(_), Err(_)) => {}
        (f, b) => prop_assert!(
            false,
            "{label}: kernel ok={} but naive ok={}",
            f.is_ok(),
            b.is_ok()
        ),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Every algorithm, kernel counters vs the naive oracle, on the
    /// same random table: identical published output (or identical
    /// failure).
    #[test]
    fn kernels_agree_with_reference(
        rows in rows_strategy(),
        universe in 4usize..12,
        k in 2usize..5,
        m in 1usize..3,
        fanout in 2usize..4,
    ) {
        let t = build_table(&rows, universe);
        let h = auto_hierarchy(t.item_pool().unwrap(), AttributeKind::Categorical, fanout)
            .unwrap();
        let km = TransactionInput::km(&t, k, m, &h);
        agree(
            "apriori",
            tx::apriori::anonymize(&km),
            oracle::apriori::anonymize(&km),
        )?;
        agree(
            "lra",
            tx::lra::anonymize(&km, 2),
            oracle::lra::anonymize(&km, 2),
        )?;
        agree(
            "vpa",
            tx::vpa::anonymize(&km, 3),
            oracle::vpa::anonymize(&km, 3),
        )?;
        let plain = TransactionInput {
            table: &t,
            k,
            m: 1,
            hierarchy: None,
            privacy: None,
            utility: None,
        };
        agree(
            "coat",
            tx::coat::anonymize(&plain),
            oracle::coat::anonymize(&plain),
        )?;
        agree(
            "pcta",
            tx::pcta::anonymize(&plain),
            oracle::pcta::anonymize(&plain),
        )?;
        let params = RhoParams {
            rho: k as f64 / 10.0,
            sensitive: vec![ItemId(0), ItemId(1)],
            max_antecedent: m,
        };
        let rho_in = TransactionInput {
            table: &t,
            k: 1,
            m: 1,
            hierarchy: None,
            privacy: None,
            utility: None,
        };
        agree(
            "rho",
            tx::rho::anonymize(&rho_in, &params),
            oracle::rho::anonymize(&rho_in, &params),
        )?;
        let td = TransactionInput::km(&t, 1, 1, &h);
        agree(
            "rho_td",
            tx::rho_td::anonymize(&td, &params),
            oracle::rho_td::anonymize(&td, &params),
        )?;
    }
}

/// Rows with two forced hot items — item 0 in every transaction and
/// item 1 in every other one — on top of a random sparse tail, so a
/// low density threshold puts both tiers in one table.
fn both_tier_rows(tail: &[Vec<usize>]) -> Vec<Vec<usize>> {
    tail.iter()
        .enumerate()
        .map(|(i, t)| {
            let mut row = vec![0usize];
            if i % 2 == 0 {
                row.push(1);
            }
            row.extend(t.iter().map(|&v| 2 + v));
            row
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Kernel-vs-naive agreement with the density threshold forced
    /// low enough that the hot items go dense while the random tail
    /// stays on CSR postings: every algorithm must produce identical
    /// output with mixed bitmap×CSR row sets in play.
    #[test]
    fn kernels_agree_with_both_tiers_forced(
        tail in prop::collection::vec(prop::collection::vec(0usize..24, 0..5), 8..40),
        k in 2usize..5,
    ) {
        let _serial = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
        let rows = both_tier_rows(&tail);
        let t = build_table(&rows, 26);
        let h = auto_hierarchy(t.item_pool().unwrap(), AttributeKind::Categorical, 3)
            .unwrap();
        // items 0/1 clear 5% density by construction; singleton tail
        // items (1 posting in ≥ 8 rows) stay sparse
        set_density_threshold(Some(0.05));
        let km = TransactionInput::km(&t, k, 2, &h);
        let plain = TransactionInput {
            table: &t,
            k,
            m: 1,
            hierarchy: None,
            privacy: None,
            utility: None,
        };
        let params = RhoParams {
            rho: 0.5,
            sensitive: vec![ItemId(0), ItemId(2)],
            max_antecedent: 2,
        };
        let rho_in = TransactionInput {
            table: &t,
            k: 1,
            m: 1,
            hierarchy: None,
            privacy: None,
            utility: None,
        };
        let td = TransactionInput::km(&t, 1, 1, &h);
        let checks = [
            ("apriori", tx::apriori::anonymize(&km), oracle::apriori::anonymize(&km)),
            ("lra", tx::lra::anonymize(&km, 2), oracle::lra::anonymize(&km, 2)),
            ("vpa", tx::vpa::anonymize(&km, 3), oracle::vpa::anonymize(&km, 3)),
            ("coat", tx::coat::anonymize(&plain), oracle::coat::anonymize(&plain)),
            ("pcta", tx::pcta::anonymize(&plain), oracle::pcta::anonymize(&plain)),
            ("rho", tx::rho::anonymize(&rho_in, &params),
                oracle::rho::anonymize(&rho_in, &params)),
            ("rho_td", tx::rho_td::anonymize(&td, &params),
                oracle::rho_td::anonymize(&td, &params)),
        ];
        set_density_threshold(None);
        for (label, fast, base) in checks {
            agree(label, fast, base)?;
        }
    }
}

/// Deterministic skewed basket table, large enough to shard
/// (`support::MIN_ROWS_PER_SHARD` is 128).
fn demo_table(n_rows: usize, universe: usize, max_items: u64) -> RtTable {
    let schema = Schema::new(vec![Attribute::transaction("Items")]).unwrap();
    let mut t = RtTable::new(schema);
    for i in 0..universe {
        t.intern_item(&format!("i{i:02}")).unwrap();
    }
    let mut s: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    for _ in 0..n_rows {
        let len = 1 + (next() % max_items) as usize;
        let items: Vec<String> = (0..len)
            .map(|_| {
                // quadratic skew: low ids frequent, high ids rare
                let r = (next() % universe as u64) as usize;
                format!("i{:02}", r * r / universe)
            })
            .collect();
        let refs: Vec<&str> = items.iter().map(String::as_str).collect();
        t.push_row(&[], &refs).unwrap();
    }
    t
}

/// Sharded counting must be byte-identical at any thread budget, for
/// every ported algorithm. The lock keeps a concurrent test's density
/// threshold from changing the tiers between the runs compared.
#[test]
fn outputs_invariant_under_thread_count() {
    let _serial = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    let t = demo_table(700, 40, 4);
    let h = auto_hierarchy(t.item_pool().unwrap(), AttributeKind::Categorical, 2).unwrap();
    let km = TransactionInput::km(&t, 10, 2, &h);
    let plain = TransactionInput {
        table: &t,
        k: 10,
        m: 1,
        hierarchy: None,
        privacy: None,
        utility: None,
    };
    let rho_in = TransactionInput {
        table: &t,
        k: 1,
        m: 1,
        hierarchy: None,
        privacy: None,
        utility: None,
    };
    let td_in = TransactionInput::km(&t, 1, 1, &h);
    // rare items under the quadratic skew: realistic sensitive targets
    let params = RhoParams {
        rho: 0.3,
        sensitive: vec![ItemId(34), ItemId(37)],
        max_antecedent: 2,
    };
    type Run<'a> = (&'a str, Box<dyn Fn() -> secreta_metrics::AnonTable + 'a>);
    let algos: Vec<Run> = vec![
        (
            "apriori",
            Box::new(|| tx::apriori::anonymize(&km).unwrap().anon),
        ),
        ("lra", Box::new(|| tx::lra::anonymize(&km, 2).unwrap().anon)),
        ("vpa", Box::new(|| tx::vpa::anonymize(&km, 4).unwrap().anon)),
        (
            "coat",
            Box::new(|| tx::coat::anonymize(&plain).unwrap().anon),
        ),
        (
            "pcta",
            Box::new(|| tx::pcta::anonymize(&plain).unwrap().anon),
        ),
        (
            "rho",
            Box::new(|| tx::rho::anonymize(&rho_in, &params).unwrap().anon),
        ),
        (
            "rho_td",
            Box::new(|| tx::rho_td::anonymize(&td_in, &params).unwrap().anon),
        ),
    ];
    for (name, run) in &algos {
        let sequential = run();
        for threads in [2, 8] {
            let parallel = secreta_parallel::with_threads(threads, run);
            assert_eq!(parallel, sequential, "{name} differs at {threads} threads");
        }
    }
}

/// The tiered path specifically — density threshold forced low enough
/// that the skewed table's frequent items (and the merged groups
/// COAT/PCTA build) go dense — must stay byte-identical at 1/2/8
/// threads.
#[test]
fn tiered_outputs_invariant_under_thread_count() {
    let _serial = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    let t = demo_table(700, 40, 4);
    let h = auto_hierarchy(t.item_pool().unwrap(), AttributeKind::Categorical, 2).unwrap();
    let km = TransactionInput::km(&t, 10, 2, &h);
    let plain = TransactionInput {
        table: &t,
        k: 10,
        m: 1,
        hierarchy: None,
        privacy: None,
        utility: None,
    };
    set_density_threshold(Some(0.01));
    type Run<'a> = (&'a str, Box<dyn Fn() -> secreta_metrics::AnonTable + 'a>);
    let algos: Vec<Run> = vec![
        (
            "apriori",
            Box::new(|| tx::apriori::anonymize(&km).unwrap().anon),
        ),
        (
            "coat",
            Box::new(|| tx::coat::anonymize(&plain).unwrap().anon),
        ),
        (
            "pcta",
            Box::new(|| tx::pcta::anonymize(&plain).unwrap().anon),
        ),
    ];
    for (name, run) in &algos {
        let sequential = run();
        for threads in [2, 8] {
            let parallel = secreta_parallel::with_threads(threads, run);
            assert_eq!(
                parallel, sequential,
                "{name} (tiered) differs at {threads} threads"
            );
        }
    }
    set_density_threshold(None);
}

/// The RuleCounts dirty-set port (rho / rho_td) specifically: with the
/// density threshold forced to zero, every dirty set computed by
/// `union_rowset` is a dense bitmap, so the `update_rowset` bitmap arm
/// is the only incremental path exercised — outputs must still match
/// the naive recount-everything oracle exactly.
#[test]
fn rule_counts_dense_dirty_sets_match_naive() {
    let _serial = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    let t = demo_table(300, 30, 5);
    let h = auto_hierarchy(t.item_pool().unwrap(), AttributeKind::Categorical, 2).unwrap();
    let rho_in = TransactionInput {
        table: &t,
        k: 1,
        m: 1,
        hierarchy: None,
        privacy: None,
        utility: None,
    };
    let td_in = TransactionInput::km(&t, 1, 1, &h);
    // frequent low ids as sensitive targets force real suppressions
    // (large dirty sets) through the dense tier
    let params = RhoParams {
        rho: 0.2,
        sensitive: vec![ItemId(0), ItemId(3), ItemId(28)],
        max_antecedent: 2,
    };
    set_density_threshold(Some(0.0));
    let rho_fast = tx::rho::anonymize(&rho_in, &params);
    let td_fast = tx::rho_td::anonymize(&td_in, &params);
    set_density_threshold(None);
    let rho_base = oracle::rho::anonymize(&rho_in, &params);
    let td_base = oracle::rho_td::anonymize(&td_in, &params);
    assert_eq!(
        rho_fast.unwrap().anon,
        rho_base.unwrap().anon,
        "rho dense dirty sets diverged from the naive oracle"
    );
    assert_eq!(
        td_fast.unwrap().anon,
        td_base.unwrap().anon,
        "rho_td dense dirty sets diverged from the naive oracle"
    );
}

mod apriori {
    use super::*;
    use secreta_hierarchy::Hierarchy;
    use secreta_transaction::apriori::anonymize;
    use secreta_transaction::is_km_anonymous;

    fn table() -> RtTable {
        let schema = Schema::new(vec![Attribute::transaction("Items")]).unwrap();
        let mut t = RtTable::new(schema);
        for tx in [
            vec!["a", "b"],
            vec!["a", "b"],
            vec!["a", "c"],
            vec!["b", "c"],
            vec!["a", "b", "c"],
            vec!["d"],
            vec!["a", "d"],
            vec!["b", "d"],
        ] {
            t.push_row(&[], &tx).unwrap();
        }
        t
    }

    fn hierarchy(t: &RtTable) -> Hierarchy {
        auto_hierarchy(t.item_pool().unwrap(), AttributeKind::Categorical, 2).unwrap()
    }

    #[test]
    fn tie_break_on_equal_ncp_is_total_and_deterministic() {
        // a balanced universe of 4 leaves under a fanout-2 hierarchy:
        // both internal parents have *identical* NCP, so the old
        // epsilon comparison hit its tie window. The fixed order must
        // pick by (involvement desc, ncp total_cmp asc, NodeId asc) —
        // and must do so identically however the involvement map is
        // iterated, which kernel vs. naive counting exercises.
        let schema = Schema::new(vec![Attribute::transaction("Items")]).unwrap();
        let mut t = RtTable::new(schema);
        // p, q, r, s each appear once => every singleton violates k=2,
        // with equal involvement and equal parent NCP
        for items in [["p"], ["q"], ["r"], ["s"]] {
            t.push_row(&[], &items).unwrap();
        }
        let h = hierarchy(&t);
        // verify the tie premise: both parents share one NCP value
        let l0 = h.leaf(0);
        let l2 = h.leaf(2);
        let p0 = h.parent(l0).unwrap();
        let p2 = h.parent(l2).unwrap();
        assert_ne!(p0, p2);
        assert_eq!(h.ncp(p0).to_bits(), h.ncp(p2).to_bits(), "tie premise");

        let naive = oracle::apriori::anonymize(&TransactionInput::km(&t, 2, 1, &h)).unwrap();
        let kernel = anonymize(&TransactionInput::km(&t, 2, 1, &h)).unwrap();
        assert_eq!(naive.anon, kernel.anon, "tie resolution must agree");
        assert!(is_km_anonymous(&kernel.anon, 2, 1, Some(&h)));

        // and selection is reproducible run-to-run
        let again = anonymize(&TransactionInput::km(&t, 2, 1, &h)).unwrap();
        assert_eq!(kernel.anon, again.anon);
    }

    #[test]
    fn kernel_and_reference_agree_on_fixture() {
        let t = table();
        let h = hierarchy(&t);
        for k in [2, 3, 4] {
            for m in [1, 2, 3] {
                let a = oracle::apriori::anonymize(&TransactionInput::km(&t, k, m, &h)).unwrap();
                let b = anonymize(&TransactionInput::km(&t, k, m, &h)).unwrap();
                assert_eq!(a.anon, b.anon, "k={k} m={m}");
            }
        }
    }
}

mod rho_td {
    use super::*;
    use secreta_hierarchy::Hierarchy;
    use secreta_transaction::rho_td::anonymize;

    /// "marker" perfectly predicts "hiv"; plenty of benign traffic.
    fn table() -> RtTable {
        let schema = Schema::new(vec![Attribute::transaction("Items")]).unwrap();
        let mut t = RtTable::new(schema);
        for tx in [
            vec!["marker", "hiv"],
            vec!["marker", "hiv", "flu"],
            vec!["marker", "hiv"],
            vec!["flu", "cold"],
            vec!["flu", "cold"],
            vec!["flu"],
            vec!["cold"],
            vec!["flu", "cold"],
            vec!["cold", "flu"],
            vec!["flu"],
        ] {
            t.push_row(&[], &tx).unwrap();
        }
        t
    }

    fn setup(t: &RtTable) -> (Hierarchy, ItemId) {
        let h = auto_hierarchy(t.item_pool().unwrap(), AttributeKind::Categorical, 2).unwrap();
        let hiv = ItemId(t.item_pool().unwrap().get("hiv").unwrap());
        (h, hiv)
    }

    fn input<'a>(t: &'a RtTable, h: &'a Hierarchy) -> TransactionInput<'a> {
        TransactionInput::km(t, 1, 1, h)
    }

    #[test]
    fn kernel_and_reference_agree_on_fixture() {
        let t = table();
        let (h, hiv) = setup(&t);
        for rho in [0.25, 0.5, 0.6, 0.95, 1.0] {
            for max_antecedent in [1, 2] {
                let params = RhoParams {
                    rho,
                    sensitive: vec![hiv],
                    max_antecedent,
                };
                let fast = anonymize(&input(&t, &h), &params).unwrap();
                let base = oracle::rho_td::anonymize(&input(&t, &h), &params).unwrap();
                assert_eq!(fast.anon, base.anon, "rho={rho} m={max_antecedent}");
            }
        }
    }
}
