//! Cross-checks of the interned/sharded support kernels: every
//! ported algorithm must produce byte-identical output to its naive
//! reference counter on random RT-tables (random universes, duplicate
//! items, empty transactions) and at any thread budget.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use secreta_data::{Attribute, AttributeKind, ItemId, RtTable, Schema};
use secreta_hierarchy::auto_hierarchy;
use secreta_transaction::{
    apriori, coat, lra, pcta, rho, rho_td, set_density_threshold, vpa, RhoParams, TransactionInput,
    TxError, TxOutput,
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
/// handled identically by the naive and kernel counters.
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

    /// Every algorithm, kernel counters vs the naive reference, on the
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
        use secreta_transaction::Counting::{Kernel, Naive};
        let t = build_table(&rows, universe);
        let h = auto_hierarchy(t.item_pool().unwrap(), AttributeKind::Categorical, fanout)
            .unwrap();
        let km = TransactionInput::km(&t, k, m, &h);
        agree(
            "apriori",
            apriori::anonymize_with(&km, Kernel),
            apriori::anonymize_with(&km, Naive),
        )?;
        agree(
            "lra",
            lra::anonymize_with(&km, 2, Kernel),
            lra::anonymize_with(&km, 2, Naive),
        )?;
        agree(
            "vpa",
            vpa::anonymize_with(&km, 3, Kernel),
            vpa::anonymize_with(&km, 3, Naive),
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
            coat::anonymize_with(&plain, Kernel),
            coat::anonymize_with(&plain, Naive),
        )?;
        agree(
            "pcta",
            pcta::anonymize_with(&plain, Kernel),
            pcta::anonymize_with(&plain, Naive),
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
            rho::anonymize_with(&rho_in, &params, Kernel),
            rho::anonymize_with(&rho_in, &params, Naive),
        )?;
        let td = TransactionInput::km(&t, 1, 1, &h);
        agree(
            "rho_td",
            rho_td::anonymize_with(&td, &params, Kernel),
            rho_td::anonymize_with(&td, &params, Naive),
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
        use secreta_transaction::Counting::{Kernel, Naive};
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
            ("apriori", apriori::anonymize_with(&km, Kernel), apriori::anonymize_with(&km, Naive)),
            ("lra", lra::anonymize_with(&km, 2, Kernel), lra::anonymize_with(&km, 2, Naive)),
            ("vpa", vpa::anonymize_with(&km, 3, Kernel), vpa::anonymize_with(&km, 3, Naive)),
            ("coat", coat::anonymize_with(&plain, Kernel), coat::anonymize_with(&plain, Naive)),
            ("pcta", pcta::anonymize_with(&plain, Kernel), pcta::anonymize_with(&plain, Naive)),
            ("rho", rho::anonymize_with(&rho_in, &params, Kernel),
                rho::anonymize_with(&rho_in, &params, Naive)),
            ("rho_td", rho_td::anonymize_with(&td, &params, Kernel),
                rho_td::anonymize_with(&td, &params, Naive)),
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
            Box::new(|| apriori::anonymize(&km).unwrap().anon),
        ),
        ("lra", Box::new(|| lra::anonymize(&km, 2).unwrap().anon)),
        ("vpa", Box::new(|| vpa::anonymize(&km, 4).unwrap().anon)),
        ("coat", Box::new(|| coat::anonymize(&plain).unwrap().anon)),
        ("pcta", Box::new(|| pcta::anonymize(&plain).unwrap().anon)),
        (
            "rho",
            Box::new(|| rho::anonymize(&rho_in, &params).unwrap().anon),
        ),
        (
            "rho_td",
            Box::new(|| rho_td::anonymize(&td_in, &params).unwrap().anon),
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
            Box::new(|| apriori::anonymize(&km).unwrap().anon),
        ),
        ("coat", Box::new(|| coat::anonymize(&plain).unwrap().anon)),
        ("pcta", Box::new(|| pcta::anonymize(&plain).unwrap().anon)),
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
    use secreta_transaction::Counting::{Kernel, Naive};
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
    let rho_fast = rho::anonymize_with(&rho_in, &params, Kernel);
    let td_fast = rho_td::anonymize_with(&td_in, &params, Kernel);
    set_density_threshold(None);
    let rho_base = rho::anonymize_with(&rho_in, &params, Naive);
    let td_base = rho_td::anonymize_with(&td_in, &params, Naive);
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
