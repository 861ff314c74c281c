//! Kernel-vs-oracle agreement and thread invariance for the risk
//! metrics: the tiered candidate-set kernel must produce byte-exact
//! the same indicators as the brute-force O(n²) reference, on random
//! tables (including empty and duplicate transactions), with both
//! row-set tiers forced, and at any thread count.

use proptest::prelude::*;
use secreta_data::{Attribute, AttributeKind, RtTable, Schema};
use secreta_hierarchy::auto_hierarchy;
use secreta_metrics::AnonTable;
use secreta_risk::{transaction_risk, RiskParams};
use secreta_transaction::Counting::{Kernel, Naive};
use secreta_transaction::{apriori, coat, set_density_threshold, TransactionInput};
use std::sync::Mutex;

/// Serializes tests that touch the process-global density threshold.
static GLOBALS: Mutex<()> = Mutex::new(());

fn build_table(rows: &[Vec<usize>], universe: usize) -> RtTable {
    let schema = Schema::new(vec![Attribute::transaction("Items")]).unwrap();
    let mut t = RtTable::new(schema);
    for i in 0..universe {
        t.intern_item(&format!("i{i:02}")).unwrap();
    }
    for row in rows {
        let items: Vec<String> = row.iter().map(|&v| format!("i{v:02}")).collect();
        let refs: Vec<&str> = items.iter().map(String::as_str).collect();
        t.push_row(&[], &refs).unwrap();
    }
    t
}

/// Random rows with empty transactions and duplicate rows both likely.
fn rows_strategy() -> impl Strategy<Value = Vec<Vec<usize>>> {
    prop::collection::vec(prop::collection::vec(0usize..16, 0..6), 4..32).prop_map(|mut rows| {
        // force at least one duplicate pair and one empty transaction
        let first = rows[0].clone();
        rows.push(first);
        rows.push(Vec::new());
        rows
    })
}

fn attack_both(t: &RtTable, anon: &AnonTable, params: &RiskParams) {
    let (fast, _) = transaction_risk(t, anon, None, params, Kernel);
    let (slow, _) = transaction_risk(t, anon, None, params, Naive);
    assert_eq!(fast, slow, "kernel diverged from the O(n²) oracle");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Kernel == oracle on the identity publication and on real
    /// anonymized outputs (generalizing and suppressing algorithms).
    #[test]
    fn kernel_matches_oracle(rows in rows_strategy(), k in 1usize..4) {
        let _serial = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
        let t = build_table(&rows, 16);
        let params = RiskParams::default();

        // identity: every candidate set is an exact-match row set
        attack_both(&t, &AnonTable::identity(&t, &[]), &params);

        // apriori generalizes over the hierarchy
        let h = auto_hierarchy(t.item_pool().unwrap(), AttributeKind::Categorical, 2).unwrap();
        let km = TransactionInput::km(&t, k, 2, &h);
        if let Ok(out) = apriori::anonymize(&km) {
            // Node/Set entries both appear depending on the cut
            let (fast, _) = transaction_risk(&t, &out.anon, Some(&h), &params, Kernel);
            let (slow, _) = transaction_risk(&t, &out.anon, Some(&h), &params, Naive);
            prop_assert_eq!(fast, slow, "apriori output diverged");
        }

        // coat suppresses items: zero-candidate records appear
        let plain = TransactionInput {
            table: &t,
            k,
            m: 1,
            hierarchy: None,
            privacy: None,
            utility: None,
        };
        if let Ok(out) = coat::anonymize(&plain) {
            attack_both(&t, &out.anon, &params);
        }
    }

    /// Same agreement with the density threshold forced to zero, so
    /// every candidate set rides the dense bitmap tier.
    #[test]
    fn kernel_matches_oracle_dense_tier(rows in rows_strategy()) {
        let _serial = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
        let t = build_table(&rows, 16);
        let anon = AnonTable::identity(&t, &[]);
        let params = RiskParams::default();
        set_density_threshold(Some(0.0));
        let (fast, _) = transaction_risk(&t, &anon, None, &params, Kernel);
        set_density_threshold(None);
        let (slow, _) = transaction_risk(&t, &anon, None, &params, Naive);
        prop_assert_eq!(fast, slow, "dense tier diverged from the oracle");
    }
}

/// The sharded kernel walk must be byte-identical at 1/2/8 threads —
/// the merge is integer min/sum in fixed shard order.
#[test]
fn risk_invariant_under_thread_count() {
    let _serial = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    // deterministic skewed table large enough to shard (≥ 128 rows
    // per shard)
    let mut rows: Vec<Vec<usize>> = Vec::new();
    let mut s: u64 = 0x2545_f491_4f6c_dd1d;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    for _ in 0..700 {
        let len = (next() % 5) as usize;
        rows.push(
            (0..len)
                .map(|_| {
                    let r = (next() % 24) as usize;
                    r * r / 24
                })
                .collect(),
        );
    }
    let t = build_table(&rows, 24);
    let anon = AnonTable::identity(&t, &[]);
    let params = RiskParams::default();

    let (sequential, _) = transaction_risk(&t, &anon, None, &params, Kernel);
    for threads in [2, 8] {
        let (parallel, _) = secreta_parallel::with_threads(threads, || {
            transaction_risk(&t, &anon, None, &params, Kernel)
        });
        assert_eq!(
            parallel, sequential,
            "risk indicators differ at {threads} threads"
        );
    }
    // and the sharded walk agrees with the oracle on this table too
    let (slow, _) = transaction_risk(&t, &anon, None, &params, Naive);
    assert_eq!(sequential, slow);
}
