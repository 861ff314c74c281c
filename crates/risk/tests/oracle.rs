//! Kernel-vs-oracle agreement and thread invariance for the risk
//! metrics: the tiered candidate-set kernel must produce byte-exact
//! the same indicators as the brute-force O(n²) oracle in
//! `secreta-oracle`, on random
//! tables (including empty and duplicate transactions), with both
//! row-set tiers forced, and at any thread count. The privacy-policy
//! audit, which counts supports from the same candidate index, must
//! agree with the row-scan reference kept here.
//!
//! The guarantee audit is a run's verdict, so every rule it counts must
//! pass exactly when the verifier loops it replaced do (kept here as
//! oracles), and count exactly the violations a brute-force scan finds.

use proptest::prelude::*;
use secreta_data::hash::FxHashMap;
use secreta_data::{Attribute, AttributeKind, ItemId, RtTable, Schema};
use secreta_hierarchy::{auto_hierarchy, Hierarchy};
use secreta_metrics::{AnonTable, AnonTransaction, GenEntry};
use secreta_oracle::risk as oracle;
use secreta_policy::PrivacyPolicy;
use secreta_relational::is_k_anonymous;
use secreta_risk::{audit_guarantee, transaction_risk, CandidateIndex, Guarantee, RiskParams};
use secreta_rt::is_k_km_anonymous;
use secreta_transaction::support::for_each_subset_u32;
use secreta_transaction::{
    apriori, coat, is_km_anonymous, lra, satisfies_privacy, set_density_threshold, vpa,
    TransactionInput,
};
use std::collections::{BTreeMap, BTreeSet};
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
    let (fast, _) = transaction_risk(t, anon, None, params);
    let (slow, _) = oracle::transaction_risk(t, anon, None, params);
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

        // apriori generalizes over the hierarchy; LRA and VPA publish
        // partitions, each generalized on its own
        let h = auto_hierarchy(t.item_pool().unwrap(), AttributeKind::Categorical, 2).unwrap();
        let km = TransactionInput::km(&t, k, 2, &h);
        let generalized = [
            ("apriori", apriori::anonymize(&km)),
            ("lra", lra::anonymize(&km, 2)),
            ("vpa", vpa::anonymize(&km, 2)),
        ];
        for (name, out) in generalized {
            if let Ok(out) = out {
                // Node/Set entries both appear depending on the cut
                let (fast, _) = transaction_risk(&t, &out.anon, Some(&h), &params);
                let (slow, _) = oracle::transaction_risk(&t, &out.anon, Some(&h), &params);
                prop_assert_eq!(fast, slow, "{} output diverged", name);
            }
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
        let (fast, _) = transaction_risk(&t, &anon, None, &params);
        set_density_threshold(None);
        let (slow, _) = oracle::transaction_risk(&t, &anon, None, &params);
        prop_assert_eq!(fast, slow, "dense tier diverged from the oracle");
    }
}

/// An item suppressed in its record's own row but published in others
/// leaves that record a floor of 0, not 1. Row 0 = {a, b} publishes only
/// b, rows 1–2 = {a}. Knowing b leaves one candidate (row 0) and knowing
/// {a, b} leaves none, so row 0's worst case falls from 1 at m = 1 to 0
/// at m = 2. A floor of 1 would stop at m = 1 and report 1 for m = 2.
#[test]
fn floor_is_zero_when_the_own_row_is_no_candidate() {
    let t = build_table(&[vec![0, 1], vec![0], vec![0]], 2);
    let domain = vec![GenEntry::Set(vec![0]), GenEntry::Set(vec![1])];
    let tx = AnonTransaction::from_row_mapping(&t, domain, |row, it| {
        (row != 0 || it.0 != 0).then_some(it.0)
    });
    let anon = AnonTable {
        rel: vec![],
        tx: Some(tx),
        n_rows: 3,
    };
    let params = RiskParams::default();
    let (fast, _) = transaction_risk(&t, &anon, None, &params);
    let (slow, _) = oracle::transaction_risk(&t, &anon, None, &params);
    assert_eq!(fast, slow, "kernel diverged from the O(n²) oracle");
    // rows 1–2 keep both a-rows as candidates at every m, so only row 0
    // can bring a minimum below 2
    let per_m = fast.expect("a transaction output").per_m;
    assert_eq!(per_m[0].min_candidates, 1, "row 0 knowing b");
    assert_eq!(per_m[1].min_candidates, 0, "row 0 knowing {{a, b}}");
}

/// The row-scan reference of the privacy-policy audit: constraints
/// whose published support — rows whose items cover every item of the
/// constraint — lies in `(0, k)`. An empty constraint has support 0.
fn policy_violations_by_scan(
    anon: &AnonTable,
    h: Option<&Hierarchy>,
    privacy: &PrivacyPolicy,
    k: usize,
) -> u64 {
    let tx = anon.tx.as_ref().expect("a transaction output");
    privacy
        .constraints
        .iter()
        .filter(|c| {
            let sup = (0..tx.n_rows())
                .filter(|&row| {
                    let items = tx.row_items(row);
                    !c.is_empty()
                        && c.iter()
                            .all(|it| items.iter().any(|&g| tx.domain[g as usize].covers(it.0, h)))
                })
                .count();
            sup > 0 && sup < k
        })
        .count() as u64
}

/// The item [`suppress_first_item`] removes from every row.
const SUPPRESSED: u32 = 0;

/// Random multi-item policies over a 16-item universe, built without
/// [`PrivacyPolicy::new`] so that nothing is normalized away: each also
/// carries an empty constraint, a constraint repeating an item, and a
/// constraint holding [`SUPPRESSED`].
fn policy_strategy() -> impl Strategy<Value = PrivacyPolicy> {
    prop::collection::vec(prop::collection::vec(0u32..16, 1..4), 1..8).prop_map(|mut cs| {
        let first = cs[0][0];
        let last = *cs[cs.len() - 1].last().expect("non-empty");
        cs.push(Vec::new());
        cs.push(vec![first, last, first]);
        cs.push(vec![last, SUPPRESSED]);
        PrivacyPolicy {
            constraints: cs
                .into_iter()
                .map(|c| c.into_iter().map(ItemId).collect())
                .collect(),
        }
    })
}

/// The identity publication with item [`SUPPRESSED`] removed from every
/// row and its domain entry suppressed, so that no entry covers it.
fn suppress_first_item(t: &RtTable) -> AnonTable {
    let domain = (0..t.item_universe() as u32)
        .map(|i| {
            if i == SUPPRESSED {
                GenEntry::Suppressed
            } else {
                GenEntry::Set(vec![i])
            }
        })
        .collect();
    let tx = AnonTransaction::from_mapping(t, domain, |it| (it.0 != SUPPRESSED).then_some(it.0));
    AnonTable {
        rel: vec![],
        tx: Some(tx),
        n_rows: t.n_rows(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The index-backed policy audit counts the same violations as the
    /// row scan, and passes exactly when the verifier does, on the
    /// identity publication, on Apriori's hierarchy `Node` entries, on
    /// COAT's output and on a publication with an item no entry covers.
    #[test]
    fn policy_audit_matches_row_scan(
        rows in rows_strategy(),
        policy in policy_strategy(),
        k in 1usize..5,
    ) {
        let _serial = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
        let t = build_table(&rows, 16);
        let h = auto_hierarchy(t.item_pool().unwrap(), AttributeKind::Categorical, 2).unwrap();
        let mut outputs: Vec<(&str, AnonTable, Option<&Hierarchy>)> = vec![
            ("identity", AnonTable::identity(&t, &[]), None),
            ("suppressed", suppress_first_item(&t), None),
        ];
        if let Ok(out) = apriori::anonymize(&TransactionInput::km(&t, k, 2, &h)) {
            outputs.push(("apriori", out.anon, Some(&h)));
        }
        let plain = TransactionInput {
            table: &t,
            k,
            m: 1,
            hierarchy: None,
            privacy: None,
            utility: None,
        };
        if let Ok(out) = coat::anonymize(&plain) {
            outputs.push(("coat", out.anon, None));
        }
        let guarantee = Guarantee::Policy { k, policy: &policy };
        for (name, anon, h) in &outputs {
            let tx = anon.tx.as_ref().expect("a transaction output");
            let candidates = CandidateIndex::build(&t, tx, *h);
            let classes = anon.equivalence_classes();
            let audit = audit_guarantee(anon, &classes, Some(&candidates), &guarantee);
            let scanned = policy_violations_by_scan(anon, *h, &policy, k);
            prop_assert_eq!(audit.violations, scanned, "{} audit diverged", name);
            prop_assert_eq!(
                audit.passed,
                satisfies_privacy(anon, &policy, k, *h),
                "{} audit disagrees with the verifier",
                name
            );
        }
    }
}

/// A published row of [`published_table`]: two relational values and
/// an item list.
type Row = (u32, u32, Vec<u32>);

/// An item no generated row holds, added by an item perturbation.
const FRESH_ITEM: u32 = 15;

/// The original table behind a random published output: `base` rows,
/// each repeated `reps` times (so outputs at `k ≤ reps` pass until a
/// perturbation breaks one), with a transaction attribute only when
/// `with_tx`. `perturb = (kind, row)` changes one row: kind 1 adds
/// [`FRESH_ITEM`] to its items, kind 2 gives it a fresh first
/// relational value, and kind 0 leaves the table alone.
fn published_table(base: &[Row], reps: usize, with_tx: bool, perturb: (u32, usize)) -> RtTable {
    let mut attrs = vec![Attribute::categorical("A"), Attribute::categorical("B")];
    if with_tx {
        attrs.push(Attribute::transaction("Items"));
    }
    let mut t = RtTable::new(Schema::new(attrs).unwrap());
    if with_tx {
        for i in 0..16 {
            t.intern_item(&format!("i{i:02}")).unwrap();
        }
    }
    let mut rows: Vec<Row> = base
        .iter()
        .flat_map(|row| std::iter::repeat_n(row.clone(), reps))
        .collect();
    let n = rows.len();
    match perturb {
        (1, row) if n > 0 => rows[row % n].2.push(FRESH_ITEM),
        (2, row) if n > 0 => rows[row % n].0 = 9,
        _ => {}
    }
    for (a, b, items) in &rows {
        let items: Vec<String> = if with_tx {
            items.iter().map(|v| format!("i{v:02}")).collect()
        } else {
            Vec::new()
        };
        let items: Vec<&str> = items.iter().map(String::as_str).collect();
        t.push_row(&[&format!("a{a}"), &format!("b{b}")], &items)
            .unwrap();
    }
    t
}

/// Rows grouped by their published relational signature.
fn classes_by_signature(anon: &AnonTable) -> Vec<Vec<usize>> {
    let mut by_sig: BTreeMap<Vec<u32>, Vec<usize>> = BTreeMap::new();
    for row in 0..anon.n_rows {
        let sig = anon.rel.iter().map(|c| c.cells[row]).collect();
        by_sig.entry(sig).or_default().push(row);
    }
    by_sig.into_values().collect()
}

/// The k^m verifier loop the shared counter replaced: one map of
/// allocated keys per itemset size over `rows`, failing at the first
/// support below `k`.
fn km_oracle(tx: &AnonTransaction, rows: &[usize], k: usize, m: usize) -> bool {
    for size in 1..=m.max(1) {
        let mut sup: FxHashMap<Vec<u32>, u32> = FxHashMap::default();
        for &row in rows {
            let items = tx.row_items(row);
            if items.len() < size {
                continue;
            }
            for_each_subset_u32(items, size, &mut |s| {
                *sup.entry(s.to_vec()).or_insert(0) += 1;
            });
        }
        if sup.values().any(|&c| (c as usize) < k) {
            return false;
        }
    }
    true
}

/// The (k,k^m) verifier loop the audit replaced: every class at least
/// `k` rows, then k^m within each class.
fn k_km_oracle(anon: &AnonTable, k: usize, m: usize) -> bool {
    let classes = classes_by_signature(anon);
    if classes.iter().any(|rows| rows.len() < k) {
        return false;
    }
    let Some(tx) = &anon.tx else {
        return true;
    };
    classes.iter().all(|rows| km_oracle(tx, rows, k, m))
}

/// Brute-force k-anonymity count: rows whose signature fewer than `k`
/// rows share, compared row against row.
fn k_by_scan(anon: &AnonTable, k: usize) -> u64 {
    let sig = |row: usize| anon.rel.iter().map(|c| c.cells[row]).collect::<Vec<_>>();
    (0..anon.n_rows)
        .filter(|&row| (0..anon.n_rows).filter(|&r| sig(r) == sig(row)).count() < k)
        .count() as u64
}

/// Brute-force k^m count over `scopes` (the whole table, or each
/// class): distinct itemsets of `1..=m` items occurring in a scope
/// that fewer than `k` of its rows contain, each counted by a row scan.
fn km_by_scan(tx: &AnonTransaction, scopes: &[Vec<usize>], k: usize, m: usize) -> u64 {
    let m = m.max(1);
    let mut violations = 0;
    for rows in scopes {
        let mut itemsets: BTreeSet<Vec<u32>> = BTreeSet::new();
        for &row in rows {
            let items = tx.row_items(row);
            for mask in 1u32..(1 << items.len()) {
                if mask.count_ones() as usize <= m {
                    let set = (0..items.len()).filter(|&i| mask >> i & 1 == 1);
                    itemsets.insert(set.map(|i| items[i]).collect());
                }
            }
        }
        for set in &itemsets {
            let support = rows
                .iter()
                .filter(|&&row| set.iter().all(|it| tx.row_items(row).contains(it)))
                .count();
            violations += u64::from(support < k);
        }
    }
    violations
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For every guarantee the audit passes exactly when the verifier
    /// loop it replaced does, and counts the violations a brute-force
    /// scan counts; the verifier wrappers agree with the loops too.
    /// Tables run from empty to a few dozen rows, with zero, one or
    /// two relational columns, with and without a transaction part,
    /// at `m = 0..=3`.
    #[test]
    fn audit_matches_verifier_oracle(
        base in prop::collection::vec((0u32..3, 0u32..2, prop::collection::vec(0u32..6, 0..4)), 0..6),
        (reps, qi) in (1usize..4, 0usize..3),
        with_tx in any::<bool>(),
        perturb in (0u32..3, 0usize..64),
        (k, m) in (1usize..4, 0usize..4),
        policy in policy_strategy(),
    ) {
        let t = published_table(&base, reps, with_tx, perturb);
        let qi_attrs: Vec<usize> = (0..qi).collect();
        let anon = AnonTable::identity(&t, &qi_attrs);
        let classes = anon.equivalence_classes();
        let candidates = anon.tx.as_ref().map(|tx| CandidateIndex::build(&t, tx, None));
        let all_rows: Vec<usize> = (0..anon.n_rows).collect();
        let scopes = classes_by_signature(&anon);

        let k_ok = scopes.iter().all(|rows| rows.len() >= k);
        let km_ok = anon.tx.as_ref().is_none_or(|tx| km_oracle(tx, &all_rows, k, m));
        let k_km_ok = k_km_oracle(&anon, k, m);
        prop_assert_eq!(is_k_anonymous(&anon, k), k_ok);
        prop_assert_eq!(is_km_anonymous(&anon, k, m, None), km_ok);
        prop_assert_eq!(is_k_km_anonymous(&anon, k, m), k_km_ok);

        let km_count = |scopes: &[Vec<usize>]| {
            anon.tx.as_ref().map_or(0, |tx| km_by_scan(tx, scopes, k, m))
        };
        let policy_count = match anon.tx {
            Some(_) => policy_violations_by_scan(&anon, None, &policy, k),
            None => 0,
        };
        let cases = [
            (Guarantee::KAnonymity { k }, k_ok, k_by_scan(&anon, k)),
            (Guarantee::KmAnonymity { k, m }, km_ok, km_count(std::slice::from_ref(&all_rows))),
            (
                Guarantee::KKmAnonymity { k, m },
                k_km_ok,
                k_by_scan(&anon, k) + km_count(&scopes),
            ),
            (
                Guarantee::Policy { k, policy: &policy },
                satisfies_privacy(&anon, &policy, k, None),
                policy_count,
            ),
        ];
        for (guarantee, verdict, count) in &cases {
            let audit = audit_guarantee(&anon, &classes, candidates.as_ref(), guarantee);
            prop_assert_eq!(audit.passed, *verdict, "{:?} verdict", guarantee);
            prop_assert_eq!(audit.violations, *count, "{:?} count", guarantee);
        }
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

    let (sequential, _) = transaction_risk(&t, &anon, None, &params);
    for threads in [2, 8] {
        let (parallel, _) =
            secreta_parallel::with_threads(threads, || transaction_risk(&t, &anon, None, &params));
        assert_eq!(
            parallel, sequential,
            "risk indicators differ at {threads} threads"
        );
    }
    // and the sharded walk agrees with the oracle on this table too
    let (slow, _) = oracle::transaction_risk(&t, &anon, None, &params);
    assert_eq!(sequential, slow);
}

mod mitem {
    use super::*;

    #[test]
    fn max_m_zero_counts_as_one() {
        let schema = Schema::new(vec![Attribute::transaction("Items")]).unwrap();
        let mut t = RtTable::new(schema);
        t.push_row(&[], &["a", "b"]).unwrap();
        t.push_row(&[], &["a"]).unwrap();
        let anon = AnonTable::identity(&t, &[]);
        let with_max_m = |max_m, naive: bool| {
            let params = RiskParams {
                max_m,
                ..RiskParams::default()
            };
            if naive {
                oracle::transaction_risk(&t, &anon, None, &params).0
            } else {
                transaction_risk(&t, &anon, None, &params).0
            }
        };
        for naive in [false, true] {
            let one = with_max_m(1, naive);
            assert_eq!(one.as_ref().map(|r| r.per_m.len()), Some(1));
            assert_eq!(with_max_m(0, naive), one, "naive={naive}");
        }
    }
}
