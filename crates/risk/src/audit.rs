//! Constraint-violation audit: re-check the claimed guarantee on the
//! published output and count how badly it fails.
//!
//! The framework's verifiers (`is_k_anonymous`, `is_km_anonymous`, …)
//! answer pass/fail; the audit answers *how many* records / itemsets /
//! constraints violate, which is what the risk indicators report as a
//! hard error signal. The counting rules mirror the verifiers exactly,
//! so `violations == 0 ⇔ passed` agrees with the `verified` indicator
//! for the same guarantee.
//!
//! The privacy-policy audit reads the m-item attack's
//! [`CandidateIndex`]. A row supports a constraint when its published
//! items cover every item of the constraint, which is when it lies in
//! the candidate set of each of those items. So a constraint's support
//! is one family count over its items' ranks, and 0 when some item has
//! no covering entry. `crates/risk/tests/oracle.rs` keeps the row scan
//! of the same rule as the reference this is tested against.

use crate::{CandidateIndex, Guarantee, RiskWork};
use secreta_data::hash::FxHashMap;
use secreta_data::ItemId;
use secreta_metrics::{AnonTable, ConstraintAudit};
use secreta_policy::PrivacyPolicy;
use secreta_transaction::support::for_each_subset_u32;

/// Re-check `guarantee` on `anon`, counting violations. `candidates`
/// is the [`CandidateIndex`] of `anon`'s transaction part, `None` when
/// it has none.
pub fn audit_guarantee(
    anon: &AnonTable,
    candidates: Option<&CandidateIndex>,
    privacy: Option<&PrivacyPolicy>,
    guarantee: &Guarantee,
) -> ConstraintAudit {
    debug_assert_eq!(anon.tx.is_some(), candidates.is_some());
    let (label, violations) = match guarantee {
        Guarantee::KAnonymity { k } => (format!("k-anonymity(k={k})"), k_violations(anon, *k)),
        Guarantee::KmAnonymity { k, m } => (
            format!("k^m-anonymity(k={k},m={m})"),
            km_violations(anon, *k, *m),
        ),
        Guarantee::Policy { k } => (
            format!("privacy-policy(k={k})"),
            candidates.zip(privacy).map_or(0, |(candidates, privacy)| {
                policy_violations(candidates, privacy, *k)
            }),
        ),
        Guarantee::KKmAnonymity { k, m } => (
            format!("(k,k^m)-anonymity(k={k},m={m})"),
            k_violations(anon, *k) + km_violations(anon, *k, *m),
        ),
        Guarantee::RhoUncertainty { rho, satisfied } => {
            (format!("rho-uncertainty(rho={rho})"), u64::from(!satisfied))
        }
    };
    ConstraintAudit {
        guarantee: label,
        violations,
        passed: violations == 0,
    }
}

/// Records living in QI equivalence classes smaller than `k`.
fn k_violations(anon: &AnonTable, k: usize) -> u64 {
    if anon.rel.is_empty() {
        return 0;
    }
    let (sizes, _) = anon.equivalence_classes();
    sizes.iter().filter(|&&s| s < k).map(|&s| s as u64).sum()
}

/// Occurring published itemsets (sizes `1..=m`) with support `< k`.
fn km_violations(anon: &AnonTable, k: usize, m: usize) -> u64 {
    let tx = match &anon.tx {
        Some(tx) => tx,
        None => return 0,
    };
    let m = m.max(1);
    let mut violations = 0u64;
    for size in 1..=m {
        let mut sup: FxHashMap<Vec<u32>, u32> = FxHashMap::default();
        for row in 0..tx.n_rows() {
            let items = tx.row_items(row);
            if items.len() < size {
                continue;
            }
            for_each_subset_u32(items, size, &mut |s| {
                *sup.entry(s.to_vec()).or_insert(0) += 1;
            });
        }
        violations += sup.values().filter(|&&c| (c as usize) < k).count() as u64;
    }
    violations
}

/// Privacy constraints with published support in `(0, k)`.
fn policy_violations(candidates: &CandidateIndex, privacy: &PrivacyPolicy, k: usize) -> u64 {
    privacy
        .constraints
        .iter()
        .filter(|c| {
            let sup = support(candidates, c);
            sup > 0 && sup < k as u64
        })
        .count() as u64
}

/// Published support of one privacy constraint: the rows in the
/// candidate set of each of its items. 0 for an empty constraint and
/// for one holding an item no published entry covers.
fn support(candidates: &CandidateIndex, constraint: &[ItemId]) -> u64 {
    let ranks: Option<Vec<u32>> = constraint.iter().map(|it| candidates.rank(it.0)).collect();
    match ranks {
        Some(mut ranks) if !ranks.is_empty() => {
            ranks.sort_unstable();
            ranks.dedup();
            candidates.family_count(&ranks, &mut RiskWork::default())
        }
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secreta_data::{Attribute, ItemId, RtTable, Schema};
    use secreta_metrics::anon::RelColumn;
    use secreta_metrics::GenEntry;

    fn tx_table() -> RtTable {
        let schema = Schema::new(vec![Attribute::transaction("Items")]).unwrap();
        let mut t = RtTable::new(schema);
        t.push_row(&[], &["a", "b"]).unwrap();
        t.push_row(&[], &["a", "b"]).unwrap();
        t.push_row(&[], &["c"]).unwrap();
        t
    }

    /// Audit a transaction output of `t` through its candidate index.
    fn audit_tx(
        t: &RtTable,
        anon: &AnonTable,
        privacy: Option<&PrivacyPolicy>,
        guarantee: &Guarantee,
    ) -> ConstraintAudit {
        let tx = anon.tx.as_ref().expect("a transaction output");
        let candidates = CandidateIndex::build(t, tx, None);
        audit_guarantee(anon, Some(&candidates), privacy, guarantee)
    }

    #[test]
    fn k_anonymity_counts_small_class_records() {
        let anon = AnonTable {
            rel: vec![RelColumn {
                attr: 0,
                domain: vec![GenEntry::Set(vec![0]), GenEntry::Set(vec![1])],
                cells: vec![0, 0, 0, 1],
            }],
            tx: None,
            n_rows: 4,
        };
        let a = audit_guarantee(&anon, None, None, &Guarantee::KAnonymity { k: 2 });
        assert_eq!(a.violations, 1, "the singleton class has one record");
        assert!(!a.passed);
        let a3 = audit_guarantee(&anon, None, None, &Guarantee::KAnonymity { k: 4 });
        assert_eq!(a3.violations, 4, "both classes are below 4");
    }

    #[test]
    fn km_counts_under_supported_itemsets() {
        let t = tx_table();
        let anon = AnonTable::identity(&t, &[]);
        // items: a,b sup 2; c sup 1; pair {a,b} sup 2
        let ok = audit_tx(&t, &anon, None, &Guarantee::KmAnonymity { k: 1, m: 2 });
        assert!(ok.passed);
        let bad = audit_tx(&t, &anon, None, &Guarantee::KmAnonymity { k: 2, m: 2 });
        assert_eq!(bad.violations, 1, "only {{c}} is under-supported");
        assert_eq!(bad.guarantee, "k^m-anonymity(k=2,m=2)");
    }

    #[test]
    fn policy_counts_violating_constraints() {
        let t = tx_table();
        let anon = AnonTable::identity(&t, &[]);
        let policy = PrivacyPolicy::new(vec![vec![ItemId(0)], vec![ItemId(2)]]);
        let a = audit_tx(&t, &anon, Some(&policy), &Guarantee::Policy { k: 2 });
        assert_eq!(a.violations, 1, "constraint {{c}} has support 1");
        // zero-support constraints are fine: audit agrees with the
        // verifier's `sup == 0 or ≥ k` rule
        let dom = vec![GenEntry::Set(vec![0]), GenEntry::Set(vec![1])];
        let tx = secreta_metrics::AnonTransaction::from_mapping(&t, dom, |it| {
            (it.0 < 2).then_some(it.0)
        });
        let suppressed = AnonTable {
            rel: vec![],
            tx: Some(tx),
            n_rows: 3,
        };
        let a = audit_tx(&t, &suppressed, Some(&policy), &Guarantee::Policy { k: 2 });
        assert!(a.passed);
    }

    #[test]
    fn rho_passes_through_the_verdict() {
        let anon = AnonTable {
            rel: vec![],
            tx: None,
            n_rows: 0,
        };
        let g = Guarantee::RhoUncertainty {
            rho: 0.5,
            satisfied: false,
        };
        let a = audit_guarantee(&anon, None, None, &g);
        assert_eq!(a.violations, 1);
        assert_eq!(a.guarantee, "rho-uncertainty(rho=0.5)");
    }
}
