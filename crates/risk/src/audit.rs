//! Constraint-violation audit: check the claimed guarantee on the
//! published output and count how badly it fails.
//!
//! The audit is a run's verdict: the `verified` indicator is
//! `passed`, and `passed` is `violations == 0`. Each guarantee has one
//! rule. Its pass/fail form in the algorithm crates (`is_k_anonymous`,
//! `is_km_anonymous`, `is_k_km_anonymous`, `satisfies_privacy`), which
//! the test suites call, applies the same rule; all but the policy's
//! row scan through the same counting code:
//!
//! * k-anonymity counts the records in classes smaller than `k`
//!   ([`EquivalenceClasses::k_violations`]); an output without
//!   relational columns is one class of all rows.
//! * k^m-anonymity counts the occurring published itemsets of `1..=m`
//!   items with support below `k`
//!   ([`secreta_transaction::support::km_violations`]).
//! * (k,k^m)-anonymity counts both, the itemset supports within each
//!   relational class: an itemset occurring in two classes is two
//!   itemsets, each needing `k` rows of its own class.
//! * The privacy policy counts the constraints with published support
//!   in `(0, k)`.
//! * ρ-uncertainty reports its verifier's verdict as 0 or 1.
//!
//! The privacy-policy audit reads the m-item attack's
//! [`CandidateIndex`]. A row supports a constraint when its published
//! items cover every item of the constraint, which is when it lies in
//! the candidate set of each of those items. So a constraint's support
//! is one family count over its items' ranks, and 0 when some item has
//! no covering entry. `crates/risk/tests/oracle.rs` checks every rule
//! against the verifiers and against brute-force counts.

use crate::{CandidateIndex, Guarantee, RiskWork};
use secreta_data::ItemId;
use secreta_metrics::{AnonTable, ConstraintAudit, EquivalenceClasses};
use secreta_policy::PrivacyPolicy;
use secreta_transaction::support::km_violations;

/// Check `guarantee` on `anon`, counting violations. `classes` are
/// `anon`'s equivalence classes; `candidates` is the
/// [`CandidateIndex`] of its transaction part, `None` when it has
/// none.
pub fn audit_guarantee(
    anon: &AnonTable,
    classes: &EquivalenceClasses,
    candidates: Option<&CandidateIndex>,
    guarantee: &Guarantee,
) -> ConstraintAudit {
    debug_assert_eq!(anon.tx.is_some(), candidates.is_some());
    let km = |k, m, row_class| {
        anon.tx
            .as_ref()
            .map_or(0, |tx| km_violations(tx, k, m, row_class))
    };
    let (label, violations) = match guarantee {
        Guarantee::KAnonymity { k } => (format!("k-anonymity(k={k})"), classes.k_violations(*k)),
        Guarantee::KmAnonymity { k, m } => {
            (format!("k^m-anonymity(k={k},m={m})"), km(*k, *m, None))
        }
        Guarantee::Policy { k, policy } => (
            format!("privacy-policy(k={k})"),
            candidates.map_or(0, |candidates| policy_violations(candidates, policy, *k)),
        ),
        Guarantee::KKmAnonymity { k, m } => (
            format!("(k,k^m)-anonymity(k={k},m={m})"),
            classes.k_violations(*k) + km(*k, *m, Some(&classes.row_class)),
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
    fn audit_tx(t: &RtTable, anon: &AnonTable, guarantee: &Guarantee) -> ConstraintAudit {
        let tx = anon.tx.as_ref().expect("a transaction output");
        let candidates = CandidateIndex::build(t, tx, None);
        audit_guarantee(
            anon,
            &anon.equivalence_classes(),
            Some(&candidates),
            guarantee,
        )
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
        let classes = anon.equivalence_classes();
        let a = audit_guarantee(&anon, &classes, None, &Guarantee::KAnonymity { k: 2 });
        assert_eq!(a.violations, 1, "the singleton class has one record");
        assert!(!a.passed);
        let a3 = audit_guarantee(&anon, &classes, None, &Guarantee::KAnonymity { k: 4 });
        assert_eq!(a3.violations, 4, "both classes are below 4");
    }

    #[test]
    fn km_counts_under_supported_itemsets() {
        let t = tx_table();
        let anon = AnonTable::identity(&t, &[]);
        // items: a,b sup 2; c sup 1; pair {a,b} sup 2
        let ok = audit_tx(&t, &anon, &Guarantee::KmAnonymity { k: 1, m: 2 });
        assert!(ok.passed);
        let bad = audit_tx(&t, &anon, &Guarantee::KmAnonymity { k: 2, m: 2 });
        assert_eq!(bad.violations, 1, "only {{c}} is under-supported");
        assert_eq!(bad.guarantee, "k^m-anonymity(k=2,m=2)");
    }

    #[test]
    fn policy_counts_violating_constraints() {
        let t = tx_table();
        let anon = AnonTable::identity(&t, &[]);
        let policy = PrivacyPolicy::new(vec![vec![ItemId(0)], vec![ItemId(2)]]);
        let guarantee = Guarantee::Policy {
            k: 2,
            policy: &policy,
        };
        let a = audit_tx(&t, &anon, &guarantee);
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
        let a = audit_tx(&t, &suppressed, &guarantee);
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
        let a = audit_guarantee(&anon, &anon.equivalence_classes(), None, &g);
        assert_eq!(a.violations, 1);
        assert_eq!(a.guarantee, "rho-uncertainty(rho=0.5)");
    }

    /// Two classes of two rows, each class publishing `{0}` and `{1}`:
    /// every item has support 2 in the table but 1 in its class, so
    /// (k,k^m) at k=2, m=1 fails on all four (class, item) pairs.
    #[test]
    fn k_km_counts_supports_within_each_class() {
        let items = [0u32, 1, 0, 1];
        let anon = AnonTable {
            rel: vec![RelColumn {
                attr: 0,
                domain: vec![GenEntry::Set(vec![0]), GenEntry::Set(vec![1])],
                cells: vec![0, 0, 1, 1],
            }],
            tx: Some(secreta_metrics::AnonTransaction {
                domain: vec![GenEntry::Set(vec![0]), GenEntry::Set(vec![1])],
                offsets: vec![0, 1, 2, 3, 4],
                items: items.to_vec(),
                multiplicity: vec![1; 4],
                suppressed: vec![],
            }),
            n_rows: 4,
        };
        let tx = anon.tx.as_ref().unwrap();
        let candidates = CandidateIndex::build(&tx_table_of(&items), tx, None);
        let classes = anon.equivalence_classes();
        let a = audit_guarantee(
            &anon,
            &classes,
            Some(&candidates),
            &Guarantee::KKmAnonymity { k: 2, m: 1 },
        );
        assert!(!a.passed);
        assert_eq!(a.violations, 4);
        // the same rows form one class under k^m: both items pass
        let km = audit_guarantee(
            &anon,
            &classes,
            Some(&candidates),
            &Guarantee::KmAnonymity { k: 2, m: 1 },
        );
        assert!(km.passed);
    }

    /// A transaction-only table holding one item per row.
    fn tx_table_of(items: &[u32]) -> RtTable {
        let schema = Schema::new(vec![Attribute::transaction("Items")]).unwrap();
        let mut t = RtTable::new(schema);
        for item in items {
            t.push_row(&[], &[&format!("i{item}")]).unwrap();
        }
        t
    }
}
