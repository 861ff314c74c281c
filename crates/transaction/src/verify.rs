//! Post-hoc verification of transaction privacy guarantees: the
//! pass/fail forms of the rules `secreta-risk`'s guarantee audit
//! counts. Runs read the audit; the algorithms' test suites call these.

use crate::support::km_violations;
use secreta_hierarchy::Hierarchy;
use secreta_metrics::AnonTable;
use secreta_policy::PrivacyPolicy;

/// Is the published transaction part of `anon` k^m-anonymous — every
/// itemset of up to `m` *published* (generalized) items that occurs in
/// some published transaction occurs in at least `k` of them?
///
/// Checked from the output alone; `tx_hierarchy` is unused for the
/// counting itself (generalized ids suffice) but kept in the signature
/// for symmetry with the metrics API.
pub fn is_km_anonymous(
    anon: &AnonTable,
    k: usize,
    m: usize,
    _tx_hierarchy: Option<&Hierarchy>,
) -> bool {
    anon.tx
        .as_ref()
        .is_none_or(|tx| km_violations(tx, k, m, None) == 0)
}

/// Does the published output satisfy `privacy` at level `k`?
///
/// A constraint's published support is the number of transactions
/// whose generalized items cover **all** of the constraint's original
/// items; COAT's guarantee is support ≥ k or = 0 for every
/// constraint. An output without a transaction part publishes no
/// items, so every support is 0. This row scan is the reference the
/// policy audit in `secreta-risk` is tested against.
pub fn satisfies_privacy(
    anon: &AnonTable,
    privacy: &PrivacyPolicy,
    k: usize,
    tx_hierarchy: Option<&Hierarchy>,
) -> bool {
    let Some(tx) = &anon.tx else {
        return true;
    };
    for c in &privacy.constraints {
        let mut sup = 0usize;
        for row in 0..tx.n_rows() {
            let items = tx.row_items(row);
            let all_covered = c.iter().all(|it| {
                items
                    .iter()
                    .any(|&g| tx.domain[g as usize].covers(it.0, tx_hierarchy))
            });
            if all_covered && !c.is_empty() {
                sup += 1;
            }
        }
        if sup > 0 && sup < k {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use secreta_data::{Attribute, ItemId, RtTable, Schema};
    use secreta_metrics::anon::{AnonTransaction, GenEntry};

    fn table() -> RtTable {
        let schema = Schema::new(vec![Attribute::transaction("Items")]).unwrap();
        let mut t = RtTable::new(schema);
        t.push_row(&[], &["a", "b"]).unwrap();
        t.push_row(&[], &["a", "b"]).unwrap();
        t.push_row(&[], &["c"]).unwrap();
        t
    }

    fn identity_anon(t: &RtTable) -> AnonTable {
        AnonTable::identity(t, &[])
    }

    #[test]
    fn km_detects_violations() {
        let t = table();
        let a = identity_anon(&t);
        // {a,b} appears twice, {c} once
        assert!(is_km_anonymous(&a, 1, 2, None));
        assert!(!is_km_anonymous(&a, 2, 1, None), "c has support 1");
        // merge c into a gen item with a? then supports change
        let dom = vec![GenEntry::set(vec![0, 2]), GenEntry::Set(vec![1])];
        let tx = AnonTransaction::from_mapping(&t, dom, |it| Some(if it.0 == 1 { 1 } else { 0 }));
        let merged = AnonTable {
            rel: vec![],
            tx: Some(tx),
            n_rows: 3,
        };
        // published: {0,1},{0,1},{0} -> item 0 sup 3, item 1 sup 2,
        // pair {0,1} sup 2
        assert!(is_km_anonymous(&merged, 2, 2, None));
        assert!(!is_km_anonymous(&merged, 3, 2, None));
    }

    #[test]
    fn km_without_tx_is_vacuous() {
        let a = AnonTable {
            rel: vec![],
            tx: None,
            n_rows: 3,
        };
        assert!(is_km_anonymous(&a, 99, 2, None));
    }

    #[test]
    fn privacy_satisfaction() {
        let t = table();
        let a = identity_anon(&t);
        let p_ok = PrivacyPolicy::new(vec![vec![ItemId(0)]]); // a: sup 2
        assert!(satisfies_privacy(&a, &p_ok, 2, None));
        let p_bad = PrivacyPolicy::new(vec![vec![ItemId(2)]]); // c: sup 1
        assert!(!satisfies_privacy(&a, &p_bad, 2, None));
        // zero support is fine
        let dom = vec![GenEntry::Set(vec![0]), GenEntry::Set(vec![1])];
        let tx = AnonTransaction::from_mapping(&t, dom, |it| {
            if it.0 < 2 {
                Some(it.0)
            } else {
                None // suppress c
            }
        });
        let suppressed = AnonTable {
            rel: vec![],
            tx: Some(tx),
            n_rows: 3,
        };
        assert!(satisfies_privacy(&suppressed, &p_bad, 2, None));
    }

    #[test]
    fn multi_item_constraints() {
        let t = table();
        let a = identity_anon(&t);
        let pair = PrivacyPolicy::new(vec![vec![ItemId(0), ItemId(1)]]); // {a,b}: sup 2
        assert!(satisfies_privacy(&a, &pair, 2, None));
        assert!(!satisfies_privacy(&a, &pair, 3, None));
    }
}
