//! Post-hoc verification of (k, k^m)-anonymity: the pass/fail form of
//! the rule `secreta-risk`'s guarantee audit counts for RT runs.

use secreta_metrics::AnonTable;
use secreta_transaction::support::km_violations;

/// Is `anon` (k, k^m)-anonymous?
///
/// * every equivalence class on the generalized relational signature
///   has at least `k` rows, and
/// * within each class, every itemset of 1..=m published generalized
///   items occurring in some row of the class occurs in at least `k`
///   rows of that class.
pub fn is_k_km_anonymous(anon: &AnonTable, k: usize, m: usize) -> bool {
    let classes = anon.equivalence_classes();
    classes.k_violations(k) == 0
        && anon
            .tx
            .as_ref()
            .is_none_or(|tx| km_violations(tx, k, m, Some(&classes.row_class)) == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use secreta_metrics::anon::{AnonTransaction, RelColumn};
    use secreta_metrics::GenEntry;

    /// two classes of two rows each; class 0 shares items {0,1},
    /// class 1 rows have {2} and {2} respectively
    fn anon(class1_second_items: Vec<u32>) -> AnonTable {
        let rel = RelColumn {
            attr: 0,
            domain: vec![GenEntry::Set(vec![0]), GenEntry::Set(vec![1])],
            cells: vec![0, 0, 1, 1],
        };
        let rows = [vec![0u32, 1], vec![0, 1], vec![2], class1_second_items];
        let mut offsets = vec![0u32];
        let mut items = Vec::new();
        for r in &rows {
            items.extend_from_slice(r);
            offsets.push(items.len() as u32);
        }
        let multiplicity = vec![1u16; items.len()];
        AnonTable {
            rel: vec![rel],
            tx: Some(AnonTransaction {
                domain: (0..3).map(|v| GenEntry::Set(vec![v])).collect(),
                offsets,
                items,
                multiplicity,
                suppressed: vec![],
            }),
            n_rows: 4,
        }
    }

    #[test]
    fn accepts_valid_k_km() {
        let a = anon(vec![2]);
        assert!(is_k_km_anonymous(&a, 2, 2));
        assert!(is_k_km_anonymous(&a, 1, 3));
    }

    #[test]
    fn rejects_small_relational_classes() {
        let mut a = anon(vec![2]);
        a.rel[0].cells = vec![0, 0, 0, 1]; // class sizes 3 and 1
        assert!(!is_k_km_anonymous(&a, 2, 1));
    }

    #[test]
    fn rejects_within_class_item_violation() {
        // class 1: rows have {2} and {0} -> each unique within class
        let a = anon(vec![0]);
        assert!(!is_k_km_anonymous(&a, 2, 1));
    }

    #[test]
    fn item_supports_do_not_leak_across_classes() {
        // item 0 appears twice in class 0, once in class 1 -> the
        // class-local count (1 < 2) must fail even though the global
        // count is 3
        let a = anon(vec![0]);
        assert!(!is_k_km_anonymous(&a, 2, 1));
    }

    #[test]
    fn pair_violations_detected_at_m2() {
        // class 0 rows both have {0,1}: pair support 2. OK at k=2.
        // make one class-0 row {0,1}, other {0,1}, fine; class 1 rows
        // {2},{2}: no pairs. So valid at m=2...
        let a = anon(vec![2]);
        assert!(is_k_km_anonymous(&a, 2, 2));
        // now break a pair: class 0 row 1 gets {0,2}: pairs {0,1} and
        // {0,2} each support 1
        let mut b = anon(vec![2]);
        if let Some(tx) = &mut b.tx {
            // row 1 items live at offsets[1]..offsets[2]
            let lo = tx.offsets[1] as usize;
            tx.items[lo + 1] = 2;
        }
        assert!(!is_k_km_anonymous(&b, 2, 2));
    }

    #[test]
    fn empty_table_and_missing_tx_are_vacuous() {
        let empty = AnonTable {
            rel: vec![],
            tx: None,
            n_rows: 0,
        };
        assert!(is_k_km_anonymous(&empty, 5, 5));
        let rel_only = AnonTable {
            rel: vec![RelColumn {
                attr: 0,
                domain: vec![GenEntry::Set(vec![0])],
                cells: vec![0, 0],
            }],
            tx: None,
            n_rows: 2,
        };
        assert!(is_k_km_anonymous(&rel_only, 2, 3));
        assert!(!is_k_km_anonymous(&rel_only, 3, 1));
    }
}
