//! Post-hoc verification of k-anonymity.
//!
//! Algorithms are trusted nowhere in SECRETA-rs: every run's output
//! can be re-checked from the published table alone. A run's
//! `verified` indicator is the guarantee audit of `secreta-risk`; this
//! pass/fail form of the same rule serves the test suites of all four
//! algorithms (plus the integration tests).

use secreta_metrics::AnonTable;

/// Is `anon` k-anonymous on its generalized relational columns — every
/// equivalence class of generalized signatures at least `k` rows?
///
/// An empty table is vacuously anonymous; a table with *no* anonymized
/// relational columns forms a single class of all rows.
pub fn is_k_anonymous(anon: &AnonTable, k: usize) -> bool {
    anon.equivalence_classes().k_violations(k) == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use secreta_metrics::anon::RelColumn;
    use secreta_metrics::GenEntry;

    fn anon(cells: Vec<u32>) -> AnonTable {
        let max = cells.iter().copied().max().unwrap_or(0);
        AnonTable {
            n_rows: cells.len(),
            rel: vec![RelColumn {
                attr: 0,
                domain: (0..=max).map(|v| GenEntry::Set(vec![v])).collect(),
                cells,
            }],
            tx: None,
        }
    }

    #[test]
    fn detects_k_anonymity() {
        let a = anon(vec![0, 0, 1, 1]);
        assert!(is_k_anonymous(&a, 1));
        assert!(is_k_anonymous(&a, 2));
        assert!(!is_k_anonymous(&a, 3));
    }

    #[test]
    fn singleton_class_fails_k2() {
        let a = anon(vec![0, 0, 1]);
        assert!(!is_k_anonymous(&a, 2));
    }

    #[test]
    fn empty_table_is_vacuously_anonymous() {
        let a = AnonTable {
            rel: vec![],
            tx: None,
            n_rows: 0,
        };
        assert!(is_k_anonymous(&a, 100));
    }

    #[test]
    fn no_rel_columns_is_one_class() {
        let a = AnonTable {
            rel: vec![],
            tx: None,
            n_rows: 5,
        };
        assert!(is_k_anonymous(&a, 5));
        assert!(!is_k_anonymous(&a, 6));
    }
}
