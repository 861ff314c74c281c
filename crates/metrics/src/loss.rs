//! Information-loss measures.
//!
//! * **GCP** (Generalized/Global Certainty Penalty, Xu et al. \[12\]) —
//!   the mean NCP over all anonymized relational cells; 0 = original
//!   data, 1 = everything generalized to the root/full domain.
//! * **transaction GCP** — the same averaged over item occurrences of
//!   the anonymized transaction attribute (suppressed occurrences
//!   count as total loss).
//! * **UL** (Utility Loss, Gkoulalas-Divanis & Loukides \[5\]) — the
//!   set-valued measure `UL(ĩ) = (2^{|ĩ|} - 1) · σ(ĩ)` penalizing
//!   large generalized items by the number of non-empty item subsets
//!   they may stand for, weighted by support. Normalized here to \[0,1\]
//!   against the worst case (everything generalized to one item set of
//!   the full universe).
//! * **discernibility** (Bayardo & Agrawal) and **average
//!   equivalence-class size** — classic group-size penalties.

use crate::anon::AnonTable;
use secreta_data::RtTable;
use secreta_hierarchy::Hierarchy;

/// Mean NCP over all anonymized relational cells of `anon`.
///
/// `hierarchy_of(attr)` supplies the hierarchy for attributes recoded
/// with `GenEntry::Node` (may return `None` for set-recoded columns).
pub fn gcp(
    table: &RtTable,
    anon: &AnonTable,
    hierarchy_of: impl Fn(usize) -> Option<Hierarchy>,
) -> f64 {
    let mut sum = 0.0;
    let mut cells = 0usize;
    for col in &anon.rel {
        let domain_size = table.domain_size(col.attr);
        let h = hierarchy_of(col.attr);
        // Per-domain-entry NCP computed once. Instead of folding a
        // float per cell, count cells per domain entry (an integer
        // histogram) and take one weighted sum in entry order — one
        // multiply-add per *entry* instead of one add per *cell*.
        let entry_ncp: Vec<f64> = col
            .domain
            .iter()
            .map(|e| e.ncp(domain_size, h.as_ref()))
            .collect();
        let mut hist = vec![0u64; entry_ncp.len()];
        for &c in &col.cells {
            if let Some(count) = hist.get_mut(c as usize) {
                *count += 1;
            }
        }
        for (count, ncp) in hist.into_iter().zip(&entry_ncp) {
            sum += count as f64 * ncp;
        }
        cells += col.cells.len();
    }
    if cells == 0 {
        0.0
    } else {
        sum / cells as f64
    }
}

/// Mean NCP over original item occurrences of the anonymized
/// transaction attribute. Suppressed occurrences score 1.0.
pub fn transaction_gcp(table: &RtTable, anon: &AnonTable, tx_hierarchy: Option<&Hierarchy>) -> f64 {
    let tx = match &anon.tx {
        Some(tx) => tx,
        None => return 0.0,
    };
    let universe = table.item_universe();
    if universe <= 1 {
        return 0.0;
    }
    let entry_ncp: Vec<f64> = tx
        .domain
        .iter()
        .map(|e| e.ncp(universe, tx_hierarchy))
        .collect();
    let mut sum = 0.0;
    let mut occurrences = 0usize;
    for row in 0..tx.n_rows() {
        let items = tx.row_items(row);
        let mult = tx.row_multiplicity(row);
        for (pos, &g) in items.iter().enumerate() {
            // each merged original item pays the generalized NCP
            sum += entry_ncp[g as usize] * mult[pos] as f64;
            occurrences += mult[pos] as usize;
        }
        // suppressed occurrences of this row
        let orig = table.transaction(row).len();
        let kept: usize = mult.iter().map(|&m| m as usize).sum();
        let dropped = orig.saturating_sub(kept);
        sum += dropped as f64;
        occurrences += dropped;
    }
    if occurrences == 0 {
        0.0
    } else {
        sum / occurrences as f64
    }
}

/// Clamped `2^n - 1` in f64 — sizes above 60 saturate instead of
/// overflowing; ordering between candidates is preserved.
fn pow2m1(n: usize) -> f64 {
    if n >= 60 {
        f64::MAX / 1e16
    } else {
        ((1u64 << n) - 1) as f64
    }
}

/// Normalized UL of the anonymized transaction attribute.
///
/// `UL = Σ_ĩ (2^{|ĩ|} - 1) · σ(ĩ) + Σ_suppressed (2 ^{1}-1) · σ(i)`
/// normalized by the worst case where every occurrence belongs to one
/// generalized item spanning the whole universe. Returns a value in
/// `[0, 1]`; 0 for identity recoding... strictly, identity recoding
/// scores `occurrences · 1 / worst`, so the measure is rescaled so
/// singleton recoding = 0.
pub fn utility_loss(table: &RtTable, anon: &AnonTable, tx_hierarchy: Option<&Hierarchy>) -> f64 {
    let tx = match &anon.tx {
        Some(tx) => tx,
        None => return 0.0,
    };
    let universe = table.item_universe();
    if universe <= 1 {
        return 0.0;
    }
    let entry_size: Vec<usize> = tx
        .domain
        .iter()
        .map(|e| e.leaf_count(tx_hierarchy).max(1))
        .collect();
    let mut raw = 0.0;
    let mut occurrences = 0usize;
    for row in 0..tx.n_rows() {
        let items = tx.row_items(row);
        let mult = tx.row_multiplicity(row);
        for (pos, &g) in items.iter().enumerate() {
            raw += pow2m1(entry_size[g as usize]) * mult[pos] as f64;
            occurrences += mult[pos] as usize;
        }
        let orig = table.transaction(row).len();
        let kept: usize = mult.iter().map(|&m| m as usize).sum();
        let dropped = orig.saturating_sub(kept);
        // suppression of an occurrence is as bad as generalizing it to
        // the full universe
        raw += pow2m1(universe) * dropped as f64;
        occurrences += dropped;
    }
    if occurrences == 0 {
        return 0.0;
    }
    let best = occurrences as f64; // all singletons: (2^1 - 1) each
    let worst = pow2m1(universe) * occurrences as f64;
    ((raw - best) / (worst - best)).clamp(0.0, 1.0)
}

/// Discernibility of `anon`'s relational equivalence classes; see
/// [`crate::anon::EquivalenceClasses::discernibility`].
pub fn discernibility(anon: &AnonTable) -> u64 {
    anon.equivalence_classes().discernibility()
}

/// Average relational equivalence-class size (`C_avg`). 0.0 for empty
/// tables.
pub fn average_class_size(anon: &AnonTable) -> f64 {
    anon.equivalence_classes().average_size()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anon::{rel_column_from_value_map, AnonTransaction, GenEntry};
    use secreta_data::{Attribute, Schema};

    fn table() -> RtTable {
        let schema = Schema::new(vec![
            Attribute::numeric("Age"),
            Attribute::transaction("Items"),
        ])
        .unwrap();
        let mut t = RtTable::new(schema);
        t.push_row(&["30"], &["a", "b"]).unwrap();
        t.push_row(&["41"], &["a"]).unwrap();
        t.push_row(&["50"], &["b", "c"]).unwrap();
        t.push_row(&["60"], &["c"]).unwrap();
        t
    }

    #[test]
    fn identity_has_zero_loss() {
        let t = table();
        let a = AnonTable::identity(&t, &[0]);
        assert_eq!(gcp(&t, &a, |_| None), 0.0);
        assert_eq!(transaction_gcp(&t, &a, None), 0.0);
        assert_eq!(utility_loss(&t, &a, None), 0.0);
        assert_eq!(discernibility(&a), 4);
        assert_eq!(average_class_size(&a), 1.0);
    }

    #[test]
    fn full_generalization_has_total_loss() {
        let t = table();
        let full = GenEntry::set(vec![0, 1, 2, 3]);
        let age = rel_column_from_value_map(&t, 0, |_| full.clone());
        let tx_domain = vec![GenEntry::set(vec![0, 1, 2])];
        let tx = AnonTransaction::from_mapping(&t, tx_domain, |_| Some(0));
        let a = AnonTable {
            rel: vec![age],
            tx: Some(tx),
            n_rows: 4,
        };
        assert!((gcp(&t, &a, |_| None) - 1.0).abs() < 1e-12);
        assert!((transaction_gcp(&t, &a, None) - 1.0).abs() < 1e-12);
        assert!((utility_loss(&t, &a, None) - 1.0).abs() < 1e-12);
        assert_eq!(discernibility(&a), 16);
        assert_eq!(average_class_size(&a), 4.0);
    }

    #[test]
    fn partial_generalization_scores_between() {
        let t = table();
        // pair up ages: {30,41}, {50,60}
        let age = rel_column_from_value_map(&t, 0, |v| {
            if v.0 < 2 {
                GenEntry::set(vec![0, 1])
            } else {
                GenEntry::set(vec![2, 3])
            }
        });
        let a = AnonTable {
            rel: vec![age],
            tx: None,
            n_rows: 4,
        };
        let g = gcp(&t, &a, |_| None);
        assert!((g - 1.0 / 3.0).abs() < 1e-12, "got {g}"); // (2-1)/(4-1)
        assert_eq!(discernibility(&a), 8);
        assert_eq!(average_class_size(&a), 2.0);
    }

    #[test]
    fn suppression_counts_as_total_loss() {
        let t = table();
        // keep a and b as singletons, suppress c (rows 2,3 lose one occurrence each)
        let tx_domain = vec![GenEntry::Set(vec![0]), GenEntry::Set(vec![1])];
        let tx =
            AnonTransaction::from_mapping(
                &t,
                tx_domain,
                |it| {
                    if it.0 < 2 {
                        Some(it.0)
                    } else {
                        None
                    }
                },
            );
        let a = AnonTable {
            rel: vec![],
            tx: Some(tx),
            n_rows: 4,
        };
        // 6 occurrences total, 2 suppressed at loss 1, 4 kept at loss 0
        let g = transaction_gcp(&t, &a, None);
        assert!((g - 2.0 / 6.0).abs() < 1e-12, "got {g}");
        let ul = utility_loss(&t, &a, None);
        assert!(ul > 0.0 && ul < 1.0);
    }

    #[test]
    fn ul_prefers_smaller_generalized_items() {
        let t = table();
        // variant A: one gen item of size 2 ({a,b}), c kept
        let dom_a = vec![GenEntry::set(vec![0, 1]), GenEntry::Set(vec![2])];
        let tx_a =
            AnonTransaction::from_mapping(&t, dom_a, |it| Some(if it.0 < 2 { 0 } else { 1 }));
        // variant B: everything into one gen item of size 3
        let dom_b = vec![GenEntry::set(vec![0, 1, 2])];
        let tx_b = AnonTransaction::from_mapping(&t, dom_b, |_| Some(0));
        let mk = |tx| AnonTable {
            rel: vec![],
            tx: Some(tx),
            n_rows: 4,
        };
        let ul_a = utility_loss(&t, &mk(tx_a), None);
        let ul_b = utility_loss(&t, &mk(tx_b), None);
        assert!(ul_a < ul_b, "UL({ul_a}) must be below UL({ul_b})");
    }

    #[test]
    fn empty_rel_and_tx_are_zero() {
        let t = table();
        let a = AnonTable {
            rel: vec![],
            tx: None,
            n_rows: 4,
        };
        assert_eq!(gcp(&t, &a, |_| None), 0.0);
        assert_eq!(transaction_gcp(&t, &a, None), 0.0);
        assert_eq!(utility_loss(&t, &a, None), 0.0);
    }

    #[test]
    fn pow2m1_saturates() {
        assert_eq!(pow2m1(1), 1.0);
        assert_eq!(pow2m1(3), 7.0);
        assert!(pow2m1(60) > pow2m1(59));
        assert!(pow2m1(100).is_finite());
        assert_eq!(pow2m1(100), pow2m1(61));
    }

    #[test]
    fn histogram_gcp_matches_per_cell_fold() {
        // a skewed cell→entry mapping: the histogram formulation must
        // match the naive per-cell float fold
        let schema = Schema::new(vec![Attribute::numeric("V")]).unwrap();
        let mut t = RtTable::new(schema);
        for i in 0..2000 {
            t.push_row(&[&format!("{}", i % 10)], &[]).unwrap();
        }
        let col = rel_column_from_value_map(&t, 0, |v| {
            if v.0 < 3 {
                GenEntry::set(vec![0, 1, 2])
            } else {
                GenEntry::set(vec![v.0])
            }
        });
        let a = AnonTable {
            rel: vec![col.clone()],
            tx: None,
            n_rows: 2000,
        };
        let naive: f64 = {
            let domain_size = t.domain_size(0);
            let entry_ncp: Vec<f64> = col
                .domain
                .iter()
                .map(|e| e.ncp(domain_size, None))
                .collect();
            let sum: f64 = col.cells.iter().map(|&c| entry_ncp[c as usize]).sum();
            sum / col.cells.len() as f64
        };
        let got = gcp(&t, &a, |_| None);
        assert!((got - naive).abs() < 1e-12, "got={got} naive={naive}");
    }

    #[test]
    fn gcp_with_node_entries() {
        use secreta_data::AttributeKind;
        use secreta_hierarchy::auto_hierarchy;
        let t = table();
        let h = auto_hierarchy(t.pool(0), AttributeKind::Numeric, 2).unwrap();
        let root = h.root();
        let age = rel_column_from_value_map(&t, 0, |_| GenEntry::Node(root));
        let a = AnonTable {
            rel: vec![age],
            tx: None,
            n_rows: 4,
        };
        let g = gcp(&t, &a, |_| Some(h.clone()));
        assert!((g - 1.0).abs() < 1e-12);
    }
}
