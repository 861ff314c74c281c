//! LRA — local recoding anonymization (Terrovitis et al., VLDB J.
//! 2011).
//!
//! Sorts the transactions so similar ones are adjacent, splits them
//! into horizontal partitions, and runs Apriori anonymization
//! *independently inside each partition*. Because every partition is
//! k^m-anonymous on its own counting, the union is k^m-anonymous too,
//! while each partition's cut stays close to its local data — local
//! recoding loses less information than AA's one-global-cut at the
//! cost of a less regular output domain.

use crate::apriori::{anonymize_rows, build_anon};
use crate::common::{TransactionInput, TxError, TxOutput};
use secreta_metrics::PhaseTimer;

/// Run LRA with `partitions` horizontal partitions.
pub fn anonymize(input: &TransactionInput, partitions: usize) -> Result<TxOutput, TxError> {
    input.validate()?;
    let h = input
        .hierarchy
        .ok_or_else(|| TxError::BadInput("LRA requires an item hierarchy".into()))?;
    let partitions = partitions.max(1);
    let mut timer = PhaseTimer::new();

    // Sort non-empty rows by transaction content so similar
    // transactions land in the same partition (the original sorts by
    // a space-filling order; lexicographic item-id order is its
    // deterministic stand-in).
    let mut rows = input.non_empty_rows();
    rows.sort_by(|&a, &b| input.table.transaction(a).cmp(input.table.transaction(b)));

    // chunk into partitions, each at least k rows (merge short tails)
    let mut chunks: Vec<Vec<usize>> = Vec::new();
    if !rows.is_empty() {
        if rows.len() < input.k {
            return Err(TxError::Infeasible {
                k: input.k,
                non_empty: rows.len(),
            });
        }
        let target = rows.len().div_ceil(partitions).max(input.k);
        for chunk in rows.chunks(target) {
            chunks.push(chunk.to_vec());
        }
        if let Some(last) = chunks.last() {
            if last.len() < input.k && chunks.len() > 1 {
                let tail = chunks.pop().expect("checked non-empty");
                chunks.last_mut().expect("len > 1 before pop").extend(tail);
            }
        }
    }
    secreta_obsv::current().count("lra/partitions", chunks.len() as u64);
    timer.phase("partitioning");

    // AA per partition
    let mut row_state: Vec<Option<usize>> = vec![None; input.table.n_rows()];
    let mut states = Vec::with_capacity(chunks.len());
    for (ci, chunk) in chunks.iter().enumerate() {
        let state = anonymize_rows(
            input.table,
            chunk,
            input.k,
            input.m,
            h,
            |_| true,
            |_| true,
            false,
        )?;
        for &r in chunk {
            row_state[r] = Some(ci);
        }
        states.push(state);
    }
    timer.phase("per-partition recoding");

    let anon = build_anon(input.table, h, |row, it| {
        row_state[row].and_then(|ci| states[ci].map(it))
    });
    timer.phase("publish");

    Ok(TxOutput {
        anon,
        phases: timer.finish(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apriori;
    use crate::verify::is_km_anonymous;
    use secreta_data::{Attribute, AttributeKind, RtTable, Schema};
    use secreta_hierarchy::{auto_hierarchy, Hierarchy};
    use secreta_metrics::transaction_gcp;

    fn table(n: usize) -> RtTable {
        let schema = Schema::new(vec![Attribute::transaction("Items")]).unwrap();
        let mut t = RtTable::new(schema);
        // two "clusters" of transactions over disjoint item groups
        for i in 0..n {
            if i % 2 == 0 {
                t.push_row(&[], &["a1", if i % 4 == 0 { "a2" } else { "a3" }])
                    .unwrap();
            } else {
                t.push_row(&[], &["b1", if i % 4 == 1 { "b2" } else { "b3" }])
                    .unwrap();
            }
        }
        t
    }

    fn hierarchy(t: &RtTable) -> Hierarchy {
        auto_hierarchy(t.item_pool().unwrap(), AttributeKind::Categorical, 2).unwrap()
    }

    #[test]
    fn per_partition_km_holds_globally() {
        let t = table(24);
        let h = hierarchy(&t);
        for p in [1, 2, 4] {
            let out = anonymize(&TransactionInput::km(&t, 2, 2, &h), p).unwrap();
            assert!(is_km_anonymous(&out.anon, 2, 2, Some(&h)), "partitions={p}");
            assert!(out.anon.is_truthful(&t, |_| None, Some(&h)));
        }
    }

    #[test]
    fn one_partition_equals_apriori() {
        let t = table(16);
        let h = hierarchy(&t);
        let lra = anonymize(&TransactionInput::km(&t, 2, 2, &h), 1).unwrap();
        let aa = apriori::anonymize(&TransactionInput::km(&t, 2, 2, &h)).unwrap();
        assert!(
            (transaction_gcp(&t, &lra.anon, Some(&h)) - transaction_gcp(&t, &aa.anon, Some(&h)))
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn more_partitions_never_hurt_on_clustered_data() {
        let t = table(40);
        let h = hierarchy(&t);
        let g1 = transaction_gcp(
            &t,
            &anonymize(&TransactionInput::km(&t, 3, 2, &h), 1)
                .unwrap()
                .anon,
            Some(&h),
        );
        let g4 = transaction_gcp(
            &t,
            &anonymize(&TransactionInput::km(&t, 3, 2, &h), 4)
                .unwrap()
                .anon,
            Some(&h),
        );
        // local recoding on separable data should not lose more
        assert!(g4 <= g1 + 1e-9, "g4={g4} g1={g1}");
    }

    #[test]
    fn short_tail_partitions_are_merged() {
        let t = table(10);
        let h = hierarchy(&t);
        // 10 rows, k=4, 3 partitions -> chunks of 4/4/2, tail merged
        let out = anonymize(&TransactionInput::km(&t, 4, 1, &h), 3).unwrap();
        assert!(is_km_anonymous(&out.anon, 4, 1, Some(&h)));
    }

    #[test]
    fn empty_transactions_pass_through() {
        let schema = Schema::new(vec![Attribute::transaction("Items")]).unwrap();
        let mut t = RtTable::new(schema);
        t.push_row(&[], &["x", "y"]).unwrap();
        t.push_row(&[], &[]).unwrap();
        t.push_row(&[], &["x", "y"]).unwrap();
        let h = hierarchy(&t);
        let out = anonymize(&TransactionInput::km(&t, 2, 2, &h), 2).unwrap();
        let tx = out.anon.tx.as_ref().unwrap();
        assert!(tx.row_items(1).is_empty());
        assert!(!tx.row_items(0).is_empty());
    }

    #[test]
    fn infeasible_small_input() {
        let t = table(2);
        let h = hierarchy(&t);
        assert!(matches!(
            anonymize(&TransactionInput::km(&t, 5, 1, &h), 2),
            Err(TxError::Infeasible { .. })
        ));
    }
}
