//! The m-item attack as a brute-force O(n²) scan: every knowledge
//! subset of every record counts its candidates by re-scanning all
//! published rows through `GenEntry::covers`.

use secreta_data::RtTable;
use secreta_hierarchy::Hierarchy;
use secreta_metrics::{AnonTable, MItemRisk, TransactionRisk};
use secreta_risk::{RiskParams, RiskWork};

/// Integer accumulator of the attack.
struct Acc {
    /// Per `m` (index `m - 1`): (min worst-case, Σ worst-case, unique
    /// records).
    per_m: Vec<(u64, u64, u64)>,
    /// Records with at least one original item.
    counted: u64,
    work: RiskWork,
}

impl Acc {
    fn new(max_m: usize) -> Acc {
        Acc {
            per_m: vec![(u64::MAX, 0, 0); max_m],
            counted: 0,
            work: RiskWork::default(),
        }
    }

    /// Record one attacked row's worst-case candidate counts, one per
    /// `m` in `1..=max_m`.
    fn record(&mut self, worst_by_m: &[u64]) {
        self.counted += 1;
        self.work.rows += 1;
        for (slot, &w) in self.per_m.iter_mut().zip(worst_by_m) {
            slot.0 = slot.0.min(w);
            slot.1 += w;
            slot.2 += u64::from(w == 1);
        }
    }

    fn finish(self) -> TransactionRisk {
        let per_m = self
            .per_m
            .iter()
            .zip(1..)
            .map(|(&(min, sum, unique), m)| MItemRisk {
                m,
                min_candidates: if self.counted == 0 { 0 } else { min },
                avg_candidates: if self.counted == 0 {
                    0.0
                } else {
                    sum as f64 / self.counted as f64
                },
                unique_fraction: if self.counted == 0 {
                    0.0
                } else {
                    unique as f64 / self.counted as f64
                },
            })
            .collect();
        TransactionRisk { per_m }
    }
}

/// Compute the m-item adversary block for the transaction part of
/// `anon`, plus the work tally. `(None, work)` when the output has no
/// transaction part. A `max_m` of 0 counts as 1.
pub fn transaction_risk(
    table: &RtTable,
    anon: &AnonTable,
    item_hierarchy: Option<&Hierarchy>,
    params: &RiskParams,
) -> (Option<TransactionRisk>, RiskWork) {
    let Some(tx) = &anon.tx else {
        return (None, RiskWork::default());
    };
    let max_m = params.max_m.max(1) as usize;
    let n = tx.n_rows();
    let mut acc = Acc::new(max_m);
    let mut worst_by_m: Vec<u64> = Vec::new();
    for row in 0..n {
        let items: Vec<u32> = table.transaction(row).iter().map(|it| it.0).collect();
        if items.is_empty() {
            continue;
        }
        worst_by_m.clear();
        for m in 1..=max_m {
            let m_eff = m.min(items.len());
            if m_eff < m {
                let prev = worst_by_m[m_eff - 1];
                worst_by_m.push(prev);
                continue;
            }
            let mut worst = u64::MAX;
            for_each_subset(&items, m_eff, &mut |s| {
                if worst == 0 {
                    return;
                }
                acc.work.subsets += 1;
                let count = (0..n)
                    .filter(|&r2| {
                        s.iter().all(|&i| {
                            tx.row_items(r2)
                                .iter()
                                .any(|&g| tx.domain[g as usize].covers(i, item_hierarchy))
                        })
                    })
                    .count() as u64;
                worst = worst.min(count);
            });
            worst_by_m.push(worst);
        }
        acc.record(&worst_by_m);
    }
    let work = acc.work;
    (Some(acc.finish()), work)
}

/// Invoke `f` on every `size`-subset of `items` (sorted and
/// duplicate-free), in lexicographic order.
fn for_each_subset(items: &[u32], size: usize, f: &mut impl FnMut(&[u32])) {
    fn rec(
        items: &[u32],
        size: usize,
        start: usize,
        cur: &mut Vec<u32>,
        f: &mut impl FnMut(&[u32]),
    ) {
        if cur.len() == size {
            f(cur);
            return;
        }
        let need = size - cur.len();
        for i in start..=items.len().saturating_sub(need) {
            cur.push(items[i]);
            rec(items, size, i + 1, cur, f);
            cur.pop();
        }
    }
    if size > items.len() {
        return;
    }
    rec(items, size, 0, &mut Vec::with_capacity(size), f);
}
