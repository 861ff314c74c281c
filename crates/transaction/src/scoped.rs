//! Scoped runs: any transaction algorithm over a row subset.
//!
//! The RT bounding methods of [Poulis et al., ECML/PKDD 2013] enforce
//! k^m-anonymity *within each relational cluster*, so every algorithm
//! must also run against a subset of rows and report its recoding
//! instead of a fully assembled table. [`anonymize_scoped`] is that
//! entry point; the result is a [`ClusterTx`] describing, for each
//! in-scope row, where each of its items goes.

use crate::apriori::anonymize_rows;
use crate::coat::constrain;
use crate::common::{TransactionAlgorithm, TxError};
use crate::groups::ItemGroups;
use crate::pcta::cluster_items;
use secreta_data::{ItemId, RtTable};
use secreta_hierarchy::{Hierarchy, NodeId};
use secreta_metrics::GenEntry;
use secreta_policy::{PrivacyPolicy, UtilityPolicy};
use std::borrow::Cow;

/// Item recoding of one (chunk of a) scoped run.
#[derive(Debug, Clone)]
pub enum ItemMap {
    /// Hierarchy recoding: item id → node (or suppressed).
    Nodes(Vec<Option<NodeId>>),
    /// Set recoding: item id → sorted member set (or suppressed).
    Sets(Vec<Option<Vec<u32>>>),
}

impl ItemMap {
    /// The published generalized entry of `it` under this map.
    pub fn entry(&self, it: ItemId) -> Option<GenEntry> {
        match self {
            ItemMap::Nodes(v) => v[it.index()].map(GenEntry::Node),
            ItemMap::Sets(v) => v[it.index()].as_ref().map(|s| GenEntry::Set(s.clone())),
        }
    }

    fn from_groups(mut groups: ItemGroups) -> ItemMap {
        let n = groups.len();
        let mut v: Vec<Option<Vec<u32>>> = Vec::with_capacity(n);
        for i in 0..n as u32 {
            if groups.is_suppressed(i) {
                v.push(None);
            } else {
                v.push(Some(groups.group_members(i)));
            }
        }
        ItemMap::Sets(v)
    }
}

/// The transaction recoding of one relational (super-)cluster.
#[derive(Debug, Clone)]
pub struct ClusterTx {
    /// The rows this recoding covers, in the order given to
    /// [`anonymize_scoped`].
    pub rows: Vec<usize>,
    /// Chunk index of each row (parallel to `rows`; all zero except
    /// under LRA's horizontal partitioning).
    pub chunk_of_row: Vec<u32>,
    /// Per-chunk item maps.
    pub chunks: Vec<ItemMap>,
}

impl ClusterTx {
    /// Published entry of item `it` in the row at position `row_pos`
    /// of `rows`.
    pub fn entry(&self, row_pos: usize, it: ItemId) -> Option<GenEntry> {
        self.chunks[self.chunk_of_row[row_pos] as usize].entry(it)
    }
}

/// Run `algo` over exactly the rows in `rows`, enforcing `k`/`m` (or
/// the policies, for COAT/PCTA) within that scope.
#[allow(clippy::too_many_arguments)]
pub fn anonymize_scoped(
    algo: TransactionAlgorithm,
    table: &RtTable,
    rows: &[usize],
    k: usize,
    m: usize,
    hierarchy: Option<&Hierarchy>,
    privacy: Option<&PrivacyPolicy>,
    utility: Option<&UtilityPolicy>,
) -> Result<ClusterTx, TxError> {
    let need_h = || {
        hierarchy
            .ok_or_else(|| TxError::BadInput(format!("{} requires an item hierarchy", algo.name())))
    };
    match algo {
        TransactionAlgorithm::Apriori => {
            let h = need_h()?;
            let state = anonymize_rows(table, rows, k, m, h, |_| true, |_| true, false)?;
            let map = (0..h.n_leaves() as u32)
                .map(|v| state.map(ItemId(v)))
                .collect();
            Ok(ClusterTx {
                rows: rows.to_vec(),
                chunk_of_row: vec![0; rows.len()],
                chunks: vec![ItemMap::Nodes(map)],
            })
        }
        TransactionAlgorithm::Lra { partitions } => {
            let h = need_h()?;
            let partitions = partitions.max(1);
            // sort in-scope non-empty rows by content, chunk, AA each
            let mut order: Vec<usize> = (0..rows.len())
                .filter(|&p| !table.transaction(rows[p]).is_empty())
                .collect();
            order.sort_by(|&a, &b| table.transaction(rows[a]).cmp(table.transaction(rows[b])));
            let mut chunk_of_row = vec![0u32; rows.len()];
            let mut chunks: Vec<ItemMap> = Vec::new();
            if order.is_empty() {
                chunks.push(ItemMap::Nodes(vec![None; h.n_leaves()]));
            } else {
                if order.len() < k {
                    return Err(TxError::Infeasible {
                        k,
                        non_empty: order.len(),
                    });
                }
                let target = order.len().div_ceil(partitions).max(k);
                let mut chunk_rows: Vec<Vec<usize>> =
                    order.chunks(target).map(|c| c.to_vec()).collect();
                if chunk_rows.len() > 1 && chunk_rows.last().map(Vec::len).unwrap_or(0) < k {
                    let tail = chunk_rows.pop().expect("non-empty");
                    chunk_rows
                        .last_mut()
                        .expect("len > 1 before pop")
                        .extend(tail);
                }
                for positions in chunk_rows {
                    let abs: Vec<usize> = positions.iter().map(|&p| rows[p]).collect();
                    let state = anonymize_rows(table, &abs, k, m, h, |_| true, |_| true, false)?;
                    let ci = chunks.len() as u32;
                    for &p in &positions {
                        chunk_of_row[p] = ci;
                    }
                    let map = (0..h.n_leaves() as u32)
                        .map(|v| state.map(ItemId(v)))
                        .collect();
                    chunks.push(ItemMap::Nodes(map));
                }
            }
            Ok(ClusterTx {
                rows: rows.to_vec(),
                chunk_of_row,
                chunks,
            })
        }
        TransactionAlgorithm::Vpa { parts } => {
            let h = need_h()?;
            let parts = parts.max(1).min(h.n_leaves().max(1));
            let dfs: Vec<u32> = h.leaves_under(h.root()).collect();
            let per_part = dfs.len().div_ceil(parts);
            let mut part_of = vec![0usize; h.n_leaves()];
            for (pos, &leaf) in dfs.iter().enumerate() {
                part_of[leaf as usize] = pos / per_part;
            }
            let n_parts = dfs.len().div_ceil(per_part);
            let mut map: Vec<Option<NodeId>> = vec![None; h.n_leaves()];
            for p in 0..n_parts {
                let state = anonymize_rows(
                    table,
                    rows,
                    k,
                    m,
                    h,
                    |node| h.leaves_under(node).all(|v| part_of[v as usize] == p),
                    |it| part_of[it.index()] == p,
                    true,
                )?;
                for v in 0..h.n_leaves() as u32 {
                    if part_of[v as usize] == p {
                        map[v as usize] = state.map(ItemId(v));
                    }
                }
            }
            Ok(ClusterTx {
                rows: rows.to_vec(),
                chunk_of_row: vec![0; rows.len()],
                chunks: vec![ItemMap::Nodes(map)],
            })
        }
        TransactionAlgorithm::Coat | TransactionAlgorithm::Pcta => {
            // only COAT and PCTA read the policies, so only they pay
            // for building the defaults
            let privacy = privacy.map_or_else(
                || Cow::Owned(PrivacyPolicy::all_items(table)),
                Cow::Borrowed,
            );
            let utility = utility.map_or_else(
                || Cow::Owned(UtilityPolicy::unconstrained(table)),
                Cow::Borrowed,
            );
            let groups = if algo == TransactionAlgorithm::Coat {
                constrain(table, rows, k, &privacy, &utility)
            } else {
                cluster_items(table, rows, k, &privacy, &utility)
            };
            Ok(ClusterTx {
                rows: rows.to_vec(),
                chunk_of_row: vec![0; rows.len()],
                chunks: vec![ItemMap::from_groups(groups)],
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secreta_data::{Attribute, AttributeKind, Schema};
    use secreta_hierarchy::auto_hierarchy;

    fn table() -> RtTable {
        let schema = Schema::new(vec![Attribute::transaction("Items")]).unwrap();
        let mut t = RtTable::new(schema);
        for tx in [
            vec!["a", "b"],
            vec!["a", "b"],
            vec!["a", "c"],
            vec!["b", "c"],
            vec!["c", "d"],
            vec!["c", "d"],
        ] {
            t.push_row(&[], &tx).unwrap();
        }
        t
    }

    #[test]
    fn scoped_apriori_ignores_out_of_scope_rows() {
        let t = table();
        let h = auto_hierarchy(t.item_pool().unwrap(), AttributeKind::Categorical, 2).unwrap();
        // only rows 4,5 in scope: {c,d} twice is already 2^2-anonymous
        let ct = anonymize_scoped(
            TransactionAlgorithm::Apriori,
            &t,
            &[4, 5],
            2,
            2,
            Some(&h),
            None,
            None,
        )
        .unwrap();
        let c_id = ItemId(t.item_pool().unwrap().get("c").unwrap());
        let entry = ct.entry(0, c_id).unwrap();
        assert_eq!(entry.leaf_count(Some(&h)), 1, "no generalization needed");
    }

    #[test]
    fn scoped_run_respects_scope_k() {
        let t = table();
        let h = auto_hierarchy(t.item_pool().unwrap(), AttributeKind::Categorical, 2).unwrap();
        // rows 0..4: d never occurs; a,b,c all have support >= 2 in scope
        let ct = anonymize_scoped(
            TransactionAlgorithm::Apriori,
            &t,
            &[0, 1, 2, 3],
            2,
            1,
            Some(&h),
            None,
            None,
        )
        .unwrap();
        for (pos, _) in [0, 1, 2, 3].iter().enumerate() {
            for &it in t.transaction(pos) {
                assert!(ct.entry(pos, it).is_some());
            }
        }
    }

    #[test]
    fn scoped_coat_and_pcta_work_without_hierarchy() {
        let t = table();
        for algo in [TransactionAlgorithm::Coat, TransactionAlgorithm::Pcta] {
            let ct = anonymize_scoped(algo, &t, &[0, 1, 2, 3], 2, 1, None, None, None).unwrap();
            assert_eq!(ct.chunks.len(), 1);
            // every in-scope item published somehow (merge, not suppress)
            for pos in 0..4usize {
                for &it in t.transaction(pos) {
                    assert!(ct.entry(pos, it).is_some(), "{algo:?}");
                }
            }
        }
    }

    #[test]
    fn scoped_lra_chunks_rows() {
        let t = table();
        let h = auto_hierarchy(t.item_pool().unwrap(), AttributeKind::Categorical, 2).unwrap();
        let ct = anonymize_scoped(
            TransactionAlgorithm::Lra { partitions: 3 },
            &t,
            &[0, 1, 2, 3, 4, 5],
            2,
            1,
            Some(&h),
            None,
            None,
        )
        .unwrap();
        assert!(ct.chunks.len() >= 2, "six rows, k=2, 3 partitions");
    }

    #[test]
    fn scoped_hierarchy_required_for_km_algorithms() {
        let t = table();
        for algo in [
            TransactionAlgorithm::Apriori,
            TransactionAlgorithm::Lra { partitions: 2 },
            TransactionAlgorithm::Vpa { parts: 2 },
        ] {
            assert!(matches!(
                anonymize_scoped(algo, &t, &[0, 1], 2, 1, None, None, None),
                Err(TxError::BadInput(_))
            ));
        }
    }

    #[test]
    fn scoped_infeasible_propagates() {
        let t = table();
        let h = auto_hierarchy(t.item_pool().unwrap(), AttributeKind::Categorical, 2).unwrap();
        assert!(matches!(
            anonymize_scoped(
                TransactionAlgorithm::Apriori,
                &t,
                &[0],
                2,
                1,
                Some(&h),
                None,
                None
            ),
            Err(TxError::Infeasible { .. })
        ));
    }
}
