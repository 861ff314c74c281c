//! VPA with naive counting: the Apriori oracle on each vertical part,
//! under the part's ceiling.

use super::apriori::{anonymize_rows, build_anon};
use secreta_metrics::PhaseTimer;
use secreta_transaction::{TransactionInput, TxError, TxOutput};

/// Run VPA with `parts` vertical parts.
pub fn anonymize(input: &TransactionInput, parts: usize) -> Result<TxOutput, TxError> {
    input.validate()?;
    let h = input
        .hierarchy
        .ok_or_else(|| TxError::BadInput("VPA requires an item hierarchy".into()))?;
    let parts = parts.max(1).min(h.n_leaves().max(1));
    let mut timer = PhaseTimer::new();

    // vertical parts: contiguous runs of the DFS leaf order
    let dfs: Vec<u32> = h.leaves_under(h.root()).collect();
    let per_part = dfs.len().div_ceil(parts);
    let mut part_of = vec![0usize; h.n_leaves()];
    for (pos, &leaf) in dfs.iter().enumerate() {
        part_of[leaf as usize] = pos / per_part;
    }
    let n_parts = dfs.len().div_ceil(per_part);
    timer.phase("vertical partitioning");

    let rows: Vec<usize> = (0..input.table.n_rows()).collect();
    let mut states = Vec::with_capacity(n_parts);
    for p in 0..n_parts {
        // the part's ceiling: a node is allowed iff all its leaves are
        // in part p
        let state = anonymize_rows(
            input.table,
            &rows,
            input.k,
            input.m,
            h,
            |node| h.leaves_under(node).all(|v| part_of[v as usize] == p),
            |it| part_of[it.index()] == p,
            true,
        )?;
        states.push(state);
    }
    timer.phase("per-part recoding");

    let anon = build_anon(input.table, |_, it| states[part_of[it.index()]].map(it));
    timer.phase("publish");

    Ok(TxOutput {
        anon,
        phases: timer.finish(),
    })
}
