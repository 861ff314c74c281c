//! LRA with naive counting: the Apriori oracle inside each horizontal
//! partition.

use super::apriori::{anonymize_rows, build_anon};
use secreta_metrics::PhaseTimer;
use secreta_transaction::{TransactionInput, TxError, TxOutput};

/// Run LRA with `partitions` horizontal partitions.
pub fn anonymize(input: &TransactionInput, partitions: usize) -> Result<TxOutput, TxError> {
    input.validate()?;
    let h = input
        .hierarchy
        .ok_or_else(|| TxError::BadInput("LRA requires an item hierarchy".into()))?;
    let partitions = partitions.max(1);
    let mut timer = PhaseTimer::new();

    // sort non-empty rows by transaction content so similar
    // transactions land in the same partition
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

    let anon = build_anon(input.table, |row, it| {
        row_state[row].and_then(|ci| states[ci].map(it))
    });
    timer.phase("publish");

    Ok(TxOutput {
        anon,
        phases: timer.finish(),
    })
}
