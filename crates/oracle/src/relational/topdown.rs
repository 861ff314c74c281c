//! Top-down specialization with naive counting: every candidate split
//! is validated by regrouping all rows under the trial cut.

use super::min_class_size_matrix;
use secreta_hierarchy::{Cut, Hierarchy, NodeId};
use secreta_metrics::anon::rel_column_from_value_map;
use secreta_metrics::{AnonTable, GenEntry, PhaseTimer};
use secreta_relational::{RelError, RelOutput, RelationalInput};

/// NCP gain of splitting `cand` into its children, weighted by the
/// records it covers.
fn split_gain(h: &Hierarchy, cand: NodeId, counts: &[u64], total: u64) -> f64 {
    let mut gain = 0.0;
    for v in h.leaves_under(cand) {
        let c = counts[v as usize];
        if c == 0 {
            continue;
        }
        let child = h
            .children(cand)
            .iter()
            .copied()
            .find(|&ch| h.contains(ch, v))
            .expect("leaf under cand sits under one child");
        gain += (h.ncp(cand) - h.ncp(child)) * c as f64;
    }
    gain / total as f64
}

/// Run Top-down specialization on `input`.
pub fn anonymize(input: &RelationalInput) -> Result<RelOutput, RelError> {
    input.validate()?;
    let mut timer = PhaseTimer::new();

    let q = input.qi_attrs.len();
    let (counts, totals) = input.qi_value_counts();
    let mut cuts: Vec<Cut> = input.hierarchies.iter().map(Cut::root).collect();
    // QI values in row-major form: the k-anonymity check below runs
    // once per candidate per round, so table lookups must not sit on
    // that path
    let matrix = input.value_matrix();
    let domains: Vec<usize> = input
        .qi_attrs
        .iter()
        .map(|&a| input.table.domain_size(a))
        .collect();
    timer.phase("setup");

    // Greedy specialization loop.
    loop {
        let mut best: Option<(usize, NodeId, f64)> = None;
        for pos in 0..q {
            let h = &input.hierarchies[pos];
            for cand in cuts[pos].specialization_candidates(h) {
                let total = totals[pos];
                if total == 0 {
                    continue;
                }
                let gain = split_gain(h, cand, &counts[pos], total);
                // zero-gain specializations stay eligible: TDS stops
                // on *validity*, the score only ranks candidates
                // validity: still k-anonymous after the split
                let mut trial = cuts[pos].clone();
                trial.specialize(h, cand);
                let m = min_class_size_matrix(&matrix, &domains, |p, v| {
                    if p == pos {
                        trial.node_of(v)
                    } else {
                        cuts[p].node_of(v)
                    }
                });
                if m < input.k {
                    continue;
                }
                if best.as_ref().is_none_or(|&(_, _, g)| gain > g) {
                    best = Some((pos, cand, gain));
                }
            }
        }
        match best {
            Some((pos, node, _)) => {
                cuts[pos].specialize(&input.hierarchies[pos], node);
            }
            None => break,
        }
    }
    timer.phase("specialization");

    let rel = input
        .qi_attrs
        .iter()
        .enumerate()
        .map(|(pos, &attr)| {
            rel_column_from_value_map(input.table, attr, |v| {
                GenEntry::Node(cuts[pos].node_of(v.0))
            })
        })
        .collect();
    let anon = AnonTable {
        rel,
        tx: None,
        n_rows: input.table.n_rows(),
    };
    timer.phase("recode");

    Ok(RelOutput {
        anon,
        phases: timer.finish(),
    })
}
