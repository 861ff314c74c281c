//! Full-subtree bottom-up generalization with naive counting: every
//! round regroups all rows by their signature under the current cuts.

use secreta_data::hash::{FxHashMap, FxHashSet};
use secreta_hierarchy::{Cut, NodeId};
use secreta_metrics::anon::rel_column_from_value_map;
use secreta_metrics::{AnonTable, GenEntry, PhaseTimer};
use secreta_relational::{RelError, RelOutput, RelationalInput};

/// Cheapest candidate by weighted NCP increase; the sort plus the
/// `min_by` comparator pin down the tie behavior.
fn select_cheapest(
    input: &RelationalInput,
    cuts: &[Cut],
    counts: &[Vec<u64>],
    totals: &[u64],
    cands: FxHashSet<(usize, NodeId)>,
) -> (usize, NodeId) {
    let mut ordered: Vec<(usize, NodeId)> = cands.into_iter().collect();
    ordered.sort_unstable_by_key(|&(pos, n)| (pos, n));
    ordered
        .into_iter()
        .min_by(|&(pa, na), &(pb, nb)| {
            let da = ncp_increase(input, &cuts[pa], pa, na, &counts[pa], totals[pa]);
            let db = ncp_increase(input, &cuts[pb], pb, nb, &counts[pb], totals[pb]);
            da.partial_cmp(&db).expect("NCP is finite")
        })
        .expect("candidates non-empty")
}

/// Run full-subtree bottom-up generalization on `input`.
pub fn anonymize(input: &RelationalInput) -> Result<RelOutput, RelError> {
    input.validate()?;
    let mut timer = PhaseTimer::new();

    let q = input.qi_attrs.len();
    let (counts, totals) = input.qi_value_counts();
    let mut cuts: Vec<Cut> = input.hierarchies.iter().map(Cut::leaves).collect();
    // row-major QI values: the signature grouping below re-reads every
    // cell once per round, so table lookups must stay off that path
    let matrix = input.value_matrix();
    timer.phase("setup");

    loop {
        // candidate generalizations: parents of cut nodes used by
        // violating rows
        let mut cands: FxHashSet<(usize, NodeId)> = FxHashSet::default();
        // group rows by current signature; clone the key only when a
        // new group appears (groups are few, rows are many)
        let mut groups: FxHashMap<Vec<NodeId>, Vec<usize>> = FxHashMap::default();
        let mut sig = Vec::with_capacity(q);
        for row in 0..input.table.n_rows() {
            sig.clear();
            for (pos, &v) in matrix.row(row).iter().enumerate() {
                sig.push(cuts[pos].node_of(v));
            }
            if let Some(rows) = groups.get_mut(&sig) {
                rows.push(row);
            } else {
                groups.insert(sig.clone(), vec![row]);
            }
        }
        let violators: Vec<usize> = groups
            .values()
            .filter(|rows| rows.len() < input.k)
            .flat_map(|rows| rows.iter().copied())
            .collect();
        if violators.is_empty() {
            break;
        }
        for &row in &violators {
            for (pos, &v) in matrix.row(row).iter().enumerate() {
                let node = cuts[pos].node_of(v);
                if let Some(parent) = input.hierarchies[pos].parent(node) {
                    cands.insert((pos, parent));
                }
            }
        }
        if cands.is_empty() {
            // all violating values already at the root in every
            // attribute: k-anonymity unreachable (cannot happen when
            // k <= n, but guard against logic drift)
            return Err(RelError::Infeasible {
                k: input.k,
                n: input.table.n_rows(),
            });
        }

        let (best_pos, best_node) = select_cheapest(input, &cuts, &counts, &totals, cands);
        cuts[best_pos].generalize_to(&input.hierarchies[best_pos], best_node);
    }
    timer.phase("generalization");

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

/// Record-weighted NCP increase of generalizing attribute `pos`'s cut
/// to `target`.
fn ncp_increase(
    input: &RelationalInput,
    cut: &Cut,
    pos: usize,
    target: NodeId,
    counts: &[u64],
    total: u64,
) -> f64 {
    let h = &input.hierarchies[pos];
    if total == 0 {
        return 0.0;
    }
    let mut delta = 0.0;
    for v in h.leaves_under(target) {
        let c = counts[v as usize];
        if c > 0 {
            delta += (h.ncp(target) - h.ncp(cut.node_of(v))) * c as f64;
        }
    }
    delta / total as f64
}
