//! Incognito with naive counting: the size-1 subset stage and the
//! levelwise lattice search rescan every row per checked node, with
//! values generalized through `Hierarchy::generalize` on each check.

use super::min_class_size_matrix;
use secreta_data::hash::FxHashSet;
use secreta_metrics::anon::rel_column_from_value_map;
use secreta_metrics::{AnonTable, GenEntry, PhaseTimer};
use secreta_relational::common::ValueMatrix;
use secreta_relational::{RelError, RelOutput, RelationalInput};

/// Run Incognito on `input`: all minimal k-anonymous full-domain
/// generalizations, of which the lowest weighted GCP is published.
pub fn anonymize(input: &RelationalInput) -> Result<RelOutput, RelError> {
    input.validate()?;
    let mut timer = PhaseTimer::new();

    let heights: Vec<u32> = input.hierarchies.iter().map(|h| h.height()).collect();
    let q = input.qi_attrs.len();

    // per-attribute value counts, for GCP-weighted node selection
    let (counts, totals) = input.qi_value_counts();
    // row-major QI values: every lattice-node anonymity check scans
    // all rows, so table lookups must stay out of that loop
    let matrix = input.value_matrix();
    let domains: Vec<usize> = input
        .qi_attrs
        .iter()
        .map(|&a| input.table.domain_size(a))
        .collect();
    timer.phase("setup");

    // Incognito's subset lattice, size-1 stage: an attribute that is
    // not k-anonymous *alone* at some level cannot be part of any
    // k-anonymous combination at that level. Per-level full-column
    // rescan, with the single-column matrix extracted once per
    // attribute instead of once per candidate level.
    let min_level: Vec<u32> = (0..q)
        .map(|pos| {
            let col = matrix.column(pos);
            let dom = [domains[pos]];
            (0..=heights[pos])
                .find(|&lvl| {
                    min_class_size_matrix(&col, &dom, |_, v| {
                        input.hierarchies[pos].generalize(v, lvl)
                    }) >= input.k
                })
                // even the root alone is below k only when k > n,
                // which validate() has excluded
                .expect("root level is k-anonymous for k <= n")
        })
        .collect();
    timer.phase("subset pruning");

    let minimal = lattice_search(input, &matrix, &domains, &heights, &min_level);
    timer.phase("lattice search");

    // The root node is always k-anonymous once k <= n (validated), so
    // `minimal` is non-empty.
    debug_assert!(!minimal.is_empty());

    // choose the minimal node with the lowest weighted GCP (scored
    // once per node, not once per comparison)
    let gcp_of = |node: &[u32]| -> f64 {
        let mut total = 0.0;
        for pos in 0..q {
            let h = &input.hierarchies[pos];
            let c = &counts[pos];
            let rows = totals[pos];
            if rows == 0 {
                continue;
            }
            let mut attr_sum = 0.0;
            for (v, &cv) in c.iter().enumerate() {
                if cv > 0 {
                    attr_sum += h.ncp(h.generalize(v as u32, node[pos])) * cv as f64;
                }
            }
            total += attr_sum / rows as f64;
        }
        total / q as f64
    };
    // deterministic tie-break: equal-GCP minimal nodes resolve to the
    // lexicographically smallest level vector
    let best = minimal
        .iter()
        .map(|node| (node, gcp_of(node)))
        .min_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .expect("GCP is finite")
                .then_with(|| a.0.cmp(b.0))
        })
        .expect("minimal set non-empty")
        .0
        .clone();
    timer.phase("node selection");

    let rel = input
        .qi_attrs
        .iter()
        .enumerate()
        .map(|(pos, &attr)| {
            let h = &input.hierarchies[pos];
            rel_column_from_value_map(input.table, attr, |v| {
                GenEntry::Node(h.generalize(v.0, best[pos]))
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

/// The original levelwise search: one full-matrix rescan per checked
/// node. Returns all minimal k-anonymous nodes, in enumeration order.
fn lattice_search(
    input: &RelationalInput,
    matrix: &ValueMatrix,
    domains: &[usize],
    heights: &[u32],
    min_level: &[u32],
) -> Vec<Vec<u32>> {
    let q = input.qi_attrs.len();
    let max_sum: u32 = heights.iter().sum();
    let mut anonymous: FxHashSet<Vec<u32>> = FxHashSet::default();
    let mut minimal: Vec<Vec<u32>> = Vec::new();

    for s in 0..=max_sum {
        for node in nodes_with_sum(heights, s) {
            // size-1 subset pruning
            if node.iter().zip(min_level).any(|(&l, &ml)| l < ml) {
                continue;
            }
            // predecessor anonymous => node anonymous and non-minimal
            let mut implied = false;
            for i in 0..q {
                if node[i] > 0 {
                    let mut pred = node.clone();
                    pred[i] -= 1;
                    if anonymous.contains(&pred) {
                        implied = true;
                        break;
                    }
                }
            }
            if implied {
                anonymous.insert(node);
                continue;
            }
            let m = min_class_size_matrix(matrix, domains, |pos, v| {
                input.hierarchies[pos].generalize(v, node[pos])
            });
            if m >= input.k {
                minimal.push(node.clone());
                anonymous.insert(node);
            }
        }
    }
    minimal
}

/// All level vectors bounded by `heights` whose components sum to `s`.
fn nodes_with_sum(heights: &[u32], s: u32) -> Vec<Vec<u32>> {
    let mut out = Vec::new();
    let mut cur = vec![0u32; heights.len()];
    fn rec(heights: &[u32], i: usize, remaining: u32, cur: &mut Vec<u32>, out: &mut Vec<Vec<u32>>) {
        if i == heights.len() {
            if remaining == 0 {
                out.push(cur.clone());
            }
            return;
        }
        let cap = heights[i].min(remaining);
        for l in 0..=cap {
            cur[i] = l;
            rec(heights, i + 1, remaining - l, cur, out);
        }
        cur[i] = 0;
    }
    rec(heights, 0, s, &mut cur, &mut out);
    out
}
