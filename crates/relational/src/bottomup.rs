//! Full-subtree bottom-up generalization.
//!
//! The counterpart of Top-down specialization that the paper lists as
//! SECRETA's fourth relational algorithm ("Full subtree bottom-up").
//! It starts from the original data (the leaf cut) and, while any
//! equivalence class is smaller than `k`, applies the cheapest
//! *generalization*: replacing all children of some hierarchy node by
//! that node (full-subtree, global recoding). Candidates are
//! restricted to nodes covering at least one value that occurs in a
//! violating class, so every step works towards feasibility; among
//! those, the step with the smallest record-weighted NCP increase is
//! taken.

use crate::common::{RelError, RelOutput, RelationalInput};
use crate::kernel::CutClasses;
use secreta_data::hash::FxHashSet;
use secreta_hierarchy::Cut;
use secreta_hierarchy::NodeId;
use secreta_metrics::anon::rel_column_from_value_map;
use secreta_metrics::{AnonTable, GenEntry, PhaseTimer};

/// Cheapest candidate by weighted NCP increase: the sort plus the
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
    // group the rows once at the leaf cut; every later round works on
    // class signatures (remap + coalesce), never on rows
    let domains: Vec<usize> = input
        .qi_attrs
        .iter()
        .map(|&a| input.table.domain_size(a))
        .collect();
    let mut classes = CutClasses::leaf_cut(&input.value_matrix(), &input.hierarchies, &domains);
    timer.phase("setup");

    let recorder = secreta_obsv::current();
    let mut merges = 0u64;
    let mut class_scans = 0u64;
    loop {
        // candidate generalizations: parents of cut nodes used by
        // violating classes (every row of a class shares its signature)
        class_scans += classes.n_classes() as u64;
        let violating = classes.violating(input.k);
        if violating.is_empty() {
            break;
        }
        let mut cands: FxHashSet<(usize, NodeId)> = FxHashSet::default();
        for c in violating {
            for pos in 0..q {
                if let Some(parent) = input.hierarchies[pos].parent(classes.node(c, pos)) {
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

        // cheapest candidate by weighted NCP increase
        let (best_pos, best_node) = select_cheapest(input, &cuts, &counts, &totals, cands);
        cuts[best_pos].generalize_to(&input.hierarchies[best_pos], best_node);
        classes = classes.remap(best_pos, &input.hierarchies[best_pos], best_node);
        merges += 1;
    }
    recorder.count("bottomup/generalizations", merges);
    recorder.count("bottomup/class_scans", class_scans);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::is_k_anonymous;
    use secreta_data::{Attribute, AttributeKind, RtTable, Schema};
    use secreta_hierarchy::auto_hierarchy;
    use secreta_metrics::gcp;

    fn table() -> RtTable {
        let schema = Schema::new(vec![
            Attribute::numeric("Age"),
            Attribute::categorical("Edu"),
        ])
        .unwrap();
        let mut t = RtTable::new(schema);
        for (age, edu) in [
            ("30", "BSc"),
            ("31", "BSc"),
            ("32", "MSc"),
            ("33", "MSc"),
            ("60", "BSc"),
            ("61", "BSc"),
            ("62", "MSc"),
            ("63", "MSc"),
        ] {
            t.push_row(&[age, edu], &[]).unwrap();
        }
        t
    }

    fn input(t: &RtTable, k: usize) -> RelationalInput<'_> {
        RelationalInput {
            table: t,
            qi_attrs: vec![0, 1],
            hierarchies: vec![
                auto_hierarchy(t.pool(0), AttributeKind::Numeric, 2).unwrap(),
                auto_hierarchy(t.pool(1), AttributeKind::Categorical, 2).unwrap(),
            ],
            k,
        }
    }

    #[test]
    fn produces_k_anonymous_truthful_output() {
        let t = table();
        for k in [1, 2, 4, 8] {
            let out = anonymize(&input(&t, k)).unwrap();
            assert!(is_k_anonymous(&out.anon, k), "k={k}");
            let hs = input(&t, k).hierarchies;
            assert!(out.anon.is_truthful(&t, |a| Some(hs[a].clone()), None));
        }
    }

    #[test]
    fn k1_keeps_original() {
        let t = table();
        let out = anonymize(&input(&t, 1)).unwrap();
        let hs = input(&t, 1).hierarchies;
        assert_eq!(gcp(&t, &out.anon, |a| Some(hs[a].clone())), 0.0);
    }

    #[test]
    fn already_anonymous_data_untouched() {
        // duplicate rows are 2-anonymous as-is
        let schema = Schema::new(vec![Attribute::categorical("X")]).unwrap();
        let mut t = RtTable::new(schema);
        for _ in 0..2 {
            t.push_row(&["a"], &[]).unwrap();
            t.push_row(&["b"], &[]).unwrap();
        }
        let h = auto_hierarchy(t.pool(0), AttributeKind::Categorical, 2).unwrap();
        let out = anonymize(&RelationalInput {
            table: &t,
            qi_attrs: vec![0],
            hierarchies: vec![h.clone()],
            k: 2,
        })
        .unwrap();
        assert_eq!(gcp(&t, &out.anon, |_| Some(h.clone())), 0.0);
    }

    #[test]
    fn loss_is_monotone_in_k() {
        let t = table();
        let hs = input(&t, 1).hierarchies;
        let mut prev = -1.0;
        for k in [1, 2, 4, 8] {
            let out = anonymize(&input(&t, k)).unwrap();
            let g = gcp(&t, &out.anon, |a| Some(hs[a].clone()));
            assert!(g >= prev - 1e-12, "k={k}: {g} < {prev}");
            prev = g;
        }
    }

    #[test]
    fn infeasible_k_rejected() {
        let t = table();
        assert!(matches!(
            anonymize(&input(&t, 9)),
            Err(RelError::Infeasible { .. })
        ));
    }

    #[test]
    fn skewed_data_converges() {
        // one outlier among duplicates forces generalization
        let schema = Schema::new(vec![Attribute::numeric("Age")]).unwrap();
        let mut t = RtTable::new(schema);
        for _ in 0..5 {
            t.push_row(&["30"], &[]).unwrap();
        }
        t.push_row(&["90"], &[]).unwrap();
        let h = auto_hierarchy(t.pool(0), AttributeKind::Numeric, 2).unwrap();
        let out = anonymize(&RelationalInput {
            table: &t,
            qi_attrs: vec![0],
            hierarchies: vec![h],
            k: 2,
        })
        .unwrap();
        assert!(is_k_anonymous(&out.anon, 2));
    }

    #[test]
    fn phases_recorded() {
        let t = table();
        let out = anonymize(&input(&t, 4)).unwrap();
        assert!(out.phases.get("generalization").is_some());
    }
}
