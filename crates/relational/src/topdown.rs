//! Top-down specialization (Fung, Wang, Yu — ICDE 2005).
//!
//! Starts from the fully generalized table (every QI at its hierarchy
//! root — trivially k-anonymous once `k ≤ n`) and repeatedly applies
//! the most profitable *specialization*: replacing one cut node by its
//! children, provided the result is still k-anonymous. The original
//! scores specializations by `InfoGain/AnonyLoss` against a
//! classification target; SECRETA datasets carry no class attribute,
//! so the score is the specialization's *information-loss reduction*
//! (record-weighted NCP decrease), which is the measure the SECRETA
//! framework evaluates — the greedy structure, cut representation and
//! stopping rule are Fung et al.'s.

use crate::common::{min_class_size_matrix, RelError, RelOutput, RelationalInput};
use crate::kernel::{Counting, RowPartition};
use secreta_hierarchy::{Cut, Hierarchy, NodeId};
use secreta_metrics::anon::rel_column_from_value_map;
use secreta_metrics::{AnonTable, GenEntry, PhaseTimer};

/// Run Top-down specialization on `input` with the kernel counting
/// paths.
pub fn anonymize(input: &RelationalInput) -> Result<RelOutput, RelError> {
    anonymize_with(input, Counting::Kernel)
}

/// Run Top-down with the naive per-candidate full-table rescans — the
/// reference oracle the kernel path is tested and benchmarked against.
pub fn anonymize_reference(input: &RelationalInput) -> Result<RelOutput, RelError> {
    anonymize_with(input, Counting::Naive)
}

/// NCP gain of splitting `cand` into its children, weighted by the
/// records it covers. Shared by both counting paths so candidate
/// ranking is identical by construction.
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

/// Run Top-down specialization on `input` with an explicit
/// [`Counting`] selection.
pub fn anonymize_with(input: &RelationalInput, counting: Counting) -> Result<RelOutput, RelError> {
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
    // kernel: cut-resident partition with per-class row lists, so a
    // candidate split only touches the rows of the classes it splits
    let mut partition = match counting {
        Counting::Kernel => Some(RowPartition::root_cut(
            input.table.n_rows(),
            &input.hierarchies,
        )),
        Counting::Naive => None,
    };
    timer.phase("setup");

    // Greedy specialization loop.
    let recorder = secreta_obsv::current();
    let mut splits = 0u64;
    let mut candidate_checks = 0u64;
    let mut rows_touched = 0u64;
    loop {
        let mut best: Option<(usize, NodeId, f64)> = None;
        for pos in 0..q {
            let h = &input.hierarchies[pos];
            for cand in cuts[pos].specialization_candidates(h) {
                candidate_checks += 1;
                let total = totals[pos];
                if total == 0 {
                    continue;
                }
                let gain = split_gain(h, cand, &counts[pos], total);
                // zero-gain specializations stay eligible: unary chain
                // nodes (an interval with a single child covering the
                // same leaves) must not block the descent — TDS stops
                // on *validity*, the score only ranks candidates
                // validity: still k-anonymous after the split
                let valid = match &partition {
                    // every class of the current (valid) cut has ≥ k
                    // rows, so only the classes `cand` splits can
                    // violate: bucket their rows by child
                    Some(rp) => {
                        let (ok, touched) = rp.split_is_valid(&matrix, pos, cand, h, input.k);
                        rows_touched += touched;
                        ok
                    }
                    None => {
                        let mut trial = cuts[pos].clone();
                        trial.specialize(h, cand);
                        let m = min_class_size_matrix(&matrix, &domains, |p, v| {
                            if p == pos {
                                trial.node_of(v)
                            } else {
                                cuts[p].node_of(v)
                            }
                        });
                        m >= input.k
                    }
                };
                if !valid {
                    continue;
                }
                if best.as_ref().is_none_or(|&(_, _, g)| gain > g) {
                    best = Some((pos, cand, gain));
                }
            }
        }
        match best {
            Some((pos, node, _)) => {
                splits += 1;
                if let Some(rp) = &mut partition {
                    rp.apply_split(&matrix, pos, node, &input.hierarchies[pos]);
                }
                cuts[pos].specialize(&input.hierarchies[pos], node);
            }
            None => break,
        }
    }
    recorder.count("topdown/splits", splits);
    recorder.count("topdown/candidate_checks", candidate_checks);
    recorder.count("topdown/split_rows_touched", rows_touched);
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
    fn k1_recovers_original_data() {
        let t = table();
        let out = anonymize(&input(&t, 1)).unwrap();
        let hs = input(&t, 1).hierarchies;
        assert_eq!(gcp(&t, &out.anon, |a| Some(hs[a].clone())), 0.0);
    }

    #[test]
    fn k_equals_n_generalizes_heavily() {
        let t = table();
        let out = anonymize(&input(&t, 8)).unwrap();
        assert!(is_k_anonymous(&out.anon, 8));
        // 8 = n: a single equivalence class
        let sizes = out.anon.equivalence_classes().sizes;
        assert_eq!(sizes, vec![8]);
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
            anonymize(&input(&t, 100)),
            Err(RelError::Infeasible { .. })
        ));
    }

    #[test]
    fn cut_recoding_is_full_subtree() {
        // values under the same cut node share a generalized entry
        let t = table();
        let out = anonymize(&input(&t, 4)).unwrap();
        for col in &out.anon.rel {
            for e in &col.domain {
                assert!(matches!(e, GenEntry::Node(_)));
            }
        }
    }

    #[test]
    fn phases_recorded() {
        let t = table();
        let out = anonymize(&input(&t, 2)).unwrap();
        assert!(out.phases.get("specialization").is_some());
        assert!(out.phases.get("recode").is_some());
    }

    #[test]
    fn kernel_matches_naive_on_fixture() {
        let t = table();
        for k in [1, 2, 3, 4, 8] {
            let fast = anonymize_with(&input(&t, k), Counting::Kernel).unwrap();
            let slow = anonymize_with(&input(&t, k), Counting::Naive).unwrap();
            assert_eq!(fast.anon, slow.anon, "k={k}");
        }
    }
}
