//! PCTA — Privacy-Constrained Clustering-based Transaction
//! Anonymization (Gkoulalas-Divanis & Loukides — TDP 2012).
//!
//! Like COAT, PCTA protects a privacy policy by building generalized
//! items (clusters of original items) and suppressing as a last
//! resort; unlike COAT's constraint-local, utility-group-driven
//! partner search, PCTA is a *clustering* algorithm: every item
//! starts as its own cluster and, while any constraint is violated,
//! the globally cheapest admissible cluster merge — measured by the
//! **UL** (utility loss) increase over *all* items of *all* violated
//! constraints — is applied. The hierarchy-free recoding and the UL
//! guidance are the signature properties of the original.

use crate::coat::{pow2m1, publish};
use crate::common::{TransactionInput, TxError, TxOutput};
use crate::groups::ItemGroups;
use crate::support::GroupSupportOracle;
use secreta_data::ItemId;
use secreta_metrics::PhaseTimer;
use secreta_policy::{PrivacyPolicy, UtilityPolicy};

/// The PCTA core over a row subset (shared with the RT bounding
/// methods).
pub(crate) fn cluster_items(
    table: &secreta_data::RtTable,
    rows: &[usize],
    k: usize,
    privacy: &PrivacyPolicy,
    utility: &UtilityPolicy,
) -> ItemGroups {
    let universe = table.item_universe();
    let mut groups = ItemGroups::new(universe);
    let mut support = GroupSupportOracle::new(table, rows);

    let recorder = secreta_obsv::current();
    let mut rounds = 0u64;
    let mut merges = 0u64;
    let mut suppressions = 0u64;
    loop {
        rounds += 1;
        // all violated constraints this round
        let mut violated: Vec<usize> = Vec::new();
        for (ci, c) in privacy.constraints.iter().enumerate() {
            let s = support.constraint_support(&mut groups, c);
            if s > 0 && (s as usize) < k {
                violated.push(ci);
            }
        }
        if violated.is_empty() {
            break;
        }

        // globally cheapest admissible merge over the items of every
        // violated constraint
        let mut best: Option<(u32, u32, f64)> = None;
        let mut considered: Vec<u32> = Vec::new();
        for &ci in &violated {
            for it in &privacy.constraints[ci] {
                if groups.is_suppressed(it.0) {
                    continue;
                }
                let ga = groups.find(it.0);
                if considered.contains(&ga) {
                    continue;
                }
                considered.push(ga);
                let members_a = groups.group_members(it.0);
                let sup_a = support.group_support(&mut groups, ga) as f64;
                let mut seen: Vec<u32> = Vec::new();
                for j in 0..universe as u32 {
                    if groups.is_suppressed(j) {
                        continue;
                    }
                    let gb = groups.find(j);
                    if gb == ga || seen.contains(&gb) {
                        continue;
                    }
                    seen.push(gb);
                    let members_b = groups.group_members(j);
                    let mut merged: Vec<ItemId> = members_a
                        .iter()
                        .chain(members_b.iter())
                        .map(|&v| ItemId(v))
                        .collect();
                    merged.sort_unstable();
                    if !utility.admits(&merged) {
                        continue;
                    }
                    let (sa, sb) = (members_a.len(), members_b.len());
                    let sup_b = support.group_support(&mut groups, gb) as f64;
                    let cost =
                        pow2m1(sa + sb) * (sup_a + sup_b) - pow2m1(sa) * sup_a - pow2m1(sb) * sup_b;
                    if best.as_ref().is_none_or(|&(_, _, c)| cost < c) {
                        best = Some((ga, gb, cost));
                    }
                }
            }
        }

        match best {
            Some((a, b, _)) => {
                merges += 1;
                groups.union(a, b);
                support.invalidate_root(a);
                support.invalidate_root(b);
            }
            None => {
                // no admissible merge: suppress the rarest live item of
                // the most violated constraint (fewest published rows,
                // then smallest item id — a strict total order)
                let mut victim: Option<(u32, u32)> = None; // (sup, item)
                for it in violated
                    .iter()
                    .flat_map(|&ci| privacy.constraints[ci].iter())
                {
                    if groups.is_suppressed(it.0) {
                        continue;
                    }
                    let g = groups.find(it.0);
                    let key = (support.group_support(&mut groups, g), it.0);
                    if victim.is_none_or(|v| key < v) {
                        victim = Some(key);
                    }
                }
                match victim {
                    Some((_, item)) => {
                        suppressions += 1;
                        // suppression leaves union-find parents
                        // untouched, so the root is stable
                        let root = groups.find(item);
                        groups.suppress(item);
                        support.invalidate_root(root);
                    }
                    None => break, // everything relevant suppressed
                }
            }
        }
    }
    recorder.count("pcta/clustering_rounds", rounds);
    recorder.count("pcta/merges", merges);
    recorder.count("pcta/suppressions", suppressions);
    support.stats.flush(&recorder);
    groups
}

/// Run PCTA on `input`.
pub fn anonymize(input: &TransactionInput) -> Result<TxOutput, TxError> {
    input.validate()?;
    let mut timer = PhaseTimer::new();
    let default_privacy;
    let privacy = match input.privacy {
        Some(p) => p,
        None => {
            default_privacy = PrivacyPolicy::all_items(input.table);
            &default_privacy
        }
    };
    let default_utility;
    let utility = match input.utility {
        Some(u) => u,
        None => {
            default_utility = UtilityPolicy::unconstrained(input.table);
            &default_utility
        }
    };
    // empty transactions can never support a constraint: filter them
    // once per run instead of rescanning them every round
    let rows = input.non_empty_rows();
    timer.phase("setup");

    let mut groups = cluster_items(input.table, &rows, input.k, privacy, utility);
    timer.phase("ul-guided clustering");

    let anon = publish(input.table, &mut groups);
    timer.phase("publish");

    Ok(TxOutput {
        anon,
        phases: timer.finish(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::satisfies_privacy;
    use secreta_data::{Attribute, RtTable, Schema};
    use secreta_metrics::{utility_loss, GenEntry};

    fn table() -> RtTable {
        let schema = Schema::new(vec![Attribute::transaction("Items")]).unwrap();
        let mut t = RtTable::new(schema);
        for tx in [
            vec!["flu", "cold"],
            vec!["flu", "cold"],
            vec!["flu", "hiv"],
            vec!["cold", "herpes"],
            vec!["flu"],
            vec!["cold"],
        ] {
            t.push_row(&[], &tx).unwrap();
        }
        t
    }

    fn run(t: &RtTable, k: usize) -> crate::common::TxOutput {
        let input = TransactionInput {
            table: t,
            k,
            m: 1,
            hierarchy: None,
            privacy: None,
            utility: None,
        };
        anonymize(&input).unwrap()
    }

    #[test]
    fn protects_default_policy() {
        let t = table();
        let out = run(&t, 2);
        let p = PrivacyPolicy::all_items(&t);
        assert!(satisfies_privacy(&out.anon, &p, 2, None));
        assert!(out.anon.is_truthful(&t, |_| None, None));
        assert!(out.anon.tx.as_ref().unwrap().suppressed.is_empty());
    }

    #[test]
    fn k1_changes_nothing() {
        let t = table();
        let out = run(&t, 1);
        assert_eq!(utility_loss(&t, &out.anon, None), 0.0);
    }

    #[test]
    fn loss_monotone_in_k() {
        let t = table();
        let l2 = utility_loss(&t, &run(&t, 2).anon, None);
        let l3 = utility_loss(&t, &run(&t, 3).anon, None);
        assert!(l2 <= l3 + 1e-12, "l2={l2} l3={l3}");
    }

    #[test]
    fn respects_utility_policy() {
        let t = table();
        let pool = t.item_pool().unwrap();
        let flu = ItemId(pool.get("flu").unwrap());
        let cold = ItemId(pool.get("cold").unwrap());
        let hiv = ItemId(pool.get("hiv").unwrap());
        let herpes = ItemId(pool.get("herpes").unwrap());
        let u = UtilityPolicy::new(vec![vec![flu, cold], vec![hiv, herpes]]);
        let p = PrivacyPolicy::all_items(&t);
        let input = TransactionInput::constrained(&t, 2, &p, &u);
        let out = anonymize(&input).unwrap();
        assert!(satisfies_privacy(&out.anon, &p, 2, None));
        let tx = out.anon.tx.as_ref().unwrap();
        for e in &tx.domain {
            if let GenEntry::Set(s) = e {
                let set: Vec<ItemId> = s.iter().map(|&v| ItemId(v)).collect();
                assert!(u.admits(&set));
            }
        }
    }

    #[test]
    fn impossible_merges_fall_back_to_suppression() {
        let t = table();
        let p = PrivacyPolicy::all_items(&t);
        let u = UtilityPolicy::new(vec![]); // no merges admissible
        let input = TransactionInput::constrained(&t, 2, &p, &u);
        let out = anonymize(&input).unwrap();
        assert!(satisfies_privacy(&out.anon, &p, 2, None));
        assert!(!out.anon.tx.as_ref().unwrap().suppressed.is_empty());
    }

    #[test]
    fn pcta_merges_low_support_items_first() {
        // hiv and herpes both have support 1: UL-cheapest merge is
        // between two rare items, not rare+frequent
        let t = table();
        let out = run(&t, 2);
        let tx = out.anon.tx.as_ref().unwrap();
        let pool = t.item_pool().unwrap();
        let hiv = pool.get("hiv").unwrap();
        let herpes = pool.get("herpes").unwrap();
        let merged_rare = tx
            .domain
            .iter()
            .any(|e| matches!(e, GenEntry::Set(s) if s.contains(&hiv) && s.contains(&herpes)));
        assert!(
            merged_rare,
            "rare items should cluster together: {:?}",
            tx.domain
        );
    }

    #[test]
    fn phases_recorded() {
        let t = table();
        let out = run(&t, 2);
        assert!(out.phases.get("ul-guided clustering").is_some());
    }
}
