//! COAT — COnstraint-based Anonymization of Transactions (Loukides,
//! Gkoulalas-Divanis, Malin — KAIS 2011).
//!
//! COAT takes a **privacy policy** (itemsets whose published support
//! must be ≥ k or 0) and a **utility policy** (groups of items that
//! are semantically interchangeable; a generalized item must stay
//! within one group). It repairs the most-violated constraint first:
//! the constraint's item whose cheapest admissible merge exists is
//! generalized by merging its generalized item with the partner that
//! minimizes the utility-loss increase; when no admissible merge
//! remains for any item of the constraint, the rarest item is
//! **suppressed** — exactly the generalize-then-suppress fallback of
//! the original.

use crate::common::{TransactionInput, TxError, TxOutput};
use crate::groups::ItemGroups;
use crate::support::GroupSupportOracle;
use secreta_data::hash::FxHashMap;
use secreta_data::{ItemId, RtTable};
use secreta_metrics::anon::AnonTransaction;
use secreta_metrics::{AnonTable, GenEntry, PhaseTimer};
use secreta_policy::{PrivacyPolicy, UtilityPolicy};

/// Clamped `2^n - 1` used by the UL-style merge cost.
pub(crate) fn pow2m1(n: usize) -> f64 {
    if n >= 60 {
        f64::MAX / 1e16
    } else {
        ((1u64 << n) - 1) as f64
    }
}

/// The COAT core: repeatedly repair the most-violated constraint
/// until the policy holds over `rows`.
pub(crate) fn constrain(
    table: &RtTable,
    rows: &[usize],
    k: usize,
    privacy: &PrivacyPolicy,
    utility: &UtilityPolicy,
) -> ItemGroups {
    let mut groups = ItemGroups::new(table.item_universe());
    // support queries answered from memoized posting-list unions and
    // intersections; merges and suppressions invalidate per root
    let mut support = GroupSupportOracle::new(table, rows);

    let recorder = secreta_obsv::current();
    let mut rounds = 0u64;
    let mut merges = 0u64;
    let mut suppressions = 0u64;
    loop {
        rounds += 1;
        // most-violated constraint (smallest positive support < k)
        let mut worst: Option<(usize, u32)> = None;
        for (ci, c) in privacy.constraints.iter().enumerate() {
            let s = support.constraint_support(&mut groups, c);
            if s > 0 && (s as usize) < k && worst.as_ref().is_none_or(|&(_, ws)| s < ws) {
                worst = Some((ci, s));
            }
        }
        let Some((ci, _)) = worst else {
            break;
        };
        let constraint = privacy.constraints[ci].clone();

        // candidate merges: for each live item of the constraint,
        // partners from its utility groups, filtered by admissibility
        let mut best: Option<(u32, u32, f64)> = None; // (a, b, cost)
        for it in &constraint {
            if groups.is_suppressed(it.0) {
                continue;
            }
            let ga = groups.find(it.0);
            let members_a = groups.group_members(it.0);
            let sup_a = support.group_support(&mut groups, ga) as f64;
            let mut seen_roots: Vec<u32> = Vec::new();
            for j in utility.mergeable_with(*it).into_iter().map(|j| j.0) {
                if groups.is_suppressed(j) {
                    continue;
                }
                let gb = groups.find(j);
                if gb == ga || seen_roots.contains(&gb) {
                    continue;
                }
                seen_roots.push(gb);
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
                // UL-style merge cost: the merged generalized item is
                // charged for its subset blow-up, weighted by an upper
                // bound of its support
                let sa = members_a.len();
                let sb = members_b.len();
                let sup_b = support.group_support(&mut groups, gb) as f64;
                let cost =
                    pow2m1(sa + sb) * (sup_a + sup_b) - pow2m1(sa) * sup_a - pow2m1(sb) * sup_b;
                if best.as_ref().is_none_or(|&(_, _, c)| cost < c) {
                    best = Some((ga, gb, cost));
                }
            }
        }

        match best {
            Some((a, b, _)) => {
                merges += 1;
                groups.union(a, b);
                // either root may survive as the union root; every
                // other group's member set, and so row set, is
                // unchanged
                support.invalidate_root(a);
                support.invalidate_root(b);
            }
            None => {
                // no admissible merge anywhere in the constraint:
                // suppress its rarest live item (fewest published
                // rows, then smallest item id — a strict total order)
                let mut victim: Option<(u32, u32)> = None; // (sup, item)
                for it in &constraint {
                    if groups.is_suppressed(it.0) {
                        continue;
                    }
                    let g = groups.find(it.0);
                    let key = (support.group_support(&mut groups, g), it.0);
                    if victim.is_none_or(|v| key < v) {
                        victim = Some(key);
                    }
                }
                // victim is None only when every item of the
                // constraint is already suppressed, in which case the
                // support is 0 and the outer loop drops the constraint
                if let Some((_, item)) = victim {
                    suppressions += 1;
                    // suppression leaves union-find parents untouched,
                    // so the root is the same before and after
                    let root = groups.find(item);
                    groups.suppress(item);
                    support.invalidate_root(root);
                }
            }
        }
    }
    recorder.count("coat/repair_rounds", rounds);
    recorder.count("coat/merges", merges);
    recorder.count("coat/suppressions", suppressions);
    support.stats.flush(&recorder);
    groups
}

/// Build the published [`AnonTable`] from final item groups.
pub(crate) fn publish(table: &RtTable, groups: &mut ItemGroups) -> AnonTable {
    // domain: one Set entry per live root that actually occurs
    let mut index: FxHashMap<u32, u32> = FxHashMap::default();
    let mut domain: Vec<GenEntry> = Vec::new();
    for row in 0..table.n_rows() {
        for &it in table.transaction(row) {
            if let Some(root) = groups.map(it) {
                if let std::collections::hash_map::Entry::Vacant(e) = index.entry(root) {
                    e.insert(domain.len() as u32);
                    domain.push(GenEntry::set(groups.group_members(root)));
                }
            }
        }
    }
    let g2 = groups.clone();
    let tx = AnonTransaction::from_mapping(table, domain, |it| {
        if g2.is_suppressed(it.0) {
            None
        } else {
            Some(index[&g2.find_const(it.0)])
        }
    });
    AnonTable {
        rel: Vec::new(),
        tx: Some(tx),
        n_rows: table.n_rows(),
    }
}

/// Run COAT on `input`.
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

    let mut groups = constrain(input.table, &rows, input.k, privacy, utility);
    timer.phase("constraint repair");

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
    use secreta_data::{Attribute, Schema};
    use secreta_metrics::utility_loss;

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

    #[test]
    fn default_policies_protect_every_item() {
        let t = table();
        let input = TransactionInput {
            table: &t,
            k: 2,
            m: 1,
            hierarchy: None,
            privacy: None,
            utility: None,
        };
        let out = anonymize(&input).unwrap();
        let p = PrivacyPolicy::all_items(&t);
        assert!(satisfies_privacy(&out.anon, &p, 2, None));
        assert!(out.anon.is_truthful(&t, |_| None, None));
    }

    #[test]
    fn rare_items_merge_rather_than_suppress_when_allowed() {
        let t = table();
        let p = PrivacyPolicy::all_items(&t);
        let u = UtilityPolicy::unconstrained(&t);
        let input = TransactionInput::constrained(&t, 2, &p, &u);
        let out = anonymize(&input).unwrap();
        // unconstrained utility: nothing needs suppression
        assert!(out.anon.tx.as_ref().unwrap().suppressed.is_empty());
        assert!(satisfies_privacy(&out.anon, &p, 2, None));
    }

    #[test]
    fn tight_utility_policy_forces_suppression() {
        let t = table();
        // hiv (sup 1) may merge with nothing: singleton-only groups
        let p = PrivacyPolicy::all_items(&t);
        let u = UtilityPolicy::new(vec![]); // nothing mergeable
        let input = TransactionInput::constrained(&t, 2, &p, &u);
        let out = anonymize(&input).unwrap();
        let tx = out.anon.tx.as_ref().unwrap();
        assert!(!tx.suppressed.is_empty(), "rare items must be suppressed");
        assert!(satisfies_privacy(&out.anon, &p, 2, None));
        // frequent items survive untouched
        let pool = t.item_pool().unwrap();
        let flu = ItemId(pool.get("flu").unwrap());
        assert!(tx.suppressed.binary_search(&flu).is_err());
    }

    #[test]
    fn utility_groups_bound_generalization() {
        let t = table();
        let pool = t.item_pool().unwrap();
        let flu = ItemId(pool.get("flu").unwrap());
        let cold = ItemId(pool.get("cold").unwrap());
        let hiv = ItemId(pool.get("hiv").unwrap());
        let herpes = ItemId(pool.get("herpes").unwrap());
        // STDs may merge together but never with respiratory items
        let u = UtilityPolicy::new(vec![vec![flu, cold], vec![hiv, herpes]]);
        let p = PrivacyPolicy::new(vec![vec![hiv], vec![herpes]]);
        let input = TransactionInput::constrained(&t, 2, &p, &u);
        let out = anonymize(&input).unwrap();
        let tx = out.anon.tx.as_ref().unwrap();
        assert!(satisfies_privacy(&out.anon, &p, 2, None));
        for e in &tx.domain {
            if let GenEntry::Set(s) = e {
                if s.len() > 1 {
                    let set: Vec<ItemId> = s.iter().map(|&v| ItemId(v)).collect();
                    assert!(u.admits(&set), "inadmissible generalized item {s:?}");
                }
            }
        }
        // the {hiv,herpes} merge is the only way to satisfy p
        let merged = tx
            .domain
            .iter()
            .any(|e| matches!(e, GenEntry::Set(s) if s.len() == 2));
        assert!(merged);
    }

    #[test]
    fn multi_item_constraints_protected() {
        let t = table();
        let pool = t.item_pool().unwrap();
        let flu = ItemId(pool.get("flu").unwrap());
        let hiv = ItemId(pool.get("hiv").unwrap());
        // {flu, hiv} appears once -> must end >=2 or 0
        let p = PrivacyPolicy::new(vec![vec![flu, hiv]]);
        let u = UtilityPolicy::unconstrained(&t);
        let input = TransactionInput::constrained(&t, 2, &p, &u);
        let out = anonymize(&input).unwrap();
        assert!(satisfies_privacy(&out.anon, &p, 2, None));
    }

    #[test]
    fn satisfied_policy_changes_nothing() {
        let t = table();
        let pool = t.item_pool().unwrap();
        let flu = ItemId(pool.get("flu").unwrap());
        let p = PrivacyPolicy::new(vec![vec![flu]]); // sup 4 >= 2
        let u = UtilityPolicy::unconstrained(&t);
        let input = TransactionInput::constrained(&t, 2, &p, &u);
        let out = anonymize(&input).unwrap();
        assert_eq!(utility_loss(&t, &out.anon, None), 0.0);
    }

    #[test]
    fn k1_is_always_satisfied() {
        let t = table();
        let input = TransactionInput {
            table: &t,
            k: 1,
            m: 1,
            hierarchy: None,
            privacy: None,
            utility: None,
        };
        let out = anonymize(&input).unwrap();
        assert_eq!(utility_loss(&t, &out.anon, None), 0.0);
    }

    #[test]
    fn phases_recorded() {
        let t = table();
        let input = TransactionInput {
            table: &t,
            k: 2,
            m: 1,
            hierarchy: None,
            privacy: None,
            utility: None,
        };
        let out = anonymize(&input).unwrap();
        assert!(out.phases.get("constraint repair").is_some());
    }
}
