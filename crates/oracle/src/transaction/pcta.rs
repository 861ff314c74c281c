//! PCTA with naive counting: the COAT oracle's per-round published-row
//! rebuild under UL-guided global clustering.

use super::coat::{pow2m1, publish, RoundSupport};
use secreta_data::{ItemId, RtTable};
use secreta_metrics::PhaseTimer;
use secreta_policy::{PrivacyPolicy, UtilityPolicy};
use secreta_transaction::groups::ItemGroups;
use secreta_transaction::{TransactionInput, TxError, TxOutput};

/// The PCTA core over a row subset: while any constraint is violated,
/// apply the globally cheapest admissible cluster merge.
fn cluster_items(
    table: &RtTable,
    rows: &[usize],
    k: usize,
    privacy: &PrivacyPolicy,
    utility: &UtilityPolicy,
) -> ItemGroups {
    let universe = table.item_universe();
    let mut groups = ItemGroups::new(universe);
    loop {
        let support = RoundSupport::new(table, &mut groups, rows);
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
                let sup_a = support.sup_of(ga) as f64;
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
                    let sup_b = support.sup_of(gb) as f64;
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
                groups.union(a, b);
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
                    let key = (support.sup_of(g), it.0);
                    if victim.is_none_or(|v| key < v) {
                        victim = Some(key);
                    }
                }
                match victim {
                    Some((_, item)) => groups.suppress(item),
                    None => break, // everything relevant suppressed
                }
            }
        }
    }
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
