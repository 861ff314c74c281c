//! COAT with naive counting: every repair round rebuilds the published
//! transactions and scans them for each support query. The round
//! support and the publisher are shared with the PCTA oracle.

use secreta_data::hash::FxHashMap;
use secreta_data::{ItemId, RtTable};
use secreta_metrics::anon::AnonTransaction;
use secreta_metrics::{AnonTable, GenEntry, PhaseTimer};
use secreta_policy::{PrivacyPolicy, UtilityPolicy};
use secreta_transaction::groups::ItemGroups;
use secreta_transaction::{TransactionInput, TxError, TxOutput};

/// Clamped `2^n - 1` used by the UL-style merge cost.
pub(crate) fn pow2m1(n: usize) -> f64 {
    if n >= 60 {
        f64::MAX / 1e16
    } else {
        ((1u64 << n) - 1) as f64
    }
}

/// One repair round's published transactions (sorted, duplicate-free
/// group roots per row) and per-root supports, rebuilt from scratch
/// and shared by every support query of that round.
pub(crate) struct RoundSupport {
    rows_pub: Vec<Vec<u32>>,
    sup: FxHashMap<u32, u32>,
}

impl RoundSupport {
    /// Publish `rows` under the current `groups` and count each root.
    pub(crate) fn new(table: &RtTable, groups: &mut ItemGroups, rows: &[usize]) -> RoundSupport {
        let rows_pub: Vec<Vec<u32>> = rows
            .iter()
            .map(|&r| {
                let mut buf: Vec<u32> = table
                    .transaction(r)
                    .iter()
                    .filter_map(|&it| groups.map(it))
                    .collect();
                buf.sort_unstable();
                buf.dedup();
                buf
            })
            .collect();
        let mut sup: FxHashMap<u32, u32> = FxHashMap::default();
        for row in &rows_pub {
            for &g in row {
                *sup.entry(g).or_insert(0) += 1;
            }
        }
        RoundSupport { rows_pub, sup }
    }

    /// Published support of one privacy constraint this round.
    pub(crate) fn constraint_support(&self, groups: &mut ItemGroups, constraint: &[ItemId]) -> u32 {
        // a suppressed item can never be matched -> support 0
        let mut image: Vec<u32> = Vec::with_capacity(constraint.len());
        for it in constraint {
            match groups.map(*it) {
                Some(g) => image.push(g),
                None => return 0,
            }
        }
        image.sort_unstable();
        image.dedup();
        self.rows_pub
            .iter()
            .filter(|buf| image.iter().all(|g| buf.binary_search(g).is_ok()))
            .count() as u32
    }

    /// Published support of the group rooted at `root` this round.
    pub(crate) fn sup_of(&self, root: u32) -> u32 {
        self.sup.get(&root).copied().unwrap_or(0)
    }
}

/// The COAT core: repeatedly repair the most-violated constraint until
/// the policy holds over `rows`.
fn constrain(
    table: &RtTable,
    rows: &[usize],
    k: usize,
    privacy: &PrivacyPolicy,
    utility: &UtilityPolicy,
) -> ItemGroups {
    let mut groups = ItemGroups::new(table.item_universe());
    loop {
        let support = RoundSupport::new(table, &mut groups, rows);
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
            let sup_a = support.sup_of(ga) as f64;
            let partner_items: Vec<u32> = utility
                .mergeable_with(*it)
                .into_iter()
                .map(|j| j.0)
                .collect();
            let mut seen_roots: Vec<u32> = Vec::new();
            for j in partner_items {
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
                let sup_b = support.sup_of(gb) as f64;
                let cost =
                    pow2m1(sa + sb) * (sup_a + sup_b) - pow2m1(sa) * sup_a - pow2m1(sb) * sup_b;
                if best.as_ref().is_none_or(|&(_, _, c)| cost < c) {
                    best = Some((ga, gb, cost));
                }
            }
        }

        match best {
            Some((a, b, _)) => {
                groups.union(a, b);
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
                    let key = (support.sup_of(g), it.0);
                    if victim.is_none_or(|v| key < v) {
                        victim = Some(key);
                    }
                }
                // victim is None only when every item of the
                // constraint is already suppressed, in which case the
                // support is 0 and the outer loop drops the constraint
                if let Some((_, item)) = victim {
                    groups.suppress(item);
                }
            }
        }
    }
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
