//! TDControl — generalization-based ρ-uncertainty (Cao, Karras,
//! Raïssi, Tan — PVLDB 2010), the companion of `rho`'s
//! SuppressControl.
//!
//! Where SuppressControl deletes items, TDControl *generalizes* the
//! non-sensitive vocabulary over the item hierarchy, publishing
//! sensitive items untouched (generalizing a sensitive item would
//! change what the rule `q → s` even means). The algorithm is
//! top-down: start from the most general cut, repeatedly try the
//! specialization that recovers the most information, and keep it only
//! if every sensitive association rule stays below the confidence
//! threshold ρ. Sensitive items whose *prior* already violates ρ can
//! be saved by nothing but suppression, which remains the fallback.
//!
//! As in [`crate::rho`], mined antecedents are bounded
//! (`max_antecedent`), matching the reference implementation's
//! practical bound.

use crate::common::{TransactionInput, TxError, TxOutput};
use crate::rho::RhoParams;
use crate::support::{InvertedIndex, KernelStats, RuleCounts};
use secreta_data::hash::{FxHashMap, FxHashSet};
use secreta_data::{ItemId, RtTable};
use secreta_hierarchy::{Cut, NodeId};
use secreta_metrics::anon::AnonTransaction;
use secreta_metrics::{AnonTable, GenEntry, PhaseTimer};

/// Kernel token encoding: sensitive tokens carry the high bit so they
/// sort after every generalized-node token, mirroring the
/// `Gen < Sensitive` order of the [`Token`] enum. Node and item ids
/// stay well below 2^31 in practice (they index in-memory arrays).
const SENSITIVE_BIT: u32 = 0x8000_0000;

/// The published state during the search: a cut for non-sensitive
/// items, raw sensitive items, and per-item suppression.
struct State {
    cut: Cut,
    sensitive: FxHashSet<u32>,
    suppressed: Vec<bool>,
}

/// A published token: either a generalized non-sensitive node or a raw
/// sensitive item.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Token {
    Gen(NodeId),
    Sensitive(u32),
}

impl State {
    fn token_of(&self, it: ItemId) -> Option<Token> {
        if self.suppressed[it.index()] {
            None
        } else if self.sensitive.contains(&it.0) {
            Some(Token::Sensitive(it.0))
        } else {
            Some(Token::Gen(self.cut.node_of(it.0)))
        }
    }

    /// [`State::token_of`] under the packed `u32` encoding used by the
    /// interned kernel counters.
    fn token_u32(&self, it: ItemId) -> Option<u32> {
        if self.suppressed[it.index()] {
            None
        } else if self.sensitive.contains(&it.0) {
            Some(SENSITIVE_BIT | it.0)
        } else {
            Some(self.cut.node_of(it.0).0)
        }
    }
}

/// Run TDControl on `input` with `params`. Requires the item
/// hierarchy; `input.k`/`input.m` are unused.
pub fn anonymize(input: &TransactionInput, params: &RhoParams) -> Result<TxOutput, TxError> {
    input.validate()?;
    let h = input
        .hierarchy
        .ok_or_else(|| TxError::BadInput("TDControl requires an item hierarchy".into()))?;
    if !(params.rho > 0.0 && params.rho <= 1.0) {
        return Err(TxError::BadInput(format!(
            "rho must be in (0, 1], got {}",
            params.rho
        )));
    }
    let universe = input.table.item_universe();
    for s in &params.sensitive {
        if s.index() >= universe {
            return Err(TxError::BadInput(format!(
                "sensitive item id {s} outside the universe"
            )));
        }
    }
    let mut timer = PhaseTimer::new();
    // empty transactions contribute nothing to any rule or prior:
    // filter them once per run instead of rescanning them every check
    let rows = input.non_empty_rows();
    let mut state = State {
        cut: Cut::root(h),
        sensitive: params.sensitive.iter().map(|s| s.0).collect(),
        suppressed: vec![false; universe],
    };
    let mut stats = KernelStats::default();
    // Raw supports never change under recoding, so the index answers
    // every prior-victim scan for the whole run.
    let index = InvertedIndex::build(input.table, &rows, universe, |_| true);
    stats.record_index(&index);
    // The incremental rule counter: built once at the fully general
    // cut with per-row token lists retained, then maintained across
    // every suppression and cut move by re-enumerating only the dirty
    // rows, delivered as tiered [`RowSet`]s from the index. `None`
    // when ρ ≥ 1.0 makes every rule vacuous: nothing ever violates.
    let fill_tokens = |state: &State, pos: usize, buf: &mut Vec<u32>| {
        buf.extend(
            input
                .table
                .transaction(rows[pos])
                .iter()
                .filter_map(|&it| state.token_u32(it)),
        );
        buf.sort_unstable();
        buf.dedup();
    };
    let is_target = |t: u32| t & SENSITIVE_BIT != 0;
    let mut rc = (params.rho < 1.0).then(|| {
        RuleCounts::build(
            rows.len(),
            params.max_antecedent,
            true,
            |pos, buf| fill_tokens(&state, pos, buf),
            is_target,
        )
    });
    timer.phase("setup");

    // Priors first: a sensitive item violating at the fully general
    // cut can only be rescued by suppressing it (or, transitively,
    // other sensitive items feeding its rules).
    let recorder = secreta_obsv::current();
    let mut prior_suppressions = 0u64;
    while let Some(rc) = rc.as_mut().filter(|rc| rc.any_violation(params.rho)) {
        // suppress the most exposed sensitive item (highest prior)
        let victim = params
            .sensitive
            .iter()
            .filter(|s| !state.suppressed[s.index()])
            .max_by_key(|s| index.support(s.0));
        match victim {
            Some(s) => {
                let s = *s;
                prior_suppressions += 1;
                state.suppressed[s.index()] = true;
                let dirty = index.union_rowset(std::iter::once(s.0), &mut rc.stats);
                rc.stats.posting_unions += 1;
                rc.update_rowset(&dirty, |pos, buf| fill_tokens(&state, pos, buf), is_target);
            }
            None => {
                // no sensitive item left, yet still violating: cannot
                // happen (no rules without sensitive targets), but
                // guard against drift
                return Err(TxError::BadInput(
                    "rho-uncertainty unreachable at the fully generalized cut".into(),
                ));
            }
        }
    }
    recorder.count("rho_td/prior_suppressions", prior_suppressions);
    timer.phase("prior control");

    // Top-down specialization: keep splitting while some split leaves
    // the rules below rho. Candidates are ordered by how much
    // information the split recovers (leaf count first).
    let mut specializations = 0u64;
    let mut reverts = 0u64;
    loop {
        let mut cands = state.cut.specialization_candidates(h);
        cands.sort_by_key(|&n| std::cmp::Reverse(h.leaf_count(n)));
        let mut accepted = false;
        for cand in cands {
            // skip nodes that only cover sensitive/suppressed leaves —
            // splitting them changes nothing
            let affected: Vec<u32> = h
                .leaves_under(cand)
                .filter(|&v| !state.sensitive.contains(&v) && !state.suppressed[v as usize])
                .collect();
            if affected.is_empty() {
                continue;
            }
            let Some(rc) = rc.as_mut() else {
                // vacuous rules: every split is kept
                state.cut.specialize(h, cand);
                specializations += 1;
                accepted = true;
                continue;
            };
            // only rows holding a live leaf under `cand` change tokens
            // under this split (and under its revert)
            let dirty = index.union_rowset(affected.iter().copied(), &mut rc.stats);
            rc.stats.posting_unions += 1;
            state.cut.specialize(h, cand);
            rc.update_rowset(&dirty, |pos, buf| fill_tokens(&state, pos, buf), is_target);
            if rc.any_violation(params.rho) {
                // revert: re-generalize the whole subtree
                reverts += 1;
                state.cut.generalize_to(h, cand);
                rc.update_rowset(&dirty, |pos, buf| fill_tokens(&state, pos, buf), is_target);
            } else {
                specializations += 1;
                accepted = true;
            }
        }
        if !accepted {
            break;
        }
    }
    recorder.count("rho_td/specializations", specializations);
    recorder.count("rho_td/reverts", reverts);
    if let Some(rc) = &rc {
        stats.absorb(&rc.stats);
    }
    stats.flush(&recorder);
    timer.phase("top-down specialization");

    // publish: sensitive → singleton sets; non-sensitive → the cut
    // node's leaf set *minus sensitive items* (a sensitive item must
    // never be covered by a generalized value — coverage would let
    // query estimation and adversaries place it inside the set)
    let mut index: FxHashMap<GenEntry, u32> = FxHashMap::default();
    let mut domain: Vec<GenEntry> = Vec::new();
    let mut entry_of = |e: GenEntry| -> u32 {
        let next = domain.len() as u32;
        let id = *index.entry(e.clone()).or_insert(next);
        if id as usize == domain.len() {
            domain.push(e);
        }
        id
    };
    let mut map: Vec<Option<u32>> = Vec::with_capacity(universe);
    for v in 0..universe as u32 {
        let it = ItemId(v);
        map.push(match state.token_of(it) {
            None => None,
            Some(Token::Sensitive(s)) => Some(entry_of(GenEntry::Set(vec![s]))),
            Some(Token::Gen(n)) => {
                let members: Vec<u32> = h
                    .leaves_under(n)
                    .filter(|leaf| !state.sensitive.contains(leaf))
                    .collect();
                Some(entry_of(GenEntry::set(members)))
            }
        });
    }
    let tx = AnonTransaction::from_mapping(input.table, domain, |it| map[it.index()]);
    let anon = AnonTable {
        rel: Vec::new(),
        tx: Some(tx),
        n_rows: input.table.n_rows(),
    };
    timer.phase("publish");

    Ok(TxOutput {
        anon,
        phases: timer.finish(),
    })
}

/// Verify ρ-uncertainty of a TDControl-style published output: mines
/// rules over the published generalized tokens, treating singleton
/// entries of sensitive items as the rule targets.
pub fn is_rho_uncertain_published(_table: &RtTable, anon: &AnonTable, params: &RhoParams) -> bool {
    let tx = match &anon.tx {
        Some(tx) => tx,
        None => return true,
    };
    if params.rho >= 1.0 {
        return true;
    }
    let sensitive: FxHashSet<u32> = params.sensitive.iter().map(|s| s.0).collect();
    // gen id -> is it a sensitive singleton?
    let target_of: Vec<Option<u32>> = tx
        .domain
        .iter()
        .map(|e| match e {
            GenEntry::Set(s) if s.len() == 1 && sensitive.contains(&s[0]) => Some(s[0]),
            _ => None,
        })
        .collect();
    let mut sup_q: FxHashMap<Vec<u32>, u32> = FxHashMap::default();
    let mut sup_qs: FxHashMap<(Vec<u32>, u32), u32> = FxHashMap::default();
    for row in 0..tx.n_rows() {
        let items = tx.row_items(row);
        if items.is_empty() {
            continue;
        }
        let present: Vec<u32> = items
            .iter()
            .filter_map(|&g| target_of[g as usize])
            .collect();
        for size in 0..=params.max_antecedent.min(items.len()) {
            subsets_u32(items, size, &mut |q| {
                *sup_q.entry(q.to_vec()).or_insert(0) += 1;
                for &s in &present {
                    // the antecedent may not contain the target itself
                    let contains_target = q.iter().any(|&g| target_of[g as usize] == Some(s));
                    if !contains_target {
                        *sup_qs.entry((q.to_vec(), s)).or_insert(0) += 1;
                    }
                }
            });
        }
    }
    !sup_qs.iter().any(|((q, _), &qs)| {
        let q_sup = *sup_q.get(q).expect("antecedent counted");
        qs as f64 / q_sup as f64 >= params.rho
    })
}

fn subsets_u32(items: &[u32], size: usize, f: &mut impl FnMut(&[u32])) {
    fn rec(
        items: &[u32],
        size: usize,
        start: usize,
        cur: &mut Vec<u32>,
        f: &mut impl FnMut(&[u32]),
    ) {
        if cur.len() == size {
            f(cur);
            return;
        }
        let need = size - cur.len();
        for i in start..=items.len().saturating_sub(need) {
            cur.push(items[i]);
            rec(items, size, i + 1, cur, f);
            cur.pop();
        }
    }
    if size > items.len() {
        return;
    }
    rec(items, size, 0, &mut Vec::with_capacity(size), f);
}

#[cfg(test)]
mod tests {
    use super::*;
    use secreta_data::{Attribute, AttributeKind, Schema};
    use secreta_hierarchy::{auto_hierarchy, Hierarchy};
    use secreta_metrics::transaction_gcp;

    /// "marker" perfectly predicts "hiv"; plenty of benign traffic.
    fn table() -> RtTable {
        let schema = Schema::new(vec![Attribute::transaction("Items")]).unwrap();
        let mut t = RtTable::new(schema);
        for tx in [
            vec!["marker", "hiv"],
            vec!["marker", "hiv", "flu"],
            vec!["marker", "hiv"],
            vec!["flu", "cold"],
            vec!["flu", "cold"],
            vec!["flu"],
            vec!["cold"],
            vec!["flu", "cold"],
            vec!["cold", "flu"],
            vec!["flu"],
        ] {
            t.push_row(&[], &tx).unwrap();
        }
        t
    }

    fn setup(t: &RtTable) -> (Hierarchy, ItemId) {
        let h = auto_hierarchy(t.item_pool().unwrap(), AttributeKind::Categorical, 2).unwrap();
        let hiv = ItemId(t.item_pool().unwrap().get("hiv").unwrap());
        (h, hiv)
    }

    fn input<'a>(t: &'a RtTable, h: &'a Hierarchy) -> TransactionInput<'a> {
        TransactionInput::km(t, 1, 1, h)
    }

    #[test]
    fn generalization_breaks_the_marker_rule() {
        let t = table();
        let (h, hiv) = setup(&t);
        let params = RhoParams::new(0.6, vec![hiv]);
        let out = anonymize(&input(&t, &h), &params).unwrap();
        assert!(is_rho_uncertain_published(&t, &out.anon, &params));
        assert!(out.anon.is_truthful(&t, |_| None, Some(&h)));
        // prior of hiv is 0.3 < 0.6, so no suppression was needed —
        // generalization alone must carry the protection
        assert!(out.anon.tx.as_ref().unwrap().suppressed.is_empty());
        // ...and the published data is NOT fully generalized
        let g = transaction_gcp(&t, &out.anon, Some(&h));
        assert!(g < 1.0, "TDControl must keep some specificity: {g}");
    }

    #[test]
    fn sensitive_items_stay_unmerged() {
        let t = table();
        let (h, hiv) = setup(&t);
        let params = RhoParams::new(0.6, vec![hiv]);
        let out = anonymize(&input(&t, &h), &params).unwrap();
        let tx = out.anon.tx.as_ref().unwrap();
        // hiv appears only as the singleton set {hiv}
        for e in &tx.domain {
            match e {
                GenEntry::Set(s) => {
                    assert!(
                        !s.contains(&hiv.0) || s.len() == 1,
                        "sensitive item leaked into a generalized set: {s:?}"
                    );
                }
                GenEntry::Node(_) => panic!("TDControl publishes set entries"),
                GenEntry::Suppressed => {}
            }
        }
    }

    #[test]
    fn violated_priors_force_suppression() {
        let t = table();
        let (h, hiv) = setup(&t);
        // hiv prior is 0.3: demand rho <= 0.3
        let params = RhoParams {
            rho: 0.25,
            sensitive: vec![hiv],
            max_antecedent: 1,
        };
        let out = anonymize(&input(&t, &h), &params).unwrap();
        let tx = out.anon.tx.as_ref().unwrap();
        assert!(tx.suppressed.binary_search(&hiv).is_ok());
        assert!(is_rho_uncertain_published(&t, &out.anon, &params));
    }

    #[test]
    fn lenient_rho_publishes_everything_unchanged() {
        let t = table();
        let (h, hiv) = setup(&t);
        let params = RhoParams::new(1.0, vec![hiv]);
        let out = anonymize(&input(&t, &h), &params).unwrap();
        assert_eq!(transaction_gcp(&t, &out.anon, Some(&h)), 0.0);
    }

    #[test]
    fn stricter_rho_never_reduces_loss() {
        let t = table();
        let (h, hiv) = setup(&t);
        let loss_at = |rho: f64| {
            let params = RhoParams::new(rho, vec![hiv]);
            let out = anonymize(&input(&t, &h), &params).unwrap();
            transaction_gcp(&t, &out.anon, Some(&h))
        };
        let lenient = loss_at(0.95);
        let strict = loss_at(0.5);
        assert!(strict >= lenient - 1e-12, "{strict} < {lenient}");
    }

    #[test]
    fn verifier_rejects_identity_on_violating_data() {
        let t = table();
        let (_, hiv) = setup(&t);
        let identity = AnonTable::identity(&t, &[]);
        let params = RhoParams::new(0.6, vec![hiv]);
        assert!(!is_rho_uncertain_published(&t, &identity, &params));
    }

    #[test]
    fn requires_hierarchy_and_valid_params() {
        let t = table();
        let (h, hiv) = setup(&t);
        let mut i = input(&t, &h);
        i.hierarchy = None;
        assert!(matches!(
            anonymize(&i, &RhoParams::new(0.5, vec![hiv])),
            Err(TxError::BadInput(_))
        ));
        assert!(matches!(
            anonymize(&input(&t, &h), &RhoParams::new(0.0, vec![hiv])),
            Err(TxError::BadInput(_))
        ));
    }

    #[test]
    fn tdcontrol_loses_less_than_suppresscontrol_here() {
        // generalization preserves occurrences that suppression drops
        let t = table();
        let (h, hiv) = setup(&t);
        let params = RhoParams::new(0.6, vec![hiv]);
        let td = anonymize(&input(&t, &h), &params).unwrap();
        let sc = crate::rho::anonymize(&input(&t, &h), &params).unwrap();
        let td_dropped = td.anon.tx.as_ref().unwrap().suppressed.len();
        let sc_dropped = sc.anon.tx.as_ref().unwrap().suppressed.len();
        assert!(
            td_dropped <= sc_dropped,
            "TD {td_dropped} > SC {sc_dropped}"
        );
    }
}
