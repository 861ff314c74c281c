//! Apriori anonymization (AA) — k^m-anonymity by global full-subtree
//! generalization (Terrovitis, Mamoulis, Kalnis — VLDB Journal 2011).
//!
//! A published database is **k^m-anonymous** when every itemset of
//! size at most `m` that appears in some published transaction appears
//! in at least `k` of them. AA exploits the apriori principle: it
//! fixes violations of size `i = 1..m` in order, since an `i`-sized
//! violation implies violations among its subsets would already have
//! been handled. Violations are repaired by *full-subtree global
//! recoding* over the item hierarchy: replacing an item node (and all
//! its siblings under the chosen parent) by that parent everywhere.
//!
//! The repair choice is greedy: the node participating in the most
//! outstanding violations is generalized one level, breaking ties
//! toward the smaller NCP increase — the "most promising cut move"
//! heuristic of the original.

use crate::common::{TransactionInput, TxError, TxOutput};
use crate::support::{InvertedIndex, KernelStats, RowSupport};
use secreta_data::hash::FxHashMap;
use secreta_data::ItemId;
use secreta_hierarchy::{Cut, Hierarchy, NodeId};
use secreta_metrics::anon::AnonTransaction;
use secreta_metrics::{AnonTable, GenEntry, PhaseTimer};

/// Internal state of an AA run over a row subset.
pub(crate) struct AaState {
    /// The full-subtree cut over the item hierarchy.
    pub cut: Cut,
    /// Leaves suppressed because no in-ceiling generalization could
    /// repair their violations (only reachable with a ceiling, i.e.
    /// under VPA).
    pub suppressed: Vec<bool>,
}

impl AaState {
    /// Published generalized node of item `it`, `None` if suppressed.
    pub fn map(&self, it: ItemId) -> Option<NodeId> {
        if self.suppressed[it.index()] {
            None
        } else {
            Some(self.cut.node_of(it.0))
        }
    }
}

/// The repair chosen from one round's involvement map.
enum Repair {
    /// Generalize the cut to this (allowed) parent node.
    Generalize(NodeId),
    /// No allowed parent exists: suppress this node's leaves.
    Suppress(NodeId),
}

/// Pick the repair move from a round's involvement map: the node with
/// the most outstanding violation mass is generalized one level,
/// breaking ties by smaller parent NCP, then smaller parent id.
///
/// The comparison is a strict total order — involvement descending,
/// then `f64::total_cmp` on NCP ascending, then `NodeId` ascending —
/// so the choice is independent of map iteration order and exactly
/// reproducible across platforms (the former epsilon tie-break could
/// flip on sub-1e-15 NCP differences depending on visit order).
fn select_repair(
    h: &Hierarchy,
    allowed: &impl Fn(NodeId) -> bool,
    involvement: &FxHashMap<NodeId, u64>,
) -> Repair {
    let mut best: Option<(NodeId, u64, f64)> = None; // (parent, involvement, ncp)
    for (&node, &inv) in involvement {
        let Some(parent) = h.parent(node) else {
            continue;
        };
        if !allowed(parent) {
            continue;
        }
        let ncp = h.ncp(parent);
        let better = match best {
            None => true,
            Some((bp, binv, bncp)) => {
                inv > binv
                    || (inv == binv
                        && match ncp.total_cmp(&bncp) {
                            std::cmp::Ordering::Less => true,
                            std::cmp::Ordering::Equal => parent < bp,
                            std::cmp::Ordering::Greater => false,
                        })
            }
        };
        if better {
            best = Some((parent, inv, ncp));
        }
    }
    match best {
        Some((parent, _, _)) => Repair::Generalize(parent),
        None => {
            // ceiling reached everywhere (VPA): suppress the
            // most-involved node's leaves
            let (&node, _) = involvement
                .iter()
                .max_by_key(|&(&n, &inv)| (inv, std::cmp::Reverse(n)))
                .expect("violations imply involvement");
            Repair::Suppress(node)
        }
    }
}

/// Work counters of one `anonymize_rows` call, flushed once at exit.
#[derive(Default)]
struct AaCounters {
    rounds: u64,
    violations: u64,
    generalizations: u64,
    suppressions: u64,
}

/// Core AA loop over the rows in `rows`, with an optional ceiling:
/// only nodes satisfying `allowed` may enter the cut (VPA confines
/// recoding to a vertical part; `|_| true` for plain AA, where the
/// root is always allowed and suppression never triggers).
#[allow(clippy::too_many_arguments)]
pub(crate) fn anonymize_rows(
    table: &secreta_data::RtTable,
    rows: &[usize],
    k: usize,
    m: usize,
    h: &Hierarchy,
    allowed: impl Fn(NodeId) -> bool,
    relevant: impl Fn(ItemId) -> bool + Sync,
    allow_suppression: bool,
) -> Result<AaState, TxError> {
    let non_empty = rows
        .iter()
        .filter(|&&r| table.transaction(r).iter().any(|&it| relevant(it)))
        .count();
    if !allow_suppression && non_empty > 0 && non_empty < k {
        return Err(TxError::Infeasible { k, non_empty });
    }

    let mut state = AaState {
        cut: Cut::leaves(h),
        suppressed: vec![false; h.n_leaves()],
    };
    let m = m.max(1);

    let recorder = secreta_obsv::current();
    let mut c = AaCounters::default();

    let index = InvertedIndex::build(table, rows, h.n_leaves(), &relevant);
    let mut stats = KernelStats::default();
    stats.record_index(&index);
    for i in 1..=m {
        aa_level(
            table, rows, k, i, h, &allowed, &relevant, &index, &mut state, &mut c, &mut stats,
        );
    }
    stats.flush(&recorder);

    recorder.count("apriori/support_rounds", c.rounds);
    recorder.count("apriori/violations", c.violations);
    recorder.count("apriori/generalizations", c.generalizations);
    recorder.count("apriori/suppressions", c.suppressions);
    Ok(state)
}

/// Apply `repair` to `state`, updating counters. Returns the node
/// whose subtree changed (the generalization target or suppressed
/// node).
fn apply_repair(h: &Hierarchy, state: &mut AaState, repair: Repair, c: &mut AaCounters) -> NodeId {
    match repair {
        Repair::Generalize(parent) => {
            c.generalizations += 1;
            state.cut.generalize_to(h, parent);
            parent
        }
        Repair::Suppress(node) => {
            for v in h.leaves_under(node) {
                c.suppressions += 1;
                state.suppressed[v as usize] = true;
            }
            node
        }
    }
}

/// One `i`-level of the AA loop: the level's subset supports are built
/// once (sharded across threads), then each repair re-enumerates only
/// the rows containing a leaf whose published node changed — found
/// through the inverted index.
#[allow(clippy::too_many_arguments)]
fn aa_level(
    table: &secreta_data::RtTable,
    rows: &[usize],
    k: usize,
    i: usize,
    h: &Hierarchy,
    allowed: &impl Fn(NodeId) -> bool,
    relevant: &(impl Fn(ItemId) -> bool + Sync),
    index: &InvertedIndex,
    state: &mut AaState,
    c: &mut AaCounters,
    stats: &mut KernelStats,
) {
    // the published token list of the row at position `pos`
    let fill_row = |st: &AaState, pos: usize, buf: &mut Vec<u32>| {
        for &it in table.transaction(rows[pos]) {
            if relevant(it) && !st.suppressed[it.index()] {
                buf.push(st.cut.node_of(it.0).0);
            }
        }
        buf.sort_unstable();
        buf.dedup();
    };
    let mut rs = RowSupport::build(rows.len(), i, |pos, buf| fill_row(state, pos, buf));
    let mut dirty: Vec<u32> = Vec::new();
    loop {
        c.rounds += 1;
        let mut involvement: FxHashMap<NodeId, u64> = FxHashMap::default();
        let mut any = false;
        for (subset, count) in rs.map.iter() {
            // zero-count keys are stale leftovers of earlier rounds
            if count > 0 && (count as usize) < k {
                any = true;
                c.violations += 1;
                for &v in subset {
                    *involvement.entry(NodeId(v)).or_insert(0) += (k as u64) - count as u64;
                }
            }
        }
        if !any {
            break;
        }

        let repair = select_repair(h, allowed, &involvement);
        let changed = apply_repair(h, state, repair, c);
        // every row containing a leaf under the changed node must be
        // re-enumerated; all others keep their counts
        index.union_into(h.leaves_under(changed), &mut dirty);
        rs.stats.posting_unions += 1;
        rs.update(&dirty, |pos, buf| fill_row(state, pos, buf));
    }
    stats.absorb(&rs.stats);
}

/// Run plain AA on `input` (global recoding, all rows).
pub fn anonymize(input: &TransactionInput) -> Result<TxOutput, TxError> {
    input.validate()?;
    let h = input
        .hierarchy
        .ok_or_else(|| TxError::BadInput("Apriori requires an item hierarchy".into()))?;
    let mut timer = PhaseTimer::new();
    let rows: Vec<usize> = (0..input.table.n_rows()).collect();
    timer.phase("setup");

    let state = anonymize_rows(
        input.table,
        &rows,
        input.k,
        input.m,
        h,
        |_| true,
        |_| true,
        false,
    )?;
    timer.phase("apriori recoding");

    let anon = build_anon(input.table, h, |_, it| state.map(it));
    timer.phase("publish");

    Ok(TxOutput {
        anon,
        phases: timer.finish(),
    })
}

/// Assemble an [`AnonTable`] from a row-aware item → node mapping.
pub(crate) fn build_anon(
    table: &secreta_data::RtTable,
    _h: &Hierarchy,
    map: impl Fn(usize, ItemId) -> Option<NodeId>,
) -> AnonTable {
    // collect the distinct published nodes into a generalized domain
    let mut index: FxHashMap<NodeId, u32> = FxHashMap::default();
    let mut domain: Vec<GenEntry> = Vec::new();
    for row in 0..table.n_rows() {
        for &it in table.transaction(row) {
            if let Some(n) = map(row, it) {
                let next = domain.len() as u32;
                let id = *index.entry(n).or_insert(next);
                if id as usize == domain.len() {
                    domain.push(GenEntry::Node(n));
                }
            }
        }
    }
    let tx =
        AnonTransaction::from_row_mapping(table, domain, |row, it| map(row, it).map(|n| index[&n]));
    AnonTable {
        rel: Vec::new(),
        tx: Some(tx),
        n_rows: table.n_rows(),
    }
}

/// Invoke `f` on every `i`-sized subset of `items` (which is sorted
/// and duplicate-free); the tests' subset enumerator.
#[cfg(test)]
pub(crate) fn for_each_subset(items: &[NodeId], i: usize, f: &mut impl FnMut(&[NodeId])) {
    fn rec(
        items: &[NodeId],
        i: usize,
        start: usize,
        cur: &mut Vec<NodeId>,
        f: &mut impl FnMut(&[NodeId]),
    ) {
        if cur.len() == i {
            f(cur);
            return;
        }
        let need = i - cur.len();
        // prune: not enough items left
        for idx in start..=items.len().saturating_sub(need) {
            cur.push(items[idx]);
            rec(items, i, idx + 1, cur, f);
            cur.pop();
        }
    }
    if i == 0 || i > items.len() {
        return;
    }
    let mut cur = Vec::with_capacity(i);
    rec(items, i, 0, &mut cur, f);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::is_km_anonymous;
    use secreta_data::{Attribute, AttributeKind, RtTable, Schema};
    use secreta_hierarchy::auto_hierarchy;
    use secreta_metrics::transaction_gcp;

    fn table() -> RtTable {
        let schema = Schema::new(vec![Attribute::transaction("Items")]).unwrap();
        let mut t = RtTable::new(schema);
        for tx in [
            vec!["a", "b"],
            vec!["a", "b"],
            vec!["a", "c"],
            vec!["b", "c"],
            vec!["a", "b", "c"],
            vec!["d"],
            vec!["a", "d"],
            vec!["b", "d"],
        ] {
            t.push_row(&[], &tx).unwrap();
        }
        t
    }

    fn hierarchy(t: &RtTable) -> Hierarchy {
        auto_hierarchy(t.item_pool().unwrap(), AttributeKind::Categorical, 2).unwrap()
    }

    #[test]
    fn output_is_km_anonymous_for_various_k_m() {
        let t = table();
        let h = hierarchy(&t);
        for k in [2, 3, 4] {
            for m in [1, 2, 3] {
                let out = anonymize(&TransactionInput::km(&t, k, m, &h)).unwrap();
                assert!(is_km_anonymous(&out.anon, k, m, Some(&h)), "k={k} m={m}");
                assert!(out.anon.is_truthful(&t, |_| None, Some(&h)));
                assert!(out.anon.is_complete(&t, Some(&h)));
            }
        }
    }

    #[test]
    fn k1_keeps_original_items() {
        let t = table();
        let h = hierarchy(&t);
        let out = anonymize(&TransactionInput::km(&t, 1, 2, &h)).unwrap();
        assert_eq!(transaction_gcp(&t, &out.anon, Some(&h)), 0.0);
    }

    #[test]
    fn loss_monotone_in_k_and_m() {
        let t = table();
        let h = hierarchy(&t);
        let loss = |k, m| {
            let out = anonymize(&TransactionInput::km(&t, k, m, &h)).unwrap();
            transaction_gcp(&t, &out.anon, Some(&h))
        };
        assert!(loss(2, 1) <= loss(4, 1) + 1e-12);
        assert!(loss(2, 1) <= loss(2, 2) + 1e-12);
        assert!(loss(2, 2) <= loss(4, 3) + 1e-12);
    }

    #[test]
    fn never_suppresses_without_ceiling() {
        let t = table();
        let h = hierarchy(&t);
        let out = anonymize(&TransactionInput::km(&t, 4, 3, &h)).unwrap();
        assert!(out.anon.tx.as_ref().unwrap().suppressed.is_empty());
    }

    #[test]
    fn infeasible_when_fewer_nonempty_than_k() {
        let schema = Schema::new(vec![Attribute::transaction("Items")]).unwrap();
        let mut t = RtTable::new(schema);
        t.push_row(&[], &["a"]).unwrap();
        t.push_row(&[], &["b"]).unwrap();
        t.push_row(&[], &[]).unwrap();
        let h = hierarchy(&t);
        assert!(matches!(
            anonymize(&TransactionInput::km(&t, 3, 1, &h)),
            Err(TxError::Infeasible { .. })
        ));
    }

    #[test]
    fn empty_dataset_is_fine() {
        let schema = Schema::new(vec![Attribute::transaction("Items")]).unwrap();
        let mut t = RtTable::new(schema);
        t.push_row(&[], &[]).unwrap();
        t.push_row(&[], &[]).unwrap();
        // universe empty: nothing to anonymize; hierarchy cannot be
        // built over an empty pool, so skip AA entirely — the
        // framework never routes such datasets here. Assert the
        // feasibility helper instead.
        assert_eq!(t.item_universe(), 0);
    }

    #[test]
    fn subsets_enumerated_correctly() {
        let items: Vec<NodeId> = (0..4).map(NodeId).collect();
        let mut count = 0;
        for_each_subset(&items, 2, &mut |s| {
            assert_eq!(s.len(), 2);
            assert!(s[0] < s[1]);
            count += 1;
        });
        assert_eq!(count, 6);
        let mut count3 = 0;
        for_each_subset(&items, 3, &mut |_| count3 += 1);
        assert_eq!(count3, 4);
        let mut none = 0;
        for_each_subset(&items, 5, &mut |_| none += 1);
        assert_eq!(none, 0);
        for_each_subset(&items, 0, &mut |_| none += 1);
        assert_eq!(none, 0);
    }

    #[test]
    fn phases_recorded() {
        let t = table();
        let h = hierarchy(&t);
        let out = anonymize(&TransactionInput::km(&t, 2, 2, &h)).unwrap();
        assert!(out.phases.get("apriori recoding").is_some());
    }

    #[test]
    fn skewed_singleton_items_generalize() {
        // one rare item must merge with a sibling to reach support k
        let schema = Schema::new(vec![Attribute::transaction("Items")]).unwrap();
        let mut t = RtTable::new(schema);
        for _ in 0..5 {
            t.push_row(&[], &["common"]).unwrap();
        }
        t.push_row(&[], &["rare"]).unwrap();
        let h = hierarchy(&t);
        let out = anonymize(&TransactionInput::km(&t, 2, 1, &h)).unwrap();
        assert!(is_km_anonymous(&out.anon, 2, 1, Some(&h)));
        // the rare item cannot be published as itself
        let tx = out.anon.tx.as_ref().unwrap();
        let rare_leaf = h.leaf(t.item_pool().unwrap().get("rare").unwrap());
        for e in &tx.domain {
            if let GenEntry::Node(n) = e {
                assert_ne!(*n, rare_leaf, "rare leaf must be generalized");
            }
        }
    }
}
