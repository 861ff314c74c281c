//! Apriori anonymization (AA) with naive counting: every repair round
//! re-enumerates every row's `i`-subsets into a `Vec`-keyed map. The
//! core loop is shared with the LRA and VPA oracles.

use secreta_data::hash::FxHashMap;
use secreta_data::{ItemId, RtTable};
use secreta_hierarchy::{Cut, Hierarchy, NodeId};
use secreta_metrics::anon::AnonTransaction;
use secreta_metrics::{AnonTable, GenEntry, PhaseTimer};
use secreta_transaction::{TransactionInput, TxError, TxOutput};

/// State of an AA run over a row subset.
pub(crate) struct AaState {
    /// The full-subtree cut over the item hierarchy.
    cut: Cut,
    /// Leaves suppressed because no in-ceiling generalization could
    /// repair their violations (only reachable with a ceiling, i.e.
    /// under VPA).
    suppressed: Vec<bool>,
}

impl AaState {
    /// Published generalized node of item `it`, `None` if suppressed.
    pub(crate) fn map(&self, it: ItemId) -> Option<NodeId> {
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
/// breaking ties by smaller parent NCP, then smaller parent id — a
/// strict total order, independent of map iteration order.
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

/// Apply `repair` to `state`.
fn apply_repair(h: &Hierarchy, state: &mut AaState, repair: Repair) {
    match repair {
        Repair::Generalize(parent) => state.cut.generalize_to(h, parent),
        Repair::Suppress(node) => {
            for v in h.leaves_under(node) {
                state.suppressed[v as usize] = true;
            }
        }
    }
}

/// Core AA loop over the rows in `rows`, with an optional ceiling:
/// only nodes satisfying `allowed` may enter the cut (VPA confines
/// recoding to a vertical part; `|_| true` for plain AA, where the
/// root is always allowed and suppression never triggers).
#[allow(clippy::too_many_arguments)]
pub(crate) fn anonymize_rows(
    table: &RtTable,
    rows: &[usize],
    k: usize,
    m: usize,
    h: &Hierarchy,
    allowed: impl Fn(NodeId) -> bool,
    relevant: impl Fn(ItemId) -> bool,
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
    for i in 1..=m.max(1) {
        aa_level(table, rows, k, i, h, &allowed, &relevant, &mut state);
    }
    Ok(state)
}

/// One `i`-level of the AA loop: recount every `i`-subset of every
/// published row, repair, repeat until no violation is left.
#[allow(clippy::too_many_arguments)]
fn aa_level(
    table: &RtTable,
    rows: &[usize],
    k: usize,
    i: usize,
    h: &Hierarchy,
    allowed: &impl Fn(NodeId) -> bool,
    relevant: &impl Fn(ItemId) -> bool,
    state: &mut AaState,
) {
    loop {
        // published transactions: distinct, sorted live cut nodes
        let mut sup: FxHashMap<Vec<NodeId>, u32> = FxHashMap::default();
        let mut nodes_buf: Vec<NodeId> = Vec::new();
        for &r in rows {
            nodes_buf.clear();
            for &it in table.transaction(r) {
                if relevant(it) && !state.suppressed[it.index()] {
                    nodes_buf.push(state.cut.node_of(it.0));
                }
            }
            nodes_buf.sort_unstable();
            nodes_buf.dedup();
            if nodes_buf.len() < i {
                continue;
            }
            for_each_subset(&nodes_buf, i, &mut |subset| {
                *sup.entry(subset.to_vec()).or_insert(0) += 1;
            });
        }

        // violations: support strictly below k
        let mut involvement: FxHashMap<NodeId, u64> = FxHashMap::default();
        let mut any = false;
        for (subset, &count) in &sup {
            if (count as usize) < k {
                any = true;
                for &n in subset {
                    *involvement.entry(n).or_insert(0) += (k as u64) - count as u64;
                }
            }
        }
        if !any {
            break;
        }

        let repair = select_repair(h, allowed, &involvement);
        apply_repair(h, state, repair);
    }
}

/// Invoke `f` on every `i`-sized subset of `items` (which is sorted
/// and duplicate-free).
fn for_each_subset(items: &[NodeId], i: usize, f: &mut impl FnMut(&[NodeId])) {
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

    let anon = build_anon(input.table, |_, it| state.map(it));
    timer.phase("publish");

    Ok(TxOutput {
        anon,
        phases: timer.finish(),
    })
}

/// Assemble an [`AnonTable`] from a row-aware item → node mapping.
pub(crate) fn build_anon(
    table: &RtTable,
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
