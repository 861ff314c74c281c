//! TDControl (generalization-based ρ-uncertainty) with naive counting:
//! every prior check and every trial specialization re-mines all
//! sensitive rules from the published tokens of every row.

use secreta_data::hash::{FxHashMap, FxHashSet};
use secreta_data::{ItemId, RtTable};
use secreta_hierarchy::{Cut, NodeId};
use secreta_metrics::anon::AnonTransaction;
use secreta_metrics::{AnonTable, GenEntry, PhaseTimer};
use secreta_transaction::{RhoParams, TransactionInput, TxError, TxOutput};

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

    /// Mine sensitive rules `q → s` (|q| ≤ max_antecedent) over the
    /// published tokens of `rows`; true iff some rule reaches ρ.
    fn has_violation(&self, table: &RtTable, rows: &[usize], params: &RhoParams) -> bool {
        if params.rho >= 1.0 {
            return false;
        }
        let mut sup_q: FxHashMap<Vec<Token>, u32> = FxHashMap::default();
        let mut sup_qs: FxHashMap<(Vec<Token>, u32), u32> = FxHashMap::default();
        let mut toks: Vec<Token> = Vec::new();
        for &r in rows {
            toks.clear();
            toks.extend(
                table
                    .transaction(r)
                    .iter()
                    .filter_map(|&it| self.token_of(it)),
            );
            toks.sort_unstable();
            toks.dedup();
            if toks.is_empty() {
                continue;
            }
            let present_sensitive: Vec<u32> = toks
                .iter()
                .filter_map(|t| match t {
                    Token::Sensitive(s) => Some(*s),
                    Token::Gen(_) => None,
                })
                .collect();
            for size in 0..=params.max_antecedent.min(toks.len()) {
                subsets(&toks, size, &mut |q| {
                    *sup_q.entry(q.to_vec()).or_insert(0) += 1;
                    for &s in &present_sensitive {
                        if !q.contains(&Token::Sensitive(s)) {
                            *sup_qs.entry((q.to_vec(), s)).or_insert(0) += 1;
                        }
                    }
                });
            }
        }
        sup_qs.iter().any(|((q, _), &qs)| {
            let q_sup = *sup_q.get(q).expect("antecedent counted");
            qs as f64 / q_sup as f64 >= params.rho
        })
    }
}

fn subsets(items: &[Token], size: usize, f: &mut impl FnMut(&[Token])) {
    fn rec(
        items: &[Token],
        size: usize,
        start: usize,
        cur: &mut Vec<Token>,
        f: &mut impl FnMut(&[Token]),
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
    timer.phase("setup");

    // Priors first: a sensitive item violating at the fully general
    // cut can only be rescued by suppressing it (or, transitively,
    // other sensitive items feeding its rules).
    while state.has_violation(input.table, &rows, params) {
        // suppress the most exposed sensitive item (highest prior)
        let victim = params
            .sensitive
            .iter()
            .filter(|s| !state.suppressed[s.index()])
            .max_by_key(|s| {
                rows.iter()
                    .filter(|&&r| input.table.transaction(r).binary_search(s).is_ok())
                    .count()
            });
        match victim {
            Some(s) => state.suppressed[s.index()] = true,
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
    timer.phase("prior control");

    // Top-down specialization: keep splitting while some split leaves
    // the rules below rho. Candidates are ordered by how much
    // information the split recovers (leaf count first).
    loop {
        let mut cands = state.cut.specialization_candidates(h);
        cands.sort_by_key(|&n| std::cmp::Reverse(h.leaf_count(n)));
        let mut accepted = false;
        for cand in cands {
            // skip nodes that only cover sensitive/suppressed leaves —
            // splitting them changes nothing
            let affected = h
                .leaves_under(cand)
                .any(|v| !state.sensitive.contains(&v) && !state.suppressed[v as usize]);
            if !affected {
                continue;
            }
            state.cut.specialize(h, cand);
            if state.has_violation(input.table, &rows, params) {
                // revert: re-generalize the whole subtree
                state.cut.generalize_to(h, cand);
            } else {
                accepted = true;
            }
        }
        if !accepted {
            break;
        }
    }
    timer.phase("top-down specialization");

    // publish: sensitive → singleton sets; non-sensitive → the cut
    // node's leaf set *minus sensitive items*
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
