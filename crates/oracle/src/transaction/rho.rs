//! SuppressControl (ρ-uncertainty) with naive counting: every round
//! re-mines all sensitive rules from the live items of every row.

use secreta_data::hash::{FxHashMap, FxHashSet};
use secreta_data::{stats::item_supports, RtTable};
use secreta_metrics::anon::AnonTransaction;
use secreta_metrics::{AnonTable, GenEntry, PhaseTimer};
use secreta_transaction::{RhoParams, TransactionInput, TxError, TxOutput};

/// A violating sensitive association rule found during mining.
struct Violation {
    antecedent: Vec<u32>,
    sensitive: u32,
}

/// Mine violating rules `q → s` with `|q| <= max_antecedent` from the
/// rows' live (non-suppressed) items.
fn violations(
    table: &RtTable,
    rows: &[usize],
    suppressed: &[bool],
    params: &RhoParams,
) -> Vec<Violation> {
    let sensitive: FxHashSet<u32> = params
        .sensitive
        .iter()
        .filter(|s| !suppressed[s.index()])
        .map(|s| s.0)
        .collect();
    if sensitive.is_empty() || params.rho >= 1.0 {
        return Vec::new();
    }

    // count antecedent supports and antecedent∪{s} supports in one pass
    let mut sup_q: FxHashMap<Vec<u32>, u32> = FxHashMap::default();
    let mut sup_qs: FxHashMap<(Vec<u32>, u32), u32> = FxHashMap::default();
    let mut live: Vec<u32> = Vec::new();
    for &r in rows {
        live.clear();
        live.extend(
            table
                .transaction(r)
                .iter()
                .filter(|it| !suppressed[it.index()])
                .map(|it| it.0),
        );
        if live.is_empty() {
            continue;
        }
        let present_sensitive: Vec<u32> = live
            .iter()
            .copied()
            .filter(|v| sensitive.contains(v))
            .collect();
        // enumerate antecedents of size 0..=max_antecedent over live
        // items (the empty antecedent models prior disclosure)
        for size in 0..=params.max_antecedent.min(live.len()) {
            enumerate_subsets(&live, size, &mut |q| {
                *sup_q.entry(q.to_vec()).or_insert(0) += 1;
                for &s in &present_sensitive {
                    if !q.contains(&s) {
                        *sup_qs.entry((q.to_vec(), s)).or_insert(0) += 1;
                    }
                }
            });
        }
    }

    let mut out = Vec::new();
    for ((q, s), &qs) in &sup_qs {
        let q_sup = *sup_q.get(q).expect("antecedent counted");
        let confidence = qs as f64 / q_sup as f64;
        if confidence >= params.rho {
            out.push(Violation {
                antecedent: q.clone(),
                sensitive: *s,
            });
        }
    }
    out
}

fn enumerate_subsets(items: &[u32], size: usize, f: &mut impl FnMut(&[u32])) {
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

/// Pick the suppression victim from a round's kill counts: the item
/// killing the most violations per unit of lost occurrences, ties
/// toward the smaller item id.
fn select_victim(kill_count: &FxHashMap<u32, usize>, base_supports: &[u64]) -> u32 {
    let (&victim, _) = kill_count
        .iter()
        .max_by(|(&a, &ka), (&b, &kb)| {
            let la = (base_supports[a as usize] as f64).max(1.0);
            let lb = (base_supports[b as usize] as f64).max(1.0);
            (ka as f64 / la)
                .partial_cmp(&(kb as f64 / lb))
                .expect("finite scores")
                // deterministic tie-break
                .then(b.cmp(&a))
        })
        .expect("violations imply candidates");
    victim
}

/// Run SuppressControl on `input` with `params`. `input.k`/`input.m`
/// are unused.
pub fn anonymize(input: &TransactionInput, params: &RhoParams) -> Result<TxOutput, TxError> {
    input.validate()?;
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
    // empty transactions carry no rules: filter them once per run
    let rows = input.non_empty_rows();
    let mut suppressed = vec![false; universe];
    let base_supports = item_supports(input.table);
    timer.phase("setup");

    loop {
        let viols = violations(input.table, &rows, &suppressed, params);
        if viols.is_empty() {
            break;
        }
        let mut kill_count: FxHashMap<u32, usize> = FxHashMap::default();
        for v in &viols {
            for &q in &v.antecedent {
                *kill_count.entry(q).or_insert(0) += 1;
            }
            *kill_count.entry(v.sensitive).or_insert(0) += 1;
        }
        let victim = select_victim(&kill_count, &base_supports);
        suppressed[victim as usize] = true;
    }
    timer.phase("suppress-control");

    let domain: Vec<GenEntry> = (0..universe as u32)
        .map(|v| GenEntry::Set(vec![v]))
        .collect();
    let tx = AnonTransaction::from_mapping(input.table, domain, |it| {
        if suppressed[it.index()] {
            None
        } else {
            Some(it.0)
        }
    });
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
