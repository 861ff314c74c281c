//! The RT anonymization pipeline: relational partitioning → bounded
//! cluster merging → per-cluster transaction anonymization.

use crate::merge::{merge_clusters, BoundingMethod, ClusterSummary};
use secreta_data::hash::FxHashMap;
use secreta_data::RtTable;
use secreta_hierarchy::Hierarchy;
use secreta_metrics::anon::{AnonTransaction, RelColumn};
use secreta_metrics::{AnonTable, GenEntry, PhaseTimer, PhaseTimes};
use secreta_policy::{PrivacyPolicy, UtilityPolicy};
use secreta_relational::{RelError, RelationalAlgorithm, RelationalInput};
use secreta_transaction::{anonymize_scoped, ClusterTx, TransactionAlgorithm, TxError};
use std::fmt;

/// Errors raised by RT anonymization.
#[derive(Debug, PartialEq, Eq)]
pub enum RtError {
    /// The relational stage failed.
    Rel(RelError),
    /// The transaction stage failed even after exhausting merges.
    Tx(TxError),
    /// Structural problem with the RT input itself.
    BadInput(String),
}

impl fmt::Display for RtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtError::Rel(e) => write!(f, "relational stage: {e}"),
            RtError::Tx(e) => write!(f, "transaction stage: {e}"),
            RtError::BadInput(msg) => write!(f, "bad input: {msg}"),
        }
    }
}

impl std::error::Error for RtError {}

impl From<RelError> for RtError {
    fn from(e: RelError) -> Self {
        RtError::Rel(e)
    }
}

/// Input to the RT pipeline.
pub struct RtInput<'a> {
    /// The RT-dataset.
    pub table: &'a RtTable,
    /// Quasi-identifier relational attributes.
    pub qi_attrs: Vec<usize>,
    /// Hierarchies parallel to `qi_attrs`.
    pub hierarchies: Vec<Hierarchy>,
    /// Item hierarchy (required when `tx_algo` is hierarchy-based).
    pub item_hierarchy: Option<&'a Hierarchy>,
    /// Protection level for both parts.
    pub k: usize,
    /// Adversary item knowledge for the k^m transaction algorithms.
    pub m: usize,
    /// Merge budget δ: at most this many relational clusters may fuse
    /// into one super-cluster (1 = no merging). Larger δ trades
    /// relational utility for transaction utility.
    pub delta: usize,
    /// Relational algorithm forming the initial partition.
    pub rel_algo: RelationalAlgorithm,
    /// Transaction algorithm run inside each super-cluster.
    pub tx_algo: TransactionAlgorithm,
    /// Bounding method selecting merge partners.
    pub bounding: BoundingMethod,
    /// Privacy policy for COAT/PCTA.
    pub privacy: Option<&'a PrivacyPolicy>,
    /// Utility policy for COAT/PCTA.
    pub utility: Option<&'a UtilityPolicy>,
    /// Seed for the randomized relational Cluster algorithm.
    pub seed: u64,
}

/// Result of an RT run.
#[derive(Debug, Clone)]
pub struct RtOutput {
    /// The published table: generalized relational columns *and*
    /// generalized transaction attribute.
    pub anon: AnonTable,
    /// Per-phase timings (the Figure 3(b) data).
    pub phases: PhaseTimes,
}

/// Run the full RT pipeline.
pub fn anonymize(input: &RtInput) -> Result<RtOutput, RtError> {
    if input.table.schema().transaction_index().is_none() {
        return Err(RtError::BadInput(
            "RT anonymization needs a transaction attribute".into(),
        ));
    }
    let mut timer = PhaseTimer::new();
    let recorder = secreta_obsv::current();

    // 1. relational partition
    let rel_input = RelationalInput {
        table: input.table,
        qi_attrs: input.qi_attrs.clone(),
        hierarchies: input.hierarchies.clone(),
        k: input.k,
    };
    let rel_out = input.rel_algo.run(&rel_input, input.seed)?;
    let classes = rel_out.anon.equivalence_classes();
    let mut cluster_rows: Vec<Vec<usize>> = vec![Vec::new(); classes.sizes.len()];
    for (row, &c) in classes.row_class.iter().enumerate() {
        cluster_rows[c as usize].push(row);
    }
    // splice the sub-run's phases in here, while "relational
    // partitioning" is still the in-flight phase, so they keep
    // execution order (absorbing via PhaseTimes after finish() used to
    // drop them after "publish")
    timer.absorb(input.rel_algo.name(), rel_out.phases);
    timer.phase("relational partitioning");

    // 2. bounded merging
    let summaries: Vec<ClusterSummary> = cluster_rows
        .into_iter()
        .map(|rows| ClusterSummary::new(input.table, rows, &input.qi_attrs, &input.hierarchies))
        .collect();
    let n_initial = summaries.len();
    let mut clusters = merge_clusters(summaries, input.bounding, &input.hierarchies, input.delta);
    recorder.count("rt/clusters", n_initial as u64);
    recorder.count("rt/merges", (n_initial - clusters.len()) as u64);
    timer.phase("cluster merging");

    // 3. per-cluster transaction anonymization, with feasibility
    // repair: an infeasible cluster (too few non-empty transactions)
    // fuses with its nearest neighbour and retries
    let mut results: Vec<ClusterTx> = Vec::with_capacity(clusters.len());
    let mut repairs = 0u64;
    let mut idx = 0;
    while idx < clusters.len() {
        let scoped = anonymize_scoped(
            input.tx_algo,
            input.table,
            &clusters[idx].rows,
            input.k,
            input.m,
            input.item_hierarchy,
            input.privacy,
            input.utility,
        );
        match scoped {
            Ok(ct) => {
                results.push(ct);
                idx += 1;
            }
            Err(TxError::Infeasible { .. }) if clusters.len() > 1 => {
                // fuse with the nearest other cluster and retry
                repairs += 1;
                let mut best: Option<(usize, f64)> = None;
                for (j, cand) in clusters.iter().enumerate() {
                    if j == idx {
                        continue;
                    }
                    let d = clusters[idx].distance(cand, input.bounding, &input.hierarchies);
                    if best.is_none_or(|(_, bd)| d < bd) {
                        best = Some((j, d));
                    }
                }
                let (j, _) = best.expect("len > 1 guarantees a partner");
                let absorbed = clusters.remove(j);
                let tgt = if j < idx { idx - 1 } else { idx };
                clusters[tgt].absorb(absorbed, &input.hierarchies);
                // a fused earlier cluster's result is stale; only
                // earlier indices can be affected when j < idx
                if j < idx {
                    results.remove(j);
                    idx = tgt;
                }
            }
            Err(e) => return Err(RtError::Tx(e)),
        }
    }
    recorder.count("rt/feasibility_repairs", repairs);
    timer.phase("transaction anonymization");

    // 4. publish
    let rel = publish_rel(input, &clusters);
    let tx = publish_tx(input.table, &clusters, &results);
    let anon = AnonTable {
        rel,
        tx: Some(tx),
        n_rows: input.table.n_rows(),
    };
    timer.phase("publish");

    Ok(RtOutput {
        anon,
        phases: timer.finish(),
    })
}

/// Per-super-cluster LCA recoding of the QI attributes.
fn publish_rel(input: &RtInput, clusters: &[ClusterSummary]) -> Vec<RelColumn> {
    let n = input.table.n_rows();
    input
        .qi_attrs
        .iter()
        .enumerate()
        .map(|(pos, &attr)| {
            let mut domain: Vec<GenEntry> = Vec::new();
            let mut index: FxHashMap<GenEntry, u32> = FxHashMap::default();
            let mut cells = vec![0u32; n];
            for c in clusters {
                let entry = GenEntry::Node(c.lcas[pos]);
                let next = domain.len() as u32;
                let id = *index.entry(entry.clone()).or_insert(next);
                if id as usize == domain.len() {
                    domain.push(entry);
                }
                for &row in &c.rows {
                    cells[row] = id;
                }
            }
            RelColumn {
                attr,
                domain,
                cells,
            }
        })
        .collect()
}

/// Assemble the published transaction attribute from the per-cluster
/// recodings.
fn publish_tx(
    table: &RtTable,
    clusters: &[ClusterSummary],
    results: &[ClusterTx],
) -> AnonTransaction {
    let n = table.n_rows();
    let mut domain: Vec<GenEntry> = Vec::new();
    let mut index: FxHashMap<GenEntry, u32> = FxHashMap::default();
    let mut per_row: Vec<Vec<(u32, u16)>> = vec![Vec::new(); n];
    let mut covered = vec![false; table.item_universe()];

    for (c, ct) in clusters.iter().zip(results) {
        debug_assert_eq!(c.rows, ct.rows);
        for (pos, &row) in c.rows.iter().enumerate() {
            let mut counts: FxHashMap<u32, u16> = FxHashMap::default();
            for &it in table.transaction(row) {
                if let Some(entry) = ct.entry(pos, it) {
                    covered[it.index()] = true;
                    let next = domain.len() as u32;
                    let id = *index.entry(entry.clone()).or_insert(next);
                    if id as usize == domain.len() {
                        domain.push(entry);
                    }
                    *counts.entry(id).or_insert(0) += 1;
                }
            }
            let mut items: Vec<(u32, u16)> = counts.into_iter().collect();
            items.sort_unstable_by_key(|&(g, _)| g);
            per_row[row] = items;
        }
    }

    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0u32);
    let mut items = Vec::new();
    let mut multiplicity = Vec::new();
    for row_items in &per_row {
        for &(g, c) in row_items {
            items.push(g);
            multiplicity.push(c);
        }
        offsets.push(items.len() as u32);
    }

    // dataset-wide suppressed = occurs in the data, never published
    let mut present = vec![false; table.item_universe()];
    for row in 0..n {
        for &it in table.transaction(row) {
            present[it.index()] = true;
        }
    }
    let suppressed = (0..table.item_universe())
        .filter(|&i| present[i] && !covered[i])
        .map(|i| secreta_data::ItemId(i as u32))
        .collect();

    AnonTransaction {
        domain,
        offsets,
        items,
        multiplicity,
        suppressed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::is_k_km_anonymous;
    use secreta_data::{Attribute, AttributeKind, Schema};
    use secreta_hierarchy::auto_hierarchy;

    fn table() -> RtTable {
        let schema = Schema::new(vec![
            Attribute::numeric("Age"),
            Attribute::transaction("Items"),
        ])
        .unwrap();
        let mut t = RtTable::new(schema);
        for (age, tx) in [
            ("30", vec!["a", "b"]),
            ("31", vec!["a", "b"]),
            ("32", vec!["a", "c"]),
            ("33", vec!["b", "c"]),
            ("60", vec!["a", "b"]),
            ("61", vec!["a", "b"]),
            ("62", vec!["c", "a"]),
            ("63", vec!["b", "c"]),
        ] {
            t.push_row(&[age], &tx).unwrap();
        }
        t
    }

    #[allow(clippy::too_many_arguments)]
    fn input<'a>(
        t: &'a RtTable,
        hs: &'a [Hierarchy],
        item_h: &'a Hierarchy,
        k: usize,
        m: usize,
        delta: usize,
        rel: RelationalAlgorithm,
        tx: TransactionAlgorithm,
        b: BoundingMethod,
    ) -> RtInput<'a> {
        RtInput {
            table: t,
            qi_attrs: vec![0],
            hierarchies: hs.to_vec(),
            item_hierarchy: Some(item_h),
            k,
            m,
            delta,
            rel_algo: rel,
            tx_algo: tx,
            bounding: b,
            privacy: None,
            utility: None,
            seed: 7,
        }
    }

    fn hierarchies(t: &RtTable) -> (Vec<Hierarchy>, Hierarchy) {
        let hs = vec![auto_hierarchy(t.pool(0), AttributeKind::Numeric, 2).unwrap()];
        let ih = auto_hierarchy(t.item_pool().unwrap(), AttributeKind::Categorical, 2).unwrap();
        (hs, ih)
    }

    #[test]
    fn all_sixty_combinations_satisfy_k_km() {
        let t = table();
        let (hs, ih) = hierarchies(&t);
        for rel in RelationalAlgorithm::all() {
            for tx in TransactionAlgorithm::all() {
                for b in BoundingMethod::all() {
                    let i = input(&t, &hs, &ih, 2, 2, 2, rel, tx, b);
                    let out = anonymize(&i).expect("combination must run");
                    let km_m = match tx {
                        // VPA guarantees k^m per part; check m=1 globally
                        TransactionAlgorithm::Vpa { .. } => 1,
                        // COAT/PCTA protect single items by default
                        TransactionAlgorithm::Coat | TransactionAlgorithm::Pcta => 1,
                        _ => 2,
                    };
                    assert!(
                        is_k_km_anonymous(&out.anon, 2, km_m),
                        "{rel:?}+{tx:?}+{b:?}"
                    );
                    assert!(
                        out.anon.is_truthful(&t, |a| Some(hs[a].clone()), Some(&ih)),
                        "{rel:?}+{tx:?}+{b:?} truthfulness"
                    );
                }
            }
        }
    }

    #[test]
    fn delta_trades_relational_for_transaction_utility() {
        let t = table();
        let (hs, ih) = hierarchies(&t);
        let run = |delta| {
            let i = input(
                &t,
                &hs,
                &ih,
                2,
                2,
                delta,
                RelationalAlgorithm::Cluster,
                TransactionAlgorithm::Apriori,
                BoundingMethod::RMerge,
            );
            anonymize(&i).unwrap()
        };
        let d1 = run(1);
        let d4 = run(4);
        let rel_loss = |o: &RtOutput| secreta_metrics::gcp(&t, &o.anon, |_| Some(hs[0].clone()));
        let tx_loss = |o: &RtOutput| secreta_metrics::transaction_gcp(&t, &o.anon, Some(&ih));
        // merging clusters can only coarsen the relational side...
        assert!(rel_loss(&d4) >= rel_loss(&d1) - 1e-9);
        // ...and gives the transaction side more room (never worse)
        assert!(tx_loss(&d4) <= tx_loss(&d1) + 1e-9);
    }

    #[test]
    fn phases_include_all_stages() {
        let t = table();
        let (hs, ih) = hierarchies(&t);
        let i = input(
            &t,
            &hs,
            &ih,
            2,
            2,
            2,
            RelationalAlgorithm::Cluster,
            TransactionAlgorithm::Apriori,
            BoundingMethod::RtMerge,
        );
        let out = anonymize(&i).unwrap();
        for phase in [
            "relational partitioning",
            "cluster merging",
            "transaction anonymization",
            "publish",
        ] {
            assert!(out.phases.get(phase).is_some(), "missing {phase}");
        }
        // regression: the relational sub-run's phases must be spliced
        // in at their execution position (they used to land after
        // "publish")
        let pos = |name: &str| {
            out.phases
                .phases
                .iter()
                .position(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("missing {name}"))
        };
        assert!(pos("Cluster/setup") < pos("relational partitioning"));
        assert!(pos("Cluster/recode") < pos("cluster merging"));
    }

    #[test]
    fn missing_transaction_attribute_rejected() {
        let schema = Schema::new(vec![Attribute::numeric("Age")]).unwrap();
        let mut t = RtTable::new(schema);
        t.push_row(&["30"], &[]).unwrap();
        let hs = vec![auto_hierarchy(t.pool(0), AttributeKind::Numeric, 2).unwrap()];
        let i = RtInput {
            table: &t,
            qi_attrs: vec![0],
            hierarchies: hs.clone(),
            item_hierarchy: None,
            k: 1,
            m: 1,
            delta: 1,
            rel_algo: RelationalAlgorithm::Cluster,
            tx_algo: TransactionAlgorithm::Coat,
            bounding: BoundingMethod::RMerge,
            privacy: None,
            utility: None,
            seed: 0,
        };
        assert!(matches!(anonymize(&i), Err(RtError::BadInput(_))));
    }

    #[test]
    fn infeasible_k_propagates_from_relational_stage() {
        let t = table();
        let (hs, ih) = hierarchies(&t);
        let i = input(
            &t,
            &hs,
            &ih,
            100,
            1,
            1,
            RelationalAlgorithm::Incognito,
            TransactionAlgorithm::Apriori,
            BoundingMethod::RMerge,
        );
        assert!(matches!(anonymize(&i), Err(RtError::Rel(_))));
    }

    #[test]
    fn feasibility_repair_merges_clusters_with_empty_transactions() {
        // clusters can end up with fewer than k non-empty transactions;
        // the pipeline must fuse and retry instead of failing
        let schema = Schema::new(vec![
            Attribute::numeric("Age"),
            Attribute::transaction("Items"),
        ])
        .unwrap();
        let mut t = RtTable::new(schema);
        t.push_row(&["30"], &["a"]).unwrap();
        t.push_row(&["31"], &[]).unwrap();
        t.push_row(&["60"], &["a"]).unwrap();
        t.push_row(&["61"], &[]).unwrap();
        let hs = vec![auto_hierarchy(t.pool(0), AttributeKind::Numeric, 2).unwrap()];
        let ih = auto_hierarchy(t.item_pool().unwrap(), AttributeKind::Categorical, 2).unwrap();
        let i = input(
            &t,
            &hs,
            &ih,
            2,
            1,
            1,
            RelationalAlgorithm::Cluster,
            TransactionAlgorithm::Apriori,
            BoundingMethod::RMerge,
        );
        let out = anonymize(&i).unwrap();
        assert!(is_k_km_anonymous(&out.anon, 2, 1));
    }
}

#[cfg(test)]
mod repair_edge_tests {
    use super::*;
    use secreta_data::{Attribute, AttributeKind, Schema};
    use secreta_hierarchy::auto_hierarchy;

    /// When even the fully merged dataset cannot satisfy the
    /// transaction stage, the error must surface instead of looping.
    #[test]
    fn exhausted_merging_reports_tx_error() {
        let schema = Schema::new(vec![
            Attribute::numeric("Age"),
            Attribute::transaction("Items"),
        ])
        .unwrap();
        let mut t = RtTable::new(schema);
        // only one non-empty transaction in the whole dataset: k=2 on
        // the transaction side is unreachable even after full merging
        t.push_row(&["30"], &["a"]).unwrap();
        t.push_row(&["31"], &[]).unwrap();
        t.push_row(&["60"], &[]).unwrap();
        t.push_row(&["61"], &[]).unwrap();
        let hs = vec![auto_hierarchy(t.pool(0), AttributeKind::Numeric, 2).unwrap()];
        let ih = auto_hierarchy(t.item_pool().unwrap(), AttributeKind::Categorical, 2).unwrap();
        let input = RtInput {
            table: &t,
            qi_attrs: vec![0],
            hierarchies: hs,
            item_hierarchy: Some(&ih),
            k: 2,
            m: 1,
            delta: 1,
            rel_algo: RelationalAlgorithm::Cluster,
            tx_algo: TransactionAlgorithm::Apriori,
            bounding: BoundingMethod::RMerge,
            privacy: None,
            utility: None,
            seed: 0,
        };
        assert!(matches!(anonymize(&input), Err(RtError::Tx(_))));
    }

    /// Repair that triggers while later clusters are pending must not
    /// corrupt the results/clusters bookkeeping (j > idx branch).
    #[test]
    fn forward_merge_repair_keeps_alignment() {
        let schema = Schema::new(vec![
            Attribute::numeric("Age"),
            Attribute::transaction("Items"),
        ])
        .unwrap();
        let mut t = RtTable::new(schema);
        // cluster A (ages 30-31): both rows non-empty;
        // cluster B (ages 60-61): only one non-empty -> infeasible at
        // k=2 until it merges with A
        t.push_row(&["30"], &["a"]).unwrap();
        t.push_row(&["31"], &["a"]).unwrap();
        t.push_row(&["60"], &["a"]).unwrap();
        t.push_row(&["61"], &[]).unwrap();
        let hs = vec![auto_hierarchy(t.pool(0), AttributeKind::Numeric, 2).unwrap()];
        let ih = auto_hierarchy(t.item_pool().unwrap(), AttributeKind::Categorical, 2).unwrap();
        let input = RtInput {
            table: &t,
            qi_attrs: vec![0],
            hierarchies: hs,
            item_hierarchy: Some(&ih),
            k: 2,
            m: 1,
            delta: 1,
            rel_algo: RelationalAlgorithm::Cluster,
            tx_algo: TransactionAlgorithm::Apriori,
            bounding: BoundingMethod::RMerge,
            privacy: None,
            utility: None,
            seed: 3,
        };
        let out = anonymize(&input).unwrap();
        assert!(crate::verify::is_k_km_anonymous(&out.anon, 2, 1));
        assert_eq!(out.anon.n_rows, 4);
    }
}
