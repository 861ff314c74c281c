//! The anonymized-table model.
//!
//! Every algorithm in SECRETA transforms values into *generalized
//! values*. Two recoding styles exist in the integrated algorithms:
//!
//! * **hierarchy recoding** — a cell/item is replaced by an ancestor
//!   node of its generalization hierarchy (Incognito, Top-down,
//!   Full-subtree bottom-up, Apriori, LRA, VPA);
//! * **set recoding** — a cell/item is replaced by an explicit set of
//!   original values (Cluster's per-equivalence-class value sets,
//!   COAT/PCTA's hierarchy-free generalized items).
//!
//! [`GenEntry`] abstracts both so the metrics in this crate (and the
//! plotting/export layers above) treat all nine algorithms uniformly.

use secreta_data::hash::FxHashMap;
use secreta_data::{ItemId, RtTable, ValueId};
use secreta_hierarchy::{Hierarchy, NodeId};
use serde::{Deserialize, Serialize};

/// One generalized value in a generalized domain.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GenEntry {
    /// An ancestor node in the attribute's hierarchy.
    Node(NodeId),
    /// An explicit, sorted, duplicate-free set of original value ids.
    Set(Vec<u32>),
    /// The value is suppressed (published as nothing). Matches no
    /// original value and counts as total information loss.
    Suppressed,
}

impl GenEntry {
    /// Build a set entry, normalizing order and duplicates.
    pub fn set(mut values: Vec<u32>) -> Self {
        values.sort_unstable();
        values.dedup();
        GenEntry::Set(values)
    }

    /// Number of original values this generalized value may stand for.
    /// Requires the governing hierarchy for `Node` entries.
    pub fn leaf_count(&self, hierarchy: Option<&Hierarchy>) -> usize {
        match self {
            GenEntry::Node(n) => hierarchy
                .expect("Node entries require their hierarchy")
                .leaf_count(*n),
            GenEntry::Set(s) => s.len(),
            GenEntry::Suppressed => 0,
        }
    }

    /// Does this generalized value cover original value `v`?
    pub fn covers(&self, v: u32, hierarchy: Option<&Hierarchy>) -> bool {
        match self {
            GenEntry::Node(n) => hierarchy
                .expect("Node entries require their hierarchy")
                .contains(*n, v),
            GenEntry::Set(s) => s.binary_search(&v).is_ok(),
            GenEntry::Suppressed => false,
        }
    }

    /// Human-readable label.
    pub fn display(
        &self,
        hierarchy: Option<&Hierarchy>,
        resolve: impl Fn(u32) -> String,
    ) -> String {
        match self {
            GenEntry::Node(n) => hierarchy
                .expect("Node entries require their hierarchy")
                .label(*n)
                .to_owned(),
            GenEntry::Set(s) => {
                if s.len() == 1 {
                    resolve(s[0])
                } else {
                    let mut parts: Vec<String> = s.iter().map(|&v| resolve(v)).collect();
                    parts.sort();
                    format!("({})", parts.join("|"))
                }
            }
            GenEntry::Suppressed => "⊥".to_owned(),
        }
    }

    /// Normalized Certainty Penalty of this generalized value given the
    /// attribute's domain size: `(covered - 1) / (domain - 1)` for
    /// covered ≥ 1, and 1.0 (total loss) for suppression.
    pub fn ncp(&self, domain_size: usize, hierarchy: Option<&Hierarchy>) -> f64 {
        if matches!(self, GenEntry::Suppressed) {
            return 1.0;
        }
        if domain_size <= 1 {
            return 0.0;
        }
        let covered = self.leaf_count(hierarchy);
        (covered.saturating_sub(1)) as f64 / (domain_size - 1) as f64
    }
}

/// An anonymized relational column: a generalized domain plus one
/// generalized-value id per row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RelColumn {
    /// Index of the attribute in the original schema.
    pub attr: usize,
    /// The generalized domain; `cells` index into it.
    pub domain: Vec<GenEntry>,
    /// One entry per row.
    pub cells: Vec<u32>,
}

impl RelColumn {
    /// The generalized value of `row`.
    pub fn entry(&self, row: usize) -> &GenEntry {
        &self.domain[self.cells[row] as usize]
    }
}

/// The anonymized transaction attribute.
///
/// Rows are CSR-encoded like the original table, but over *generalized
/// item* ids. `multiplicity[i]` records how many original items of the
/// row were merged into occurrence `i` — needed by the standard
/// uniformity estimate for COUNT queries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnonTransaction {
    /// Generalized item domain; row items index into it.
    pub domain: Vec<GenEntry>,
    /// CSR offsets (`n_rows + 1`).
    pub offsets: Vec<u32>,
    /// Generalized item ids per row, sorted, duplicate-free.
    pub items: Vec<u32>,
    /// Original items merged into each generalized occurrence
    /// (parallel to `items`).
    pub multiplicity: Vec<u16>,
    /// Original item ids that were suppressed dataset-wide.
    pub suppressed: Vec<ItemId>,
}

impl AnonTransaction {
    /// Generalized item ids of `row`.
    pub fn row_items(&self, row: usize) -> &[u32] {
        let lo = self.offsets[row] as usize;
        let hi = self.offsets[row + 1] as usize;
        &self.items[lo..hi]
    }

    /// Multiplicities parallel to [`Self::row_items`].
    pub fn row_multiplicity(&self, row: usize) -> &[u16] {
        let lo = self.offsets[row] as usize;
        let hi = self.offsets[row + 1] as usize;
        &self.multiplicity[lo..hi]
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Build from a *row-aware* mapping `map(row, item) -> Option<gen
    /// id>` (`None` = suppressed in that row), given the generalized
    /// `domain`. Items suppressed in at least one row are recorded in
    /// the suppressed list. Used by locally recoding algorithms (LRA
    /// and per-cluster runs under the RT bounding methods).
    pub fn from_row_mapping(
        table: &RtTable,
        domain: Vec<GenEntry>,
        map: impl Fn(usize, ItemId) -> Option<u32>,
    ) -> AnonTransaction {
        Self::build(table, domain, map, true)
    }

    /// Build from a per-row mapping `map(item) -> Option<gen id>`
    /// (`None` = suppressed), given the generalized `domain`. Collects
    /// multiplicities and the dataset-wide suppressed-item list.
    pub fn from_mapping(
        table: &RtTable,
        domain: Vec<GenEntry>,
        map: impl Fn(ItemId) -> Option<u32>,
    ) -> AnonTransaction {
        Self::build(table, domain, |_, it| map(it), true)
    }

    fn build(
        table: &RtTable,
        domain: Vec<GenEntry>,
        map: impl Fn(usize, ItemId) -> Option<u32>,
        record_suppressed: bool,
    ) -> AnonTransaction {
        let n = table.n_rows();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut items = Vec::new();
        let mut multiplicity = Vec::new();
        let mut suppressed: Vec<ItemId> = Vec::new();
        let mut seen_suppressed = vec![false; table.item_universe()];
        let mut row_buf: FxHashMap<u32, u16> = FxHashMap::default();
        for row in 0..n {
            row_buf.clear();
            for &it in table.transaction(row) {
                match map(row, it) {
                    Some(g) => *row_buf.entry(g).or_insert(0) += 1,
                    None => {
                        if record_suppressed && !seen_suppressed[it.index()] {
                            seen_suppressed[it.index()] = true;
                            suppressed.push(it);
                        }
                    }
                }
            }
            let mut row_items: Vec<(u32, u16)> = row_buf.iter().map(|(&g, &c)| (g, c)).collect();
            row_items.sort_unstable_by_key(|&(g, _)| g);
            for (g, c) in row_items {
                items.push(g);
                multiplicity.push(c);
            }
            offsets.push(items.len() as u32);
        }
        suppressed.sort_unstable();
        AnonTransaction {
            domain,
            offsets,
            items,
            multiplicity,
            suppressed,
        }
    }
}

/// The anonymized dataset: generalized relational columns and/or a
/// generalized transaction attribute, aligned row-by-row with the
/// original table it was derived from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnonTable {
    /// Anonymized relational columns (may be empty for
    /// transaction-only runs). Columns not listed are unchanged
    /// non-quasi-identifiers.
    pub rel: Vec<RelColumn>,
    /// Anonymized transaction attribute (absent for relational-only
    /// runs).
    pub tx: Option<AnonTransaction>,
    /// Number of rows (matches the original).
    pub n_rows: usize,
}

impl AnonTable {
    /// An "identity" anonymization: every relational cell kept as a
    /// singleton set, every item kept as itself. Useful as a baseline
    /// (zero information loss) and in tests.
    pub fn identity(table: &RtTable, rel_attrs: &[usize]) -> AnonTable {
        let rel = rel_attrs
            .iter()
            .map(|&attr| {
                let n_values = table.domain_size(attr);
                let domain: Vec<GenEntry> = (0..n_values as u32)
                    .map(|v| GenEntry::Set(vec![v]))
                    .collect();
                let cells: Vec<u32> = table.column(attr).iter().map(|v| v.0).collect();
                RelColumn {
                    attr,
                    domain,
                    cells,
                }
            })
            .collect();
        let tx = table.schema().transaction_index().map(|_| {
            let domain: Vec<GenEntry> = (0..table.item_universe() as u32)
                .map(|i| GenEntry::Set(vec![i]))
                .collect();
            AnonTransaction::from_mapping(table, domain, |it| Some(it.0))
        });
        AnonTable {
            rel,
            tx,
            n_rows: table.n_rows(),
        }
    }

    /// The anonymized relational column for original attribute `attr`,
    /// if it was anonymized.
    pub fn rel_column(&self, attr: usize) -> Option<&RelColumn> {
        self.rel.iter().find(|c| c.attr == attr)
    }

    /// Group rows into equivalence classes by their generalized
    /// relational signature. A table with no relational columns is one
    /// class of all rows (none when it has no rows).
    pub fn equivalence_classes(&self) -> EquivalenceClasses {
        let mut row_class = vec![0u32; self.n_rows];
        if self.rel.is_empty() {
            let sizes = Some(self.n_rows).filter(|&n| n > 0).into_iter().collect();
            return EquivalenceClasses { sizes, row_class };
        }
        let mut classes: FxHashMap<Vec<u32>, u32> = FxHashMap::default();
        let mut sizes: Vec<usize> = Vec::new();
        let mut sig = Vec::with_capacity(self.rel.len());
        for (row, slot) in row_class.iter_mut().enumerate() {
            sig.clear();
            sig.extend(self.rel.iter().map(|col| col.cells[row]));
            let class = match classes.get(sig.as_slice()) {
                Some(&class) => class,
                None => {
                    sizes.push(0);
                    classes.insert(sig.clone(), sizes.len() as u32 - 1);
                    sizes.len() as u32 - 1
                }
            };
            sizes[class as usize] += 1;
            *slot = class;
        }
        EquivalenceClasses { sizes, row_class }
    }

    /// Check the original value of each cell is covered by its
    /// generalized value — the *data truthfulness* invariant the paper
    /// highlights. Also verifies transaction occurrences. Only the
    /// test suites call it; runs do not check it.
    pub fn is_truthful(
        &self,
        table: &RtTable,
        rel_hierarchies: impl Fn(usize) -> Option<Hierarchy>,
        tx_hierarchy: Option<&Hierarchy>,
    ) -> bool {
        for col in &self.rel {
            let h = rel_hierarchies(col.attr);
            for row in 0..self.n_rows {
                let orig = table.value(row, col.attr);
                if !col.entry(row).covers(orig.0, h.as_ref()) {
                    return false;
                }
            }
        }
        if let Some(tx) = &self.tx {
            for row in 0..self.n_rows {
                let gen_items = tx.row_items(row);
                let mult = tx.row_multiplicity(row);
                // no fabrication: every published occurrence must cover
                // at least one original item of this row, and the
                // merged-occurrence count cannot exceed what was there
                for &g in gen_items {
                    let grounded = table
                        .transaction(row)
                        .iter()
                        .any(|it| tx.domain[g as usize].covers(it.0, tx_hierarchy));
                    if !grounded {
                        return false;
                    }
                }
                let msum: usize = mult.iter().map(|&m| m as usize).sum();
                if msum > table.transaction(row).len() {
                    return false;
                }
            }
        }
        true
    }

    /// Check completeness of the transaction part: every original item
    /// occurrence not suppressed *dataset-wide* is represented by a
    /// generalized occurrence of its row. Holds for the globally
    /// recoding algorithms (Apriori, COAT, PCTA, …); per-cluster runs
    /// under the RT bounding methods may suppress locally and fail
    /// this check while remaining truthful.
    pub fn is_complete(&self, table: &RtTable, tx_hierarchy: Option<&Hierarchy>) -> bool {
        let tx = match &self.tx {
            Some(tx) => tx,
            None => return true,
        };
        for row in 0..self.n_rows {
            let gen_items = tx.row_items(row);
            let mult = tx.row_multiplicity(row);
            for &it in table.transaction(row) {
                if tx.suppressed.binary_search(&it).is_ok() {
                    continue;
                }
                let covered = gen_items
                    .iter()
                    .any(|&g| tx.domain[g as usize].covers(it.0, tx_hierarchy));
                if !covered {
                    return false;
                }
            }
            let kept = table
                .transaction(row)
                .iter()
                .filter(|it| tx.suppressed.binary_search(it).is_err())
                .count();
            let msum: usize = mult.iter().map(|&m| m as usize).sum();
            if msum != kept {
                return false;
            }
        }
        true
    }
}

/// The equivalence classes of an [`AnonTable`]
/// ([`AnonTable::equivalence_classes`]): a run builds them once and
/// every indicator that groups rows by class reads them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquivalenceClasses {
    /// Rows per class, classes numbered in order of first appearance.
    pub sizes: Vec<usize>,
    /// The class of each row.
    pub row_class: Vec<u32>,
}

impl EquivalenceClasses {
    /// Discernibility metric: `Σ |EC|²`. Lower is better; the minimum
    /// is `n` (all classes singletons).
    pub fn discernibility(&self) -> u64 {
        self.sizes.iter().map(|&s| (s as u64) * (s as u64)).sum()
    }

    /// Average class size (`C_avg`); 0.0 for an empty table.
    pub fn average_size(&self) -> f64 {
        self.row_class.len() as f64 / self.sizes.len().max(1) as f64
    }

    /// The k-anonymity rule: records in classes smaller than `k`.
    pub fn k_violations(&self, k: usize) -> u64 {
        self.sizes.iter().filter(|&&s| s < k).sum::<usize>() as u64
    }
}

/// Compose a value id → generalized entry mapping into per-row cells,
/// deduplicating equal entries into a shared domain. Helper for
/// hierarchy-based relational algorithms that compute a global
/// `ValueId -> NodeId` recoding.
pub fn rel_column_from_value_map(
    table: &RtTable,
    attr: usize,
    map: impl Fn(ValueId) -> GenEntry,
) -> RelColumn {
    let mut domain: Vec<GenEntry> = Vec::new();
    let mut index: FxHashMap<GenEntry, u32> = FxHashMap::default();
    let mut value_gen: Vec<u32> = Vec::with_capacity(table.domain_size(attr));
    for v in 0..table.domain_size(attr) as u32 {
        let entry = map(ValueId(v));
        let next = domain.len() as u32;
        let id = *index.entry(entry.clone()).or_insert(next);
        if id as usize == domain.len() {
            domain.push(entry);
        }
        value_gen.push(id);
    }
    let cells = table
        .column(attr)
        .iter()
        .map(|v| value_gen[v.index()])
        .collect();
    RelColumn {
        attr,
        domain,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secreta_data::AttributeKind;
    use secreta_data::{Attribute, Schema};
    use secreta_hierarchy::auto_hierarchy;

    fn table() -> RtTable {
        let schema = Schema::new(vec![
            Attribute::numeric("Age"),
            Attribute::categorical("Edu"),
            Attribute::transaction("Items"),
        ])
        .unwrap();
        let mut t = RtTable::new(schema);
        t.push_row(&["30", "BSc"], &["a", "b"]).unwrap();
        t.push_row(&["41", "MSc"], &["a"]).unwrap();
        t.push_row(&["30", "BSc"], &["b", "c"]).unwrap();
        t.push_row(&["55", "PhD"], &["c"]).unwrap();
        t
    }

    #[test]
    fn identity_is_truthful_with_zero_ncp() {
        let t = table();
        let a = AnonTable::identity(&t, &[0, 1]);
        assert!(a.is_truthful(&t, |_| None, None));
        for col in &a.rel {
            for row in 0..a.n_rows {
                assert_eq!(col.entry(row).ncp(t.domain_size(col.attr), None), 0.0);
            }
        }
        let tx = a.tx.as_ref().unwrap();
        assert!(tx.suppressed.is_empty());
        assert_eq!(tx.row_items(0).len(), 2);
        assert_eq!(tx.row_multiplicity(0), &[1, 1]);
    }

    #[test]
    fn gen_entry_set_normalizes() {
        let e = GenEntry::set(vec![3, 1, 3, 2]);
        assert_eq!(e, GenEntry::Set(vec![1, 2, 3]));
        assert_eq!(e.leaf_count(None), 3);
        assert!(e.covers(2, None));
        assert!(!e.covers(4, None));
    }

    #[test]
    fn gen_entry_node_uses_hierarchy() {
        let t = table();
        let h = auto_hierarchy(t.pool(1), AttributeKind::Categorical, 2).unwrap();
        let root = GenEntry::Node(h.root());
        assert_eq!(root.leaf_count(Some(&h)), 3);
        assert!(root.covers(0, Some(&h)));
        assert_eq!(root.ncp(3, Some(&h)), 1.0);
        assert_eq!(root.display(Some(&h), |v| v.to_string()), "*");
    }

    #[test]
    fn suppressed_entry_semantics() {
        let e = GenEntry::Suppressed;
        assert_eq!(e.leaf_count(None), 0);
        assert!(!e.covers(0, None));
        assert_eq!(e.ncp(10, None), 1.0);
        assert_eq!(e.display(None, |v| v.to_string()), "⊥");
    }

    #[test]
    fn ncp_degenerate_domain() {
        let e = GenEntry::Set(vec![0]);
        assert_eq!(e.ncp(1, None), 0.0);
    }

    #[test]
    fn set_display_sorted_labels() {
        let e = GenEntry::set(vec![1, 0]);
        let label = e.display(None, |v| if v == 0 { "z".into() } else { "a".into() });
        assert_eq!(label, "(a|z)");
        let single = GenEntry::set(vec![7]);
        assert_eq!(single.display(None, |_| "only".into()), "only");
    }

    #[test]
    fn equivalence_classes_group_by_signature() {
        let t = table();
        // generalize Age fully, keep Edu exact: classes by Edu
        let age_col = rel_column_from_value_map(&t, 0, |_| GenEntry::set(vec![0, 1, 2]));
        let edu_col = rel_column_from_value_map(&t, 1, |v| GenEntry::Set(vec![v.0]));
        let a = AnonTable {
            rel: vec![age_col, edu_col],
            tx: None,
            n_rows: t.n_rows(),
        };
        let EquivalenceClasses { sizes, row_class } = a.equivalence_classes();
        assert_eq!(sizes.len(), 3); // BSc, MSc, PhD
        assert_eq!(sizes.iter().sum::<usize>(), 4);
        assert_eq!(row_class[0], row_class[2]); // both BSc rows
        assert_ne!(row_class[0], row_class[1]);
    }

    #[test]
    fn from_mapping_merges_and_suppresses() {
        let t = table();
        // merge a,b into one generalized item; suppress c
        let domain = vec![GenEntry::set(vec![0, 1])];
        let tx =
            AnonTransaction::from_mapping(&t, domain, |it| if it.0 <= 1 { Some(0) } else { None });
        assert_eq!(tx.row_items(0), &[0]);
        assert_eq!(tx.row_multiplicity(0), &[2]); // a and b merged
        assert_eq!(tx.row_items(3), &[] as &[u32]); // only c, suppressed
        assert_eq!(tx.suppressed, vec![ItemId(2)]);
        assert_eq!(tx.n_rows(), 4);
    }

    #[test]
    fn truthfulness_detects_bad_recoding() {
        let t = table();
        // claim Age=41 generalizes to {30} — not truthful
        let age_col = rel_column_from_value_map(&t, 0, |_| GenEntry::Set(vec![0]));
        let a = AnonTable {
            rel: vec![age_col],
            tx: None,
            n_rows: t.n_rows(),
        };
        assert!(!a.is_truthful(&t, |_| None, None));
    }

    #[test]
    fn truthfulness_checks_transaction_coverage() {
        let t = table();
        // map every item to a gen item covering only item 0
        let domain = vec![GenEntry::Set(vec![0])];
        let tx = AnonTransaction::from_mapping(&t, domain, |_| Some(0));
        let a = AnonTable {
            rel: vec![],
            tx: Some(tx),
            n_rows: t.n_rows(),
        };
        assert!(!a.is_truthful(&t, |_| None, None));
    }

    #[test]
    fn rel_column_from_value_map_dedups_domain() {
        let t = table();
        let col = rel_column_from_value_map(&t, 0, |_| GenEntry::set(vec![0, 1, 2]));
        assert_eq!(col.domain.len(), 1, "equal entries share one domain slot");
        assert!(col.cells.iter().all(|&c| c == 0));
    }
}
