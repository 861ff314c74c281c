//! Shared types and helpers for the relational algorithms.

use secreta_data::RtTable;
use secreta_hierarchy::{Hierarchy, NodeId};
use secreta_metrics::{AnonTable, PhaseTimes};
use std::fmt;

/// Errors raised by relational anonymization.
#[derive(Debug, PartialEq, Eq)]
pub enum RelError {
    /// `k` exceeds the number of records: no generalization can form a
    /// class of size `k`.
    Infeasible {
        /// Requested protection level.
        k: usize,
        /// Records available.
        n: usize,
    },
    /// Input is structurally unusable (no QI attributes, mismatched
    /// hierarchies, k = 0, ...).
    BadInput(String),
}

impl fmt::Display for RelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelError::Infeasible { k, n } => {
                write!(f, "k-anonymity infeasible: k={k} but only {n} records")
            }
            RelError::BadInput(msg) => write!(f, "bad input: {msg}"),
        }
    }
}

impl std::error::Error for RelError {}

/// Input to every relational algorithm.
pub struct RelationalInput<'a> {
    /// The dataset.
    pub table: &'a RtTable,
    /// Quasi-identifier attribute indices (must be relational).
    pub qi_attrs: Vec<usize>,
    /// Generalization hierarchies, parallel to `qi_attrs`.
    pub hierarchies: Vec<Hierarchy>,
    /// Protection level: each record indistinguishable from ≥ k−1
    /// others on the QI attributes.
    pub k: usize,
}

impl<'a> RelationalInput<'a> {
    /// Per-QI-attribute value frequencies plus their totals, for
    /// GCP-weighted node selection. The count walks each column in
    /// fixed-size blocks ([`RtTable::column_chunks`] at the process
    /// chunk size) so the setup pass touches memory chunk-by-chunk
    /// regardless of table size.
    pub fn qi_value_counts(&self) -> (Vec<Vec<u64>>, Vec<u64>) {
        let chunk_rows = secreta_data::chunk::chunk_rows();
        let counts: Vec<Vec<u64>> = self
            .qi_attrs
            .iter()
            .map(|&attr| {
                let mut c = vec![0u64; self.table.domain_size(attr)];
                for (_, block) in self.table.column_chunks(attr, chunk_rows) {
                    for v in block {
                        c[v.index()] += 1;
                    }
                }
                c
            })
            .collect();
        let totals = counts.iter().map(|c| c.iter().sum()).collect();
        (counts, totals)
    }

    /// Validate structural invariants shared by all algorithms.
    pub fn validate(&self) -> Result<(), RelError> {
        if self.k == 0 {
            return Err(RelError::BadInput("k must be at least 1".into()));
        }
        if self.qi_attrs.is_empty() {
            return Err(RelError::BadInput("no quasi-identifier attributes".into()));
        }
        if self.qi_attrs.len() != self.hierarchies.len() {
            return Err(RelError::BadInput(format!(
                "{} QI attributes but {} hierarchies",
                self.qi_attrs.len(),
                self.hierarchies.len()
            )));
        }
        for (pos, &attr) in self.qi_attrs.iter().enumerate() {
            let a = self
                .table
                .schema()
                .attribute(attr)
                .ok_or_else(|| RelError::BadInput(format!("attribute {attr} out of range")))?;
            if !a.kind.is_relational() {
                return Err(RelError::BadInput(format!(
                    "attribute {:?} is not relational",
                    a.name
                )));
            }
            if self.hierarchies[pos].n_leaves() != self.table.domain_size(attr) {
                return Err(RelError::BadInput(format!(
                    "hierarchy for {:?} covers {} values, domain has {}",
                    a.name,
                    self.hierarchies[pos].n_leaves(),
                    self.table.domain_size(attr)
                )));
            }
        }
        if self.k > self.table.n_rows() {
            return Err(RelError::Infeasible {
                k: self.k,
                n: self.table.n_rows(),
            });
        }
        Ok(())
    }

    /// Row-major `n_rows × qi_attrs.len()` matrix of QI value ids.
    ///
    /// The greedy argmin loops of the clustering algorithms scan every
    /// row's QI tuple many thousands of times; materializing the ids
    /// once replaces repeated `table.value()` virtual-layout lookups
    /// with a dense sequential read.
    pub fn value_matrix(&self) -> ValueMatrix {
        let q = self.qi_attrs.len();
        let n = self.table.n_rows();
        let mut values = Vec::with_capacity(n * q);
        for row in 0..n {
            for &attr in &self.qi_attrs {
                values.push(self.table.value(row, attr).0);
            }
        }
        ValueMatrix { values, width: q }
    }

    /// Row-major `n_rows × qi_attrs.len()` matrix of leaf [`NodeId`]s
    /// (each QI value resolved through its hierarchy).
    pub fn leaf_matrix(&self) -> LeafMatrix {
        let q = self.qi_attrs.len();
        let n = self.table.n_rows();
        let mut leaves = Vec::with_capacity(n * q);
        for row in 0..n {
            for (pos, &attr) in self.qi_attrs.iter().enumerate() {
                leaves.push(self.hierarchies[pos].leaf(self.table.value(row, attr).0));
            }
        }
        LeafMatrix { leaves, width: q }
    }
}

/// Dense row-major matrix of QI value ids (see
/// [`RelationalInput::value_matrix`]).
pub struct ValueMatrix {
    values: Vec<u32>,
    width: usize,
}

impl ValueMatrix {
    /// The QI value ids of `row`, in `qi_attrs` order.
    #[inline]
    pub fn row(&self, row: usize) -> &[u32] {
        &self.values[row * self.width..(row + 1) * self.width]
    }

    /// Number of QI attributes per row.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.values.len().checked_div(self.width).unwrap_or(0)
    }

    /// A width-1 copy of column `pos`, for per-attribute checks.
    ///
    /// Incognito's size-1 subset pruning probes one attribute at many
    /// levels; extracting the column once keeps the per-level checks
    /// off the full-width matrix (and off the table entirely).
    pub fn column(&self, pos: usize) -> ValueMatrix {
        ValueMatrix {
            values: (0..self.n_rows()).map(|r| self.row(r)[pos]).collect(),
            width: 1,
        }
    }
}

/// Dense row-major matrix of QI leaf nodes (see
/// [`RelationalInput::leaf_matrix`]).
pub struct LeafMatrix {
    leaves: Vec<NodeId>,
    width: usize,
}

impl LeafMatrix {
    /// The QI leaf nodes of `row`, in `qi_attrs` order.
    #[inline]
    pub fn row(&self, row: usize) -> &[NodeId] {
        &self.leaves[row * self.width..(row + 1) * self.width]
    }

    /// Number of QI attributes per row.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }
}

/// Result of a relational run: the anonymized table and phase timings.
#[derive(Debug, Clone)]
pub struct RelOutput {
    /// Generalized columns for the QI attributes.
    pub anon: AnonTable,
    /// Per-phase wall-clock times.
    pub phases: PhaseTimes,
}

/// Algorithm selector used by the SECRETA framework's configuration
/// layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RelationalAlgorithm {
    /// Full-domain lattice search (LeFevre et al.).
    Incognito,
    /// Top-down specialization from the fully generalized cut.
    TopDown,
    /// Full-subtree bottom-up generalization from the leaf cut.
    BottomUp,
    /// Greedy k-member clustering with per-cluster LCA recoding.
    Cluster,
}

impl RelationalAlgorithm {
    /// Display name (as shown in the GUI's algorithm selectors).
    pub fn name(self) -> &'static str {
        match self {
            RelationalAlgorithm::Incognito => "Incognito",
            RelationalAlgorithm::TopDown => "Top-down",
            RelationalAlgorithm::BottomUp => "Full subtree bottom-up",
            RelationalAlgorithm::Cluster => "Cluster",
        }
    }

    /// All four algorithms, in the paper's listing order.
    pub fn all() -> [RelationalAlgorithm; 4] {
        [
            RelationalAlgorithm::Incognito,
            RelationalAlgorithm::Cluster,
            RelationalAlgorithm::TopDown,
            RelationalAlgorithm::BottomUp,
        ]
    }

    /// Run the selected algorithm. `seed` feeds Cluster's seed record
    /// selection; the other three are deterministic and ignore it.
    pub fn run(self, input: &RelationalInput, seed: u64) -> Result<RelOutput, RelError> {
        match self {
            RelationalAlgorithm::Incognito => crate::incognito::anonymize(input),
            RelationalAlgorithm::TopDown => crate::topdown::anonymize(input),
            RelationalAlgorithm::BottomUp => crate::bottomup::anonymize(input),
            RelationalAlgorithm::Cluster => crate::cluster::anonymize(input, seed),
        }
    }
}

impl fmt::Display for RelationalAlgorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Minimum equivalence-class size when each QI attribute `a` recodes
/// value `v` to `recode(a_pos, v)`, counted by a full row scan: the
/// oracle of the kernel unit tests (`secreta-oracle` carries its own
/// copy for the integration tests).
#[cfg(test)]
pub(crate) fn min_class_size(
    table: &RtTable,
    qi_attrs: &[usize],
    recode: impl Fn(usize, u32) -> NodeId,
) -> usize {
    let q = qi_attrs.len();
    let n = table.n_rows();
    let mut values = Vec::with_capacity(n * q);
    for row in 0..n {
        for &attr in qi_attrs {
            values.push(table.value(row, attr).0);
        }
    }
    let matrix = ValueMatrix { values, width: q };
    let domains: Vec<usize> = qi_attrs.iter().map(|&a| table.domain_size(a)).collect();
    min_class_size_matrix(&matrix, &domains, recode)
}

/// [`min_class_size`] over a prebuilt [`ValueMatrix`];
/// `domains[pos]` is the domain size of `qi_attrs[pos]`.
///
/// Rows are bucketed by a dense per-attribute group code folded into a
/// single `u64` — no per-row allocation, and when the code space is
/// small the counts live in a flat vector instead of a hash map.
#[cfg(test)]
pub(crate) fn min_class_size_matrix(
    matrix: &ValueMatrix,
    domains: &[usize],
    recode: impl Fn(usize, u32) -> NodeId,
) -> usize {
    use secreta_data::hash::FxHashMap;
    let n = matrix.values.len().checked_div(matrix.width).unwrap_or(0);
    if n == 0 {
        return 0;
    }
    // Per attribute: value id -> dense group index (domains are small,
    // rows are many), plus the number of distinct groups.
    let mut dense: Vec<Vec<u64>> = Vec::with_capacity(domains.len());
    let mut strides: Vec<u64> = Vec::with_capacity(domains.len());
    let mut code_space: u64 = 1;
    let mut overflow = false;
    for (pos, &dom) in domains.iter().enumerate() {
        let mut ids: FxHashMap<NodeId, u64> = FxHashMap::default();
        let mut map = Vec::with_capacity(dom);
        for v in 0..dom as u32 {
            let node = recode(pos, v);
            let next = ids.len() as u64;
            map.push(*ids.entry(node).or_insert(next));
        }
        strides.push(code_space);
        // once the code space overflows u64 the strides are unusable,
        // but the per-attribute group maps must still cover every
        // column: the signature fallback below reads all of them
        if !overflow {
            match code_space.checked_mul(ids.len().max(1) as u64) {
                Some(p) => code_space = p,
                None => overflow = true,
            }
        }
        dense.push(map);
    }

    let code_of = |row: usize| -> u64 {
        let vals = matrix.row(row);
        let mut code = 0u64;
        for (pos, &v) in vals.iter().enumerate() {
            code += dense[pos][v as usize] * strides[pos];
        }
        code
    };

    if overflow {
        // astronomically wide code space: group on the full signature
        let mut groups: FxHashMap<Vec<u64>, usize> = FxHashMap::default();
        for row in 0..n {
            let sig: Vec<u64> = matrix
                .row(row)
                .iter()
                .enumerate()
                .map(|(pos, &v)| dense[pos][v as usize])
                .collect();
            *groups.entry(sig).or_insert(0) += 1;
        }
        return groups.values().copied().min().unwrap_or(0);
    }

    if code_space <= (n as u64) * 4 && code_space <= (1 << 22) {
        // dense counting: one flat vector, no hashing at all
        let mut counts = vec![0usize; code_space as usize];
        for row in 0..n {
            counts[code_of(row) as usize] += 1;
        }
        counts.into_iter().filter(|&c| c > 0).min().unwrap_or(0)
    } else {
        let mut groups: FxHashMap<u64, usize> = FxHashMap::default();
        for row in 0..n {
            *groups.entry(code_of(row)).or_insert(0) += 1;
        }
        groups.values().copied().min().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secreta_data::{Attribute, AttributeKind, Schema};
    use secreta_hierarchy::auto_hierarchy;

    fn table() -> RtTable {
        let schema = Schema::new(vec![
            Attribute::numeric("Age"),
            Attribute::categorical("Edu"),
            Attribute::transaction("Items"),
        ])
        .unwrap();
        let mut t = RtTable::new(schema);
        t.push_row(&["30", "BSc"], &["a"]).unwrap();
        t.push_row(&["35", "BSc"], &["b"]).unwrap();
        t.push_row(&["60", "MSc"], &["a"]).unwrap();
        t.push_row(&["65", "MSc"], &["b"]).unwrap();
        t
    }

    fn input(t: &RtTable, k: usize) -> RelationalInput<'_> {
        let h0 = auto_hierarchy(t.pool(0), AttributeKind::Numeric, 2).unwrap();
        let h1 = auto_hierarchy(t.pool(1), AttributeKind::Categorical, 2).unwrap();
        RelationalInput {
            table: t,
            qi_attrs: vec![0, 1],
            hierarchies: vec![h0, h1],
            k,
        }
    }

    #[test]
    fn validate_accepts_good_input() {
        let t = table();
        assert!(input(&t, 2).validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_inputs() {
        let t = table();
        let mut i = input(&t, 0);
        assert!(matches!(i.validate(), Err(RelError::BadInput(_))));
        i.k = 9;
        assert_eq!(i.validate(), Err(RelError::Infeasible { k: 9, n: 4 }));
        i.k = 2;
        i.qi_attrs = vec![];
        i.hierarchies = vec![];
        assert!(matches!(i.validate(), Err(RelError::BadInput(_))));

        let mut i2 = input(&t, 2);
        i2.qi_attrs = vec![2, 1]; // transaction attr as QI
        assert!(matches!(i2.validate(), Err(RelError::BadInput(_))));

        let mut i3 = input(&t, 2);
        i3.hierarchies.pop();
        assert!(matches!(i3.validate(), Err(RelError::BadInput(_))));
    }

    #[test]
    fn min_class_size_leaf_recoding() {
        let t = table();
        let i = input(&t, 2);
        let hs = i.hierarchies.clone();
        // identity recoding: all rows distinct -> min class 1
        let m = min_class_size(&t, &i.qi_attrs, |pos, v| hs[pos].leaf(v));
        assert_eq!(m, 1);
        // full generalization: one class of 4
        let m = min_class_size(&t, &i.qi_attrs, |pos, _| hs[pos].root());
        assert_eq!(m, 4);
        // generalize Age only to root: classes by Edu -> 2 and 2
        let m = min_class_size(&t, &i.qi_attrs, |pos, v| {
            if pos == 0 {
                hs[0].root()
            } else {
                hs[1].leaf(v)
            }
        });
        assert_eq!(m, 2);
    }

    #[test]
    fn value_matrix_column_extracts_attribute() {
        let t = table();
        let i = input(&t, 2);
        let matrix = i.value_matrix();
        assert_eq!(matrix.n_rows(), 4);
        for pos in 0..2 {
            let col = matrix.column(pos);
            assert_eq!(col.width(), 1);
            assert_eq!(col.n_rows(), 4);
            for row in 0..4 {
                assert_eq!(col.row(row)[0], matrix.row(row)[pos]);
            }
        }
    }

    #[test]
    fn min_class_size_code_space_overflow_falls_back_to_signatures() {
        // 12 attributes with 64 distinct groups each: the folded code
        // space overflows u64 at the 11th attribute (64^11 = 2^66),
        // forcing the full-signature hash-map branch — with a column
        // *past* the overflow point, so the fallback must still have a
        // group map for every attribute.
        let q = 12;
        let dom = 64usize;
        let domains = vec![dom; q];
        let mut values = Vec::new();
        // rows 0/1 and 2/3 are duplicates, row 4 is unique in its
        // last attribute -> min class size 1; with the last column
        // ignored rows 2/3/4 collapse -> min class size 2
        for row in [
            vec![1u32; q],
            vec![1u32; q],
            {
                let mut r = vec![2u32; q];
                r[q - 1] = 7;
                r
            },
            {
                let mut r = vec![2u32; q];
                r[q - 1] = 7;
                r
            },
            {
                let mut r = vec![2u32; q];
                r[q - 1] = 9;
                r
            },
        ] {
            values.extend(row);
        }
        let matrix = ValueMatrix { values, width: q };
        // identity recoding keeps all 64 groups per attribute
        let m = min_class_size_matrix(&matrix, &domains, |_, v| NodeId(v));
        assert_eq!(m, 1);
        // collapsing the final attribute still overflows on the first
        // eleven and exercises the merged counts
        let m = min_class_size_matrix(&matrix, &domains, |pos, v| {
            if pos == q - 1 {
                NodeId(0)
            } else {
                NodeId(v)
            }
        });
        assert_eq!(m, 2);
    }

    #[test]
    fn algorithm_names() {
        assert_eq!(RelationalAlgorithm::Incognito.to_string(), "Incognito");
        assert_eq!(RelationalAlgorithm::all().len(), 4);
    }
}
