//! COUNT query workloads and Average Relative Error.
//!
//! SECRETA "supports the same type of queries as \[12\], and uses
//! Average Relative Error (ARE) \[12\] as a de-facto utility indicator".
//! A query is a conjunction of predicates over relational attributes
//! (value-in-set, covering both point and range queries) and the
//! transaction attribute (contains-all-items); its answer is a COUNT
//! of matching records.
//!
//! On anonymized data the count is *estimated* under the standard
//! uniformity assumption: a generalized relational value covering `s`
//! leaves matches a point predicate with probability `1/s`; a
//! generalized item occurrence that merged `c` original items out of a
//! generalized item spanning `s` matches a queried member item with
//! probability `c/s`. ARE is the mean of `|exact - estimate| /
//! max(exact, 1)` over the workload.

use crate::anon::AnonTable;
use secreta_data::{DataError, ItemId, RtTable};
use secreta_hierarchy::Hierarchy;
use serde::{Deserialize, Serialize};
use std::io::{BufRead, BufReader, Read, Write};

/// One conjunct of a [`Query`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueryAtom {
    /// The relational attribute `attr` takes a value in `values`
    /// (sorted ids). A single id is a point predicate; a contiguous
    /// numeric run models a range predicate.
    Rel {
        /// Schema index of the relational attribute.
        attr: usize,
        /// Accepted value ids, sorted ascending.
        values: Vec<u32>,
    },
    /// The transaction contains **all** of `items`.
    Items {
        /// Items that must all be present.
        items: Vec<ItemId>,
    },
}

/// A COUNT query: conjunction of atoms.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Query {
    /// Conjuncts; empty queries count every record.
    pub atoms: Vec<QueryAtom>,
}

impl Query {
    /// Exact COUNT on the original table.
    pub fn count(&self, table: &RtTable) -> u64 {
        let mut count = 0u64;
        'rows: for row in 0..table.n_rows() {
            for atom in &self.atoms {
                match atom {
                    QueryAtom::Rel { attr, values } => {
                        let v = table.value(row, *attr).0;
                        if values.binary_search(&v).is_err() {
                            continue 'rows;
                        }
                    }
                    QueryAtom::Items { items } => {
                        let tx = table.transaction(row);
                        for it in items {
                            if tx.binary_search(it).is_err() {
                                continue 'rows;
                            }
                        }
                    }
                }
            }
            count += 1;
        }
        count
    }

    /// Estimated COUNT on anonymized data.
    ///
    /// `rel_hierarchy(attr)` / `tx_hierarchy` supply hierarchies for
    /// node-recoded columns. Attributes absent from `anon.rel` are
    /// assumed published unchanged and answered exactly from `table`.
    ///
    /// Each relational atom on an anonymized column is prepared once,
    /// before the row loop: it resolves its column, asks
    /// `rel_hierarchy` once, and tabulates for every entry of the
    /// column's generalized domain the match factor
    /// `hits as f64 / s as f64` (`s` the entry's leaf count, `hits` the
    /// queried values it covers; 0.0 when `s` is 0). A row then costs
    /// one `factor[cells[row]]` multiply per such atom. The factor is
    /// the very quotient a per-row evaluation would compute, and atoms
    /// multiply in query order with the same zero early exit, so the
    /// estimate is bit-identical to evaluating every row from scratch.
    pub fn estimate(
        &self,
        table: &RtTable,
        anon: &AnonTable,
        rel_hierarchy: &impl Fn(usize) -> Option<Hierarchy>,
        tx_hierarchy: Option<&Hierarchy>,
    ) -> f64 {
        let atoms: Vec<_> = self
            .atoms
            .iter()
            .map(|atom| Prepared::new(atom, anon, rel_hierarchy))
            .collect();
        let mut total = 0.0;
        for row in 0..anon.n_rows {
            let mut p = 1.0f64;
            for atom in &atoms {
                if p == 0.0 {
                    break;
                }
                match atom {
                    Prepared::Tabulated { cells, factor } => {
                        p *= factor[cells[row] as usize];
                    }
                    Prepared::Unchanged { attr, values } => {
                        let v = table.value(row, *attr).0;
                        if values.binary_search(&v).is_err() {
                            p = 0.0;
                        }
                    }
                    Prepared::Items { items } => match &anon.tx {
                        Some(tx) => {
                            let row_items = tx.row_items(row);
                            let mult = tx.row_multiplicity(row);
                            for queried in *items {
                                if tx.suppressed.binary_search(queried).is_ok() {
                                    p = 0.0;
                                    break;
                                }
                                // probability the queried item is among
                                // this row's original items
                                let mut pa = 0.0f64;
                                for (pos, &g) in row_items.iter().enumerate() {
                                    let entry = &tx.domain[g as usize];
                                    if entry.covers(queried.0, tx_hierarchy) {
                                        let s = entry.leaf_count(tx_hierarchy).max(1);
                                        pa = (mult[pos] as f64 / s as f64).min(1.0);
                                        break;
                                    }
                                }
                                p *= pa;
                                if p == 0.0 {
                                    break;
                                }
                            }
                        }
                        None => {
                            // transaction attribute published unchanged
                            let tx_orig = table.transaction(row);
                            for it in *items {
                                if tx_orig.binary_search(it).is_err() {
                                    p = 0.0;
                                    break;
                                }
                            }
                        }
                    },
                }
            }
            total += p;
        }
        total
    }
}

/// A [`QueryAtom`] made ready for the row loop of [`Query::estimate`].
enum Prepared<'a> {
    /// Relational atom on an anonymized column: `factor[g]` is the
    /// probability that a row published with generalized value `g`
    /// satisfies the atom.
    Tabulated { cells: &'a [u32], factor: Vec<f64> },
    /// Relational atom on an attribute published unchanged.
    Unchanged { attr: usize, values: &'a [u32] },
    /// Transaction atom.
    Items { items: &'a [ItemId] },
}

impl<'a> Prepared<'a> {
    fn new(
        atom: &'a QueryAtom,
        anon: &'a AnonTable,
        rel_hierarchy: &impl Fn(usize) -> Option<Hierarchy>,
    ) -> Self {
        match atom {
            QueryAtom::Rel { attr, values } => match anon.rel_column(*attr) {
                Some(col) => {
                    let h = rel_hierarchy(*attr);
                    let factor = col
                        .domain
                        .iter()
                        .map(|entry| {
                            let s = entry.leaf_count(h.as_ref());
                            if s == 0 {
                                return 0.0;
                            }
                            let hits = values
                                .iter()
                                .filter(|&&v| entry.covers(v, h.as_ref()))
                                .count();
                            hits as f64 / s as f64
                        })
                        .collect();
                    Prepared::Tabulated {
                        cells: &col.cells,
                        factor,
                    }
                }
                None => Prepared::Unchanged {
                    attr: *attr,
                    values,
                },
            },
            QueryAtom::Items { items } => Prepared::Items { items },
        }
    }
}

/// A named set of queries (the Queries Editor document).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Workload {
    /// The queries.
    pub queries: Vec<Query>,
}

impl Workload {
    /// Exact answers on the original table.
    pub fn counts(&self, table: &RtTable) -> Vec<u64> {
        self.queries.iter().map(|q| q.count(table)).collect()
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True when the workload holds no queries.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }
}

/// ARE of `anon` against the original `table` for `workload`.
///
/// `|exact - estimate| / max(exact, 1)` averaged over queries; 0.0 for
/// an empty workload.
///
/// Queries are evaluated in contiguous chunks across the caller's
/// thread budget (`secreta_parallel::par_chunks`), one [`Query::count`]
/// and one [`Query::estimate`] each, so `rel_hierarchy` is called once
/// per relational atom on an anonymized column, never per row (the
/// estimate tabulates one match factor per generalized value; see
/// there). The per-query errors are then summed sequentially in query
/// order, which keeps the result bit-identical to the sequential loop
/// at every budget.
pub fn average_relative_error(
    table: &RtTable,
    anon: &AnonTable,
    workload: &Workload,
    rel_hierarchy: impl Fn(usize) -> Option<Hierarchy> + Sync,
    tx_hierarchy: Option<&Hierarchy>,
) -> f64 {
    if workload.is_empty() {
        return 0.0;
    }
    // one query is a full table scan: worth a thread of its own
    let errors = secreta_parallel::par_chunks(workload.len(), 1, |lo, hi| {
        workload.queries[lo..hi]
            .iter()
            .map(|q| {
                let exact = q.count(table) as f64;
                let est = q.estimate(table, anon, &rel_hierarchy, tx_hierarchy);
                (exact - est).abs() / exact.max(1.0)
            })
            .collect::<Vec<f64>>()
    });
    errors.iter().flatten().sum::<f64>() / workload.len() as f64
}

/// Parse a workload in the Queries Editor file format: one query per
/// line, `;`-separated atoms, each `attr=value|value...`; the
/// transaction attribute's values are items separated by spaces.
///
/// ```text
/// Age=30|41;Items=milk bread
/// Education=BSc
/// Items=beer
/// ```
pub fn read_workload<R: Read>(reader: R, table: &RtTable) -> Result<Workload, DataError> {
    let schema = table.schema();
    let tx_idx = schema.transaction_index();
    let mut queries = Vec::new();
    for (lineno, line) in BufReader::new(reader).lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() || line.trim_start().starts_with('#') {
            continue;
        }
        let mut atoms = Vec::new();
        for part in line.split(';') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (name, rhs) = part.split_once('=').ok_or_else(|| {
                DataError::Invalid(format!("line {}: atom {part:?} lacks '='", lineno + 1))
            })?;
            let name = name.trim();
            let attr = schema
                .index_of(name)
                .ok_or_else(|| DataError::UnknownAttribute(name.to_owned()))?;
            if Some(attr) == tx_idx {
                let pool = table.item_pool().expect("tx index implies pool");
                let mut items = Vec::new();
                for token in rhs.split_whitespace() {
                    let id = pool.get(token).ok_or_else(|| {
                        DataError::Invalid(format!("line {}: unknown item {token:?}", lineno + 1))
                    })?;
                    items.push(ItemId(id));
                }
                items.sort_unstable();
                items.dedup();
                atoms.push(QueryAtom::Items { items });
            } else {
                let pool = table.pool(attr);
                let mut values = Vec::new();
                for token in rhs.split('|') {
                    let token = token.trim();
                    let id = pool.get(token).ok_or_else(|| {
                        DataError::Invalid(format!(
                            "line {}: unknown value {token:?} for {name:?}",
                            lineno + 1
                        ))
                    })?;
                    values.push(id);
                }
                values.sort_unstable();
                values.dedup();
                atoms.push(QueryAtom::Rel { attr, values });
            }
        }
        queries.push(Query { atoms });
    }
    Ok(Workload { queries })
}

/// Serialize a workload in the Queries Editor format (Data Export
/// Module).
pub fn write_workload<W: Write>(
    workload: &Workload,
    table: &RtTable,
    writer: &mut W,
) -> Result<(), DataError> {
    let schema = table.schema();
    for q in &workload.queries {
        let mut parts = Vec::new();
        for atom in &q.atoms {
            match atom {
                QueryAtom::Rel { attr, values } => {
                    let name = &schema.attribute(*attr).expect("attr in range").name;
                    let pool = table.pool(*attr);
                    let vals: Vec<&str> = values.iter().map(|&v| pool.resolve(v)).collect();
                    parts.push(format!("{name}={}", vals.join("|")));
                }
                QueryAtom::Items { items } => {
                    let tx = schema
                        .transaction_index()
                        .expect("Items atom implies tx attribute");
                    let name = &schema.attribute(tx).expect("attr in range").name;
                    let pool = table.item_pool().expect("tx pool");
                    let toks: Vec<&str> = items.iter().map(|it| pool.resolve(it.0)).collect();
                    parts.push(format!("{name}={}", toks.join(" ")));
                }
            }
        }
        writeln!(writer, "{}", parts.join(";"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anon::{rel_column_from_value_map, AnonTransaction, GenEntry};
    use secreta_data::{Attribute, Schema};

    fn table() -> RtTable {
        let schema = Schema::new(vec![
            Attribute::numeric("Age"),
            Attribute::transaction("Items"),
        ])
        .unwrap();
        let mut t = RtTable::new(schema);
        t.push_row(&["30"], &["a", "b"]).unwrap(); // ids: a=0 b=1
        t.push_row(&["41"], &["a"]).unwrap();
        t.push_row(&["30"], &["b", "c"]).unwrap(); // c=2
        t.push_row(&["55"], &["c"]).unwrap();
        t
    }

    fn q_rel(attr: usize, values: Vec<u32>) -> Query {
        Query {
            atoms: vec![QueryAtom::Rel { attr, values }],
        }
    }

    fn q_items(items: Vec<u32>) -> Query {
        Query {
            atoms: vec![QueryAtom::Items {
                items: items.into_iter().map(ItemId).collect(),
            }],
        }
    }

    #[test]
    fn exact_counts() {
        let t = table();
        assert_eq!(q_rel(0, vec![0]).count(&t), 2); // Age=30
        assert_eq!(q_rel(0, vec![0, 1]).count(&t), 3); // Age in {30,41}
        assert_eq!(q_items(vec![0]).count(&t), 2); // contains a
        assert_eq!(q_items(vec![0, 1]).count(&t), 1); // contains a and b
        assert_eq!(Query { atoms: vec![] }.count(&t), 4);
        let conj = Query {
            atoms: vec![
                QueryAtom::Rel {
                    attr: 0,
                    values: vec![0],
                },
                QueryAtom::Items {
                    items: vec![ItemId(1)],
                },
            ],
        };
        assert_eq!(conj.count(&t), 2); // Age=30 AND contains b
    }

    #[test]
    fn identity_estimate_matches_exact() {
        let t = table();
        let a = AnonTable::identity(&t, &[0]);
        for q in [
            q_rel(0, vec![0]),
            q_items(vec![0]),
            q_items(vec![0, 1]),
            Query { atoms: vec![] },
        ] {
            let exact = q.count(&t) as f64;
            let est = q.estimate(&t, &a, &|_| None, None);
            assert!((exact - est).abs() < 1e-9, "{q:?}: {exact} vs {est}");
        }
        let w = Workload {
            queries: vec![q_rel(0, vec![0]), q_items(vec![2])],
        };
        assert_eq!(average_relative_error(&t, &a, &w, |_| None, None), 0.0);
    }

    #[test]
    fn generalized_rel_estimate_uses_uniformity() {
        let t = table();
        // Age domain {30,41,55} -> one gen value covering all three
        let age = rel_column_from_value_map(&t, 0, |_| GenEntry::set(vec![0, 1, 2]));
        let a = AnonTable {
            rel: vec![age],
            tx: None,
            n_rows: 4,
        };
        // Age=30: each row matches with p=1/3 -> estimate 4/3
        let est = q_rel(0, vec![0]).estimate(&t, &a, &|_| None, None);
        assert!((est - 4.0 / 3.0).abs() < 1e-9, "got {est}");
        // Age in all values: p = 1 per row
        let est_all = q_rel(0, vec![0, 1, 2]).estimate(&t, &a, &|_| None, None);
        assert!((est_all - 4.0).abs() < 1e-9);
    }

    #[test]
    fn generalized_items_estimate_uses_multiplicity() {
        let t = table();
        // merge a,b,c into one gen item of size 3
        let dom = vec![GenEntry::set(vec![0, 1, 2])];
        let tx = AnonTransaction::from_mapping(&t, dom, |_| Some(0));
        let a = AnonTable {
            rel: vec![],
            tx: Some(tx),
            n_rows: 4,
        };
        // query: contains a. rows 0,2 merged 2 items -> p=2/3;
        // rows 1,3 merged 1 item -> p=1/3. total = 2*(2/3)+2*(1/3) = 2.0
        let est = q_items(vec![0]).estimate(&t, &a, &|_| None, None);
        assert!((est - 2.0).abs() < 1e-9, "got {est}");
    }

    #[test]
    fn suppressed_item_estimates_zero() {
        let t = table();
        let dom = vec![GenEntry::Set(vec![0]), GenEntry::Set(vec![1])];
        let tx =
            AnonTransaction::from_mapping(&t, dom, |it| if it.0 < 2 { Some(it.0) } else { None });
        let a = AnonTable {
            rel: vec![],
            tx: Some(tx),
            n_rows: 4,
        };
        let est = q_items(vec![2]).estimate(&t, &a, &|_| None, None);
        assert_eq!(est, 0.0);
        // ARE for that query is |2 - 0| / 2 = 1
        let w = Workload {
            queries: vec![q_items(vec![2])],
        };
        let are = average_relative_error(&t, &a, &w, |_| None, None);
        assert!((are - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_count_queries_use_sanity_floor() {
        let t = table();
        let a = AnonTable::identity(&t, &[0]);
        // Age=55 AND contains a: exact 0, estimate 0 -> ARE 0
        let q = Query {
            atoms: vec![
                QueryAtom::Rel {
                    attr: 0,
                    values: vec![2],
                },
                QueryAtom::Items {
                    items: vec![ItemId(0)],
                },
            ],
        };
        let w = Workload { queries: vec![q] };
        assert_eq!(average_relative_error(&t, &a, &w, |_| None, None), 0.0);
    }

    #[test]
    fn unanonymized_attributes_answered_exactly() {
        let t = table();
        // anonymize nothing; tx absent from anon; query both parts
        let a = AnonTable {
            rel: vec![],
            tx: None,
            n_rows: 4,
        };
        let q = Query {
            atoms: vec![
                QueryAtom::Rel {
                    attr: 0,
                    values: vec![0],
                },
                QueryAtom::Items {
                    items: vec![ItemId(1)],
                },
            ],
        };
        let est = q.estimate(&t, &a, &|_| None, None);
        assert_eq!(est, 2.0);
    }

    #[test]
    fn workload_file_roundtrip() {
        let t = table();
        let src = "Age=30|41;Items=a b\nItems=c\n# comment\nAge=55\n";
        let w = read_workload(src.as_bytes(), &t).unwrap();
        assert_eq!(w.len(), 3);
        assert_eq!(w.counts(&t), vec![1, 2, 1]);
        let mut buf = Vec::new();
        write_workload(&w, &t, &mut buf).unwrap();
        let w2 = read_workload(buf.as_slice(), &t).unwrap();
        assert_eq!(w, w2);
    }

    #[test]
    fn workload_parse_errors() {
        let t = table();
        assert!(read_workload("Nope=3\n".as_bytes(), &t).is_err());
        assert!(read_workload("Age=999\n".as_bytes(), &t).is_err());
        assert!(read_workload("Items=zzz\n".as_bytes(), &t).is_err());
        assert!(read_workload("Age 30\n".as_bytes(), &t).is_err());
    }

    #[test]
    fn node_recoded_estimates() {
        use secreta_data::AttributeKind;
        use secreta_hierarchy::auto_hierarchy;
        let t = table();
        let h = auto_hierarchy(t.pool(0), AttributeKind::Numeric, 2).unwrap();
        let root = h.root();
        let age = rel_column_from_value_map(&t, 0, |_| GenEntry::Node(root));
        let a = AnonTable {
            rel: vec![age],
            tx: None,
            n_rows: 4,
        };
        let est = q_rel(0, vec![0]).estimate(&t, &a, &|_| Some(h.clone()), None);
        assert!((est - 4.0 / 3.0).abs() < 1e-9);
    }
}
