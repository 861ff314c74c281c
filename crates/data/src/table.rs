//! Column-oriented RT-dataset table.
//!
//! [`RtTable`] stores each relational attribute as a dense column of
//! interned [`ValueId`]s and the (optional) transaction attribute in
//! CSR form (an offsets array plus a flat, per-row-sorted item
//! buffer). This keeps the hot loops of every anonymization algorithm
//! — equivalence-class grouping, itemset support counting — on
//! contiguous integer memory.

use crate::csv::RecordSink;
use crate::error::DataError;
use crate::schema::{AttributeKind, Schema};
use crate::value::{ItemId, ValueId, ValuePool};

/// An RT-dataset: records with relational and/or transaction parts.
///
/// ```
/// use secreta_data::{Attribute, RtTable, Schema};
///
/// let schema = Schema::new(vec![
///     Attribute::numeric("Age"),
///     Attribute::transaction("Items"),
/// ])?;
/// let mut table = RtTable::new(schema);
/// table.push_row(&["34"], &["milk", "bread"])?;
/// table.push_row(&["57"], &["beer"])?;
///
/// assert_eq!(table.n_rows(), 2);
/// assert_eq!(table.value_str(0, 0), "34");
/// assert_eq!(table.transaction_strs(1), vec!["beer"]);
/// assert_eq!(table.item_universe(), 3);
/// # Ok::<(), secreta_data::DataError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct RtTable {
    schema: Schema,
    /// One pool per attribute; the transaction attribute's pool interns
    /// the item universe.
    pools: Vec<ValuePool>,
    /// One column per attribute; the transaction attribute's column
    /// stays empty (its data lives in the CSR buffers below).
    columns: Vec<Vec<ValueId>>,
    /// CSR offsets (`n_rows + 1` entries) into `tx_items`; empty when
    /// the schema has no transaction attribute.
    tx_offsets: Vec<u32>,
    /// Flat item buffer; each row's slice is sorted and duplicate-free.
    tx_items: Vec<ItemId>,
    n_rows: usize,
}

impl Default for Schema {
    fn default() -> Self {
        Schema::new(Vec::new()).expect("empty schema is valid")
    }
}

/// A borrowed view of one record.
#[derive(Debug, Clone, Copy)]
pub struct RowRef<'a> {
    table: &'a RtTable,
    row: usize,
}

impl<'a> RowRef<'a> {
    /// Row index within the table.
    pub fn index(&self) -> usize {
        self.row
    }

    /// Interned value of relational attribute `attr`.
    pub fn value(&self, attr: usize) -> ValueId {
        self.table.value(self.row, attr)
    }

    /// Items of the transaction attribute (empty slice when absent).
    pub fn transaction(&self) -> &'a [ItemId] {
        self.table.transaction(self.row)
    }
}

/// A zero-copy view of the transactions of a block of consecutive
/// rows, yielded by [`RtTable::tx_chunks`]. Kernel construction
/// iterates these instead of issuing one random access per row, which
/// keeps the CSR walk sequential and cache-resident.
#[derive(Debug, Clone, Copy)]
pub struct TxChunk<'a> {
    start: usize,
    n_rows: usize,
    /// Absolute CSR offsets for rows `start..start + n_rows` (length
    /// `n_rows + 1`); empty when the schema has no transaction
    /// attribute.
    offsets: &'a [u32],
    /// The table's full item buffer (offsets are absolute).
    items: &'a [ItemId],
}

impl<'a> TxChunk<'a> {
    pub(crate) fn from_raw(
        start: usize,
        n_rows: usize,
        offsets: &'a [u32],
        items: &'a [ItemId],
    ) -> TxChunk<'a> {
        TxChunk {
            start,
            n_rows,
            offsets,
            items,
        }
    }

    /// Global index of the chunk's first row.
    pub fn start(&self) -> usize {
        self.start
    }

    /// Rows in this chunk.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Transaction of the chunk-local row `local` (empty when the
    /// schema has no transaction attribute).
    #[inline]
    pub fn transaction(&self, local: usize) -> &'a [ItemId] {
        if self.offsets.is_empty() {
            return &[];
        }
        let lo = self.offsets[local] as usize;
        let hi = self.offsets[local + 1] as usize;
        &self.items[lo..hi]
    }

    /// Iterate `(global_row, transaction)` pairs.
    pub fn rows(&self) -> impl Iterator<Item = (usize, &'a [ItemId])> + '_ {
        (0..self.n_rows).map(move |local| (self.start + local, self.transaction(local)))
    }
}

impl RtTable {
    /// Empty table over `schema`.
    pub fn new(schema: Schema) -> Self {
        let n = schema.len();
        let has_tx = schema.transaction_index().is_some();
        Self {
            schema,
            pools: vec![ValuePool::new(); n],
            columns: vec![Vec::new(); n],
            tx_offsets: if has_tx { vec![0] } else { Vec::new() },
            tx_items: Vec::new(),
            n_rows: 0,
        }
    }

    /// Assemble a table directly from pre-built columnar parts. Used
    /// by the chunked ingest ([`crate::chunk::ChunkedTable`]) to
    /// materialize without re-interning; callers guarantee the parts
    /// are mutually consistent (dense ids, sorted/deduped CSR rows).
    pub(crate) fn from_parts(
        schema: Schema,
        pools: Vec<ValuePool>,
        columns: Vec<Vec<ValueId>>,
        tx_offsets: Vec<u32>,
        tx_items: Vec<ItemId>,
        n_rows: usize,
    ) -> Self {
        Self {
            schema,
            pools,
            columns,
            tx_offsets,
            tx_items,
            n_rows,
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Reclassify relational attributes whose every value parses as a
    /// number from categorical to numeric, mirroring the detection
    /// rule of [`crate::stats::summarize`]. The chunked load path uses
    /// this to type columns after a single streaming pass instead of
    /// re-reading the file.
    pub fn reclassify_numeric(&mut self) {
        let tx_idx = self.schema.transaction_index();
        for attr in 0..self.schema.len() {
            if Some(attr) == tx_idx || self.columns[attr].is_empty() {
                continue;
            }
            let pool = &self.pools[attr];
            let numeric = !pool.is_empty() && pool.iter().all(|(_, v)| v.parse::<f64>().is_ok());
            if numeric {
                self.schema.set_kind(attr, AttributeKind::Numeric);
            }
        }
    }

    /// Number of records.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// True when the table holds no records.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Value pool (domain) of attribute `attr`.
    pub fn pool(&self, attr: usize) -> &ValuePool {
        &self.pools[attr]
    }

    /// Item pool of the transaction attribute, if present.
    pub fn item_pool(&self) -> Option<&ValuePool> {
        self.schema.transaction_index().map(|i| &self.pools[i])
    }

    /// Number of distinct items seen in the transaction attribute.
    pub fn item_universe(&self) -> usize {
        self.item_pool().map_or(0, ValuePool::len)
    }

    /// Number of distinct values of relational attribute `attr`.
    pub fn domain_size(&self, attr: usize) -> usize {
        self.pools[attr].len()
    }

    /// Interned value of relational attribute `attr` in `row`.
    ///
    /// Panics if `attr` is the transaction attribute or out of range;
    /// those are programming errors, not data errors.
    #[inline]
    pub fn value(&self, row: usize, attr: usize) -> ValueId {
        self.columns[attr][row]
    }

    /// Textual value of relational attribute `attr` in `row`.
    pub fn value_str(&self, row: usize, attr: usize) -> &str {
        self.pools[attr].resolve(self.value(row, attr).0)
    }

    /// Whole relational column `attr`.
    pub fn column(&self, attr: usize) -> &[ValueId] {
        &self.columns[attr]
    }

    /// The sorted, duplicate-free item slice of `row`'s transaction
    /// (empty when the schema has no transaction attribute).
    #[inline]
    pub fn transaction(&self, row: usize) -> &[ItemId] {
        if self.tx_offsets.is_empty() {
            return &[];
        }
        let lo = self.tx_offsets[row] as usize;
        let hi = self.tx_offsets[row + 1] as usize;
        &self.tx_items[lo..hi]
    }

    /// Textual items of `row`'s transaction.
    pub fn transaction_strs(&self, row: usize) -> Vec<&str> {
        let pool = match self.item_pool() {
            Some(p) => p,
            None => return Vec::new(),
        };
        self.transaction(row)
            .iter()
            .map(|it| pool.resolve(it.0))
            .collect()
    }

    /// Iterate all records.
    pub fn rows(&self) -> impl Iterator<Item = RowRef<'_>> {
        (0..self.n_rows).map(move |row| RowRef { table: self, row })
    }

    /// Iterate the transaction column in blocks of `chunk_rows`
    /// consecutive rows (the final chunk may be shorter). Panics if
    /// `chunk_rows` is zero.
    pub fn tx_chunks(&self, chunk_rows: usize) -> impl Iterator<Item = TxChunk<'_>> {
        assert!(chunk_rows > 0, "chunk_rows must be positive");
        let n = self.n_rows;
        (0..n).step_by(chunk_rows).map(move |start| {
            let len = chunk_rows.min(n - start);
            TxChunk {
                start,
                n_rows: len,
                offsets: if self.tx_offsets.is_empty() {
                    &[]
                } else {
                    &self.tx_offsets[start..start + len + 1]
                },
                items: &self.tx_items,
            }
        })
    }

    /// Iterate relational column `attr` in blocks of `chunk_rows`
    /// values, paired with the global index of each block's first row.
    pub fn column_chunks(
        &self,
        attr: usize,
        chunk_rows: usize,
    ) -> impl Iterator<Item = (usize, &[ValueId])> {
        assert!(chunk_rows > 0, "chunk_rows must be positive");
        self.columns[attr]
            .chunks(chunk_rows)
            .enumerate()
            .map(move |(i, block)| (i * chunk_rows, block))
    }

    /// Deterministic estimate of the table's heap footprint in bytes:
    /// the columnar buffers at 4 bytes per id plus the interned pools
    /// (see [`ValuePool::estimated_bytes`]). Used for memory-budget
    /// accounting, where a reproducible figure matters more than
    /// allocator-exact truth.
    pub fn estimated_bytes(&self) -> u64 {
        let cols: u64 = self.columns.iter().map(|c| 4 * c.len() as u64).sum();
        let csr = 4 * (self.tx_offsets.len() as u64 + self.tx_items.len() as u64);
        let pools: u64 = self.pools.iter().map(ValuePool::estimated_bytes).sum();
        cols + csr + pools
    }

    /// Append a record given textual relational values (in relational
    /// attribute order) and textual transaction items.
    pub fn push_row(&mut self, rel_values: &[&str], items: &[&str]) -> Result<(), DataError> {
        self.push_fields(rel_values.iter().copied(), items.iter().copied())
    }

    /// Append a record from already-interned ids. `rel_values` must be
    /// in relational attribute order and every id must already exist in
    /// the corresponding pool; `items` likewise. Used by generators.
    pub fn push_row_ids(
        &mut self,
        rel_values: &[ValueId],
        items: &[ItemId],
    ) -> Result<(), DataError> {
        let tx = self.schema.transaction_index();
        check_row_shape(
            &self.schema,
            rel_values.len(),
            tx.is_none() && !items.is_empty(),
        )?;
        for (attr, &v) in self.schema.relational().zip(rel_values) {
            if v.index() >= self.pools[attr].len() {
                return Err(DataError::Invalid(format!(
                    "value id {v} not interned in attribute {}",
                    self.schema.attribute(attr).expect("attr in range").name
                )));
            }
        }
        if let Some(tx) = tx {
            let universe = self.pools[tx].len();
            if items.iter().any(|it| it.index() >= universe) {
                return Err(DataError::Invalid("item id not interned".into()));
            }
            let start = self.tx_items.len();
            self.tx_items.extend_from_slice(items);
            sort_dedup_tail(&mut self.tx_items, start);
            self.tx_offsets.push(self.tx_items.len() as u32);
        }
        for (attr, &v) in self.schema.relational().zip(rel_values) {
            self.columns[attr].push(v);
        }
        self.n_rows += 1;
        Ok(())
    }

    /// Intern a value into attribute `attr`'s pool without touching any
    /// row. Generators pre-populate domains this way.
    pub fn intern_value(&mut self, attr: usize, value: &str) -> Result<ValueId, DataError> {
        let a = self
            .schema
            .attribute(attr)
            .ok_or(DataError::AttributeIndex(attr))?;
        if !a.kind.is_relational() {
            return Err(DataError::NotRelational(a.name.clone()));
        }
        Ok(ValueId(self.pools[attr].intern(value)))
    }

    /// Intern an item into the transaction attribute's pool.
    pub fn intern_item(&mut self, item: &str) -> Result<ItemId, DataError> {
        let tx = self
            .schema
            .transaction_index()
            .ok_or_else(|| DataError::Invalid("schema has no transaction attribute".into()))?;
        Ok(ItemId(self.pools[tx].intern(item)))
    }

    /// Remove record `row` (Dataset Editor operation). O(n) due to the
    /// CSR rebuild; editing is interactive-scale in SECRETA.
    pub fn remove_row(&mut self, row: usize) -> Result<(), DataError> {
        if row >= self.n_rows {
            return Err(DataError::RowIndex(row));
        }
        for col in &mut self.columns {
            if !col.is_empty() {
                col.remove(row);
            }
        }
        if !self.tx_offsets.is_empty() {
            let lo = self.tx_offsets[row] as usize;
            let hi = self.tx_offsets[row + 1] as usize;
            let removed = (hi - lo) as u32;
            self.tx_items.drain(lo..hi);
            self.tx_offsets.remove(row + 1);
            for off in self.tx_offsets.iter_mut().skip(row + 1) {
                *off -= removed;
            }
        }
        self.n_rows -= 1;
        Ok(())
    }

    /// Overwrite the relational cell `(row, attr)` with `value`,
    /// interning it if new (Dataset Editor operation).
    pub fn set_value(&mut self, row: usize, attr: usize, value: &str) -> Result<(), DataError> {
        if row >= self.n_rows {
            return Err(DataError::RowIndex(row));
        }
        let a = self
            .schema
            .attribute(attr)
            .ok_or(DataError::AttributeIndex(attr))?;
        if !a.kind.is_relational() {
            return Err(DataError::NotRelational(a.name.clone()));
        }
        let id = self.pools[attr].intern(value);
        self.columns[attr][row] = ValueId(id);
        Ok(())
    }

    /// Replace `row`'s transaction with `items` (Dataset Editor
    /// operation). O(n) CSR rebuild.
    pub fn set_transaction(&mut self, row: usize, items: &[&str]) -> Result<(), DataError> {
        if row >= self.n_rows {
            return Err(DataError::RowIndex(row));
        }
        let tx = self
            .schema
            .transaction_index()
            .ok_or_else(|| DataError::Invalid("schema has no transaction attribute".into()))?;
        let mut ids: Vec<ItemId> = items
            .iter()
            .map(|s| ItemId(self.pools[tx].intern(s)))
            .collect();
        ids.sort_unstable();
        ids.dedup();

        let lo = self.tx_offsets[row] as usize;
        let hi = self.tx_offsets[row + 1] as usize;
        let old_len = hi - lo;
        let delta = ids.len() as i64 - old_len as i64;
        self.tx_items.splice(lo..hi, ids);
        for off in self.tx_offsets.iter_mut().skip(row + 1) {
            *off = (*off as i64 + delta) as u32;
        }
        Ok(())
    }

    /// Add a relational attribute filled with `default` in every
    /// existing record (Dataset Editor operation).
    pub fn add_attribute(
        &mut self,
        name: &str,
        kind: AttributeKind,
        default: &str,
    ) -> Result<usize, DataError> {
        if kind == AttributeKind::Transaction {
            return Err(DataError::Invalid(
                "adding a transaction attribute to an existing table is unsupported".into(),
            ));
        }
        let idx = self
            .schema
            .push(crate::schema::Attribute::new(name, kind))?;
        let mut pool = ValuePool::new();
        let id = ValueId(pool.intern(default));
        self.pools.push(pool);
        self.columns.push(vec![id; self.n_rows]);
        Ok(idx)
    }

    /// Delete a relational attribute and its column (Dataset Editor
    /// operation). The transaction attribute cannot be deleted this
    /// way — its removal would change the dataset class.
    pub fn delete_attribute(&mut self, attr: usize) -> Result<(), DataError> {
        let a = self
            .schema
            .attribute(attr)
            .ok_or(DataError::AttributeIndex(attr))?;
        if !a.kind.is_relational() {
            return Err(DataError::NotRelational(a.name.clone()));
        }
        self.schema.remove(attr)?;
        self.pools.remove(attr);
        self.columns.remove(attr);
        Ok(())
    }

    /// Rename an attribute (delegates to the schema; Dataset Editor
    /// operation).
    pub fn rename_attribute(&mut self, attr: usize, new_name: &str) -> Result<(), DataError> {
        self.schema.rename(attr, new_name)
    }

    /// Rename a *domain value* of relational attribute `attr` in every
    /// record at once (Dataset Editor "edit attribute values").
    pub fn rename_value(&mut self, attr: usize, old: &str, new: &str) -> Result<(), DataError> {
        let a = self
            .schema
            .attribute(attr)
            .ok_or(DataError::AttributeIndex(attr))?;
        if !a.kind.is_relational() {
            return Err(DataError::NotRelational(a.name.clone()));
        }
        let id = self.pools[attr]
            .get(old)
            .ok_or_else(|| DataError::Invalid(format!("value {old:?} not present")))?;
        self.pools[attr].rename(id, new)
    }

    /// Total number of item occurrences across all transactions.
    pub fn total_items(&self) -> usize {
        self.tx_items.len()
    }

    /// Average transaction length, or 0.0 without a transaction
    /// attribute or rows.
    pub fn avg_transaction_len(&self) -> f64 {
        if self.n_rows == 0 || self.tx_offsets.is_empty() {
            0.0
        } else {
            self.tx_items.len() as f64 / self.n_rows as f64
        }
    }
}

impl RecordSink for RtTable {
    fn push_fields<'v>(
        &mut self,
        rel_values: impl ExactSizeIterator<Item = &'v str>,
        mut items: impl Iterator<Item = &'v str>,
    ) -> Result<(), DataError> {
        let tx = self.schema.transaction_index();
        check_row_shape(
            &self.schema,
            rel_values.len(),
            tx.is_none() && items.next().is_some(),
        )?;
        for (attr, value) in self.schema.relational().zip(rel_values) {
            let id = self.pools[attr].intern(value);
            self.columns[attr].push(ValueId(id));
        }
        if let Some(tx) = tx {
            let start = self.tx_items.len();
            for s in items {
                let id = self.pools[tx].intern(s);
                self.tx_items.push(ItemId(id));
            }
            sort_dedup_tail(&mut self.tx_items, start);
            self.tx_offsets.push(self.tx_items.len() as u32);
        }
        self.n_rows += 1;
        Ok(())
    }
}

/// Reject a pushed row whose relational value count does not match
/// `schema`, or that supplies items (`stray_items`) to a schema without
/// a transaction attribute.
pub(crate) fn check_row_shape(
    schema: &Schema,
    n_rel_values: usize,
    stray_items: bool,
) -> Result<(), DataError> {
    let n_rel = schema.relational().count();
    if n_rel_values != n_rel {
        return Err(DataError::Invalid(format!(
            "expected {n_rel} relational values, got {n_rel_values}"
        )));
    }
    if stray_items {
        return Err(DataError::Invalid(
            "schema has no transaction attribute but items were supplied".into(),
        ));
    }
    Ok(())
}

/// Sort `items[start..]`, one row's transaction, and drop its
/// duplicates in place.
pub(crate) fn sort_dedup_tail(items: &mut Vec<ItemId>, start: usize) {
    items[start..].sort_unstable();
    let mut kept = start;
    for i in start..items.len() {
        if kept == start || items[i] != items[kept - 1] {
            items[kept] = items[i];
            kept += 1;
        }
    }
    items.truncate(kept);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Attribute;

    fn rt_table() -> RtTable {
        let schema = Schema::new(vec![
            Attribute::numeric("Age"),
            Attribute::categorical("Edu"),
            Attribute::transaction("Items"),
        ])
        .unwrap();
        let mut t = RtTable::new(schema);
        t.push_row(&["30", "BSc"], &["milk", "bread"]).unwrap();
        t.push_row(&["41", "MSc"], &["beer"]).unwrap();
        t.push_row(&["30", "BSc"], &["bread", "milk", "milk"])
            .unwrap();
        t
    }

    #[test]
    fn push_and_read_back() {
        let t = rt_table();
        assert_eq!(t.n_rows(), 3);
        assert_eq!(t.value_str(0, 0), "30");
        assert_eq!(t.value_str(1, 1), "MSc");
        assert_eq!(t.transaction_strs(1), vec!["beer"]);
        assert_eq!(t.domain_size(0), 2);
        assert_eq!(t.item_universe(), 3);
    }

    #[test]
    fn transactions_are_sorted_and_deduped() {
        let t = rt_table();
        let tx = t.transaction(2);
        assert_eq!(tx.len(), 2, "duplicate 'milk' must collapse");
        assert!(tx.windows(2).all(|w| w[0] < w[1]));
        // rows 0 and 2 contain the same item set
        assert_eq!(t.transaction(0), t.transaction(2));
    }

    #[test]
    fn remove_row_fixes_offsets() {
        let mut t = rt_table();
        t.remove_row(0).unwrap();
        assert_eq!(t.n_rows(), 2);
        assert_eq!(t.transaction_strs(0), vec!["beer"]);
        assert_eq!(t.transaction(1).len(), 2);
        assert!(t.remove_row(5).is_err());
    }

    #[test]
    fn remove_last_row() {
        let mut t = rt_table();
        t.remove_row(2).unwrap();
        assert_eq!(t.n_rows(), 2);
        assert_eq!(t.total_items(), 3);
    }

    #[test]
    fn set_value_interns_new_values() {
        let mut t = rt_table();
        t.set_value(1, 0, "55").unwrap();
        assert_eq!(t.value_str(1, 0), "55");
        assert_eq!(t.domain_size(0), 3);
        assert!(t.set_value(0, 2, "x").is_err(), "tx attr is not relational");
        assert!(t.set_value(9, 0, "x").is_err());
    }

    #[test]
    fn set_transaction_rebuilds_csr() {
        let mut t = rt_table();
        t.set_transaction(0, &["wine", "beer", "wine"]).unwrap();
        assert_eq!(t.transaction_strs(0), vec!["beer", "wine"]);
        // later rows still intact
        assert_eq!(t.transaction_strs(1), vec!["beer"]);
        assert_eq!(t.transaction(2).len(), 2);
    }

    #[test]
    fn set_transaction_shrinking_and_growing() {
        let mut t = rt_table();
        t.set_transaction(1, &["a", "b", "c", "d"]).unwrap();
        assert_eq!(t.transaction(1).len(), 4);
        assert_eq!(t.transaction(2).len(), 2);
        t.set_transaction(1, &[]).unwrap();
        assert_eq!(t.transaction(1).len(), 0);
        assert_eq!(t.transaction(2).len(), 2);
    }

    #[test]
    fn add_and_delete_attribute() {
        let mut t = rt_table();
        let idx = t
            .add_attribute("Country", AttributeKind::Categorical, "GR")
            .unwrap();
        assert_eq!(t.value_str(0, idx), "GR");
        assert_eq!(t.schema().len(), 4);
        t.delete_attribute(idx).unwrap();
        assert_eq!(t.schema().len(), 3);
        assert!(t.delete_attribute(2).is_err(), "cannot delete tx attr");
    }

    #[test]
    fn rename_attribute_and_value() {
        let mut t = rt_table();
        t.rename_attribute(1, "Degree").unwrap();
        assert_eq!(t.schema().attribute(1).unwrap().name, "Degree");
        t.rename_value(1, "BSc", "Bachelor").unwrap();
        assert_eq!(t.value_str(0, 1), "Bachelor");
        assert!(t.rename_value(1, "PhD", "Doctor").is_err());
    }

    #[test]
    fn push_row_arity_checked() {
        let mut t = rt_table();
        assert!(t.push_row(&["30"], &[]).is_err());
    }

    #[test]
    fn relational_only_table_rejects_items() {
        let schema = Schema::new(vec![Attribute::numeric("Age")]).unwrap();
        let mut t = RtTable::new(schema);
        assert!(t.push_row(&["30"], &["x"]).is_err());
        t.push_row(&["30"], &[]).unwrap();
        assert_eq!(t.transaction(0), &[] as &[ItemId]);
        assert_eq!(t.avg_transaction_len(), 0.0);
    }

    #[test]
    fn push_row_ids_validates() {
        let mut t = rt_table();
        let v0 = t.intern_value(0, "30").unwrap();
        let v1 = t.intern_value(1, "BSc").unwrap();
        let it = t.intern_item("milk").unwrap();
        t.push_row_ids(&[v0, v1], &[it]).unwrap();
        assert_eq!(t.n_rows(), 4);
        assert!(t.push_row_ids(&[ValueId(99), v1], &[]).is_err());
        assert!(t.push_row_ids(&[v0, v1], &[ItemId(99)]).is_err());
    }

    #[test]
    fn rows_iterator_matches_direct_access() {
        let t = rt_table();
        for r in t.rows() {
            assert_eq!(r.value(0), t.value(r.index(), 0));
            assert_eq!(r.transaction(), t.transaction(r.index()));
        }
        assert_eq!(t.rows().count(), 3);
    }

    #[test]
    fn avg_transaction_len() {
        let t = rt_table();
        assert!((t.avg_transaction_len() - 5.0 / 3.0).abs() < 1e-12);
    }
}
