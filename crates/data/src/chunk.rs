//! Chunked columnar ingest with an enforced memory budget.
//!
//! The in-memory [`RtTable`] path buffers every raw CSV field before
//! interning, so its transient footprint is dominated by strings the
//! table itself will never keep. This module streams records in
//! fixed-size **row chunks** instead: each chunk interns into small
//! per-chunk pools, and when the chunk seals its local symbols are
//! merged into the global pools and its ids rewritten. Because chunks
//! seal in order and a [`ValuePool`] assigns ids in first-seen order,
//! the merged pools and rewritten ids are *identical* to what
//! row-by-row global interning would have produced — materializing a
//! [`ChunkedTable`] via [`ChunkedTable::into_table`] yields a table
//! byte-identical to [`crate::csv::read_table`]'s.
//!
//! Every allocation the chunked path retains is charged against a
//! [`MemoryBudget`]. When the budget would be exceeded the ingest
//! fails with the typed [`DataError::BudgetExceeded`] instead of
//! letting the process grow until the OOM killer takes it; callers
//! (the CLI's degraded path) turn that into exit code 3.

use crate::csv::{read_records, CsvOptions, RecordSink};
use crate::error::DataError;
use crate::schema::Schema;
use crate::table::{check_row_shape, sort_dedup_tail, RtTable, TxChunk};
use crate::value::{ItemId, ValueId, ValuePool};
use std::io::{BufReader, Read};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Default rows per chunk when neither the caller nor the
/// `SECRETA_CHUNK_ROWS` environment variable says otherwise.
pub const DEFAULT_CHUNK_ROWS: usize = 8192;

/// 0 = unset; resolved lazily against the environment.
static CHUNK_ROWS: AtomicUsize = AtomicUsize::new(0);

/// Process-global chunk size in rows, resolved in precedence order:
/// [`set_chunk_rows`] override, the `SECRETA_CHUNK_ROWS` environment
/// variable, then [`DEFAULT_CHUNK_ROWS`].
pub fn chunk_rows() -> usize {
    let v = CHUNK_ROWS.load(Ordering::Relaxed);
    if v != 0 {
        return v;
    }
    let resolved = std::env::var("SECRETA_CHUNK_ROWS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(DEFAULT_CHUNK_ROWS);
    CHUNK_ROWS.store(resolved, Ordering::Relaxed);
    resolved
}

/// Override the process-global chunk size (0 is coerced to 1).
pub fn set_chunk_rows(rows: usize) {
    CHUNK_ROWS.store(rows.max(1), Ordering::Relaxed);
}

/// An accounted memory budget. Charges are deterministic estimates
/// (see [`ValuePool::estimated_bytes`] for the symbol formula; ids
/// cost 4 bytes each), so a run that exceeds its budget does so
/// reproducibly — unlike RSS, which depends on the allocator and on
/// what else the process has done.
#[derive(Debug, Clone, Default)]
pub struct MemoryBudget {
    limit: Option<u64>,
    charged: u64,
    peak: u64,
}

impl MemoryBudget {
    /// No limit; accounting still runs so peak usage is reported.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Budget of `limit` bytes.
    pub fn bytes(limit: u64) -> Self {
        Self {
            limit: Some(limit),
            charged: 0,
            peak: 0,
        }
    }

    /// Budget of `mb` megabytes (the CLI's `--memory-budget` unit).
    pub fn megabytes(mb: u64) -> Self {
        Self::bytes(mb.saturating_mul(1024 * 1024))
    }

    /// The configured limit, if any.
    pub fn limit(&self) -> Option<u64> {
        self.limit
    }

    /// Currently charged bytes.
    pub fn charged(&self) -> u64 {
        self.charged
    }

    /// High-water mark of charged bytes.
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// Charge `bytes`, failing with [`DataError::BudgetExceeded`] when
    /// the limit would be crossed.
    pub(crate) fn charge(&mut self, bytes: u64) -> Result<(), DataError> {
        let needed = self.charged.saturating_add(bytes);
        if let Some(limit) = self.limit {
            if needed > limit {
                return Err(DataError::BudgetExceeded {
                    budget_bytes: limit,
                    needed_bytes: needed,
                });
            }
        }
        self.charged = needed;
        self.peak = self.peak.max(needed);
        Ok(())
    }

    /// Return `bytes` to the budget (freed allocation).
    pub(crate) fn release(&mut self, bytes: u64) {
        self.charged = self.charged.saturating_sub(bytes);
    }
}

/// Counters describing one chunked ingest; flushed to the obsv layer
/// as the `chunk/*` and `budget/*` counter families.
#[derive(Debug, Clone, Default)]
pub struct ChunkStats {
    /// Sealed chunks.
    pub chunks: u64,
    /// Rows ingested.
    pub rows: u64,
    /// Symbols interned into per-chunk local pools (sum over chunks).
    pub local_symbols: u64,
    /// Symbols newly added to the global pools at chunk merges.
    pub merged_symbols: u64,
    /// Local→global id rewrites performed at chunk seals.
    pub remapped_ids: u64,
    /// High-water mark of accounted bytes.
    pub peak_accounted_bytes: u64,
    /// The enforced budget, if one was set.
    pub budget_bytes: Option<u64>,
}

/// One sealed chunk of consecutive rows, holding globally-interned
/// ids: relational columns in relational-attribute order and the
/// transaction column as a chunk-local CSR pair.
#[derive(Debug, Clone)]
pub struct RowChunk {
    start: usize,
    /// One column per *relational* attribute (schema order).
    columns: Vec<Vec<ValueId>>,
    /// Chunk-local CSR offsets (`n_rows + 1` entries, first 0); empty
    /// when the schema has no transaction attribute.
    tx_offsets: Vec<u32>,
    tx_items: Vec<ItemId>,
    n_rows: usize,
}

impl RowChunk {
    /// Global index of the chunk's first row.
    pub fn start(&self) -> usize {
        self.start
    }

    /// Rows in this chunk.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Column of the `rel_pos`-th relational attribute.
    pub fn column(&self, rel_pos: usize) -> &[ValueId] {
        &self.columns[rel_pos]
    }

    /// Transaction items of the chunk-local row `local` (sorted,
    /// duplicate-free, global ids).
    #[inline]
    pub fn transaction(&self, local: usize) -> &[ItemId] {
        if self.tx_offsets.is_empty() {
            return &[];
        }
        let lo = self.tx_offsets[local] as usize;
        let hi = self.tx_offsets[local + 1] as usize;
        &self.tx_items[lo..hi]
    }

    /// View the chunk's transactions as a [`TxChunk`] — the same
    /// block shape [`crate::RtTable::tx_chunks`] yields, so kernel
    /// builds that walk transaction blocks accept sealed chunks and
    /// materialized tables interchangeably. The chunk-local CSR
    /// offsets index the chunk's own item buffer directly.
    pub fn as_tx_chunk(&self) -> TxChunk<'_> {
        TxChunk::from_raw(self.start, self.n_rows, &self.tx_offsets, &self.tx_items)
    }

    /// Accounted bytes of the chunk's id buffers.
    fn accounted_bytes(&self) -> u64 {
        let cols: u64 = self.columns.iter().map(|c| 4 * c.len() as u64).sum();
        cols + 4 * (self.tx_offsets.len() as u64 + self.tx_items.len() as u64)
    }
}

/// How rows are being pushed; the two modes cannot be mixed because
/// string pushes carry chunk-local ids until the seal while id pushes
/// carry global ids immediately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PushMode {
    /// [`ChunkedTable::push_row`]: textual fields, per-chunk interning.
    Strs,
    /// [`ChunkedTable::push_row_ids`]: pre-interned global ids.
    Ids,
}

/// The open (not yet sealed) chunk.
#[derive(Debug)]
struct ChunkBuilder {
    start: usize,
    /// One small interner per attribute (parallel to the table's
    /// global pools); unused in [`PushMode::Ids`].
    local_pools: Vec<ValuePool>,
    columns: Vec<Vec<ValueId>>,
    tx_offsets: Vec<u32>,
    tx_items: Vec<ItemId>,
    n_rows: usize,
}

impl ChunkBuilder {
    fn new(start: usize, n_attrs: usize, n_rel: usize, has_tx: bool) -> Self {
        Self {
            start,
            local_pools: vec![ValuePool::new(); n_attrs],
            columns: vec![Vec::new(); n_rel],
            tx_offsets: if has_tx { vec![0] } else { Vec::new() },
            tx_items: Vec::new(),
            n_rows: 0,
        }
    }
}

/// A dataset ingested chunk-by-chunk under a [`MemoryBudget`].
///
/// The table holds the global interned pools plus a vector of sealed
/// [`RowChunk`]s; [`ChunkedTable::into_table`] drains the chunks into
/// an [`RtTable`] that is byte-identical to what the in-memory reader
/// would have produced from the same input.
#[derive(Debug)]
pub struct ChunkedTable {
    schema: Schema,
    pools: Vec<ValuePool>,
    chunks: Vec<RowChunk>,
    chunk_rows: usize,
    n_rows: usize,
    stats: ChunkStats,
    budget: MemoryBudget,
    open: Option<ChunkBuilder>,
    mode: Option<PushMode>,
}

impl ChunkedTable {
    /// Empty chunked table over `schema`; chunks seal every
    /// `chunk_rows` rows (0 is coerced to 1).
    pub fn new(schema: Schema, chunk_rows: usize, budget: MemoryBudget) -> Self {
        Self {
            schema,
            pools: Vec::new(),
            chunks: Vec::new(),
            chunk_rows: chunk_rows.max(1),
            n_rows: 0,
            stats: ChunkStats::default(),
            budget,
            open: None,
            mode: None,
        }
        .init_pools()
    }

    fn init_pools(mut self) -> Self {
        self.pools = vec![ValuePool::new(); self.schema.len()];
        self
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Rows pushed so far (sealed or open).
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// True when no rows have been pushed.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Rows per chunk.
    pub fn chunk_rows(&self) -> usize {
        self.chunk_rows
    }

    /// Global value pool (domain) of attribute `attr`.
    pub fn pool(&self, attr: usize) -> &ValuePool {
        &self.pools[attr]
    }

    /// Global item pool of the transaction attribute, if present.
    pub fn item_pool(&self) -> Option<&ValuePool> {
        self.schema.transaction_index().map(|i| &self.pools[i])
    }

    /// Number of distinct items seen so far.
    pub fn item_universe(&self) -> usize {
        self.item_pool().map_or(0, ValuePool::len)
    }

    /// Sealed chunks. Call [`ChunkedTable::finish`] first if rows may
    /// still be sitting in the open chunk.
    pub fn chunks(&self) -> &[RowChunk] {
        &self.chunks
    }

    /// Ingest counters, with the budget figures filled in.
    pub fn stats(&self) -> ChunkStats {
        let mut s = self.stats.clone();
        s.peak_accounted_bytes = self.budget.peak();
        s.budget_bytes = self.budget.limit();
        s
    }

    /// The budget and its accounting state.
    pub fn budget(&self) -> &MemoryBudget {
        &self.budget
    }

    /// Currently accounted bytes.
    pub fn accounted_bytes(&self) -> u64 {
        self.budget.charged()
    }

    /// Transaction of a row in a *sealed* chunk (sorted, duplicate
    /// free, global ids). Panics on rows still in the open chunk —
    /// call [`ChunkedTable::finish`] first.
    #[inline]
    pub fn transaction(&self, row: usize) -> &[ItemId] {
        let chunk = &self.chunks[row / self.chunk_rows];
        chunk.transaction(row % self.chunk_rows)
    }

    fn set_mode(&mut self, mode: PushMode) -> Result<(), DataError> {
        match self.mode {
            None => {
                self.mode = Some(mode);
                Ok(())
            }
            Some(m) if m == mode => Ok(()),
            Some(_) => Err(DataError::Invalid(
                "cannot mix push_row and push_row_ids on one ChunkedTable".into(),
            )),
        }
    }

    /// Append a record given textual relational values (in relational
    /// attribute order) and textual transaction items. Values are
    /// interned into the open chunk's local pools; global merge
    /// happens when the chunk seals.
    pub fn push_row(&mut self, rel_values: &[&str], items: &[&str]) -> Result<(), DataError> {
        self.push_fields(rel_values.iter().copied(), items.iter().copied())
    }

    /// The open chunk, started if there is none.
    fn open_chunk(&mut self) -> ChunkBuilder {
        self.open.take().unwrap_or_else(|| {
            ChunkBuilder::new(
                self.n_rows,
                self.schema.len(),
                self.schema.relational().count(),
                self.schema.transaction_index().is_some(),
            )
        })
    }

    /// Commit the row staged at the end of `b`'s buffers, sealing the
    /// chunk when it is full.
    fn commit_row(&mut self, mut b: ChunkBuilder) -> Result<(), DataError> {
        if self.schema.transaction_index().is_some() {
            b.tx_offsets.push(b.tx_items.len() as u32);
        }
        b.n_rows += 1;
        let full = b.n_rows >= self.chunk_rows;
        self.open = Some(b);
        self.n_rows += 1;
        self.stats.rows += 1;
        if full {
            self.seal()?;
        }
        Ok(())
    }

    /// Intern a value into the *global* pool of relational attribute
    /// `attr`. Generators pre-populate domains this way before
    /// pushing with [`ChunkedTable::push_row_ids`].
    pub fn intern_value(&mut self, attr: usize, value: &str) -> Result<ValueId, DataError> {
        let a = self
            .schema
            .attribute(attr)
            .ok_or(DataError::AttributeIndex(attr))?;
        if !a.kind.is_relational() {
            return Err(DataError::NotRelational(a.name.clone()));
        }
        let before = self.pools[attr].len();
        let id = self.pools[attr].intern(value);
        if self.pools[attr].len() > before {
            self.budget.charge(2 * value.len() as u64 + 64)?;
        }
        Ok(ValueId(id))
    }

    /// Intern an item into the global item pool.
    pub fn intern_item(&mut self, item: &str) -> Result<ItemId, DataError> {
        let tx = self
            .schema
            .transaction_index()
            .ok_or_else(|| DataError::Invalid("schema has no transaction attribute".into()))?;
        let before = self.pools[tx].len();
        let id = self.pools[tx].intern(item);
        if self.pools[tx].len() > before {
            self.budget.charge(2 * item.len() as u64 + 64)?;
        }
        Ok(ItemId(id))
    }

    /// Append a record from already-interned *global* ids (generator
    /// path); every id must exist in the corresponding global pool.
    pub fn push_row_ids(
        &mut self,
        rel_values: &[ValueId],
        items: &[ItemId],
    ) -> Result<(), DataError> {
        self.set_mode(PushMode::Ids)?;
        let tx = self.schema.transaction_index();
        check_row_shape(
            &self.schema,
            rel_values.len(),
            tx.is_none() && !items.is_empty(),
        )?;
        for (attr, v) in self.schema.relational().zip(rel_values) {
            if v.index() >= self.pools[attr].len() {
                return Err(DataError::Invalid(format!(
                    "value id {v} not interned in attribute {}",
                    self.schema.attribute(attr).expect("attr in range").name
                )));
            }
        }
        if let Some(txi) = tx {
            let universe = self.pools[txi].len();
            if items.iter().any(|it| it.index() >= universe) {
                return Err(DataError::Invalid("item id not interned".into()));
            }
        }
        let mut b = self.open_chunk();
        let tx_start = b.tx_items.len();
        if tx.is_some() {
            b.tx_items.extend_from_slice(items);
            sort_dedup_tail(&mut b.tx_items, tx_start);
        }
        let n_items = (b.tx_items.len() - tx_start) as u64;
        let id_bytes = 4 * rel_values.len() as u64 + 4 * (n_items + u64::from(tx.is_some()));
        if let Err(e) = self.budget.charge(id_bytes) {
            b.tx_items.truncate(tx_start);
            self.open = Some(b);
            return Err(e);
        }
        for (col, &id) in b.columns.iter_mut().zip(rel_values) {
            col.push(id);
        }
        self.commit_row(b)
    }

    /// Seal the open chunk: merge its local pools into the global
    /// pools (in local-id order, which preserves global first-seen
    /// order) and rewrite its ids from local to global.
    fn seal(&mut self) -> Result<(), DataError> {
        let mut b = match self.open.take() {
            Some(b) if b.n_rows > 0 => b,
            _ => return Ok(()),
        };
        if self.mode == Some(PushMode::Strs) {
            let rel_idx = self.schema.relational_indices();
            let tx = self.schema.transaction_index();
            let mut local_symbols = 0u64;
            let mut scratch_bytes = 0u64;
            // merge each local pool, charging only globally-new symbols
            let mut remaps: Vec<Vec<u32>> = Vec::with_capacity(self.pools.len());
            for (attr, local) in b.local_pools.iter().enumerate() {
                local_symbols += local.len() as u64;
                scratch_bytes += local.estimated_bytes();
                let global = &mut self.pools[attr];
                let mut remap = Vec::with_capacity(local.len());
                for (_, s) in local.iter() {
                    let before = global.len();
                    let gid = global.intern(s);
                    if global.len() > before {
                        self.budget.charge(2 * s.len() as u64 + 64)?;
                        self.stats.merged_symbols += 1;
                    }
                    remap.push(gid);
                }
                remaps.push(remap);
            }
            // rewrite relational columns
            for (pos, &attr) in rel_idx.iter().enumerate() {
                let remap = &remaps[attr];
                for v in &mut b.columns[pos] {
                    *v = ValueId(remap[v.0 as usize]);
                }
                self.stats.remapped_ids += b.columns[pos].len() as u64;
            }
            // rewrite transaction items, then restore per-row sort
            // order under the new (global) ids
            if let Some(txi) = tx {
                let remap = &remaps[txi];
                for it in &mut b.tx_items {
                    *it = ItemId(remap[it.0 as usize]);
                }
                self.stats.remapped_ids += b.tx_items.len() as u64;
                for w in b.tx_offsets.windows(2) {
                    let (lo, hi) = (w[0] as usize, w[1] as usize);
                    b.tx_items[lo..hi].sort_unstable();
                }
            }
            self.stats.local_symbols += local_symbols;
            // the local interner scratch is dropped with the builder
            self.budget.release(scratch_bytes);
        }
        self.stats.chunks += 1;
        self.chunks.push(RowChunk {
            start: b.start,
            columns: b.columns,
            tx_offsets: b.tx_offsets,
            tx_items: b.tx_items,
            n_rows: b.n_rows,
        });
        Ok(())
    }

    /// Seal the open chunk (if any); call after the last push and
    /// before reading chunks or materializing.
    pub fn finish(&mut self) -> Result<(), DataError> {
        self.seal()
    }

    /// Reclassify all-numeric categorical attributes as numeric (the
    /// single-pass replacement for the CLI's probe-and-reread type
    /// detection; same rule as [`crate::stats::summarize`]).
    pub fn reclassify_numeric(&mut self) {
        let tx_idx = self.schema.transaction_index();
        for attr in 0..self.schema.len() {
            if Some(attr) == tx_idx {
                continue;
            }
            let pool = &self.pools[attr];
            if self.n_rows > 0
                && !pool.is_empty()
                && pool.iter().all(|(_, v)| v.parse::<f64>().is_ok())
            {
                self.schema
                    .set_kind(attr, crate::schema::AttributeKind::Numeric);
            }
        }
    }

    /// Materialize the full [`RtTable`], draining chunks as their data
    /// is copied so the accounted peak stays near table-plus-one-chunk
    /// rather than double the table. The result is byte-identical to
    /// the in-memory reader's table for the same input.
    pub fn into_table(mut self) -> Result<RtTable, DataError> {
        self.finish()?;
        let rel_idx = self.schema.relational_indices();
        let has_tx = self.schema.transaction_index().is_some();
        let mut columns: Vec<Vec<ValueId>> = vec![Vec::new(); self.schema.len()];
        let mut tx_offsets: Vec<u32> = if has_tx { vec![0] } else { Vec::new() };
        let mut tx_items: Vec<ItemId> = Vec::new();
        for chunk in std::mem::take(&mut self.chunks) {
            let bytes = chunk.accounted_bytes();
            // the copy is transiently charged on top of the original
            self.budget.charge(bytes)?;
            for (pos, &attr) in rel_idx.iter().enumerate() {
                columns[attr].extend_from_slice(&chunk.columns[pos]);
            }
            if has_tx {
                let base = tx_items.len() as u32;
                tx_items.extend_from_slice(&chunk.tx_items);
                tx_offsets.extend(chunk.tx_offsets.iter().skip(1).map(|&o| o + base));
            }
            drop(chunk);
            self.budget.release(bytes);
        }
        self.stats.peak_accounted_bytes = self.budget.peak();
        self.stats.budget_bytes = self.budget.limit();
        Ok(RtTable::from_parts(
            self.schema,
            self.pools,
            columns,
            tx_offsets,
            tx_items,
            self.n_rows,
        ))
    }
}

impl RecordSink for ChunkedTable {
    fn push_fields<'v>(
        &mut self,
        rel_values: impl ExactSizeIterator<Item = &'v str>,
        mut items: impl Iterator<Item = &'v str>,
    ) -> Result<(), DataError> {
        self.set_mode(PushMode::Strs)?;
        let tx = self.schema.transaction_index();
        check_row_shape(
            &self.schema,
            rel_values.len(),
            tx.is_none() && items.next().is_some(),
        )?;

        // Stage the row at the end of the open chunk's buffers,
        // interning into its local pools to learn the cost (each *new*
        // local symbol plus the id storage), and only commit it once
        // the budget admits it.
        let mut b = self.open_chunk();
        let mut new_symbol_bytes = 0u64;
        for ((pos, attr), value) in self.schema.relational().enumerate().zip(rel_values) {
            let pool = &mut b.local_pools[attr];
            let before = pool.len();
            let id = pool.intern(value);
            if pool.len() > before {
                new_symbol_bytes += 2 * value.len() as u64 + 64;
            }
            b.columns[pos].push(ValueId(id));
        }
        let tx_start = b.tx_items.len();
        if let Some(txi) = tx {
            let pool = &mut b.local_pools[txi];
            for s in items {
                let before = pool.len();
                let id = pool.intern(s);
                if pool.len() > before {
                    new_symbol_bytes += 2 * s.len() as u64 + 64;
                }
                b.tx_items.push(ItemId(id));
            }
            sort_dedup_tail(&mut b.tx_items, tx_start);
        }
        let n_items = (b.tx_items.len() - tx_start) as u64;
        let id_bytes = 4 * b.columns.len() as u64 + 4 * (n_items + u64::from(tx.is_some()));
        if let Err(e) = self.budget.charge(new_symbol_bytes + id_bytes) {
            for col in &mut b.columns {
                col.truncate(b.n_rows);
            }
            b.tx_items.truncate(tx_start);
            self.open = Some(b);
            return Err(e);
        }
        self.commit_row(b)
    }
}

/// Stream a dataset from any reader into a [`ChunkedTable`], sealing
/// a chunk every `chunk_rows` rows and charging every retained byte
/// against `budget`. Parsing goes through the same record reader as
/// [`crate::csv::read_table`], so CRLF endings,
/// quoted fields containing delimiters or newlines, and a final row
/// without a trailing newline all parse identically on both paths.
pub fn read_chunked<R: Read>(
    reader: R,
    opts: &CsvOptions,
    chunk_rows: usize,
    budget: MemoryBudget,
) -> Result<ChunkedTable, DataError> {
    let mut t = read_records(BufReader::new(reader), opts, |schema| {
        ChunkedTable::new(schema, chunk_rows, budget)
    })?;
    t.finish()?;
    Ok(t)
}

/// [`read_chunked`] from a file path; failures are wrapped in
/// [`DataError::InFile`] so the message names the file.
pub fn read_chunked_path(
    path: impl AsRef<Path>,
    opts: &CsvOptions,
    chunk_rows: usize,
    budget: MemoryBudget,
) -> Result<ChunkedTable, DataError> {
    let path = path.as_ref();
    let in_file = |e: DataError| DataError::InFile {
        path: path.to_path_buf(),
        error: Box::new(e),
    };
    let file = std::fs::File::open(path).map_err(|e| in_file(e.into()))?;
    read_chunked(file, opts, chunk_rows, budget).map_err(in_file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv::read_table;
    use crate::schema::Attribute;

    const SAMPLE: &str = "Age,Edu,Items\n30,BSc,milk bread\n41,MSc,beer\n30,BSc,bread milk\n\
                          22,BSc,milk\n41,PhD,beer wine\n19,MSc,wine\n";

    fn rt_opts() -> CsvOptions {
        CsvOptions {
            numeric_columns: vec!["Age".into()],
            ..CsvOptions::with_transaction("Items")
        }
    }

    fn assert_tables_identical(a: &RtTable, b: &RtTable) {
        assert_eq!(a.n_rows(), b.n_rows());
        assert_eq!(a.schema().len(), b.schema().len());
        for attr in 0..a.schema().len() {
            assert_eq!(
                a.schema().attribute(attr).unwrap().kind,
                b.schema().attribute(attr).unwrap().kind
            );
            let (pa, pb) = (a.pool(attr), b.pool(attr));
            assert_eq!(
                pa.iter().collect::<Vec<_>>(),
                pb.iter().collect::<Vec<_>>(),
                "pool {attr} diverged"
            );
        }
        for row in 0..a.n_rows() {
            for &attr in &a.schema().relational_indices() {
                assert_eq!(a.value(row, attr), b.value(row, attr), "row {row}");
            }
            assert_eq!(a.transaction(row), b.transaction(row), "row {row} tx");
        }
    }

    #[test]
    fn chunked_matches_in_memory_at_every_chunk_size() {
        let reference = read_table(SAMPLE.as_bytes(), &rt_opts()).unwrap();
        for chunk_rows in [1, 2, 3, 4, 100] {
            let chunked = read_chunked(
                SAMPLE.as_bytes(),
                &rt_opts(),
                chunk_rows,
                MemoryBudget::unlimited(),
            )
            .unwrap();
            assert_eq!(chunked.n_rows(), 6);
            let t = chunked.into_table().unwrap();
            assert_tables_identical(&reference, &t);
        }
    }

    #[test]
    fn chunked_handles_edge_case_csv_identically() {
        // CRLF, quoted delimiter, quoted newline, no trailing newline
        let src = "Name,Items\r\n\"Doe, John\",a b\r\n\"two\nlines\",c\r\nplain,a";
        let opts = CsvOptions::with_transaction("Items");
        let reference = read_table(src.as_bytes(), &opts).unwrap();
        assert_eq!(reference.n_rows(), 3);
        assert_eq!(reference.value_str(1, 0), "two\nlines");
        for chunk_rows in [1, 2, 64] {
            let t = read_chunked(src.as_bytes(), &opts, chunk_rows, MemoryBudget::unlimited())
                .unwrap()
                .into_table()
                .unwrap();
            assert_tables_identical(&reference, &t);
        }
    }

    #[test]
    fn transactions_sorted_by_global_ids_after_remap() {
        // "bread milk" in row 3 re-orders under global ids interned
        // from row 1; with chunk_rows=1 every row remaps
        let chunked =
            read_chunked(SAMPLE.as_bytes(), &rt_opts(), 1, MemoryBudget::unlimited()).unwrap();
        for row in 0..chunked.n_rows() {
            let tx = chunked.transaction(row);
            assert!(tx.windows(2).all(|w| w[0] < w[1]), "row {row} unsorted");
        }
    }

    #[test]
    fn stats_count_merges_and_remaps() {
        let chunked =
            read_chunked(SAMPLE.as_bytes(), &rt_opts(), 2, MemoryBudget::unlimited()).unwrap();
        let stats = chunked.stats();
        assert_eq!(stats.rows, 6);
        assert_eq!(stats.chunks, 3);
        assert!(stats.local_symbols >= stats.merged_symbols);
        // global pools hold exactly the merged symbols
        let global: u64 = (0..3).map(|a| chunked.pool(a).len() as u64).sum();
        assert_eq!(stats.merged_symbols, global);
        assert!(stats.peak_accounted_bytes > 0);
        assert_eq!(stats.budget_bytes, None);
    }

    #[test]
    fn budget_exceeded_is_typed_and_deterministic() {
        let needed_of =
            |budget| match read_chunked(SAMPLE.as_bytes(), &rt_opts(), 2, budget).unwrap_err() {
                DataError::BudgetExceeded {
                    budget_bytes,
                    needed_bytes,
                } => {
                    assert_eq!(budget_bytes, 64);
                    assert!(needed_bytes > 64);
                    needed_bytes
                }
                other => panic!("unexpected error {other:?}"),
            };
        // the same input and budget fail at the same accounted byte
        // count every time — accounting is deterministic, not
        // allocator-dependent
        let a = needed_of(MemoryBudget::bytes(64));
        let b = needed_of(MemoryBudget::bytes(64));
        assert_eq!(a, b);
    }

    #[test]
    fn generous_budget_admits_and_reports_peak() {
        let chunked = read_chunked(
            SAMPLE.as_bytes(),
            &rt_opts(),
            2,
            MemoryBudget::megabytes(16),
        )
        .unwrap();
        let stats = chunked.stats();
        assert_eq!(stats.budget_bytes, Some(16 * 1024 * 1024));
        assert!(stats.peak_accounted_bytes < 16 * 1024 * 1024);
        chunked.into_table().unwrap();
    }

    #[test]
    fn push_row_ids_generator_path() {
        let schema = Schema::new(vec![
            Attribute::numeric("Age"),
            Attribute::transaction("Items"),
        ])
        .unwrap();
        let mut c = ChunkedTable::new(schema.clone(), 2, MemoryBudget::unlimited());
        let v30 = c.intern_value(0, "30").unwrap();
        let v41 = c.intern_value(0, "41").unwrap();
        let ia = c.intern_item("a").unwrap();
        let ib = c.intern_item("b").unwrap();
        c.push_row_ids(&[v30], &[ib, ia, ib]).unwrap();
        c.push_row_ids(&[v41], &[ia]).unwrap();
        c.push_row_ids(&[v30], &[]).unwrap();
        c.finish().unwrap();
        assert_eq!(c.chunks().len(), 2);
        assert_eq!(c.transaction(0), &[ia, ib]);

        // identical to the same pushes on an RtTable
        let mut t = RtTable::new(schema);
        let _ = (t.intern_value(0, "30"), t.intern_value(0, "41"));
        let _ = (t.intern_item("a"), t.intern_item("b"));
        t.push_row_ids(&[v30], &[ib, ia, ib]).unwrap();
        t.push_row_ids(&[v41], &[ia]).unwrap();
        t.push_row_ids(&[v30], &[]).unwrap();
        assert_tables_identical(&t, &c.into_table().unwrap());
    }

    #[test]
    fn push_modes_cannot_mix() {
        let schema = Schema::new(vec![Attribute::categorical("A")]).unwrap();
        let mut c = ChunkedTable::new(schema, 4, MemoryBudget::unlimited());
        c.push_row(&["x"], &[]).unwrap();
        let v = ValueId(0);
        assert!(c.push_row_ids(&[v], &[]).is_err());
    }

    #[test]
    fn reclassify_numeric_matches_probe_rule() {
        let opts = CsvOptions::with_transaction("Items"); // no numeric annotation
        let mut chunked =
            read_chunked(SAMPLE.as_bytes(), &opts, 4, MemoryBudget::unlimited()).unwrap();
        chunked.reclassify_numeric();
        use crate::schema::AttributeKind;
        assert_eq!(
            chunked.schema().attribute(0).unwrap().kind,
            AttributeKind::Numeric,
            "Age is all-numeric"
        );
        assert_eq!(
            chunked.schema().attribute(1).unwrap().kind,
            AttributeKind::Categorical,
            "Edu stays categorical"
        );
        assert_eq!(
            chunked.schema().attribute(2).unwrap().kind,
            AttributeKind::Transaction
        );
    }

    #[test]
    fn chunk_rows_env_and_override() {
        // the override always wins and 0 is coerced
        set_chunk_rows(0);
        assert_eq!(chunk_rows(), 1);
        set_chunk_rows(512);
        assert_eq!(chunk_rows(), 512);
        set_chunk_rows(DEFAULT_CHUNK_ROWS);
        assert_eq!(chunk_rows(), DEFAULT_CHUNK_ROWS);
    }

    #[test]
    fn empty_inputs_rejected_like_in_memory() {
        let opts = CsvOptions::default();
        assert!(matches!(
            read_chunked("".as_bytes(), &opts, 4, MemoryBudget::unlimited()),
            Err(DataError::EmptyInput)
        ));
        // header-only is a valid empty table
        let t = read_chunked("A,B\n".as_bytes(), &opts, 4, MemoryBudget::unlimited())
            .unwrap()
            .into_table()
            .unwrap();
        assert_eq!(t.n_rows(), 0);
    }

    #[test]
    fn path_errors_name_the_file() {
        let err = read_chunked_path(
            "/nonexistent/data.csv",
            &CsvOptions::default(),
            4,
            MemoryBudget::unlimited(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("/nonexistent/data.csv"));
    }
}
