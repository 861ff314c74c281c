//! Shared support-counting kernels for the transaction algorithms.
//!
//! Every transaction algorithm in this crate is, at its core, a loop
//! of *support queries* — "in how many published transactions does
//! this itemset appear?" — interleaved with small recoding steps
//! (generalize one node, merge two groups, suppress one item). The
//! naive implementations recount the whole table from scratch on every
//! round, allocating a fresh `Vec` key per enumerated subset. This
//! module replaces that with three reusable kernels:
//!
//! * [`SupportMap`] — an **interned itemset counter**: sorted `u32`
//!   keys live in one flat arena, looked up by hashing the candidate
//!   slice directly, so counting a subset allocates nothing. Tokens
//!   (arena indices) are stable for the map's lifetime, which is what
//!   makes incremental maintenance and `(itemset, item)` pair keys
//!   cheap.
//! * [`InvertedIndex`] — a CSR **item → row-position index** built
//!   once per run. Recoding steps touch few items; the index turns
//!   "which transactions does this step affect?" and "which rows
//!   contain this whole image?" into posting-list unions and
//!   intersections instead of full-table scans. The index is
//!   **tiered** (see [`crate::bitmap`]): items whose postings density
//!   clears the [`crate::bitmap::density_threshold`] additionally
//!   carry a word-level [`crate::bitmap::Bitset`], and unions /
//!   intersections whose estimated result is dense run word-at-a-time
//!   instead of scalar-wise, with mixed bitmap×CSR intersections
//!   probing sparse positions against bitmap words.
//! * [`RowSupport`] / [`RuleCounts`] — **incremental, sharded
//!   counters** on top of the two: the initial count shards rows
//!   across `secreta-parallel` workers (per-shard maps merged in fixed
//!   shard order, so counts are identical at any thread count), and
//!   later rounds re-enumerate only the rows a recoding step dirtied.
//!
//! Determinism contract: kernel counts equal the sequential naive
//! counts key-for-key. Iteration *order* over a merged map may depend
//! on the thread count, so algorithm selection logic must be
//! order-independent (the crate's greedy selectors all use strict
//! total orders — see `apriori`'s move selection).
//!
//! The [`Counting`] switch keeps the naive implementations alive as
//! reference oracles: `anonymize_reference` entry points run them for
//! benchmarking (`secreta bench --suite tx`) and for the agreement
//! proptests in `tests/kernels.rs`.

use crate::bitmap::{Bitset, RowSet};
use crate::groups::ItemGroups;
use secreta_data::hash::{FxHashMap, FxHasher};
use secreta_data::{ChunkedTable, ItemId, RowChunk, RtTable, TxChunk};
use std::hash::Hasher;

pub use secreta_data::Counting;

/// Rows per shard below which sharded counting stays sequential;
/// subset enumeration is cheap enough that tiny shards would be pure
/// spawn overhead.
const MIN_ROWS_PER_SHARD: usize = 128;

/// Work counters accumulated by the kernels of one algorithm run,
/// flushed into the [`secreta_obsv`] recorder under the `support/`
/// prefix (see the counter registry in `docs/GUIDE.md`).
#[derive(Debug, Default, Clone, Copy)]
pub struct KernelStats {
    /// Rows re-enumerated by incremental update rounds.
    pub rows_reenumerated: u64,
    /// Rows an incremental round did *not* have to touch (the naive
    /// implementation would have re-enumerated these too).
    pub rows_skipped: u64,
    /// Distinct itemset keys interned across all support maps.
    pub interned_keys: u64,
    /// Per-shard partial maps merged into a global map.
    pub shard_merges: u64,
    /// Posting-list unions computed through an [`InvertedIndex`].
    pub posting_unions: u64,
    /// Items that received a dense bitmap at index build time.
    pub dense_items: u64,
    /// Items kept on CSR postings alone at index build time.
    pub sparse_items: u64,
    /// Unions routed through the dense (bitmap) tier.
    pub bitmap_unions: u64,
    /// Intersections with at least one dense operand (word-`AND` or
    /// bitmap-probe).
    pub bitmap_intersections: u64,
    /// Rows-per-item density histogram cached at index build time:
    /// items (with ≥ 1 posting) whose density is `< 0.1%`, `< 1%`,
    /// `< 10%`, and `≥ 10%` of the indexed rows.
    pub density_hist: [u64; 4],
}

impl KernelStats {
    /// Add `other`'s totals into `self`.
    pub fn absorb(&mut self, other: &KernelStats) {
        self.rows_reenumerated += other.rows_reenumerated;
        self.rows_skipped += other.rows_skipped;
        self.interned_keys += other.interned_keys;
        self.shard_merges += other.shard_merges;
        self.posting_unions += other.posting_unions;
        self.dense_items += other.dense_items;
        self.sparse_items += other.sparse_items;
        self.bitmap_unions += other.bitmap_unions;
        self.bitmap_intersections += other.bitmap_intersections;
        for (h, o) in self.density_hist.iter_mut().zip(other.density_hist) {
            *h += o;
        }
    }

    /// Record the tier split and density histogram of a freshly built
    /// [`InvertedIndex`] (call once per index build site).
    pub fn record_index(&mut self, index: &InvertedIndex) {
        self.dense_items += index.dense_items;
        self.sparse_items += index.sparse_items;
        for (h, o) in self.density_hist.iter_mut().zip(index.density_hist) {
            *h += o;
        }
    }

    /// Flush the totals as `support/*` counters into `recorder`.
    pub fn flush(&self, recorder: &secreta_obsv::Recorder) {
        recorder.count("support/rows_reenumerated", self.rows_reenumerated);
        recorder.count("support/rows_skipped", self.rows_skipped);
        recorder.count("support/interned_keys", self.interned_keys);
        recorder.count("support/shard_merges", self.shard_merges);
        recorder.count("support/posting_unions", self.posting_unions);
        recorder.count("support/dense_items", self.dense_items);
        recorder.count("support/sparse_items", self.sparse_items);
        recorder.count("support/bitmap_unions", self.bitmap_unions);
        recorder.count("support/bitmap_intersections", self.bitmap_intersections);
        recorder.count("support/density_lt_0_1pct", self.density_hist[0]);
        recorder.count("support/density_lt_1pct", self.density_hist[1]);
        recorder.count("support/density_lt_10pct", self.density_hist[2]);
        recorder.count("support/density_ge_10pct", self.density_hist[3]);
    }
}

fn hash_key(key: &[u32]) -> u64 {
    let mut h = FxHasher::default();
    h.write_usize(key.len());
    for &v in key {
        h.write_u32(v);
    }
    h.finish()
}

/// An interned multiset-of-itemsets counter.
///
/// Keys are sorted, duplicate-free `u32` slices. Each distinct key is
/// copied **once** into a flat arena and addressed by a stable token
/// (its insertion index); lookups hash the candidate slice in place,
/// so the per-subset cost of counting is a hash + probe with zero
/// heap allocation. Counts may be decremented (incremental rounds
/// subtract a dirty row's old subsets before adding its new ones);
/// keys whose count returns to zero stay interned and must be skipped
/// by readers.
#[derive(Debug, Default, Clone)]
pub struct SupportMap {
    arena: Vec<u32>,
    /// `(start, len)` of each token's key in `arena`, insertion order.
    spans: Vec<(u32, u32)>,
    counts: Vec<u32>,
    /// Open-addressing slot table; `0` = empty, else `token + 1`.
    slots: Vec<u32>,
}

impl SupportMap {
    /// An empty map.
    pub fn new() -> SupportMap {
        SupportMap::with_capacity(16)
    }

    /// An empty map pre-sized for about `cap` distinct keys.
    pub fn with_capacity(cap: usize) -> SupportMap {
        let slots = (cap.max(4) * 2).next_power_of_two();
        SupportMap {
            arena: Vec::new(),
            spans: Vec::with_capacity(cap),
            counts: Vec::with_capacity(cap),
            slots: vec![0; slots],
        }
    }

    /// Number of distinct interned keys (including zero-count ones).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when no key has ever been interned.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The key slice of `token`.
    pub fn key_of(&self, token: u32) -> &[u32] {
        let (start, len) = self.spans[token as usize];
        &self.arena[start as usize..(start + len) as usize]
    }

    /// The current count of `token`.
    pub fn count_of(&self, token: u32) -> u32 {
        self.counts[token as usize]
    }

    /// The token of `key`, if interned.
    pub fn token_of(&self, key: &[u32]) -> Option<u32> {
        let mask = self.slots.len() - 1;
        let mut idx = (hash_key(key) as usize) & mask;
        loop {
            let slot = self.slots[idx];
            if slot == 0 {
                return None;
            }
            let token = slot - 1;
            if self.key_of(token) == key {
                return Some(token);
            }
            idx = (idx + 1) & mask;
        }
    }

    /// The count of `key` (`None` when never interned).
    pub fn get(&self, key: &[u32]) -> Option<u32> {
        self.token_of(key).map(|t| self.count_of(t))
    }

    /// Intern `key` (count starts at 0) and/or add `delta` to its
    /// count; returns the stable token.
    pub fn add(&mut self, key: &[u32], delta: u32) -> u32 {
        let token = self.intern(key);
        self.counts[token as usize] += delta;
        token
    }

    /// Add a signed delta; the key must already be interned when
    /// `delta < 0` and the count must not underflow.
    pub fn add_signed(&mut self, key: &[u32], delta: i32) -> u32 {
        let token = self.intern(key);
        let c = &mut self.counts[token as usize];
        if delta >= 0 {
            *c += delta as u32;
        } else {
            debug_assert!(*c >= (-delta) as u32, "support underflow for {key:?}");
            *c -= (-delta) as u32;
        }
        token
    }

    /// Intern `key` without touching its count; returns the token.
    pub fn intern(&mut self, key: &[u32]) -> u32 {
        if self.spans.len() * 4 >= self.slots.len() * 3 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut idx = (hash_key(key) as usize) & mask;
        loop {
            let slot = self.slots[idx];
            if slot == 0 {
                let token = self.spans.len() as u32;
                let start = self.arena.len() as u32;
                self.arena.extend_from_slice(key);
                self.spans.push((start, key.len() as u32));
                self.counts.push(0);
                self.slots[idx] = token + 1;
                return token;
            }
            let token = slot - 1;
            if self.key_of(token) == key {
                return token;
            }
            idx = (idx + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let new_len = (self.slots.len() * 2).max(8);
        let mask = new_len - 1;
        let mut slots = vec![0u32; new_len];
        for token in 0..self.spans.len() as u32 {
            let mut idx = (hash_key(self.key_of(token)) as usize) & mask;
            while slots[idx] != 0 {
                idx = (idx + 1) & mask;
            }
            slots[idx] = token + 1;
        }
        self.slots = slots;
    }

    /// Iterate `(key, count)` in token (insertion) order, including
    /// zero-count entries.
    pub fn iter(&self) -> impl Iterator<Item = (&[u32], u32)> + '_ {
        (0..self.spans.len() as u32).map(|t| (self.key_of(t), self.count_of(t)))
    }

    /// Add every `(key, count)` of `other` into `self` (used to merge
    /// per-shard partial maps in fixed shard order).
    pub fn merge_from(&mut self, other: &SupportMap) {
        for (key, count) in other.iter() {
            self.add(key, count);
        }
    }
}

/// Invoke `f` on every sorted `size`-subset of `items` (sorted,
/// duplicate-free). Unlike `apriori::for_each_subset`, `size == 0`
/// yields the empty subset once — the ρ-uncertainty miners use it to
/// model prior (no-background-knowledge) disclosure.
pub fn for_each_subset_u32(items: &[u32], size: usize, f: &mut impl FnMut(&[u32])) {
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
    let mut cur = Vec::with_capacity(size);
    rec(items, size, 0, &mut cur, f);
}

/// Tiered CSR inverted index: item id → sorted positions (into the
/// run's row slice) of the rows whose transaction contains that item,
/// plus a dense [`Bitset`] tier for hot items (see [`crate::bitmap`]).
///
/// Built once per run over the *original* table — recoding never
/// changes which raw items a row contains, only their published
/// images, so the index stays valid for the whole run. The density
/// threshold is snapshotted at build time, so a run's tier split is
/// fixed even if the process-global override changes mid-run.
#[derive(Debug, Clone)]
pub struct InvertedIndex {
    offsets: Vec<u32>,
    postings: Vec<u32>,
    /// Rows the index was built over (the bitmap universe).
    n_rows: usize,
    /// Minimum postings length for an item to earn a bitmap; `None`
    /// when the dense tier is disabled (threshold > 1.0).
    hot_min: Option<usize>,
    /// Per-item bitmap, present iff `postings(item).len() >= hot_min`.
    hot: Vec<Option<Bitset>>,
    /// Items that received a bitmap at build time.
    dense_items: u64,
    /// Indexed items (≥ 1 posting) left on CSR postings alone.
    sparse_items: u64,
    /// Build-time rows-per-item density histogram (buckets of
    /// [`KernelStats::density_hist`]).
    density_hist: [u64; 4],
}

impl InvertedIndex {
    /// Build the index over `rows` (positions index into `rows`, not
    /// the table), keeping only items accepted by `relevant`.
    ///
    /// When `rows` is the whole table in order — the common case for
    /// per-run index construction — the build walks the CSR buffers
    /// chunk-by-chunk ([`RtTable::tx_chunks`]) instead of issuing one
    /// random access per row; arbitrary row subsets take the
    /// position-indexed path. Both produce identical indexes.
    pub fn build(
        table: &RtTable,
        rows: &[usize],
        universe: usize,
        relevant: impl Fn(ItemId) -> bool,
    ) -> InvertedIndex {
        let identity =
            rows.len() == table.n_rows() && rows.iter().enumerate().all(|(pos, &row)| pos == row);
        if identity {
            let chunk_rows = secreta_data::chunk::chunk_rows();
            return Self::from_tx_chunks(
                table.n_rows(),
                universe,
                || table.tx_chunks(chunk_rows),
                relevant,
            );
        }
        Self::from_fn(rows.len(), universe, |pos, buf| {
            buf.extend(
                table
                    .transaction(rows[pos])
                    .iter()
                    .copied()
                    .filter(|&it| relevant(it))
                    .map(|it| it.0),
            )
        })
    }

    /// Build the index from a re-iterable stream of [`TxChunk`]s (the
    /// two CSR passes each walk the stream once). This is how both
    /// the identity-rows [`InvertedIndex::build`] fast path and the
    /// no-materialization [`InvertedIndex::from_chunked`] build walk
    /// their data chunk-by-chunk.
    pub fn from_tx_chunks<'a, I: Iterator<Item = TxChunk<'a>>>(
        n_rows: usize,
        universe: usize,
        chunks: impl Fn() -> I,
        relevant: impl Fn(ItemId) -> bool,
    ) -> InvertedIndex {
        let mut counts = vec![0u32; universe];
        for chunk in chunks() {
            for (_, tx) in chunk.rows() {
                for &it in tx {
                    if relevant(it) {
                        counts[it.index()] += 1;
                    }
                }
            }
        }
        let mut offsets = Vec::with_capacity(universe + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for &c in &counts {
            acc += c;
            offsets.push(acc);
        }
        let mut slots = offsets.clone();
        let mut postings = vec![0u32; acc as usize];
        for chunk in chunks() {
            for (row, tx) in chunk.rows() {
                for &it in tx {
                    if relevant(it) {
                        let slot = slots[it.index()];
                        postings[slot as usize] = row as u32;
                        slots[it.index()] += 1;
                    }
                }
            }
        }
        Self::assemble(n_rows, offsets, postings)
    }

    /// Build the index directly over a [`ChunkedTable`]'s sealed
    /// chunks, without materializing an [`RtTable`] first. Positions
    /// are global row indices (the chunked table's row order).
    pub fn from_chunked(
        chunked: &ChunkedTable,
        relevant: impl Fn(ItemId) -> bool,
    ) -> InvertedIndex {
        Self::from_tx_chunks(
            chunked.n_rows(),
            chunked.item_universe(),
            || chunked.chunks().iter().map(RowChunk::as_tx_chunk),
            relevant,
        )
    }

    /// Build the index from an arbitrary row source: `fill(pos, buf)`
    /// writes row `pos`'s duplicate-free item-id list. This is the
    /// generic core behind [`InvertedIndex::build`]; other crates use
    /// it to index rows that are not raw [`RtTable`] transactions —
    /// `secreta-risk` indexes *published* (generalized) rows with it.
    pub fn from_fn(
        n_rows: usize,
        universe: usize,
        fill: impl Fn(usize, &mut Vec<u32>),
    ) -> InvertedIndex {
        let mut counts = vec![0u32; universe];
        let mut buf: Vec<u32> = Vec::new();
        for pos in 0..n_rows {
            buf.clear();
            fill(pos, &mut buf);
            for &it in &buf {
                counts[it as usize] += 1;
            }
        }
        let mut offsets = Vec::with_capacity(universe + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for &c in &counts {
            acc += c;
            offsets.push(acc);
        }
        let mut slots = offsets.clone();
        let mut postings = vec![0u32; acc as usize];
        for pos in 0..n_rows {
            buf.clear();
            fill(pos, &mut buf);
            for &it in &buf {
                let slot = slots[it as usize];
                postings[slot as usize] = pos as u32;
                slots[it as usize] += 1;
            }
        }
        Self::assemble(n_rows, offsets, postings)
    }

    /// Assemble the tiered index from filled CSR buffers: assign each
    /// indexed item to the bitmap or CSR tier by postings density and
    /// record the build-time density histogram. Shared tail of every
    /// build path.
    fn assemble(n_rows: usize, offsets: Vec<u32>, postings: Vec<u32>) -> InvertedIndex {
        let universe = offsets.len() - 1;
        let hot_min = dense_cutoff(n_rows);
        let mut dense_items = 0u64;
        let mut sparse_items = 0u64;
        let mut density_hist = [0u64; 4];
        let hot: Vec<Option<Bitset>> = (0..universe)
            .map(|item| {
                let p = &postings[offsets[item] as usize..offsets[item + 1] as usize];
                if p.is_empty() {
                    return None;
                }
                let density = p.len() as f64 / n_rows.max(1) as f64;
                let bucket = if density < 0.001 {
                    0
                } else if density < 0.01 {
                    1
                } else if density < 0.1 {
                    2
                } else {
                    3
                };
                density_hist[bucket] += 1;
                match hot_min {
                    Some(min) if p.len() >= min => {
                        dense_items += 1;
                        Some(Bitset::from_positions(p, n_rows))
                    }
                    _ => {
                        sparse_items += 1;
                        None
                    }
                }
            })
            .collect();
        InvertedIndex {
            offsets,
            postings,
            n_rows,
            hot_min,
            hot,
            dense_items,
            sparse_items,
            density_hist,
        }
    }

    /// Sorted row positions containing `item`.
    pub fn postings(&self, item: u32) -> &[u32] {
        &self.postings
            [self.offsets[item as usize] as usize..self.offsets[item as usize + 1] as usize]
    }

    /// Number of rows containing `item`.
    pub fn support(&self, item: u32) -> usize {
        self.postings(item).len()
    }

    /// Number of rows the index was built over.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// The dense-tier bitmap of `item`, if it earned one at build
    /// time.
    pub fn hot(&self, item: u32) -> Option<&Bitset> {
        self.hot.get(item as usize).and_then(Option::as_ref)
    }

    /// Sorted, duplicate-free union of the posting lists of `items`,
    /// written into `out`. When the estimated result is dense the
    /// union runs through a scratch bitmap (word-`OR` of hot items'
    /// bitsets, bit-sets for the tail) and is extracted back sorted —
    /// the output is identical either way.
    pub fn union_into(&self, items: impl IntoIterator<Item = u32>, out: &mut Vec<u32>) {
        match self.union_rowset(items, &mut KernelStats::default()) {
            RowSet::Sparse(v) => *out = v,
            RowSet::Dense(b) => b.to_sorted(out),
        }
    }

    /// Tiered union of the posting lists of `items`: `Dense` when the
    /// estimated cardinality (sum of postings lengths — an upper
    /// bound) clears the build-time density cutoff, `Sparse`
    /// (sort + dedup, the CSR path) otherwise. Both tiers denote the
    /// same row set. Tier work is tallied into `stats`.
    pub fn union_rowset(
        &self,
        items: impl IntoIterator<Item = u32>,
        stats: &mut KernelStats,
    ) -> RowSet {
        let items: Vec<u32> = items.into_iter().collect();
        let estimate: usize = items.iter().map(|&it| self.support(it)).sum();
        if let Some(min) = self.hot_min {
            if estimate >= min {
                let mut bits = Bitset::new(self.n_rows);
                for &it in &items {
                    match self.hot(it) {
                        Some(hot) => bits.union_with(hot),
                        None => bits.insert_all(self.postings(it)),
                    }
                }
                stats.bitmap_unions += 1;
                return RowSet::Dense(bits);
            }
        }
        let mut out: Vec<u32> = Vec::with_capacity(estimate);
        for &it in &items {
            out.extend_from_slice(self.postings(it));
        }
        out.sort_unstable();
        out.dedup();
        RowSet::Sparse(out)
    }
}

/// The postings length at which an item (or unioned row set) goes
/// dense for a table of `n_rows`, per the current
/// [`crate::bitmap::density_threshold`]; `None` when the dense tier is
/// disabled (threshold above `1.0`).
fn dense_cutoff(n_rows: usize) -> Option<usize> {
    let threshold = crate::bitmap::density_threshold();
    if threshold > 1.0 || n_rows == 0 {
        return None;
    }
    Some(((threshold * n_rows as f64).ceil() as usize).max(1))
}

/// When the short side of an intersection is at least this many times
/// shorter than the long side, switch from the linear merge to
/// galloping (exponential + binary) search over the long side.
const GALLOP_RATIO: usize = 8;

/// Intersection of two sorted, duplicate-free lists into `out`.
///
/// Skew-adaptive: when one list is ≥ `GALLOP_RATIO`× shorter it
/// gallops — for each short element, an exponential probe from the
/// current long-side offset finds a bracketing window, then a binary
/// search lands in it — turning the `O(|a| + |b|)` merge into
/// `O(|short| · log |long|)`. Balanced lists keep the linear merge.
pub fn intersect_sorted(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    out.clear();
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if short.len() * GALLOP_RATIO <= long.len() {
        let mut lo = 0usize;
        for &x in short {
            // exponential probe: bracket x in long[lo..] by doubling
            let mut step = 1usize;
            let mut hi = lo;
            while hi < long.len() && long[hi] < x {
                lo = hi + 1;
                hi += step;
                step *= 2;
            }
            // the probe may have landed exactly on x — keep index `hi`
            // inside the binary-search window
            let hi = (hi + 1).min(long.len());
            match long[lo..hi].binary_search(&x) {
                Ok(pos) => {
                    out.push(x);
                    lo += pos + 1;
                }
                Err(pos) => lo += pos,
            }
            if lo >= long.len() {
                break;
            }
        }
        return;
    }
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

/// Incrementally maintained subset-support counts for the Apriori
/// family: the published (sorted, deduplicated) token list of every
/// row plus the support of each of its `size`-subsets.
///
/// [`RowSupport::build`] shards the initial count across threads;
/// [`RowSupport::update`] re-enumerates only the dirty rows of a
/// recoding step (subtracting their old subsets, adding the new).
#[derive(Debug)]
pub struct RowSupport {
    size: usize,
    /// Subset key → support.
    pub map: SupportMap,
    lists: Vec<Vec<u32>>,
    /// Kernel work counters accumulated by this structure.
    pub stats: KernelStats,
}

impl RowSupport {
    /// Count every `size`-subset of every row's published list.
    /// `fill(pos, buf)` must write row `pos`'s sorted, duplicate-free
    /// published tokens into `buf`.
    pub fn build<F>(n_rows: usize, size: usize, fill: F) -> RowSupport
    where
        F: Fn(usize, &mut Vec<u32>) + Sync,
    {
        let parts = secreta_parallel::par_chunks(n_rows, MIN_ROWS_PER_SHARD, |lo, hi| {
            let mut map = SupportMap::new();
            let mut lists: Vec<Vec<u32>> = Vec::with_capacity(hi - lo);
            let mut buf: Vec<u32> = Vec::new();
            for pos in lo..hi {
                buf.clear();
                fill(pos, &mut buf);
                if buf.len() >= size {
                    for_each_subset_u32(&buf, size, &mut |s| {
                        map.add(s, 1);
                    });
                }
                lists.push(buf.clone());
            }
            (map, lists)
        });
        let mut stats = KernelStats::default();
        let mut iter = parts.into_iter();
        let (mut map, mut lists) = iter.next().unwrap_or_default();
        for (m, ls) in iter {
            map.merge_from(&m);
            lists.extend(ls);
            stats.shard_merges += 1;
        }
        debug_assert_eq!(lists.len(), n_rows);
        stats.interned_keys += map.len() as u64;
        RowSupport {
            size,
            map,
            lists,
            stats,
        }
    }

    /// The stored published list of row `pos`.
    pub fn list(&self, pos: usize) -> &[u32] {
        &self.lists[pos]
    }

    /// Re-enumerate exactly the rows in `dirty` (positions, sorted or
    /// not): subtract each row's previous subsets, recompute its list
    /// via `fill`, add the new subsets.
    pub fn update<F>(&mut self, dirty: &[u32], fill: F)
    where
        F: Fn(usize, &mut Vec<u32>),
    {
        let before = self.map.len();
        let mut buf: Vec<u32> = Vec::new();
        for &pos in dirty {
            let pos = pos as usize;
            let old = std::mem::take(&mut self.lists[pos]);
            let map = &mut self.map;
            if old.len() >= self.size {
                for_each_subset_u32(&old, self.size, &mut |s| {
                    map.add_signed(s, -1);
                });
            }
            buf.clear();
            fill(pos, &mut buf);
            if buf.len() >= self.size {
                for_each_subset_u32(&buf, self.size, &mut |s| {
                    map.add(s, 1);
                });
            }
            self.lists[pos] = buf.clone();
        }
        self.stats.rows_reenumerated += dirty.len() as u64;
        self.stats.rows_skipped += (self.lists.len() - dirty.len()) as u64;
        self.stats.interned_keys += (self.map.len() - before) as u64;
    }
}

/// Pack an `(antecedent token, target)` pair key.
fn pack(token: u32, target: u32) -> u64 {
    ((token as u64) << 32) | target as u64
}

/// Support counts for sensitive-rule mining (`q → s`): the support of
/// every antecedent `q` with `|q| ≤ max_antecedent` plus, per pair,
/// the joint support of `q ∪ {s}` for every target token `s`.
///
/// Antecedent keys are interned in [`SupportMap`]; pair keys reuse the
/// antecedent's stable token packed with the target into a `u64`, so
/// the per-row inner loop allocates nothing. Used one-shot by
/// TDControl's violation check and incrementally by SuppressControl
/// (a suppression only dirties the rows that contain the victim).
#[derive(Debug, Default)]
pub struct RuleCounts {
    max_antecedent: usize,
    /// Antecedent key → support.
    pub sup_q: SupportMap,
    /// `(antecedent token, target)` → joint support.
    pub sup_qs: FxHashMap<u64, u32>,
    lists: Vec<Vec<u32>>,
    /// Kernel work counters accumulated by this structure.
    pub stats: KernelStats,
}

impl RuleCounts {
    /// Sharded count over all rows. `fill(pos, buf)` writes row
    /// `pos`'s live sorted token list; `is_target` classifies tokens
    /// as rule targets (sensitive). `keep_lists` retains per-row lists
    /// for later [`RuleCounts::update`] calls.
    pub fn build<F, T>(
        n_rows: usize,
        max_antecedent: usize,
        keep_lists: bool,
        fill: F,
        is_target: T,
    ) -> RuleCounts
    where
        F: Fn(usize, &mut Vec<u32>) + Sync,
        T: Fn(u32) -> bool + Sync,
    {
        let parts = secreta_parallel::par_chunks(n_rows, MIN_ROWS_PER_SHARD, |lo, hi| {
            let mut acc = RuleCounts {
                max_antecedent,
                ..RuleCounts::default()
            };
            let mut buf: Vec<u32> = Vec::new();
            let mut targets: Vec<u32> = Vec::new();
            for pos in lo..hi {
                buf.clear();
                fill(pos, &mut buf);
                acc.apply_row(&buf, 1, &is_target, &mut targets);
                if keep_lists {
                    acc.lists.push(buf.clone());
                }
            }
            acc
        });
        let mut iter = parts.into_iter();
        let mut global = iter.next().unwrap_or_else(|| RuleCounts {
            max_antecedent,
            ..RuleCounts::default()
        });
        for part in iter {
            // remap the shard's antecedent tokens into the global map,
            // in shard order, so counts add up exactly
            let mut remap: Vec<u32> = Vec::with_capacity(part.sup_q.len());
            for (key, count) in part.sup_q.iter() {
                remap.push(global.sup_q.add(key, count));
            }
            for (&pair, &count) in &part.sup_qs {
                let (token, target) = ((pair >> 32) as u32, pair as u32);
                let key = pack(remap[token as usize], target);
                *global.sup_qs.entry(key).or_insert(0) += count;
            }
            global.lists.extend(part.lists);
            global.stats.shard_merges += 1;
        }
        global.stats.interned_keys += global.sup_q.len() as u64;
        global
    }

    /// Add (`delta = 1`) or subtract (`delta = -1`) one row's
    /// contribution to the counts.
    fn apply_row(
        &mut self,
        toks: &[u32],
        delta: i32,
        is_target: &impl Fn(u32) -> bool,
        targets: &mut Vec<u32>,
    ) {
        if toks.is_empty() {
            return;
        }
        targets.clear();
        targets.extend(toks.iter().copied().filter(|&t| is_target(t)));
        for size in 0..=self.max_antecedent.min(toks.len()) {
            let sup_q = &mut self.sup_q;
            let sup_qs = &mut self.sup_qs;
            let targets = &targets[..];
            for_each_subset_u32(toks, size, &mut |q| {
                let token = sup_q.add_signed(q, delta);
                for &s in targets {
                    if !q.contains(&s) {
                        let e = sup_qs.entry(pack(token, s)).or_insert(0);
                        if delta >= 0 {
                            *e += delta as u32;
                        } else {
                            debug_assert!(*e >= (-delta) as u32, "pair underflow");
                            *e -= (-delta) as u32;
                        }
                    }
                }
            });
        }
    }

    /// Re-enumerate the rows in `dirty` after a recoding step;
    /// requires `keep_lists` at build time.
    pub fn update<F, T>(&mut self, dirty: &[u32], fill: F, is_target: T)
    where
        F: Fn(usize, &mut Vec<u32>),
        T: Fn(u32) -> bool,
    {
        let before = self.sup_q.len();
        let mut buf: Vec<u32> = Vec::new();
        let mut targets: Vec<u32> = Vec::new();
        for &pos in dirty {
            let pos = pos as usize;
            let old = std::mem::take(&mut self.lists[pos]);
            self.apply_row(&old, -1, &is_target, &mut targets);
            buf.clear();
            fill(pos, &mut buf);
            self.apply_row(&buf, 1, &is_target, &mut targets);
            self.lists[pos] = buf.clone();
        }
        self.stats.rows_reenumerated += dirty.len() as u64;
        self.stats.rows_skipped += (self.lists.len() - dirty.len()) as u64;
        self.stats.interned_keys += (self.sup_q.len() - before) as u64;
    }

    /// [`RuleCounts::update`] with the dirty rows given as a tiered
    /// [`RowSet`] — the direct output of
    /// [`InvertedIndex::union_rowset`] — so dense dirty sets ride the
    /// bitmap tier until the row walk itself. Both tiers re-enumerate
    /// the same rows in the same ascending order, so the resulting
    /// counts are identical.
    pub fn update_rowset<F, T>(&mut self, dirty: &RowSet, fill: F, is_target: T)
    where
        F: Fn(usize, &mut Vec<u32>),
        T: Fn(u32) -> bool,
    {
        match dirty {
            RowSet::Sparse(rows) => self.update(rows, fill, is_target),
            RowSet::Dense(bits) => {
                let mut rows = Vec::with_capacity(bits.count_ones());
                bits.to_sorted(&mut rows);
                self.update(&rows, fill, is_target);
            }
        }
    }

    /// Iterate live rules as `(antecedent, target, joint, antecedent
    /// support)`, skipping pairs whose joint support dropped to zero.
    pub fn rules(&self) -> impl Iterator<Item = (&[u32], u32, u32, u32)> + '_ {
        self.sup_qs
            .iter()
            .filter(|(_, &qs)| qs > 0)
            .map(|(&pair, &qs)| {
                let (token, target) = ((pair >> 32) as u32, pair as u32);
                (
                    self.sup_q.key_of(token),
                    target,
                    qs,
                    self.sup_q.count_of(token),
                )
            })
    }

    /// True iff some rule's confidence `joint / antecedent` reaches
    /// `rho`.
    pub fn any_violation(&self, rho: f64) -> bool {
        self.rules()
            .any(|(_, _, qs, q)| qs as f64 / q as f64 >= rho)
    }
}

/// Published-support oracle for the hierarchy-free algorithms (COAT,
/// PCTA).
///
/// The published support of a generalized item (a group of original
/// items) is the number of rows containing at least one live member —
/// the union of the members' posting lists. A privacy constraint's
/// support is the intersection of its image groups' row sets. Both are
/// answered from the tiered [`InvertedIndex`]: group row sets are
/// [`RowSet`]s (dense bitmaps once a group covers enough rows —
/// exactly the groups COAT/PCTA grow largest and query most), and
/// constraint intersections pick the word-`AND` / bitmap-probe /
/// galloping path per tier pair.
///
/// Memoized row sets survive across repair rounds: a group's row set
/// is a pure function of its live member set, and the only mutations
/// the algorithms perform are merging two groups and suppressing one
/// item — each invalidates the memo of the affected root(s) only
/// (see [`GroupSupportOracle::invalidate_root`]), so every other
/// group's cached rows stay valid.
#[derive(Debug)]
pub struct GroupSupportOracle {
    index: InvertedIndex,
    rows_of_root: FxHashMap<u32, RowSet>,
    /// Kernel work counters accumulated by this oracle.
    pub stats: KernelStats,
}

impl GroupSupportOracle {
    /// Build the oracle's index over `rows` of `table`.
    pub fn new(table: &RtTable, rows: &[usize]) -> GroupSupportOracle {
        let universe = table.item_universe();
        let index = InvertedIndex::build(table, rows, universe, |_| true);
        let mut stats = KernelStats::default();
        stats.record_index(&index);
        GroupSupportOracle {
            index,
            rows_of_root: FxHashMap::default(),
            stats,
        }
    }

    /// Invalidate every memoized row set. Kept for callers that mutate
    /// groups without telling the oracle which roots changed;
    /// [`GroupSupportOracle::invalidate_root`] is the cheap path.
    pub fn begin_round(&mut self) {
        self.rows_of_root.clear();
    }

    /// Drop the memoized row set of one root. Call with both former
    /// roots after a merge (either may survive as the union root) and
    /// with the suppressed item's root after a suppression; all other
    /// memo entries remain valid.
    pub fn invalidate_root(&mut self, root: u32) {
        self.rows_of_root.remove(&root);
    }

    fn ensure_rows(&mut self, groups: &mut ItemGroups, root: u32) {
        if self.rows_of_root.contains_key(&root) {
            return;
        }
        let live = groups
            .members_of_root(root)
            .iter()
            .copied()
            .filter(|&m| !groups.is_suppressed(m))
            .collect::<Vec<u32>>();
        let rows = self.index.union_rowset(live, &mut self.stats);
        self.stats.posting_unions += 1;
        self.rows_of_root.insert(root, rows);
    }

    /// Published support of the group rooted at `root`.
    pub fn group_support(&mut self, groups: &mut ItemGroups, root: u32) -> u32 {
        self.ensure_rows(groups, root);
        self.rows_of_root[&root].len() as u32
    }

    /// Published support of `constraint` (0 if any item is
    /// suppressed).
    pub fn constraint_support(&mut self, groups: &mut ItemGroups, constraint: &[ItemId]) -> u32 {
        let mut image: Vec<u32> = Vec::with_capacity(constraint.len());
        for it in constraint {
            match groups.map(*it) {
                Some(g) => image.push(g),
                None => return 0,
            }
        }
        image.sort_unstable();
        image.dedup();
        for &g in &image {
            self.ensure_rows(groups, g);
        }
        // intersect smallest-first: cache cardinalities once (a dense
        // set's len is a popcount) and keep the order deterministic by
        // breaking length ties on the root id
        let mut by_len: Vec<(usize, u32)> = image
            .iter()
            .map(|&g| (self.rows_of_root[&g].len(), g))
            .collect();
        by_len.sort_unstable();
        // only the cardinality is published, so the final pairing is
        // counted without materializing its intersection — the 1- and
        // 2-group images that dominate real policies never clone a
        // row set at all
        let mut bitmap_ops = 0u64;
        let support = {
            let rows = &self.rows_of_root;
            match by_len.as_slice() {
                [(len, _)] => *len,
                [(_, a), (_, b)] => {
                    let (a, b) = (&rows[a], &rows[b]);
                    bitmap_ops += (a.is_dense() || b.is_dense()) as u64;
                    a.intersect_len(b)
                }
                [(_, first), mids @ .., (_, last)] => {
                    let mut cur = rows[first].clone();
                    let mut emptied = false;
                    for (_, g) in mids {
                        let next = &rows[g];
                        bitmap_ops += (cur.is_dense() || next.is_dense()) as u64;
                        cur = cur.intersect(next);
                        if cur.is_empty() {
                            emptied = true;
                            break;
                        }
                    }
                    if emptied {
                        0
                    } else {
                        let last = &rows[last];
                        bitmap_ops += (cur.is_dense() || last.is_dense()) as u64;
                        cur.intersect_len(last)
                    }
                }
                [] => unreachable!("constraint image is non-empty"),
            }
        };
        self.stats.bitmap_intersections += bitmap_ops;
        support as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use secreta_data::{Attribute, Schema};

    #[test]
    fn support_map_counts_and_interns() {
        let mut m = SupportMap::new();
        assert!(m.is_empty());
        let a = m.add(&[1, 2], 1);
        let b = m.add(&[1, 2], 1);
        assert_eq!(a, b);
        assert_eq!(m.get(&[1, 2]), Some(2));
        assert_eq!(m.get(&[2, 1]), None);
        let c = m.add(&[], 1);
        assert_ne!(a, c);
        assert_eq!(m.get(&[]), Some(1));
        m.add_signed(&[1, 2], -2);
        assert_eq!(m.get(&[1, 2]), Some(0));
        assert_eq!(m.len(), 2);
        assert_eq!(m.key_of(a), &[1, 2]);
    }

    #[test]
    fn support_map_survives_growth() {
        let mut m = SupportMap::new();
        for i in 0u32..500 {
            m.add(&[i, i + 1000], 1);
        }
        for i in 0u32..500 {
            assert_eq!(m.get(&[i, i + 1000]), Some(1), "i={i}");
        }
        assert_eq!(m.len(), 500);
        // insertion-order iteration
        let keys: Vec<Vec<u32>> = m.iter().map(|(k, _)| k.to_vec()).collect();
        assert_eq!(keys[0], vec![0, 1000]);
        assert_eq!(keys[499], vec![499, 1499]);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = SupportMap::new();
        a.add(&[1], 2);
        a.add(&[2, 3], 1);
        let mut b = SupportMap::new();
        b.add(&[2, 3], 4);
        b.add(&[9], 1);
        a.merge_from(&b);
        assert_eq!(a.get(&[1]), Some(2));
        assert_eq!(a.get(&[2, 3]), Some(5));
        assert_eq!(a.get(&[9]), Some(1));
    }

    #[test]
    fn subsets_include_empty_at_size_zero() {
        let mut n = 0;
        for_each_subset_u32(&[1, 2, 3], 0, &mut |s| {
            assert!(s.is_empty());
            n += 1;
        });
        assert_eq!(n, 1);
        let mut pairs = Vec::new();
        for_each_subset_u32(&[1, 2, 3], 2, &mut |s| pairs.push(s.to_vec()));
        assert_eq!(pairs, vec![vec![1, 2], vec![1, 3], vec![2, 3]]);
    }

    fn tiny_table(rows: &[&[&str]]) -> RtTable {
        let schema = Schema::new(vec![Attribute::transaction("Items")]).unwrap();
        let mut t = RtTable::new(schema);
        for r in rows {
            t.push_row(&[], r).unwrap();
        }
        t
    }

    #[test]
    fn inverted_index_postings() {
        let t = tiny_table(&[&["a", "b"], &[], &["b", "c"], &["a"]]);
        let rows: Vec<usize> = (0..t.n_rows()).collect();
        let idx = InvertedIndex::build(&t, &rows, t.item_universe(), |_| true);
        let a = t.item_pool().unwrap().get("a").unwrap();
        let b = t.item_pool().unwrap().get("b").unwrap();
        let c = t.item_pool().unwrap().get("c").unwrap();
        assert_eq!(idx.postings(a), &[0, 3]);
        assert_eq!(idx.postings(b), &[0, 2]);
        assert_eq!(idx.postings(c), &[2]);
        assert_eq!(idx.support(a), 2);
        let mut out = Vec::new();
        idx.union_into([a, c], &mut out);
        assert_eq!(out, vec![0, 2, 3]);
    }

    #[test]
    fn chunk_walk_builds_identical_indexes() {
        let t = tiny_table(&[&["a", "b"], &[], &["b", "c"], &["a"], &["c", "a"], &["b"]]);
        let universe = t.item_universe();
        let b = t.item_pool().unwrap().get("b").unwrap();
        // drop one item so the filter path is exercised too
        let relevant = |it: ItemId| it.0 != b;
        let reference = InvertedIndex::from_fn(t.n_rows(), universe, |pos, buf| {
            buf.extend(
                t.transaction(pos)
                    .iter()
                    .copied()
                    .filter(|&it| relevant(it))
                    .map(|it| it.0),
            )
        });
        for block in [1, 2, 3, 100] {
            let idx = InvertedIndex::from_tx_chunks(
                t.n_rows(),
                universe,
                || t.tx_chunks(block),
                relevant,
            );
            assert_eq!(idx.offsets, reference.offsets, "block={block}");
            assert_eq!(idx.postings, reference.postings, "block={block}");
        }
        // the identity-rows dispatch in build() lands on the same index
        let rows: Vec<usize> = (0..t.n_rows()).collect();
        let built = InvertedIndex::build(&t, &rows, universe, relevant);
        assert_eq!(built.offsets, reference.offsets);
        assert_eq!(built.postings, reference.postings);
    }

    #[test]
    fn from_chunked_matches_materialized_build() {
        use secreta_data::MemoryBudget;
        let rows: &[&[&str]] = &[&["a", "b"], &[], &["b", "c"], &["a"], &["c", "a"]];
        let schema = Schema::new(vec![Attribute::transaction("Items")]).unwrap();
        let mut chunked = ChunkedTable::new(schema, 2, MemoryBudget::unlimited());
        for r in rows {
            chunked.push_row(&[], r).unwrap();
        }
        chunked.finish().unwrap();
        let idx = InvertedIndex::from_chunked(&chunked, |_| true);
        let t = tiny_table(rows);
        let all: Vec<usize> = (0..t.n_rows()).collect();
        let reference = InvertedIndex::build(&t, &all, t.item_universe(), |_| true);
        assert_eq!(idx.offsets, reference.offsets);
        assert_eq!(idx.postings, reference.postings);
        assert_eq!(idx.n_rows, reference.n_rows);
    }

    #[test]
    fn tiered_union_matches_csr_union() {
        let _serial = crate::bitmap::TEST_THRESHOLD_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        // force every non-empty item dense, then fully sparse, and
        // check union_into is byte-identical in both regimes
        let t = tiny_table(&[&["a", "b"], &["b"], &["b", "c"], &["a", "b"]]);
        let rows: Vec<usize> = (0..t.n_rows()).collect();
        let a = t.item_pool().unwrap().get("a").unwrap();
        let b = t.item_pool().unwrap().get("b").unwrap();
        let c = t.item_pool().unwrap().get("c").unwrap();

        crate::bitmap::set_density_threshold(Some(0.0));
        let dense_idx = InvertedIndex::build(&t, &rows, t.item_universe(), |_| true);
        assert!(dense_idx.hot(b).is_some());
        crate::bitmap::set_density_threshold(Some(2.0));
        let sparse_idx = InvertedIndex::build(&t, &rows, t.item_universe(), |_| true);
        assert!(sparse_idx.hot(b).is_none());
        crate::bitmap::set_density_threshold(None);

        for items in [vec![a], vec![a, c], vec![a, b, c], vec![]] {
            let (mut lhs, mut rhs) = (Vec::new(), Vec::new());
            dense_idx.union_into(items.iter().copied(), &mut lhs);
            sparse_idx.union_into(items.iter().copied(), &mut rhs);
            assert_eq!(lhs, rhs, "items={items:?}");
        }
        // density histogram counted each non-empty item exactly once
        assert_eq!(dense_idx.density_hist.iter().sum::<u64>(), 3);
        assert_eq!(dense_idx.dense_items, 3);
        assert_eq!(sparse_idx.sparse_items, 3);
    }

    #[test]
    fn intersect_sorted_basics() {
        let mut out = Vec::new();
        intersect_sorted(&[1, 3, 5, 7], &[2, 3, 7, 9], &mut out);
        assert_eq!(out, vec![3, 7]);
        intersect_sorted(&[], &[1], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn intersect_sorted_skewed_lists_gallop() {
        // long side ≥ 8× the short side in every case below, so the
        // galloping path is exercised (either argument order)
        let long: Vec<u32> = (0..200).map(|i| i * 3).collect();
        let mut out = Vec::new();
        // hits at both ends, a middle hit, and misses between
        intersect_sorted(&[0, 7, 300, 597], &long, &mut out);
        assert_eq!(out, vec![0, 300, 597]);
        intersect_sorted(&long, &[0, 7, 300, 597], &mut out);
        assert_eq!(out, vec![0, 300, 597]);
        // short list entirely past the long list's range
        intersect_sorted(&[1000, 2000], &long, &mut out);
        assert!(out.is_empty());
        // short list entirely before it
        intersect_sorted(&long, &[1, 2], &mut out);
        assert!(out.is_empty());
        // every short element present (consecutive long elements)
        intersect_sorted(&[3, 6, 9], &long, &mut out);
        assert_eq!(out, vec![3, 6, 9]);
        // single-element short side
        intersect_sorted(&[300], &long, &mut out);
        assert_eq!(out, vec![300]);
        intersect_sorted(&[301], &long, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn row_support_incremental_matches_rebuild() {
        // 6 rows over items 0..5; dirty a few rows, compare with a
        // from-scratch rebuild of the mutated lists
        let lists: Vec<Vec<u32>> = vec![
            vec![0, 1, 2],
            vec![1, 2],
            vec![0, 3],
            vec![2, 3, 4],
            vec![],
            vec![0, 1, 2, 4],
        ];
        let mutated: Vec<Vec<u32>> = vec![
            vec![0, 1],
            vec![1, 2],
            vec![3],
            vec![2, 3, 4],
            vec![],
            vec![0, 1, 4],
        ];
        for size in 1..=3usize {
            let mut rs = RowSupport::build(lists.len(), size, |pos, buf| {
                buf.extend_from_slice(&lists[pos])
            });
            rs.update(&[0, 2, 5], |pos, buf| buf.extend_from_slice(&mutated[pos]));
            let fresh = RowSupport::build(mutated.len(), size, |pos, buf| {
                buf.extend_from_slice(&mutated[pos])
            });
            for (key, count) in fresh.map.iter() {
                assert_eq!(rs.map.get(key), Some(count), "size={size} key={key:?}");
            }
            // stale keys must have dropped to zero
            for (key, count) in rs.map.iter() {
                if fresh.map.get(key).unwrap_or(0) == 0 {
                    assert_eq!(count, 0, "stale key {key:?} kept support");
                }
            }
            assert_eq!(rs.stats.rows_reenumerated, 3);
            assert_eq!(rs.stats.rows_skipped, 3);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The interned map agrees with a naive Vec-keyed HashMap on
        /// random subset streams (random universes, duplicate rows,
        /// empty rows).
        #[test]
        fn support_map_matches_naive_counter(
            rows in prop::collection::vec(
                prop::collection::vec(0u32..24, 0..7), 0..40),
            size in 0usize..4,
        ) {
            let mut naive: FxHashMap<Vec<u32>, u32> = FxHashMap::default();
            let mut kernel = SupportMap::new();
            for row in &rows {
                let mut sorted = row.clone();
                sorted.sort_unstable();
                sorted.dedup();
                if sorted.len() < size {
                    continue;
                }
                for_each_subset_u32(&sorted, size, &mut |s| {
                    *naive.entry(s.to_vec()).or_insert(0) += 1;
                    kernel.add(s, 1);
                });
            }
            prop_assert_eq!(naive.len(), kernel.len());
            for (key, &count) in &naive {
                prop_assert_eq!(kernel.get(key), Some(count));
            }
        }

        /// The skew-adaptive intersection agrees with a reference
        /// linear merge for arbitrary (including heavily skewed)
        /// sorted inputs.
        #[test]
        fn galloping_intersection_matches_linear(
            short_raw in prop::collection::vec(0u32..4000, 0..12),
            long_raw in prop::collection::vec(0u32..4000, 0..600),
        ) {
            let mut short = short_raw;
            short.sort_unstable();
            short.dedup();
            let mut long = long_raw;
            long.sort_unstable();
            long.dedup();
            let expect: Vec<u32> =
                short.iter().copied().filter(|x| long.contains(x)).collect();
            let mut out = Vec::new();
            intersect_sorted(&short, &long, &mut out);
            prop_assert_eq!(&out, &expect);
            intersect_sorted(&long, &short, &mut out);
            prop_assert_eq!(&out, &expect);
        }

        /// Sharded RowSupport::build equals the sequential count for
        /// any thread count.
        #[test]
        fn sharded_build_matches_sequential(seed in 0u64..500) {
            // deterministic pseudo-random lists, enough rows to shard
            let n = 300usize;
            let list_of = |pos: usize| -> Vec<u32> {
                let mut v = Vec::new();
                let mut z = seed.wrapping_add(pos as u64).wrapping_mul(0x9E3779B97F4A7C15);
                for _ in 0..(z % 5) {
                    z ^= z >> 13;
                    z = z.wrapping_mul(0x2545F4914F6CDD1D);
                    v.push((z % 12) as u32);
                }
                v.sort_unstable();
                v.dedup();
                v
            };
            secreta_parallel::set_threads(1);
            let seq = RowSupport::build(n, 2, |pos, buf| buf.extend_from_slice(&list_of(pos)));
            secreta_parallel::set_threads(4);
            let par = RowSupport::build(n, 2, |pos, buf| buf.extend_from_slice(&list_of(pos)));
            secreta_parallel::set_threads(0);
            prop_assert_eq!(seq.map.len(), par.map.len());
            for (key, count) in seq.map.iter() {
                prop_assert_eq!(par.map.get(key), Some(count));
            }
        }
    }
}
