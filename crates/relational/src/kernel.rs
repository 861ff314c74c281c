//! Partition-rollup counting kernels for the relational algorithms.
//!
//! The lattice/specialization searches of Incognito, Top-down and
//! Bottom-up spend their time answering one question — *what is the
//! smallest equivalence class under this recoding?* — and the naive
//! implementations answer it by rescanning the full row matrix per
//! candidate ([`crate::common::min_class_size_matrix`]). This module
//! concentrates that work in three reusable structures that mirror the
//! transaction side's `Counting::{Naive,Kernel}` split:
//!
//! * [`RecodeTables`] — per-(attribute, level) dense recode tables
//!   (value id → group id), precomputed once per run from each
//!   hierarchy's [`Hierarchy::level_table`] export, plus the
//!   level-to-level *merge tables* that make rollups possible.
//! * [`Partition`] — the equivalence classes of a full-domain lattice
//!   node as per-class group signatures and sizes. Raising one
//!   attribute's level is a [`Partition::rollup`]: class signatures
//!   remap through a merge table and equal signatures coalesce — an
//!   O(#classes · q) operation that never touches a row. This is the
//!   *generalization rollup property* of LeFevre et al.'s Incognito:
//!   a coarser node's classes are a merge of a finer node's classes.
//! * [`RowPartition`] / [`CutClasses`] — cut-based partitions for
//!   Top-down (class → row lists, so a candidate split only touches
//!   the rows of the classes it splits) and Bottom-up (class
//!   signatures only, so a generalization step is a signature remap
//!   instead of an O(n·q) regroup).
//!
//! Every kernel result is byte-identical to the corresponding naive
//! computation; the `kernels` integration tests prove it on randomized
//! inputs.

use crate::common::ValueMatrix;
use secreta_data::hash::FxHashMap;
use secreta_hierarchy::{Hierarchy, NodeId};

pub use secreta_data::Counting;

/// One attribute's dense recode table at one full-domain level: value
/// id → dense group id, where two values share a group exactly when
/// [`Hierarchy::generalize`] maps them to the same node at that level.
pub struct LevelTable {
    /// `groups[v]` is the dense group id of value `v`.
    pub groups: Vec<u32>,
    /// Number of distinct groups (`groups` values are `0..n_groups`).
    pub n_groups: u32,
}

/// All recode and merge tables of a run's hierarchies, built once.
pub struct RecodeTables {
    /// `tables[pos][level]` for `level in 0..=heights[pos]`.
    tables: Vec<Vec<LevelTable>>,
    /// `merges[pos][level]`: group id at `level` → group id at
    /// `level + 1`, for `level in 0..heights[pos]`.
    merges: Vec<Vec<Vec<u32>>>,
}

impl RecodeTables {
    /// Precompute every level's recode table and the merge tables
    /// between consecutive levels. O(Σ height · domain).
    pub fn build(hierarchies: &[Hierarchy]) -> RecodeTables {
        let mut tables = Vec::with_capacity(hierarchies.len());
        let mut merges = Vec::with_capacity(hierarchies.len());
        for h in hierarchies {
            let height = h.height();
            let mut levels: Vec<LevelTable> = Vec::with_capacity(height as usize + 1);
            for lvl in 0..=height {
                let nodes = h.level_table(lvl);
                let mut ids: FxHashMap<NodeId, u32> = FxHashMap::default();
                let mut groups = Vec::with_capacity(nodes.len());
                for node in nodes {
                    let next = ids.len() as u32;
                    groups.push(*ids.entry(node).or_insert(next));
                }
                levels.push(LevelTable {
                    groups,
                    n_groups: ids.len().max(1) as u32,
                });
            }
            // merge tables: two values in the same group at `lvl` are in
            // the same group at `lvl + 1` (same node ⇒ same parent), so
            // the per-value assignment below is consistent
            let mut hm = Vec::with_capacity(height as usize);
            for lvl in 0..height as usize {
                let (fine, coarse) = (&levels[lvl], &levels[lvl + 1]);
                let mut merge = vec![0u32; fine.n_groups as usize];
                for v in 0..fine.groups.len() {
                    merge[fine.groups[v] as usize] = coarse.groups[v];
                }
                hm.push(merge);
            }
            tables.push(levels);
            merges.push(hm);
        }
        RecodeTables { tables, merges }
    }

    /// The recode table of attribute `pos` at `level` (clamped to the
    /// attribute's height, matching full-domain recoding semantics).
    #[inline]
    pub fn table(&self, pos: usize, level: u32) -> &LevelTable {
        let levels = &self.tables[pos];
        &levels[(level as usize).min(levels.len() - 1)]
    }

    /// The merge table lifting attribute `pos` from `level` to
    /// `level + 1`.
    #[inline]
    pub fn merge(&self, pos: usize, level: u32) -> &[u32] {
        &self.merges[pos][level as usize]
    }
}

/// Deterministic class-signature interner behind [`Partition`]: maps a
/// `q`-component group signature to a dense class index, choosing its
/// storage from the signature code space exactly like
/// [`crate::common::min_class_size_matrix`] does (flat vector when the
/// space is small, `u64` codes in a hash map when it fits a word, full
/// signatures when it overflows).
enum Grouper {
    /// Flat `code → class` vector (`u32::MAX` = unused code).
    Dense {
        strides: Vec<u64>,
        class_of: Vec<u32>,
    },
    /// `u64` code → class.
    Coded {
        strides: Vec<u64>,
        map: FxHashMap<u64, u32>,
    },
    /// Code space exceeds `u64`: key on the full signature.
    Wide { map: FxHashMap<Vec<u32>, u32> },
}

impl Grouper {
    /// `dims[pos]` is the number of groups of signature component
    /// `pos`; `n_items` bounds how many distinct signatures will be
    /// interned (rows or classes), sizing the dense tier.
    fn new(dims: &[u32], n_items: usize) -> Grouper {
        let mut strides = Vec::with_capacity(dims.len());
        let mut space: u64 = 1;
        let mut overflow = false;
        for &d in dims {
            strides.push(space);
            match space.checked_mul(d.max(1) as u64) {
                Some(p) => space = p,
                None => {
                    overflow = true;
                    break;
                }
            }
        }
        if overflow {
            Grouper::Wide {
                map: FxHashMap::default(),
            }
        } else if space <= (n_items as u64).saturating_mul(4).max(1024) && space <= (1 << 22) {
            Grouper::Dense {
                strides,
                class_of: vec![u32::MAX; space as usize],
            }
        } else {
            Grouper::Coded {
                strides,
                map: FxHashMap::default(),
            }
        }
    }

    /// Class index of `sig`, interning it (and appending it to `sigs`)
    /// when unseen. Returns the index; a fresh class's index equals
    /// the previous class count.
    fn intern(&mut self, sig: &[u32], sigs: &mut Vec<u32>, n_classes: usize) -> usize {
        match self {
            Grouper::Dense { strides, class_of } => {
                let code: u64 = sig
                    .iter()
                    .zip(strides.iter())
                    .map(|(&g, &s)| g as u64 * s)
                    .sum();
                let slot = &mut class_of[code as usize];
                if *slot == u32::MAX {
                    *slot = n_classes as u32;
                    sigs.extend_from_slice(sig);
                }
                *slot as usize
            }
            Grouper::Coded { strides, map } => {
                let code: u64 = sig
                    .iter()
                    .zip(strides.iter())
                    .map(|(&g, &s)| g as u64 * s)
                    .sum();
                *map.entry(code).or_insert_with(|| {
                    sigs.extend_from_slice(sig);
                    n_classes as u32
                }) as usize
            }
            Grouper::Wide { map } => *map.entry(sig.to_vec()).or_insert_with(|| {
                sigs.extend_from_slice(sig);
                n_classes as u32
            }) as usize,
        }
    }
}

/// The equivalence classes of one full-domain lattice node: per-class
/// group signatures plus class sizes. Classes carry no row lists —
/// the k-anonymity check only needs sizes, and the rollup only needs
/// signatures.
pub struct Partition {
    /// Group count per signature component (the lattice node's
    /// per-attribute group counts).
    dims: Vec<u32>,
    /// Flat `n_classes × dims.len()` class signatures.
    sigs: Vec<u32>,
    /// Rows per class.
    sizes: Vec<u64>,
}

impl Partition {
    /// Number of equivalence classes.
    #[inline]
    pub fn n_classes(&self) -> usize {
        self.sizes.len()
    }

    /// Smallest class size (0 for an empty table).
    pub fn min_size(&self) -> usize {
        self.sizes.iter().copied().min().unwrap_or(0) as usize
    }

    /// The signature of class `c`.
    #[inline]
    fn sig(&self, c: usize) -> &[u32] {
        let q = self.dims.len();
        &self.sigs[c * q..(c + 1) * q]
    }

    /// Group the rows of `matrix` under per-attribute recode `tables`
    /// (one table per matrix column, i.e. the lattice node's levels).
    /// O(n · q) — the base-case build used when no finer partition is
    /// available to roll up from.
    pub fn build(matrix: &ValueMatrix, tables: &[&LevelTable]) -> Partition {
        let q = matrix.width();
        debug_assert_eq!(q, tables.len());
        let n = matrix.n_rows();
        let dims: Vec<u32> = tables.iter().map(|t| t.n_groups).collect();
        // dense tier: fold each row's group vector into a u64 code and
        // intern through the epoch-stamped scratch — one probe per
        // row, no hashing and no per-build table clear
        let mut strides = Vec::with_capacity(q);
        let mut space: u64 = 1;
        let mut overflow = false;
        for &d in &dims {
            strides.push(space);
            match space.checked_mul(d.max(1) as u64) {
                Some(p) => space = p,
                None => {
                    overflow = true;
                    break;
                }
            }
        }
        if !overflow && space <= DENSE_SCRATCH_MAX && n <= SCRATCH_CLASS_MAX {
            return ROLLUP_SCRATCH.with(|s| {
                let scratch = &mut *s.borrow_mut();
                scratch.begin(space as usize);
                let mut part = Partition {
                    dims,
                    sigs: Vec::new(),
                    sizes: Vec::new(),
                };
                for row in 0..n {
                    let vals = matrix.row(row);
                    let mut code = 0u64;
                    for (pos, (&v, &st)) in vals.iter().zip(&strides).enumerate() {
                        code += tables[pos].groups[v as usize] as u64 * st;
                    }
                    let next = part.sizes.len();
                    let idx = scratch.probe(code as usize, next);
                    if idx == next {
                        part.sizes.push(1);
                        for (pos, &v) in vals.iter().enumerate() {
                            part.sigs.push(tables[pos].groups[v as usize]);
                        }
                    } else {
                        part.sizes[idx] += 1;
                    }
                }
                part
            });
        }
        let mut grouper = Grouper::new(&dims, n);
        let mut part = Partition {
            dims,
            sigs: Vec::new(),
            sizes: Vec::new(),
        };
        let mut buf = vec![0u32; q];
        for row in 0..n {
            for (pos, &v) in matrix.row(row).iter().enumerate() {
                buf[pos] = tables[pos].groups[v as usize];
            }
            let idx = grouper.intern(&buf, &mut part.sigs, part.sizes.len());
            if idx == part.sizes.len() {
                part.sizes.push(1);
            } else {
                part.sizes[idx] += 1;
            }
        }
        part
    }

    /// Group the rows of a single matrix column under `table` — the
    /// size-1 QI-subset partition Incognito's pruning stage rolls up
    /// level by level. O(n).
    pub fn build_column(matrix: &ValueMatrix, pos: usize, table: &LevelTable) -> Partition {
        let n = matrix.n_rows();
        let mut counts = vec![0u64; table.n_groups as usize];
        for row in 0..n {
            counts[table.groups[matrix.row(row)[pos] as usize] as usize] += 1;
        }
        let mut part = Partition {
            dims: vec![table.n_groups],
            sigs: Vec::new(),
            sizes: Vec::new(),
        };
        for (g, &c) in counts.iter().enumerate() {
            if c > 0 {
                part.sigs.push(g as u32);
                part.sizes.push(c);
            }
        }
        part
    }

    /// Raise signature component `pos` through `merge` (group id at
    /// the current level → group id one level up, `new_dim` groups),
    /// coalescing classes whose signatures become equal. O(#classes ·
    /// q) — no row is touched. The resulting partition is exactly what
    /// [`Partition::build`] would produce at the coarser node.
    ///
    /// When the coarser node's code space fits the dense-scratch
    /// ceiling, grouping goes through a thread-local epoch-stamped
    /// code table — one direct probe per class, no hashing and no
    /// per-rollup clearing. The class numbering (first-encounter
    /// order) is identical in every tier.
    pub fn rollup(&self, pos: usize, merge: &[u32], new_dim: u32) -> Partition {
        let q = self.dims.len();
        let mut dims = self.dims.clone();
        dims[pos] = new_dim;
        let mut strides = Vec::with_capacity(q);
        let mut space: u64 = 1;
        let mut overflow = false;
        for &d in &dims {
            strides.push(space);
            match space.checked_mul(d.max(1) as u64) {
                Some(p) => space = p,
                None => {
                    overflow = true;
                    break;
                }
            }
        }
        if !overflow && space <= DENSE_SCRATCH_MAX && self.n_classes() <= SCRATCH_CLASS_MAX {
            return ROLLUP_SCRATCH.with(|s| {
                self.rollup_dense(
                    pos,
                    merge,
                    dims,
                    &strides,
                    space as usize,
                    &mut s.borrow_mut(),
                )
            });
        }
        let mut grouper = Grouper::new(&dims, self.n_classes());
        let mut out = Partition {
            dims,
            sigs: Vec::new(),
            sizes: Vec::new(),
        };
        let mut buf = vec![0u32; q];
        for c in 0..self.n_classes() {
            buf.copy_from_slice(self.sig(c));
            buf[pos] = merge[buf[pos] as usize];
            let idx = grouper.intern(&buf, &mut out.sigs, out.sizes.len());
            if idx == out.sizes.len() {
                out.sizes.push(self.sizes[c]);
            } else {
                out.sizes[idx] += self.sizes[c];
            }
        }
        out
    }

    /// The dense-scratch rollup tier: group classes by folded `u64`
    /// code through a direct-probe table.
    fn rollup_dense(
        &self,
        pos: usize,
        merge: &[u32],
        dims: Vec<u32>,
        strides: &[u64],
        space: usize,
        scratch: &mut RollupScratch,
    ) -> Partition {
        let q = dims.len();
        scratch.begin(space);
        let mut out = Partition {
            dims,
            sigs: Vec::with_capacity(self.sigs.len()),
            sizes: Vec::with_capacity(self.sizes.len()),
        };
        let pos_stride = strides[pos];
        // process classes in small batches: all of a batch's codes
        // (and so all of its scratch addresses) are computed before
        // the first probe, letting the out-of-order core overlap the
        // probes' cache misses instead of serializing them
        const BATCH: usize = 16;
        let mut codes = [0u64; BATCH];
        let mut merged_of = [0u32; BATCH];
        let n = self.n_classes();
        let mut base = 0;
        while base < n {
            let len = BATCH.min(n - base);
            for (j, (code, merged_slot)) in
                codes.iter_mut().zip(&mut merged_of).enumerate().take(len)
            {
                let sig = self.sig(base + j);
                let merged = merge[sig[pos] as usize];
                // branch-free fold: encode with the original
                // component, then swap in the merged one (exact under
                // wrapping — the swap may underflow transiently, the
                // sum never does)
                let mut folded = 0u64;
                for (&g, &st) in sig.iter().zip(strides) {
                    folded += g as u64 * st;
                }
                *code = folded
                    .wrapping_add((merged as u64).wrapping_mul(pos_stride))
                    .wrapping_sub((sig[pos] as u64).wrapping_mul(pos_stride));
                *merged_slot = merged;
            }
            for j in 0..len {
                let c = base + j;
                let next = out.sizes.len();
                let idx = scratch.probe(codes[j] as usize, next);
                if idx == next {
                    out.sizes.push(self.sizes[c]);
                    out.sigs.extend_from_slice(self.sig(c));
                    let sig_pos = out.sigs.len() - q + pos;
                    out.sigs[sig_pos] = merged_of[j];
                } else {
                    out.sizes[idx] += self.sizes[c];
                }
            }
            base += len;
        }
        out
    }
}

/// Ceiling of the dense rollup scratch (codes, so `space × 8` bytes of
/// thread-local memory at most — the table persists across rollups and
/// is never cleared, only re-stamped).
const DENSE_SCRATCH_MAX: u64 = 1 << 22;

thread_local! {
    static ROLLUP_SCRATCH: std::cell::RefCell<RollupScratch> =
        std::cell::RefCell::new(RollupScratch::default());
}

/// Epoch-stamped `code → class` table: `begin` bumps the epoch instead
/// of clearing, so a rollup touches only the codes it actually
/// produces. Epoch (top 8 bits) and class (low 24 bits) share one
/// `u32` slot — a probe costs a single random memory access and the
/// table stays half the size of split arrays, which matters because
/// the probes are latency-bound cache misses. The 8-bit epoch wraps
/// every 255 rollups, forcing a cheap sequential clear.
#[derive(Default)]
struct RollupScratch {
    slots: Vec<u32>,
    epoch: u32,
}

/// Widest class index the packed scratch slot can hold.
const SCRATCH_CLASS_MAX: usize = (1 << 24) - 1;

impl RollupScratch {
    fn begin(&mut self, space: usize) {
        if self.slots.len() < space {
            self.slots.resize(space, 0);
        }
        if self.epoch == 255 {
            self.slots.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Class index stored at `code`, or `next` (stored) when unseen
    /// this epoch.
    #[inline]
    fn probe(&mut self, code: usize, next: usize) -> usize {
        let slot = self.slots[code];
        if slot >> 24 == self.epoch {
            (slot & 0x00ff_ffff) as usize
        } else {
            self.slots[code] = (self.epoch << 24) | next as u32;
            next
        }
    }
}

/// Row-resident partition for Top-down specialization: equivalence
/// classes under a full-subtree cut, carrying per-class row lists so a
/// candidate split touches only the rows of the classes it splits.
pub struct RowPartition {
    width: usize,
    /// Row → class index.
    class_of: Vec<u32>,
    /// Class → rows (row indices in ascending order).
    rows_of: Vec<Vec<u32>>,
    /// Flat `n_classes × width` cut-node signatures.
    sigs: Vec<NodeId>,
}

impl RowPartition {
    /// The fully generalized starting partition: one class holding
    /// every row, signed by the hierarchy roots.
    pub fn root_cut(n_rows: usize, hierarchies: &[Hierarchy]) -> RowPartition {
        RowPartition {
            width: hierarchies.len(),
            class_of: vec![0; n_rows],
            rows_of: vec![(0..n_rows as u32).collect()],
            sigs: hierarchies.iter().map(|h| h.root()).collect(),
        }
    }

    /// Number of classes.
    #[inline]
    pub fn n_classes(&self) -> usize {
        self.rows_of.len()
    }

    /// Indices of the classes whose `pos` signature is `node` — the
    /// classes a split of `node` redistributes.
    fn affected(&self, pos: usize, node: NodeId) -> Vec<usize> {
        (0..self.n_classes())
            .filter(|&c| self.sigs[c * self.width + pos] == node)
            .collect()
    }

    /// Would specializing `cand` (attribute `pos`) into its children
    /// keep every class at size ≥ `k`? Touches only the rows of the
    /// affected classes; unaffected classes cannot shrink. Returns the
    /// verdict and the number of rows inspected.
    pub fn split_is_valid(
        &self,
        matrix: &ValueMatrix,
        pos: usize,
        cand: NodeId,
        h: &Hierarchy,
        k: usize,
    ) -> (bool, u64) {
        let children = h.children(cand);
        let child_ix = child_index(h, cand);
        let mut touched = 0u64;
        let mut bucket = vec![0u64; children.len()];
        for c in self.affected(pos, cand) {
            bucket.iter_mut().for_each(|b| *b = 0);
            for &row in &self.rows_of[c] {
                let v = matrix.row(row as usize)[pos];
                bucket[child_ix[&v]] += 1;
            }
            touched += self.rows_of[c].len() as u64;
            if bucket.iter().any(|&b| b > 0 && (b as usize) < k) {
                return (false, touched);
            }
        }
        (true, touched)
    }

    /// Apply the specialization of `cand` (attribute `pos`): each
    /// affected class splits into one class per child with rows, in
    /// child order; the first such class reuses the old class slot.
    pub fn apply_split(&mut self, matrix: &ValueMatrix, pos: usize, cand: NodeId, h: &Hierarchy) {
        let children = h.children(cand);
        let child_ix = child_index(h, cand);
        for c in self.affected(pos, cand) {
            let rows = std::mem::take(&mut self.rows_of[c]);
            let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); children.len()];
            for row in rows {
                let v = matrix.row(row as usize)[pos];
                buckets[child_ix[&v]].push(row);
            }
            let sig_base = c * self.width;
            let old_sig: Vec<NodeId> = self.sigs[sig_base..sig_base + self.width].to_vec();
            let mut reused = false;
            for (ci, rows) in buckets.into_iter().enumerate() {
                if rows.is_empty() {
                    continue;
                }
                if !reused {
                    reused = true;
                    self.sigs[sig_base + pos] = children[ci];
                    self.rows_of[c] = rows;
                    // class index unchanged: class_of already points here
                } else {
                    let idx = self.rows_of.len() as u32;
                    for &row in &rows {
                        self.class_of[row as usize] = idx;
                    }
                    let mut sig = old_sig.clone();
                    sig[pos] = children[ci];
                    self.sigs.extend_from_slice(&sig);
                    self.rows_of.push(rows);
                }
            }
        }
    }
}

/// Value id → child index, over the leaves under `cand`.
fn child_index(h: &Hierarchy, cand: NodeId) -> FxHashMap<u32, usize> {
    let mut map = FxHashMap::default();
    for (ci, &ch) in h.children(cand).iter().enumerate() {
        for v in h.leaves_under(ch) {
            map.insert(v, ci);
        }
    }
    map
}

/// Class signatures and sizes under a full-subtree cut, without row
/// lists — Bottom-up generalization only ever needs which cut-node
/// combinations exist, how many rows each holds, and how they merge
/// when a cut moves up.
pub struct CutClasses {
    width: usize,
    /// Flat `n_classes × width` cut-node signatures (raw `NodeId`
    /// values).
    sigs: Vec<u32>,
    /// Rows per class.
    sizes: Vec<u64>,
}

impl CutClasses {
    /// Group rows by their leaf signature — the starting partition of
    /// Bottom-up's leaf cut. O(n · q), done once per run.
    pub fn leaf_cut(
        matrix: &ValueMatrix,
        hierarchies: &[Hierarchy],
        domains: &[usize],
    ) -> CutClasses {
        let q = matrix.width();
        let n = matrix.n_rows();
        let dims: Vec<u32> = domains.iter().map(|&d| d.max(1) as u32).collect();
        let mut grouper = Grouper::new(&dims, n);
        let mut sigs: Vec<u32> = Vec::new();
        let mut sizes: Vec<u64> = Vec::new();
        for row in 0..n {
            let idx = grouper.intern(matrix.row(row), &mut sigs, sizes.len());
            if idx == sizes.len() {
                sizes.push(1);
            } else {
                sizes[idx] += 1;
            }
        }
        // signatures interned as value ids; rewrite them to leaf nodes
        for (i, s) in sigs.iter_mut().enumerate() {
            *s = hierarchies[i % q].leaf(*s).0;
        }
        CutClasses {
            width: q,
            sigs,
            sizes,
        }
    }

    /// Number of classes.
    #[inline]
    pub fn n_classes(&self) -> usize {
        self.sizes.len()
    }

    /// The cut node of class `c` at attribute `pos`.
    #[inline]
    pub fn node(&self, c: usize, pos: usize) -> NodeId {
        NodeId(self.sigs[c * self.width + pos])
    }

    /// Indices of classes smaller than `k`.
    pub fn violating(&self, k: usize) -> Vec<usize> {
        (0..self.n_classes())
            .filter(|&c| (self.sizes[c] as usize) < k)
            .collect()
    }

    /// Re-partition after generalizing attribute `pos`'s cut to
    /// `target`: signatures whose `pos` node sits under `target` remap
    /// to it, and classes with equal signatures coalesce. O(#classes ·
    /// q) — the incremental counterpart of re-grouping all rows.
    pub fn remap(&self, pos: usize, h: &Hierarchy, target: NodeId) -> CutClasses {
        let mut map: FxHashMap<Vec<u32>, u32> = FxHashMap::default();
        let mut out = CutClasses {
            width: self.width,
            sigs: Vec::new(),
            sizes: Vec::new(),
        };
        for c in 0..self.n_classes() {
            let mut sig = self.sigs[c * self.width..(c + 1) * self.width].to_vec();
            if h.is_ancestor_or_self(target, NodeId(sig[pos])) {
                sig[pos] = target.0;
            }
            match map.entry(sig) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    out.sizes[*e.get() as usize] += self.sizes[c];
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    let idx = out.sizes.len() as u32;
                    out.sigs.extend_from_slice(e.key());
                    out.sizes.push(self.sizes[c]);
                    e.insert(idx);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{min_class_size_matrix, RelationalInput};
    use secreta_data::{Attribute, AttributeKind, RtTable, Schema};
    use secreta_hierarchy::auto_hierarchy;

    fn table() -> RtTable {
        let schema = Schema::new(vec![
            Attribute::numeric("Age"),
            Attribute::categorical("Edu"),
        ])
        .unwrap();
        let mut t = RtTable::new(schema);
        for (age, edu) in [
            ("30", "BSc"),
            ("31", "BSc"),
            ("32", "MSc"),
            ("33", "MSc"),
            ("60", "BSc"),
            ("61", "BSc"),
            ("62", "MSc"),
            ("63", "MSc"),
        ] {
            t.push_row(&[age, edu], &[]).unwrap();
        }
        t
    }

    fn input(t: &RtTable) -> RelationalInput<'_> {
        RelationalInput {
            table: t,
            qi_attrs: vec![0, 1],
            hierarchies: vec![
                auto_hierarchy(t.pool(0), AttributeKind::Numeric, 2).unwrap(),
                auto_hierarchy(t.pool(1), AttributeKind::Categorical, 2).unwrap(),
            ],
            k: 2,
        }
    }

    #[test]
    fn recode_tables_match_generalize_grouping() {
        let t = table();
        let i = input(&t);
        let rt = RecodeTables::build(&i.hierarchies);
        for (pos, h) in i.hierarchies.iter().enumerate() {
            for lvl in 0..=h.height() {
                let lt = rt.table(pos, lvl);
                // same group ⇔ same generalized node
                let dom = lt.groups.len();
                for a in 0..dom as u32 {
                    for b in 0..dom as u32 {
                        assert_eq!(
                            lt.groups[a as usize] == lt.groups[b as usize],
                            h.generalize(a, lvl) == h.generalize(b, lvl),
                            "pos={pos} lvl={lvl} a={a} b={b}"
                        );
                    }
                }
            }
            // merge tables compose: fine groups map into coarse groups
            for lvl in 0..h.height() {
                let fine = rt.table(pos, lvl);
                let coarse = rt.table(pos, lvl + 1);
                let merge = rt.merge(pos, lvl);
                for v in 0..fine.groups.len() {
                    assert_eq!(merge[fine.groups[v] as usize], coarse.groups[v]);
                }
            }
        }
    }

    #[test]
    fn partition_build_matches_min_class_size() {
        let t = table();
        let i = input(&t);
        let matrix = i.value_matrix();
        let domains = [t.domain_size(0), t.domain_size(1)];
        let rt = RecodeTables::build(&i.hierarchies);
        let heights: Vec<u32> = i.hierarchies.iter().map(|h| h.height()).collect();
        for l0 in 0..=heights[0] {
            for l1 in 0..=heights[1] {
                let p = Partition::build(&matrix, &[rt.table(0, l0), rt.table(1, l1)]);
                let expected = min_class_size_matrix(&matrix, &domains, |pos, v| {
                    i.hierarchies[pos].generalize(v, [l0, l1][pos])
                });
                assert_eq!(p.min_size(), expected, "levels ({l0},{l1})");
                let total: u64 = (0..p.n_classes()).map(|c| p.sizes[c]).sum();
                assert_eq!(total, 8, "partition covers every row");
            }
        }
    }

    #[test]
    fn rollup_equals_rebuild() {
        let t = table();
        let i = input(&t);
        let matrix = i.value_matrix();
        let rt = RecodeTables::build(&i.hierarchies);
        let heights: Vec<u32> = i.hierarchies.iter().map(|h| h.height()).collect();
        for l0 in 0..=heights[0] {
            for l1 in 0..=heights[1] {
                let p = Partition::build(&matrix, &[rt.table(0, l0), rt.table(1, l1)]);
                for pos in 0..2 {
                    let lvl = [l0, l1][pos];
                    if lvl >= heights[pos] {
                        continue;
                    }
                    let rolled = p.rollup(pos, rt.merge(pos, lvl), rt.table(pos, lvl + 1).n_groups);
                    let rebuilt = Partition::build(
                        &matrix,
                        &[
                            rt.table(0, if pos == 0 { l0 + 1 } else { l0 }),
                            rt.table(1, if pos == 1 { l1 + 1 } else { l1 }),
                        ],
                    );
                    assert_eq!(rolled.min_size(), rebuilt.min_size());
                    assert_eq!(rolled.n_classes(), rebuilt.n_classes());
                    let mut a: Vec<u64> = rolled.sizes.clone();
                    let mut b: Vec<u64> = rebuilt.sizes.clone();
                    a.sort_unstable();
                    b.sort_unstable();
                    assert_eq!(a, b, "same multiset of class sizes");
                }
            }
        }
    }

    #[test]
    fn column_partition_rolls_up_to_attribute_min_level() {
        let t = table();
        let i = input(&t);
        let matrix = i.value_matrix();
        let rt = RecodeTables::build(&i.hierarchies);
        // attribute 0 has 8 distinct ages: level 0 min class is 1
        let p = Partition::build_column(&matrix, 0, rt.table(0, 0));
        assert_eq!(p.min_size(), 1);
        assert_eq!(p.n_classes(), 8);
        // rolling to the root gives a single class of 8
        let h0 = &i.hierarchies[0];
        let mut p = p;
        for lvl in 0..h0.height() {
            p = p.rollup(0, rt.merge(0, lvl), rt.table(0, lvl + 1).n_groups);
        }
        assert_eq!(p.n_classes(), 1);
        assert_eq!(p.min_size(), 8);
    }

    #[test]
    fn row_partition_split_tracks_classes() {
        let t = table();
        let i = input(&t);
        let matrix = i.value_matrix();
        let mut p = RowPartition::root_cut(t.n_rows(), &i.hierarchies);
        assert_eq!(p.n_classes(), 1);
        let h0 = &i.hierarchies[0];
        let root0 = h0.root();
        let (ok, touched) = p.split_is_valid(&matrix, 0, root0, h0, 2);
        assert!(ok);
        assert_eq!(touched, 8);
        // an infeasible k refuses the same split
        let (bad, _) = p.split_is_valid(&matrix, 0, root0, h0, 5);
        assert!(!bad);
        p.apply_split(&matrix, 0, root0, h0);
        assert_eq!(p.n_classes(), h0.children(root0).len());
        let covered: usize = p.rows_of.iter().map(Vec::len).sum();
        assert_eq!(covered, 8);
        // class_of agrees with rows_of
        for (c, rows) in p.rows_of.iter().enumerate() {
            for &r in rows {
                assert_eq!(p.class_of[r as usize] as usize, c);
            }
        }
    }

    #[test]
    fn cut_classes_leaf_build_and_remap() {
        let t = table();
        let i = input(&t);
        let matrix = i.value_matrix();
        let domains = [t.domain_size(0), t.domain_size(1)];
        let classes = CutClasses::leaf_cut(&matrix, &i.hierarchies, &domains);
        assert_eq!(classes.n_classes(), 8, "all rows distinct at the leaf cut");
        assert_eq!(classes.violating(2).len(), 8);
        // generalizing Edu to the root merges along the Age axis only
        let h1 = &i.hierarchies[1];
        let remapped = classes.remap(1, h1, h1.root());
        assert_eq!(remapped.n_classes(), 8, "ages still distinct");
        // generalizing Age to the root leaves the two Edu classes
        let h0 = &i.hierarchies[0];
        let remapped = classes.remap(0, h0, h0.root());
        assert_eq!(remapped.n_classes(), 2);
        assert!(remapped.violating(4).is_empty());
        let total: u64 = remapped.sizes.iter().sum();
        assert_eq!(total, 8);
    }
}
