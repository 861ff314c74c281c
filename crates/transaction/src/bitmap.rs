//! Word-level bitmap row sets — the dense tier of the tiered
//! support-counting representation.
//!
//! The CSR posting lists of [`crate::support::InvertedIndex`] are the
//! right shape for *rare* items: a handful of sorted row positions,
//! intersected and unioned scalar-wise. For *hot* items (and for the
//! merged groups COAT/PCTA grow round after round) the row sets cover
//! a large fraction of the table, and the scalar set algebra becomes
//! the bottleneck: a union re-sorts tens of thousands of positions per
//! round, an intersection walks both lists element by element. This
//! module provides the dense alternative:
//!
//! * [`Bitset`] — one bit per row position, 64 rows per machine word.
//!   Union is word-wise `OR`, intersection word-wise `AND`,
//!   cardinality a `count_ones` popcount loop.
//! * [`RowSet`] — the tiered set: `Sparse` (sorted positions, the CSR
//!   representation) below the density threshold, `Dense` (a
//!   [`Bitset`]) above it. Mixed `Dense`×`Sparse` intersections probe
//!   each sparse position against the bitmap word it falls in — never
//!   materializing the dense side.
//!
//! The tier boundary is the **density threshold**: a row set whose
//! (estimated) cardinality is at least `threshold × n_rows` goes
//! dense. [`density_threshold`] resolves it from
//! [`set_density_threshold`] (tests, benchmarks), else
//! [`DEFAULT_DENSITY_THRESHOLD`]. Setting a threshold above `1.0`
//! disables the dense tier entirely (no set can be that dense), which
//! is how `secreta bench --suite tiered` resurrects the pure-CSR
//! kernel as its baseline.
//!
//! Determinism: every operation here computes a set cardinality or a
//! sorted position list — values independent of the representation.
//! The tier a set lands in depends only on the table and the
//! threshold.

use std::sync::atomic::{AtomicU64, Ordering};

/// Default density threshold: row sets covering at least 1/16th of
/// the table go dense. A `Bitset` costs `n_rows / 8` bytes; at 1/16
/// density the sparse form would already spend ≥ 4 bytes per set row,
/// so the dense form is no larger and every operation on it is
/// word-parallel.
pub const DEFAULT_DENSITY_THRESHOLD: f64 = 1.0 / 16.0;

/// Sentinel for "no override installed".
const NO_OVERRIDE: u64 = u64::MAX;

/// Process-global override of the density threshold (f64 bits).
static THRESHOLD_OVERRIDE: AtomicU64 = AtomicU64::new(NO_OVERRIDE);

/// The override is process-global, so tests that mutate it must not
/// interleave; every such test takes this lock first.
#[cfg(test)]
pub(crate) static TEST_THRESHOLD_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Force the bitmap density threshold for all subsequently built
/// indexes; `None` clears the override. Values above `1.0` disable
/// the dense tier (pure-CSR kernels, the PR-4 behaviour); `0.0` makes
/// every non-empty row set dense. Intended for tests and the
/// `bench --suite tiered` baseline.
pub fn set_density_threshold(t: Option<f64>) {
    let bits = match t {
        Some(v) => v.to_bits(),
        None => NO_OVERRIDE,
    };
    THRESHOLD_OVERRIDE.store(bits, Ordering::SeqCst);
}

/// The density threshold newly built indexes will snapshot: the
/// [`set_density_threshold`] override, else
/// [`DEFAULT_DENSITY_THRESHOLD`].
pub fn density_threshold() -> f64 {
    match THRESHOLD_OVERRIDE.load(Ordering::SeqCst) {
        NO_OVERRIDE => DEFAULT_DENSITY_THRESHOLD,
        bits => f64::from_bits(bits),
    }
}

/// A fixed-universe bit set over row positions `0..n_bits`.
///
/// Bits at positions `>= n_bits` (the tail of the last word) are kept
/// zero by every operation, so popcounts never need masking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitset {
    words: Vec<u64>,
    n_bits: usize,
}

impl Bitset {
    /// The empty set over a universe of `n_bits` positions.
    pub fn new(n_bits: usize) -> Bitset {
        Bitset {
            words: vec![0; n_bits.div_ceil(64)],
            n_bits,
        }
    }

    /// Build from sorted (or unsorted — bits commute) positions.
    pub fn from_positions(positions: &[u32], n_bits: usize) -> Bitset {
        let mut b = Bitset::new(n_bits);
        b.insert_all(positions);
        b
    }

    /// Universe size (not the cardinality).
    pub fn universe(&self) -> usize {
        self.n_bits
    }

    /// Set the bit at `pos`.
    #[inline]
    pub fn insert(&mut self, pos: u32) {
        debug_assert!((pos as usize) < self.n_bits);
        self.words[pos as usize >> 6] |= 1u64 << (pos & 63);
    }

    /// Set every bit in `positions`.
    pub fn insert_all(&mut self, positions: &[u32]) {
        for &p in positions {
            self.insert(p);
        }
    }

    /// Is the bit at `pos` set?
    #[inline]
    pub fn contains(&self, pos: u32) -> bool {
        let w = pos as usize >> 6;
        w < self.words.len() && self.words[w] & (1u64 << (pos & 63)) != 0
    }

    /// Word-wise union with `other` (same universe).
    pub fn union_with(&mut self, other: &Bitset) {
        debug_assert_eq!(self.n_bits, other.n_bits);
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// Word-wise intersection with `other` (same universe).
    pub fn intersect_with(&mut self, other: &Bitset) {
        debug_assert_eq!(self.n_bits, other.n_bits);
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= o;
        }
    }

    /// Word-wise difference: clear every bit set in `other`.
    pub fn subtract(&mut self, other: &Bitset) {
        debug_assert_eq!(self.n_bits, other.n_bits);
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= !o;
        }
    }

    /// Cardinality, as a popcount loop.
    pub fn count_ones(&self) -> usize {
        self.words
            .iter()
            .map(|w| w.count_ones() as u64)
            .sum::<u64>() as usize
    }

    /// `|self ∩ other|` without materializing the intersection.
    pub fn intersect_count(&self, other: &Bitset) -> usize {
        debug_assert_eq!(self.n_bits, other.n_bits);
        self.words
            .iter()
            .zip(&other.words)
            .map(|(x, y)| (x & y).count_ones() as u64)
            .sum::<u64>() as usize
    }

    /// `|self ∩ o₁ ∩ o₂ ∩ …|` for a chain of same-universe bitsets,
    /// with no intermediate materialization: each word of `self` is
    /// AND-ed through the chain (short-circuiting on zero) before its
    /// popcount. The k-way form of [`Bitset::intersect_count`], for
    /// callers like the m-item adversary that need only the
    /// cardinality of a multi-way intersection.
    pub fn intersect_count_many<'a>(
        &self,
        others: impl Iterator<Item = &'a Bitset> + Clone,
    ) -> usize {
        // blocked so each AND pass is a branch-free loop over two
        // contiguous slices (vectorizable), with an early exit between
        // blocks once a prefix proves empty
        const BLOCK: usize = 64;
        let mut buf = [0u64; BLOCK];
        let mut total = 0usize;
        let n = self.words.len();
        let mut lo = 0;
        while lo < n {
            let hi = (lo + BLOCK).min(n);
            let len = hi - lo;
            buf[..len].copy_from_slice(&self.words[lo..hi]);
            for o in others.clone() {
                debug_assert_eq!(self.n_bits, o.n_bits);
                for (b, &w) in buf[..len].iter_mut().zip(&o.words[lo..hi]) {
                    *b &= w;
                }
            }
            total += buf[..len]
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum::<usize>();
            lo = hi;
        }
        total
    }

    /// How many of the sorted positions in `sorted` are set — the
    /// mixed bitmap×CSR intersection: each sparse position probes the
    /// word it falls in; the dense side is never expanded.
    pub fn probe_count(&self, sorted: &[u32]) -> usize {
        sorted.iter().filter(|&&p| self.contains(p)).count()
    }

    /// Filter `sorted` down to the positions whose bit is set,
    /// appending to `out` (the materializing form of
    /// [`Bitset::probe_count`]).
    pub fn probe_filter(&self, sorted: &[u32], out: &mut Vec<u32>) {
        out.extend(sorted.iter().copied().filter(|&p| self.contains(p)));
    }

    /// Extract the set positions in ascending order into `out`
    /// (cleared first).
    pub fn to_sorted(&self, out: &mut Vec<u32>) {
        out.clear();
        for (wi, &word) in self.words.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let bit = w.trailing_zeros();
                out.push((wi as u32) << 6 | bit);
                w &= w - 1;
            }
        }
    }
}

/// A tiered row set: sorted positions below the density threshold,
/// a [`Bitset`] above it. Both forms denote the same mathematical
/// set; every query answered from one is identical from the other.
#[derive(Debug, Clone)]
pub enum RowSet {
    /// Sorted, duplicate-free row positions (the CSR tier).
    Sparse(Vec<u32>),
    /// Word-level bitmap (the dense tier).
    Dense(Bitset),
}

impl RowSet {
    /// Cardinality.
    pub fn len(&self) -> usize {
        match self {
            RowSet::Sparse(v) => v.len(),
            RowSet::Dense(b) => b.count_ones(),
        }
    }

    /// True when the set has no rows.
    pub fn is_empty(&self) -> bool {
        match self {
            RowSet::Sparse(v) => v.is_empty(),
            RowSet::Dense(b) => b.words.iter().all(|&w| w == 0),
        }
    }

    /// Is `pos` in the set?
    pub fn contains(&self, pos: u32) -> bool {
        match self {
            RowSet::Sparse(v) => v.binary_search(&pos).is_ok(),
            RowSet::Dense(b) => b.contains(pos),
        }
    }

    /// The set as sorted positions, written into `out` (cleared
    /// first).
    pub fn to_sorted(&self, out: &mut Vec<u32>) {
        match self {
            RowSet::Sparse(v) => {
                out.clear();
                out.extend_from_slice(v);
            }
            RowSet::Dense(b) => b.to_sorted(out),
        }
    }

    /// `self ∩ other`, picking the cheapest path per tier pair:
    /// `Dense`×`Dense` is a word-`AND`, mixed pairs probe the sparse
    /// side against the bitmap, `Sparse`×`Sparse` falls back to the
    /// (galloping) sorted intersection. The result of a mixed or
    /// sparse pair is always `Sparse` — an intersection can only
    /// shrink, so re-densifying would never pay.
    pub fn intersect(&self, other: &RowSet) -> RowSet {
        match (self, other) {
            (RowSet::Dense(a), RowSet::Dense(b)) => {
                let mut out = a.clone();
                out.intersect_with(b);
                RowSet::Dense(out)
            }
            (RowSet::Dense(a), RowSet::Sparse(b)) => {
                let mut out = Vec::new();
                a.probe_filter(b, &mut out);
                RowSet::Sparse(out)
            }
            (RowSet::Sparse(a), RowSet::Dense(b)) => {
                let mut out = Vec::new();
                b.probe_filter(a, &mut out);
                RowSet::Sparse(out)
            }
            (RowSet::Sparse(a), RowSet::Sparse(b)) => {
                let mut out = Vec::new();
                crate::support::intersect_sorted(a, b, &mut out);
                RowSet::Sparse(out)
            }
        }
    }

    /// `|self ∩ other|` without materializing the intersection — the
    /// hot final step of a constraint-support check, where only the
    /// cardinality is published.
    pub fn intersect_len(&self, other: &RowSet) -> usize {
        match (self, other) {
            (RowSet::Dense(a), RowSet::Dense(b)) => a.intersect_count(b),
            (RowSet::Dense(a), RowSet::Sparse(b)) | (RowSet::Sparse(b), RowSet::Dense(a)) => {
                a.probe_count(b)
            }
            (RowSet::Sparse(a), RowSet::Sparse(b)) => {
                let mut out = Vec::new();
                crate::support::intersect_sorted(a, b, &mut out);
                out.len()
            }
        }
    }

    /// Is this the dense (bitmap) tier?
    pub fn is_dense(&self) -> bool {
        matches!(self, RowSet::Dense(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted(b: &Bitset) -> Vec<u32> {
        let mut v = Vec::new();
        b.to_sorted(&mut v);
        v
    }

    #[test]
    fn insert_contains_extract_roundtrip() {
        // 100 bits: universe deliberately not a multiple of 64
        let mut b = Bitset::new(100);
        for p in [0u32, 1, 63, 64, 65, 99] {
            b.insert(p);
        }
        assert!(b.contains(63) && b.contains(64) && b.contains(99));
        assert!(!b.contains(2) && !b.contains(98));
        assert_eq!(sorted(&b), vec![0, 1, 63, 64, 65, 99]);
        assert_eq!(b.count_ones(), 6);
    }

    #[test]
    fn empty_and_full_universes() {
        let empty = Bitset::new(70);
        assert_eq!(empty.count_ones(), 0);
        assert_eq!(sorted(&empty), Vec::<u32>::new());
        let all: Vec<u32> = (0..70).collect();
        let full = Bitset::from_positions(&all, 70);
        assert_eq!(full.count_ones(), 70);
        assert_eq!(sorted(&full), all);
        // tail bits of the last word stay clear: intersecting the
        // full set with itself keeps the exact cardinality
        assert_eq!(full.intersect_count(&full), 70);
    }

    #[test]
    fn set_algebra_matches_reference() {
        let a = Bitset::from_positions(&[1, 5, 64, 65, 90], 100);
        let b = Bitset::from_positions(&[5, 64, 66, 99], 100);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(sorted(&u), vec![1, 5, 64, 65, 66, 90, 99]);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(sorted(&i), vec![5, 64]);
        assert_eq!(a.intersect_count(&b), 2);
        let mut d = a.clone();
        d.subtract(&b);
        assert_eq!(sorted(&d), vec![1, 65, 90]);
    }

    #[test]
    fn probes_match_materialized_intersection() {
        let dense = Bitset::from_positions(&[0, 2, 64, 128, 129], 130);
        let sparse = [0u32, 1, 64, 127, 129];
        assert_eq!(dense.probe_count(&sparse), 3);
        let mut out = Vec::new();
        dense.probe_filter(&sparse, &mut out);
        assert_eq!(out, vec![0, 64, 129]);
        // probing an empty sparse list is a no-op
        assert_eq!(dense.probe_count(&[]), 0);
    }

    #[test]
    fn rowset_intersections_agree_across_tiers() {
        let n = 130usize;
        let a: Vec<u32> = (0..n as u32).filter(|p| p % 3 == 0).collect();
        let b: Vec<u32> = (0..n as u32).filter(|p| p % 5 == 0).collect();
        let expect: Vec<u32> = (0..n as u32).filter(|p| p % 15 == 0).collect();
        let tiers_a = [
            RowSet::Sparse(a.clone()),
            RowSet::Dense(Bitset::from_positions(&a, n)),
        ];
        let tiers_b = [
            RowSet::Sparse(b.clone()),
            RowSet::Dense(Bitset::from_positions(&b, n)),
        ];
        for ta in &tiers_a {
            for tb in &tiers_b {
                let got = ta.intersect(tb);
                let mut v = Vec::new();
                got.to_sorted(&mut v);
                assert_eq!(v, expect);
                assert_eq!(got.len(), expect.len());
            }
        }
    }

    #[test]
    fn rowset_edge_cases() {
        // empty × anything, and an all-rows set in both tiers
        let n = 67usize;
        let all: Vec<u32> = (0..n as u32).collect();
        let dense_all = RowSet::Dense(Bitset::from_positions(&all, n));
        let empty = RowSet::Sparse(Vec::new());
        assert!(empty.intersect(&dense_all).is_empty());
        assert!(dense_all.intersect(&empty).is_empty());
        assert_eq!(dense_all.intersect(&dense_all).len(), n);
        assert!(dense_all.contains(66) && !dense_all.contains(67));
    }

    #[test]
    fn threshold_override_resolves() {
        let _serial = TEST_THRESHOLD_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        set_density_threshold(Some(0.25));
        assert_eq!(density_threshold(), 0.25);
        set_density_threshold(Some(2.0));
        assert!(density_threshold() > 1.0);
        set_density_threshold(None);
        assert!(density_threshold() <= 1.0);
    }
}
