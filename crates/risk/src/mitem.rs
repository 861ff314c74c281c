//! Transaction re-identification under m-item background knowledge.
//!
//! The adversary knows up to `m` original items of their victim's
//! transaction and matches them against the published (generalized)
//! rows: a row is a *candidate* when its published items cover every
//! known original item. The victim's **worst case** is the knowledge
//! subset with the fewest candidates — the adversary gets to pick what
//! they know. A worst case of one row is a unique re-identification; a
//! worst case of zero means suppression broke every link (the
//! adversary cannot even place the victim in the table).
//!
//! The kernel path reads a [`CandidateIndex`]: a tiered inverted index
//! over the published gen-item ids ([`InvertedIndex::from_fn`]) turned
//! into one [`RowSet`] per *distinct* candidate set (items with equal
//! covering lists share one set), ranked by cardinality. It enumerates
//! subsets of distinct sets only, smallest-first, with per-shard
//! memoized intersection counts. The naive path re-scans the whole
//! table per subset — the brute-force O(n²) oracle the kernel is tested
//! against. Both paths aggregate integer minima/sums merged in fixed
//! shard order, so results are byte-identical to each other and across
//! thread counts.
//!
//! **The proven floor.** When a record's own published row lies in the
//! candidate set of each of its items, that row is a candidate of every
//! knowledge family, so the record's worst case is at least 1.
//! Otherwise the floor is 0 — for example when one of its items is
//! suppressed in this row but published in others. The kernel computes
//! the floor once per record and stops the subset walk as soon as the
//! worst case reaches it; a knowledge size whose predecessor already
//! reached it inherits it without enumerating. This is exact for the
//! same reason a zero count ends the walk: intersections only shrink as
//! a family grows, and the floor bounds every family from below. The
//! memo still holds exact counts only.
//!
//! **Dense at n/64.** The inverted index hands out unions in the
//! transaction kernels' 1/16 density tier, which is tuned for sets
//! that get unioned again. A candidate set is only ever intersected and
//! counted, so it goes dense once it holds `n/64` of the `n` published
//! rows. There its sorted list costs `4 · n/64 = n/16` bytes and its
//! bitmap `n/8` bytes, so the bitmap is at most twice the list, and
//! every probe into it is a bit test instead of a binary search. A set
//! the index already made dense stays dense, and with the dense tier
//! disabled (threshold above 1) every set stays sparse.

use crate::{RiskParams, RiskWork};
use secreta_data::hash::FxHashMap;
use secreta_data::RtTable;
use secreta_hierarchy::Hierarchy;
use secreta_metrics::{AnonTable, AnonTransaction, GenEntry, MItemRisk, TransactionRisk};
use secreta_transaction::support::{for_each_subset_u32, InvertedIndex, KernelStats};
use secreta_transaction::{density_threshold, Bitset, Counting, RowSet};

/// Rows per shard below which the parallel row walk stays sequential.
const MIN_ROWS_PER_SHARD: usize = 128;

/// A candidate set goes dense once it holds `1/DENSE_FRACTION` of the
/// published rows (the byte arithmetic is in the module docs).
const DENSE_FRACTION: usize = 64;

/// Per-shard integer accumulator; merged field-wise in shard order.
struct Acc {
    /// Per `m` (index `m - 1`): (min worst-case, Σ worst-case, unique
    /// records).
    per_m: Vec<(u64, u64, u64)>,
    /// Records with at least one original item.
    counted: u64,
    work: RiskWork,
}

impl Acc {
    fn new(max_m: usize) -> Acc {
        Acc {
            per_m: vec![(u64::MAX, 0, 0); max_m],
            counted: 0,
            work: RiskWork::default(),
        }
    }

    fn absorb(&mut self, other: &Acc) {
        for (a, b) in self.per_m.iter_mut().zip(&other.per_m) {
            a.0 = a.0.min(b.0);
            a.1 += b.1;
            a.2 += b.2;
        }
        self.counted += other.counted;
        self.work.absorb(&other.work);
    }

    /// Record one attacked row's worst-case candidate counts, one per
    /// `m` in `1..=max_m`.
    fn record(&mut self, worst_by_m: &[u64]) {
        self.counted += 1;
        self.work.rows += 1;
        for (slot, &w) in self.per_m.iter_mut().zip(worst_by_m) {
            slot.0 = slot.0.min(w);
            slot.1 += w;
            slot.2 += u64::from(w == 1);
        }
    }

    fn finish(self) -> TransactionRisk {
        let per_m = self
            .per_m
            .iter()
            .zip(1..)
            .map(|(&(min, sum, unique), m)| MItemRisk {
                m,
                min_candidates: if self.counted == 0 { 0 } else { min },
                avg_candidates: if self.counted == 0 {
                    0.0
                } else {
                    sum as f64 / self.counted as f64
                },
                unique_fraction: if self.counted == 0 {
                    0.0
                } else {
                    unique as f64 / self.counted as f64
                },
            })
            .collect();
        TransactionRisk { per_m }
    }
}

/// Compute the m-item adversary block for the transaction part of
/// `anon`, plus the work tally. `(None, work)` when the output has no
/// transaction part.
pub fn transaction_risk(
    table: &RtTable,
    anon: &AnonTable,
    item_hierarchy: Option<&Hierarchy>,
    params: &RiskParams,
    counting: Counting,
) -> (Option<TransactionRisk>, RiskWork) {
    let candidates = anon
        .tx
        .as_ref()
        .map(|tx| CandidateIndex::build(table, tx, item_hierarchy));
    attack(
        table,
        anon,
        candidates.as_ref(),
        item_hierarchy,
        params,
        counting,
    )
}

/// [`transaction_risk`] over an already built candidate index of
/// `anon`'s transaction part (`None` when it has none). A `max_m` of 0
/// counts as 1.
pub(crate) fn attack(
    table: &RtTable,
    anon: &AnonTable,
    candidates: Option<&CandidateIndex>,
    item_hierarchy: Option<&Hierarchy>,
    params: &RiskParams,
    counting: Counting,
) -> (Option<TransactionRisk>, RiskWork) {
    let (Some(tx), Some(candidates)) = (&anon.tx, candidates) else {
        return (None, RiskWork::default());
    };
    let max_m = params.max_m.max(1) as usize;
    let acc = match counting {
        Counting::Kernel => kernel_attack(table, tx, candidates, max_m),
        Counting::Naive => naive_attack(table, tx, item_hierarchy, max_m),
    };
    let work = acc.work;
    (Some(acc.finish()), work)
}

/// Which gen-domain entries cover each original item id.
fn covering_lists(
    universe: usize,
    domain: &[GenEntry],
    item_hierarchy: Option<&Hierarchy>,
) -> Vec<Vec<u32>> {
    let mut covering: Vec<Vec<u32>> = vec![Vec::new(); universe];
    for (g, entry) in domain.iter().enumerate() {
        match entry {
            GenEntry::Set(s) => {
                for &v in s {
                    if (v as usize) < universe {
                        covering[v as usize].push(g as u32);
                    }
                }
            }
            GenEntry::Node(n) => {
                let h = item_hierarchy.expect("Node entries require the item hierarchy");
                for v in h.leaves_under(*n) {
                    if (v as usize) < universe {
                        covering[v as usize].push(g as u32);
                    }
                }
            }
            GenEntry::Suppressed => {}
        }
    }
    covering
}

/// The candidate sets of one published transaction table, ranked by
/// cardinality: the one index both the m-item attack and the
/// privacy-policy audit read.
///
/// An original item's candidate set holds the published rows whose
/// items cover it — the union of the postings of every gen entry
/// covering it. Items with equal covering lists share one set, and
/// after generalization most of the universe collapses onto a few
/// sets. Ranks ascend with cardinality (first-seen order breaks ties),
/// so a sorted rank list puts the smallest set first, and a family of
/// ranks is a canonical memo key across rows and shards.
#[derive(Debug)]
pub struct CandidateIndex {
    /// Distinct candidate sets, by rank.
    sets: Vec<RowSet>,
    /// Cardinality of each set, by rank; counted once, since a
    /// bitmap's cardinality is a popcount.
    lens: Vec<u64>,
    /// Original item id → rank of its candidate set; `None` when no
    /// published entry covers the item.
    rank_of_item: Vec<Option<u32>>,
}

impl CandidateIndex {
    /// Build the index over `tx`, the published transaction part of an
    /// anonymization of `table`. `item_hierarchy` expands `Node`
    /// entries.
    pub fn build(
        table: &RtTable,
        tx: &AnonTransaction,
        item_hierarchy: Option<&Hierarchy>,
    ) -> CandidateIndex {
        let n = tx.n_rows();
        let covering = covering_lists(table.item_universe(), &tx.domain, item_hierarchy);
        // Tiered index over the *published* rows: gen id → rows
        // containing it, with hot gen items carrying bitmaps.
        let gidx = InvertedIndex::from_fn(n, tx.domain.len(), |row, buf| {
            buf.extend_from_slice(tx.row_items(row))
        });
        let dense_at = (density_threshold() <= 1.0).then(|| n.div_ceil(DENSE_FRACTION).max(1));
        let mut union_stats = KernelStats::default();
        let mut by_list: FxHashMap<&[u32], u32> = FxHashMap::default();
        let mut unique: Vec<RowSet> = Vec::new();
        let mut set_of_item: Vec<Option<u32>> = Vec::with_capacity(covering.len());
        for c in &covering {
            if c.is_empty() {
                set_of_item.push(None);
                continue;
            }
            let next = unique.len() as u32;
            let id = *by_list.entry(c.as_slice()).or_insert_with(|| {
                let set = match gidx.union_rowset(c.iter().copied(), &mut union_stats) {
                    RowSet::Sparse(rows) if dense_at.is_some_and(|at| rows.len() >= at) => {
                        RowSet::Dense(Bitset::from_positions(&rows, n))
                    }
                    set => set,
                };
                unique.push(set);
                next
            });
            set_of_item.push(Some(id));
        }
        let mut ranked: Vec<(u64, u32, RowSet)> = unique
            .into_iter()
            .enumerate()
            .map(|(id, set)| (set.len() as u64, id as u32, set))
            .collect();
        ranked.sort_unstable_by_key(|&(len, id, _)| (len, id));
        let mut rank_of_set = vec![0u32; ranked.len()];
        for (rank, &(_, id, _)) in ranked.iter().enumerate() {
            rank_of_set[id as usize] = rank as u32;
        }
        let (lens, sets) = ranked.into_iter().map(|(len, _, set)| (len, set)).unzip();
        CandidateIndex {
            sets,
            lens,
            rank_of_item: set_of_item
                .into_iter()
                .map(|id| id.map(|id| rank_of_set[id as usize]))
                .collect(),
        }
    }

    /// Rank of `item`'s candidate set; `None` when no published entry
    /// covers it.
    pub(crate) fn rank(&self, item: u32) -> Option<u32> {
        self.rank_of_item.get(item as usize).copied().flatten()
    }

    /// Cardinality of the candidate set of `rank`.
    pub(crate) fn cardinality(&self, rank: u32) -> u64 {
        self.lens[rank as usize]
    }

    /// Is published row `row` in the candidate set of `rank`?
    pub(crate) fn contains(&self, rank: u32, row: u32) -> bool {
        self.sets[rank as usize].contains(row)
    }

    /// |∩| over a non-empty family of distinct candidate sets, given
    /// as ascending ranks, with no intermediate materialization. A
    /// one-set family is its cardinality; larger families tally one
    /// intersection into `work`.
    pub(crate) fn family_count(&self, ranks: &[u32], work: &mut RiskWork) -> u64 {
        if let [rank] = ranks {
            return self.cardinality(*rank);
        }
        let set = |r: &u32| &self.sets[*r as usize];
        work.intersections += 1;
        // a sparse operand drives a probe walk: every row of the
        // smallest sparse set (ranks ascend with cardinality, so the
        // first sparse set is it) is membership-tested against the rest
        if let Some(pi) = ranks.iter().position(|r| !set(r).is_dense()) {
            let RowSet::Sparse(rows) = set(&ranks[pi]) else {
                unreachable!("position() found a non-dense set")
            };
            work.bitmap_intersections += u64::from(ranks.iter().any(|r| set(r).is_dense()));
            return rows
                .iter()
                .filter(|&&row| {
                    ranks
                        .iter()
                        .enumerate()
                        .all(|(j, r)| j == pi || set(r).contains(row))
                })
                .count() as u64;
        }
        // all dense: one word-wise AND chain with popcount
        work.bitmap_intersections += 1;
        let dense = |r: &u32| match set(r) {
            RowSet::Dense(b) => b,
            RowSet::Sparse(_) => unreachable!("handled by the probe walk"),
        };
        dense(&ranks[0]).intersect_count_many(ranks[1..].iter().map(dense)) as u64
    }
}

fn kernel_attack(
    table: &RtTable,
    tx: &AnonTransaction,
    candidates: &CandidateIndex,
    max_m: usize,
) -> Acc {
    let parts = secreta_parallel::par_chunks(tx.n_rows(), MIN_ROWS_PER_SHARD, |lo, hi| {
        let mut acc = Acc::new(max_m);
        let mut distinct: Vec<u32> = Vec::new();
        let mut worst_by_m: Vec<u64> = Vec::new();
        // per-shard memo: canonical (sorted-rank) subset → |∩|. Rows
        // sharing a generalized shape repeat the same intersections.
        // The memo is an optimization, not a source of nondeterminism:
        // every hit returns the exact count a recompute would.
        let mut memo: FxHashMap<Vec<u32>, u64> = FxHashMap::default();
        for row in lo..hi {
            let items = table.transaction(row);
            if items.is_empty() {
                continue;
            }
            // map items to distinct candidate-set ranks; an item no
            // published entry covers zeroes every knowledge size
            distinct.clear();
            let mut uncovered = false;
            for it in items {
                match candidates.rank(it.0) {
                    Some(r) => distinct.push(r),
                    None => {
                        uncovered = true;
                        break;
                    }
                }
            }
            if uncovered {
                worst_by_m.clear();
                worst_by_m.resize(max_m, 0);
                acc.record(&worst_by_m);
                continue;
            }
            distinct.sort_unstable();
            distinct.dedup();
            let d = distinct.len();
            // the proven floor: a row in every one of the record's
            // candidate sets is a candidate of every knowledge family
            let floor = u64::from(distinct.iter().all(|&r| candidates.contains(r, row as u32)));
            // Exactness: an m_eff-item knowledge subset intersects the
            // distinct candidate sets of its items — a set family S
            // with |S| ≤ m_eff. Intersections only shrink as S grows,
            // and every family of size min(m_eff, d) is realizable
            // (pick one item per set, pad with duplicates), so the
            // worst case is the min over families of exactly that
            // size. Duplicate items never need enumerating, and no
            // family counts fewer than the floor, so a walk that
            // reaches it has found the worst case.
            worst_by_m.clear();
            for m in 1..=max_m {
                let size = m.min(items.len()).min(d);
                if m > 1 && (size == (m - 1).min(items.len()).min(d) || worst_by_m[m - 2] == floor)
                {
                    // the previous m had the same family size or
                    // already reached the floor — same worst
                    let prev = worst_by_m[m - 2];
                    worst_by_m.push(prev);
                    continue;
                }
                let worst = if size == 1 {
                    // ranks ascend with cardinality: first = smallest
                    acc.work.subsets += 1;
                    candidates.cardinality(distinct[0])
                } else {
                    let mut worst = u64::MAX;
                    for_each_subset_u32(&distinct, size, &mut |s| {
                        if worst == floor {
                            return;
                        }
                        acc.work.subsets += 1;
                        let count = match memo.get(s) {
                            Some(&c) => c,
                            None => {
                                let c = candidates.family_count(s, &mut acc.work);
                                memo.insert(s.to_vec(), c);
                                c
                            }
                        };
                        worst = worst.min(count);
                    });
                    worst
                };
                worst_by_m.push(worst);
            }
            acc.record(&worst_by_m);
        }
        acc
    });
    let mut iter = parts.into_iter();
    let mut global = iter.next().unwrap_or_else(|| Acc::new(max_m));
    for part in iter {
        global.absorb(&part);
    }
    global
}

/// The brute-force oracle: same enumeration, candidates counted by
/// re-scanning every published row per subset via [`GenEntry::covers`].
fn naive_attack(
    table: &RtTable,
    tx: &AnonTransaction,
    item_hierarchy: Option<&Hierarchy>,
    max_m: usize,
) -> Acc {
    let n = tx.n_rows();
    let mut acc = Acc::new(max_m);
    let mut worst_by_m: Vec<u64> = Vec::new();
    for row in 0..n {
        let items: Vec<u32> = table.transaction(row).iter().map(|it| it.0).collect();
        if items.is_empty() {
            continue;
        }
        worst_by_m.clear();
        for m in 1..=max_m {
            let m_eff = m.min(items.len());
            if m_eff < m {
                let prev = worst_by_m[m_eff - 1];
                worst_by_m.push(prev);
                continue;
            }
            let mut worst = u64::MAX;
            for_each_subset_u32(&items, m_eff, &mut |s| {
                if worst == 0 {
                    return;
                }
                acc.work.subsets += 1;
                let count = (0..n)
                    .filter(|&r2| {
                        s.iter().all(|&i| {
                            tx.row_items(r2)
                                .iter()
                                .any(|&g| tx.domain[g as usize].covers(i, item_hierarchy))
                        })
                    })
                    .count() as u64;
                worst = worst.min(count);
            });
            worst_by_m.push(worst);
        }
        acc.record(&worst_by_m);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use secreta_data::{Attribute, Schema};

    #[test]
    fn max_m_zero_counts_as_one() {
        let schema = Schema::new(vec![Attribute::transaction("Items")]).unwrap();
        let mut t = RtTable::new(schema);
        t.push_row(&[], &["a", "b"]).unwrap();
        t.push_row(&[], &["a"]).unwrap();
        let anon = AnonTable::identity(&t, &[]);
        let with_max_m = |max_m, counting| {
            let params = RiskParams {
                max_m,
                ..RiskParams::default()
            };
            transaction_risk(&t, &anon, None, &params, counting).0
        };
        for counting in [Counting::Kernel, Counting::Naive] {
            let one = with_max_m(1, counting);
            assert_eq!(one.as_ref().map(|r| r.per_m.len()), Some(1));
            assert_eq!(with_max_m(0, counting), one, "{counting:?}");
        }
    }
}
