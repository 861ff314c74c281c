//! Cluster — greedy k-member clustering with LCA recoding.
//!
//! The relational step of Poulis et al. (ECML/PKDD 2013), which
//! SECRETA lists as its "Cluster" algorithm: records are grouped into
//! clusters of at least `k` members chosen to minimize information
//! loss, and each cluster publishes, per QI attribute, the lowest
//! common ancestor of its members' values (local recoding — different
//! clusters may generalize the same value differently, which is what
//! lets Cluster beat the global-recoding algorithms on utility).
//!
//! Seeding is randomized (`seed` parameter) exactly so the SECRETA
//! Comparison mode can show run-to-run variance; member selection is
//! the standard greedy furthest/cheapest-insertion of k-member
//! clustering.
//!
//! # Performance
//!
//! The greedy insertion scan is the hot path: every added member costs
//! an argmin over all unassigned rows, each evaluating an
//! `ncp(lca(cluster, row))` delta per QI attribute. [`anonymize`] runs
//! that kernel on these accelerations:
//!
//! - O(1) Euler-tour LCA with precomputed NCP, tabulated per leaf once
//!   per cluster change, so a candidate costs one lookup per
//!   attribute.
//! - A compact candidate array: each unassigned row's `q` flat cost
//!   indices, kept in the order of the unassigned rows (every
//!   `swap_remove`, the seed pick's included, moves them too). The
//!   gather is monomorphised over QI widths 1 to 8, so it unrolls.
//! - Kept costs: the summed costs stay in a buffer aligned with that
//!   array. A step whose previous member moved no LCA left the
//!   tabulated costs as they were, so it scans the buffer instead of
//!   gathering again (`cluster/cost_sums` counts the costs actually
//!   gathered; `cluster/ncp_evals` still counts every cost compared).
//! - A zero-cost exit: NCP never falls toward the root, so every cost
//!   is `>= +0.0`, and a scan stops at the first 0.0, the earliest of
//!   the minima.
//!
//! Every cost is the oracle's f64 expression (0.0, then the attributes
//! in `qi_attrs` order) under the same earliest-index tie rule, so the
//! output is byte-identical to `secreta_oracle::relational::cluster`.
//! The scan stays sequential: one scan is microseconds of work, so
//! splitting it over threads lost to the spawns (a 15k-row run took
//! 1.13 s sequential against 1.62 s on two threads, before the
//! candidate array).

use crate::common::{LeafMatrix, RelError, RelOutput, RelationalInput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secreta_data::hash::FxHashMap;
use secreta_hierarchy::NodeId;
use secreta_metrics::{AnonTable, GenEntry, PhaseTimer, RelColumn};

/// A cluster under construction: member rows plus the running LCA per
/// QI attribute.
struct Building {
    rows: Vec<usize>,
    lcas: Vec<NodeId>,
}

/// Run Cluster on `input` with the given RNG `seed`.
pub fn anonymize(input: &RelationalInput, seed: u64) -> Result<RelOutput, RelError> {
    input.validate()?;
    let mut timer = PhaseTimer::new();
    let recorder = secreta_obsv::current();
    let q = input.qi_attrs.len();
    let n = input.table.n_rows();
    let mut rng = StdRng::seed_from_u64(seed);

    // row-major leaf matrix: the argmin loops touch every row's QI
    // tuple thousands of times, so resolve table cells to leaf nodes
    // exactly once
    let leaves = input.leaf_matrix();
    let hierarchies = &input.hierarchies;

    let mut clusters: Vec<Building> = Vec::new();

    // The absorption cost of a row depends only on its *leaf tuple*,
    // not on the row itself, so per attribute the cost of every
    // possible leaf can be tabulated once per cluster mutation
    // (O(q·leaves) with O(1) lca/ncp) and the argmin scan over rows
    // becomes pure flat-array lookups. `cost` is one flat buffer over
    // all hierarchies' node ids, indexed by `offsets[pos] + leaf`.
    let offsets: Vec<usize> = {
        let mut offs = Vec::with_capacity(q);
        let mut acc = 0usize;
        for h in hierarchies.iter() {
            offs.push(acc);
            acc += h.n_nodes();
        }
        offs
    };
    let total_nodes: usize = hierarchies.iter().map(|h| h.n_nodes()).sum();
    let mut cost = vec![0.0f64; total_nodes];
    let rebuild = |cost: &mut [f64], lcas: &[NodeId]| {
        for (pos, &lca) in lcas.iter().enumerate() {
            let h = &hierarchies[pos];
            let base = h.ncp(lca);
            let off = offsets[pos];
            for v in 0..h.n_leaves() as u32 {
                let leaf = h.leaf(v);
                // same expression and evaluation order as the
                // oracle's delta, so the sums below are bit-identical
                cost[off + leaf.index()] = h.ncp(h.lca(lca, leaf)) - base;
            }
        }
    };
    let mut unassigned = Unassigned::new(&leaves, n, &offsets);
    timer.phase("setup");

    // Generic absorption cost (used on the sparse leftover path where
    // tabulation would not pay off): summed NCP increase over
    // attributes, O(q) via the constant-time kernels.
    let delta = |lcas: &[NodeId], row: usize| -> f64 {
        let row_leaves = leaves.row(row);
        let mut d = 0.0;
        for (pos, &lca) in lcas.iter().enumerate() {
            let h = &hierarchies[pos];
            let merged = h.lca(lca, row_leaves[pos]);
            d += h.ncp(merged) - h.ncp(lca);
        }
        d
    };

    // counters batch in locals and flush once per phase — the hot
    // loops never touch the recorder's lock
    let mut ncp_evals = 0u64;
    let mut cost_sums = 0u64;
    let mut cost_rebuilds = 0u64;

    while unassigned.len() >= input.k {
        // random seed record (the randomized choice of the original)
        let si = rng.gen_range(0..unassigned.len());
        let seed_row = unassigned.swap_remove(si);
        let mut cluster = Building {
            rows: vec![seed_row],
            lcas: leaves.row(seed_row).to_vec(),
        };
        rebuild(&mut cost, &cluster.lcas);
        cost_rebuilds += 1;
        // whether `cost` changed since the candidates' sums were taken
        let mut stale = true;
        // greedily add the k-1 cheapest records
        for _ in 1..input.k {
            ncp_evals += unassigned.len() as u64;
            if stale {
                cost_sums += unassigned.len() as u64;
                unassigned.sum_costs(&cost);
            }
            let row = unassigned.swap_remove(first_min(unassigned.sums.iter().copied()));
            stale = false;
            for (pos, h) in hierarchies.iter().enumerate() {
                let merged = h.lca(cluster.lcas[pos], leaves.row(row)[pos]);
                if merged != cluster.lcas[pos] {
                    cluster.lcas[pos] = merged;
                    stale = true;
                }
            }
            cluster.rows.push(row);
            if stale {
                rebuild(&mut cost, &cluster.lcas);
                cost_rebuilds += 1;
            }
        }
        clusters.push(cluster);
    }
    recorder.count("cluster/clusters", clusters.len() as u64);
    recorder.count("cluster/cost_rebuilds", cost_rebuilds);
    recorder.count("cluster/cost_sums", cost_sums);
    timer.phase("clustering");

    // leftovers (fewer than k) each join the cheapest cluster
    recorder.count("cluster/leftovers", unassigned.len() as u64);
    for &row in &unassigned.rows {
        ncp_evals += clusters.len() as u64;
        let ci = first_min(clusters.iter().map(|c| delta(&c.lcas, row)));
        let c = &mut clusters[ci];
        for (pos, h) in hierarchies.iter().enumerate() {
            c.lcas[pos] = h.lca(c.lcas[pos], leaves.row(row)[pos]);
        }
        c.rows.push(row);
    }
    recorder.count("cluster/ncp_evals", ncp_evals);
    timer.phase("leftover assignment");

    let anon = recode(input, &clusters, n, q);
    timer.phase("recode");

    Ok(RelOutput {
        anon,
        phases: timer.finish(),
    })
}

/// The unassigned rows as one compact candidate array: each row's `q`
/// flat cost indices (`offsets[pos] + leaf`) and its summed cost, all
/// three kept in the same order by [`Unassigned::swap_remove`], so a
/// scan reads contiguous memory instead of `leaves.row(rows[i])`.
struct Unassigned {
    rows: Vec<usize>,
    /// `q` indices into the flat cost table per row.
    idx: Vec<u32>,
    /// Each row's cost as of the last [`Unassigned::sum_costs`].
    sums: Vec<f64>,
    q: usize,
}

impl Unassigned {
    /// Every row of `leaves` (`n` rows), in row order.
    fn new(leaves: &LeafMatrix, n: usize, offsets: &[usize]) -> Unassigned {
        let q = leaves.width();
        let mut idx = Vec::with_capacity(n * q);
        for row in 0..n {
            for (&off, leaf) in offsets.iter().zip(leaves.row(row)) {
                idx.push(u32::try_from(off + leaf.index()).expect("cost table fits u32 indices"));
            }
        }
        Unassigned {
            rows: (0..n).collect(),
            idx,
            sums: vec![0.0; n],
            q,
        }
    }

    fn len(&self) -> usize {
        self.rows.len()
    }

    /// Take out candidate `i` and return its row; the last candidate
    /// takes its place in every array, as `Vec::swap_remove` does.
    fn swap_remove(&mut self, i: usize) -> usize {
        let last = self.idx.len() - self.q;
        self.idx.copy_within(last.., i * self.q);
        self.idx.truncate(last);
        self.sums.swap_remove(i);
        self.rows.swap_remove(i)
    }

    /// Sum every candidate's costs from the flat `cost` table into
    /// `sums`: 0.0, then the attributes in `qi_attrs` order, the same
    /// expression as the oracle's delta. Widths up to 8 get a loop of
    /// constant trip count, which the compiler unrolls.
    fn sum_costs(&mut self, cost: &[f64]) {
        fn fixed<const Q: usize>(idx: &[u32], cost: &[f64], sums: &mut [f64]) {
            for (row, sum) in idx.chunks_exact(Q).zip(sums) {
                let row: &[u32; Q] = row.try_into().expect("chunks of Q indices");
                *sum = row_cost(row, cost);
            }
        }
        let (idx, sums) = (&self.idx, &mut self.sums);
        match self.q {
            1 => fixed::<1>(idx, cost, sums),
            2 => fixed::<2>(idx, cost, sums),
            3 => fixed::<3>(idx, cost, sums),
            4 => fixed::<4>(idx, cost, sums),
            5 => fixed::<5>(idx, cost, sums),
            6 => fixed::<6>(idx, cost, sums),
            7 => fixed::<7>(idx, cost, sums),
            8 => fixed::<8>(idx, cost, sums),
            q => {
                for (row, sum) in idx.chunks_exact(q).zip(sums) {
                    *sum = row_cost(row, cost);
                }
            }
        }
    }
}

/// One candidate's cost, `0.0 + cost[row[0]] + cost[row[1]] + …`;
/// inlined so a fixed-width caller's loop unrolls.
#[inline(always)]
fn row_cost(row: &[u32], cost: &[f64]) -> f64 {
    row.iter().fold(0.0, |d, &c| d + cost[c as usize])
}

/// The index of the first minimum of `costs` (non-empty, every cost
/// `>= +0.0`): a strict `<` scan keeps the earliest of tied minima, as
/// `min_by` does, and stops at the first 0.0, which nothing undercuts.
fn first_min(costs: impl IntoIterator<Item = f64>) -> usize {
    let mut best = (0, f64::INFINITY);
    for (i, c) in costs.into_iter().enumerate() {
        if c < best.1 {
            best = (i, c);
            if c == 0.0 {
                break;
            }
        }
    }
    best.0
}

/// Publish each cluster's LCA per QI attribute (local recoding).
fn recode(input: &RelationalInput, clusters: &[Building], n: usize, q: usize) -> AnonTable {
    let mut rel = Vec::with_capacity(q);
    for pos in 0..q {
        let mut domain: Vec<GenEntry> = Vec::new();
        let mut index: FxHashMap<NodeId, u32> = FxHashMap::default();
        let mut cells = vec![0u32; n];
        for c in clusters {
            let node = c.lcas[pos];
            let next = domain.len() as u32;
            let gid = *index.entry(node).or_insert(next);
            if gid as usize == domain.len() {
                domain.push(GenEntry::Node(node));
            }
            for &row in &c.rows {
                cells[row] = gid;
            }
        }
        rel.push(RelColumn {
            attr: input.qi_attrs[pos],
            domain,
            cells,
        });
    }
    AnonTable {
        rel,
        tx: None,
        n_rows: n,
    }
}

/// Row sets of the clusters produced by the clustering phase — needed
/// by the RT bounding methods, which anonymize the transaction part
/// *within* each relational cluster. Same algorithm and seed semantics
/// as [`anonymize`], returning the partition instead of the recoding.
pub fn cluster_rows(input: &RelationalInput, seed: u64) -> Result<Vec<Vec<usize>>, RelError> {
    let out = anonymize(input, seed)?;
    // reconstruct the partition from equivalence classes of the output
    // (clusters with identical LCAs merge — harmless for the callers,
    // since equal signatures are indistinguishable anyway)
    let classes = out.anon.equivalence_classes();
    let mut clusters: Vec<Vec<usize>> = vec![Vec::new(); classes.sizes.len()];
    for (row, &c) in classes.row_class.iter().enumerate() {
        clusters[c as usize].push(row);
    }
    Ok(clusters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::is_k_anonymous;
    use secreta_data::{Attribute, AttributeKind, RtTable, Schema};
    use secreta_hierarchy::auto_hierarchy;
    use secreta_metrics::gcp;

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
            ("64", "PhD"),
        ] {
            t.push_row(&[age, edu], &[]).unwrap();
        }
        t
    }

    fn input(t: &RtTable, k: usize) -> RelationalInput<'_> {
        RelationalInput {
            table: t,
            qi_attrs: vec![0, 1],
            hierarchies: vec![
                auto_hierarchy(t.pool(0), AttributeKind::Numeric, 2).unwrap(),
                auto_hierarchy(t.pool(1), AttributeKind::Categorical, 2).unwrap(),
            ],
            k,
        }
    }

    #[test]
    fn produces_k_anonymous_truthful_output() {
        let t = table();
        for k in [1, 2, 3, 4] {
            let out = anonymize(&input(&t, k), 42).unwrap();
            assert!(is_k_anonymous(&out.anon, k), "k={k}");
            let hs = input(&t, k).hierarchies;
            assert!(out.anon.is_truthful(&t, |a| Some(hs[a].clone()), None));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let t = table();
        let a = anonymize(&input(&t, 3), 7).unwrap();
        let b = anonymize(&input(&t, 3), 7).unwrap();
        assert_eq!(a.anon, b.anon);
    }

    #[test]
    fn different_seeds_may_differ_but_stay_valid() {
        let t = table();
        for seed in 0..5 {
            let out = anonymize(&input(&t, 3), seed).unwrap();
            assert!(is_k_anonymous(&out.anon, 3));
        }
    }

    #[test]
    fn local_recoding_beats_or_matches_full_domain_on_this_data() {
        // clusters of close ages keep NCP low; full generalization
        // would pay much more
        let t = table();
        let hs = input(&t, 2).hierarchies;
        let out = anonymize(&input(&t, 2), 1).unwrap();
        let g = gcp(&t, &out.anon, |a| Some(hs[a].clone()));
        assert!(g < 1.0, "must not degenerate to the root: {g}");
    }

    #[test]
    fn leftovers_are_absorbed() {
        let t = table(); // 9 rows, k=4 -> 2 clusters + 1 leftover
        let out = anonymize(&input(&t, 4), 3).unwrap();
        let sizes = out.anon.equivalence_classes().sizes;
        assert_eq!(sizes.iter().sum::<usize>(), 9);
        assert!(sizes.iter().all(|&s| s >= 4));
    }

    #[test]
    fn cluster_rows_partitions_everything() {
        let t = table();
        let clusters = cluster_rows(&input(&t, 3), 11).unwrap();
        let mut all: Vec<usize> = clusters.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..9).collect::<Vec<_>>());
        for c in &clusters {
            assert!(c.len() >= 3);
        }
    }

    #[test]
    fn infeasible_k_rejected() {
        let t = table();
        assert!(matches!(
            anonymize(&input(&t, 10), 0),
            Err(RelError::Infeasible { .. })
        ));
    }

    #[test]
    fn k_equals_n_single_cluster() {
        let t = table();
        let out = anonymize(&input(&t, 9), 5).unwrap();
        let sizes = out.anon.equivalence_classes().sizes;
        assert_eq!(sizes, vec![9]);
    }
}
