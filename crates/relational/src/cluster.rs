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
//! that kernel on two accelerations — a precomputed row-major leaf
//! matrix (no `table.value()` lookups in the loop) and O(1) Euler-tour
//! LCA with precomputed NCP, tabulated per leaf once per cluster
//! change so a candidate costs one lookup per attribute. The scan
//! itself stays sequential: one scan is microseconds of work, so
//! splitting it over threads lost to the spawns (a 15k-row run took
//! 1.13 s sequential against 1.62 s on two threads).
//! [`anonymize_reference`] preserves the original implementation
//! (parent-walk LCA, per-access table reads, on-demand NCP); tests
//! assert both produce identical output, and `secreta bench` reports
//! the speedup between them.

use crate::common::{RelError, RelOutput, RelationalInput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secreta_data::hash::FxHashMap;
use secreta_hierarchy::{Hierarchy, NodeId};
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

    let mut unassigned: Vec<usize> = (0..n).collect();
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
                // reference delta, so the sums below are bit-identical
                cost[off + leaf.index()] = h.ncp(h.lca(lca, leaf)) - base;
            }
        }
    };
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
        // greedily add the k-1 cheapest records
        for _ in 1..input.k {
            ncp_evals += unassigned.len() as u64;
            let bi = first_min(unassigned.len(), |i| {
                let row_leaves = leaves.row(unassigned[i]);
                let mut d = 0.0;
                for pos in 0..q {
                    d += cost[offsets[pos] + row_leaves[pos].index()];
                }
                d
            });
            let row = unassigned.swap_remove(bi);
            let mut changed = false;
            for (pos, h) in hierarchies.iter().enumerate() {
                let merged = h.lca(cluster.lcas[pos], leaves.row(row)[pos]);
                if merged != cluster.lcas[pos] {
                    cluster.lcas[pos] = merged;
                    changed = true;
                }
            }
            cluster.rows.push(row);
            if changed {
                rebuild(&mut cost, &cluster.lcas);
                cost_rebuilds += 1;
            }
        }
        clusters.push(cluster);
    }
    recorder.count("cluster/clusters", clusters.len() as u64);
    recorder.count("cluster/cost_rebuilds", cost_rebuilds);
    timer.phase("clustering");

    // leftovers (fewer than k) each join the cheapest cluster
    recorder.count("cluster/leftovers", unassigned.len() as u64);
    for row in unassigned.drain(..) {
        ncp_evals += clusters.len() as u64;
        let ci = first_min(clusters.len(), |i| delta(&clusters[i].lcas, row));
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

/// The pre-optimization implementation, retained verbatim as the
/// benchmark baseline and the independent oracle for equivalence
/// tests: parent-walk LCA, per-access `table.value()` reads, NCP
/// recomputed from leaf counts, sequential argmin scans.
pub fn anonymize_reference(input: &RelationalInput, seed: u64) -> Result<RelOutput, RelError> {
    input.validate()?;
    let mut timer = PhaseTimer::new();
    let q = input.qi_attrs.len();
    let n = input.table.n_rows();
    let mut rng = StdRng::seed_from_u64(seed);

    // row -> leaf nodes per attribute, resolved on every access
    let leaf_of_row = |row: usize, pos: usize| -> NodeId {
        input.hierarchies[pos].leaf(input.table.value(row, input.qi_attrs[pos]).0)
    };
    // the original on-demand NCP (the precomputed table did not exist)
    let ncp_of = |h: &Hierarchy, node: NodeId| -> f64 {
        let total = h.n_leaves();
        if total <= 1 {
            return 0.0;
        }
        (h.leaf_count(node) - 1) as f64 / (total - 1) as f64
    };

    let mut unassigned: Vec<usize> = (0..n).collect();
    let mut clusters: Vec<Building> = Vec::new();
    timer.phase("setup");

    let delta = |lcas: &[NodeId], row: usize| -> f64 {
        let mut d = 0.0;
        for (pos, &lca) in lcas.iter().enumerate() {
            let h = &input.hierarchies[pos];
            let merged = h.lca_walk(lca, leaf_of_row(row, pos));
            d += ncp_of(h, merged) - ncp_of(h, lca);
        }
        d
    };

    while unassigned.len() >= input.k {
        let si = rng.gen_range(0..unassigned.len());
        let seed_row = unassigned.swap_remove(si);
        let mut cluster = Building {
            rows: vec![seed_row],
            lcas: (0..q).map(|pos| leaf_of_row(seed_row, pos)).collect(),
        };
        for _ in 1..input.k {
            let (bi, _) = unassigned
                .iter()
                .enumerate()
                .map(|(i, &row)| (i, delta(&cluster.lcas, row)))
                .min_by(|a, b| a.1.partial_cmp(&b.1).expect("NCP finite"))
                .expect("unassigned non-empty: len >= k");
            let row = unassigned.swap_remove(bi);
            for pos in 0..q {
                let h = &input.hierarchies[pos];
                cluster.lcas[pos] = h.lca_walk(cluster.lcas[pos], leaf_of_row(row, pos));
            }
            cluster.rows.push(row);
        }
        clusters.push(cluster);
    }
    timer.phase("clustering");

    for row in unassigned.drain(..) {
        let (ci, _) = clusters
            .iter()
            .enumerate()
            .map(|(i, c)| (i, delta(&c.lcas, row)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("NCP finite"))
            .expect("k <= n guarantees at least one cluster");
        let c = &mut clusters[ci];
        for pos in 0..q {
            let h = &input.hierarchies[pos];
            c.lcas[pos] = h.lca_walk(c.lcas[pos], leaf_of_row(row, pos));
        }
        c.rows.push(row);
    }
    timer.phase("leftover assignment");

    let anon = recode(input, &clusters, n, q);
    timer.phase("recode");

    Ok(RelOutput {
        anon,
        phases: timer.finish(),
    })
}

/// The first index in `0..n` (`n >= 1`) of the minimal cost: a
/// strict `<` scan keeps the earliest of tied minima, as `min_by`
/// does in [`anonymize_reference`].
fn first_min(n: usize, cost: impl Fn(usize) -> f64) -> usize {
    let mut best = (0, cost(0));
    for i in 1..n {
        let c = cost(i);
        if c < best.1 {
            best = (i, c);
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

    /// A table wide enough for many clusters and leftovers.
    fn big_table(rows: usize) -> RtTable {
        let schema = Schema::new(vec![
            Attribute::numeric("Age"),
            Attribute::categorical("Edu"),
        ])
        .unwrap();
        let mut t = RtTable::new(schema);
        let edus = ["BSc", "MSc", "PhD", "HS"];
        for i in 0..rows {
            let age = (18 + (i * 13) % 60).to_string();
            t.push_row(&[&age, edus[(i * 7) % edus.len()]], &[])
                .unwrap();
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
    fn optimized_matches_reference_implementation() {
        let t = table();
        for seed in 0..4 {
            for k in [1, 2, 3, 5] {
                let fast = anonymize(&input(&t, k), seed).unwrap();
                let slow = anonymize_reference(&input(&t, k), seed).unwrap();
                assert_eq!(fast.anon, slow.anon, "seed={seed} k={k}");
            }
        }
    }

    #[test]
    fn optimized_matches_reference_on_large_input() {
        let t = big_table(700);
        let fast = anonymize(&input(&t, 10), 3).unwrap();
        let slow = anonymize_reference(&input(&t, 10), 3).unwrap();
        assert_eq!(fast.anon, slow.anon);
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
