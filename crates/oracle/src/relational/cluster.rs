//! Cluster as first written: parent-walk LCA, per-access
//! `table.value()` reads, NCP recomputed from leaf counts, and plain
//! `min_by` argmin scans. It walks the hierarchy's parent pointers
//! itself, so it shares no LCA or NCP code with the kernel it checks.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secreta_data::hash::FxHashMap;
use secreta_hierarchy::{Hierarchy, NodeId};
use secreta_metrics::{AnonTable, GenEntry, PhaseTimer, RelColumn};
use secreta_relational::{RelError, RelOutput, RelationalInput};

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
            let merged = lca_walk(h, lca, leaf_of_row(row, pos));
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
                cluster.lcas[pos] = lca_walk(h, cluster.lcas[pos], leaf_of_row(row, pos));
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
            c.lcas[pos] = lca_walk(h, c.lcas[pos], leaf_of_row(row, pos));
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

/// Lowest common ancestor by walking parent pointers — O(height).
fn lca_walk(h: &Hierarchy, mut a: NodeId, mut b: NodeId) -> NodeId {
    while h.depth(a) > h.depth(b) {
        a = h.parent(a).expect("deeper node has a parent");
    }
    while h.depth(b) > h.depth(a) {
        b = h.parent(b).expect("deeper node has a parent");
    }
    while a != b {
        a = h.parent(a).expect("non-root differs from sibling");
        b = h.parent(b).expect("non-root differs from sibling");
    }
    a
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
