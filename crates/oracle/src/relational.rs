//! Oracles of the four relational algorithms, plus the naive
//! equivalence-class count the three searches rescan with.

pub mod bottomup;
pub mod cluster;
pub mod incognito;
pub mod topdown;

use secreta_data::hash::FxHashMap;
use secreta_hierarchy::NodeId;
use secreta_relational::common::ValueMatrix;
use secreta_relational::RelationalInput;

/// Minimum equivalence-class size of `input`'s rows when each QI
/// attribute at position `pos` recodes value `v` to `recode(pos, v)`.
pub fn min_class_size(input: &RelationalInput, recode: impl Fn(usize, u32) -> NodeId) -> usize {
    let domains: Vec<usize> = input
        .qi_attrs
        .iter()
        .map(|&a| input.table.domain_size(a))
        .collect();
    min_class_size_matrix(&input.value_matrix(), &domains, recode)
}

/// [`min_class_size`] over a prebuilt [`ValueMatrix`]; `domains[pos]`
/// is the domain size of the QI attribute at `pos`.
///
/// Rows are bucketed by a dense per-attribute group code folded into a
/// single `u64` — no per-row allocation, and when the code space is
/// small the counts live in a flat vector instead of a hash map.
pub fn min_class_size_matrix(
    matrix: &ValueMatrix,
    domains: &[usize],
    recode: impl Fn(usize, u32) -> NodeId,
) -> usize {
    let n = matrix.n_rows();
    if n == 0 {
        return 0;
    }
    // Per attribute: value id -> dense group index (domains are small,
    // rows are many), plus the number of distinct groups.
    let mut dense: Vec<Vec<u64>> = Vec::with_capacity(domains.len());
    let mut strides: Vec<u64> = Vec::with_capacity(domains.len());
    let mut code_space: u64 = 1;
    let mut overflow = false;
    for (pos, &dom) in domains.iter().enumerate() {
        let mut ids: FxHashMap<NodeId, u64> = FxHashMap::default();
        let mut map = Vec::with_capacity(dom);
        for v in 0..dom as u32 {
            let node = recode(pos, v);
            let next = ids.len() as u64;
            map.push(*ids.entry(node).or_insert(next));
        }
        strides.push(code_space);
        // once the code space overflows u64 the strides are unusable,
        // but the per-attribute group maps must still cover every
        // column: the signature fallback below reads all of them
        if !overflow {
            match code_space.checked_mul(ids.len().max(1) as u64) {
                Some(p) => code_space = p,
                None => overflow = true,
            }
        }
        dense.push(map);
    }

    let code_of = |row: usize| -> u64 {
        let vals = matrix.row(row);
        let mut code = 0u64;
        for (pos, &v) in vals.iter().enumerate() {
            code += dense[pos][v as usize] * strides[pos];
        }
        code
    };

    if overflow {
        // astronomically wide code space: group on the full signature
        let mut groups: FxHashMap<Vec<u64>, usize> = FxHashMap::default();
        for row in 0..n {
            let sig: Vec<u64> = matrix
                .row(row)
                .iter()
                .enumerate()
                .map(|(pos, &v)| dense[pos][v as usize])
                .collect();
            *groups.entry(sig).or_insert(0) += 1;
        }
        return groups.values().copied().min().unwrap_or(0);
    }

    if code_space <= (n as u64) * 4 && code_space <= (1 << 22) {
        // dense counting: one flat vector, no hashing at all
        let mut counts = vec![0usize; code_space as usize];
        for row in 0..n {
            counts[code_of(row) as usize] += 1;
        }
        counts.into_iter().filter(|&c| c > 0).min().unwrap_or(0)
    } else {
        let mut groups: FxHashMap<u64, usize> = FxHashMap::default();
        for row in 0..n {
            *groups.entry(code_of(row)).or_insert(0) += 1;
        }
        groups.values().copied().min().unwrap_or(0)
    }
}
