//! Fixtures shared by the root integration tests.

use secreta::core::config::{Bounding, MethodSpec, RelAlgo, TxAlgo};

/// One spec per integrated method: the four relational algorithms, the
/// five transaction algorithms, Cluster+Apriori under each of the
/// three RT bounding methods, and ρ-uncertainty with and without
/// generalization. Parameters are small enough to be feasible on a
/// dataset of about 60 rows with 12 items (`item_0000`, `item_0001`
/// are the sensitive items).
pub fn every_method() -> Vec<MethodSpec> {
    let mut specs = Vec::new();
    for algo in RelAlgo::all() {
        specs.push(MethodSpec::Relational { algo, k: 4 });
    }
    for algo in TxAlgo::all() {
        specs.push(MethodSpec::Transaction { algo, k: 3, m: 2 });
    }
    for bounding in Bounding::all() {
        specs.push(MethodSpec::Rt {
            rel: RelAlgo::Cluster,
            tx: TxAlgo::Apriori,
            bounding,
            k: 3,
            m: 2,
            delta: 2,
        });
    }
    specs.push(MethodSpec::Rho {
        rho: 0.5,
        sensitive: vec!["item_0000".into(), "item_0001".into()],
        max_antecedent: 2,
        generalize: false,
    });
    specs.push(MethodSpec::Rho {
        rho: 0.5,
        sensitive: vec!["item_0000".into(), "item_0001".into()],
        max_antecedent: 2,
        generalize: true,
    });
    specs
}
