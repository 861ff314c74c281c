//! Golden corpus: every integrated method on two tiny generated
//! datasets, pinned to committed outputs.
//!
//! Kernel-vs-oracle tests prove two implementations agree; they cannot
//! catch a bug in setup code both share. This test pins the results
//! themselves: for each of the 14 method specs of
//! `common::every_method` and each seed, `tests/golden.tsv` holds one
//! tab-separated line with the spec label, the seed, the SHA-256 of
//! the anonymized export and the indicator set as JSON (ARE over a
//! 20-query workload with item atoms, and the risk block, included;
//! `runtime_ms` zeroed).
//!
//! On a mismatch the test prints the regenerated corpus. If the change
//! in output is intended, review it and replace `tests/golden.tsv`
//! with it.

mod common;

use common::every_method;
use secreta::core::store::sha256_hex;
use secreta::core::{anonymizer, export, SessionContext};
use secreta::gen::{DatasetSpec, WorkloadSpec};
use std::fmt::Write;

const GOLDEN: &str = include_str!("golden.tsv");

/// Each seed makes the dataset, the query workload and the runs.
const SEEDS: [u64; 2] = [1, 2];

fn session(seed: u64) -> SessionContext {
    let mut spec = DatasetSpec::adult_like(80, seed);
    spec.n_items = 12;
    spec.tx_len = (1, 4);
    let ctx = SessionContext::auto(spec.generate(), 3).expect("hierarchies");
    let workload = WorkloadSpec {
        n_queries: 20,
        items_per_query: 1,
        seed,
        ..Default::default()
    }
    .generate(&ctx.table);
    ctx.with_workload(workload)
}

fn corpus() -> String {
    let mut out = String::new();
    for seed in SEEDS {
        let ctx = session(seed);
        for spec in every_method() {
            let run = anonymizer::run(&ctx, &spec, seed).expect("feasible on this dataset");
            let mut bytes = Vec::new();
            export::write_anonymized(&ctx, &run.anon, &mut bytes).expect("write to memory");
            let mut indicators = run.indicators;
            indicators.runtime_ms = 0.0;
            let json = serde_json::to_string(&indicators).expect("indicators serialize");
            let digest = sha256_hex(&bytes);
            writeln!(out, "{}\t{seed}\t{digest}\t{json}", spec.label()).expect("write to String");
        }
    }
    out
}

#[test]
fn every_method_matches_the_golden_corpus() {
    let got = corpus();
    if got != GOLDEN {
        let first = got
            .lines()
            .zip(GOLDEN.lines())
            .position(|(g, want)| g != want)
            .map_or_else(
                || "a missing or extra line".to_owned(),
                |i| format!("line {}", i + 1),
            );
        panic!(
            "output differs from tests/golden.tsv at {first}; \
             the regenerated corpus follows:\n{got}"
        );
    }
}
