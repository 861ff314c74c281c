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
//!
//! `tests/golden_keys.tsv` pins the run store's addresses the same
//! way: the context digest of each golden session, the job key of
//! every (spec, seed) line above, and the context digest of a small
//! hand-built RT table whose values all need quoting. A change to the
//! CSV render or to the hash that moved these would turn every stored
//! run into a miss without failing any other test, so the fix for a
//! mismatch there is in the code, not in the file. Its `table` lines
//! pin the stored bytes themselves: the SHA-256 of the `anon.json`
//! payload the store writes for each (spec, seed), so a store filled
//! by an older binary keeps verifying and decoding under a newer one.

mod common;

use common::every_method;
use secreta::core::data::{Attribute, AttributeKind, RtTable, Schema};
use secreta::core::orchestrator::job_key;
use secreta::core::store::{anon_json, sha256_hex};
use secreta::core::{anonymizer, context_digest, export, SessionContext};
use secreta::gen::{DatasetSpec, WorkloadSpec};
use std::fmt::Write;

const GOLDEN: &str = include_str!("golden.tsv");
const GOLDEN_KEYS: &str = include_str!("golden_keys.tsv");

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

/// A table whose every value exercises the writer's quoting rule: the
/// delimiter, a quote, an embedded newline, a carriage return, a
/// leading space and non-ASCII text, in both a relational and the
/// transaction column, under a header that needs quoting too.
fn quoting_session() -> SessionContext {
    let schema = Schema::new(vec![
        Attribute::new("Name, given", AttributeKind::Categorical),
        Attribute::new("Age", AttributeKind::Numeric),
        Attribute::new("Items", AttributeKind::Transaction),
    ])
    .expect("valid schema");
    let mut table = RtTable::new(schema);
    let rows: [(&str, &str, &[&str]); 7] = [
        ("a,b", "30", &["x", "y\"z"]),
        ("say \"hi\"", "41", &["é"]),
        ("two\nlines", "30", &[]),
        (" lead", "19", &["x", "a,b"]),
        ("café", "41", &["y\"z", "é"]),
        ("cr\rhere", "22", &["x"]),
        ("plain", "19", &["naïve"]),
    ];
    for (name, age, items) in rows {
        table
            .push_row(&[name, age], items)
            .expect("row fits schema");
    }
    SessionContext::auto(table, 2).expect("hierarchies")
}

fn keys() -> String {
    let mut out = String::new();
    let mut tables = String::new();
    for seed in SEEDS {
        let ctx = session(seed);
        let digest = context_digest(&ctx);
        writeln!(out, "context\t{seed}\t{digest}").expect("write to String");
        for spec in every_method() {
            let key = job_key(&digest, &spec, seed, None);
            writeln!(out, "job\t{}\t{seed}\t{}", spec.label(), key.0).expect("write to String");
            let run = anonymizer::run(&ctx, &spec, seed).expect("feasible on this dataset");
            let sha = sha256_hex(&anon_json::encode(&run.anon));
            writeln!(tables, "table\t{}\t{seed}\t{sha}", spec.label()).expect("write to String");
        }
    }
    let digest = context_digest(&quoting_session());
    writeln!(out, "quoting\t{digest}").expect("write to String");
    out + &tables
}

/// Fail with the first differing line and the regenerated file.
fn assert_golden(got: &str, want: &str, file: &str) {
    if got != want {
        let first = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .map_or_else(
                || "a missing or extra line".to_owned(),
                |i| format!("line {}", i + 1),
            );
        panic!("output differs from {file} at {first}; the regenerated file follows:\n{got}");
    }
}

#[test]
fn every_method_matches_the_golden_corpus() {
    assert_golden(&corpus(), GOLDEN, "tests/golden.tsv");
}

#[test]
fn store_keys_match_the_golden_keys() {
    assert_golden(&keys(), GOLDEN_KEYS, "tests/golden_keys.tsv");
}
