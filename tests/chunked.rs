//! Chunked-ingest identity: the correctness spine of the out-of-core
//! data path. Streaming a dataset in fixed-size row chunks — whether
//! from CSV bytes or the synthetic generator — must be invisible:
//! the materialized table, and every anonymization output computed
//! from it, is byte-identical to the in-memory path at every chunk
//! size and thread count.

mod common;

use common::every_method;
use proptest::prelude::*;
use secreta::core::config::MethodSpec;
use secreta::core::data::chunk::read_chunked;
use secreta::core::data::{csv as dcsv, CsvOptions, MemoryBudget, RtTable};
use secreta::core::{anonymizer, export, SessionContext};
use secreta::gen::DatasetSpec;

/// Serialize a table to CSV bytes — the byte-level identity oracle.
fn csv_bytes(table: &RtTable, opts: &CsvOptions) -> Vec<u8> {
    let mut buf = Vec::new();
    dcsv::write_table(table, &mut buf, opts).unwrap();
    buf
}

/// Quote `field` the way the exporter does, so generated CSV exercises
/// the quoted-field state machine.
fn quote(field: &str) -> String {
    if field.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_owned()
    }
}

/// Render a field matrix to CSV text with the given line ending,
/// optionally omitting the final newline.
fn render_csv(rows: &[Vec<String>], eol: &str, trailing_newline: bool) -> String {
    let width = rows[0].len();
    let mut text = String::new();
    let header: Vec<String> = (0..width).map(|c| format!("C{c}")).collect();
    text.push_str(&header.join(","));
    text.push_str(eol);
    for (i, row) in rows.iter().enumerate() {
        let line: Vec<String> = row.iter().map(|f| quote(f)).collect();
        text.push_str(&line.join(","));
        if i + 1 < rows.len() || trailing_newline {
            text.push_str(eol);
        }
    }
    text
}

/// Field values drawn to stress the parser: delimiters, quotes, bare
/// and escaped newlines, plain text, numbers, empties.
fn field_strategy() -> impl Strategy<Value = String> {
    (0usize..7, "[a-z]{0,6}").prop_map(|(variant, word)| match variant {
        0 => word,
        1 => "a,b".into(),
        2 => "say \"hi\"".into(),
        3 => "line1\nline2".into(),
        4 => "  padded  ".into(),
        5 => "42".into(),
        _ => String::new(),
    })
}

/// `(width, rows)` where each generated row carries the maximum
/// width; the test truncates rows to `width`.
fn matrix_strategy() -> impl Strategy<Value = (usize, Vec<Vec<String>>)> {
    (
        2usize..5,
        proptest::collection::vec(proptest::collection::vec(field_strategy(), 4..=4), 1..40),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every chunk size parses randomized CSV — quoted commas, escaped
    /// quotes, embedded newlines, CRLF endings, missing final newline —
    /// into exactly the table the in-memory reader builds, and both
    /// agree with the field matrix the text was rendered from.
    #[test]
    fn chunked_csv_reads_are_byte_identical(
        (width, wide_rows) in matrix_strategy(),
        crlf in any::<bool>(),
        trailing_newline in any::<bool>(),
    ) {
        let rows: Vec<Vec<String>> = wide_rows
            .into_iter()
            .map(|r| r.into_iter().take(width).collect())
            .collect();
        let eol = if crlf { "\r\n" } else { "\n" };
        let text = render_csv(&rows, eol, trailing_newline);
        let opts = CsvOptions::default();
        let reference = dcsv::read_table(text.as_bytes(), &opts).unwrap();

        // the parse oracle: values equal the rendered matrix after the
        // reader's normalizations (embedded CRLF → LF like physical
        // line endings; relational fields are trimmed, quoted or not)
        prop_assert_eq!(reference.n_rows(), rows.len());
        for (r, row) in rows.iter().enumerate() {
            for (c, field) in row.iter().enumerate() {
                let expected = field.replace("\r\n", "\n");
                prop_assert_eq!(reference.value_str(r, c), expected.trim());
            }
        }

        let reference_bytes = csv_bytes(&reference, &opts);
        for chunk_rows in [1usize, 64, 1024, usize::MAX] {
            let chunked = read_chunked(
                text.as_bytes(),
                &opts,
                chunk_rows,
                MemoryBudget::unlimited(),
            )
            .unwrap()
            .into_table()
            .unwrap();
            prop_assert_eq!(
                csv_bytes(&chunked, &opts),
                reference_bytes.clone(),
                "chunk_rows={}",
                chunk_rows
            );
        }
    }
}

fn anonymized_bytes(ctx: &SessionContext, spec: &MethodSpec, seed: u64) -> Vec<u8> {
    let out = anonymizer::run(ctx, spec, seed).expect("feasible on this dataset");
    let mut buf = Vec::new();
    export::write_anonymized(ctx, &out.anon, &mut buf).unwrap();
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Every algorithm produces byte-identical anonymized exports
    /// whether its input table arrived in memory or through chunked
    /// ingest, at every chunk size {64, 1024, whole-table} and thread
    /// count {1, 2, 8}.
    #[test]
    fn anonymization_is_identical_across_ingest_chunking_and_threads(
        rows in 60usize..120,
        seed in 0u64..500,
    ) {
        let mut spec = DatasetSpec::adult_like(rows, seed);
        spec.n_items = 12;
        spec.tx_len = (1, 4);

        let in_memory = spec.generate();
        let whole = in_memory.n_rows().max(1);
        let mut tables = Vec::new();
        for chunk_rows in [64usize, 1024, whole] {
            let t = spec
                .generate_chunked(chunk_rows, MemoryBudget::unlimited())
                .unwrap()
                .into_table()
                .unwrap();
            tables.push((chunk_rows, t));
        }

        // table-level identity at every chunk size
        let opts = CsvOptions::default();
        let reference_bytes = csv_bytes(&in_memory, &opts);
        for (chunk_rows, t) in &tables {
            prop_assert_eq!(
                csv_bytes(t, &opts),
                reference_bytes.clone(),
                "chunk_rows={}",
                chunk_rows
            );
        }

        // output-level identity: every algorithm, chunk-ingested vs
        // in-memory input, across thread counts
        let ctx_mem = SessionContext::auto(in_memory, 3).expect("hierarchies");
        let (_, chunked) = tables.swap_remove(0);
        let ctx_chunked = SessionContext::auto(chunked, 3).expect("hierarchies");
        for spec in every_method() {
            let baseline = anonymized_bytes(&ctx_mem, &spec, seed);
            for threads in [1usize, 2, 8] {
                prop_assert_eq!(
                    secreta::core::parallel::with_threads(threads, || {
                        anonymized_bytes(&ctx_chunked, &spec, seed)
                    }),
                    baseline.clone(),
                    "{} at {} threads",
                    spec.label(),
                    threads
                );
            }
        }
    }
}
