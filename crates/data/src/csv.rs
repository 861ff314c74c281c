//! CSV reading and writing in SECRETA's dataset format.
//!
//! The paper requires datasets "provided in a Comma-Separated Values
//! (CSV) format". Relational attributes occupy one field each; the
//! transaction attribute packs its items into a single field separated
//! by an intra-field delimiter (space by default). Fields containing
//! the delimiter may be double-quoted with `""` escaping.
//!
//! Which columns are relational/numeric/transaction is given by a
//! [`CsvOptions`] value, mirroring the type annotations the SECRETA
//! GUI collects when a file is loaded.

use crate::error::DataError;
use crate::schema::{Attribute, AttributeKind, Schema};
use crate::table::RtTable;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// Parsing/serialization options.
#[derive(Debug, Clone)]
pub struct CsvOptions {
    /// Field delimiter (default `,`).
    pub delimiter: char,
    /// Delimiter between items inside the transaction field
    /// (default space).
    pub item_delimiter: char,
    /// Whether the first line is a header of attribute names.
    pub has_header: bool,
    /// Name (when `has_header`) or 0-based index (otherwise, as a
    /// decimal string) of the transaction column, if any.
    pub transaction_column: Option<String>,
    /// Names/indices of columns to treat as numeric.
    pub numeric_columns: Vec<String>,
}

impl Default for CsvOptions {
    fn default() -> Self {
        Self {
            delimiter: ',',
            item_delimiter: ' ',
            has_header: true,
            transaction_column: None,
            numeric_columns: Vec::new(),
        }
    }
}

impl CsvOptions {
    /// Options for an RT-dataset whose transaction column is `name`.
    pub fn with_transaction(name: impl Into<String>) -> Self {
        Self {
            transaction_column: Some(name.into()),
            ..Self::default()
        }
    }
}

/// Incremental field parser: the quote state machine behind
/// [`RecordReader`].
///
/// A quote opens a field only while the field's text so far is empty;
/// inside a quoted field `""` is a literal quote. The parser is fed
/// whole physical lines; when a line ends with a quote still open the
/// record continues on the next line (the newline is part of the
/// field). One record's fields live back to back in one buffer, which
/// is cleared, not freed, between records.
struct FieldParser {
    delim: char,
    /// Unescaped text of every field so far, back to back.
    text: String,
    /// End offset in `text` of every closed field.
    ends: Vec<usize>,
    quoted: bool,
}

impl FieldParser {
    fn new(delim: char) -> Self {
        Self {
            delim,
            text: String::new(),
            ends: Vec::new(),
            quoted: false,
        }
    }

    /// Start a new record.
    fn clear(&mut self) {
        self.text.clear();
        self.ends.clear();
        self.quoted = false;
    }

    /// Feed a chunk of text, copying the runs between delimiters and
    /// quotes. `""` never spans feed boundaries because callers feed
    /// whole physical lines and join them with `feed_newline`.
    fn feed(&mut self, mut s: &str) {
        while !s.is_empty() {
            if self.quoted {
                let Some(q) = s.find('"') else {
                    self.text.push_str(s);
                    return;
                };
                self.text.push_str(&s[..q]);
                s = &s[q + 1..];
                match s.strip_prefix('"') {
                    Some(rest) => {
                        self.text.push('"');
                        s = rest;
                    }
                    None => self.quoted = false,
                }
            } else if let Some(rest) = s.strip_prefix('"') {
                // unquoted, `s` starts a field or follows a closing
                // quote, and a quote cannot follow that (the pair would
                // be `""`): the field's text is empty, so this opens it
                self.quoted = true;
                s = rest;
            } else {
                // `s` does not start with a quote, so every quote before
                // the next delimiter follows field text and is literal
                let Some(d) = s.find(self.delim) else {
                    self.text.push_str(s);
                    return;
                };
                self.text.push_str(&s[..d]);
                self.ends.push(self.text.len());
                s = &s[d + self.delim.len_utf8()..];
            }
        }
    }

    /// A record-internal newline (only reachable while quoted).
    fn feed_newline(&mut self) {
        self.text.push('\n');
    }

    /// Close the record's last field.
    fn finish(&mut self) {
        self.ends.push(self.text.len());
    }
}

/// One logical CSV record, borrowed from its [`RecordReader`] until the
/// next call: its parsed fields plus enough physical-file context for
/// the caller to reproduce the line-based reader's behaviour
/// (blank-line skipping, ragged-row line numbers).
struct Record<'a> {
    text: &'a str,
    ends: &'a [usize],
    /// True when the record is a single physical line of whitespace.
    blank: bool,
    /// 1-based physical line number where the record starts.
    line: usize,
}

impl<'a> Record<'a> {
    /// Number of fields (at least 1).
    fn len(&self) -> usize {
        self.ends.len()
    }

    /// Field `i`, unescaped.
    fn field(&self, i: usize) -> &'a str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.text[start..self.ends[i]]
    }

    /// Every field, in order.
    fn fields(&self) -> impl Iterator<Item = &'a str> + '_ {
        (0..self.len()).map(|i| self.field(i))
    }
}

/// Streaming reader yielding one logical record at a time.
///
/// A record is usually one physical line, but a quoted field may
/// contain embedded newlines, in which case the record spans several
/// lines. Line endings are normalized (`\r\n` and `\n` both
/// terminate a line) and a final record without a trailing newline is
/// yielded like any other. Both [`read_table`] and the chunked
/// ingest ([`crate::chunk::read_chunked`]) parse through this reader,
/// in [`read_records`], so the two paths cannot diverge.
struct RecordReader<R: BufRead> {
    reader: R,
    /// 1-based number of the next physical line to read.
    next_line: usize,
    /// The physical line last read, without its terminator.
    line: String,
    parser: FieldParser,
}

impl<R: BufRead> RecordReader<R> {
    fn new(reader: R, delim: char) -> Self {
        Self {
            reader,
            next_line: 1,
            line: String::new(),
            parser: FieldParser::new(delim),
        }
    }

    /// Read one physical line into `line`; false at EOF.
    fn read_line(&mut self) -> Result<bool, DataError> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Ok(false);
        }
        self.next_line += 1;
        if self.line.ends_with('\n') {
            self.line.pop();
            if self.line.ends_with('\r') {
                self.line.pop();
            }
        }
        Ok(true)
    }

    /// Next logical record, or `None` at end of input.
    fn next_record(&mut self) -> Result<Option<Record<'_>>, DataError> {
        let start = self.next_line;
        if !self.read_line()? {
            return Ok(None);
        }
        let blank = self.line.trim().is_empty();
        self.parser.clear();
        self.parser.feed(&self.line);
        // An open quote at end of line means the newline is literal
        // field content and the record continues on the next line.
        // EOF inside an open quote closes the record as-is, matching
        // the line-based reader's lenient stance.
        while self.parser.quoted && self.read_line()? {
            self.parser.feed_newline();
            self.parser.feed(&self.line);
        }
        self.parser.finish();
        Ok(Some(Record {
            text: &self.parser.text,
            ends: &self.parser.ends,
            blank,
            line: start,
        }))
    }
}

/// A table the CSV readers fill one record at a time: [`RtTable`] in
/// memory, [`crate::chunk::ChunkedTable`] chunk by chunk under a
/// memory budget.
pub(crate) trait RecordSink {
    /// Append a record given its textual relational values (in
    /// relational attribute order) and its textual transaction items.
    fn push_fields<'v>(
        &mut self,
        rel_values: impl ExactSizeIterator<Item = &'v str>,
        items: impl Iterator<Item = &'v str>,
    ) -> Result<(), DataError>;
}

/// Parse `reader` into the table `new_table` builds once the header,
/// or else the first record, fixes the schema. Only the header is
/// copied out of the reader; every other field goes from the reader's
/// buffer straight into the table.
pub(crate) fn read_records<R: BufRead, T: RecordSink>(
    reader: R,
    opts: &CsvOptions,
    new_table: impl FnOnce(Schema) -> T,
) -> Result<T, DataError> {
    let mut records = RecordReader::new(reader, opts.delimiter);
    let mut new_table = Some(new_table);
    let mut build = |names: Vec<String>| -> Result<_, DataError> {
        let schema = schema_for(&names, opts)?;
        let rel_idx = schema.relational_indices();
        let tx_idx = schema.transaction_index();
        let build = new_table.take().expect("the schema is fixed once");
        Ok((build(schema), rel_idx, tx_idx))
    };

    let mut table = None;
    let mut width = 0;
    if opts.has_header {
        let Some(rec) = records.next_record()? else {
            return Err(DataError::EmptyInput);
        };
        let names: Vec<String> = rec.fields().map(str::to_owned).collect();
        width = names.len();
        table = Some(build(names)?);
    }
    while let Some(rec) = records.next_record()? {
        // A blank line is noise in a multi-column file, but in a
        // single-column file it is a record with one empty field
        // (e.g. an empty transaction).
        if rec.blank && width != 1 {
            continue;
        }
        if width == 0 {
            width = rec.len();
            table = Some(build((0..width).map(|i| i.to_string()).collect())?);
        }
        if rec.len() != width {
            return Err(DataError::RaggedRow {
                line: rec.line,
                found: rec.len(),
                expected: width,
            });
        }
        let (t, rel_idx, tx_idx) = table.as_mut().expect("built once the width is known");
        let items = tx_idx.map(|i| split_items(rec.field(i), opts.item_delimiter));
        t.push_fields(
            rel_idx.iter().map(|&i| rec.field(i).trim()),
            items.into_iter().flatten(),
        )?;
    }
    table.map(|(t, ..)| t).ok_or(DataError::EmptyInput)
}

/// Whether `field` must be quoted: it contains the delimiter, a quote,
/// a newline or a carriage return, or has ambiguous leading whitespace.
fn needs_quotes(field: &str, delim: char) -> bool {
    let special = |b: u8| matches!(b, b'"' | b'\n' | b'\r');
    field.starts_with(' ')
        || match u8::try_from(delim) {
            // an ASCII byte never occurs inside a multi-byte character
            Ok(d) if d.is_ascii() => field.bytes().any(|b| b == d || special(b)),
            _ => field.contains(delim) || field.bytes().any(special),
        }
}

/// Append `field` to `out`, quoted when [`needs_quotes`] says so.
fn push_field(out: &mut Vec<u8>, field: &str, delim: char) {
    if needs_quotes(field, delim) {
        push_quoted(out, field);
    } else {
        out.extend_from_slice(field.as_bytes());
    }
}

/// Append `field` to `out` in quotes, doubling each quote inside.
fn push_quoted(out: &mut Vec<u8>, field: &str) {
    out.push(b'"');
    for (i, part) in field.split('"').enumerate() {
        if i > 0 {
            out.extend_from_slice(b"\"\"");
        }
        out.extend_from_slice(part.as_bytes());
    }
    out.push(b'"');
}

/// Build the schema for `names` from the options' type annotations.
fn schema_for(names: &[String], opts: &CsvOptions) -> Result<Schema, DataError> {
    if let Some(tx) = &opts.transaction_column {
        if !names.iter().any(|n| n == tx) {
            return Err(DataError::UnknownAttribute(tx.clone()));
        }
    }
    let col_kind = |name: &str| -> AttributeKind {
        if opts.transaction_column.as_deref() == Some(name) {
            AttributeKind::Transaction
        } else if opts.numeric_columns.iter().any(|n| n == name) {
            AttributeKind::Numeric
        } else {
            AttributeKind::Categorical
        }
    };
    let attributes: Vec<Attribute> = names
        .iter()
        .map(|n| Attribute::new(n.clone(), col_kind(n)))
        .collect();
    Schema::new(attributes)
}

/// Split a raw transaction field into trimmed, non-empty item strings.
fn split_items(field: &str, item_delimiter: char) -> impl Iterator<Item = &str> {
    field
        .split(item_delimiter)
        .map(str::trim)
        .filter(|s| !s.is_empty())
}

/// Read a dataset from any reader.
pub fn read_table<R: Read>(reader: R, opts: &CsvOptions) -> Result<RtTable, DataError> {
    read_records(BufReader::new(reader), opts, RtTable::new)
}

/// Read a dataset from a file path. Failures — I/O and parse alike —
/// are wrapped in [`DataError::InFile`] so the message names the file.
pub fn read_table_path(path: impl AsRef<Path>, opts: &CsvOptions) -> Result<RtTable, DataError> {
    let path = path.as_ref();
    let in_file = |e: DataError| DataError::InFile {
        path: path.to_path_buf(),
        error: Box::new(e),
    };
    let file = std::fs::File::open(path).map_err(|e| in_file(e.into()))?;
    read_table(file, opts).map_err(in_file)
}

/// Bytes [`write_table`] gathers before handing them to its writer: a
/// digest sink then hashes whole blocks, and a file sees few writes.
const WRITE_BLOCK: usize = 64 * 1024;

/// Write a dataset to any writer (Data Export Module).
///
/// Fields are rendered into one reused buffer, handed on in blocks of
/// at least 64 KiB. The bytes feed the session digest behind every
/// run store key, so the format must never drift.
pub fn write_table<W: Write>(
    table: &RtTable,
    writer: &mut W,
    opts: &CsvOptions,
) -> Result<(), DataError> {
    let schema = table.schema();
    let delim = opts.delimiter;
    let mut delim_buf = [0u8; 4];
    let sep = delim.encode_utf8(&mut delim_buf).as_bytes();
    let mut out = Vec::with_capacity(2 * WRITE_BLOCK);
    if opts.has_header {
        for (attr, a) in schema.attributes().iter().enumerate() {
            if attr > 0 {
                out.extend_from_slice(sep);
            }
            push_field(&mut out, &a.name, delim);
        }
        out.push(b'\n');
    }
    let tx_idx = schema.transaction_index();
    // whether each relational value needs quoting, decided once per
    // distinct value instead of once per cell
    let quoted: Vec<Vec<bool>> = (0..schema.len())
        .map(|attr| match tx_idx {
            Some(tx) if tx == attr => Vec::new(),
            _ => table
                .pool(attr)
                .iter()
                .map(|(_, v)| needs_quotes(v, delim))
                .collect(),
        })
        .collect();
    // the joined items of one transaction, quoted as a single field
    let mut items = String::new();
    for row in 0..table.n_rows() {
        for (attr, quoted) in quoted.iter().enumerate() {
            if attr > 0 {
                out.extend_from_slice(sep);
            }
            if Some(attr) == tx_idx {
                let pool = table.pool(attr);
                items.clear();
                for (i, it) in table.transaction(row).iter().enumerate() {
                    if i > 0 {
                        items.push(opts.item_delimiter);
                    }
                    items.push_str(pool.resolve(it.0));
                }
                push_field(&mut out, &items, delim);
            } else {
                let id = table.value(row, attr).0;
                let value = table.pool(attr).resolve(id);
                if quoted[id as usize] {
                    push_quoted(&mut out, value);
                } else {
                    out.extend_from_slice(value.as_bytes());
                }
            }
        }
        out.push(b'\n');
        if out.len() >= WRITE_BLOCK {
            writer.write_all(&out)?;
            out.clear();
        }
    }
    writer.write_all(&out)?;
    Ok(())
}

/// Write a dataset to a file path. Failures are wrapped in
/// [`DataError::InFile`] so the message names the file.
pub fn write_table_path(
    table: &RtTable,
    path: impl AsRef<Path>,
    opts: &CsvOptions,
) -> Result<(), DataError> {
    let path = path.as_ref();
    let in_file = |e: DataError| DataError::InFile {
        path: path.to_path_buf(),
        error: Box::new(e),
    };
    // write_table buffers itself, so the file sees whole blocks
    let mut file = std::fs::File::create(path).map_err(|e| in_file(e.into()))?;
    write_table(table, &mut file, opts).map_err(in_file)
}

/// The writer and record parser as they were before the one-buffer
/// rewrite: a `String` per cell and per row, a `char` push per byte of
/// input. Kept only as the oracle the differential tests below hold
/// [`write_table`] and [`RecordReader`] to, byte for byte.
#[cfg(test)]
mod oracle {
    use super::{CsvOptions, DataError, RtTable};
    use std::io::{BufRead, Write};

    struct FieldParser {
        delim: char,
        fields: Vec<String>,
        cur: String,
        quoted: bool,
    }

    impl FieldParser {
        fn new(delim: char) -> Self {
            Self {
                delim,
                fields: Vec::new(),
                cur: String::new(),
                quoted: false,
            }
        }

        fn feed(&mut self, text: &str) {
            let mut chars = text.chars().peekable();
            while let Some(c) = chars.next() {
                if self.quoted {
                    if c == '"' {
                        if chars.peek() == Some(&'"') {
                            chars.next();
                            self.cur.push('"');
                        } else {
                            self.quoted = false;
                        }
                    } else {
                        self.cur.push(c);
                    }
                } else if c == '"' && self.cur.is_empty() {
                    self.quoted = true;
                } else if c == self.delim {
                    self.fields.push(std::mem::take(&mut self.cur));
                } else {
                    self.cur.push(c);
                }
            }
        }

        fn feed_newline(&mut self) {
            self.cur.push('\n');
        }

        fn finish(&mut self) -> Vec<String> {
            self.fields.push(std::mem::take(&mut self.cur));
            std::mem::take(&mut self.fields)
        }
    }

    pub(super) struct Record {
        pub fields: Vec<String>,
        pub blank: bool,
        pub line: usize,
    }

    pub(super) struct RecordReader<R: BufRead> {
        reader: R,
        delim: char,
        next_line: usize,
        buf: String,
    }

    impl<R: BufRead> RecordReader<R> {
        pub(super) fn new(reader: R, delim: char) -> Self {
            Self {
                reader,
                delim,
                next_line: 1,
                buf: String::new(),
            }
        }

        fn next_line(&mut self) -> Result<Option<&str>, DataError> {
            self.buf.clear();
            let n = self.reader.read_line(&mut self.buf)?;
            if n == 0 {
                return Ok(None);
            }
            self.next_line += 1;
            if self.buf.ends_with('\n') {
                self.buf.pop();
                if self.buf.ends_with('\r') {
                    self.buf.pop();
                }
            }
            Ok(Some(&self.buf))
        }

        pub(super) fn next_record(&mut self) -> Result<Option<Record>, DataError> {
            let start = self.next_line;
            let delim = self.delim;
            let first = match self.next_line()? {
                Some(line) => line,
                None => return Ok(None),
            };
            let blank = first.trim().is_empty();
            let mut parser = FieldParser::new(delim);
            parser.feed(first);
            while parser.quoted {
                match self.next_line()? {
                    Some(line) => {
                        parser.feed_newline();
                        parser.feed(line);
                    }
                    None => break,
                }
            }
            Ok(Some(Record {
                fields: parser.finish(),
                blank,
                line: start,
            }))
        }
    }

    fn quote_field(field: &str, delim: char) -> String {
        if field.contains(delim)
            || field.contains('"')
            || field.contains('\n')
            || field.contains('\r')
            || field.starts_with(' ')
        {
            let escaped = field.replace('"', "\"\"");
            format!("\"{escaped}\"")
        } else {
            field.to_owned()
        }
    }

    pub(super) fn write_table<W: Write>(
        table: &RtTable,
        writer: &mut W,
        opts: &CsvOptions,
    ) -> Result<(), DataError> {
        let schema = table.schema();
        let delim = opts.delimiter;
        if opts.has_header {
            let header: Vec<String> = schema
                .attributes()
                .iter()
                .map(|a| quote_field(&a.name, delim))
                .collect();
            writeln!(writer, "{}", header.join(&delim.to_string()))?;
        }
        let tx_idx = schema.transaction_index();
        for row in 0..table.n_rows() {
            let mut fields: Vec<String> = Vec::with_capacity(schema.len());
            for attr in 0..schema.len() {
                if Some(attr) == tx_idx {
                    let items = table
                        .transaction_strs(row)
                        .join(&opts.item_delimiter.to_string());
                    fields.push(quote_field(&items, delim));
                } else {
                    fields.push(quote_field(table.value_str(row, attr), delim));
                }
            }
            writeln!(writer, "{}", fields.join(&delim.to_string()))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const SAMPLE: &str = "Age,Edu,Items\n30,BSc,milk bread\n41,MSc,beer\n30,BSc,bread milk\n";

    fn rt_opts() -> CsvOptions {
        CsvOptions {
            numeric_columns: vec!["Age".into()],
            ..CsvOptions::with_transaction("Items")
        }
    }

    #[test]
    fn read_rt_dataset() {
        let t = read_table(SAMPLE.as_bytes(), &rt_opts()).unwrap();
        assert_eq!(t.n_rows(), 3);
        assert!(t.schema().is_rt());
        assert_eq!(
            t.schema().attribute(0).unwrap().kind,
            AttributeKind::Numeric
        );
        assert_eq!(t.value_str(1, 1), "MSc");
        // items are stored in interned-id (first-seen) order
        assert_eq!(t.transaction_strs(0), vec!["milk", "bread"]);
    }

    #[test]
    fn roundtrip_preserves_content() {
        let t = read_table(SAMPLE.as_bytes(), &rt_opts()).unwrap();
        let mut buf = Vec::new();
        write_table(&t, &mut buf, &rt_opts()).unwrap();
        let t2 = read_table(buf.as_slice(), &rt_opts()).unwrap();
        assert_eq!(t.n_rows(), t2.n_rows());
        for r in 0..t.n_rows() {
            assert_eq!(t.value_str(r, 0), t2.value_str(r, 0));
            assert_eq!(t.value_str(r, 1), t2.value_str(r, 1));
            assert_eq!(t.transaction_strs(r), t2.transaction_strs(r));
        }
    }

    #[test]
    fn quoted_fields_and_escapes() {
        let src = "Name,Items\n\"Doe, John\",a b\n\"say \"\"hi\"\"\",c\n";
        let t = read_table(src.as_bytes(), &CsvOptions::with_transaction("Items")).unwrap();
        assert_eq!(t.value_str(0, 0), "Doe, John");
        assert_eq!(t.value_str(1, 0), "say \"hi\"");
        // write back and re-read
        let mut buf = Vec::new();
        write_table(&t, &mut buf, &CsvOptions::with_transaction("Items")).unwrap();
        let t2 = read_table(buf.as_slice(), &CsvOptions::with_transaction("Items")).unwrap();
        assert_eq!(t2.value_str(0, 0), "Doe, John");
        assert_eq!(t2.value_str(1, 0), "say \"hi\"");
    }

    #[test]
    fn ragged_rows_are_reported_with_line_numbers() {
        let src = "A,B\n1,2\n1,2,3\n";
        let err = read_table(src.as_bytes(), &CsvOptions::default()).unwrap_err();
        match err {
            DataError::RaggedRow {
                line,
                found,
                expected,
            } => {
                assert_eq!((line, found, expected), (3, 3, 2));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn empty_input_rejected() {
        assert!(matches!(
            read_table("".as_bytes(), &CsvOptions::default()),
            Err(DataError::EmptyInput)
        ));
        // header-only is a valid empty table
        let t = read_table("A,B\n".as_bytes(), &CsvOptions::default()).unwrap();
        assert_eq!(t.n_rows(), 0);
    }

    #[test]
    fn headerless_input_uses_index_names() {
        let opts = CsvOptions {
            has_header: false,
            transaction_column: Some("1".into()),
            ..CsvOptions::default()
        };
        let t = read_table("x,a b\ny,c\n".as_bytes(), &opts).unwrap();
        assert_eq!(t.schema().attribute(0).unwrap().name, "0");
        assert_eq!(t.transaction_strs(0), vec!["a", "b"]);
    }

    #[test]
    fn unknown_transaction_column_rejected() {
        let err = read_table(SAMPLE.as_bytes(), &CsvOptions::with_transaction("Nope")).unwrap_err();
        assert!(matches!(err, DataError::UnknownAttribute(_)));
    }

    #[test]
    fn blank_lines_skipped_in_multi_column_files() {
        let src = "A,B\n1,2\n\n3,4\n";
        let t = read_table(src.as_bytes(), &CsvOptions::default()).unwrap();
        assert_eq!(t.n_rows(), 2);
    }

    #[test]
    fn blank_line_is_a_record_in_single_column_files() {
        // an empty transaction row round-trips as a blank line
        let src = "Items\na b\n\nc\n";
        let t = read_table(src.as_bytes(), &CsvOptions::with_transaction("Items")).unwrap();
        assert_eq!(t.n_rows(), 3);
        assert!(t.transaction(1).is_empty());
    }

    #[test]
    fn empty_transaction_field_means_empty_set() {
        let src = "Age,Items\n30,\n";
        let t = read_table(src.as_bytes(), &CsvOptions::with_transaction("Items")).unwrap();
        assert_eq!(t.transaction(0).len(), 0);
    }

    #[test]
    fn path_errors_name_the_file() {
        let err = read_table_path("/nonexistent/data.csv", &CsvOptions::default()).unwrap_err();
        assert!(err.to_string().contains("/nonexistent/data.csv"));
        assert!(matches!(err, DataError::InFile { .. }));
        // parse errors gain the same context
        let dir = std::env::temp_dir().join("secreta_csv_path_err");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("ragged.csv");
        std::fs::write(&p, "A,B\n1,2,3\n").unwrap();
        let err = read_table_path(&p, &CsvOptions::default()).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("ragged.csv") && msg.contains("line 2"),
            "{msg}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crlf_line_endings_parse_like_lf() {
        let lf = read_table(SAMPLE.as_bytes(), &rt_opts()).unwrap();
        let crlf_src = SAMPLE.replace('\n', "\r\n");
        let crlf = read_table(crlf_src.as_bytes(), &rt_opts()).unwrap();
        assert_eq!(lf.n_rows(), crlf.n_rows());
        for r in 0..lf.n_rows() {
            assert_eq!(lf.value_str(r, 0), crlf.value_str(r, 0));
            assert_eq!(lf.value_str(r, 1), crlf.value_str(r, 1));
            assert_eq!(lf.transaction_strs(r), crlf.transaction_strs(r));
        }
    }

    #[test]
    fn final_row_without_trailing_newline() {
        let src = "Age,Edu,Items\n30,BSc,milk bread\n41,MSc,beer";
        let t = read_table(src.as_bytes(), &rt_opts()).unwrap();
        assert_eq!(t.n_rows(), 2);
        assert_eq!(t.value_str(1, 1), "MSc");
        assert_eq!(t.transaction_strs(1), vec!["beer"]);
    }

    #[test]
    fn quoted_field_with_embedded_newline() {
        let src = "Name,Items\n\"two\nlines\",a b\nplain,c\n";
        let t = read_table(src.as_bytes(), &CsvOptions::with_transaction("Items")).unwrap();
        assert_eq!(t.n_rows(), 2);
        assert_eq!(t.value_str(0, 0), "two\nlines");
        assert_eq!(t.value_str(1, 0), "plain");
        // writing quotes the newline so the file round-trips
        let mut buf = Vec::new();
        write_table(&t, &mut buf, &CsvOptions::with_transaction("Items")).unwrap();
        let t2 = read_table(buf.as_slice(), &CsvOptions::with_transaction("Items")).unwrap();
        assert_eq!(t2.value_str(0, 0), "two\nlines");
    }

    #[test]
    fn quoted_newline_with_crlf_endings() {
        // inside quotes the CRLF is normalized to a bare newline, the
        // same way the record separators are
        let src = "Name,Items\r\n\"two\r\nlines\",a\r\n";
        let t = read_table(src.as_bytes(), &CsvOptions::with_transaction("Items")).unwrap();
        assert_eq!(t.n_rows(), 1);
        assert_eq!(t.value_str(0, 0), "two\nlines");
    }

    #[test]
    fn ragged_row_line_numbers_count_physical_lines() {
        // the multi-line quoted record occupies lines 2-3, so the
        // ragged record is physical line 4
        let src = "A,B\n\"x\ny\",2\n1,2,3\n";
        let err = read_table(src.as_bytes(), &CsvOptions::default()).unwrap_err();
        match err {
            DataError::RaggedRow { line, .. } => assert_eq!(line, 4),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn eof_inside_open_quote_closes_the_record() {
        // the delimiter stays literal inside the unterminated quote, so
        // the record has one field and is reported as ragged — exactly
        // what the line-based reader did
        let src = "A,B\n\"unterminated,2";
        let err = read_table(src.as_bytes(), &CsvOptions::default()).unwrap_err();
        match err {
            DataError::RaggedRow { line, found, .. } => assert_eq!((line, found), (2, 1)),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn alternative_delimiters() {
        let opts = CsvOptions {
            delimiter: ';',
            item_delimiter: '|',
            ..CsvOptions::with_transaction("Items")
        };
        let t = read_table("Age;Items\n30;a|b|c\n".as_bytes(), &opts).unwrap();
        assert_eq!(t.transaction(0).len(), 3);
    }

    #[test]
    fn writer_matches_the_oracle_across_blocks() {
        // several WRITE_BLOCKs of output, so the buffer is handed on
        // mid-table
        let values = ["plain", "a,b", "say \"hi\"", " lead", "café", "two\nlines"];
        let mut table = RtTable::new(
            Schema::new(vec![
                Attribute::categorical("Name"),
                Attribute::categorical("Code"),
                Attribute::transaction("Items"),
            ])
            .unwrap(),
        );
        for i in 0..10_000 {
            let code = i.to_string();
            let items = [values[i % 6], values[(i / 6) % 6]];
            table.push_row(&[values[i % 5], &code], &items).unwrap();
        }
        let opts = CsvOptions::with_transaction("Items");
        let mut got = Vec::new();
        write_table(&table, &mut got, &opts).unwrap();
        assert!(got.len() > 3 * WRITE_BLOCK);
        let mut want = Vec::new();
        oracle::write_table(&table, &mut want, &opts).unwrap();
        assert!(got == want, "writer output differs from the oracle");
    }

    /// Every character the quoting rule and the parser treat specially
    /// under any of the three delimiters, plus plain and non-ASCII text.
    const ALPHABET: &str = "[ab,;\t\"\r\n é]{0,6}";

    /// Column names that need quoting under some delimiter.
    const NAMES: [&str; 4] = ["A,1", "B\"q", " C", "D;\té"];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn writer_matches_the_oracle(
            n_rel in 0usize..4,
            with_tx in any::<bool>(),
            has_header in any::<bool>(),
            delim in 0usize..3,
            item_delim in 0usize..2,
            rows in prop::collection::vec(
                (
                    prop::collection::vec(ALPHABET, 3),
                    prop::collection::vec(ALPHABET, 0..4),
                ),
                0..12,
            ),
        ) {
            let n_rel = if with_tx { n_rel } else { n_rel.max(1) };
            let mut attrs: Vec<Attribute> =
                NAMES[..n_rel].iter().map(|&n| Attribute::categorical(n)).collect();
            if with_tx {
                attrs.insert(n_rel / 2, Attribute::transaction("Items é"));
            }
            let mut table = RtTable::new(Schema::new(attrs).unwrap());
            for (values, items) in &rows {
                let rel: Vec<&str> = values[..n_rel].iter().map(String::as_str).collect();
                let items: Vec<&str> = if with_tx {
                    items.iter().map(String::as_str).collect()
                } else {
                    Vec::new()
                };
                table.push_row(&rel, &items).unwrap();
            }
            let opts = CsvOptions {
                delimiter: [',', ';', '\t'][delim],
                item_delimiter: [' ', ','][item_delim],
                has_header,
                ..CsvOptions::default()
            };
            let mut got = Vec::new();
            write_table(&table, &mut got, &opts).unwrap();
            let mut want = Vec::new();
            oracle::write_table(&table, &mut want, &opts).unwrap();
            prop_assert_eq!(String::from_utf8(got).unwrap(), String::from_utf8(want).unwrap());
        }

        #[test]
        fn record_reader_matches_the_oracle(
            text in "[ab,;\t\"\r\n é]{0,120}",
            delim in 0usize..3,
        ) {
            let delim = [',', ';', '\t'][delim];
            let mut got = RecordReader::new(text.as_bytes(), delim);
            let mut want = oracle::RecordReader::new(text.as_bytes(), delim);
            loop {
                let (g, w) = (got.next_record().unwrap(), want.next_record().unwrap());
                match (g, w) {
                    (None, None) => break,
                    (Some(g), Some(w)) => {
                        let fields: Vec<&str> = g.fields().collect();
                        prop_assert_eq!(fields, w.fields.iter().map(String::as_str).collect::<Vec<_>>());
                        prop_assert_eq!((g.blank, g.line), (w.blank, w.line));
                    }
                    (g, w) => prop_assert!(false, "one reader ended early: {} vs {}", g.is_some(), w.is_some()),
                }
            }
        }
    }
}
