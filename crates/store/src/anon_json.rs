//! The `anon.json` encoder.
//!
//! [`encode`] writes an [`AnonTable`] as the compact JSON a stored run
//! keeps: fields in declaration order, the `NodeId`/`ItemId` newtypes
//! as bare numbers, and a [`GenEntry`] as `{"Node":N}`, `{"Set":[…]}`
//! or `"Suppressed"`. That is byte for byte what `serde_json::to_string`
//! prints through the derived `Serialize` impls, which stay only as the
//! tests' oracle. Reading a table back still goes through the derived
//! `Deserialize` ([`StoredRun::anon`]).
//!
//! The derived path renders the whole table into a `serde::Value` tree
//! first, 32 bytes per cell plus a `String` per printed number, and on
//! a large table that tree sets the process's peak memory. This one
//! walks the table twice instead: once to count the exact length, once
//! to write the digits into a buffer of that size. Every byte is ASCII,
//! so nothing needs escaping.
//!
//! Each struct is destructured exhaustively and [`GenEntry`] is matched
//! without a wildcard, so a field or variant added to the model fails
//! to compile here instead of silently dropping out of stored tables.
//!
//! [`StoredRun::anon`]: crate::StoredRun::anon

use secreta_metrics::{AnonTable, AnonTransaction, GenEntry, RelColumn};

/// The `anon.json` bytes of `anon`, in a buffer allocated once.
pub fn encode(anon: &AnonTable) -> Vec<u8> {
    let mut len = Len(0);
    table(anon, &mut len);
    let mut out = Vec::with_capacity(len.0);
    table(anon, &mut out);
    debug_assert_eq!(out.len(), len.0, "length pass and write pass disagree");
    out
}

/// Where the encoder's output goes: counted ([`Len`]) or written.
trait Sink {
    /// Literal JSON punctuation and keys.
    fn raw(&mut self, bytes: &[u8]);
    /// A non-negative integer in decimal.
    fn uint(&mut self, n: u64);
}

/// Counts the bytes the write pass will produce.
struct Len(usize);

impl Sink for Len {
    fn raw(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }

    fn uint(&mut self, n: u64) {
        self.0 += n.checked_ilog10().map_or(1, |d| d as usize + 1);
    }
}

impl Sink for Vec<u8> {
    fn raw(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }

    fn uint(&mut self, mut n: u64) {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.extend_from_slice(&digits[at..]);
    }
}

fn table(anon: &AnonTable, out: &mut impl Sink) {
    let AnonTable { rel, tx, n_rows } = anon;
    out.raw(b"{\"rel\":");
    list(out, rel, column);
    out.raw(b",\"tx\":");
    match tx {
        Some(tx) => transaction(tx, out),
        None => out.raw(b"null"),
    }
    out.raw(b",\"n_rows\":");
    out.uint(*n_rows as u64);
    out.raw(b"}");
}

fn column(col: &RelColumn, out: &mut impl Sink) {
    let RelColumn {
        attr,
        domain,
        cells,
    } = col;
    out.raw(b"{\"attr\":");
    out.uint(*attr as u64);
    out.raw(b",\"domain\":");
    list(out, domain, entry);
    out.raw(b",\"cells\":");
    list(out, cells, |&c, out| out.uint(c.into()));
    out.raw(b"}");
}

fn transaction(tx: &AnonTransaction, out: &mut impl Sink) {
    let AnonTransaction {
        domain,
        offsets,
        items,
        multiplicity,
        suppressed,
    } = tx;
    out.raw(b"{\"domain\":");
    list(out, domain, entry);
    out.raw(b",\"offsets\":");
    list(out, offsets, |&o, out| out.uint(o.into()));
    out.raw(b",\"items\":");
    list(out, items, |&i, out| out.uint(i.into()));
    out.raw(b",\"multiplicity\":");
    list(out, multiplicity, |&m, out| out.uint(m.into()));
    out.raw(b",\"suppressed\":");
    list(out, suppressed, |item, out| out.uint(item.0.into()));
    out.raw(b"}");
}

fn entry(entry: &GenEntry, out: &mut impl Sink) {
    match entry {
        GenEntry::Node(node) => {
            out.raw(b"{\"Node\":");
            out.uint(node.0.into());
            out.raw(b"}");
        }
        GenEntry::Set(values) => {
            out.raw(b"{\"Set\":");
            list(out, values, |&v, out| out.uint(v.into()));
            out.raw(b"}");
        }
        GenEntry::Suppressed => out.raw(b"\"Suppressed\""),
    }
}

/// `[a,b,…]`, each element written by `each`; `[]` when empty.
fn list<T, S: Sink>(out: &mut S, xs: &[T], mut each: impl FnMut(&T, &mut S)) {
    out.raw(b"[");
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            out.raw(b",");
        }
        each(x, out);
    }
    out.raw(b"]");
}
