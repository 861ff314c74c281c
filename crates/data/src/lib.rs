//! # secreta-data
//!
//! Dataset substrate for SECRETA-rs, the Rust reproduction of the
//! EDBT 2014 demo paper *"SECRETA: A System for Evaluating and
//! Comparing RElational and Transaction Anonymization algorithms"*.
//!
//! This crate models the *RT-datasets* the paper operates on: tables
//! whose records combine **relational attributes** (single-valued,
//! e.g. an individual's year of birth) and an optional **transaction
//! attribute** (set-valued, e.g. the individual's purchased items).
//!
//! It provides:
//!
//! * [`RtTable`] — a column-oriented table with per-attribute value
//!   interning and a CSR-encoded transaction column,
//! * CSV reading/writing in the paper's input format ([`csv`]),
//! * the Dataset Editor operations of the SECRETA GUI ([`edit`]),
//! * attribute statistics and histograms ([`stats`]) backing the
//!   visualizations of the paper's Figure 2,
//! * a fast integer-keyed hash map ([`hash`]) used throughout the
//!   workspace for support counting and equivalence-class grouping,
//! * the [`Counting`] switch between the counting kernels and their
//!   naive reference oracles.
//!
//! Strings appear only at the I/O boundary; all algorithm-facing APIs
//! speak interned [`ValueId`]/[`ItemId`] integers.

pub mod chunk;
pub mod csv;
pub mod edit;
pub mod error;
pub mod hash;
pub mod schema;
pub mod stats;
pub mod table;
pub mod value;

pub use chunk::{ChunkStats, ChunkedTable, MemoryBudget, RowChunk};
pub use csv::CsvOptions;
pub use error::DataError;
pub use schema::{Attribute, AttributeKind, Schema};
pub use stats::{AttributeSummary, Histogram};
pub use table::{RowRef, RtTable, TxChunk};
pub use value::{ItemId, ValueId, ValuePool};

/// Which counting implementation an algorithm run uses — one switch
/// shared by the relational and transaction algorithms and the risk
/// evaluation.
///
/// `Kernel` is the production default; `Naive` preserves the original
/// rescan-everything implementations as a reference oracle for
/// benchmarks and equivalence tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counting {
    /// Rescan the whole table for every count: per lattice node or
    /// split candidate (relational), per round with per-subset `Vec`
    /// keys (transaction).
    Naive,
    /// The counting kernels: recode tables, partition rollups and
    /// split-local row touching (relational); interned keys, inverted
    /// indexes, incremental rounds and sharded initial counts
    /// (transaction).
    Kernel,
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, DataError>;
