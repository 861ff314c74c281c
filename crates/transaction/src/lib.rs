//! # secreta-transaction
//!
//! The five transaction anonymization algorithms SECRETA integrates:
//!
//! | Algorithm | Model | Transformation | Reference |
//! |---|---|---|---|
//! | [`apriori`] (AA) | k^m-anonymity | hierarchy, global full-subtree | Terrovitis et al., VLDB J. 2011 |
//! | [`lra`] | k^m-anonymity | hierarchy, **local** recoding per horizontal partition | Terrovitis et al., VLDB J. 2011 |
//! | [`vpa`] | k^m-anonymity per vertical part | hierarchy, per-part recoding | Terrovitis et al., VLDB J. 2011 |
//! | [`coat`] | privacy/utility constraints | hierarchy-free set merging + suppression | Loukides et al., KAIS 2011 |
//! | [`pcta`] | privacy constraints | hierarchy-free UL-guided item clustering | Gkoulalas-Divanis & Loukides, TDP 2012 |
//!
//! All five consume a [`TransactionInput`] and emit an
//! [`secreta_metrics::AnonTable`] (transaction part only) plus phase
//! timings; [`verify`] re-checks k^m-anonymity and policy satisfaction
//! from the published output alone.
//!
//! Support counting — the shared hot path of every algorithm here —
//! runs on the kernels in [`support`] (interned itemset keys, inverted
//! indexes, incremental rounds, deterministic sharded counting); it is
//! each algorithm's one path. The original recount-everything
//! implementations live on in `secreta-oracle`, as the oracle for
//! equivalence tests and `secreta bench --suite tx`.

#![deny(missing_docs)]

pub mod apriori;
pub mod bitmap;
pub mod coat;
pub mod common;
pub mod groups;
pub mod lra;
pub mod pcta;
pub mod rho;
pub mod rho_td;
pub mod scoped;
pub mod support;
pub mod verify;
pub mod vpa;

pub use bitmap::{density_threshold, set_density_threshold, Bitset, RowSet};
pub use common::{TransactionAlgorithm, TransactionInput, TxError, TxOutput};
pub use rho::{is_rho_uncertain, RhoParams};
pub use rho_td::is_rho_uncertain_published;
pub use scoped::{anonymize_scoped, ClusterTx, ItemMap};
pub use verify::{is_km_anonymous, satisfies_privacy};
