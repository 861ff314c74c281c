//! # secreta-relational
//!
//! The four relational k-anonymity algorithms SECRETA integrates:
//!
//! | Algorithm | Recoding | Reference |
//! |---|---|---|
//! | [`incognito`] | full-domain (global, level-uniform) | LeFevre et al., SIGMOD 2005 |
//! | [`topdown`] | full-subtree cut, specialized top-down | Fung et al., ICDE 2005 |
//! | [`bottomup`] | full-subtree cut, generalized bottom-up | (classic counterpart of Top-down) |
//! | [`cluster`] | per-cluster LCA (local recoding) | Poulis et al., ECML/PKDD 2013 |
//!
//! All four consume a [`RelationalInput`] (table + quasi-identifier
//! attributes + per-attribute hierarchies + `k`) and produce an
//! [`secreta_metrics::AnonTable`] plus [`secreta_metrics::PhaseTimes`],
//! so the SECRETA framework can evaluate and compare them uniformly.

pub mod bottomup;
pub mod cluster;
pub mod common;
pub mod incognito;
pub mod kernel;
pub mod topdown;
pub mod verify;

pub use common::{RelError, RelOutput, RelationalAlgorithm, RelationalInput};
pub use verify::is_k_anonymous;
