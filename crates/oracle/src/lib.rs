//! # secreta-oracle
//!
//! The naive reference oracles of the SECRETA-rs algorithms. Each
//! production algorithm has one path, its counting kernel; the
//! recount-everything implementation it replaced lives here, frozen,
//! so the tests and `secreta bench` can check the kernel against it
//! and time the speed-up.
//!
//! | Module | Oracle of |
//! |---|---|
//! | [`relational::incognito`] | per-node row rescans of the lattice search |
//! | [`relational::topdown`] | per-candidate full-table rescans |
//! | [`relational::bottomup`] | per-round row regrouping |
//! | [`relational::cluster`] | parent-walk LCA, per-access table reads, on-demand NCP |
//! | [`transaction::apriori`], [`transaction::lra`], [`transaction::vpa`] | per-round subset recount with `Vec` keys |
//! | [`transaction::coat`], [`transaction::pcta`] | per-round published-row rebuild and scan |
//! | [`transaction::rho`], [`transaction::rho_td`] | per-round rule re-mining |
//! | [`risk::transaction_risk`] | O(n²) candidate rescans of the m-item attack |
//!
//! Every oracle takes its production entry point's input and returns
//! its output type. It shares no code with the kernels: it reads the
//! public input and output types and everything below the algorithm
//! layer (tables, hierarchies, cuts, item groups, policies, the
//! `AnonTable` builders), and carries its own copies of the selection
//! helpers, so a later change to a kernel or its driver cannot
//! silently change the oracle it is checked against. Oracles record
//! their phases but no `secreta-obsv` counters.
//!
//! Only `secreta-cli` (for `secreta bench`) and the tests link this
//! crate; no library crate depends on it.

pub mod relational;
pub mod risk;
pub mod transaction;
