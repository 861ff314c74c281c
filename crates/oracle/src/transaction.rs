//! Oracles of the seven transaction algorithms: each recounts its
//! supports or rules from scratch every round, with one `Vec` key per
//! enumerated subset.

pub mod apriori;
pub mod coat;
pub mod lra;
pub mod pcta;
pub mod rho;
pub mod rho_td;
pub mod vpa;
