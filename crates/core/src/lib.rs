//! # secreta-core
//!
//! The SECRETA benchmarking framework — the paper's primary
//! contribution: "a system for analyzing the effectiveness and
//! efficiency of anonymization algorithms \[that\] allows data
//! publishers to evaluate a specific algorithm, compare multiple
//! algorithms, and combine algorithms for anonymizing datasets with
//! both relational and transaction attributes."
//!
//! Mapping to the architecture of the paper's Figure 1:
//!
//! | Paper component | Module |
//! |---|---|
//! | Anonymization Module | [`anonymizer`] |
//! | Method Evaluator / Comparator (N threads) | [`evaluator`] |
//! | Experimentation Module (single & varying parameter) | [`sweep`], [`comparison`] |
//! | Policy Specification Module | re-exported from `secreta-policy` / `secreta-hierarchy` |
//! | Data Export Module | [`export`] |
//! | Configuration (saved sessions) | [`config`] |
//!
//! The frontend equivalents (Dataset Editor, Queries Editor, plotting)
//! live in `secreta-data`, `secreta-metrics` and `secreta-plot`; the
//! CLI binary `secreta` wires everything together.

pub mod anonymizer;
pub mod comparison;
pub mod config;
pub mod context;
pub mod distributed;
pub mod evaluator;
pub mod export;
pub mod orchestrator;
pub mod out;
#[cfg(test)]
#[path = "../../store/tests/support/scratch.rs"]
mod scratch;
pub mod session;
pub mod sweep;

pub use anonymizer::{Indicators, RunError, RunResult};
pub use comparison::{compare, ComparisonResult, Configuration};
pub use config::{Bounding, MethodSpec, RelAlgo, TxAlgo};
pub use context::SessionContext;
pub use distributed::{
    run_distributed, sweep_id_for, wait_for_sweep, worker_loop, DistOptions, WorkerError,
    WorkerReport, WorkerSpawner,
};
pub use orchestrator::{context_digest, CacheStats, Orchestrated, Orchestrator};
pub use session::{SessionError, SessionSpec};
pub use sweep::{evaluate_sweep, Sweep, SweepPoint, VaryingParam};

// Re-export the substrate crates so downstream users need only one
// dependency (the umbrella crate re-exports us in turn).
pub use secreta_data as data;
pub use secreta_faults as faults;
pub use secreta_gen as gen;
pub use secreta_hierarchy as hierarchy;
pub use secreta_metrics as metrics;
pub use secreta_obsv as obsv;
pub use secreta_parallel as parallel;
pub use secreta_plot as plot;
pub use secreta_policy as policy;
pub use secreta_relational as relational;
pub use secreta_risk as risk;
pub use secreta_rt as rt;
pub use secreta_store as store;
pub use secreta_transaction as transaction;
