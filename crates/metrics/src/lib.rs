//! # secreta-metrics
//!
//! Data-utility measurement for SECRETA-rs.
//!
//! The paper: *"For capturing data utility, we employ several
//! information loss measures [7, 12] and support data utility
//! requirements … The system supports the same type of queries as
//! \[12\], and uses Average Relative Error (ARE) \[12\] as a de-facto
//! utility indicator."*
//!
//! This crate provides:
//!
//! * [`anon`] — the **anonymized-table model** ([`anon::AnonTable`]):
//!   a single representation for the output of every algorithm in the
//!   system, whether it recodes via hierarchy nodes (Incognito,
//!   Top-down, Full-subtree, Apriori, LRA, VPA) or via explicit value
//!   sets (Cluster, COAT, PCTA);
//! * [`loss`] — information-loss measures: NCP/GCP \[12\], UL
//!   (set-valued utility loss, \[5,7\]), discernibility, average
//!   equivalence-class size;
//! * [`query`] — COUNT query workloads and **ARE** under the standard
//!   uniformity estimate;
//! * [`freq`] — original-vs-anonymized frequency statistics backing
//!   the paper's Figure 3(c) and 3(d) plots;
//! * [`timing`] — the flat per-phase stopwatch ([`PhaseTimer`]) whose
//!   windows also feed the hierarchical `secreta-obsv` recorder.

#![deny(missing_docs)]

pub mod anon;
pub mod freq;
pub mod indicators;
pub mod loss;
pub mod query;
pub mod timing;

pub use anon::{AnonTable, AnonTransaction, EquivalenceClasses, GenEntry, RelColumn};
pub use indicators::{
    ConstraintAudit, Indicators, MItemRisk, RelationalRisk, RiskIndicators, TransactionRisk,
};
pub use loss::{average_class_size, discernibility, gcp, transaction_gcp, utility_loss};
pub use query::{average_relative_error, Query, QueryAtom, Workload};
pub use timing::{PhaseTimer, PhaseTimes};
