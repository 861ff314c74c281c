//! # secreta-risk
//!
//! Attack-side evaluation for SECRETA-rs: where `secreta-metrics`
//! measures how much *utility* an anonymization preserved, this crate
//! measures how much *protection* it actually delivers, by attacking
//! the published output with the standard adversary models:
//!
//! * [`relational`] — **prosecutor / journalist re-identification
//!   risk** over the relational quasi-identifier equivalence classes:
//!   a prosecutor knows their victim is in the published table (risk
//!   `1/|EC|`); a journalist only knows the victim is in the
//!   population the table was sampled from, so each class is diluted
//!   by the sampling fraction.
//! * [`mitem`] — **transaction re-identification / membership
//!   disclosure** under an adversary who knows up to *m* of the
//!   victim's original items. For each record the worst-case
//!   *candidate set* (published rows consistent with the best m-item
//!   background knowledge) is computed; a candidate set of size one is
//!   a unique re-identification. The kernel path reads a
//!   [`CandidateIndex`] built on the tiered `InvertedIndex`/`RowSet`
//!   machinery from `secreta-transaction`: candidate sets go dense at
//!   1/64 of the published rows, and each record's subset walk stops
//!   at a floor proven from its own published row. The naive path is a
//!   brute-force O(n²) oracle the kernels are tested against.
//! * [`audit`] — a **constraint-violation audit** that checks the
//!   claimed guarantee (k-anonymity, k^m-anonymity, (k,k^m)-anonymity,
//!   privacy policy, ρ-uncertainty) on the output and reports the
//!   number of violations as a hard error indicator. It is the run's
//!   verdict: a run's `verified` indicator is the audit's `passed`.
//!   The privacy-policy audit counts each constraint's support from
//!   the same [`CandidateIndex`].
//!
//! Everything aggregates through integer accumulators (counts, sums,
//! minima) with ratios computed once at the end, so the resulting
//! [`RiskIndicators`] block is byte-identical at any thread count and
//! replays exactly from stored run manifests. Work is tallied into
//! `risk/*` observability counters (see the registry in
//! `docs/GUIDE.md`).

#![deny(missing_docs)]

pub mod audit;
pub mod mitem;
pub mod relational;

pub use audit::audit_guarantee;
pub use mitem::{transaction_risk, CandidateIndex};
pub use relational::relational_risk;

use secreta_data::RtTable;
use secreta_hierarchy::Hierarchy;
use secreta_metrics::{AnonTable, EquivalenceClasses, RiskIndicators};
use secreta_policy::PrivacyPolicy;
use secreta_transaction::Counting;

/// Tunables of the adversary models.
#[derive(Debug, Clone, PartialEq)]
pub struct RiskParams {
    /// Fraction of the population the table is assumed to sample for
    /// the journalist model, in `(0, 1]`. A published class of size
    /// `s` is assumed drawn from a population class of size
    /// `ceil(s / sample_fraction)`.
    pub sample_fraction: f64,
    /// Prosecutor-risk threshold above which a record counts as "at
    /// risk" (e.g. `0.2` flags records in classes smaller than 5).
    pub risk_threshold: f64,
    /// Largest background-knowledge size evaluated by the m-item
    /// adversary (each `m` in `1..=max_m` is reported; 0 counts as 1).
    pub max_m: u32,
}

impl Default for RiskParams {
    fn default() -> Self {
        RiskParams {
            sample_fraction: 0.1,
            risk_threshold: 0.2,
            max_m: 3,
        }
    }
}

/// The privacy guarantee an output claims, for the audit.
#[derive(Debug, Clone, PartialEq)]
pub enum Guarantee<'a> {
    /// Relational k-anonymity at `k`.
    KAnonymity {
        /// The minimum equivalence-class size.
        k: usize,
    },
    /// Transaction k^m-anonymity: every itemset of up to `m` published
    /// items occurring at all occurs in at least `k` transactions.
    KmAnonymity {
        /// Minimum support of occurring published itemsets.
        k: usize,
        /// Largest itemset size checked.
        m: usize,
    },
    /// Privacy-policy protection (COAT/PCTA): every privacy
    /// constraint's published support is `0` or `≥ k`.
    Policy {
        /// Minimum nonzero support of a privacy constraint.
        k: usize,
        /// The protected constraints.
        policy: &'a PrivacyPolicy,
    },
    /// RT (k, k^m)-anonymity: relational k-anonymity plus transaction
    /// k^m-anonymity within each relational equivalence class.
    KKmAnonymity {
        /// The minimum class size / itemset support.
        k: usize,
        /// Largest itemset size checked on the transaction side.
        m: usize,
    },
    /// ρ-uncertainty. Mining sensitive rules is the job of the
    /// verifiers in `secreta-transaction`; the audit reports their
    /// verdict.
    RhoUncertainty {
        /// The confidence threshold ρ.
        rho: f64,
        /// The verifier's verdict on the published output.
        satisfied: bool,
    },
}

/// Evaluate the full attack-side indicator block for a published
/// output.
///
/// `classes` are `anon`'s equivalence classes, which the relational
/// risk and the audit share; `item_hierarchy` expands hierarchy-node
/// generalized values. `counting` picks the kernel or the brute-force
/// oracle for the m-item adversary — both produce byte-identical
/// indicators. A published transaction table gets one
/// [`CandidateIndex`], which the attack and the policy audit share.
pub fn evaluate(
    table: &RtTable,
    anon: &AnonTable,
    classes: &EquivalenceClasses,
    item_hierarchy: Option<&Hierarchy>,
    guarantee: &Guarantee,
    params: &RiskParams,
    counting: Counting,
) -> RiskIndicators {
    let recorder = secreta_obsv::current();
    let rel = relational_risk(anon, classes, params);
    let candidates = anon
        .tx
        .as_ref()
        .map(|tx| CandidateIndex::build(table, tx, item_hierarchy));
    let candidates = candidates.as_ref();
    let (tx, work) = mitem::attack(table, anon, candidates, item_hierarchy, params, counting);
    let audit = audit_guarantee(anon, classes, candidates, guarantee);
    if let Some(r) = &rel {
        recorder.count("risk/rel_classes", r.n_classes);
    }
    recorder.count("risk/tx_rows", work.rows);
    recorder.count("risk/tx_subsets", work.subsets);
    recorder.count("risk/tx_intersections", work.intersections);
    recorder.count("risk/tx_bitmap_intersections", work.bitmap_intersections);
    recorder.count("risk/audit_violations", audit.violations);
    RiskIndicators { rel, tx, audit }
}

/// Work counters accumulated by one m-item risk evaluation, flushed
/// as `risk/*` observability counters by [`evaluate`].
#[derive(Debug, Default, Clone, Copy)]
pub struct RiskWork {
    /// Records attacked (rows with at least one original item).
    pub rows: u64,
    /// m-subsets of background knowledge evaluated before each
    /// record's worst case was proven.
    pub subsets: u64,
    /// Candidate-set intersections computed (memo misses).
    pub intersections: u64,
    /// Intersections with at least one dense (bitmap) operand.
    pub bitmap_intersections: u64,
}

impl RiskWork {
    /// Add `other`'s totals into `self`.
    pub fn absorb(&mut self, other: &RiskWork) {
        self.rows += other.rows;
        self.subsets += other.subsets;
        self.intersections += other.intersections;
        self.bitmap_intersections += other.bitmap_intersections;
    }
}
