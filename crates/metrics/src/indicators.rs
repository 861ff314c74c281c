//! The indicator set SECRETA reports for every run.
//!
//! Lives in the metrics crate (rather than next to the Anonymization
//! Module in `secreta-core`) so that layers below the experimentation
//! framework — notably the persistent run store — can record and
//! replay indicator values without depending on the framework itself.

use serde::{Deserialize, Serialize};

/// The data-utility and efficiency indicators SECRETA reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Indicators {
    /// Relational information loss (mean NCP over cells), in \[0,1\].
    pub gcp: f64,
    /// Transaction information loss (mean NCP over occurrences).
    pub tx_gcp: f64,
    /// Normalized UL of the transaction attribute.
    pub ul: f64,
    /// Average Relative Error over the session workload.
    pub are: f64,
    /// Mean relative error of per-item frequencies (Figure 3(d)
    /// summary).
    pub item_freq_error: f64,
    /// Discernibility (Σ |EC|²) of the relational part.
    pub discernibility: u64,
    /// Average equivalence-class size.
    pub avg_class_size: f64,
    /// Total wall-clock runtime in milliseconds.
    pub runtime_ms: f64,
    /// Did the output pass the audit of its guarantee
    /// (`risk.audit.passed`, checked on the output alone)?
    pub verified: bool,
    /// Attack-side disclosure-risk indicators (`secreta-risk`).
    ///
    /// `None` on manifests written before store schema 4 and on runs
    /// where risk evaluation is disabled — an absent block
    /// deserializes to `None`, so old manifests keep loading.
    #[serde(default)]
    pub risk: Option<RiskIndicators>,
}

/// The attack-side indicator block computed by `secreta-risk`.
///
/// All constituent values are derived from integer accumulators
/// (counts, sums, minima) with any ratios taken once at the end, so
/// the block is byte-identical across thread counts and replays.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RiskIndicators {
    /// Relational re-identification risk; `None` when the output has
    /// no relational part.
    pub rel: Option<RelationalRisk>,
    /// Transaction m-item adversary risk; `None` when the output has
    /// no transaction part.
    pub tx: Option<TransactionRisk>,
    /// Post-hoc audit of the claimed privacy guarantee.
    pub audit: ConstraintAudit,
}

/// Prosecutor/journalist re-identification risk over the relational
/// quasi-identifier equivalence classes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RelationalRisk {
    /// Number of equivalence classes over the published QI values.
    pub n_classes: u64,
    /// Size of the smallest equivalence class.
    pub min_class_size: u64,
    /// Worst-case prosecutor risk `1 / min_class_size`.
    pub max_prosecutor: f64,
    /// Average prosecutor risk `n_classes / n_rows` (the mean of
    /// `1/|EC|` over records).
    pub avg_prosecutor: f64,
    /// Worst-case journalist risk under the sampled-population model:
    /// `1 / ceil(min_class_size / sample_fraction)`.
    pub max_journalist: f64,
    /// Fraction of records whose prosecutor risk exceeds the
    /// configured risk threshold.
    pub at_risk_fraction: f64,
}

/// Transaction re-identification risk under an adversary knowing up
/// to `m` of a victim's original items, for each evaluated `m`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransactionRisk {
    /// One entry per evaluated background-knowledge size `m`
    /// (ascending).
    pub per_m: Vec<MItemRisk>,
}

/// Candidate-set statistics for one background-knowledge size `m`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MItemRisk {
    /// Background-knowledge size (number of known original items).
    pub m: u32,
    /// Smallest worst-case candidate-set size over all records with at
    /// least one original item (0 when suppression broke every link
    /// for some record).
    pub min_candidates: u64,
    /// Mean worst-case candidate-set size over those records.
    pub avg_candidates: f64,
    /// Share of records whose worst-case candidate set is exactly one
    /// row — i.e. uniquely re-identifiable under `m`-item knowledge.
    pub unique_fraction: f64,
}

/// Result of checking the claimed privacy guarantee on the output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConstraintAudit {
    /// Human-readable description of the audited guarantee, e.g.
    /// `"k-anonymity(k=5)"`.
    pub guarantee: String,
    /// Violations found: records in too-small classes (k-anonymity),
    /// under-supported itemsets (k^m), both (k,k^m), violated
    /// constraints (privacy policy), or 0/1 (ρ-uncertainty).
    pub violations: u64,
    /// True iff `violations == 0` — the hard error indicator, and the
    /// run's `verified` indicator.
    pub passed: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip_is_exact() {
        let ind = Indicators {
            gcp: 0.123456789123,
            tx_gcp: 0.25,
            ul: 1.0 / 3.0,
            are: 7.5e-3,
            item_freq_error: 0.0,
            discernibility: 123_456,
            avg_class_size: 12.5,
            runtime_ms: 1.0625,
            verified: true,
            risk: None,
        };
        let json = serde_json::to_string(&ind).unwrap();
        let back: Indicators = serde_json::from_str(&json).unwrap();
        // exact f64 equality: Display uses the shortest representation
        // that round-trips, so replayed runs are bit-identical
        assert_eq!(ind, back);
    }

    #[test]
    fn risk_block_roundtrips_and_defaults_to_none() {
        let ind = Indicators {
            gcp: 0.5,
            tx_gcp: 0.0,
            ul: 0.0,
            are: 0.0,
            item_freq_error: 0.0,
            discernibility: 4,
            avg_class_size: 2.0,
            runtime_ms: 3.5,
            verified: true,
            risk: Some(RiskIndicators {
                rel: Some(RelationalRisk {
                    n_classes: 3,
                    min_class_size: 2,
                    max_prosecutor: 0.5,
                    avg_prosecutor: 0.375,
                    max_journalist: 0.05,
                    at_risk_fraction: 0.25,
                }),
                tx: Some(TransactionRisk {
                    per_m: vec![MItemRisk {
                        m: 1,
                        min_candidates: 1,
                        avg_candidates: 2.5,
                        unique_fraction: 1.0 / 3.0,
                    }],
                }),
                audit: ConstraintAudit {
                    guarantee: "k-anonymity(k=2)".into(),
                    violations: 0,
                    passed: true,
                },
            }),
        };
        let json = serde_json::to_string(&ind).unwrap();
        let back: Indicators = serde_json::from_str(&json).unwrap();
        assert_eq!(ind, back);

        // a pre-risk indicator block (no "risk" key) still loads
        let legacy = r#"{"gcp":0.0,"tx_gcp":0.0,"ul":0.0,"are":0.0,
            "item_freq_error":0.0,"discernibility":0,"avg_class_size":0.0,
            "runtime_ms":0.0,"verified":true}"#;
        let old: Indicators = serde_json::from_str(legacy).unwrap();
        assert!(old.risk.is_none());
        // ...and round-trips as None
        let reser = serde_json::to_string(&old).unwrap();
        let again: Indicators = serde_json::from_str(&reser).unwrap();
        assert_eq!(old, again);
    }
}
