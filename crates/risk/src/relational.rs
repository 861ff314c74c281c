//! Prosecutor / journalist re-identification risk for relational
//! output.
//!
//! Both models score a record by the size of its equivalence class
//! over the published quasi-identifier values. The **prosecutor**
//! knows the victim is in the table: re-identification probability
//! `1/|EC|`. The **journalist** only knows the victim is in the
//! population the table sampled; under the standard sampled-population
//! model a published class of size `s` stands for a population class
//! of at least `ceil(s / π)` individuals at sampling fraction `π`, so
//! the risk dilutes to `1 / ceil(s / π)`.

use crate::RiskParams;
use secreta_metrics::{AnonTable, EquivalenceClasses, RelationalRisk};

/// Compute the relational risk block from `anon`'s equivalence
/// `classes`; `None` when the output has no relational part (class
/// statistics over an empty QI set would be a single meaningless
/// class) or no rows.
pub fn relational_risk(
    anon: &AnonTable,
    classes: &EquivalenceClasses,
    params: &RiskParams,
) -> Option<RelationalRisk> {
    let sizes = &classes.sizes;
    if anon.rel.is_empty() || sizes.is_empty() {
        return None;
    }
    let n_rows: u64 = sizes.iter().map(|&s| s as u64).sum();
    let min_class = sizes.iter().copied().min().unwrap_or(0) as u64;
    // Σ over records of 1/|EC| = number of classes, exactly
    let n_classes = sizes.len() as u64;
    let mut at_risk: u64 = 0;
    for &s in sizes {
        // 1/s > threshold  ⇔  s · threshold < 1
        if (s as f64) * params.risk_threshold < 1.0 {
            at_risk += s as u64;
        }
    }
    let pi = params.sample_fraction.clamp(f64::MIN_POSITIVE, 1.0);
    let population_min_class = (min_class as f64 / pi).ceil().max(1.0);
    Some(RelationalRisk {
        n_classes,
        min_class_size: min_class,
        max_prosecutor: 1.0 / min_class.max(1) as f64,
        avg_prosecutor: n_classes as f64 / n_rows.max(1) as f64,
        max_journalist: 1.0 / population_min_class,
        at_risk_fraction: at_risk as f64 / n_rows.max(1) as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use secreta_metrics::anon::RelColumn;
    use secreta_metrics::GenEntry;

    fn anon_with_classes(cells: Vec<u32>) -> AnonTable {
        let n = cells.len();
        AnonTable {
            rel: vec![RelColumn {
                attr: 0,
                domain: vec![GenEntry::Set(vec![0]), GenEntry::Set(vec![1])],
                cells,
            }],
            tx: None,
            n_rows: n,
        }
    }

    #[test]
    fn class_statistics() {
        // classes: {0,0,0} and {1}
        let anon = anon_with_classes(vec![0, 0, 0, 1]);
        let r =
            relational_risk(&anon, &anon.equivalence_classes(), &RiskParams::default()).unwrap();
        assert_eq!(r.n_classes, 2);
        assert_eq!(r.min_class_size, 1);
        assert_eq!(r.max_prosecutor, 1.0);
        assert_eq!(r.avg_prosecutor, 0.5);
        // default threshold 0.2: both classes are smaller than 5
        assert_eq!(r.at_risk_fraction, 1.0);
        // min class 1 at π = 0.1 → population class of 10
        assert_eq!(r.max_journalist, 0.1);
    }

    #[test]
    fn no_relational_part_is_none() {
        let anon = AnonTable {
            rel: vec![],
            tx: None,
            n_rows: 5,
        };
        assert!(
            relational_risk(&anon, &anon.equivalence_classes(), &RiskParams::default()).is_none()
        );
    }

    #[test]
    fn threshold_splits_classes() {
        let anon = anon_with_classes(vec![0, 0, 0, 0, 0, 1, 1]);
        let params = RiskParams {
            risk_threshold: 0.25,
            ..Default::default()
        };
        // 1/5 = 0.2 ≤ 0.25 not at risk; 1/2 = 0.5 > 0.25 at risk
        let r = relational_risk(&anon, &anon.equivalence_classes(), &params).unwrap();
        assert_eq!(r.at_risk_fraction, 2.0 / 7.0);
    }
}
