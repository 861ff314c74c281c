//! Varying-parameter execution (the Experimentation Module's sweep
//! half).
//!
//! "In varying parameter execution, the user selects the start/end
//! values and step of a parameter that varies, as well as fixed values
//! for other parameters. The plotted results include data utility
//! indicators and runtime vs. the varying parameter."

use crate::anonymizer::{Indicators, RunError};
use crate::comparison::Configuration;
use crate::config::MethodSpec;
use crate::context::SessionContext;
use crate::orchestrator::Orchestrator;
use secreta_plot::{Series, XyChart};
use serde::{Deserialize, Serialize, Value};

/// Which parameter varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VaryingParam {
    /// Protection level `k`.
    K,
    /// Adversary knowledge `m`.
    M,
    /// Merge budget `δ` (RT methods).
    Delta,
}

impl VaryingParam {
    /// Axis label.
    pub fn label(self) -> &'static str {
        match self {
            VaryingParam::K => "k",
            VaryingParam::M => "m",
            VaryingParam::Delta => "δ",
        }
    }

    /// The parameter whose [`label`](VaryingParam::label) is `label`,
    /// if any — how journaled sweep records name their parameter.
    pub fn from_label(label: &str) -> Option<VaryingParam> {
        [VaryingParam::K, VaryingParam::M, VaryingParam::Delta]
            .into_iter()
            .find(|p| p.label() == label)
    }
}

/// A start/end/step sweep, inclusive of `end` when the step lands on
/// it — the exact semantics of the GUI's three sweep fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Sweep {
    /// The varying parameter.
    pub param: VaryingParam,
    /// First value.
    pub start: usize,
    /// Last value (inclusive).
    pub end: usize,
    /// Step (≥ 1).
    pub step: usize,
}

impl Sweep {
    /// The concrete values the sweep visits.
    pub fn values(&self) -> Vec<usize> {
        let step = self.step.max(1);
        let mut out = Vec::new();
        let mut v = self.start;
        while v <= self.end {
            out.push(v);
            // `v + step` can exceed usize::MAX for end values near the
            // top of the range; wrapping would loop forever
            match v.checked_add(step) {
                Some(next) => v = next,
                None => break,
            }
        }
        out
    }
}

/// One sweep sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// The varying parameter's value.
    pub value: usize,
    /// Indicators measured at that value.
    pub indicators: Indicators,
}

/// Run `spec` across `sweep`, fanning points out within a budget of
/// `threads` threads. Per-point failures (e.g. an infeasible `k`) are
/// reported in place.
pub fn evaluate_sweep(
    ctx: &SessionContext,
    spec: &MethodSpec,
    sweep: &Sweep,
    threads: usize,
    seed: u64,
) -> Vec<(usize, Result<SweepPoint, RunError>)> {
    let cfg = Configuration::new(spec.clone(), *sweep, seed);
    Orchestrator::new(threads)
        .compare(ctx, &[cfg], Value::Null)
        .expect("store-less orchestration performs no store i/o")
        .result
        .points
        .into_iter()
        .next()
        .unwrap_or_default()
}

/// Extract one indicator from sweep output as a plot series, skipping
/// failed points.
pub fn series_of(
    label: impl Into<String>,
    points: &[(usize, Result<SweepPoint, RunError>)],
    pick: impl Fn(&Indicators) -> f64,
) -> Series {
    Series::new(
        label,
        points
            .iter()
            .filter_map(|(v, r)| r.as_ref().ok().map(|p| (*v as f64, pick(&p.indicators))))
            .collect(),
    )
}

/// Convenience: a one-series chart of `pick` over the sweep.
pub fn chart_of(
    title: impl Into<String>,
    y_label: impl Into<String>,
    sweep: &Sweep,
    label: impl Into<String>,
    points: &[(usize, Result<SweepPoint, RunError>)],
    pick: impl Fn(&Indicators) -> f64,
) -> XyChart {
    let mut chart = XyChart::new(title, sweep.param.label(), y_label);
    chart.push(series_of(label, points, pick));
    chart
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RelAlgo;
    use secreta_gen::{DatasetSpec, WorkloadSpec};

    fn ctx() -> SessionContext {
        let t = DatasetSpec::adult_like(80, 1).generate();
        let ctx = SessionContext::auto(t, 4).unwrap();
        let w = WorkloadSpec {
            n_queries: 20,
            ..Default::default()
        }
        .generate(&ctx.table);
        ctx.with_workload(w)
    }

    #[test]
    fn sweep_values_inclusive() {
        let s = Sweep {
            param: VaryingParam::K,
            start: 2,
            end: 10,
            step: 4,
        };
        assert_eq!(s.values(), vec![2, 6, 10]);
        let s2 = Sweep {
            param: VaryingParam::K,
            start: 5,
            end: 5,
            step: 1,
        };
        assert_eq!(s2.values(), vec![5]);
        let s3 = Sweep {
            param: VaryingParam::K,
            start: 9,
            end: 3,
            step: 1,
        };
        assert!(s3.values().is_empty());
        let s0 = Sweep {
            param: VaryingParam::K,
            start: 1,
            end: 3,
            step: 0,
        };
        assert_eq!(s0.values(), vec![1, 2, 3], "step 0 clamps to 1");
    }

    #[test]
    fn param_labels_round_trip() {
        for p in [VaryingParam::K, VaryingParam::M, VaryingParam::Delta] {
            assert_eq!(VaryingParam::from_label(p.label()), Some(p));
        }
        for unknown in ["", "K", "delta", "q"] {
            assert_eq!(VaryingParam::from_label(unknown), None, "{unknown:?}");
        }
    }

    #[test]
    fn sweep_values_near_usize_max_terminate() {
        // v += step used to wrap past usize::MAX and loop forever
        let s = Sweep {
            param: VaryingParam::K,
            start: usize::MAX - 3,
            end: usize::MAX,
            step: 2,
        };
        assert_eq!(s.values(), vec![usize::MAX - 3, usize::MAX - 1]);
        let s2 = Sweep {
            param: VaryingParam::K,
            start: usize::MAX,
            end: usize::MAX,
            step: 1,
        };
        assert_eq!(s2.values(), vec![usize::MAX]);
    }

    #[test]
    fn k_sweep_is_monotone_in_gcp() {
        let ctx = ctx();
        let spec = MethodSpec::Relational {
            algo: RelAlgo::Cluster,
            k: 0, // overwritten by the sweep
        };
        let sweep = Sweep {
            param: VaryingParam::K,
            start: 2,
            end: 20,
            step: 6,
        };
        let out = evaluate_sweep(&ctx, &spec, &sweep, 4, 1);
        assert_eq!(out.len(), 4);
        let mut prev = -1.0;
        for (v, r) in &out {
            let p = r.as_ref().unwrap();
            assert!(p.indicators.verified, "k={v}");
            assert!(p.indicators.gcp >= prev - 1e-9);
            prev = p.indicators.gcp;
        }
    }

    #[test]
    fn failed_points_are_isolated() {
        let ctx = ctx();
        let spec = MethodSpec::Relational {
            algo: RelAlgo::Incognito,
            k: 0,
        };
        let sweep = Sweep {
            param: VaryingParam::K,
            start: 50,
            end: 150,
            step: 50,
        };
        let out = evaluate_sweep(&ctx, &spec, &sweep, 2, 0);
        assert!(out[0].1.is_ok(), "k=50 feasible on 80 rows");
        assert!(out[2].1.is_err(), "k=150 infeasible");
    }

    #[test]
    fn series_and_chart_skip_failures() {
        let ctx = ctx();
        let spec = MethodSpec::Relational {
            algo: RelAlgo::Cluster,
            k: 0,
        };
        let sweep = Sweep {
            param: VaryingParam::K,
            start: 40,
            end: 120,
            step: 40,
        };
        let out = evaluate_sweep(&ctx, &spec, &sweep, 2, 1);
        let series = series_of("gcp", &out, |i| i.gcp);
        assert_eq!(series.points.len(), 2, "only feasible points plotted");
        let chart = chart_of("GCP vs k", "GCP", &sweep, "Cluster", &out, |i| i.gcp);
        assert_eq!(chart.x_label, "k");
        assert_eq!(chart.series.len(), 1);
    }
}
