//! The Anonymization Module: execute one configured method and
//! measure it.
//!
//! "This component is responsible for executing an anonymization
//! algorithm with the specified configuration." On top of the raw run
//! it computes the full indicator set the Experimentation Module
//! plots: utility (GCP, UL, ARE, frequency errors), group statistics,
//! runtime with phases, and the attack-side risk block — in one
//! evaluation pass over one equivalence-class histogram. Algorithms
//! are never trusted blindly: the risk block's guarantee audit checks
//! the claimed guarantee on the output alone, and its verdict is the
//! `verified` indicator.

use crate::config::MethodSpec;
use crate::context::SessionContext;
use secreta_metrics::{
    average_relative_error, freq, gcp, transaction_gcp, utility_loss, AnonTable,
    EquivalenceClasses, PhaseTimes,
};
use secreta_policy::PrivacyPolicy;
use secreta_relational::{RelError, RelationalInput};
use secreta_rt::{RtError, RtInput};
use secreta_transaction::{TransactionInput, TxError};
use std::fmt;

pub use secreta_metrics::Indicators;

/// Errors from a configured run.
#[derive(Debug, PartialEq, Eq)]
pub enum RunError {
    /// Relational algorithm failure.
    Rel(RelError),
    /// Transaction algorithm failure.
    Tx(TxError),
    /// RT pipeline failure.
    Rt(RtError),
    /// The spec does not match the dataset (e.g. a transaction method
    /// on a relational-only dataset).
    BadConfig(String),
    /// The algorithm panicked; the payload message is preserved. Only
    /// produced by [`run_isolated`] — a raw [`run`] propagates the
    /// panic.
    Panicked(String),
    /// The run exceeded its soft deadline (see
    /// [`SessionContext::with_job_deadline`]) and was cancelled at a
    /// phase boundary.
    TimedOut {
        /// The configured budget, in milliseconds.
        limit_ms: u64,
    },
    /// The run was cancelled via its session's
    /// [`secreta_obsv::CancelToken`].
    Cancelled,
    /// The run crossed its memory budget (see
    /// [`SessionContext::with_memory_budget`]) and was cancelled at a
    /// phase boundary instead of growing until the OOM killer fired.
    BudgetExceeded {
        /// The configured budget, in bytes.
        limit_bytes: u64,
        /// Peak RSS observed at the tripping check, in bytes.
        observed_bytes: u64,
    },
    /// The job was lost by a distributed sweep: every worker that
    /// could have run it died and the coordinator degraded rather than
    /// hang. `runs resume` re-executes exactly these jobs.
    Lost(String),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Rel(e) => write!(f, "{e}"),
            RunError::Tx(e) => write!(f, "{e}"),
            RunError::Rt(e) => write!(f, "{e}"),
            RunError::BadConfig(msg) => write!(f, "bad configuration: {msg}"),
            RunError::Panicked(msg) => write!(f, "algorithm panicked: {msg}"),
            RunError::TimedOut { limit_ms } => {
                write!(f, "run exceeded its {limit_ms} ms deadline")
            }
            RunError::Cancelled => write!(f, "run cancelled"),
            RunError::Lost(msg) => write!(f, "job lost: {msg}"),
            RunError::BudgetExceeded {
                limit_bytes,
                observed_bytes,
            } => write!(
                f,
                "run exceeded its {limit_bytes} byte memory budget (peak RSS {observed_bytes})"
            ),
        }
    }
}

impl std::error::Error for RunError {}

/// Everything a single run produces.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The anonymized table.
    pub anon: AnonTable,
    /// Phase timings.
    pub phases: PhaseTimes,
    /// Computed indicators.
    pub indicators: Indicators,
    /// The recorded span/counter profile, when the session's
    /// [`secreta_obsv::ObsvConfig`] enables observability (`None`
    /// otherwise).
    pub profile: Option<secreta_obsv::RunProfile>,
}

/// Execute `spec` against `ctx`. `seed` feeds the randomized pieces
/// (relational Cluster seeding).
///
/// ```
/// use secreta_core::config::{MethodSpec, RelAlgo};
/// use secreta_core::{anonymizer, SessionContext};
/// use secreta_gen::DatasetSpec;
///
/// let table = DatasetSpec::census(60, 7).generate();
/// let ctx = SessionContext::auto(table, 4).unwrap();
/// let spec = MethodSpec::Relational { algo: RelAlgo::Cluster, k: 5 };
/// let out = anonymizer::run(&ctx, &spec, 1).unwrap();
/// assert!(out.indicators.verified);
/// assert!(out.indicators.avg_class_size >= 5.0);
/// ```
pub fn run(ctx: &SessionContext, spec: &MethodSpec, seed: u64) -> Result<RunResult, RunError> {
    // per-run recorder, installed for the duration of the run so every
    // PhaseTimer window and algorithm counter lands on it (a disabled
    // config installs the no-op recorder)
    let recorder = ctx.obsv.recorder();
    let _obsv_guard = secreta_obsv::install(&recorder);

    // publish the chunked-ingest counters (if the table came in that
    // way) so every run's profile carries its data-layer provenance
    if let Some(ingest) = &ctx.ingest {
        recorder.count("chunk/chunks", ingest.chunks);
        recorder.count("chunk/rows", ingest.rows);
        recorder.count("chunk/local_symbols", ingest.local_symbols);
        recorder.count("chunk/merged_symbols", ingest.merged_symbols);
        recorder.count("chunk/remapped_ids", ingest.remapped_ids);
        recorder.count("budget/peak_accounted_bytes", ingest.peak_accounted_bytes);
        if let Some(b) = ingest.budget_bytes {
            recorder.count("budget/limit_bytes", b);
        }
    }

    // chaos-test hooks; `active()` is a single atomic load, so the
    // label is only rendered when a fault plan is installed
    if secreta_faults::active() {
        secreta_faults::fault::panic_point(&format!("run:{}", spec.label()));
        secreta_faults::fault::delay("run");
    }

    // ρ-uncertainty's verdict comes from its verifier, since the audit
    // mines no rules; the audit counts every other guarantee itself
    let (anon, phases, rho_verdict) = match spec {
        MethodSpec::Relational { algo, k } => {
            if ctx.qi_attrs.is_empty() {
                return Err(RunError::BadConfig(
                    "relational method on a dataset without relational attributes".into(),
                ));
            }
            let input = RelationalInput {
                table: &ctx.table,
                qi_attrs: ctx.qi_attrs.clone(),
                hierarchies: ctx.hierarchies.clone(),
                k: *k,
            };
            let out = secreta_relational::RelationalAlgorithm::from(*algo)
                .run(&input, seed)
                .map_err(RunError::Rel)?;
            (out.anon, out.phases, None)
        }
        MethodSpec::Transaction { algo, k, m } => {
            if ctx.table.schema().transaction_index().is_none() {
                return Err(RunError::BadConfig(
                    "transaction method on a dataset without a transaction attribute".into(),
                ));
            }
            let input = TransactionInput {
                table: &ctx.table,
                k: *k,
                m: *m,
                hierarchy: ctx.item_hierarchy.as_ref(),
                privacy: ctx.privacy.as_ref(),
                utility: ctx.utility.as_ref(),
            };
            let out = secreta_transaction::TransactionAlgorithm::from(*algo)
                .run(&input)
                .map_err(RunError::Tx)?;
            (out.anon, out.phases, None)
        }
        MethodSpec::Rt {
            rel,
            tx,
            bounding,
            k,
            m,
            delta,
        } => {
            if !ctx.table.schema().is_rt() {
                return Err(RunError::BadConfig(
                    "RT method requires both relational and transaction attributes".into(),
                ));
            }
            let input = RtInput {
                table: &ctx.table,
                qi_attrs: ctx.qi_attrs.clone(),
                hierarchies: ctx.hierarchies.clone(),
                item_hierarchy: ctx.item_hierarchy.as_ref(),
                k: *k,
                m: *m,
                delta: *delta,
                rel_algo: (*rel).into(),
                tx_algo: (*tx).into(),
                bounding: (*bounding).into(),
                privacy: ctx.privacy.as_ref(),
                utility: ctx.utility.as_ref(),
                seed,
            };
            let out = secreta_rt::anonymize(&input).map_err(RunError::Rt)?;
            (out.anon, out.phases, None)
        }
        MethodSpec::Rho {
            rho,
            sensitive,
            max_antecedent,
            generalize,
        } => {
            if ctx.table.schema().transaction_index().is_none() {
                return Err(RunError::BadConfig(
                    "ρ-uncertainty needs a transaction attribute".into(),
                ));
            }
            let pool = ctx.table.item_pool().expect("tx attr implies pool");
            let mut items = Vec::with_capacity(sensitive.len());
            for label in sensitive {
                match pool.get(label) {
                    Some(id) => items.push(secreta_data::ItemId(id)),
                    None => {
                        return Err(RunError::BadConfig(format!(
                            "sensitive item {label:?} not in the dataset"
                        )))
                    }
                }
            }
            let params = secreta_transaction::RhoParams {
                rho: *rho,
                sensitive: {
                    items.sort_unstable();
                    items.dedup();
                    items
                },
                max_antecedent: *max_antecedent,
            };
            let input = TransactionInput {
                table: &ctx.table,
                k: 1,
                m: 1,
                hierarchy: if *generalize {
                    ctx.item_hierarchy.as_ref()
                } else {
                    None
                },
                privacy: None,
                utility: None,
            };
            let (out, verified) = if *generalize {
                let out = secreta_transaction::rho_td::anonymize(&input, &params)
                    .map_err(RunError::Tx)?;
                let ok =
                    secreta_transaction::is_rho_uncertain_published(&ctx.table, &out.anon, &params);
                (out, ok)
            } else {
                let out =
                    secreta_transaction::rho::anonymize(&input, &params).map_err(RunError::Tx)?;
                let ok = secreta_transaction::is_rho_uncertain(&ctx.table, &out.anon, &params);
                (out, ok)
            };
            (out.anon, out.phases, Some(verified))
        }
    };

    // one evaluation pass: the class histogram is built once, and the
    // guarantee audit inside the risk block is the run's verdict
    let indicators = {
        let _span = recorder.span("metrics");
        let classes = anon.equivalence_classes();
        let risk = evaluate_risk(ctx, spec, &anon, &classes, rho_verdict);
        let mut ind = compute_indicators(ctx, &anon, &classes, &phases, risk.audit.passed);
        ind.risk = Some(risk);
        ind
    };
    let profile = recorder.finish(&spec.label());
    Ok(RunResult {
        anon,
        phases,
        indicators,
        profile,
    })
}

/// [`run`] behind panic isolation: an unwinding algorithm becomes a
/// typed [`RunError`] instead of tearing down the calling thread.
///
/// Two kinds of unwind are told apart by payload type: the cooperative
/// cancellation raised by the run's limits (a typed
/// [`secreta_obsv::Cancelled`]) maps to [`RunError::TimedOut`] /
/// [`RunError::Cancelled`]; anything else is an organic bug (or an
/// injected chaos panic) and maps to [`RunError::Panicked`] with its
/// message preserved. This is what lets a sweep keep draining when one
/// algorithm at one parameter point blows up.
pub fn run_isolated(
    ctx: &SessionContext,
    spec: &MethodSpec,
    seed: u64,
) -> Result<RunResult, RunError> {
    // AssertUnwindSafe: on Err the closure's captures are dropped with
    // the run's partial state; nothing shared survives to observe a
    // broken invariant (the per-run recorder dies with the run).
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(ctx, spec, seed))) {
        Ok(result) => result,
        Err(payload) => Err(classify_unwind(payload)),
    }
}

/// Map a caught panic payload to the run error it represents.
fn classify_unwind(payload: Box<dyn std::any::Any + Send>) -> RunError {
    match payload.downcast::<secreta_obsv::Cancelled>() {
        Ok(cancelled) => match *cancelled {
            secreta_obsv::Cancelled::DeadlineExceeded { limit_ms } => {
                RunError::TimedOut { limit_ms }
            }
            secreta_obsv::Cancelled::Requested => RunError::Cancelled,
            secreta_obsv::Cancelled::BudgetExceeded {
                limit_bytes,
                observed_bytes,
            } => RunError::BudgetExceeded {
                limit_bytes,
                observed_bytes,
            },
        },
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                .unwrap_or_else(|| "non-string panic payload".to_owned());
            RunError::Panicked(msg)
        }
    }
}

/// The `m` at which a transaction algorithm's guarantee is checked:
/// VPA protects per part (global check only sound at m=1); COAT/PCTA
/// protect their policy (single items by default).
fn effective_m(algo: crate::config::TxAlgo, m: usize) -> usize {
    match algo {
        crate::config::TxAlgo::Vpa { .. }
        | crate::config::TxAlgo::Coat
        | crate::config::TxAlgo::Pcta => 1,
        _ => m,
    }
}

/// Compute the full indicator set for an anonymized table whose
/// equivalence classes are `classes`. `verified` is the verdict on its
/// guarantee.
pub fn compute_indicators(
    ctx: &SessionContext,
    anon: &AnonTable,
    classes: &EquivalenceClasses,
    phases: &PhaseTimes,
    verified: bool,
) -> Indicators {
    let hierarchy_of = |attr: usize| ctx.hierarchy_of(attr).cloned();
    let item_h = ctx.item_hierarchy.as_ref();
    Indicators {
        gcp: gcp(&ctx.table, anon, hierarchy_of),
        tx_gcp: transaction_gcp(&ctx.table, anon, item_h),
        ul: utility_loss(&ctx.table, anon, item_h),
        are: average_relative_error(
            &ctx.table,
            anon,
            &ctx.workload,
            |attr| ctx.hierarchy_of(attr).cloned(),
            item_h,
        ),
        item_freq_error: freq::mean_item_frequency_error(&ctx.table, anon, item_h),
        discernibility: classes.discernibility(),
        avg_class_size: classes.average_size(),
        runtime_ms: phases.total().as_secs_f64() * 1e3,
        verified,
        risk: None,
    }
}

/// Attack the anonymized output with the adversary models of
/// `secreta-risk`: prosecutor/journalist re-identification over the
/// relational classes, the m-item background-knowledge adversary over
/// the transaction part, and a violation-counting audit of the
/// guarantee `spec` claims. `verified` feeds the ρ-uncertainty audit,
/// which reports the verifier's verdict rather than re-mining rules;
/// the other guarantees ignore it.
pub fn compute_risk(
    ctx: &SessionContext,
    spec: &MethodSpec,
    anon: &AnonTable,
    verified: bool,
) -> secreta_metrics::RiskIndicators {
    evaluate_risk(ctx, spec, anon, &anon.equivalence_classes(), Some(verified))
}

/// [`compute_risk`] on the run's equivalence `classes`; `rho_verdict`
/// is the ρ-uncertainty verifier's verdict (`None` for the guarantees
/// the audit counts itself).
fn evaluate_risk(
    ctx: &SessionContext,
    spec: &MethodSpec,
    anon: &AnonTable,
    classes: &EquivalenceClasses,
    rho_verdict: Option<bool>,
) -> secreta_metrics::RiskIndicators {
    use crate::config::TxAlgo;
    use secreta_risk::Guarantee;
    // COAT/PCTA without an explicit policy protect every item
    let all_items;
    let guarantee = match spec {
        MethodSpec::Relational { k, .. } => Guarantee::KAnonymity { k: *k },
        MethodSpec::Transaction {
            algo: TxAlgo::Coat | TxAlgo::Pcta,
            k,
            ..
        } => Guarantee::Policy {
            k: *k,
            policy: match &ctx.privacy {
                Some(p) => p,
                None => {
                    all_items = PrivacyPolicy::all_items(&ctx.table);
                    &all_items
                }
            },
        },
        MethodSpec::Transaction { algo, k, m } => Guarantee::KmAnonymity {
            k: *k,
            m: effective_m(*algo, *m),
        },
        MethodSpec::Rt { tx, k, m, .. } => Guarantee::KKmAnonymity {
            k: *k,
            m: effective_m(*tx, *m),
        },
        MethodSpec::Rho { rho, .. } => Guarantee::RhoUncertainty {
            rho: *rho,
            satisfied: rho_verdict == Some(true),
        },
    };
    secreta_risk::evaluate(
        &ctx.table,
        anon,
        classes,
        ctx.item_hierarchy.as_ref(),
        &guarantee,
        &secreta_risk::RiskParams::default(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Bounding, RelAlgo, TxAlgo};
    use secreta_gen::{DatasetSpec, WorkloadSpec};

    fn rt_ctx() -> SessionContext {
        let t = DatasetSpec::adult_like(120, 3).generate();
        let w = WorkloadSpec {
            n_queries: 30,
            ..Default::default()
        };
        let ctx = SessionContext::auto(t, 4).unwrap();
        let w = w.generate(&ctx.table);
        ctx.with_workload(w)
    }

    #[test]
    fn relational_run_produces_verified_output() {
        let ctx = rt_ctx();
        let spec = MethodSpec::Relational {
            algo: RelAlgo::Cluster,
            k: 5,
        };
        let out = run(&ctx, &spec, 1).unwrap();
        assert!(out.indicators.verified);
        assert!(out.indicators.gcp >= 0.0 && out.indicators.gcp <= 1.0);
        assert!(out.indicators.avg_class_size >= 5.0);
        assert!(out.indicators.are >= 0.0);
    }

    #[test]
    fn transaction_run_produces_verified_output() {
        let ctx = rt_ctx();
        for algo in [TxAlgo::Apriori, TxAlgo::Coat, TxAlgo::Pcta] {
            let spec = MethodSpec::Transaction { algo, k: 3, m: 2 };
            let out = run(&ctx, &spec, 1).unwrap();
            assert!(out.indicators.verified, "{algo:?}");
            assert!(out.indicators.tx_gcp >= 0.0);
        }
    }

    #[test]
    fn rt_run_produces_verified_output() {
        let ctx = rt_ctx();
        let spec = MethodSpec::Rt {
            rel: RelAlgo::Cluster,
            tx: TxAlgo::Apriori,
            bounding: Bounding::RMerge,
            k: 4,
            m: 2,
            delta: 2,
        };
        let out = run(&ctx, &spec, 1).unwrap();
        assert!(out.indicators.verified);
        assert!(out.indicators.gcp > 0.0, "some relational loss expected");
        assert!(out.indicators.runtime_ms > 0.0);
        assert!(!out.phases.phases.is_empty());
    }

    #[test]
    fn runs_carry_the_risk_block() {
        let ctx = rt_ctx();
        // relational: prosecutor risk over classes of size ≥ k, audit
        // against k-anonymity
        let rel = run(
            &ctx,
            &MethodSpec::Relational {
                algo: RelAlgo::Cluster,
                k: 5,
            },
            1,
        )
        .unwrap();
        let risk = rel.indicators.risk.as_ref().unwrap();
        let r = risk.rel.as_ref().unwrap();
        assert!(r.max_prosecutor <= 1.0 / 5.0, "verified k=5 caps 1/|EC|");
        assert!(risk.audit.passed);
        assert_eq!(risk.audit.guarantee, "k-anonymity(k=5)");

        // transaction: m-item uniqueness for m = 1..=3, k^m audit
        let tx = run(
            &ctx,
            &MethodSpec::Transaction {
                algo: TxAlgo::Apriori,
                k: 3,
                m: 2,
            },
            1,
        )
        .unwrap();
        let risk = tx.indicators.risk.as_ref().unwrap();
        let per_m = &risk.tx.as_ref().unwrap().per_m;
        assert_eq!(per_m.iter().map(|p| p.m).collect::<Vec<_>>(), vec![1, 2, 3]);
        // a verified k^2 output leaves no candidate set under 3 at m ≤ 2
        assert!(per_m[1].min_candidates == 0 || per_m[1].min_candidates >= 3);
        assert_eq!(per_m[1].unique_fraction, 0.0);
        assert!(risk.audit.passed);
        assert_eq!(risk.audit.guarantee, "k^m-anonymity(k=3,m=2)");

        // COAT audits its policy, not k^m
        let coat = run(
            &ctx,
            &MethodSpec::Transaction {
                algo: TxAlgo::Coat,
                k: 3,
                m: 2,
            },
            1,
        )
        .unwrap();
        let risk = coat.indicators.risk.as_ref().unwrap();
        assert!(risk.audit.passed);
        assert_eq!(risk.audit.guarantee, "privacy-policy(k=3)");

        // RT: both sides present
        let rt = run(
            &ctx,
            &MethodSpec::Rt {
                rel: RelAlgo::Cluster,
                tx: TxAlgo::Apriori,
                bounding: Bounding::RMerge,
                k: 4,
                m: 2,
                delta: 2,
            },
            1,
        )
        .unwrap();
        let risk = rt.indicators.risk.as_ref().unwrap();
        assert!(risk.rel.is_some() && risk.tx.is_some());
        assert!(risk.audit.passed);
        assert_eq!(risk.audit.guarantee, "(k,k^m)-anonymity(k=4,m=2)");
    }

    #[test]
    fn bad_configs_are_rejected() {
        let census = SessionContext::auto(DatasetSpec::census(30, 1).generate(), 3).unwrap();
        let tx_spec = MethodSpec::Transaction {
            algo: TxAlgo::Coat,
            k: 2,
            m: 1,
        };
        assert!(matches!(
            run(&census, &tx_spec, 0),
            Err(RunError::BadConfig(_))
        ));
        let rt_spec = MethodSpec::Rt {
            rel: RelAlgo::Cluster,
            tx: TxAlgo::Coat,
            bounding: Bounding::RMerge,
            k: 2,
            m: 1,
            delta: 1,
        };
        assert!(matches!(
            run(&census, &rt_spec, 0),
            Err(RunError::BadConfig(_))
        ));

        let basket = SessionContext::auto(DatasetSpec::basket(30, 10, 1).generate(), 3).unwrap();
        let rel_spec = MethodSpec::Relational {
            algo: RelAlgo::Incognito,
            k: 2,
        };
        assert!(matches!(
            run(&basket, &rel_spec, 0),
            Err(RunError::BadConfig(_))
        ));
    }

    #[test]
    fn profile_follows_obsv_config() {
        let spec = MethodSpec::Rt {
            rel: RelAlgo::Cluster,
            tx: TxAlgo::Apriori,
            bounding: Bounding::RMerge,
            k: 4,
            m: 2,
            delta: 2,
        };
        // disabled (the default): no profile
        let ctx = rt_ctx();
        assert!(run(&ctx, &spec, 1).unwrap().profile.is_none());

        // enabled: a span tree mirroring the phases, plus counters
        let ctx = ctx.with_obsv(secreta_obsv::ObsvConfig::enabled());
        let out = run(&ctx, &spec, 1).unwrap();
        let p = out.profile.expect("enabled config records a profile");
        let tops: Vec<&str> = p.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            tops,
            [
                "relational partitioning",
                "cluster merging",
                "transaction anonymization",
                "publish",
                "metrics"
            ]
        );
        // the relational sub-run's phases nest under partitioning
        let rel = &p.spans[0];
        assert!(
            rel.children.iter().any(|c| c.name == "clustering"),
            "sub-algorithm phases adopt into the outer phase: {rel:?}"
        );
        assert!(p.counter("rt/clusters").unwrap_or(0) > 0);
        // identical run, same seed: indicators must not change when
        // observability is on (recording is passive)
        let base = run(&rt_ctx(), &spec, 1).unwrap();
        assert_eq!(base.indicators.gcp, out.indicators.gcp);
    }

    #[test]
    fn trace_sink_round_trips_profile_totals() {
        let (sink, buf) = secreta_obsv::TraceSink::buffer();
        let ctx = rt_ctx().with_obsv(secreta_obsv::ObsvConfig::with_trace(sink));
        let spec = MethodSpec::Relational {
            algo: RelAlgo::Cluster,
            k: 5,
        };
        let out = run(&ctx, &spec, 1).unwrap();
        let p = out.profile.expect("trace config records a profile");
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let mut span_lines = 0usize;
        let mut summary_total = None;
        for line in text.lines() {
            let v = serde_json::parse_value(line).expect("every trace line is JSON");
            match v.get("ev").and_then(|e| e.as_str()) {
                Some("span") => span_lines += 1,
                Some("run") => summary_total = v.get("total_us").and_then(|t| t.as_u64()),
                _ => {}
            }
        }
        assert_eq!(span_lines, p.flat().len(), "one span record per span");
        assert_eq!(
            summary_total,
            Some(p.total().as_micros() as u64),
            "NDJSON summary total matches the profile's"
        );
    }

    #[test]
    fn run_isolated_maps_deadline_to_timed_out() {
        // A zero budget trips the cooperative check at the first phase
        // boundary; run_isolated turns the typed unwind into TimedOut.
        let ctx = rt_ctx().with_job_deadline(std::time::Duration::ZERO);
        let spec = MethodSpec::Relational {
            algo: RelAlgo::Cluster,
            k: 5,
        };
        assert_eq!(
            run_isolated(&ctx, &spec, 1).unwrap_err(),
            RunError::TimedOut { limit_ms: 0 }
        );
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn run_isolated_maps_memory_budget_to_budget_exceeded() {
        // A 1 MB budget is always below the live peak RSS, so the
        // check trips at the first phase boundary and run_isolated
        // maps the typed unwind to BudgetExceeded.
        let ctx = rt_ctx().with_memory_budget(1);
        let spec = MethodSpec::Relational {
            algo: RelAlgo::Cluster,
            k: 5,
        };
        match run_isolated(&ctx, &spec, 1).unwrap_err() {
            RunError::BudgetExceeded {
                limit_bytes,
                observed_bytes,
            } => {
                assert_eq!(limit_bytes, 1024 * 1024);
                assert!(observed_bytes > limit_bytes);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn runs_publish_chunked_ingest_counters() {
        use secreta_data::chunk::{read_chunked, MemoryBudget};
        use secreta_data::CsvOptions;
        let mut buf = Vec::new();
        secreta_data::csv::write_table(
            &rt_ctx().table,
            &mut buf,
            &CsvOptions::with_transaction("Items"),
        )
        .unwrap();
        let chunked = read_chunked(
            buf.as_slice(),
            &CsvOptions::with_transaction("Items"),
            16,
            MemoryBudget::megabytes(64),
        )
        .unwrap();
        let stats = chunked.stats();
        let ctx = SessionContext::auto(chunked.into_table().unwrap(), 4)
            .unwrap()
            .with_obsv(secreta_obsv::ObsvConfig::enabled())
            .with_ingest_stats(stats);
        let spec = MethodSpec::Relational {
            algo: RelAlgo::Cluster,
            k: 5,
        };
        let out = run(&ctx, &spec, 1).unwrap();
        let p = out.profile.expect("profile recorded");
        assert!(p.counter("chunk/chunks").unwrap_or(0) > 0);
        assert_eq!(
            p.counter("chunk/rows"),
            Some(ctx.table.n_rows() as u64),
            "chunk/rows counts every ingested row"
        );
        assert!(p.counter("budget/peak_accounted_bytes").unwrap_or(0) > 0);
        assert_eq!(p.counter("budget/limit_bytes"), Some(64 * 1024 * 1024));
    }

    #[test]
    fn run_isolated_maps_tripped_token_to_cancelled() {
        let token = secreta_obsv::CancelToken::new();
        token.cancel();
        let ctx = rt_ctx().with_cancel(token);
        let spec = MethodSpec::Relational {
            algo: RelAlgo::Cluster,
            k: 5,
        };
        assert_eq!(
            run_isolated(&ctx, &spec, 1).unwrap_err(),
            RunError::Cancelled
        );
    }

    #[test]
    fn limits_do_not_change_results() {
        // A generous deadline must be invisible: identical output and
        // indicators with and without limits attached.
        let spec = MethodSpec::Relational {
            algo: RelAlgo::Cluster,
            k: 5,
        };
        let plain = run(&rt_ctx(), &spec, 1).unwrap();
        let limited = run_isolated(
            &rt_ctx().with_job_deadline(std::time::Duration::from_secs(3600)),
            &spec,
            1,
        )
        .unwrap();
        assert_eq!(plain.anon, limited.anon);
        assert_eq!(plain.indicators.gcp, limited.indicators.gcp);
    }

    #[test]
    fn classify_unwind_tells_cancellation_from_panics() {
        let boxed = |p: Box<dyn std::any::Any + Send>| p;
        assert_eq!(
            classify_unwind(boxed(Box::new(secreta_obsv::Cancelled::DeadlineExceeded {
                limit_ms: 250
            }))),
            RunError::TimedOut { limit_ms: 250 }
        );
        assert_eq!(
            classify_unwind(boxed(Box::new(secreta_obsv::Cancelled::Requested))),
            RunError::Cancelled
        );
        assert_eq!(
            classify_unwind(boxed(Box::new(String::from("boom")))),
            RunError::Panicked("boom".into())
        );
        assert_eq!(
            classify_unwind(boxed(Box::new("static boom"))),
            RunError::Panicked("static boom".into())
        );
        assert_eq!(
            classify_unwind(boxed(Box::new(42u32))),
            RunError::Panicked("non-string panic payload".into())
        );
    }

    #[test]
    fn infeasible_k_maps_to_run_error() {
        let ctx = rt_ctx();
        let spec = MethodSpec::Relational {
            algo: RelAlgo::Incognito,
            k: 10_000,
        };
        assert!(matches!(run(&ctx, &spec, 0), Err(RunError::Rel(_))));
    }

    #[test]
    fn are_increases_with_k() {
        let ctx = rt_ctx();
        let mut prev = -1.0;
        for k in [2, 10, 40] {
            let spec = MethodSpec::Relational {
                algo: RelAlgo::Cluster,
                k,
            };
            let out = run(&ctx, &spec, 1).unwrap();
            // GCP is monotone; ARE is noisier but must not collapse
            assert!(out.indicators.gcp >= prev - 1e-9, "k={k}");
            prev = out.indicators.gcp;
        }
    }
}

#[cfg(test)]
mod rho_tests {
    use super::*;
    use crate::config::MethodSpec;
    use secreta_gen::DatasetSpec;

    #[test]
    fn rho_uncertainty_runs_and_verifies() {
        let mut spec = DatasetSpec::adult_like(200, 3);
        spec.n_items = 20;
        let ctx = SessionContext::auto(spec.generate(), 3).unwrap();
        let label = ctx.table.item_pool().unwrap().resolve(0).to_owned();
        let method = MethodSpec::Rho {
            rho: 0.3,
            sensitive: vec![label],
            max_antecedent: 2,
            generalize: false,
        };
        let out = run(&ctx, &method, 0).unwrap();
        assert!(out.indicators.verified);
        assert!(out
            .anon
            .is_truthful(&ctx.table, |_| None, ctx.item_hierarchy.as_ref()));
    }

    #[test]
    fn rho_unknown_sensitive_item_rejected() {
        let ctx = SessionContext::auto(DatasetSpec::adult_like(50, 1).generate(), 3).unwrap();
        let method = MethodSpec::Rho {
            rho: 0.3,
            sensitive: vec!["no_such_item".into()],
            max_antecedent: 1,
            generalize: false,
        };
        assert!(matches!(run(&ctx, &method, 0), Err(RunError::BadConfig(_))));
    }

    #[test]
    fn tdcontrol_runs_and_verifies() {
        let mut spec = secreta_gen::DatasetSpec::adult_like(200, 4);
        spec.n_items = 20;
        let ctx = SessionContext::auto(spec.generate(), 2).unwrap();
        let label = ctx.table.item_pool().unwrap().resolve(0).to_owned();
        let method = MethodSpec::Rho {
            rho: 0.4,
            sensitive: vec![label],
            max_antecedent: 2,
            generalize: true,
        };
        let out = run(&ctx, &method, 0).unwrap();
        assert!(out.indicators.verified);
        assert!(out
            .anon
            .is_truthful(&ctx.table, |_| None, ctx.item_hierarchy.as_ref()));
    }

    #[test]
    fn rho_on_relational_only_rejected() {
        let ctx = SessionContext::auto(DatasetSpec::census(50, 1).generate(), 3).unwrap();
        let method = MethodSpec::Rho {
            rho: 0.3,
            sensitive: vec!["x".into()],
            max_antecedent: 1,
            generalize: false,
        };
        assert!(matches!(run(&ctx, &method, 0), Err(RunError::BadConfig(_))));
    }
}
