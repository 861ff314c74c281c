//! The traced in-process pass: the jobs of one `compare` invocation,
//! run serially through each layer's public function with a span
//! around every call.
//!
//! Spans are recorded here, around the calls into the layers; no span
//! is placed inside the program. They stay in memory until the pass
//! ends. Counters come from the program's own `secreta-obsv` recorder,
//! installed around each job.

use crate::workload::{Inputs, Job, Workload, FIXED_SEED};
use secreta_core::anonymizer::compute_risk;
use secreta_core::config::{MethodSpec, TxAlgo};
use secreta_core::data::{chunk, DataError, MemoryBudget};
use secreta_core::export::export_xy_chart;
use secreta_core::gen::WorkloadSpec;
use secreta_core::metrics::{average_relative_error, freq, loss, AnonTable, PhaseTimes};
use secreta_core::obsv::{install, Recorder};
use secreta_core::policy::PrivacyPolicy;
use secreta_core::relational::{is_k_anonymous, RelationalAlgorithm, RelationalInput};
use secreta_core::rt::{is_k_km_anonymous, RtInput};
use secreta_core::store::{canonicalize, RunManifest, RunStore, STORE_SCHEMA_VERSION};
use secreta_core::transaction::{
    is_km_anonymous, satisfies_privacy, TransactionAlgorithm, TransactionInput,
};
use secreta_core::{
    context_digest, ComparisonResult, Indicators, SessionContext, SweepPoint, VaryingParam,
};
use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Hierarchy fan-out the CLI uses when `--fanout` is not given.
const FANOUT: usize = 4;

/// One closed span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    /// Index of the job the span belongs to, shared by its children.
    job: Option<usize>,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

impl Span {
    fn duration(&self) -> Duration {
        self.end - self.start
    }
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }
}

impl Tracer {
    /// Run `f` inside a span called `name`; spans `f` opens become its
    /// children. `job` defaults to the parent's.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        job: Option<usize>,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        let idx = self.spans.len();
        let parent = self.stack.last().copied();
        let start = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            job: job.or_else(|| parent.and_then(|p| self.spans[p].job)),
            parent,
            start,
            end: start,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end = self.epoch.elapsed();
        out
    }

    /// A leaf span around one call into a layer.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span(name, None, |_| f())
    }

    /// Total duration of the spans called `name`.
    pub fn total(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .sum()
    }

    /// Self time per span name, in first-seen order: each span's
    /// duration minus the part its children cover.
    pub fn self_times(&self) -> Vec<(&'static str, Duration)> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.duration();
            }
        }
        let mut out: Vec<(&'static str, Duration)> = Vec::new();
        for (s, covered) in self.spans.iter().zip(child_time) {
            let own = s.duration().saturating_sub(covered);
            match out.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, d)) => *d += own,
                None => out.push((s.name, own)),
            }
        }
        out
    }
}

/// Per-layer busy-time metrics and the layer spans each one sums.
pub const LAYER_TIMES: &[(&str, &[&str])] = &[
    ("data.ingest_ms", &["data.ingest"]),
    ("context.derive_ms", &["context.derive"]),
    ("context.digest_ms", &["context.digest"]),
    (
        "algorithm.ms",
        &["relational.run", "rt.run", "transaction.run"],
    ),
    ("verify.ms", &["verify"]),
    ("metrics.are_ms", &["metrics.are"]),
    ("metrics.gcp_ms", &["metrics.gcp"]),
    ("metrics.tx_ms", &["metrics.tx"]),
    ("metrics.class_ms", &["metrics.class"]),
    ("risk.ms", &["risk"]),
    ("store.get_ms", &["store.get"]),
    ("store.put_ms", &["store.put"]),
    ("export.chart_ms", &["export.chart"]),
];

/// Per-layer counts taken from the program's `secreta-obsv` counters.
pub const LAYER_COUNTERS: &[(&str, &str)] = &[
    ("relational.cluster.ncp_evals", "cluster/ncp_evals"),
    (
        "relational.incognito.rolled_classes",
        "incognito/rolled_classes",
    ),
    ("rt.merges", "rt/merges"),
    (
        "transaction.support.rows_reenumerated",
        "support/rows_reenumerated",
    ),
    ("risk.tx_subsets", "risk/tx_subsets"),
];

/// Every per-layer metric a pass reports, with its unit.
pub fn layer_metric_names() -> Vec<(&'static str, &'static str)> {
    let mut names: Vec<(&str, &str)> = LAYER_TIMES.iter().map(|(n, _)| (*n, "ms")).collect();
    names.extend(LAYER_COUNTERS.iter().map(|(n, _)| (*n, "count")));
    names.extend([
        ("data.rows", "count"),
        ("store.put_bytes", "bytes"),
        ("store.hit_frac", "ratio"),
        ("trace.total_ms", "ms"),
        ("trace.coverage", "ratio"),
    ]);
    names
}

/// What one traced pass produced.
#[derive(Debug)]
pub struct Pass {
    pub tracer: Tracer,
    /// The expanded jobs, and for each its indicators and whether the
    /// store served it.
    pub jobs: Vec<Job>,
    pub indicators: Vec<Indicators>,
    pub hit: Vec<bool>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Pass {
    /// Jobs the pass executed and put into the store.
    pub fn executed(&self) -> impl Iterator<Item = &Job> {
        self.jobs
            .iter()
            .zip(&self.hit)
            .filter(|(_, &h)| !h)
            .map(|(j, _)| j)
    }
}

/// The CLI's session set-up for `w`, one span per layer: chunked
/// ingest, hierarchy and query derivation, and the context digest
/// every run key starts from.
pub fn load_session(
    w: &Workload,
    data: &Path,
    t: &mut Tracer,
) -> Result<(SessionContext, String), String> {
    let opts = w.csv_options();
    let (table, stats) = t
        .time("data.ingest", || -> Result<_, DataError> {
            let mut chunked = chunk::read_chunked_path(
                data,
                &opts,
                chunk::chunk_rows(),
                MemoryBudget::unlimited(),
            )?;
            chunked.reclassify_numeric();
            let stats = chunked.stats();
            Ok((chunked.into_table()?, stats))
        })
        .map_err(|e| e.to_string())?;
    let ctx = t.time("context.derive", || -> Result<_, String> {
        let mut ctx = SessionContext::auto(table, FANOUT).map_err(|e| e.to_string())?;
        if w.queries > 0 {
            let spec = WorkloadSpec {
                n_queries: w.queries,
                seed: FIXED_SEED,
                ..Default::default()
            };
            let queries = spec.generate(&ctx.table);
            ctx = ctx.with_workload(queries);
        }
        Ok(ctx.with_ingest_stats(stats))
    })?;
    let digest = t.time("context.digest", || context_digest(&ctx));
    Ok((ctx, digest))
}

/// Run `w`'s comparison in-process against `store`, serving stored
/// runs and putting executed ones, as `secreta compare --store-dir`
/// does; charts go to `out`.
pub fn traced_pass(
    w: &Workload,
    inputs: &Inputs,
    store: &RunStore,
    out: &Path,
) -> Result<Pass, String> {
    let mut t = Tracer::default();
    let bytes_before = dir_bytes(store.root());
    let mut jobs = Vec::new();
    let mut indicators = Vec::new();
    let mut hit = Vec::new();
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut rows = 0;
    t.span("workload", None, |t| -> Result<(), String> {
        let (ctx, digest) = load_session(w, &inputs.data, t)?;
        rows = ctx.table.n_rows();
        jobs = Workload::jobs(&w.configs, &digest);
        for (i, job) in jobs.iter().enumerate() {
            let (ind, served) = t.span("job", Some(i), |t| {
                run_job(&ctx, &digest, job, store, t, &mut counters)
            })?;
            indicators.push(ind);
            hit.push(served);
        }
        t.time("export.chart", || export_charts(w, &jobs, &indicators, out))
    })?;

    let root = t.total("workload");
    let mut metrics: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut covered = Duration::ZERO;
    for (metric, spans) in LAYER_TIMES {
        let d: Duration = spans.iter().map(|s| t.total(s)).sum();
        covered += d;
        metrics.insert(metric, ms(d));
    }
    for (metric, counter) in LAYER_COUNTERS {
        metrics.insert(metric, counters.get(*counter).copied().unwrap_or(0) as f64);
    }
    let hits = hit.iter().filter(|&&h| h).count();
    metrics.insert("data.rows", rows as f64);
    metrics.insert(
        "store.put_bytes",
        dir_bytes(store.root()).saturating_sub(bytes_before) as f64,
    );
    metrics.insert("store.hit_frac", hits as f64 / jobs.len().max(1) as f64);
    metrics.insert("trace.total_ms", ms(root));
    metrics.insert("trace.coverage", covered.as_secs_f64() / root.as_secs_f64());
    Ok(Pass {
        tracer: t,
        jobs,
        indicators,
        hit,
        metrics,
    })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One job as the orchestrator runs it: store lookup, then on a miss
/// the algorithm, its verifier, the indicators, the risk attack and
/// the store put. Returns the indicators and whether the store served
/// them.
fn run_job(
    ctx: &SessionContext,
    digest: &str,
    job: &Job,
    store: &RunStore,
    t: &mut Tracer,
    counters: &mut BTreeMap<String, u64>,
) -> Result<(Indicators, bool), String> {
    let stored = t
        .time("store.get", || store.get(&job.key))
        .map_err(|e| e.to_string())?;
    if let Some(run) = stored.filter(|r| r.manifest.schema_version == STORE_SCHEMA_VERSION) {
        return Ok((run.manifest.indicators, true));
    }

    let recorder = Recorder::enabled();
    let guard = install(&recorder);
    let (anon, phases, verified) = anonymize(ctx, &job.spec, job.seed, t)?;
    let hierarchy_of = |attr: usize| ctx.hierarchy_of(attr).cloned();
    let item_h = ctx.item_hierarchy.as_ref();
    let table = &ctx.table;
    let gcp = t.time("metrics.gcp", || loss::gcp(table, &anon, hierarchy_of));
    let (tx_gcp, ul, item_freq_error) = t.time("metrics.tx", || {
        (
            loss::transaction_gcp(table, &anon, item_h),
            loss::utility_loss(table, &anon, item_h),
            freq::mean_item_frequency_error(table, &anon, item_h),
        )
    });
    let are = t.time("metrics.are", || {
        average_relative_error(table, &anon, &ctx.workload, hierarchy_of, item_h)
    });
    let (discernibility, avg_class_size) = t.time("metrics.class", || {
        (loss::discernibility(&anon), loss::average_class_size(&anon))
    });
    let risk = t.time("risk", || compute_risk(ctx, &job.spec, &anon, verified));
    drop(guard);
    if let Some(profile) = recorder.finish(&job.label) {
        for (name, n) in profile.counters {
            *counters.entry(name).or_insert(0) += n;
        }
    }

    let indicators = Indicators {
        gcp,
        tx_gcp,
        ul,
        are,
        item_freq_error,
        discernibility,
        avg_class_size,
        runtime_ms: ms(phases.total()),
        verified,
        risk: Some(risk),
    };
    let manifest = RunManifest {
        key: job.key.0.clone(),
        schema_version: STORE_SCHEMA_VERSION,
        context: digest.to_owned(),
        label: job.label.clone(),
        config: canonicalize(&job.spec.ser()),
        seed: job.seed,
        sweep_param: Some(job.param.label().to_owned()),
        sweep_value: Some(job.value as f64),
        created_unix_ms: SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_millis() as u64),
        indicators: indicators.clone(),
        phases,
        profile: None,
        anon_sha256: None,
    };
    t.time("store.put", || store.put(&manifest, &anon))
        .map_err(|e| e.to_string())?;
    Ok((indicators, false))
}

/// The `m` a transaction guarantee is verified at, as the framework
/// checks it: VPA protects per part and COAT/PCTA protect single items
/// by default.
fn effective_m(algo: TxAlgo, m: usize) -> usize {
    match algo {
        TxAlgo::Vpa { .. } | TxAlgo::Coat | TxAlgo::Pcta => 1,
        _ => m,
    }
}

/// Run the spec's algorithm and verify its guarantee, one span each.
fn anonymize(
    ctx: &SessionContext,
    spec: &MethodSpec,
    seed: u64,
    t: &mut Tracer,
) -> Result<(AnonTable, PhaseTimes, bool), String> {
    let item_h = ctx.item_hierarchy.as_ref();
    match *spec {
        MethodSpec::Relational { algo, k } => {
            let input = RelationalInput {
                table: &ctx.table,
                qi_attrs: ctx.qi_attrs.clone(),
                hierarchies: ctx.hierarchies.clone(),
                k,
            };
            let out = t
                .time("relational.run", || {
                    RelationalAlgorithm::from(algo).run(&input, seed)
                })
                .map_err(|e| e.to_string())?;
            let verified = t.time("verify", || is_k_anonymous(&out.anon, k));
            Ok((out.anon, out.phases, verified))
        }
        MethodSpec::Transaction { algo, k, m } => {
            let input = TransactionInput {
                table: &ctx.table,
                k,
                m,
                hierarchy: item_h,
                privacy: ctx.privacy.as_ref(),
                utility: ctx.utility.as_ref(),
            };
            let out = t
                .time("transaction.run", || {
                    TransactionAlgorithm::from(algo).run(&input)
                })
                .map_err(|e| e.to_string())?;
            let verified = t.time("verify", || match algo {
                TxAlgo::Coat | TxAlgo::Pcta => {
                    let all = PrivacyPolicy::all_items(&ctx.table);
                    let privacy = ctx.privacy.as_ref().unwrap_or(&all);
                    satisfies_privacy(&out.anon, privacy, k, item_h)
                }
                other => is_km_anonymous(&out.anon, k, effective_m(other, m), item_h),
            });
            Ok((out.anon, out.phases, verified))
        }
        MethodSpec::Rt {
            rel,
            tx,
            bounding,
            k,
            m,
            delta,
        } => {
            let input = RtInput {
                table: &ctx.table,
                qi_attrs: ctx.qi_attrs.clone(),
                hierarchies: ctx.hierarchies.clone(),
                item_hierarchy: item_h,
                k,
                m,
                delta,
                rel_algo: rel.into(),
                tx_algo: tx.into(),
                bounding: bounding.into(),
                privacy: ctx.privacy.as_ref(),
                utility: ctx.utility.as_ref(),
                seed,
            };
            let out = t
                .time("rt.run", || secreta_core::rt::anonymize(&input))
                .map_err(|e| e.to_string())?;
            let verified = t.time("verify", || {
                is_k_km_anonymous(&out.anon, k, effective_m(tx, m))
            });
            Ok((out.anon, out.phases, verified))
        }
        MethodSpec::Rho { .. } => Err("no workload runs a ρ-uncertainty method".into()),
    }
}

/// The five comparison charts `compare --out-dir` writes.
fn export_charts(
    w: &Workload,
    jobs: &[Job],
    indicators: &[Indicators],
    out: &Path,
) -> Result<(), String> {
    let mut points = Vec::new();
    let mut it = jobs.iter().zip(indicators);
    for cfg in &w.configs {
        let pts: Vec<_> = it
            .by_ref()
            .take(cfg.sweep.values().len())
            .map(|(job, ind)| {
                let point = SweepPoint {
                    value: job.value,
                    indicators: ind.clone(),
                };
                (job.value, Ok(point))
            })
            .collect();
        points.push(pts);
    }
    let result = ComparisonResult {
        labels: w.configs.iter().map(|c| c.label.clone()).collect(),
        // all configurations vary the first one's parameter
        param: jobs.first().map_or(VaryingParam::K, |j| j.param),
        points,
    };
    std::fs::create_dir_all(out).map_err(|e| e.to_string())?;
    for (title, ylabel, key) in [
        ("ARE comparison", "ARE", "are"),
        ("GCP comparison", "GCP", "gcp"),
        ("Runtime comparison", "runtime (ms)", "runtime"),
        (
            "Prosecutor-risk comparison",
            "max prosecutor risk",
            "prosecutor",
        ),
        ("Uniqueness comparison", "unique fraction", "uniqueness"),
    ] {
        let chart = result.chart(title, ylabel, |i| chart_value(key, i));
        export_xy_chart(&chart, out.join(format!("compare_{key}"))).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// The indicator a compare chart plots, read as the CLI reads it.
fn chart_value(key: &str, i: &Indicators) -> f64 {
    let risk = i.risk.as_ref();
    match key {
        "are" => i.are,
        "gcp" => i.gcp,
        "prosecutor" => risk
            .and_then(|r| r.rel.as_ref())
            .map_or(0.0, |r| r.max_prosecutor),
        "uniqueness" => risk
            .and_then(|r| r.tx.as_ref())
            .and_then(|t| t.per_m.last())
            .map_or(0.0, |p| p.unique_fraction),
        _ => i.runtime_ms,
    }
}

/// Bytes of every file under `dir` (0 when it does not exist).
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(ft) if ft.is_dir() => dir_bytes(&e.path()),
            _ => e.metadata().map_or(0, |m| m.len()),
        })
        .sum()
}

/// The pass's spans as NDJSON records, one object per line.
pub fn ndjson(workload: &str, pass: usize, t: &Tracer) -> String {
    let mut out = String::new();
    for (id, s) in t.spans.iter().enumerate() {
        let opt = |v: Option<usize>| v.map_or(Value::Null, |v| Value::U64(v as u64));
        let record = Value::Obj(vec![
            ("workload".into(), Value::Str(workload.into())),
            ("pass".into(), Value::U64(pass as u64)),
            ("id".into(), Value::U64(id as u64)),
            ("span".into(), Value::Str(s.name.into())),
            ("parent".into(), opt(s.parent)),
            ("job".into(), opt(s.job)),
            ("start_ns".into(), Value::U64(s.start.as_nanos() as u64)),
            ("end_ns".into(), Value::U64(s.end.as_nanos() as u64)),
        ]);
        out.push_str(&serde_json::to_string(&record).expect("span records serialize"));
        out.push('\n');
    }
    out
}
