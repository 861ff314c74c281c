//! Subcommand implementations.

use crate::args::{Args, CHARTS, CONTEXT, COORDINATOR, LEASE, SWEEP};
use secreta_core::data::{
    chunk, csv as dcsv, stats, ChunkStats, CsvOptions, DataError, MemoryBudget, RtTable,
};
use secreta_core::hierarchy::io as hio;
use secreta_core::metrics::query as q;
use secreta_core::policy::{
    generate_privacy, generate_utility, io as pio, PrivacyStrategy, UtilityStrategy,
};
use secreta_core::store::RunStore;
use secreta_core::{
    config::{Bounding, MethodSpec, RelAlgo, TxAlgo},
    export, ComparisonResult, Configuration, Orchestrator, SessionContext, SessionSpec, Sweep,
    VaryingParam,
};
use secreta_gen::{DatasetSpec, WorkloadSpec};
use secreta_plot::BarChart;
use serde::{Serialize, Value};
use std::path::{Path, PathBuf};

/// Process exit code for a fully successful command.
pub(crate) const EXIT_OK: i32 = 0;
/// Process exit code when a sweep (or fsck) completed but left
/// failures on record.
pub(crate) const EXIT_DEGRADED: i32 = 3;

/// The usage rules a flag's kind cannot express, checked before any
/// work starts: a flag that the chosen mode of a verb would ignore is
/// refused rather than dropped.
pub(crate) fn check_usage(args: &Args) -> Result<(), String> {
    let verb = args.verb.name;
    let takes = |name: &str| args.verb.flag(name).is_some();
    if takes("session") && args.given("session") {
        let dataset = [
            (args.positional.is_some(), "DATA"),
            (args.given("tx"), "--tx"),
            (args.given("fanout"), "--fanout"),
        ];
        if let Some((_, what)) = dataset.iter().find(|(given, _)| *given) {
            return Err(format!(
                "--session replaces DATA, --tx and --fanout; drop {what}"
            ));
        }
    } else if takes("session") && args.positional.is_none() {
        return Err(format!("{verb} requires DATA or --session FILE"));
    }
    if takes("mode") && args.text("mode") == Some("rho") && !args.given("sensitive") {
        return Err("--mode rho requires --sensitive item1,item2,...".into());
    }
    if verb == "evaluate" && args.given("vary") && args.given("export-anon") {
        return Err("--export-anon applies to single runs; drop --vary or the flag".into());
    }
    if verb == "evaluate" && !args.given("vary") {
        let sweep_only = [SWEEP, CHARTS, COORDINATOR, LEASE];
        if let Some((name, _)) = sweep_only.iter().flat_map(|g| args.given_in(g)).next() {
            return Err(format!(
                "--{name} applies to sweeps; add --vary (or drop the flag)"
            ));
        }
    }
    if takes("workers") && crate::worker::distributed(args) {
        if !args.given("store-dir") {
            return Err("--workers/--distributed requires --store-dir".into());
        }
        if args.given("no-cache") {
            let why = "workers serve and fill the shared store by design";
            return Err(format!(
                "--no-cache does not apply to distributed execution: {why}"
            ));
        }
    }
    match verb {
        "policy" if args.given("privacy") == args.given("utility") => {
            Err("policy takes exactly one of --privacy and --utility".into())
        }
        "bench" if args.given("all") && args.given("suite") => {
            Err("--all is --suite all; drop one of them".into())
        }
        "bench" => crate::bench::rows_of(args).map(drop),
        _ => Ok(()),
    }
}

/// Why a dataset failed to load. Budget exhaustion is typed so
/// evaluate/compare can take the degraded exit (3) instead of the
/// fatal one — running out of the declared budget is an anticipated,
/// recorded outcome, not a crash.
pub(crate) enum LoadError {
    /// The chunked ingest (or its materialization) exceeded
    /// `--memory-budget`.
    Budget(String),
    /// Anything else: I/O, parse, usage.
    Other(String),
}

impl From<LoadError> for String {
    fn from(e: LoadError) -> String {
        match e {
            LoadError::Budget(m) | LoadError::Other(m) => m,
        }
    }
}

/// Whether `e` is a budget exhaustion, possibly wrapped in the
/// file-naming layer.
fn is_budget_error(e: &DataError) -> bool {
    match e {
        DataError::BudgetExceeded { .. } => true,
        DataError::InFile { error, .. } => is_budget_error(error),
        _ => false,
    }
}

/// Load a dataset through the chunked streaming reader,
/// auto-detecting numeric columns from the interned pools. With
/// `--memory-budget MB` every retained byte of the ingest is charged
/// against a deterministic accounting budget; exhausting it yields a
/// typed [`LoadError::Budget`] instead of an OOM kill.
fn load(args: &Args) -> Result<(RtTable, ChunkStats), LoadError> {
    let path = args.positional0().map_err(LoadError::Other)?;
    let opts = CsvOptions {
        transaction_column: args.text("tx").map(str::to_owned),
        ..CsvOptions::default()
    };
    let budget = args
        .opt("memory-budget")
        .map_or_else(MemoryBudget::unlimited, MemoryBudget::megabytes);
    let classify = |e: DataError| {
        if is_budget_error(&e) {
            LoadError::Budget(e.to_string())
        } else {
            LoadError::Other(e.to_string())
        }
    };
    let mut chunked =
        chunk::read_chunked_path(path, &opts, chunk::chunk_rows(), budget).map_err(classify)?;
    chunked.reclassify_numeric();
    let stats = chunked.stats();
    let table = chunked.into_table().map_err(classify)?;
    Ok((table, stats))
}

fn with_generated_workload(args: &Args, ctx: SessionContext) -> SessionContext {
    let n_queries = args.get("queries");
    if n_queries > 0 {
        let w = WorkloadSpec {
            n_queries,
            seed: args.get("seed"),
            ..Default::default()
        }
        .generate(&ctx.table);
        ctx.with_workload(w)
    } else {
        ctx
    }
}

/// Resolve the session for evaluate/compare: `--session FILE` loads a
/// saved session spec; otherwise the positional dataset + flags apply.
pub(crate) fn load_context(args: &Args) -> Result<SessionContext, LoadError> {
    match args.text("session") {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| LoadError::Other(format!("{path}: {e}")))?;
            let spec = SessionSpec::from_json(&text)
                .map_err(|e| LoadError::Other(format!("{path}: {e}")))?;
            let base = Path::new(path).parent().unwrap_or(Path::new("."));
            let ctx = spec
                .load(base)
                .map_err(|e| LoadError::Other(e.to_string()))?;
            // a generated workload can still top up a session without one
            if ctx.workload.is_empty() {
                Ok(with_generated_workload(args, ctx))
            } else {
                Ok(ctx)
            }
        }
        None => {
            let (table, stats) = load(args)?;
            let ctx = SessionContext::auto(table, args.get("fanout"))
                .map_err(|e| LoadError::Other(e.to_string()))?;
            Ok(with_generated_workload(args, ctx).with_ingest_stats(stats))
        }
    }
}

pub(crate) fn cmd_generate(args: &Args) -> Result<i32, String> {
    let (rows, seed) = (args.get("rows"), args.get("seed"));
    let out = args.text("out").expect("--out is required");
    let spec = match args.text("kind") {
        Some("basket") => DatasetSpec::basket(rows, args.get("items"), seed),
        Some("census") => DatasetSpec::census(rows, seed),
        Some("adversarial") => {
            use secreta_core::gen::ItemShape;
            let mut spec = DatasetSpec::adversarial(rows, seed);
            spec.qi_correlation = args.get("correlation");
            spec.item_shape = args.pick("item-skew", [ItemShape::Head, ItemShape::Tail]);
            spec.outlier_fraction = args.get("outlier-fraction");
            spec
        }
        _ => DatasetSpec::adult_like(rows, seed), // "adult", the kind left
    };
    let table = spec.generate();
    let opts = csv_opts_for(&table);
    dcsv::write_table_path(&table, out, &opts).map_err(|e| e.to_string())?;
    println!(
        "wrote {} rows × {} attributes to {}",
        table.n_rows(),
        table.schema().len(),
        out
    );
    Ok(EXIT_OK)
}

fn csv_opts_for(table: &RtTable) -> CsvOptions {
    let mut opts = CsvOptions::default();
    if let Some(i) = table.schema().transaction_index() {
        opts.transaction_column = table.schema().attribute(i).map(|a| a.name.clone());
    }
    opts
}

pub(crate) fn cmd_info(args: &Args) -> Result<i32, String> {
    let (table, _) = load(args)?;
    println!(
        "{} rows, {} relational attributes, transaction attribute: {}",
        table.n_rows(),
        table.schema().relational_indices().len(),
        table
            .schema()
            .transaction_index()
            .and_then(|i| table.schema().attribute(i))
            .map(|a| a.name.as_str())
            .unwrap_or("(none)")
    );
    println!(
        "{:<16} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "attribute", "distinct", "populated", "min", "max", "mean"
    );
    for s in stats::summarize(&table) {
        let fmt = |v: Option<f64>| v.map(|x| format!("{x:.1}")).unwrap_or_else(|| "-".into());
        println!(
            "{:<16} {:>9} {:>9} {:>9} {:>9} {:>9}",
            s.name,
            s.distinct,
            s.populated,
            fmt(s.min),
            fmt(s.max),
            fmt(s.mean)
        );
    }
    if table.schema().transaction_index().is_some() {
        println!(
            "item universe: {}, avg transaction length: {:.2}",
            table.item_universe(),
            table.avg_transaction_len()
        );
    }
    Ok(EXIT_OK)
}

pub(crate) fn cmd_histogram(args: &Args) -> Result<i32, String> {
    let (table, _) = load(args)?;
    let attr = args.text("attr").expect("--attr is required");
    let schema = table.schema();
    let idx = schema
        .index_of(attr)
        .ok_or_else(|| format!("unknown attribute {attr:?}"))?;
    let hist = if Some(idx) == schema.transaction_index() {
        stats::item_histogram(&table)
    } else {
        stats::relational_histogram(&table, idx)
    };
    let hist = hist.top_k(args.get("top"));
    let chart = BarChart::new(
        hist.title.clone(),
        hist.labels.clone(),
        hist.counts.iter().map(|&c| c as f64).collect(),
    );
    let export = |stem: &Path| export::export_bar_chart(&chart, stem);
    emit_chart(
        args,
        Some(export::terminal_bar(&chart)),
        &format!("histogram_{attr}"),
        export,
    )?;
    Ok(EXIT_OK)
}

pub(crate) fn cmd_hierarchy(args: &Args) -> Result<i32, String> {
    let (table, _) = load(args)?;
    let ctx = SessionContext::auto(table, args.get("fanout")).map_err(|e| e.to_string())?;
    let attr = args.text("attr").expect("--attr is required");
    let schema = ctx.table.schema();
    let idx = schema
        .index_of(attr)
        .ok_or_else(|| format!("unknown attribute {attr:?}"))?;
    let h = if Some(idx) == schema.transaction_index() {
        ctx.item_hierarchy.as_ref().ok_or("dataset has no items")?
    } else {
        ctx.hierarchy_of(idx).ok_or("attribute is not relational")?
    };
    println!(
        "hierarchy for {attr:?}: {} leaves, {} nodes, height {}",
        h.n_leaves(),
        h.n_nodes(),
        h.height()
    );
    match args.text("out") {
        Some(path) => {
            hio::write_hierarchy_path(h, path, ';').map_err(|e| e.to_string())?;
            println!("wrote {path}");
        }
        None => {
            let mut buf = Vec::new();
            hio::write_hierarchy(h, &mut buf, ';').map_err(|e| e.to_string())?;
            print!("{}", String::from_utf8_lossy(&buf));
        }
    }
    Ok(EXIT_OK)
}

pub(crate) fn cmd_workload(args: &Args) -> Result<i32, String> {
    let (table, _) = load(args)?;
    let spec = WorkloadSpec {
        n_queries: args.get("queries"),
        seed: args.get("seed"),
        ..Default::default()
    };
    let w = spec.generate(&table);
    let out = args.text("out").expect("--out is required");
    let mut file = std::io::BufWriter::new(std::fs::File::create(out).map_err(|e| e.to_string())?);
    q::write_workload(&w, &table, &mut file).map_err(|e| e.to_string())?;
    println!("wrote {} queries to {}", w.len(), out);
    Ok(EXIT_OK)
}

pub(crate) fn cmd_policy(args: &Args) -> Result<i32, String> {
    let (table, _) = load(args)?;
    let out = args.text("out").expect("--out is required");
    let mut file = std::io::BufWriter::new(std::fs::File::create(out).map_err(|e| e.to_string())?);
    if let Some(strategy) = args.text("privacy") {
        let strat = match strategy {
            "all" => PrivacyStrategy::AllItems,
            "rare" => PrivacyStrategy::RareItems { max_support: 0.05 },
            // "random", the strategy left
            _ => PrivacyStrategy::RandomItemsets {
                size: args.get("size"),
                count: args.get("count"),
                seed: args.get("seed"),
            },
        };
        let p = generate_privacy(&table, &strat);
        pio::write_privacy(&p, &table, &mut file).map_err(|e| e.to_string())?;
        println!("wrote {} privacy constraints to {}", p.len(), out);
    } else {
        let strat = match args.text("utility") {
            Some("unconstrained") => UtilityStrategy::Unconstrained,
            // "bands", the strategy left
            _ => UtilityStrategy::FrequencyBands {
                bands: args.get("bands"),
            },
        };
        let u = generate_utility(&table, &strat, None);
        pio::write_utility(&u, &table, &mut file).map_err(|e| e.to_string())?;
        println!("wrote {} utility groups to {}", u.len(), out);
    }
    Ok(EXIT_OK)
}

/// The method the `--mode` family and its flags select.
pub(crate) fn build_spec(args: &Args) -> MethodSpec {
    use RelAlgo::{BottomUp, Cluster, Incognito, TopDown};
    let (k, m) = (args.get("k"), args.get("m"));
    let rel = || args.pick("rel-algo", [Incognito, Cluster, TopDown, BottomUp]);
    let tx = || {
        let lra = TxAlgo::Lra {
            partitions: args.get("partitions"),
        };
        let vpa = TxAlgo::Vpa {
            parts: args.get("parts"),
        };
        args.pick(
            "tx-algo",
            [TxAlgo::Coat, TxAlgo::Pcta, TxAlgo::Apriori, lra, vpa],
        )
    };
    match args.text("mode") {
        Some("rel") => MethodSpec::Relational { algo: rel(), k },
        Some("tx") => MethodSpec::Transaction { algo: tx(), k, m },
        Some("rho") => MethodSpec::Rho {
            rho: args.get("rho"),
            sensitive: args
                .text("sensitive")
                .map(|s| s.split(',').map(|t| t.trim().to_owned()).collect())
                .unwrap_or_default(),
            max_antecedent: args.get("max-antecedent"),
            generalize: args.text("rho-algo") == Some("tdcontrol"),
        },
        // "rt", the mode left
        _ => MethodSpec::Rt {
            rel: rel(),
            tx: tx(),
            bounding: args.pick(
                "bounding",
                [Bounding::RMerge, Bounding::TMerge, Bounding::RtMerge],
            ),
            k,
            m,
            delta: args.get("delta"),
        },
    }
}

/// The sweep `--vary` asks for, if any.
pub(crate) fn parse_sweep(args: &Args) -> Option<Sweep> {
    args.given("vary").then(|| Sweep {
        param: args.pick(
            "vary",
            [VaryingParam::K, VaryingParam::M, VaryingParam::Delta],
        ),
        start: args.get("start"),
        end: args.get("end"),
        step: args.get("step"),
    })
}

pub(crate) fn print_indicators(label: &str, ind: &secreta_core::Indicators) {
    println!(
        "{label}: GCP={:.4} txGCP={:.4} UL={:.4} ARE={:.4} freqErr={:.4} \
         disc={} avgClass={:.2} runtime={:.1}ms verified={}",
        ind.gcp,
        ind.tx_gcp,
        ind.ul,
        ind.are,
        ind.item_freq_error,
        ind.discernibility,
        ind.avg_class_size,
        ind.runtime_ms,
        ind.verified
    );
    if let Some(risk) = &ind.risk {
        let mut parts = Vec::new();
        if let Some(rel) = &risk.rel {
            parts.push(format!(
                "prosecutor={:.4} journalist={:.4} atRisk={:.4}",
                rel.max_prosecutor, rel.max_journalist, rel.at_risk_fraction
            ));
        }
        if let Some(tx) = &risk.tx {
            let unique: Vec<String> = tx
                .per_m
                .iter()
                .map(|p| format!("m{}={:.4}", p.m, p.unique_fraction))
                .collect();
            parts.push(format!("unique[{}]", unique.join(" ")));
        }
        parts.push(format!(
            "audit={} {}",
            risk.audit.guarantee,
            if risk.audit.passed {
                "pass".to_owned()
            } else {
                format!("FAIL({} violations)", risk.audit.violations)
            }
        ));
        println!("{label} risk: {}", parts.join(" "));
    }
}

/// The charts of a sweep: comparison title, y label, indicator key.
const SWEEP_CHARTS: [(&str, &str, &str); 5] = [
    ("ARE comparison", "ARE", "are"),
    ("GCP comparison", "GCP", "gcp"),
    ("Runtime comparison", "runtime (ms)", "runtime"),
    (
        "Prosecutor-risk comparison",
        "max prosecutor risk",
        "prosecutor",
    ),
    ("Uniqueness comparison", "unique fraction", "uniqueness"),
];

/// Print a chart's terminal rendering when `shown`, and under
/// `--out-dir DIR` write its SVG + CSV through `export` to `DIR/stem`.
pub(crate) fn emit_chart(
    args: &Args,
    shown: Option<String>,
    stem: &str,
    export: impl FnOnce(&Path) -> std::io::Result<(PathBuf, PathBuf)>,
) -> Result<(), String> {
    if let Some(text) = shown {
        print!("{text}");
    }
    if let Some(dir) = args.text("out-dir") {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let (svg, csv) = export(&Path::new(dir).join(stem)).map_err(|e| e.to_string())?;
        println!("wrote {} and {}", svg.display(), csv.display());
    }
    Ok(())
}

/// Every configuration's sweep points, as `compare` and `runs resume`
/// print them.
pub(crate) fn print_comparison(result: &ComparisonResult) {
    for (label, pts) in result.labels.iter().zip(&result.points) {
        println!("== {label}");
        for (v, r) in pts {
            match r {
                Ok(p) => {
                    print_indicators(&format!("  {}={v}", result.param.label()), &p.indicators)
                }
                Err(e) => println!("  {}={v}: failed: {e}", result.param.label()),
            }
        }
    }
}

/// Scalar indicator accessors shared by the sweep charts of
/// `evaluate`, `compare` and `runs chart`. Risk keys read 0 when the
/// block is absent (runs stored before schema 4) or the output lacks
/// that side; `uniqueness` is the unique fraction at the largest
/// evaluated adversary knowledge size.
pub(crate) fn indicator_scalar(key: &str, i: &secreta_core::Indicators) -> f64 {
    match key {
        "gcp" => i.gcp,
        "are" => i.are,
        "prosecutor" => i
            .risk
            .as_ref()
            .and_then(|r| r.rel.as_ref())
            .map_or(0.0, |r| r.max_prosecutor),
        "uniqueness" => i
            .risk
            .as_ref()
            .and_then(|r| r.tx.as_ref())
            .and_then(|t| t.per_m.last())
            .map_or(0.0, |p| p.unique_fraction),
        "violations" => i.risk.as_ref().map_or(0.0, |r| r.audit.violations as f64),
        _ => i.runtime_ms,
    }
}

/// Observability settings from `--trace-out` (and, for `profile`,
/// forced-on recording): traces stream as NDJSON to the given file.
pub(crate) fn obsv_of(
    args: &Args,
    force_enabled: bool,
) -> Result<secreta_core::obsv::ObsvConfig, String> {
    use secreta_core::obsv::{ObsvConfig, TraceSink};
    match args.text("trace-out") {
        Some(path) => {
            let sink = TraceSink::create(path).map_err(|e| format!("{path}: {e}"))?;
            Ok(ObsvConfig::with_trace(sink))
        }
        None if force_enabled => Ok(ObsvConfig::enabled()),
        None => Ok(ObsvConfig::disabled()),
    }
}

/// Apply `--job-timeout-ms` (a per-job soft deadline) and
/// `--memory-budget` (a per-job peak-RSS ceiling backing the ingest
/// accounting), both enforced cooperatively at phase boundaries.
/// Operational, like the store flags — they never become part of the
/// experiment's identity.
pub(crate) fn with_limits(args: &Args, mut ctx: SessionContext) -> SessionContext {
    if let Some(ms) = args.opt("job-timeout-ms") {
        ctx = ctx.with_job_deadline(std::time::Duration::from_millis(ms));
    }
    if let Some(mb) = args.opt("memory-budget") {
        ctx = ctx.with_memory_budget(mb);
    }
    ctx
}

/// `--threads`: the whole thread budget of the process, one thread per
/// core by default. A sweep splits it across the jobs it runs at once;
/// a single run gives all of it to its kernels.
pub(crate) fn threads_of(args: &Args) -> usize {
    args.opt("threads")
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Build the orchestrator for evaluate/compare/profile from
/// `--threads` / `--store-dir` / `--no-cache`, before any work starts.
fn orchestrator_of(args: &Args) -> Result<Orchestrator, String> {
    let mut orch = Orchestrator::new(threads_of(args));
    if let Some(dir) = args.text("store-dir") {
        orch = orch.with_store(RunStore::open(dir).map_err(|e| e.to_string())?);
    }
    Ok(orch.bypass_cache(args.given("no-cache")))
}

/// The opaque invocation payload journaled with every orchestrated
/// sweep: enough of the command line to rebuild the session context
/// and configurations in `secreta runs resume`.
pub(crate) fn invocation_of(command: &str, args: &Args, configs: &[Configuration]) -> Value {
    let options = args.given_in(CONTEXT);
    Value::Obj(vec![
        ("command".to_owned(), Value::Str(command.to_owned())),
        (
            "positional".to_owned(),
            Value::Arr(args.positional.iter().cloned().map(Value::Str).collect()),
        ),
        (
            "options".to_owned(),
            Value::Obj(
                options
                    .map(|(k, v)| (k.to_owned(), Value::Str(v.to_owned())))
                    .collect(),
            ),
        ),
        (
            "configurations".to_owned(),
            Value::Arr(configs.iter().map(Serialize::ser).collect()),
        ),
    ])
}

fn print_cache_stats(orch: &Orchestrator, out: &secreta_core::Orchestrated) {
    if let Some(store) = orch.store() {
        println!(
            "cache: {} hits, {} misses, {} failures (sweep {}, store {})",
            out.stats.hits,
            out.stats.misses,
            out.stats.failures,
            out.sweep_id,
            store.root().display()
        );
    }
}

/// Announce a memory-budget exhaustion (at ingest or mid-run) and
/// exit through the degraded path: blowing the declared budget is a
/// recorded outcome (exit 3), not a fatal error.
fn budget_degraded(what: &str, msg: &str) -> Result<i32, String> {
    eprintln!("error: {msg}");
    println!(
        "{what} completed degraded: the memory budget was exceeded; \
         raise --memory-budget or shrink the dataset"
    );
    Ok(EXIT_DEGRADED)
}

pub(crate) fn cmd_evaluate(args: &Args) -> Result<i32, String> {
    let orch = orchestrator_of(args)?;
    let ctx = match load_context(args) {
        Ok(ctx) => ctx,
        Err(LoadError::Budget(msg)) => return budget_degraded("evaluate", &msg),
        Err(LoadError::Other(msg)) => return Err(msg),
    };
    let ctx = with_limits(args, ctx.with_obsv(obsv_of(args, false)?));
    let spec = build_spec(args);
    let seed = args.get("seed");

    let mut failures = 0u64;
    match parse_sweep(args) {
        None => {
            let (result, cache_hit) = orch.run_one(&ctx, &spec, seed).map_err(|e| e.to_string())?;
            let out = match result {
                Ok(out) => out,
                Err(e @ secreta_core::RunError::BudgetExceeded { .. }) => {
                    return budget_degraded("evaluate", &e.to_string())
                }
                Err(e) => return Err(e.to_string()),
            };
            println!("method: {}", spec.label());
            if cache_hit {
                println!("(replayed from the run store — no anonymization executed)");
            }
            print_indicators("result", &out.indicators);
            println!("phases:");
            for (name, d) in &out.phases.phases {
                println!("  {:<32} {:>10.2}ms", name, d.as_secs_f64() * 1e3);
            }
            if let Some(path) = args.text("export-anon") {
                let mut file = std::io::BufWriter::new(
                    std::fs::File::create(path).map_err(|e| e.to_string())?,
                );
                export::write_anonymized(&ctx, &out.anon, &mut file).map_err(|e| e.to_string())?;
                println!("anonymized dataset written to {path}");
            }
        }
        Some(sweep) => {
            let cfg = Configuration::new(spec.clone(), sweep, seed);
            let invocation = invocation_of("evaluate", args, std::slice::from_ref(&cfg));
            let out = crate::worker::run_sweep(
                args,
                &ctx,
                &orch,
                std::slice::from_ref(&cfg),
                invocation,
            )?;
            print_cache_stats(&orch, &out);
            failures = out.stats.failures;
            let points = out.result.points.into_iter().next().unwrap_or_default();
            println!("method: {} varying {}", spec.label(), sweep.param.label());
            for (v, r) in &points {
                match r {
                    Ok(p) => {
                        print_indicators(&format!("{}={v}", sweep.param.label()), &p.indicators)
                    }
                    Err(e) => println!("{}={v}: failed: {e}", sweep.param.label()),
                }
            }
            for (_, ylabel, key) in SWEEP_CHARTS {
                let chart = secreta_core::sweep::chart_of(
                    format!("{} vs {}", ylabel, sweep.param.label()),
                    ylabel,
                    &sweep,
                    spec.label(),
                    &points,
                    |i| indicator_scalar(key, i),
                );
                let shown = args.given("ascii").then(|| export::terminal_xy(&chart));
                let export = |stem: &Path| export::export_xy_chart(&chart, stem);
                emit_chart(args, shown, &format!("evaluate_{key}"), export)?;
            }
        }
    }
    Ok(degraded_code("evaluate", failures))
}

/// Turn a sweep's failure count into the exit code, announcing the
/// degraded result so scripts that only read stdout see it too.
fn degraded_code(what: &str, failures: u64) -> i32 {
    if failures == 0 {
        EXIT_OK
    } else {
        println!(
            "{what} completed degraded: {failures} job(s) failed; \
             completed points were kept (resume with `secreta runs resume`)"
        );
        EXIT_DEGRADED
    }
}

/// `secreta profile`: run one method with the recorder on and print
/// the hierarchical phase/counter table. Accepts the same method flags
/// as single-run `evaluate`; `--trace-out FILE` additionally streams
/// the NDJSON trace.
pub(crate) fn cmd_profile(args: &Args) -> Result<i32, String> {
    let orch = orchestrator_of(args)?;
    let ctx = load_context(args).map_err(String::from)?;
    let ctx = with_limits(args, ctx.with_obsv(obsv_of(args, true)?));
    let spec = build_spec(args);
    let seed = args.get("seed");
    let (result, cache_hit) = orch.run_one(&ctx, &spec, seed).map_err(|e| e.to_string())?;
    let out = result.map_err(|e| e.to_string())?;
    println!("method: {}", spec.label());
    if cache_hit {
        println!("(replayed from the run store — profile reflects the original execution)");
    }
    print_indicators("result", &out.indicators);
    match &out.profile {
        Some(profile) => {
            println!("profile:");
            print!("{}", profile.render_table());
        }
        None => println!("(no profile was recorded for this run)"),
    }
    if let Some(path) = args.text("trace-out") {
        println!("trace written to {path}");
    }
    Ok(EXIT_OK)
}

pub(crate) fn cmd_compare(args: &Args) -> Result<i32, String> {
    let orch = orchestrator_of(args)?;
    let ctx = match load_context(args) {
        Ok(ctx) => ctx,
        Err(LoadError::Budget(msg)) => return budget_degraded("compare", &msg),
        Err(LoadError::Other(msg)) => return Err(msg),
    };
    let ctx = with_limits(args, ctx.with_obsv(obsv_of(args, false)?));
    let config_path = args.text("config").expect("--config is required");
    let text = std::fs::read_to_string(config_path).map_err(|e| e.to_string())?;
    let configs: Vec<Configuration> =
        serde_json::from_str(&text).map_err(|e| format!("{config_path}: {e}"))?;
    if configs.is_empty() {
        return Err("configuration file contains no configurations".into());
    }
    let invocation = invocation_of("compare", args, &configs);
    let out = crate::worker::run_sweep(args, &ctx, &orch, &configs, invocation)?;
    print_cache_stats(&orch, &out);
    let result = out.result;
    print_comparison(&result);

    for (title, ylabel, key) in SWEEP_CHARTS {
        let chart = result.chart(title, ylabel, |i| indicator_scalar(key, i));
        let shown = args.given("ascii").then(|| export::terminal_xy(&chart));
        let export = |stem: &Path| export::export_xy_chart(&chart, stem);
        emit_chart(args, shown, &format!("compare_{key}"), export)?;
    }
    Ok(degraded_code("compare", out.stats.failures))
}

pub(crate) fn cmd_edit(args: &Args) -> Result<i32, String> {
    use secreta_core::data::edit::{EditCommand, EditSession};
    let (mut table, _) = load(args)?;
    let script_path = args.text("script").expect("--script is required");
    let text = std::fs::read_to_string(script_path).map_err(|e| format!("{script_path}: {e}"))?;
    let commands: Vec<EditCommand> =
        serde_json::from_str(&text).map_err(|e| format!("{script_path}: {e}"))?;
    let mut session = EditSession::new();
    for (i, cmd) in commands.iter().enumerate() {
        session
            .apply(&mut table, cmd)
            .map_err(|e| format!("command {}: {e}", i + 1))?;
    }
    let out = args.text("out").expect("--out is required");
    let opts = csv_opts_for(&table);
    dcsv::write_table_path(&table, out, &opts).map_err(|e| e.to_string())?;
    println!(
        "applied {} edit commands; wrote {} rows to {}",
        session.applied(),
        table.n_rows(),
        out
    );
    Ok(EXIT_OK)
}

pub(crate) fn cmd_session(args: &Args) -> Result<i32, String> {
    let path = args.positional0()?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let spec = SessionSpec::from_json(&text).map_err(|e| format!("{path}: {e}"))?;
    let base = Path::new(path).parent().unwrap_or(Path::new("."));
    let ctx = spec.load(base).map_err(|e| e.to_string())?;
    println!(
        "session {path}: {} rows, {} QI attributes, {} items, {} queries, privacy: {}, utility: {}",
        ctx.table.n_rows(),
        ctx.qi_attrs.len(),
        ctx.table.item_universe(),
        ctx.workload.len(),
        ctx.privacy.as_ref().map(|p| p.len()).unwrap_or(0),
        ctx.utility.as_ref().map(|u| u.len()).unwrap_or(0),
    );
    for (pos, &attr) in ctx.qi_attrs.iter().enumerate() {
        let name = &ctx.table.schema().attribute(attr).expect("attr").name;
        let h = &ctx.hierarchies[pos];
        println!(
            "  hierarchy {name}: {} leaves, height {}",
            h.n_leaves(),
            h.height()
        );
    }
    Ok(EXIT_OK)
}
