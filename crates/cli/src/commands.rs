//! Subcommand implementations.

use crate::args::Args;
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
    export, Configuration, Orchestrator, SessionContext, SessionSpec, Sweep, VaryingParam,
};
use secreta_gen::{DatasetSpec, WorkloadSpec};
use secreta_plot::BarChart;
use serde::{Serialize, Value};
use std::path::Path;

/// Default run-store location for `--store-dir`-aware commands.
pub(crate) const DEFAULT_STORE_DIR: &str = ".secreta-store";

const HELP: &str = "\
secreta — evaluate and compare relational & transaction anonymization algorithms

USAGE: secreta <command> [dataset.csv] [--options]

COMMANDS
  generate   synthesize a dataset       --kind adult|basket|census|adversarial
             --rows N [--items N] [--seed S] --out FILE
             (adversarial: [--correlation C] [--item-skew head|tail]
              [--outlier-fraction F])
  info       dataset summary            DATA [--tx COL]
  histogram  attribute histogram        DATA --attr NAME [--top N] [--tx COL]
  hierarchy  derive a hierarchy         DATA --attr NAME|--items [--fanout F]
             [--tx COL] [--out FILE]
  workload   generate COUNT queries     DATA [--tx COL] [--queries N]
             [--seed S] --out FILE
  policy     derive COAT/PCTA policies  DATA --tx COL --privacy all|rare|random
             | --utility unconstrained|bands --out FILE
  evaluate   Evaluation mode            DATA [--tx COL] --mode rel|tx|rt|rho
             [--rel-algo A] [--tx-algo A] [--bounding B] [--k N] [--m N]
             [--delta N] [--rho R --sensitive i1,i2 [--max-antecedent N]
              [--rho-algo suppress|tdcontrol]]
             [--queries N] [--seed S] [--threads N]
             [--vary k|m|delta --start N --end N --step N]
             [--out-dir DIR] [--export-anon FILE]
             [--store-dir DIR] [--no-cache] [--trace-out FILE.ndjson]
             [--job-timeout-ms MS] [--memory-budget MB]
             [--workers N | --distributed] [--lease-ttl-ms MS]
  profile    profile one run            DATA [--tx COL] (same method flags as
             evaluate, no --vary) [--trace-out FILE.ndjson]
  compare    Comparison mode            DATA [--tx COL] --config FILE.json
             [--queries N] [--threads N] [--out-dir DIR]
             [--store-dir DIR] [--no-cache] [--trace-out FILE.ndjson]
             [--job-timeout-ms MS] [--memory-budget MB]
             [--workers N | --distributed] [--lease-ttl-ms MS]
  worker     distributed sweep worker   DATA [--tx COL] [--store-dir DIR]
             [--sweep ID] [--lease-ttl-ms MS] [--poll-ms MS] [--wait-ms MS]
             (same session flags as the coordinator's evaluate/compare)
  runs       run-store management       list|show KEY|chart|gc|resume [ID]
             |fsck [--repair]
             [--store-dir DIR] [--all]
             [--indicator gcp|are|runtime|prosecutor|uniqueness
              |violations|phases]
  edit       apply a Dataset Editor script   DATA --script FILE.json --out FILE
  session    show a saved session        SESSION.json
  bench      benchmark                  [--suite kernels|store|obsv|tx|tiered
             |risk|scale|rel|dist | --all] [--rows N,N,...] [--seed S]
             [--threads N] [--reps N] [--out FILE]
             [--baseline FILE [--gate-pct N]] (scale: [--memory-budget MB])
  help       this text

evaluate/compare also accept --session FILE.json instead of a dataset
path; the session bundles dataset, hierarchies, policies and workload.
With --store-dir, results are content-addressed into a persistent run
store: re-running an identical experiment replays stored results
(--no-cache forces re-execution while still recording), and a sweep
killed mid-run can be finished with `secreta runs resume`.
--threads N is the whole thread budget of the process (default: one
per core): a sweep splits it across the jobs it runs at once, a single
run gives all of it to its kernels, and 0 is refused.
With --trace-out, every executed run streams its spans and counters to
FILE as NDJSON (one JSON object per line); `secreta profile` prints the
same data as a per-phase/per-counter table instead.
With --job-timeout-ms, every job in an evaluate/compare sweep gets a
soft per-job deadline, enforced cooperatively at phase boundaries; a
timed-out job is reported as failed and the sweep keeps going.
With --memory-budget, the dataset streams in through the chunked
reader with every retained byte charged against a deterministic MB
budget, and every job additionally gets a peak-RSS ceiling checked at
phase boundaries. Exceeding either degrades the invocation (exit 3)
instead of risking an OOM kill.

A failing job does not abort its sweep: the remaining jobs complete,
failures are journaled, and the process exits 3 (degraded) instead of
0. `secreta runs resume` re-executes only the failed or missing jobs.
Exit codes: 0 success, 1 fatal error, 2 usage error, 3 degraded.

Distributed sweeps: with --store-dir and --workers N, evaluate/compare
becomes a coordinator that publishes claimable job records and spawns
N `secreta worker` processes; with --distributed alone it publishes and
waits for externally started workers (same dataset/session flags, same
--store-dir). Workers claim jobs through crash-safe lease files
(heartbeat + TTL, default --lease-ttl-ms 5000); a kill -9'd worker's
jobs are reclaimed by survivors and the merged result is byte-identical
to a single-process run. If every worker dies the sweep degrades
(exit 3) and `secreta runs resume` re-executes only the lost jobs.

Relational algorithms: incognito, cluster, topdown, bottomup
Transaction algorithms: coat, pcta, apriori, lra, vpa
Bounding methods: rmerge, tmerge, rtmerge
";

/// Process exit code for a fully successful command.
pub(crate) const EXIT_OK: i32 = 0;
/// Process exit code when a sweep (or fsck) completed but left
/// failures on record.
pub(crate) const EXIT_DEGRADED: i32 = 3;

/// Dispatch to the selected subcommand; returns the process exit code
/// for the successful-dispatch cases (`EXIT_OK` or `EXIT_DEGRADED`).
pub fn dispatch(args: &Args) -> Result<i32, String> {
    if args.flag("help") || args.command.is_empty() || args.command == "help" {
        print!("{HELP}");
        return Ok(EXIT_OK);
    }
    match args.command.as_str() {
        "generate" => cmd_generate(args).map(|()| EXIT_OK),
        "info" => cmd_info(args).map(|()| EXIT_OK),
        "histogram" => cmd_histogram(args).map(|()| EXIT_OK),
        "hierarchy" => cmd_hierarchy(args).map(|()| EXIT_OK),
        "workload" => cmd_workload(args).map(|()| EXIT_OK),
        "policy" => cmd_policy(args).map(|()| EXIT_OK),
        "evaluate" => cmd_evaluate(args),
        "profile" => cmd_profile(args).map(|()| EXIT_OK),
        "compare" => cmd_compare(args),
        "runs" => crate::runs::cmd_runs(args),
        "worker" => crate::worker::cmd_worker(args),
        "edit" => cmd_edit(args).map(|()| EXIT_OK),
        "session" => cmd_session(args).map(|()| EXIT_OK),
        "bench" => crate::bench::cmd_bench(args).map(|()| EXIT_OK),
        other => Err(format!("unknown command {other:?}; try `secreta help`")),
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

/// Parse `--memory-budget MB` (None when absent, error on 0).
fn memory_budget_of(args: &Args) -> Result<Option<u64>, String> {
    match args.opt("memory-budget") {
        Some(_) => {
            let mb = args.u64_or("memory-budget", 0)?;
            if mb == 0 {
                return Err("--memory-budget expects a positive number of megabytes".into());
            }
            Ok(Some(mb))
        }
        None => Ok(None),
    }
}

/// Load a dataset through the chunked streaming reader,
/// auto-detecting numeric columns from the interned pools. With
/// `--memory-budget MB` every retained byte of the ingest is charged
/// against a deterministic accounting budget; exhausting it yields a
/// typed [`LoadError::Budget`] instead of an OOM kill.
fn load(args: &Args) -> Result<(RtTable, ChunkStats), LoadError> {
    let path = args.positional0().map_err(LoadError::Other)?;
    let mut opts = CsvOptions::default();
    if let Some(tx) = args.opt("tx") {
        opts.transaction_column = Some(tx.to_owned());
    }
    let budget = match memory_budget_of(args).map_err(LoadError::Other)? {
        Some(mb) => MemoryBudget::megabytes(mb),
        None => MemoryBudget::unlimited(),
    };
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

fn context(args: &Args, table: RtTable) -> Result<SessionContext, String> {
    let fanout = args.usize_or("fanout", 4)?;
    let ctx = SessionContext::auto(table, fanout).map_err(|e| e.to_string())?;
    with_generated_workload(args, ctx)
}

fn with_generated_workload(args: &Args, ctx: SessionContext) -> Result<SessionContext, String> {
    let n_queries = args.usize_or("queries", 0)?;
    if n_queries > 0 {
        let w = WorkloadSpec {
            n_queries,
            seed: args.u64_or("seed", 42)?,
            ..Default::default()
        }
        .generate(&ctx.table);
        Ok(ctx.with_workload(w))
    } else {
        Ok(ctx)
    }
}

/// Resolve the session for evaluate/compare: `--session FILE` loads a
/// saved session spec; otherwise the positional dataset + flags apply.
pub(crate) fn load_context(args: &Args) -> Result<SessionContext, LoadError> {
    match args.opt("session") {
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
                with_generated_workload(args, ctx).map_err(LoadError::Other)
            } else {
                Ok(ctx)
            }
        }
        None => {
            let (table, stats) = load(args)?;
            Ok(context(args, table)
                .map_err(LoadError::Other)?
                .with_ingest_stats(stats))
        }
    }
}

fn cmd_generate(args: &Args) -> Result<(), String> {
    let rows = args.usize_or("rows", 1000)?;
    let seed = args.u64_or("seed", 42)?;
    let out = args.req("out")?;
    let kind = args.opt("kind").unwrap_or("adult");
    let spec = match kind {
        "adult" => DatasetSpec::adult_like(rows, seed),
        "basket" => DatasetSpec::basket(rows, args.usize_or("items", 100)?, seed),
        "census" => DatasetSpec::census(rows, seed),
        "adversarial" => {
            let mut spec = DatasetSpec::adversarial(rows, seed);
            if let Some(c) = args.opt("correlation") {
                spec.qi_correlation = c
                    .parse::<f64>()
                    .map_err(|_| format!("--correlation {c:?} is not a number"))?;
            }
            if let Some(shape) = args.opt("item-skew") {
                spec.item_shape = match shape {
                    "head" => secreta_core::gen::ItemShape::Head,
                    "tail" => secreta_core::gen::ItemShape::Tail,
                    other => return Err(format!("unknown --item-skew {other:?} (head|tail)")),
                };
            }
            if let Some(f) = args.opt("outlier-fraction") {
                spec.outlier_fraction = f
                    .parse::<f64>()
                    .map_err(|_| format!("--outlier-fraction {f:?} is not a number"))?;
            }
            spec
        }
        other => {
            return Err(format!(
                "unknown --kind {other:?} (adult|basket|census|adversarial)"
            ))
        }
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
    Ok(())
}

fn csv_opts_for(table: &RtTable) -> CsvOptions {
    let mut opts = CsvOptions::default();
    if let Some(i) = table.schema().transaction_index() {
        opts.transaction_column = table.schema().attribute(i).map(|a| a.name.clone());
    }
    opts
}

fn cmd_info(args: &Args) -> Result<(), String> {
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
    Ok(())
}

fn cmd_histogram(args: &Args) -> Result<(), String> {
    let (table, _) = load(args)?;
    let attr = args.req("attr")?;
    let top = args.usize_or("top", 15)?;
    let schema = table.schema();
    let idx = schema
        .index_of(attr)
        .ok_or_else(|| format!("unknown attribute {attr:?}"))?;
    let hist = if Some(idx) == schema.transaction_index() {
        stats::item_histogram(&table)
    } else {
        stats::relational_histogram(&table, idx)
    };
    let hist = hist.top_k(top);
    let chart = BarChart::new(
        hist.title.clone(),
        hist.labels.clone(),
        hist.counts.iter().map(|&c| c as f64).collect(),
    );
    print!("{}", export::terminal_bar(&chart));
    if let Some(dir) = args.opt("out-dir") {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let stem = Path::new(dir).join(format!("histogram_{attr}"));
        let (svg, csv) = export::export_bar_chart(&chart, &stem).map_err(|e| e.to_string())?;
        println!("wrote {} and {}", svg.display(), csv.display());
    }
    Ok(())
}

fn cmd_hierarchy(args: &Args) -> Result<(), String> {
    let (table, _) = load(args)?;
    let fanout = args.usize_or("fanout", 4)?;
    let ctx = SessionContext::auto(table, fanout).map_err(|e| e.to_string())?;
    let attr = args.req("attr")?;
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
    match args.opt("out") {
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
    Ok(())
}

fn cmd_workload(args: &Args) -> Result<(), String> {
    let (table, _) = load(args)?;
    let spec = WorkloadSpec {
        n_queries: args.usize_or("queries", 100)?,
        seed: args.u64_or("seed", 42)?,
        ..Default::default()
    };
    let w = spec.generate(&table);
    let out = args.req("out")?;
    let mut file = std::io::BufWriter::new(std::fs::File::create(out).map_err(|e| e.to_string())?);
    q::write_workload(&w, &table, &mut file).map_err(|e| e.to_string())?;
    println!("wrote {} queries to {}", w.len(), out);
    Ok(())
}

fn cmd_policy(args: &Args) -> Result<(), String> {
    let (table, _) = load(args)?;
    let out = args.req("out")?;
    let mut file = std::io::BufWriter::new(std::fs::File::create(out).map_err(|e| e.to_string())?);
    if let Some(strategy) = args.opt("privacy") {
        let strat = match strategy {
            "all" => PrivacyStrategy::AllItems,
            "rare" => PrivacyStrategy::RareItems { max_support: 0.05 },
            "random" => PrivacyStrategy::RandomItemsets {
                size: args.usize_or("size", 2)?,
                count: args.usize_or("count", 50)?,
                seed: args.u64_or("seed", 42)?,
            },
            other => return Err(format!("unknown --privacy strategy {other:?}")),
        };
        let p = generate_privacy(&table, &strat);
        pio::write_privacy(&p, &table, &mut file).map_err(|e| e.to_string())?;
        println!("wrote {} privacy constraints to {}", p.len(), out);
    } else if let Some(strategy) = args.opt("utility") {
        let strat = match strategy {
            "unconstrained" => UtilityStrategy::Unconstrained,
            "bands" => UtilityStrategy::FrequencyBands {
                bands: args.usize_or("bands", 5)?,
            },
            other => return Err(format!("unknown --utility strategy {other:?}")),
        };
        let u = generate_utility(&table, &strat, None);
        pio::write_utility(&u, &table, &mut file).map_err(|e| e.to_string())?;
        println!("wrote {} utility groups to {}", u.len(), out);
    } else {
        return Err("specify --privacy STRATEGY or --utility STRATEGY".into());
    }
    Ok(())
}

fn parse_rel(name: &str) -> Result<RelAlgo, String> {
    Ok(match name {
        "incognito" => RelAlgo::Incognito,
        "cluster" => RelAlgo::Cluster,
        "topdown" => RelAlgo::TopDown,
        "bottomup" => RelAlgo::BottomUp,
        other => return Err(format!("unknown relational algorithm {other:?}")),
    })
}

fn parse_tx(args: &Args, name: &str) -> Result<TxAlgo, String> {
    Ok(match name {
        "coat" => TxAlgo::Coat,
        "pcta" => TxAlgo::Pcta,
        "apriori" => TxAlgo::Apriori,
        "lra" => TxAlgo::Lra {
            partitions: args.usize_or("partitions", 4)?,
        },
        "vpa" => TxAlgo::Vpa {
            parts: args.usize_or("parts", 4)?,
        },
        other => return Err(format!("unknown transaction algorithm {other:?}")),
    })
}

fn parse_bounding(name: &str) -> Result<Bounding, String> {
    Ok(match name {
        "rmerge" => Bounding::RMerge,
        "tmerge" => Bounding::TMerge,
        "rtmerge" => Bounding::RtMerge,
        other => return Err(format!("unknown bounding method {other:?}")),
    })
}

fn build_spec(args: &Args) -> Result<MethodSpec, String> {
    let k = args.usize_or("k", 5)?;
    let m = args.usize_or("m", 2)?;
    match args.opt("mode").unwrap_or("rt") {
        "rel" => Ok(MethodSpec::Relational {
            algo: parse_rel(args.opt("rel-algo").unwrap_or("cluster"))?,
            k,
        }),
        "tx" => Ok(MethodSpec::Transaction {
            algo: parse_tx(args, args.opt("tx-algo").unwrap_or("apriori"))?,
            k,
            m,
        }),
        "rt" => Ok(MethodSpec::Rt {
            rel: parse_rel(args.opt("rel-algo").unwrap_or("cluster"))?,
            tx: parse_tx(args, args.opt("tx-algo").unwrap_or("apriori"))?,
            bounding: parse_bounding(args.opt("bounding").unwrap_or("rmerge"))?,
            k,
            m,
            delta: args.usize_or("delta", 1)?,
        }),
        "rho" => {
            let rho: f64 = args
                .opt("rho")
                .unwrap_or("0.5")
                .parse()
                .map_err(|_| "--rho expects a number".to_owned())?;
            let sensitive: Vec<String> = args
                .opt("sensitive")
                .map(|s| s.split(',').map(|t| t.trim().to_owned()).collect())
                .unwrap_or_default();
            if sensitive.is_empty() {
                return Err("--mode rho requires --sensitive item1,item2,...".into());
            }
            Ok(MethodSpec::Rho {
                rho,
                sensitive,
                max_antecedent: args.usize_or("max-antecedent", 2)?,
                generalize: args.opt("rho-algo") == Some("tdcontrol"),
            })
        }
        other => Err(format!("unknown --mode {other:?} (rel|tx|rt|rho)")),
    }
}

fn parse_sweep(args: &Args) -> Result<Option<Sweep>, String> {
    let Some(vary) = args.opt("vary") else {
        return Ok(None);
    };
    let param = match vary {
        "k" => VaryingParam::K,
        "m" => VaryingParam::M,
        "delta" => VaryingParam::Delta,
        other => return Err(format!("unknown --vary {other:?} (k|m|delta)")),
    };
    Ok(Some(Sweep {
        param,
        start: args.usize_or("start", 2)?,
        end: args.usize_or("end", 10)?,
        step: args.usize_or("step", 2)?,
    }))
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
    match args.opt("trace-out") {
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
pub(crate) fn with_limits(args: &Args, mut ctx: SessionContext) -> Result<SessionContext, String> {
    if args.opt("job-timeout-ms").is_some() {
        let ms = args.u64_or("job-timeout-ms", 0)?;
        ctx = ctx.with_job_deadline(std::time::Duration::from_millis(ms));
    }
    if let Some(mb) = memory_budget_of(args)? {
        ctx = ctx.with_memory_budget(mb);
    }
    Ok(ctx)
}

/// `--threads`: the whole thread budget of the process, one thread per
/// core by default. A sweep splits it across the jobs it runs at once;
/// a single run gives all of it to its kernels.
pub(crate) fn threads_of(args: &Args) -> Result<usize, String> {
    match args.opt("threads") {
        None => Ok(std::thread::available_parallelism().map_or(1, |n| n.get())),
        Some(v) => v
            .parse()
            .ok()
            .filter(|&n: &usize| n > 0)
            .ok_or_else(|| format!("--threads expects a positive integer, got {v:?}")),
    }
}

/// Build the orchestrator for evaluate/compare/profile from
/// `--threads` / `--store-dir` / `--no-cache`, before any work starts.
fn orchestrator_of(args: &Args) -> Result<Orchestrator, String> {
    let mut orch = Orchestrator::new(threads_of(args)?);
    if let Some(dir) = args.opt("store-dir") {
        orch = orch.with_store(RunStore::open(dir).map_err(|e| e.to_string())?);
    }
    Ok(orch.bypass_cache(args.flag("no-cache")))
}

/// The opaque invocation payload journaled with every orchestrated
/// sweep: enough of the command line to rebuild the session context
/// and configurations in `secreta runs resume`.
fn invocation_of(command: &str, args: &Args, configs: &[Configuration]) -> Value {
    Value::Obj(vec![
        ("command".to_owned(), Value::Str(command.to_owned())),
        (
            "positional".to_owned(),
            Value::Arr(
                args.positional
                    .iter()
                    .map(|p| Value::Str(p.clone()))
                    .collect(),
            ),
        ),
        (
            "options".to_owned(),
            Value::Obj(
                args.options
                    .iter()
                    // store, limit and distributed-execution flags are
                    // per-invocation, not part of the experiment;
                    // resume supplies its own
                    .filter(|(k, _)| {
                        !matches!(
                            k.as_str(),
                            "store-dir"
                                | "no-cache"
                                | "job-timeout-ms"
                                | "memory-budget"
                                | "workers"
                                | "distributed"
                                | "lease-ttl-ms"
                                | "poll-ms"
                                | "wait-ms"
                                | "sweep"
                        )
                    })
                    .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
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

fn cmd_evaluate(args: &Args) -> Result<i32, String> {
    let orch = orchestrator_of(args)?;
    let ctx = match load_context(args) {
        Ok(ctx) => ctx,
        Err(LoadError::Budget(msg)) => return budget_degraded("evaluate", &msg),
        Err(LoadError::Other(msg)) => return Err(msg),
    };
    let ctx = with_limits(args, ctx.with_obsv(obsv_of(args, false)?))?;
    let spec = build_spec(args)?;
    let seed = args.u64_or("seed", 42)?;

    let mut failures = 0u64;
    match parse_sweep(args)? {
        None => {
            if args.usize_or("workers", 0)? > 0 || args.flag("distributed") {
                return Err(
                    "--workers/--distributed applies to sweeps; add --vary (or drop the flag)"
                        .into(),
                );
            }
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
            if let Some(path) = args.opt("export-anon") {
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
            let charts = [
                ("ARE", "are"),
                ("GCP", "gcp"),
                ("runtime (ms)", "runtime"),
                ("max prosecutor risk", "prosecutor"),
                ("unique fraction", "uniqueness"),
            ];
            for (ylabel, key) in charts {
                let chart = secreta_core::sweep::chart_of(
                    format!("{} vs {}", ylabel, sweep.param.label()),
                    ylabel,
                    &sweep,
                    spec.label(),
                    &points,
                    |i| indicator_scalar(key, i),
                );
                if args.flag("ascii") {
                    print!("{}", export::terminal_xy(&chart));
                }
                if let Some(dir) = args.opt("out-dir") {
                    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
                    let stem = Path::new(dir).join(format!("evaluate_{key}"));
                    let (svg, csv) =
                        export::export_xy_chart(&chart, &stem).map_err(|e| e.to_string())?;
                    println!("wrote {} and {}", svg.display(), csv.display());
                }
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
fn cmd_profile(args: &Args) -> Result<(), String> {
    if args.opt("vary").is_some() {
        return Err("profile runs a single configuration; use `evaluate --vary` for sweeps".into());
    }
    let orch = orchestrator_of(args)?;
    let ctx = with_limits(
        args,
        load_context(args)
            .map_err(String::from)?
            .with_obsv(obsv_of(args, true)?),
    )?;
    let spec = build_spec(args)?;
    let seed = args.u64_or("seed", 42)?;
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
    if let Some(path) = args.opt("trace-out") {
        println!("trace written to {path}");
    }
    Ok(())
}

fn cmd_compare(args: &Args) -> Result<i32, String> {
    let orch = orchestrator_of(args)?;
    let ctx = match load_context(args) {
        Ok(ctx) => ctx,
        Err(LoadError::Budget(msg)) => return budget_degraded("compare", &msg),
        Err(LoadError::Other(msg)) => return Err(msg),
    };
    let ctx = with_limits(args, ctx.with_obsv(obsv_of(args, false)?))?;
    let config_path = args.req("config")?;
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
        let chart = result.chart(title, ylabel, |i| indicator_scalar(key, i));
        if args.flag("ascii") {
            print!("{}", export::terminal_xy(&chart));
        }
        if let Some(dir) = args.opt("out-dir") {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
            let stem = Path::new(dir).join(format!("compare_{key}"));
            let (svg, csv) = export::export_xy_chart(&chart, &stem).map_err(|e| e.to_string())?;
            println!("wrote {} and {}", svg.display(), csv.display());
        }
    }
    Ok(degraded_code("compare", out.stats.failures))
}

fn cmd_edit(args: &Args) -> Result<(), String> {
    use secreta_core::data::edit::{EditCommand, EditSession};
    let (mut table, _) = load(args)?;
    let script_path = args.req("script")?;
    let text = std::fs::read_to_string(script_path).map_err(|e| format!("{script_path}: {e}"))?;
    let commands: Vec<EditCommand> =
        serde_json::from_str(&text).map_err(|e| format!("{script_path}: {e}"))?;
    let mut session = EditSession::new();
    for (i, cmd) in commands.iter().enumerate() {
        session
            .apply(&mut table, cmd)
            .map_err(|e| format!("command {}: {e}", i + 1))?;
    }
    let out = args.req("out")?;
    let opts = csv_opts_for(&table);
    dcsv::write_table_path(&table, out, &opts).map_err(|e| e.to_string())?;
    println!(
        "applied {} edit commands; wrote {} rows to {}",
        session.applied(),
        table.n_rows(),
        out
    );
    Ok(())
}

fn cmd_session(args: &Args) -> Result<(), String> {
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
    Ok(())
}
