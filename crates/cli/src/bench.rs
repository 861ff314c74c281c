//! The `secreta bench` suite table.
//!
//! Each suite is one [`Suite`] entry: its default sizes and reps, and
//! a function that builds the fixtures of one dataset size (outside
//! every timed region) and hands each case, a list of named variants
//! of the same work, to the harness in [`secreta_bench::report`]. The
//! harness times the variants, checks that they agree, prints the table
//! and writes the report. The table lives in the CLI because `dist`
//! spawns real `secreta worker` processes and loads its session the
//! way `evaluate` does.

use crate::args::Args;
use crate::commands::load_context;
use crate::worker::worker_spawner;
use secreta_bench::report::{self, Bench, Case, Options, Sample, Setup, Suite};
use secreta_core::config::RelAlgo;
use secreta_core::data::{chunk, csv, Counting, CsvOptions, DataError, ItemId, MemoryBudget};
use secreta_core::distributed::{run_distributed, DistOptions};
use secreta_core::metrics::{gcp, PhaseTimer};
use secreta_core::obsv::{self, ObsvConfig, TraceSink};
use secreta_core::parallel::with_threads;
use secreta_core::policy::{generate_privacy, PrivacyPolicy, PrivacyStrategy};
use secreta_core::relational::{
    bottomup, cluster, incognito, topdown, RelError, RelOutput, RelationalInput,
};
use secreta_core::risk::{self, Guarantee, RiskParams};
use secreta_core::store::RunStore;
use secreta_core::transaction::support::InvertedIndex;
use secreta_core::transaction::{self as tx, set_density_threshold, RhoParams, TransactionInput};
use secreta_core::{
    Configuration, Indicators, MethodSpec, Orchestrated, Orchestrator, SessionContext, Sweep,
    VaryingParam,
};
use secreta_gen::{DatasetSpec, WorkloadSpec};
use serde::Value;
use std::cell::{Cell, RefCell};

/// `secreta bench`: run the suite the flags select.
pub(crate) fn cmd_bench(args: &Args) -> Result<i32, String> {
    let name = if args.given("all") {
        "all"
    } else {
        args.text("suite").expect("has a default")
    };
    let suite = SUITES
        .iter()
        .find(|s| s.name == name)
        .expect("--suite names the table's");
    let options = Options {
        rows: rows_of(args)?,
        seed: args.get("seed"),
        threads: args.opt("threads"),
        reps: args.opt("reps"),
        memory_budget_mb: args.opt("memory-budget"),
        out: args.text("out").map(str::to_owned),
        baseline: args.text("baseline").map(str::to_owned),
        gate_pct: args.get("gate-pct"),
    };
    report::run(suite, &options).map(|()| crate::commands::EXIT_OK)
}

/// `--rows N,N,...`, when given.
pub(crate) fn rows_of(args: &Args) -> Result<Option<Vec<usize>>, String> {
    let rows = args.text("rows").map(|list| {
        let parse = |t: &str| t.trim().parse();
        list.split(',')
            .map(|t| parse(t).map_err(|_| format!("--rows expects integers, got {t:?}")))
            .collect()
    });
    rows.transpose()
}

/// Anonymity parameter of every suite.
const K: usize = 10;
/// Adversary knowledge of the transaction suites.
const M: usize = 2;
/// Item universe of the basket dataset.
const ITEMS: usize = 80;
/// Largest size at which `risk` also runs its O(n²) oracle.
const NAIVE_CAP: usize = 2000;
/// Hierarchy fan-out of `rel`: finer levels give the lattice searches
/// more nodes to count.
const REL_FANOUT: usize = 2;
/// Orchestrator threads of `store` and `dist` unless `--threads` is
/// given.
const SWEEP_THREADS: usize = 4;

/// The names `--suite` takes: the suite table's, in its order.
pub(crate) const SUITE_NAMES: [&str; SUITES.len()] = {
    let mut names = [""; SUITES.len()];
    let mut i = 0;
    while i < names.len() {
        names[i] = SUITES[i].name;
        i += 1;
    }
    names
};

const SUITES: &[Suite] = &[
    Suite::new("kernels", &[1000, 10000], 1, kernels),
    Suite::new("store", &[4000], 1, store),
    Suite::new("obsv", &[1000, 10000], 5, obsv),
    Suite::new("tx", &[1000, 10000], 1, tx_kernels),
    Suite::new("tiered", &[1000, 10000], 1, tiered),
    Suite::new("risk", &[1000, 10000], 1, risk_eval),
    Suite::new("scale", &[10000, 100000, 1000000], 1, scale),
    Suite::new("rel", &[1000, 10000], 1, rel),
    Suite::new("dist", &[4000], 1, dist),
    Suite::new("all", &[800], 3, gate),
];

/// An anonymized relational run as a sample.
fn rel_sample(out: Result<RelOutput, RelError>) -> Result<Sample, String> {
    out.map(|o| Sample::of(o.anon).with_phases(o.phases))
        .map_err(|e| e.to_string())
}

/// A generated session with auto hierarchies of the given fan-out.
fn session(spec: DatasetSpec, fanout: usize) -> Result<SessionContext, String> {
    SessionContext::auto(spec.generate(), fanout).map_err(|e| e.to_string())
}

/// The k-anonymity input over a session's quasi-identifiers.
fn rel_input(ctx: &SessionContext) -> RelationalInput<'_> {
    RelationalInput {
        table: &ctx.table,
        qi_attrs: ctx.qi_attrs.clone(),
        hierarchies: ctx.hierarchies.clone(),
        k: K,
    }
}

/// The relational search algorithms with counting kernels.
const REL_ALGOS: &[&str] = &["incognito", "topdown", "bottomup"];

fn run_rel(name: &str, input: &RelationalInput, counting: Counting) -> Result<Sample, String> {
    rel_sample(match name {
        "incognito" => incognito::anonymize_with(input, counting),
        "topdown" => topdown::anonymize_with(input, counting),
        "bottomup" => bottomup::anonymize_with(input, counting),
        other => return Err(format!("unknown algorithm {other:?}")),
    })
}

/// The transaction algorithms, in the order every report lists them.
const TX_ALGOS: &[&str] = &["apriori", "lra", "vpa", "coat", "pcta", "rho", "rho_td"];

/// The basket fixture of the transaction suites.
struct TxFixture {
    ctx: SessionContext,
    params: RhoParams,
    privacy: Option<PrivacyPolicy>,
}

impl TxFixture {
    /// `with_policy` gives COAT/PCTA the paper's policy-driven
    /// workload (`tiered` and the gate); `tx` runs them without one.
    fn build(rows: usize, seed: u64, with_policy: bool) -> Result<Self, String> {
        let ctx = session(DatasetSpec::basket(rows, ITEMS, seed), 4)?;
        // sensitive targets for the rho family: the three rarest items
        let sup = secreta_core::data::stats::item_supports(&ctx.table);
        let mut by_sup: Vec<u32> = (0..sup.len() as u32).collect();
        by_sup.sort_by_key(|&i| (sup[i as usize], i));
        let params = RhoParams {
            rho: 0.5,
            sensitive: by_sup.iter().take(3).map(|&i| ItemId(i)).collect(),
            max_antecedent: 2,
        };
        // pairs of items an adversary may know together, sampled from
        // real transactions so every constraint has live support to
        // push over k: COAT/PCTA's support checks then intersect group
        // row sets instead of just counting single unions
        let privacy = with_policy.then(|| {
            generate_privacy(
                &ctx.table,
                &PrivacyStrategy::RandomItemsets {
                    size: 2,
                    count: (rows / 4).clamp(25, 400),
                    seed,
                },
            )
        });
        Ok(TxFixture {
            ctx,
            params,
            privacy,
        })
    }

    /// Run one named algorithm under the given counting strategy.
    fn run(&self, name: &str, counting: Counting) -> Result<Sample, String> {
        let table = &self.ctx.table;
        let h = self
            .ctx
            .item_hierarchy
            .as_ref()
            .expect("baskets have items");
        let km = TransactionInput::km(table, K, M, h);
        let plain = TransactionInput {
            table,
            k: K,
            m: 1,
            hierarchy: None,
            privacy: self.privacy.as_ref(),
            utility: None,
        };
        let one = TransactionInput {
            k: 1,
            privacy: None,
            ..plain
        };
        let td = TransactionInput::km(table, 1, 1, h);
        let out = match name {
            "apriori" => tx::apriori::anonymize_with(&km, counting),
            "lra" => tx::lra::anonymize_with(&km, 2, counting),
            "vpa" => tx::vpa::anonymize_with(&km, 4, counting),
            "coat" => tx::coat::anonymize_with(&plain, counting),
            "pcta" => tx::pcta::anonymize_with(&plain, counting),
            "rho" => tx::rho::anonymize_with(&one, &self.params, counting),
            "rho_td" => tx::rho_td::anonymize_with(&td, &self.params, counting),
            other => return Err(format!("unknown algorithm {other:?}")),
        };
        out.map(|o| Sample::of(o.anon).with_phases(o.phases))
            .map_err(|e| e.to_string())
    }
}

/// The fixed parameters of the basket suites.
fn tx_params(bench: &mut Bench) {
    bench.param("k", K as f64);
    bench.param("m", M as f64);
    bench.param("items", ITEMS as f64);
}

/// Cluster's hot path: the retained pre-optimization implementation vs
/// the kernels (Euler-tour LCA, leaf matrix, per-leaf cost tables).
fn kernels(s: &Setup, bench: &mut Bench) -> Result<(), String> {
    bench.param("k", K as f64);
    let ctx = session(DatasetSpec::adult_like(s.rows, s.options.seed), 4)?;
    let input = rel_input(&ctx);
    bench.case(
        Case::new("rel/cluster")
            .variant("reference", || {
                rel_sample(cluster::anonymize_reference(&input, s.options.seed))
            })
            .variant("kernel", || {
                rel_sample(cluster::anonymize(&input, s.options.seed))
            }),
    )
}

/// Every transaction algorithm, naive reference counters vs the
/// interned/sharded support kernels, the kernels also pinned to thread
/// budgets of 1 and 2 (the sharded support counts are the parallel
/// site these cases time).
fn tx_kernels(s: &Setup, bench: &mut Bench) -> Result<(), String> {
    tx_params(bench);
    let fx = TxFixture::build(s.rows, s.options.seed, false)?;
    for &name in TX_ALGOS {
        let kernel = || fx.run(name, Counting::Kernel);
        bench.case(
            Case::new(format!("tx/{name}"))
                .variant("naive", || fx.run(name, Counting::Naive))
                .variant("threads=1", move || with_threads(1, kernel))
                .variant("threads=2", move || with_threads(2, kernel))
                .variant("kernel", kernel),
        )?;
    }
    Ok(())
}

/// Every transaction algorithm, pure-CSR kernels vs the tiered
/// bitmap/CSR kernels.
fn tiered(s: &Setup, bench: &mut Bench) -> Result<(), String> {
    tx_params(bench);
    let fx = TxFixture::build(s.rows, s.options.seed, true)?;
    for &name in TX_ALGOS {
        bench.case(
            Case::new(format!("tx/{name}"))
                .variant("csr", || {
                    // no item clears a density bar above 1.0: the
                    // kernels degenerate to their pure-CSR paths
                    set_density_threshold(Some(2.0));
                    let out = fx.run(name, Counting::Kernel);
                    set_density_threshold(None);
                    out
                })
                .variant("tiered", || fx.run(name, Counting::Kernel)),
        )?;
    }
    Ok(())
}

/// Incognito, Top-down and Bottom-up, naive rescan-per-check counting
/// vs the partition-rollup kernels.
fn rel(s: &Setup, bench: &mut Bench) -> Result<(), String> {
    bench.param("k", K as f64);
    bench.param("fanout", REL_FANOUT as f64);
    let ctx = session(DatasetSpec::census(s.rows, s.options.seed), REL_FANOUT)?;
    let input = rel_input(&ctx);
    for &name in REL_ALGOS {
        bench.case(
            Case::new(format!("rel/{name}"))
                .variant("naive", || run_rel(name, &input, Counting::Naive))
                .variant("kernel", || run_rel(name, &input, Counting::Kernel)),
        )?;
    }
    Ok(())
}

/// Attack-side evaluation against the anonymization it audits: Apriori
/// at k^m and COAT under the all-items privacy policy, then the full
/// risk block on each output, through the O(n²) oracle (small tables
/// only) and through the kernels, also pinned to thread budgets of 1
/// and 2 (the m-item attack's sharded row walk).
fn risk_eval(s: &Setup, bench: &mut Bench) -> Result<(), String> {
    bench.param("k", K as f64);
    bench.param("m", M as f64);
    bench.param("naive_cap", NAIVE_CAP as f64);
    let ctx = session(DatasetSpec::adversarial(s.rows, s.options.seed), 4)?;
    let h = ctx
        .item_hierarchy
        .as_ref()
        .expect("adversarial rows have items");
    let km = TransactionInput::km(&ctx.table, K, M, h);
    let plain = TransactionInput {
        table: &ctx.table,
        k: K,
        m: 1,
        hierarchy: None,
        privacy: None,
        utility: None,
    };
    // COAT without a policy protects every item, the policy its audit
    // checks
    let policy = &PrivacyPolicy::all_items(&ctx.table);
    let params = RiskParams::default();
    let cases = [
        ("apriori", Guarantee::KmAnonymity { k: K, m: M }),
        ("coat", Guarantee::Policy { k: K, policy }),
    ];
    for (name, guarantee) in &cases {
        let anonymize = || match *name {
            "apriori" => tx::apriori::anonymize(&km),
            _ => tx::coat::anonymize(&plain),
        };
        // the output the risk variants audit and its classes, produced
        // outside their timed regions
        let anon = anonymize().map_err(|e| e.to_string())?.anon;
        let classes = anon.equivalence_classes();
        let evaluate = |counting: Counting| -> Result<Sample, String> {
            let risk = risk::evaluate(
                &ctx.table,
                &anon,
                &classes,
                Some(h),
                guarantee,
                &params,
                counting,
            );
            Ok(Sample::of(risk))
        };
        let mut case = Case::new(format!("risk/{name}")).variant("anonymize", || {
            anonymize()
                .map(|o| Sample::default().with_phases(o.phases))
                .map_err(|e| e.to_string())
        });
        if s.rows <= NAIVE_CAP {
            case = case.variant("naive", move || evaluate(Counting::Naive));
        }
        let kernel = move || evaluate(Counting::Kernel);
        bench.case(
            case.variant("threads=1", move || with_threads(1, kernel))
                .variant("threads=2", move || with_threads(2, kernel))
                .variant("kernel", kernel),
        )?;
    }
    Ok(())
}

/// Observability cost: the Cluster hot path with the recorder
/// installed but disabled (the production default), enabled, and
/// streaming an in-memory NDJSON trace.
fn obsv(s: &Setup, bench: &mut Bench) -> Result<(), String> {
    bench.param("k", K as f64);
    let ctx = session(DatasetSpec::adult_like(s.rows, s.options.seed), 4)?;
    let input = rel_input(&ctx);
    let (sink, _trace) = TraceSink::buffer();
    let run = |cfg: ObsvConfig| -> Result<Sample, String> {
        let rec = cfg.recorder();
        let guard = obsv::install(&rec);
        let out = cluster::anonymize(&input, s.options.seed).map_err(|e| e.to_string())?;
        drop(guard);
        let counters = rec.finish("bench").map_or(0, |p| p.counters.len());
        Ok(Sample::of(out.anon)
            .with_phases(out.phases)
            .extra("counters_recorded", counters as f64))
    };
    bench.case(
        Case::new("rel/cluster")
            .variant("disabled", || run(ObsvConfig::disabled()))
            .variant("enabled", || run(ObsvConfig::enabled()))
            .variant("traced", || run(ObsvConfig::with_trace(sink.clone()))),
    )
}

/// One scale point: chunked ingest, materialization and the CSR
/// inverted index, each a phase.
fn scale_point(spec: &DatasetSpec, budget: MemoryBudget) -> Result<Sample, DataError> {
    let mut timer = PhaseTimer::new();
    let chunked = spec.generate_chunked(chunk::chunk_rows(), budget)?;
    timer.phase("ingest");
    let accounted = chunked.stats().peak_accounted_bytes;
    let table = chunked.into_table()?;
    timer.phase("materialize");
    let all: Vec<usize> = (0..table.n_rows()).collect();
    let index = InvertedIndex::build(&table, &all, table.item_universe(), |_| true);
    timer.phase("index");
    assert_eq!(index.n_rows(), table.n_rows());
    Ok(Sample::default()
        .with_phases(timer.finish())
        .extra("budget_exceeded", 0.0)
        .extra("accounted_peak_bytes", accounted as f64)
        .extra("table_bytes", table.estimated_bytes() as f64))
}

/// Rows vs time vs memory of the chunked ingest path. The harness runs
/// sizes in ascending order, which this suite needs: peak RSS is a
/// process-wide high-water mark, so each point's `peak_rss_bytes` is
/// the peak *up to* that point, while `accounted_peak_bytes` is the
/// deterministic data-layer figure for the point alone.
fn scale(s: &Setup, bench: &mut Bench) -> Result<(), String> {
    bench.param("chunk_rows", chunk::chunk_rows() as f64);
    if let Some(mb) = s.options.memory_budget_mb {
        bench.param("memory_budget_mb", mb as f64);
    }
    let spec = DatasetSpec::adult_like(s.rows, s.options.seed);
    bench.case(Case::new("scale/adult").variant("chunked", || {
        let budget = s
            .options
            .memory_budget_mb
            .map_or_else(MemoryBudget::unlimited, MemoryBudget::megabytes);
        let sample = match scale_point(&spec, budget) {
            Ok(sample) => sample,
            // running out of a declared budget is a recorded outcome,
            // not a crash: the suite goes on with the next point
            Err(DataError::BudgetExceeded {
                budget_bytes,
                needed_bytes,
            }) => Sample::default()
                .extra("budget_exceeded", 1.0)
                .extra("budget_bytes", budget_bytes as f64)
                .extra("needed_bytes", needed_bytes as f64),
            Err(e) => return Err(e.to_string()),
        };
        Ok(match secreta_core::obsv::mem::peak_rss_bytes() {
            Some(bytes) => sample.extra("peak_rss_bytes", bytes as f64),
            None => sample,
        })
    }))
}

/// The ten-job sweep of `store` and `dist` (Cluster and Top-down over
/// k = 2, 4, ..., 10) with its job count and orchestrator threads, both
/// recorded as parameters.
fn sweep(s: &Setup, bench: &mut Bench) -> (Vec<Configuration>, usize, usize) {
    let sweep = Sweep {
        param: VaryingParam::K,
        start: 2,
        end: 10,
        step: 2,
    };
    let configs: Vec<Configuration> = [RelAlgo::Cluster, RelAlgo::TopDown]
        .into_iter()
        .map(|algo| {
            Configuration::new(MethodSpec::Relational { algo, k: 0 }, sweep, s.options.seed)
        })
        .collect();
    let jobs = configs.len() * sweep.values().len();
    let threads = s.options.threads.unwrap_or(SWEEP_THREADS);
    bench.param("jobs", jobs as f64);
    bench.param("sweep_threads", threads as f64);
    (configs, jobs, threads)
}

/// Every sweep point's indicators, `None` for a failed point.
fn indicators(out: &Orchestrated) -> Vec<Option<Indicators>> {
    let points = out.result.points.iter().flatten();
    points
        .map(|(_, r)| r.as_ref().ok().map(|p| p.indicators.clone()))
        .collect()
}

/// Cold vs warm cache on the orchestrated comparison path: each cold
/// pass executes every job into a fresh store, and the warm pass after
/// it must replay every job from that store.
fn store(s: &Setup, bench: &mut Bench) -> Result<(), String> {
    let ctx = session(DatasetSpec::adult_like(s.rows, s.options.seed), 4)?;
    let workload = WorkloadSpec {
        n_queries: 50,
        seed: s.options.seed,
        ..Default::default()
    }
    .generate(&ctx.table);
    let ctx = ctx.with_workload(workload);
    let (configs, jobs, threads) = sweep(s, bench);
    let sample = |out: &Orchestrated| {
        Sample::of(indicators(out))
            .extra("hits", out.stats.hits as f64)
            .extra("misses", out.stats.misses as f64)
            .extra("failures", out.stats.failures as f64)
    };
    let filled = RefCell::new(None::<Orchestrator>);
    let mut fresh = 0;
    bench.case(
        Case::new("store/sweep")
            .variant("cold", || {
                fresh += 1;
                let dir = s.scratch.join(format!("store-{}-{fresh}", s.rows));
                let store = RunStore::open(dir).map_err(|e| e.to_string())?;
                let orch = Orchestrator::new(threads).with_store(store);
                let out = orch
                    .compare(&ctx, &configs, Value::Null)
                    .map_err(|e| e.to_string())?;
                *filled.borrow_mut() = Some(orch);
                Ok(sample(&out))
            })
            .variant("warm", || {
                let orch = filled.borrow();
                let out = orch
                    .as_ref()
                    .expect("the cold pass runs first")
                    .compare(&ctx, &configs, Value::Null)
                    .map_err(|e| e.to_string())?;
                if out.stats.misses != 0 || out.stats.hits as usize != jobs {
                    return Err(format!(
                        "warm pass was not a full cache hit: {} hits, {} misses of {jobs} jobs",
                        out.stats.hits, out.stats.misses
                    ));
                }
                Ok(sample(&out))
            }),
    )
}

/// Distributed execution: the same sweep through the in-process
/// orchestrator and through the coordinator with 1, 2 and 4 spawned
/// worker processes, each against a fresh store. Every pass must
/// reproduce the in-process indicators (run times aside).
fn dist(s: &Setup, bench: &mut Bench) -> Result<(), String> {
    // workers are separate processes: they need the dataset as a file,
    // loaded through the exact same path the coordinator uses, so the
    // context digests agree
    let data = s.scratch.join(format!("dist-{}.csv", s.rows));
    let table = DatasetSpec::adult_like(s.rows, s.options.seed).generate();
    csv::write_table_path(&table, &data, &CsvOptions::default()).map_err(|e| e.to_string())?;
    let (path, seed) = (data.display().to_string(), s.options.seed.to_string());
    let flags = ["--tx", "Items", "--queries", "50", "--seed", &seed];
    let args = ["worker", &path]
        .into_iter()
        .chain(flags)
        .map(str::to_owned);
    let session = Args::parse(args)?;
    let ctx = load_context(&session).map_err(String::from)?;
    let (configs, jobs, threads) = sweep(s, bench);
    let fresh = Cell::new(0);
    let store = || {
        fresh.set(fresh.get() + 1);
        let dir = s.scratch.join(format!("dist-{}-{}", s.rows, fresh.get()));
        RunStore::open(dir).map_err(|e| e.to_string())
    };
    let sample = |out: &Orchestrated| {
        let mut points = indicators(out);
        for i in points.iter_mut().flatten() {
            i.runtime_ms = 0.0;
        }
        Sample::of(points)
    };
    let (ctx, configs, session) = (&ctx, &configs, &session);
    let mut case = Case::new("dist/sweep").variant("in-process", || {
        let orch = Orchestrator::new(threads).with_store(store()?);
        let out = orch
            .compare(ctx, configs, Value::Null)
            .map_err(|e| e.to_string())?;
        Ok(sample(&out))
    });
    for (name, workers) in [("1 worker", 1), ("2 workers", 2), ("4 workers", 4)] {
        case = case.variant(name, move || {
            let store = store()?;
            let opts = DistOptions {
                workers,
                ..DistOptions::default()
            };
            let mut forwarded = session.forward();
            forwarded.extend(["--store-dir".to_owned(), store.root().display().to_string()]);
            let spawner = worker_spawner(forwarded);
            let out = run_distributed(ctx, &store, configs, Value::Null, &opts, Some(&spawner))
                .map_err(|e| e.to_string())?;
            if out.stats.failures != 0 || out.stats.misses as usize != jobs {
                return Err(format!(
                    "distributed pass with {workers} worker(s) did not execute \
                     every job: {} executed, {} failed of {jobs}",
                    out.stats.misses, out.stats.failures
                ));
            }
            Ok(sample(&out))
        });
    }
    bench.case(case)
}

/// The perf gate (`--all`): one small workload per layer — Cluster,
/// the relational kernels, every transaction algorithm on the tiered
/// kernels under a live privacy policy, and the GCP metric — each a
/// single production variant compared against `benches/baseline.json`.
fn gate(s: &Setup, bench: &mut Bench) -> Result<(), String> {
    tx_params(bench);
    let ctx = session(DatasetSpec::adult_like(s.rows, s.options.seed), 4)?;
    let input = rel_input(&ctx);
    // a finished Cluster run feeds the metrics/gcp case
    let clustered = cluster::anonymize(&input, s.options.seed).map_err(|e| e.to_string())?;
    let fx = TxFixture::build(s.rows, s.options.seed, true)?;
    bench.case(Case::new("rel/cluster").variant("run", || {
        rel_sample(cluster::anonymize(&input, s.options.seed))
    }))?;
    for &name in REL_ALGOS {
        bench.case(
            Case::new(format!("rel/{name}"))
                .variant("run", || run_rel(name, &input, Counting::Kernel)),
        )?;
    }
    for &name in TX_ALGOS {
        bench.case(
            Case::new(format!("tx/{name}")).variant("run", || fx.run(name, Counting::Kernel)),
        )?;
    }
    bench.case(Case::new("metrics/gcp").variant("run", || {
        // one evaluation is tens of microseconds — far below timer
        // noise; a fixed inner repeat lifts the case into a range the
        // regression gate can meaningfully compare
        for _ in 0..100 {
            let g = gcp(&ctx.table, &clustered.anon, |a| {
                ctx.hierarchy_of(a).cloned()
            });
            std::hint::black_box(g);
        }
        Ok(Sample::default())
    }))
}
