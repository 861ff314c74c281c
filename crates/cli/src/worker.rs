//! `secreta worker` — a distributed-sweep worker process, plus the
//! coordinator-side glue (`--workers` / `--distributed`) and the
//! `bench --suite dist` scaling suite.
//!
//! A worker rebuilds the session context from the same dataset/session
//! arguments its coordinator used (the context digest recorded in the
//! sweep's journal intent must match, or the worker refuses), then
//! claims jobs through crash-safe lease files until the sweep drains.
//! Workers can be started before or after the coordinator: they poll
//! the journal for up to `--wait-ms` for the sweep to appear.

use crate::args::Args;
use crate::commands::{load_context, with_limits, DEFAULT_STORE_DIR, EXIT_DEGRADED, EXIT_OK};
use secreta_core::distributed::{run_distributed, wait_for_sweep, worker_loop, DistOptions};
use secreta_core::store::{unfinished_sweeps, JournalEvent, RunStore};
use secreta_core::{context_digest, Configuration, Orchestrated, Orchestrator, SessionContext};
use serde::Value;
use std::process::{Child, Command, Stdio};

/// Parse the distributed-execution options shared by the coordinator
/// (`evaluate`/`compare` with `--workers`/`--distributed`) and the
/// `worker` verb.
pub(crate) fn dist_options_of(args: &Args) -> Result<DistOptions, String> {
    let defaults = DistOptions::default();
    let opts = DistOptions {
        lease_ttl_ms: args.u64_or("lease-ttl-ms", defaults.lease_ttl_ms)?,
        poll_ms: args.u64_or("poll-ms", defaults.poll_ms)?,
        workers: args.usize_or("workers", 0)?,
        worker_wait_ms: args.u64_or("wait-ms", defaults.worker_wait_ms)?,
    };
    if opts.lease_ttl_ms == 0 {
        return Err("--lease-ttl-ms expects a positive number of milliseconds".into());
    }
    Ok(opts)
}

/// Run `configurations` through the in-process orchestrator, or — when
/// `--workers N` / `--distributed` is given — through the distributed
/// coordinator, spawning `N` local `secreta worker` processes that
/// re-execute this invocation's session arguments.
pub(crate) fn run_sweep(
    args: &Args,
    ctx: &SessionContext,
    orch: &Orchestrator,
    configurations: &[Configuration],
    invocation: Value,
) -> Result<Orchestrated, String> {
    let opts = dist_options_of(args)?;
    if opts.workers == 0 && !args.flag("distributed") {
        return orch
            .compare(ctx, configurations, invocation)
            .map_err(|e| e.to_string());
    }
    let store = orch
        .store()
        .ok_or("--workers/--distributed requires --store-dir")?;
    if args.flag("no-cache") {
        return Err(
            "--no-cache is not supported with distributed execution: workers \
             serve and fill the shared store by design"
                .into(),
        );
    }
    let forwarded = args.forward(&[
        "workers",
        "distributed",
        "no-cache",
        "out-dir",
        "export-anon",
        "ascii",
        "trace-out",
        "config",
        "threads",
    ]);
    let spawner = worker_spawner(forwarded);
    let spawn_ref = (opts.workers > 0).then_some(&spawner as &secreta_core::WorkerSpawner);
    run_distributed(ctx, store, configurations, invocation, &opts, spawn_ref)
        .map_err(|e| e.to_string())
}

/// The worker spawner of a coordinator: worker `i` of a sweep is this
/// binary re-run as `secreta worker <forwarded> --sweep ID`.
fn worker_spawner(forwarded: Vec<String>) -> impl Fn(usize, &str) -> std::io::Result<Child> + Sync {
    move |i, sweep| {
        let child = Command::new(std::env::current_exe()?)
            .arg("worker")
            .args(&forwarded)
            .args(["--sweep", sweep])
            // the worker's own output would interleave with the
            // coordinator's report; chaos/abort messages stay visible
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()?;
        eprintln!("spawned worker {} (pid {})", i + 1, child.id());
        Ok(child)
    }
}

/// `secreta worker DATA [--tx COL] [--store-dir DIR] [--sweep ID]
/// [--lease-ttl-ms MS] [--poll-ms MS] [--wait-ms MS]`: attach to a
/// distributed sweep and execute its jobs until none remain. Without
/// `--sweep`, the worker waits for an open sweep whose recorded
/// context matches this session.
pub(crate) fn cmd_worker(args: &Args) -> Result<i32, String> {
    let ctx = with_limits(args, load_context(args).map_err(String::from)?)?;
    let ctx = {
        let obsv = crate::commands::obsv_of(args, false)?;
        ctx.with_obsv(obsv)
    };
    let dir = args.opt("store-dir").unwrap_or(DEFAULT_STORE_DIR);
    let store = RunStore::open(dir).map_err(|e| e.to_string())?;
    let opts = dist_options_of(args)?;
    let sweep = match args.opt("sweep") {
        Some(id) => id.to_owned(),
        None => {
            // the newest open sweep whose recorded context matches
            let digest = context_digest(&ctx);
            let newest_open = |events: &[JournalEvent]| {
                unfinished_sweeps(events)
                    .into_iter()
                    .rfind(|rec| rec.context == digest)
            };
            wait_for_sweep(&store, newest_open, &opts)
                .map_err(|e| e.to_string())?
                .ok_or_else(|| {
                    format!(
                        "no open sweep matching this session appeared in {} within \
                         {}ms; start the coordinator (evaluate/compare --distributed) \
                         or pass --sweep ID",
                        store.root().display(),
                        opts.worker_wait_ms
                    )
                })?
                .id
        }
    };
    println!(
        "worker {} attaching to sweep {} in {}",
        std::process::id(),
        sweep,
        store.root().display()
    );
    let report = worker_loop(&ctx, &store, &sweep, &opts).map_err(|e| e.to_string())?;
    println!(
        "worker {} done: {} claimed, {} executed, {} failed, {} reclaimed, \
         {} conflicts, {} fenced, {} backoffs",
        std::process::id(),
        report.claimed,
        report.executed,
        report.failed,
        report.reclaimed,
        report.conflicts,
        report.fenced,
        report.backoffs,
    );
    Ok(if report.failed > 0 {
        EXIT_DEGRADED
    } else {
        EXIT_OK
    })
}

/// `bench --suite dist`: distributed-execution scaling — the same
/// two-algorithm k-sweep through the in-process orchestrator and
/// through the coordinator with 1, 2 and 4 spawned worker processes,
/// each against a fresh store. Reports wall times, the single-worker
/// lease/process overhead, scaling across worker counts, and whether
/// every mode produced identical indicators. `--json` writes the
/// report to `BENCH_9.json` (override with `--out`).
pub(crate) fn bench_dist(args: &Args) -> Result<(), String> {
    use secreta_core::config::RelAlgo;
    use secreta_core::sweep::VaryingParam;
    use secreta_core::{MethodSpec, Sweep};
    use std::fmt::Write as _;
    use std::time::Instant;

    let rows = args.usize_or("rows", 4000)?;
    let seed = args.u64_or("seed", 42)?;
    let threads = args.usize_or("threads", 4)?;
    let scratch = std::env::temp_dir().join(format!("secreta-bench-dist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).map_err(|e| e.to_string())?;

    // workers are separate processes: they need the dataset as a file,
    // loaded through the exact same path the coordinator uses, so the
    // context digests agree
    let data = scratch.join("bench-dist.csv");
    {
        let table = secreta_gen::DatasetSpec::adult_like(rows, seed).generate();
        secreta_core::data::csv::write_table_path(
            &table,
            &data,
            &secreta_core::data::CsvOptions::default(),
        )
        .map_err(|e| e.to_string())?;
    }
    let session_args = Args {
        command: "worker".to_owned(),
        positional: vec![data.display().to_string()],
        options: [
            ("tx".to_owned(), "Items".to_owned()),
            ("queries".to_owned(), "50".to_owned()),
            ("seed".to_owned(), seed.to_string()),
        ]
        .into_iter()
        .collect(),
    };
    let ctx = with_limits(
        &session_args,
        load_context(&session_args).map_err(String::from)?,
    )?;

    let sweep = Sweep {
        param: VaryingParam::K,
        start: 2,
        end: 10,
        step: 2,
    };
    let configs = vec![
        Configuration::new(
            MethodSpec::Relational {
                algo: RelAlgo::Cluster,
                k: 0,
            },
            sweep,
            seed,
        ),
        Configuration::new(
            MethodSpec::Relational {
                algo: RelAlgo::TopDown,
                k: 0,
            },
            sweep,
            seed,
        ),
    ];
    let jobs: usize = configs.len() * sweep.values().len();
    println!("distributed execution benchmark (adult-like, {rows} rows, {jobs} jobs)");

    // baseline: the in-process orchestrator on `threads` threads
    let solo_store = RunStore::open(scratch.join("solo")).map_err(|e| e.to_string())?;
    let orch = Orchestrator::new(threads).with_store(solo_store);
    let t0 = Instant::now();
    let solo = orch
        .compare(&ctx, &configs, Value::Null)
        .map_err(|e| e.to_string())?;
    let solo_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!("  in-process ({threads} threads): {solo_ms:>9.1}ms");

    let mut dist_ms: Vec<(usize, f64)> = Vec::new();
    let mut identical = true;
    for workers in [1usize, 2, 4] {
        let store =
            RunStore::open(scratch.join(format!("w{workers}"))).map_err(|e| e.to_string())?;
        let opts = DistOptions {
            workers,
            ..DistOptions::default()
        };
        let mut forwarded = session_args.forward(&[]);
        forwarded.extend(["--store-dir".to_owned(), store.root().display().to_string()]);
        let spawner = worker_spawner(forwarded);
        let t = Instant::now();
        let out = run_distributed(&ctx, &store, &configs, Value::Null, &opts, Some(&spawner))
            .map_err(|e| e.to_string())?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if out.stats.failures != 0 || out.stats.misses as usize != jobs {
            return Err(format!(
                "distributed pass with {workers} worker(s) did not execute \
                 every job: {} executed, {} failed of {jobs}",
                out.stats.misses, out.stats.failures
            ));
        }
        identical &= solo
            .result
            .points
            .iter()
            .zip(&out.result.points)
            .all(|(a, b)| {
                a.iter().zip(b).all(|((_, ar), (_, br))| match (ar, br) {
                    (Ok(x), Ok(y)) => {
                        let (mut x, mut y) = (x.indicators.clone(), y.indicators.clone());
                        x.runtime_ms = 0.0;
                        y.runtime_ms = 0.0;
                        x == y
                    }
                    _ => false,
                })
            });
        println!("  {workers} worker(s): {ms:>9.1}ms");
        dist_ms.push((workers, ms));
    }
    let overhead_pct = (dist_ms[0].1 - solo_ms) / solo_ms.max(1e-9) * 100.0;
    let scaling = dist_ms[0].1 / dist_ms.last().map(|(_, ms)| *ms).unwrap_or(1.0).max(1e-9);
    println!(
        "  1-worker overhead vs in-process: {overhead_pct:+.1}%  \
         1→4 worker speedup: {scaling:.2}x  indicators identical: {identical}"
    );
    if !identical {
        let _ = std::fs::remove_dir_all(&scratch);
        return Err("distributed results diverged from the in-process baseline".into());
    }

    if args.flag("json") || args.opt("out").is_some() {
        let path = args.opt("out").unwrap_or("BENCH_9.json");
        let mut body = String::new();
        let _ = write!(
            body,
            "{{\n  \"suite\": \"dist\",\n  \"dataset\": \"adult-like\",\n  \
             \"rows\": {rows},\n  \"seed\": {seed},\n  \"threads\": {threads},\n  \
             \"configurations\": [\"Cluster\", \"TopDown\"],\n  \
             \"sweep\": {{\"param\": \"k\", \"start\": {}, \"end\": {}, \"step\": {}}},\n  \
             \"jobs\": {jobs},\n  \"in_process_ms\": {solo_ms:.3},\n  \
             \"workers\": [",
            sweep.start, sweep.end, sweep.step,
        );
        for (i, (workers, ms)) in dist_ms.iter().enumerate() {
            let _ = write!(
                body,
                "{}\n    {{\"workers\": {workers}, \"wall_ms\": {ms:.3}}}",
                if i == 0 { "" } else { "," },
            );
        }
        let _ = write!(
            body,
            "\n  ],\n  \"one_worker_overhead_pct\": {overhead_pct:.3},\n  \
             \"one_to_four_speedup\": {scaling:.3},\n  \
             \"indicators_identical\": {identical}\n}}\n",
        );
        serde_json::parse_value(&body)
            .map_err(|e| format!("internal error: produced invalid JSON: {e}"))?;
        std::fs::write(path, body).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
    }
    let _ = std::fs::remove_dir_all(&scratch);
    Ok(())
}
