//! `secreta worker` — a distributed-sweep worker process, plus the
//! coordinator-side glue (`--workers` / `--distributed`) and the worker
//! spawner the `bench --suite dist` suite shares.
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
pub(crate) fn worker_spawner(
    forwarded: Vec<String>,
) -> impl Fn(usize, &str) -> std::io::Result<Child> + Sync {
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
