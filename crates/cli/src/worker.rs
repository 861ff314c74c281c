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
use crate::commands::{load_context, with_limits, EXIT_DEGRADED, EXIT_OK};
use secreta_core::distributed::{run_distributed, wait_for_sweep, worker_loop, DistOptions};
use secreta_core::store::{unfinished_sweeps, JournalEvent, RunStore};
use secreta_core::{context_digest, Configuration, Orchestrated, Orchestrator, SessionContext};
use serde::Value;
use std::process::{Child, Command, Stdio};

/// The lease-protocol options shared by the coordinator
/// (`evaluate`/`compare` with `--workers`/`--distributed`) and the
/// `worker` verb, which spawns no workers.
fn dist_options_of(args: &Args, workers: usize) -> DistOptions {
    DistOptions {
        lease_ttl_ms: args.get("lease-ttl-ms"),
        poll_ms: args.get("poll-ms"),
        workers,
        worker_wait_ms: args.get("wait-ms"),
    }
}

/// Whether a coordinator's sweep runs on worker processes.
pub(crate) fn distributed(args: &Args) -> bool {
    args.get::<usize>("workers") > 0 || args.given("distributed")
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
    let opts = dist_options_of(args, args.get("workers"));
    let Some(store) = orch.store().filter(|_| distributed(args)) else {
        return orch
            .compare(ctx, configurations, invocation)
            .map_err(|e| e.to_string());
    };
    let spawner = worker_spawner(args.forward());
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

/// `secreta worker`: attach to a distributed sweep and execute its
/// jobs until none remain. Without
/// `--sweep`, the worker waits for an open sweep whose recorded
/// context matches this session.
pub(crate) fn cmd_worker(args: &Args) -> Result<i32, String> {
    let ctx = with_limits(args, load_context(args).map_err(String::from)?);
    let ctx = ctx.with_obsv(crate::commands::obsv_of(args, false)?);
    let dir = args.text("store-dir").expect("--store-dir has a default");
    let store = RunStore::open(dir).map_err(|e| e.to_string())?;
    let opts = dist_options_of(args, 0);
    let sweep = match args.text("sweep") {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Args {
        let parsed = Args::parse(tokens.iter().map(|t| t.to_string()));
        parsed.unwrap_or_else(|e| panic!("{tokens:?}: {e}"))
    }

    /// What a coordinator forwards parses under `worker`'s declaration,
    /// carries every flag `load_context` reads, and leaves the rest
    /// behind: the coordinator's and the workers' context digests
    /// cannot diverge.
    #[test]
    fn forwarded_flags_rebuild_the_coordinators_session() {
        let dir = std::env::temp_dir().join(format!("secreta-forward-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.csv");
        let table = secreta_gen::DatasetSpec::adult_like(80, 3).generate();
        secreta_core::data::csv::write_table_path(&table, &data, &Default::default()).unwrap();
        let data = data.to_str().unwrap();
        let session = [
            "--tx",
            "Items",
            "--fanout",
            "3",
            "--queries",
            "5",
            "--seed",
            "9",
        ];
        let operational = [
            "--memory-budget",
            "64",
            "--job-timeout-ms",
            "60000",
            "--store-dir",
            "s",
            "--lease-ttl-ms",
            "900",
            "--poll-ms",
            "10",
            "--wait-ms",
            "50",
        ];
        let left_behind = [
            "--mode",
            "rel",
            "--k",
            "3",
            "--threads",
            "2",
            "--vary",
            "k",
            "--ascii",
            "--out-dir",
            "charts",
            "--trace-out",
            "t.ndjson",
            "--workers",
            "2",
        ];
        let coordinator: Vec<&str> = ["evaluate", data]
            .into_iter()
            .chain(session)
            .chain(operational)
            .chain(left_behind)
            .collect();
        let coordinator = parse(&coordinator);
        let forwarded = coordinator.forward();
        let mut worker = vec!["worker"];
        worker.extend(forwarded.iter().map(String::as_str));
        let worker = parse(&worker);
        let expected: Vec<&str> = [data]
            .into_iter()
            .chain(session)
            .chain(operational)
            .collect();
        assert_eq!(forwarded, expected);
        let digest = |args: &Args| context_digest(&load_context(args).ok().unwrap());
        assert_eq!(digest(&coordinator), digest(&worker));
        std::fs::remove_dir_all(&dir).ok();

        // a session file travels the same way
        let coordinator = parse(&["compare", "--session", "s.json", "--config", "c.json"]);
        let mut worker = vec!["worker"];
        let forwarded = coordinator.forward();
        worker.extend(forwarded.iter().map(String::as_str));
        assert_eq!(parse(&worker).text("session"), Some("s.json"));
    }
}
