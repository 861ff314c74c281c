//! The Method Evaluator / Comparator — threaded fan-out of runs.
//!
//! "Based on the selected interface, anonymization algorithm(s) and
//! parameters, this component invokes one or more instances (threads)
//! of the Anonymization Module. After all instances finish, \[it\]
//! collects the anonymization results and forwards them to the
//! Experimentation Module." — the paper's Figure 1, `N threads` box.
//!
//! [`run_many`] executes a batch of independent jobs on a bounded
//! scoped thread pool and returns results in submission order.
//! Workers claim job indices from a shared atomic counter and buffer
//! `(index, result)` pairs locally; the buffers are merged after the
//! scope joins, so no lock is held while jobs execute.
//!
//! `threads` is the whole thread budget of the batch (see
//! [`secreta_parallel`]): `workers = min(threads, jobs)` jobs run at
//! once, and each runs its kernels with a budget of
//! `max(1, threads / workers)`. A batch of at least `threads` jobs
//! therefore runs every kernel inline, and a lone job gets the whole
//! budget.

use crate::anonymizer::{run_isolated, RunError, RunResult};
use crate::config::MethodSpec;
use crate::context::SessionContext;
use secreta_parallel::with_threads;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One unit of work for the evaluator.
#[derive(Debug, Clone)]
pub struct Job {
    /// The configured method.
    pub spec: MethodSpec,
    /// Seed for randomized algorithms.
    pub seed: u64,
}

/// Execute `jobs` against `ctx` within a budget of `threads` threads,
/// returning per-job results in the order submitted.
pub fn run_many(
    ctx: &SessionContext,
    jobs: &[Job],
    threads: usize,
) -> Vec<Result<RunResult, RunError>> {
    run_many_with(ctx, jobs, threads, |_, _| {})
}

/// [`run_many`] plus a completion hook: `on_complete(index, result)`
/// fires on the worker thread the moment each job finishes, before
/// the batch joins. The orchestrator uses it to persist results as
/// they land, so a killed sweep keeps everything completed so far.
/// The hook must be `Sync`; workers call it concurrently.
///
/// Jobs are panic-isolated ([`run_isolated`]): a panicking or
/// deadline-cancelled job yields its typed `Err` and the pool keeps
/// draining the rest of the batch.
pub fn run_many_with(
    ctx: &SessionContext,
    jobs: &[Job],
    threads: usize,
    on_complete: impl Fn(usize, &Result<RunResult, RunError>) + Sync,
) -> Vec<Result<RunResult, RunError>> {
    let workers = threads.clamp(1, jobs.len().max(1));
    let budget = (threads / workers).max(1);
    let run = |i: usize| {
        let r = with_threads(budget, || run_isolated(ctx, &jobs[i].spec, jobs[i].seed));
        on_complete(i, &r);
        r
    };
    if workers == 1 {
        return (0..jobs.len()).map(run).collect();
    }

    let next = AtomicUsize::new(0);
    let mut buffers: Vec<Vec<(usize, Result<RunResult, RunError>)>> = Vec::with_capacity(workers);

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (next, run) = (&next, &run);
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= jobs.len() {
                            break;
                        }
                        local.push((i, run(i)));
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            // jobs are individually isolated, so a worker unwind can
            // only come from the on_complete hook itself
            buffers.push(h.join().expect("evaluator workers do not panic"));
        }
    });

    let mut slots: Vec<Option<Result<RunResult, RunError>>> =
        (0..jobs.len()).map(|_| None).collect();
    for (i, result) in buffers.into_iter().flatten() {
        slots[i] = Some(result);
    }
    slots
        .into_iter()
        .map(|r| r.expect("every job index was claimed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{RelAlgo, TxAlgo};
    use secreta_gen::DatasetSpec;

    fn ctx() -> SessionContext {
        SessionContext::auto(DatasetSpec::adult_like(80, 1).generate(), 4).unwrap()
    }

    fn jobs(ks: &[usize]) -> Vec<Job> {
        ks.iter()
            .map(|&k| Job {
                spec: MethodSpec::Relational {
                    algo: RelAlgo::Cluster,
                    k,
                },
                seed: 7,
            })
            .collect()
    }

    #[test]
    fn results_arrive_in_submission_order() {
        let ctx = ctx();
        let js = jobs(&[2, 4, 8, 16]);
        let out = run_many(&ctx, &js, 4);
        assert_eq!(out.len(), 4);
        for (j, r) in js.iter().zip(&out) {
            let r = r.as_ref().unwrap();
            assert!(r.indicators.avg_class_size >= j.spec.k() as f64);
        }
    }

    #[test]
    fn threaded_matches_sequential() {
        let ctx = ctx();
        let js = jobs(&[2, 4, 8]);
        let seq = run_many(&ctx, &js, 1);
        let par = run_many(&ctx, &js, 3);
        for (a, b) in seq.iter().zip(&par) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.anon, b.anon, "determinism across thread counts");
        }
    }

    #[test]
    fn failures_are_per_job() {
        let ctx = ctx();
        let mut js = jobs(&[2]);
        js.push(Job {
            spec: MethodSpec::Relational {
                algo: RelAlgo::Incognito,
                k: 1_000_000,
            },
            seed: 0,
        });
        let out = run_many(&ctx, &js, 2);
        assert!(out[0].is_ok());
        assert!(out[1].is_err());
    }

    /// The budget reaches the kernels: at `threads = 2` a 3-job sweep
    /// runs every job's kernels inline, while the same job alone gets
    /// both threads and publishes the same table.
    #[test]
    fn sweeps_run_kernels_inline_and_a_lone_job_gets_the_budget() {
        // 300 rows: enough for the support counts to shard in two
        let ctx = SessionContext::auto(DatasetSpec::basket(300, 20, 3).generate(), 3)
            .unwrap()
            .with_obsv(secreta_obsv::ObsvConfig::enabled());
        let job = |k| Job {
            spec: MethodSpec::Transaction {
                algo: TxAlgo::Apriori,
                k,
                m: 2,
            },
            seed: 1,
        };
        let spawned = |r: &Result<RunResult, RunError>| {
            let profile = r.as_ref().unwrap().profile.as_ref();
            let profile = profile.expect("an enabled session records profiles");
            profile.counter("parallel/threads_spawned").unwrap_or(0)
        };
        let sweep = run_many(&ctx, &[job(2), job(3), job(4)], 2);
        for r in &sweep {
            assert_eq!(spawned(r), 0, "a sweep job runs its kernels inline");
        }
        let alone = run_many(&ctx, &[job(2)], 2);
        assert!(spawned(&alone[0]) > 0, "a lone job gets the whole budget");
        assert_eq!(
            alone[0].as_ref().unwrap().anon,
            sweep[0].as_ref().unwrap().anon
        );
    }

    #[test]
    fn empty_job_list() {
        let ctx = ctx();
        assert!(run_many(&ctx, &[], 4).is_empty());
    }
}
