//! Distributed sweep execution: the worker executor of the
//! orchestrator's sweep frame, and the worker processes it relies on.
//!
//! [`run_distributed`] runs the *same* frame as
//! [`Orchestrator::compare`](crate::orchestrator::Orchestrator::compare)
//! — store lock, journaled intent, cache hits, failure accounting,
//! `SweepFinished`, reassembly — and differs only in how the misses
//! execute. Instead of a thread pool, independent worker processes
//! that share nothing but the store directory run them:
//!
//! * **Worker executor** (the coordinator side) — publishes one
//!   claimable [`JobRecord`] per miss, optionally spawns local worker
//!   processes, then watches the store fill in. Results are merged
//!   from the store in deterministic expansion order, so the output is
//!   byte-identical to a single-process run no matter which worker
//!   executed what — or how many of them crashed along the way.
//! * **Worker** ([`worker_loop`]) — finds the sweep in the journal
//!   ([`wait_for_sweep`]), validates its session against the recorded
//!   context digest, then repeatedly claims pending jobs through
//!   crash-safe lease files ([`secreta_store::lease`]), executes them
//!   via [`run_isolated`], and publishes through the lease-fenced
//!   [`RunStore::put_fenced`]. A worker that dies mid-job (even
//!   `kill -9`) leaves a lease that goes stale after its TTL and is
//!   reclaimed — with an epoch bump that fences off the dead worker's
//!   late writes — by any surviving worker.
//!
//! Both locks stay, because they arbitrate different things: the
//! coordinator's `store.lock` keeps two sweep writers (a second
//! coordinator, or `runs resume`) from journaling on one store at
//! once, while per-job leases decide which of many workers inside one
//! sweep owns each job.
//!
//! **Failure model.** Every result commit is a tmp+rename; every lease
//! transition is a hard-link (fresh claim) or rename (reclaim) with a
//! read-back verification, so crashes never leave ambiguous ownership.
//! Because runs are deterministic in (context, spec, seed), the one
//! benign race — two workers computing the same job across a reclaim —
//! commits identical bytes whichever one wins. When *no* worker is left
//! alive and jobs remain, the executor degrades gracefully: lost jobs
//! are journaled as failed (marking the sweep resumable), merged as
//! [`RunError::Lost`], and the sweep reports failures — `secreta runs
//! resume` then re-executes exactly the lost tail.

use crate::anonymizer::{run_isolated, RunError};
use crate::comparison::Configuration;
use crate::config::MethodSpec;
use crate::context::SessionContext;
use crate::orchestrator::{
    context_digest, journal_outcome, lookup, manifest_of, Exec, Misses, Orchestrated, Orchestrator,
};
use crate::sweep::VaryingParam;
use secreta_metrics::Indicators;
use secreta_store::{
    find_sweep, read_events_checked, ClaimOutcome, JobRecord, Journal, JournalEvent, LeaseSet,
    RunKey, RunStore, StoreError, SweepRecord,
};
use serde::{Deserialize, Value};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::process::Child;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

pub use crate::orchestrator::sweep_id_for;

/// Knobs of the distributed execution layer. The defaults suit
/// interactive runs; tests shrink the TTL to exercise reclaim quickly.
#[derive(Debug, Clone)]
pub struct DistOptions {
    /// Lease heartbeat TTL: a worker silent for longer than this is
    /// presumed dead and its jobs become reclaimable.
    pub lease_ttl_ms: u64,
    /// Coordinator/worker poll interval while waiting on the store.
    pub poll_ms: u64,
    /// Worker processes the coordinator spawns (0 = attach-only: rely
    /// on externally started `secreta worker` processes).
    pub workers: usize,
    /// How long a worker polls for its sweep to appear in the journal
    /// before giving up with [`WorkerError::NoSuchSweep`].
    pub worker_wait_ms: u64,
}

impl Default for DistOptions {
    fn default() -> DistOptions {
        DistOptions {
            lease_ttl_ms: 5_000,
            poll_ms: 25,
            workers: 0,
            worker_wait_ms: 10_000,
        }
    }
}

/// Failures of one worker process (coordinator failures surface as
/// [`StoreError`], matching the in-process orchestrator).
#[derive(Debug)]
pub enum WorkerError {
    /// The sweep never appeared in the journal within the wait window.
    NoSuchSweep(String),
    /// The worker's session digests differently than the sweep's
    /// recorded context: it would compute wrong (differently-keyed)
    /// results, so it refuses to claim anything.
    ContextMismatch {
        /// Sweep whose context did not match.
        sweep: String,
        /// Context digest recorded by the coordinator.
        expected: String,
        /// Digest of this worker's session.
        actual: String,
    },
    /// The sweep's intent record names a varying parameter this build
    /// does not know: its manifests would be mislabelled, so the
    /// worker refuses to claim anything.
    UnknownParam {
        /// Sweep whose record carried the label.
        sweep: String,
        /// The unrecognised parameter label.
        param: String,
    },
    /// A job record's spec payload did not decode.
    BadJobRecord(String, String),
    /// A store operation failed.
    Store(StoreError),
    /// Lease or journal I/O failed.
    Io(PathBuf, io::Error),
}

impl std::fmt::Display for WorkerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkerError::NoSuchSweep(id) => {
                write!(f, "no sweep {id} found in the store journal")
            }
            WorkerError::ContextMismatch {
                sweep,
                expected,
                actual,
            } => write!(
                f,
                "session context {actual} does not match sweep {sweep}'s \
                 recorded context {expected}: refusing to execute jobs"
            ),
            WorkerError::UnknownParam { sweep, param } => write!(
                f,
                "sweep {sweep} varies an unknown parameter `{param}`: \
                 refusing to execute jobs"
            ),
            WorkerError::BadJobRecord(key, why) => {
                write!(f, "job record {key} is malformed: {why}")
            }
            WorkerError::Store(e) => write!(f, "{e}"),
            WorkerError::Io(path, e) => write!(f, "{}: {e}", path.display()),
        }
    }
}

impl std::error::Error for WorkerError {}

impl From<StoreError> for WorkerError {
    fn from(e: StoreError) -> WorkerError {
        WorkerError::Store(e)
    }
}

/// What one worker did, reported when its loop drains. Mirrored into
/// the NDJSON trace stream as a `worker` record (`worker/*` counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerReport {
    /// Leases this worker won (fresh claims + reclaims).
    pub claimed: u64,
    /// Jobs executed and committed by this worker.
    pub executed: u64,
    /// Jobs that ran and returned an error (journaled as failed).
    pub failed: u64,
    /// Stale leases taken over from dead or silent workers.
    pub reclaimed: u64,
    /// Claim attempts that lost to a live lease.
    pub conflicts: u64,
    /// Publishes rejected by the lease fence (this worker had been
    /// reclaimed while computing).
    pub fenced: u64,
    /// Deterministic backoff sleeps while every pending job was held.
    pub backoffs: u64,
}

impl WorkerReport {
    /// The counter tuples of the registered `worker/*` family, in
    /// registry order.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("worker/claimed", self.claimed),
            ("worker/executed", self.executed),
            ("worker/failed", self.failed),
            ("worker/reclaimed", self.reclaimed),
            ("worker/conflicts", self.conflicts),
            ("worker/fenced", self.fenced),
            ("worker/backoffs", self.backoffs),
        ]
    }
}

fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

fn fnv(text: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in text.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Read the journal tolerantly: workers and the coordinator append
/// while we read, so a torn final line is expected, not an error.
fn read_journal(journal_path: &Path) -> io::Result<Vec<JournalEvent>> {
    if !journal_path.exists() {
        return Ok(Vec::new());
    }
    Ok(read_events_checked(journal_path)?.0)
}

/// Keys of `sweep_id` jobs that ran and failed (ok-false finishes with
/// a recorded error): nobody should re-claim these until a resume.
fn failed_keys(journal_path: &Path, sweep_id: &str) -> io::Result<HashMap<String, String>> {
    let events = read_journal(journal_path)?.into_iter();
    Ok(events
        .filter_map(|e| match e {
            JournalEvent::JobFailed {
                sweep, key, error, ..
            } if sweep == sweep_id => Some((key, error)),
            _ => None,
        })
        .collect())
}

/// Poll the store journal until `pick` finds a sweep in it, for at
/// most `opts.worker_wait_ms` (workers may start before their
/// coordinator has journaled the intent). `Ok(None)` when the window
/// closes first.
pub fn wait_for_sweep(
    store: &RunStore,
    pick: impl Fn(&[JournalEvent]) -> Option<SweepRecord>,
    opts: &DistOptions,
) -> Result<Option<SweepRecord>, WorkerError> {
    let path = store.journal_path();
    let deadline = Instant::now() + Duration::from_millis(opts.worker_wait_ms);
    loop {
        let events = read_journal(&path).map_err(|e| WorkerError::Io(path.clone(), e))?;
        if let Some(record) = pick(&events) {
            return Ok(Some(record));
        }
        if Instant::now() >= deadline {
            return Ok(None);
        }
        std::thread::sleep(Duration::from_millis(opts.poll_ms.max(1)));
    }
}

/// A background thread refreshing one held lease every TTL/3 until
/// dropped (or until the lease is lost to a reclaimer). Dropping
/// closes the channel, which wakes the thread at once.
struct Heartbeat {
    stop: Option<mpsc::Sender<()>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Heartbeat {
    fn start(path: &Path, token: &str, ttl_ms: u64) -> Heartbeat {
        let (stop, stopped) = mpsc::channel::<()>();
        let path = path.to_path_buf();
        let token = token.to_owned();
        let interval = Duration::from_millis((ttl_ms / 3).max(5));
        let handle = std::thread::spawn(move || {
            // Ok(false) = the lease is no longer ours: stop beating and
            // let the fence reject the publish
            while stopped.recv_timeout(interval) == Err(RecvTimeoutError::Timeout)
                && matches!(secreta_store::lease::heartbeat(&path, &token), Ok(true))
            {}
        });
        Heartbeat {
            stop: Some(stop),
            handle: Some(handle),
        }
    }
}

impl Drop for Heartbeat {
    fn drop(&mut self) {
        drop(self.stop.take());
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Claim-execute-publish loop of one worker. Returns when every job of
/// the sweep is either stored or journaled as failed. Safe to run from
/// any number of processes (or threads, in tests) concurrently: leases
/// arbitrate, fencing rejects the loser of every race, and determinism
/// makes the one unfenceable race (duplicate compute across a reclaim)
/// harmless.
pub fn worker_loop(
    ctx: &SessionContext,
    store: &RunStore,
    sweep_id: &str,
    opts: &DistOptions,
) -> Result<WorkerReport, WorkerError> {
    let digest = context_digest(ctx);
    let journal_path = store.journal_path();
    let io_err = |p: &Path| {
        let p = p.to_path_buf();
        move |e: io::Error| WorkerError::Io(p.clone(), e)
    };

    let record = wait_for_sweep(store, |events| find_sweep(events, sweep_id), opts)?
        .ok_or_else(|| WorkerError::NoSuchSweep(sweep_id.to_owned()))?;
    if record.context != digest {
        return Err(WorkerError::ContextMismatch {
            sweep: sweep_id.to_owned(),
            expected: record.context,
            actual: digest,
        });
    }
    let param =
        VaryingParam::from_label(&record.param).ok_or_else(|| WorkerError::UnknownParam {
            sweep: sweep_id.to_owned(),
            param: record.param.clone(),
        })?;
    // the intent record is the authoritative job list; job records
    // supply the spec/seed payload per key as the coordinator lands them
    let keys: Vec<String> = record
        .jobs
        .iter()
        .flatten()
        .map(|(_, key)| key.clone())
        .collect();

    let leases =
        LeaseSet::open(store.root(), sweep_id, opts.lease_ttl_ms).map_err(io_err(store.root()))?;
    let mut journal = store.journal()?;
    let mut report = WorkerReport::default();
    // start each scan at a token-dependent rotation so concurrent
    // workers spread over the job list instead of stampeding job 0
    let offset = if keys.is_empty() {
        0
    } else {
        (fnv(leases.token()) % keys.len() as u64) as usize
    };
    let mut attempt: u32 = 0;
    // if neither a job record nor a live lease shows up for this long,
    // the coordinator died before publishing work: exit instead of
    // spinning forever against an abandoned sweep
    let orphan_grace = Duration::from_millis((2 * opts.lease_ttl_ms).max(500));
    let mut last_activity = Instant::now();
    loop {
        let failed = failed_keys(&journal_path, sweep_id).map_err(io_err(&journal_path))?;
        let jobs: HashMap<String, JobRecord> = store
            .list_jobs(sweep_id)?
            .into_iter()
            .map(|j| (j.key.clone(), j))
            .collect();
        let mut pending = 0usize;
        let mut progressed = false;
        let mut held_this_scan = false;
        for i in 0..keys.len() {
            let key = &keys[(i + offset) % keys.len()];
            if failed.contains_key(key) || store.contains(&RunKey(key.clone())) {
                continue;
            }
            pending += 1;
            // the coordinator writes job records after the intent line;
            // a key without its record yet stays pending for the rescan
            let Some(job) = jobs.get(key) else { continue };
            let spec = MethodSpec::de(&job.spec)
                .map_err(|e| WorkerError::BadJobRecord(key.clone(), e.to_string()))?;
            let guard = match leases.claim(key).map_err(io_err(store.root()))? {
                ClaimOutcome::Claimed(guard) => guard,
                ClaimOutcome::Reclaimed(guard, old) => {
                    report.reclaimed += 1;
                    journal
                        .append(&JournalEvent::JobLeaseExpired {
                            sweep: sweep_id.to_owned(),
                            key: key.clone(),
                            pid: old.pid,
                            epoch: old.epoch,
                        })
                        .and_then(|_| {
                            journal.append(&JournalEvent::JobReclaimed {
                                sweep: sweep_id.to_owned(),
                                key: key.clone(),
                                old_pid: old.pid,
                                new_pid: std::process::id(),
                                epoch: guard.epoch(),
                            })
                        })
                        .map_err(io_err(&journal_path))?;
                    guard
                }
                ClaimOutcome::Held(_) => {
                    report.conflicts += 1;
                    held_this_scan = true;
                    continue;
                }
            };
            report.claimed += 1;
            journal
                .append(&JournalEvent::JobClaimed {
                    sweep: sweep_id.to_owned(),
                    key: key.clone(),
                    pid: std::process::id(),
                    epoch: guard.epoch(),
                })
                .map_err(io_err(&journal_path))?;
            // chaos hook: die (kill -9 style) holding a fresh lease
            secreta_faults::fault::crash_point("worker.claimed");
            journal
                .append(&JournalEvent::JobStarted {
                    sweep: sweep_id.to_owned(),
                    key: key.clone(),
                    label: job.label.clone(),
                    value: job.value,
                })
                .map_err(io_err(&journal_path))?;
            let outcome = {
                // keep the lease fresh for however long the run takes;
                // the run's kernels stay at this thread's budget of 1:
                // the sweep's parallelism is its worker processes
                let _beat = Heartbeat::start(guard.path(), guard.token(), opts.lease_ttl_ms);
                run_isolated(ctx, &spec, job.seed)
            };
            // chaos hook: die after computing, before publishing
            secreta_faults::fault::crash_point("worker.publish");
            let landed = match &outcome {
                Ok(rr) => {
                    let manifest = manifest_of(
                        &RunKey(key.clone()),
                        &record.context,
                        &job.label,
                        &spec,
                        job.seed,
                        Some((param, job.value as usize)),
                        rr,
                    );
                    store.put_fenced(&manifest, &rr.anon, guard.epoch(), &|| guard.verify())?
                }
                // journal a failure only while the lease still stands:
                // a fenced-off worker must not poison the job for its
                // reclaimer
                Err(_) => guard.verify(),
            };
            if landed {
                let summary = outcome
                    .as_ref()
                    .map(|rr| rr.indicators.runtime_ms)
                    .map_err(ToString::to_string);
                if summary.is_ok() {
                    report.executed += 1;
                } else {
                    report.failed += 1;
                }
                journal_outcome(&mut journal, sweep_id, key, &job.label, job.value, summary)?;
            } else {
                report.fenced += 1;
            }
            guard.release();
            progressed = true;
        }
        if pending == 0 {
            break;
        }
        if progressed || held_this_scan {
            last_activity = Instant::now();
        } else if last_activity.elapsed() >= orphan_grace {
            // pending jobs with no records and no live claimants:
            // the coordinator is gone, nothing left to do here
            break;
        }
        if progressed {
            attempt = 0;
        } else {
            // every pending job is held by a live worker (or its record
            // hasn't landed): back off deterministically, bounded by
            // the TTL so a crashed holder is reclaimed promptly
            report.backoffs += 1;
            let ms =
                secreta_store::backoff_ms(attempt, leases.token()).min(opts.lease_ttl_ms.max(10));
            attempt = attempt.saturating_add(1);
            std::thread::sleep(Duration::from_millis(ms));
        }
    }
    if let Some(sink) = ctx.obsv.sink() {
        sink.write_record(&secreta_obsv::trace::worker_record(
            sweep_id,
            &report.counters(),
        ));
    }
    Ok(report)
}

/// A callback spawning one worker process for a sweep: receives the
/// worker index and the sweep id, returns the spawned [`Child`].
pub type WorkerSpawner = dyn Fn(usize, &str) -> io::Result<Child> + Sync;

/// Spawned worker children, killed and reaped (not orphaned) when the
/// executor returns — including when spawning a later one fails.
struct ChildSet(Vec<Child>);

impl ChildSet {
    fn spawn(
        spawner: Option<&WorkerSpawner>,
        workers: usize,
        sweep_id: &str,
    ) -> io::Result<ChildSet> {
        // push into the set as we go: if spawning worker i fails, the
        // early return drops the set, which kills workers 0..i
        let mut set = ChildSet(Vec::new());
        if let Some(f) = spawner {
            for i in 0..workers {
                set.0.push(f(i, sweep_id)?);
            }
        }
        Ok(set)
    }

    fn any_alive(&mut self) -> bool {
        self.0.iter_mut().any(|c| matches!(c.try_wait(), Ok(None)))
    }
}

impl Drop for ChildSet {
    fn drop(&mut self) {
        for c in &mut self.0 {
            if matches!(c.try_wait(), Ok(None)) {
                let _ = c.kill();
            }
            let _ = c.wait();
        }
    }
}

/// The worker executor: publish the misses as claimable job records,
/// spawn `opts.workers` local workers via `spawner` (none in attach
/// mode), wait until every miss is stored or journaled as failed —
/// journaling the lost ones itself when no worker is left to finish
/// them — then merge each miss's indicators from the stored manifests,
/// in expansion order.
pub(crate) fn run_on_workers(
    store: &RunStore,
    journal: &mut Journal,
    misses: &Misses<'_>,
    opts: &DistOptions,
    spawner: Option<&WorkerSpawner>,
) -> Result<Vec<Result<Indicators, RunError>>, StoreError> {
    if misses.jobs.is_empty() {
        return Ok(Vec::new());
    }
    let sweep_id = misses.sweep_id;
    let root_err = |e: io::Error| StoreError::Io(store.root().to_path_buf(), e);
    let records: Vec<JobRecord> = misses
        .jobs
        .iter()
        .map(|&(i, e)| JobRecord {
            sweep: sweep_id.to_owned(),
            key: e.key.0.clone(),
            seq: i as u64,
            label: e.label.clone(),
            value: e.value as f64,
            seed: e.seed,
            spec: serde::Serialize::ser(&e.spec),
        })
        .collect();
    store.put_jobs(&records)?;

    let mut children = ChildSet::spawn(spawner, opts.workers, sweep_id).map_err(root_err)?;
    // observer-only lease view, used to tell "a worker is on it" from
    // "nobody will ever finish this"
    let leases = LeaseSet::open(store.root(), sweep_id, opts.lease_ttl_ms).map_err(root_err)?;
    let journal_path = store.journal_path();
    let mut pending: Vec<usize> = (0..misses.jobs.len()).collect();
    let mut failed: HashMap<usize, String> = HashMap::new();
    // grace before declaring jobs lost: long enough for an external
    // worker to attach and for stale leases to expire
    let grace = Duration::from_millis((2 * opts.lease_ttl_ms).max(500));
    let mut last_activity = Instant::now();
    loop {
        let journaled_failures = failed_keys(&journal_path, sweep_id)
            .map_err(|e| StoreError::Io(journal_path.clone(), e))?;
        let before = pending.len();
        pending.retain(|&m| {
            let key = &misses.jobs[m].1.key;
            if store.contains(key) {
                return false;
            }
            match journaled_failures.get(&key.0) {
                Some(error) => {
                    failed.insert(m, error.clone());
                    false
                }
                None => true,
            }
        });
        if pending.is_empty() {
            break;
        }
        let now = now_ms();
        let fresh_lease = pending.iter().any(|&m| {
            leases
                .peek(&misses.jobs[m].1.key.0)
                .ok()
                .flatten()
                .is_some_and(|rec| !rec.is_stale(now))
        });
        if pending.len() < before || fresh_lease {
            last_activity = Instant::now();
        } else if !children.any_alive() && last_activity.elapsed() >= grace {
            // nobody holds a live lease on anything pending, no spawned
            // worker is alive and nothing landed within the grace
            // window: the remaining jobs are lost. Merging wraps the
            // error in `RunError::Lost`, whose Display adds the
            // "job lost:" prefix
            let error = format!("every worker of sweep {sweep_id} died before completing it");
            for &m in &pending {
                let e = misses.jobs[m].1;
                let lost = Err(error.clone());
                journal_outcome(journal, sweep_id, &e.key.0, &e.label, e.value as f64, lost)?;
                failed.insert(m, error.clone());
            }
            break;
        }
        std::thread::sleep(Duration::from_millis(opts.poll_ms.max(1)));
    }
    drop(children);

    // merge from the store in expansion order — this is what makes the
    // distributed result byte-identical to a single-process run
    let outcomes = (0..misses.jobs.len())
        .map(|m| match failed.remove(&m) {
            Some(error) => Ok(Err(RunError::Lost(error))),
            None => {
                let key = &misses.jobs[m].1.key;
                lookup(store, key)?
                    .map(|s| Ok(s.manifest.indicators))
                    .ok_or_else(|| {
                        StoreError::Corrupt(
                            store.root().to_path_buf(),
                            format!("run {} vanished after its worker committed it", key.0),
                        )
                    })
            }
        })
        .collect::<Result<Vec<_>, StoreError>>()?;
    store.clear_jobs(sweep_id)?;
    Ok(outcomes)
}

/// Run a comparison through the sweep frame with the worker executor:
/// journal the intent, serve cache hits, publish claimable job records,
/// optionally spawn `opts.workers` local worker processes via
/// `spawner`, wait for workers to fill the store, and merge in
/// expansion order.
///
/// With `spawner: None` (or `workers: 0`) the coordinator runs in
/// *attach* mode: it executes nothing itself and waits for externally
/// started `secreta worker` processes. When every worker dies and jobs
/// remain, the sweep degrades instead of hanging: lost jobs are
/// journaled as failed, merged as [`RunError::Lost`], and counted in
/// `stats.failures` — `runs resume` re-executes exactly those.
pub fn run_distributed(
    ctx: &SessionContext,
    store: &RunStore,
    configurations: &[Configuration],
    invocation: Value,
    opts: &DistOptions,
    spawner: Option<&WorkerSpawner>,
) -> Result<Orchestrated, StoreError> {
    Orchestrator::new(0).with_store(store.clone()).sweep(
        ctx,
        configurations,
        invocation,
        Exec::Workers(opts, spawner),
    )
}
