//! The experiment orchestrator: the one sweep engine behind every
//! evaluation and comparison, cached, journaled and resumable.
//!
//! The Experimentation Module's two modes — single-method evaluation
//! and multi-method comparison — both expand into the same shape of
//! work: a list of configurations, each swept over a varying
//! parameter, yielding independent (spec, sweep point, seed) jobs.
//! Every sweep runs through one frame, whichever executor runs its
//! jobs:
//!
//! 1. **Lock and expand** — take the store's writer lock, digest the
//!    session, expand the jobs in deterministic order and derive the
//!    sweep id from their content addresses (see [`secreta_store::key`]).
//! 2. **Journal the intent** — a [`SweepRecord`] carrying the full
//!    invocation is appended to the store's write-ahead journal
//!    *before* any job starts.
//! 3. **Serve hits** — a job the store already holds is served its
//!    stored indicators without touching the algorithms,
//!    byte-identically (every stored field round-trips JSON exactly).
//!    The store checks the stored table against its checksum but
//!    does not decode it: no sweep point needs it.
//! 4. **Execute the misses** — the only step that varies.
//! 5. **Close** — count hits, misses and failures, journal
//!    `SweepFinished`, mirror it into the NDJSON trace, and reassemble
//!    per-configuration point lists in sweep order.
//!
//! Step 4 has two executors. The **thread executor**
//! ([`Orchestrator::compare`]) fans the misses over the evaluator pool
//! and persists and journals each result on its thread the moment it
//! lands. The **worker executor**
//! ([`run_distributed`](crate::distributed::run_distributed)) publishes
//! the misses as claimable job records, lets worker processes fill the
//! store, and merges from it (see [`crate::distributed`]). Either way
//! every finished job is durable before the sweep closes, so a sweep
//! killed mid-run resumes by replaying its journaled invocation
//! against the same store: completed jobs are hits, only the missing
//! tail executes.
//!
//! Without a store the frame skips lock, journal and cache, leaving the
//! plain fan-out — [`crate::comparison::compare`] and
//! [`crate::sweep::evaluate_sweep`] are thin wrappers over it.

use crate::anonymizer::{run_isolated, RunError, RunResult};
use crate::comparison::{ComparisonResult, Configuration};
use crate::config::MethodSpec;
use crate::context::SessionContext;
use crate::distributed::{DistOptions, WorkerSpawner};
use crate::evaluator::{run_many_with, Job};
use crate::sweep::{SweepPoint, VaryingParam};
use secreta_data::CsvOptions;
use secreta_metrics::Indicators;
use secreta_store::{
    run_key, DigestWriter, Journal, JournalEvent, RunKey, RunManifest, RunStore, Sha256,
    StoreError, StoredRun, SweepRecord, STORE_SCHEMA_VERSION,
};
use serde::{Serialize, Value};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

/// Digest of everything in a session that can influence a run: the
/// dataset bytes, every hierarchy, the query workload and both
/// policies. Two sessions with the same digest produce the same
/// results for the same (spec, seed); the digest is one component of
/// every run key.
pub fn context_digest(ctx: &SessionContext) -> String {
    let mut w = DigestWriter::new();
    // section markers keep adjacent components from aliasing
    w.update(b"\0dataset\0");
    secreta_data::csv::write_table(&ctx.table, &mut w, &CsvOptions::default())
        .expect("digest writer never fails");
    for (pos, &attr) in ctx.qi_attrs.iter().enumerate() {
        w.update(format!("\0hierarchy:{attr}\0").as_bytes());
        secreta_hierarchy::io::write_hierarchy(&ctx.hierarchies[pos], &mut w, ';')
            .expect("digest writer never fails");
    }
    if let Some(h) = &ctx.item_hierarchy {
        w.update(b"\0item-hierarchy\0");
        secreta_hierarchy::io::write_hierarchy(h, &mut w, ';').expect("digest writer never fails");
    }
    w.update(b"\0workload\0");
    secreta_metrics::query::write_workload(&ctx.workload, &ctx.table, &mut w)
        .expect("digest writer never fails");
    if let Some(p) = &ctx.privacy {
        w.update(b"\0privacy\0");
        secreta_policy::io::write_privacy(p, &ctx.table, &mut w)
            .expect("digest writer never fails");
    }
    if let Some(u) = &ctx.utility {
        w.update(b"\0utility\0");
        secreta_policy::io::write_utility(u, &ctx.table, &mut w)
            .expect("digest writer never fails");
    }
    w.finalize_hex()
}

/// The content address of one (context, spec, seed, sweep point) job.
pub fn job_key(
    context_digest: &str,
    spec: &MethodSpec,
    seed: u64,
    sweep: Option<(VaryingParam, usize)>,
) -> RunKey {
    run_key(
        context_digest,
        &spec.ser(),
        seed,
        sweep.map(|(p, v)| (p.label(), v as f64)),
    )
}

/// Cache counters of one orchestrated execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Jobs replayed from the store.
    pub hits: u64,
    /// Jobs that actually executed.
    pub misses: u64,
    /// Jobs that returned an error (never cached).
    pub failures: u64,
}

/// Output of [`Orchestrator::compare`].
#[derive(Debug)]
pub struct Orchestrated {
    /// The comparison result, shaped exactly like
    /// [`crate::comparison::compare`]'s.
    pub result: ComparisonResult,
    /// Hit/miss/failure counters (all-miss when no store is attached).
    pub stats: CacheStats,
    /// Deterministic identifier of this sweep (derived from its job
    /// keys); the journal's `SweepRecord` id when a store is attached.
    pub sweep_id: String,
}

/// Schedules experiment jobs over the evaluator pool, with optional
/// store-backed caching and journaling.
#[derive(Debug, Clone)]
pub struct Orchestrator {
    store: Option<RunStore>,
    bypass_cache: bool,
    threads: usize,
}

pub(crate) struct ExpandedJob {
    pub(crate) value: usize,
    pub(crate) spec: MethodSpec,
    pub(crate) seed: u64,
    pub(crate) label: String,
    pub(crate) key: RunKey,
}

/// How the sweep frame turns misses into outcomes.
pub(crate) enum Exec<'a> {
    /// The in-process evaluator pool, on this many threads.
    Threads(usize),
    /// Worker processes claiming jobs through the store, optionally
    /// spawned by the coordinator.
    Workers(&'a DistOptions, Option<&'a WorkerSpawner>),
}

/// The jobs of one sweep the store could not serve, as the frame hands
/// them to an executor.
pub(crate) struct Misses<'a> {
    pub(crate) sweep_id: &'a str,
    pub(crate) digest: &'a str,
    pub(crate) param: VaryingParam,
    /// `(expansion index, job)`, in expansion order.
    pub(crate) jobs: Vec<(usize, &'a ExpandedJob)>,
}

/// Expand `configurations` into the deterministic flat job list: one
/// [`ExpandedJob`] per (configuration, sweep value), in configuration
/// order then sweep order, plus each configuration's job count and the
/// varied parameter.
fn expand_jobs(
    digest: &str,
    configurations: &[Configuration],
) -> (Vec<ExpandedJob>, Vec<usize>, VaryingParam) {
    let mut expanded: Vec<ExpandedJob> = Vec::new();
    let mut shape: Vec<usize> = Vec::new();
    for cfg in configurations {
        let values = cfg.sweep.values();
        for &v in &values {
            let mut spec = cfg.spec.clone();
            match cfg.sweep.param {
                VaryingParam::K => spec.set_k(v),
                VaryingParam::M => spec.set_m(v),
                VaryingParam::Delta => spec.set_delta(v),
            }
            let key = job_key(digest, &spec, cfg.seed, Some((cfg.sweep.param, v)));
            expanded.push(ExpandedJob {
                value: v,
                spec,
                seed: cfg.seed,
                label: cfg.label.clone(),
                key,
            });
        }
        shape.push(values.len());
    }
    let param = configurations
        .first()
        .map(|c| c.sweep.param)
        .unwrap_or(VaryingParam::K);
    (expanded, shape, param)
}

impl Orchestrator {
    /// An orchestrator without a store: plain fan-out, no caching.
    /// `threads` is the thread budget of every sweep and single run it
    /// executes (see [`crate::evaluator`]).
    pub fn new(threads: usize) -> Orchestrator {
        Orchestrator {
            store: None,
            bypass_cache: false,
            threads,
        }
    }

    /// Attach a run store: enables cache lookups, durable results and
    /// the event journal.
    pub fn with_store(mut self, store: RunStore) -> Orchestrator {
        self.store = Some(store);
        self
    }

    /// Skip cache *lookups* (every job runs) while still recording
    /// results and journal events — the `--no-cache` semantics.
    pub fn bypass_cache(mut self, yes: bool) -> Orchestrator {
        self.bypass_cache = yes;
        self
    }

    /// The attached store, if any.
    pub fn store(&self) -> Option<&RunStore> {
        self.store.as_ref()
    }

    /// Execute one spec at its configured parameters (no sweep),
    /// through the cache when a store is attached. Returns the run
    /// outcome plus whether it was a cache hit. A hit decodes the
    /// stored table, so the result is the whole run as it was stored.
    pub fn run_one(
        &self,
        ctx: &SessionContext,
        spec: &MethodSpec,
        seed: u64,
    ) -> Result<(Result<RunResult, RunError>, bool), StoreError> {
        let digest = context_digest(ctx);
        let key = job_key(&digest, spec, seed, None);
        if let (Some(store), false) = (&self.store, self.bypass_cache) {
            if let Some(stored) = lookup(store, &key)? {
                let rr = RunResult {
                    anon: stored.anon()?,
                    phases: stored.manifest.phases,
                    indicators: stored.manifest.indicators,
                    profile: stored.manifest.profile,
                };
                return Ok((Ok(rr), true));
            }
        }
        // a lone job: its kernels get the whole budget
        let result = secreta_parallel::with_threads(self.threads, || run_isolated(ctx, spec, seed));
        if let (Some(store), Ok(rr)) = (&self.store, &result) {
            store.put(
                &manifest_of(&key, &digest, &spec.label(), spec, seed, None, rr),
                &rr.anon,
            )?;
        }
        Ok((result, false))
    }

    /// Expand `configurations` into sweep-point jobs, serve what the
    /// store already holds, execute the rest on the evaluator pool,
    /// and journal the whole thing. `invocation` is an opaque payload
    /// recorded in the journal's intent event — callers put whatever
    /// they need to re-run the experiment there (the CLI stores its
    /// session/dataset arguments), enabling `runs resume`.
    pub fn compare(
        &self,
        ctx: &SessionContext,
        configurations: &[Configuration],
        invocation: Value,
    ) -> Result<Orchestrated, StoreError> {
        self.sweep(ctx, configurations, invocation, Exec::Threads(self.threads))
    }

    /// The sweep frame shared by both executors (module docs, steps
    /// 1–5); `exec` turns the misses into outcomes.
    pub(crate) fn sweep(
        &self,
        ctx: &SessionContext,
        configurations: &[Configuration],
        invocation: Value,
        exec: Exec<'_>,
    ) -> Result<Orchestrated, StoreError> {
        // one journal writer at a time: a second coordinator (or a
        // `runs resume`) sharing this store gets StoreError::Locked
        // instead of interleaving sweep events; workers never take it
        let _store_lock = self.store.as_ref().map(RunStore::lock).transpose()?;
        let digest = context_digest(ctx);
        let (expanded, shape, param) = expand_jobs(&digest, configurations);
        let sweep_id = sweep_id_of(&digest, &expanded);

        // write-ahead intent: everything needed to resume after a kill
        let mut journal = self.store.as_ref().map(RunStore::journal).transpose()?;
        if let Some(j) = &mut journal {
            let mut it = expanded.iter().map(|e| (e.value as f64, e.key.0.clone()));
            let jobs = shape
                .iter()
                .map(|&n| it.by_ref().take(n).collect())
                .collect();
            let record = SweepRecord {
                id: sweep_id.clone(),
                context: digest.clone(),
                param: param.label().to_owned(),
                labels: configurations.iter().map(|c| c.label.clone()).collect(),
                jobs,
                invocation,
            };
            append(j, &JournalEvent::SweepStarted(record))?;
        }

        // serve hits from the store (replays complete at lookup time,
        // so they are journaled right away), collect misses
        let mut slots: Vec<Option<Result<Indicators, RunError>>> = Vec::new();
        let mut misses = Misses {
            sweep_id: &sweep_id,
            digest: &digest,
            param,
            jobs: Vec::new(),
        };
        for (i, e) in expanded.iter().enumerate() {
            let hit = match (&self.store, self.bypass_cache) {
                (Some(store), false) => lookup(store, &e.key)?.map(|s| s.manifest.indicators),
                _ => None,
            };
            if let (Some(j), Some(_)) = (&mut journal, &hit) {
                append(
                    j,
                    &JournalEvent::JobFinished {
                        sweep: sweep_id.clone(),
                        key: e.key.0.clone(),
                        cache_hit: true,
                        ok: true,
                        wall_ms: 0.0,
                    },
                )?;
            }
            if hit.is_none() {
                misses.jobs.push((i, e));
            }
            slots.push(hit.map(Ok));
        }
        let mut stats = CacheStats {
            hits: (expanded.len() - misses.jobs.len()) as u64,
            ..CacheStats::default()
        };

        let outcomes = match exec {
            Exec::Threads(threads) => {
                self.run_on_threads(ctx, &misses, journal.as_mut(), threads)?
            }
            Exec::Workers(opts, spawner) => {
                let (Some(store), Some(journal)) = (&self.store, journal.as_mut()) else {
                    unreachable!("distributed sweeps always run against a store")
                };
                crate::distributed::run_on_workers(store, journal, &misses, opts, spawner)?
            }
        };
        for (&(i, _), outcome) in misses.jobs.iter().zip(outcomes) {
            if outcome.is_ok() {
                stats.misses += 1;
            } else {
                stats.failures += 1;
            }
            slots[i] = Some(outcome);
        }

        // summary counters close the sweep in the journal, and are
        // mirrored into the NDJSON trace stream when one is configured
        if let Some(j) = &mut journal {
            append(
                j,
                &JournalEvent::SweepFinished {
                    sweep: sweep_id.clone(),
                    hits: stats.hits,
                    misses: stats.misses,
                    failures: stats.failures,
                },
            )?;
        }
        if let Some(sink) = ctx.obsv.sink() {
            sink.write_record(&secreta_obsv::trace::cache_record(
                &sweep_id,
                stats.hits,
                stats.misses,
                stats.failures,
            ));
        }

        // reassemble per-configuration point lists, in sweep order
        let mut results = slots.into_iter().zip(&expanded);
        let point = |(slot, e): (Option<Result<Indicators, RunError>>, &ExpandedJob)| {
            let outcome = slot.expect("every job has an outcome");
            let point = |indicators| SweepPoint {
                value: e.value,
                indicators,
            };
            (e.value, outcome.map(point))
        };
        let points = shape
            .iter()
            .map(|&n| results.by_ref().take(n).map(point).collect())
            .collect();
        Ok(Orchestrated {
            result: ComparisonResult {
                labels: configurations.iter().map(|c| c.label.clone()).collect(),
                param,
                points,
            },
            stats,
            sweep_id,
        })
    }

    /// The thread executor: fan the misses out over the evaluator
    /// pool, persisting and journaling each result on its thread the
    /// moment it lands — that is what makes a killed sweep resumable:
    /// everything that finished before the kill is already durable.
    /// Returns each miss's indicators, in `misses` order.
    fn run_on_threads(
        &self,
        ctx: &SessionContext,
        misses: &Misses<'_>,
        mut journal: Option<&mut Journal>,
        threads: usize,
    ) -> Result<Vec<Result<Indicators, RunError>>, StoreError> {
        if let Some(j) = journal.as_deref_mut() {
            for &(_, e) in &misses.jobs {
                append(
                    j,
                    &JournalEvent::JobStarted {
                        sweep: misses.sweep_id.to_owned(),
                        key: e.key.0.clone(),
                        label: e.label.clone(),
                        value: e.value as f64,
                    },
                )?;
            }
        }
        let jobs: Vec<Job> = misses
            .jobs
            .iter()
            .map(|(_, e)| Job {
                spec: e.spec.clone(),
                seed: e.seed,
            })
            .collect();
        let journal = Mutex::new(journal);
        let land =
            |e: &ExpandedJob, outcome: &Result<RunResult, RunError>| -> Result<(), StoreError> {
                if let (Some(store), Ok(rr)) = (&self.store, outcome) {
                    let sweep = Some((misses.param, e.value));
                    let manifest =
                        manifest_of(&e.key, misses.digest, &e.label, &e.spec, e.seed, sweep, rr);
                    store.put(&manifest, &rr.anon)?;
                }
                let mut guard = journal.lock().unwrap_or_else(|e| e.into_inner());
                match guard.as_deref_mut() {
                    Some(j) => journal_outcome(
                        j,
                        misses.sweep_id,
                        &e.key.0,
                        &e.label,
                        e.value as f64,
                        outcome
                            .as_ref()
                            .map(|rr| rr.indicators.runtime_ms)
                            .map_err(ToString::to_string),
                    ),
                    None => Ok(()),
                }
            };
        let deferred: Mutex<Option<StoreError>> = Mutex::new(None);
        let outcomes = run_many_with(ctx, &jobs, threads, |slot, outcome| {
            if let Err(err) = land(misses.jobs[slot].1, outcome) {
                let mut first = deferred.lock().unwrap_or_else(|e| e.into_inner());
                first.get_or_insert(err);
            }
        });
        match deferred.into_inner().unwrap_or_else(|e| e.into_inner()) {
            Some(err) => Err(err),
            None => Ok(outcomes
                .into_iter()
                .map(|outcome| outcome.map(|rr| rr.indicators))
                .collect()),
        }
    }
}

/// Append one event, attributing a failure to the journal's path.
fn append(journal: &mut Journal, event: &JournalEvent) -> Result<(), StoreError> {
    journal
        .append(event)
        .map_err(|e| StoreError::Io(journal.path().to_path_buf(), e))
}

/// Journal the end of one executed (non-cached) job: `Ok(wall_ms)`
/// or `Err(error)`. A failed job gets two lines: `JobFinished` keeps
/// the counters consistent, `JobFailed` carries the error and marks
/// the sweep degraded (hence resumable).
pub(crate) fn journal_outcome(
    journal: &mut Journal,
    sweep: &str,
    key: &str,
    label: &str,
    value: f64,
    outcome: Result<f64, String>,
) -> Result<(), StoreError> {
    let (ok, wall_ms) = match outcome {
        Ok(wall_ms) => (true, wall_ms),
        Err(error) => {
            append(
                journal,
                &JournalEvent::JobFailed {
                    sweep: sweep.to_owned(),
                    key: key.to_owned(),
                    label: label.to_owned(),
                    value,
                    error,
                },
            )?;
            (false, 0.0)
        }
    };
    append(
        journal,
        &JournalEvent::JobFinished {
            sweep: sweep.to_owned(),
            key: key.to_owned(),
            cache_hit: false,
            ok,
            wall_ms,
        },
    )
}

/// Serve `key` from the store: the stored run with its table verified
/// but not decoded (the stored JSON preserves every float
/// bit-for-bit), or `None` when it is absent, was quarantined as
/// corrupt, or predates the current schema.
pub(crate) fn lookup(store: &RunStore, key: &RunKey) -> Result<Option<StoredRun>, StoreError> {
    Ok(store
        .get(key)?
        .filter(|s| s.manifest.schema_version == STORE_SCHEMA_VERSION))
}

pub(crate) fn manifest_of(
    key: &RunKey,
    digest: &str,
    label: &str,
    spec: &MethodSpec,
    seed: u64,
    sweep: Option<(VaryingParam, usize)>,
    rr: &RunResult,
) -> RunManifest {
    RunManifest {
        key: key.0.clone(),
        schema_version: STORE_SCHEMA_VERSION,
        context: digest.to_owned(),
        label: label.to_owned(),
        config: secreta_store::canonicalize(&spec.ser()),
        seed,
        sweep_param: sweep.map(|(p, _)| p.label().to_owned()),
        sweep_value: sweep.map(|(_, v)| v as f64),
        created_unix_ms: SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0),
        indicators: rr.indicators.clone(),
        phases: rr.phases.clone(),
        profile: rr.profile.clone(),
        // filled in by RunStore::put from the serialized table bytes
        anon_sha256: None,
    }
}

/// Deterministic sweep identifier: hash of the context digest and
/// every job's (label, key). The same experiment against the same
/// session always gets the same id, which is what lets `runs resume`
/// find the matching intent record.
fn sweep_id_of(digest: &str, expanded: &[ExpandedJob]) -> String {
    let mut h = Sha256::new();
    h.update(digest.as_bytes());
    for e in expanded {
        h.update(b"\0");
        h.update(e.label.as_bytes());
        h.update(b"\0");
        h.update(e.key.0.as_bytes());
    }
    let hex = h.finalize_hex();
    hex[..16].to_owned()
}

/// The sweep id this session + configuration set gets — what the CLI
/// prints so externally attached workers know what to look for.
pub fn sweep_id_for(ctx: &SessionContext, configurations: &[Configuration]) -> String {
    let digest = context_digest(ctx);
    sweep_id_of(&digest, &expand_jobs(&digest, configurations).0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anonymizer::run;
    use crate::config::RelAlgo;
    use crate::scratch::Scratch;
    use crate::sweep::Sweep;
    use secreta_gen::{DatasetSpec, WorkloadSpec};

    fn ctx() -> SessionContext {
        let t = DatasetSpec::adult_like(60, 3).generate();
        let ctx = SessionContext::auto(t, 4).unwrap();
        let w = WorkloadSpec {
            n_queries: 10,
            ..Default::default()
        }
        .generate(&ctx.table);
        ctx.with_workload(w)
    }

    fn configs() -> Vec<Configuration> {
        vec![Configuration::new(
            MethodSpec::Relational {
                algo: RelAlgo::Cluster,
                k: 0,
            },
            Sweep {
                param: VaryingParam::K,
                start: 2,
                end: 6,
                step: 2,
            },
            1,
        )]
    }

    fn tmp_store(name: &str) -> Scratch<RunStore> {
        Scratch::new(&format!("orch-{name}"), |dir| RunStore::open(dir).unwrap())
    }

    #[test]
    fn storeless_orchestration_matches_direct_runs() {
        let ctx = ctx();
        let orch = Orchestrator::new(2);
        let out = orch.compare(&ctx, &configs(), Value::Null).unwrap();
        assert_eq!(out.stats.hits, 0);
        assert_eq!(out.stats.misses, 3);
        for (v, r) in &out.result.points[0] {
            let direct = run(
                &ctx,
                &MethodSpec::Relational {
                    algo: RelAlgo::Cluster,
                    k: *v,
                },
                1,
            )
            .unwrap();
            // runtime_ms is wall-clock and differs between live runs
            let mut got = r.as_ref().unwrap().indicators.clone();
            let mut want = direct.indicators.clone();
            got.runtime_ms = 0.0;
            want.runtime_ms = 0.0;
            assert_eq!(got, want);
        }
    }

    #[test]
    fn second_run_is_a_full_cache_hit_with_identical_results() {
        let ctx = ctx();
        let store = tmp_store("hit");
        let orch = Orchestrator::new(2).with_store(store.clone());
        let cold = orch.compare(&ctx, &configs(), Value::Null).unwrap();
        assert_eq!(cold.stats.misses, 3);
        let warm = orch.compare(&ctx, &configs(), Value::Null).unwrap();
        assert_eq!(warm.stats.hits, 3);
        assert_eq!(warm.stats.misses, 0);
        assert_eq!(warm.sweep_id, cold.sweep_id);
        for (c, w) in cold.result.points[0].iter().zip(&warm.result.points[0]) {
            assert_eq!(
                c.1.as_ref().unwrap().indicators,
                w.1.as_ref().unwrap().indicators,
                "replay must be exact"
            );
        }
        // the journal records the full story: 2 sweeps, 3 executed
        // jobs, 6 completions, 2 summaries
        let events = store.read_journal().unwrap();
        let started = events
            .iter()
            .filter(|e| matches!(e, JournalEvent::JobStarted { .. }))
            .count();
        let hits = events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    JournalEvent::JobFinished {
                        cache_hit: true,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(started, 3, "only cold jobs start");
        assert_eq!(hits, 3, "warm jobs are hits");
    }

    #[test]
    fn bypass_cache_reruns_everything() {
        let ctx = ctx();
        let store = tmp_store("bypass");
        let orch = Orchestrator::new(2).with_store(store.clone());
        orch.compare(&ctx, &configs(), Value::Null).unwrap();
        let again = orch
            .clone()
            .bypass_cache(true)
            .compare(&ctx, &configs(), Value::Null)
            .unwrap();
        assert_eq!(again.stats.hits, 0);
        assert_eq!(again.stats.misses, 3);
    }

    #[test]
    fn run_one_caches_single_runs() {
        let ctx = ctx();
        let store = tmp_store("one");
        let orch = Orchestrator::new(1).with_store(store.clone());
        let spec = MethodSpec::Relational {
            algo: RelAlgo::Cluster,
            k: 4,
        };
        let (first, hit1) = orch.run_one(&ctx, &spec, 9).unwrap();
        assert!(!hit1);
        let (second, hit2) = orch.run_one(&ctx, &spec, 9).unwrap();
        assert!(hit2);
        let (a, b) = (first.unwrap(), second.unwrap());
        assert_eq!(a.anon, b.anon);
        assert_eq!(a.indicators, b.indicators);
        assert_eq!(a.phases, b.phases);
    }

    #[test]
    fn context_digest_tracks_session_content() {
        let a = ctx();
        let d1 = context_digest(&a);
        assert_eq!(d1, context_digest(&a), "digest is deterministic");
        let b = ctx().with_workload(Default::default());
        assert_ne!(d1, context_digest(&b), "workload is part of the digest");
        let other = SessionContext::auto(DatasetSpec::adult_like(61, 3).generate(), 4).unwrap();
        assert_ne!(context_digest(&a), context_digest(&other));
    }

    #[test]
    fn failures_are_not_cached() {
        let ctx = ctx();
        let store = tmp_store("fail");
        let orch = Orchestrator::new(1).with_store(store.clone());
        let spec = MethodSpec::Relational {
            algo: RelAlgo::Incognito,
            k: 1_000_000, // infeasible
        };
        let (r1, _) = orch.run_one(&ctx, &spec, 0).unwrap();
        assert!(r1.is_err());
        assert_eq!(store.list().unwrap().len(), 0);
        let (r2, hit) = orch.run_one(&ctx, &spec, 0).unwrap();
        assert!(r2.is_err());
        assert!(!hit, "errors re-run every time");
    }
}
