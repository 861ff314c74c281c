//! Measuring one workload: closed-loop `secreta compare` invocations
//! for the end-to-end metrics, and traced in-process passes for the
//! per-layer ones, each with the checks that its outputs are right.

use crate::calib::Bracket;
use crate::cli::{self, Invocation, JobReport};
use crate::stats::Summary;
use crate::trace::{self, Pass, Tracer};
use crate::workload::{Inputs, Job, Workload};
use secreta_core::store::{sha256_hex, RunManifest, RunStore};
use secreta_core::Indicators;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The end-to-end metrics, with their units.
pub const E2E_METRICS: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// SHA-256 of each workload's canonical indicator set at seed 42 (full
/// size): every job's label, sweep value and stored indicators, with
/// the wall-clock runtime zeroed.
const PINNED_SEED: u64 = 42;
const PINNED: [(&str, &str); 4] = [
    (
        "rel-compare",
        "744bb9733d195f2dbdcd0d2a12bc7b65736d2575fd5c3058443d9dc8e8783a8c",
    ),
    (
        "rel-are",
        "a4a3e4f657b8611deefedc9cfd18e88f847a322ac70344ce9ad7e16abc8c4407",
    ),
    (
        "tx-compare",
        "3b6c40f01ab9b43bdd1a6a4661c960d047ee03d8515959ce0b73af5f61d5a12a",
    ),
    (
        "replay",
        "f9649345acda989e9af2a280a844f239e274e395e4a0db70890c8284be657dc3",
    ),
];

/// Set-ups per measurement; their median is `setup_s`.
const SETUPS: usize = 3;

/// Where the benchmark runs things.
#[derive(Debug)]
pub struct Env {
    /// The `secreta` executable under test.
    pub exe: PathBuf,
    /// `--threads` of every invocation: the machine's parallelism.
    pub threads: usize,
    /// Parent of the per-workload work directories.
    pub work_root: PathBuf,
    /// Whether the workloads run at `--smoke` size.
    pub smoke: bool,
}

/// How much to measure: at least `reps` repetitions, continuing until
/// `seconds` of them have been measured.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub reps: usize,
    pub seconds: f64,
}

impl Plan {
    /// Exactly `reps` repetitions, however long they take.
    pub fn reps(reps: usize) -> Plan {
        Plan { reps, seconds: 0.0 }
    }

    fn done(&self, reps: usize, measured: Duration) -> bool {
        reps >= self.reps && measured.as_secs_f64() >= self.seconds
    }
}

/// A workload's working directory, removed with everything in it when
/// the workload is done.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(env: &Env, name: &str) -> Result<WorkDir, String> {
        let dir = env.work_root.join(format!("{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// End-to-end samples of one workload: one per measured invocation,
/// and `setup_s` one per set-up. Times are scaled to the reference host
/// speed (see [`crate::calib`]).
#[derive(Debug)]
pub struct E2e {
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// The factor each time sample was scaled by.
    pub factors: Vec<f64>,
    pub jobs_attempted: u64,
    pub jobs_failed: u64,
    /// SHA-256 of the canonical indicator set.
    pub digest: Option<String>,
    /// Failed output checks; empty when every output was right.
    pub errors: Vec<String>,
}

impl E2e {
    pub fn summary(&self, metric: &str) -> Option<Summary> {
        Summary::of(self.samples.get(metric)?)
    }

    pub fn fail_frac(&self) -> f64 {
        self.jobs_failed as f64 / self.jobs_attempted.max(1) as f64
    }

    fn sample(&mut self, metric: &str, value: f64) {
        self.samples
            .get_mut(metric)
            .expect("declared metric")
            .push(value);
    }

    /// Check an invocation, count its jobs, and compare its results
    /// with the `reference` invocation's.
    fn check(
        &mut self,
        p: &Prepared,
        inv: &Invocation,
        reference: Option<&Vec<JobReport>>,
    ) -> Vec<JobReport> {
        let (reports, attempted, failed) = p.check(inv, &mut self.errors);
        self.jobs_attempted += attempted;
        self.jobs_failed += failed;
        if reference.is_some_and(|r| *r != reports) {
            self.errors.push(format!(
                "{}: indicators differ between invocations",
                p.w.name
            ));
        }
        reports
    }
}

/// Per-layer results of one workload.
#[derive(Debug)]
pub struct Traced {
    pub passes: Vec<Pass>,
    pub jobs_attempted: u64,
    pub jobs_failed: u64,
    pub errors: Vec<String>,
}

impl Traced {
    /// Median of a per-layer metric over the passes.
    pub fn median(&self, metric: &str) -> f64 {
        let values: Vec<f64> = self.passes.iter().map(|p| p.metrics[metric]).collect();
        Summary::of(&values).map_or(f64::NAN, |s| s.median)
    }
}

/// State shared by the two modes: inputs written, session digest
/// known, store paths laid out, stored sweep (if any) populated.
struct Prepared<'a> {
    w: &'a Workload,
    env: &'a Env,
    dir: WorkDir,
    inputs: Inputs,
    jobs: Vec<Job>,
    /// The jobs a measured invocation executes: those not stored
    /// before it starts.
    new_jobs: Vec<Job>,
    store: PathBuf,
    out: PathBuf,
}

impl<'a> Prepared<'a> {
    fn new(w: &'a Workload, env: &'a Env) -> Result<Self, String> {
        let dir = WorkDir::create(env, w.name)?;
        let inputs = w.write_inputs(&dir.0)?;
        let (_, digest) = trace::load_session(w, &inputs.data, &mut Tracer::default())?;
        let jobs = Workload::jobs(&w.configs, &digest);
        let base: HashSet<String> = Workload::jobs(&w.base, &digest)
            .into_iter()
            .map(|j| j.key.0)
            .collect();
        let new_jobs = jobs
            .iter()
            .filter(|j| !base.contains(&j.key.0))
            .cloned()
            .collect();
        let p = Prepared {
            store: dir.0.join("store"),
            out: dir.0.join("out"),
            w,
            env,
            dir,
            inputs,
            jobs,
            new_jobs,
        };
        if !w.base.is_empty() {
            let inv = p.invoke(&p.inputs.base_config)?;
            if inv.code != Some(0) {
                return Err(format!(
                    "{}: populating the store failed: {}",
                    w.name,
                    tail(&inv.stderr)
                ));
            }
        }
        Ok(p)
    }

    fn invoke(&self, config: &Path) -> Result<Invocation, String> {
        let args = self.w.compare_args(
            &self.inputs,
            config,
            &self.store,
            &self.out,
            self.env.threads,
        );
        cli::run(&self.env.exe, &args, &self.dir.0)
            .map_err(|e| format!("{}: {e}", self.env.exe.display()))
    }

    /// Put the store back in the state a measured invocation starts
    /// from: gone for a cold workload, only the stored sweep for
    /// replay. Not timed.
    fn reset_store(&self) -> Result<(), String> {
        if self.w.base.is_empty() {
            return match std::fs::remove_dir_all(&self.store) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                    Err(format!("{}: {e}", self.store.display()))
                }
                _ => Ok(()),
            };
        }
        let store = RunStore::open(&self.store).map_err(|e| e.to_string())?;
        for job in &self.new_jobs {
            store.remove(&job.key).map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    /// Check one measured invocation: exit 0, the expected cache
    /// counts, and every job verified with its audit passed. Returns
    /// the job reports and (attempted, failed) job counts.
    fn check(&self, inv: &Invocation, errors: &mut Vec<String>) -> (Vec<JobReport>, u64, u64) {
        let name = self.w.name;
        let n = self.jobs.len() as u64;
        if inv.code != Some(0) {
            errors.push(format!(
                "{name}: secreta exited with {:?}: {}",
                inv.code,
                tail(&inv.stderr)
            ));
        }
        let (attempted, failed) = match cli::parse_cache(&inv.stdout) {
            Some(c) => {
                let misses = self.new_jobs.len() as u64;
                let want = (n - misses, misses, 0);
                if (c.hits, c.misses, c.failures) != want {
                    errors.push(format!(
                        "{name}: cache line reads {} hits, {} misses, {} failures; expected {want:?}",
                        c.hits, c.misses, c.failures
                    ));
                }
                (c.jobs(), c.failures)
            }
            None => {
                errors.push(format!("{name}: no cache line in the output"));
                (n, n)
            }
        };
        let reports = cli::parse_jobs(&inv.stdout);
        if reports.len() as u64 != n {
            errors.push(format!(
                "{name}: {} job results printed, {n} expected",
                reports.len()
            ));
        }
        for r in reports.iter().filter(|r| !(r.verified && r.audit_passed)) {
            errors.push(format!(
                "{name}: {} {} is not verified=true with audit pass",
                r.label, r.point
            ));
        }
        (reports, attempted, failed)
    }

    /// Indicators of every job as the CLI stored them, by job order.
    fn stored_indicators(&self, errors: &mut Vec<String>) -> Vec<Option<Indicators>> {
        let mut by_key: HashMap<String, RunManifest> = RunStore::open(&self.store)
            .and_then(|s| s.list())
            .map(|list| list.into_iter().map(|m| (m.key.clone(), m)).collect())
            .unwrap_or_default();
        self.jobs
            .iter()
            .map(|j| {
                let found = by_key.remove(&j.key.0).map(|m| m.indicators);
                if found.is_none() {
                    errors.push(format!(
                        "{}: the store holds no run under the key derived for {} {}={}",
                        self.w.name,
                        j.label,
                        j.param.label(),
                        j.value
                    ));
                }
                found
            })
            .collect()
    }
}

/// The last lines of a child's stderr, for an error message.
fn tail(stderr: &str) -> String {
    let lines: Vec<&str> = stderr.lines().collect();
    lines[lines.len().saturating_sub(3)..].join(" | ")
}

/// An indicator set with the wall-clock runtime taken out.
fn canonical(ind: &Indicators) -> String {
    let mut ind = ind.clone();
    ind.runtime_ms = 0.0;
    serde_json::to_string(&ind).expect("indicators serialize")
}

/// SHA-256 over every job's label, sweep value and canonical
/// indicators, in job order.
fn indicator_digest(jobs: &[Job], indicators: &[Indicators]) -> String {
    let mut text = String::new();
    for (j, ind) in jobs.iter().zip(indicators) {
        text.push_str(&format!("{}\t{}\t{}\n", j.label, j.value, canonical(ind)));
    }
    sha256_hex(text.as_bytes())
}

/// Measure `w` end to end. Set-up, timed as `setup_s`, goes from an
/// empty work directory to the first checked invocation: inputs
/// generated, stored sweep populated, caches the CLI fills on its first
/// run filled. It is done `SETUPS` times. Then measured invocations run
/// one at a time until `plan` is met.
pub fn measure(w: &Workload, env: &Env, plan: Plan) -> Result<E2e, String> {
    let mut e = E2e {
        samples: E2E_METRICS.iter().map(|(m, _)| (*m, Vec::new())).collect(),
        factors: Vec::new(),
        jobs_attempted: 0,
        jobs_failed: 0,
        digest: None,
        errors: Vec::new(),
    };
    let mut reference: Option<Vec<JobReport>> = None;
    let mut prepared = None;
    for _ in 0..SETUPS {
        // the previous set-up's directory goes before the next is made
        drop(prepared.take());
        let bracket = Bracket::open();
        let start = Instant::now();
        let p = Prepared::new(w, env)?;
        let inv = p.invoke(&p.inputs.config)?;
        let elapsed = start.elapsed();
        let factor = bracket.close();
        e.sample("setup_s", elapsed.as_secs_f64() * factor);
        e.factors.push(factor);
        let reports = e.check(&p, &inv, reference.as_ref());
        if reference.is_none() && e.errors.is_empty() {
            let stored: Option<Vec<Indicators>> =
                p.stored_indicators(&mut e.errors).into_iter().collect();
            e.digest = stored.map(|s| indicator_digest(&p.jobs, &s));
        }
        reference.get_or_insert(reports);
        prepared = Some(p);
    }
    let p = prepared.expect("at least one set-up");
    let mut measured = Duration::ZERO;
    let mut reps = 0;
    while e.errors.is_empty() && !plan.done(reps, measured) {
        p.reset_store()?;
        let bracket = Bracket::open();
        let inv = p.invoke(&p.inputs.config)?;
        let factor = bracket.close();
        e.check(&p, &inv, reference.as_ref());
        reps += 1;
        measured += inv.wall;
        e.sample("wall_s", inv.wall.as_secs_f64() * factor);
        e.sample("cpu_s", inv.cpu.as_secs_f64() * factor);
        e.sample("peak_rss_mb", inv.peak_rss_kib as f64 / 1024.0);
        e.factors.push(factor);
    }
    if w.seed == PINNED_SEED && !env.smoke {
        let pinned = PINNED.iter().find(|(n, _)| *n == w.name).map(|(_, d)| *d);
        if e.digest.as_deref() != pinned {
            e.errors.push(format!(
                "{}: indicator digest {:?} differs from the pinned {pinned:?}",
                w.name, e.digest
            ));
        }
    }
    Ok(e)
}

/// Trace `w`: traced in-process passes until `plan` is met, plus one
/// CLI invocation against the same store state whose stored results
/// must equal the first pass's indicators.
pub fn trace(w: &Workload, env: &Env, plan: Plan) -> Result<Traced, String> {
    let p = Prepared::new(w, env)?;
    let mut traced = Traced {
        passes: Vec::new(),
        jobs_attempted: 0,
        jobs_failed: 0,
        errors: Vec::new(),
    };
    let start = Instant::now();
    while traced.passes.is_empty() || !plan.done(traced.passes.len(), start.elapsed()) {
        let store = RunStore::open(&p.store).map_err(|e| e.to_string())?;
        let pass = trace::traced_pass(w, &p.inputs, &store, &p.out)?;
        p.reset_store()?;
        traced.jobs_attempted += pass.jobs.len() as u64;
        let executed: Vec<&str> = pass.executed().map(|j| j.key.as_str()).collect();
        let expected: Vec<&str> = p.new_jobs.iter().map(|j| j.key.as_str()).collect();
        if executed != expected {
            traced.errors.push(format!(
                "{}: the traced pass executed {} jobs, expected {}",
                w.name,
                executed.len(),
                expected.len()
            ));
        }
        traced.passes.push(pass);
        if traced.passes.len() > 1 {
            continue;
        }
        // the CLI runs against the store state the first pass started from
        let inv = p.invoke(&p.inputs.config)?;
        let errors_before = traced.errors.len();
        let (_, attempted, failed) = p.check(&inv, &mut traced.errors);
        traced.jobs_attempted += attempted;
        traced.jobs_failed += failed;
        if traced.errors.len() > errors_before {
            break;
        }
        let stored = p.stored_indicators(&mut traced.errors);
        let pass = &traced.passes[0];
        for ((job, ind), cli) in pass.jobs.iter().zip(&pass.indicators).zip(stored) {
            if cli.is_some_and(|c| canonical(&c) != canonical(ind)) {
                traced.errors.push(format!(
                    "{}: {} {}={}: the CLI stored other indicators than the traced pass",
                    w.name,
                    job.label,
                    job.param.label(),
                    job.value
                ));
            }
        }
        p.reset_store()?;
    }
    Ok(traced)
}
