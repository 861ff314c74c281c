//! The on-disk run store.
//!
//! Layout of a store root:
//!
//! ```text
//! <root>/
//!   runs/<kk>/<key>/manifest.json   # kk = first two hex chars of key
//!   runs/<kk>/<key>/anon.json       # the anonymized table
//!   tmp/                            # staging for atomic puts
//!   quarantine/                     # corrupt entries set aside by reads/fsck
//!   jobs/<sweep>/<seq>-<key16>.json # claimable job records (distributed sweeps)
//!   leases/<sweep>/<key>.lease      # worker leases on in-flight jobs
//!   journal.jsonl                   # write-ahead event journal
//!   store.lock                      # advisory writer lock (owner identity inside)
//! ```
//!
//! Puts are crash-atomic: both files are written into a unique
//! directory under `tmp/` and the whole directory is `rename(2)`d into
//! place, so a reader can never observe a half-written run. A run
//! directory either has both files (complete) or is garbage that
//! `gc` removes.
//!
//! Reads are self-healing: manifests carry a checksum of the stored
//! `anon.json` bytes, and an entry whose manifest fails to parse or
//! whose payload fails the checksum is moved to `quarantine/` and
//! reported as a cache miss — the orchestrator recomputes it instead
//! of failing the sweep or, worse, replaying a silently corrupted
//! result. A read verifies the payload but does not decode it — a
//! sweep hit needs only the manifest's indicators, and
//! [`StoredRun::anon`] decodes on demand. Bytes that verify are
//! exactly what `put` serialized (the checksum covers the bytes
//! written, and both files land in one rename), so a parse on every
//! read would catch nothing the checksum misses. [`RunStore::fsck`]
//! runs the same verification store-wide on demand, and also decodes
//! every table.

use crate::journal::{Journal, JournalEvent};
use crate::key::RunKey;
use crate::lock::StoreLock;
use crate::manifest::RunManifest;
use crate::retry::{transient_io, RetryPolicy};
use crate::sha::sha256_hex;
use secreta_metrics::AnonTable;
use serde::{Deserialize, Serialize, Value};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// One claimable unit of a distributed sweep: everything a worker
/// needs to re-execute a job except the session inputs themselves
/// (those come from the `SweepStarted` invocation in the journal).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobRecord {
    /// Sweep this job belongs to.
    pub sweep: String,
    /// Content address of the job (also the lease key).
    pub key: String,
    /// Position in the deterministic expansion order — the merge
    /// order of the final sweep, regardless of completion order.
    pub seq: u64,
    /// Configuration label.
    pub label: String,
    /// Sweep-point value.
    pub value: f64,
    /// RNG seed for the run.
    pub seed: u64,
    /// The method specification as an opaque JSON payload.
    pub spec: Value,
}

/// Failures of store operations.
#[derive(Debug)]
pub enum StoreError {
    /// An I/O operation failed at the given path.
    Io(PathBuf, io::Error),
    /// A stored file exists but does not parse as what it should be.
    Corrupt(PathBuf, String),
    /// The store's advisory lock is held by another live process (the
    /// pid recorded in the lock file; 0 when it could not be read).
    Locked(PathBuf, u32),
}

impl StoreError {
    /// Whether retrying the failed operation could plausibly succeed
    /// (transient I/O only; corruption and held locks are not retried).
    pub fn is_transient(&self) -> bool {
        match self {
            StoreError::Io(_, e) => transient_io(e),
            StoreError::Corrupt(_, _) | StoreError::Locked(_, _) => false,
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(path, e) => write!(f, "store i/o error at {}: {e}", path.display()),
            StoreError::Corrupt(path, msg) => {
                write!(f, "corrupt store entry at {}: {msg}", path.display())
            }
            StoreError::Locked(path, pid) => write!(
                f,
                "store is locked by pid {pid} ({}); wait for it to finish or remove a stale lock",
                path.display()
            ),
        }
    }
}

impl std::error::Error for StoreError {}

/// A run read back from the store: its parsed manifest and the
/// `anon.json` bytes, checked against the manifest's checksum but not
/// yet decoded. [`StoredRun::anon`] decodes them on demand.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredRun {
    /// Metadata and measurements.
    pub manifest: RunManifest,
    /// The verified `anon.json` bytes.
    anon_json: Vec<u8>,
    /// Where they were read from, for error reports.
    anon_path: PathBuf,
}

impl StoredRun {
    /// Decode the anonymized table the run produced. Fails with
    /// [`StoreError::Corrupt`] when the bytes do not parse as one —
    /// possible only if both stored files were rewritten to agree.
    pub fn anon(&self) -> Result<AnonTable, StoreError> {
        parse_json(&self.anon_json).map_err(|msg| StoreError::Corrupt(self.anon_path.clone(), msg))
    }
}

/// What reading one run directory found.
#[derive(Debug)]
enum ReadOutcome {
    /// No complete entry at this key.
    Missing,
    /// A run whose manifest parsed and whose payload verified.
    Complete(Box<StoredRun>),
    /// An entry exists but is unusable: the offending path and why.
    Corrupt(PathBuf, String),
}

/// A content-addressed store of completed runs.
#[derive(Debug, Clone)]
pub struct RunStore {
    root: PathBuf,
}

static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);

fn io_err(path: &Path) -> impl FnOnce(io::Error) -> StoreError + '_ {
    move |e| StoreError::Io(path.to_path_buf(), e)
}

impl RunStore {
    /// Open a store rooted at `root`, creating the layout if absent.
    ///
    /// Staging leftovers from *dead* writers (a crash between staging
    /// and rename) are swept on open; entries belonging to live
    /// processes are left alone, since a concurrent put may be mid-
    /// flight. Liveness comes from the pid embedded in every staging
    /// directory name.
    pub fn open(root: impl Into<PathBuf>) -> Result<RunStore, StoreError> {
        let root = root.into();
        for sub in ["runs", "tmp"] {
            let dir = root.join(sub);
            fs::create_dir_all(&dir).map_err(io_err(&dir))?;
        }
        let store = RunStore { root };
        store.sweep_dead_staging();
        Ok(store)
    }

    /// Remove `tmp/` entries whose writing process is provably dead.
    /// Best-effort: failures here never fail an open.
    fn sweep_dead_staging(&self) {
        let Ok(entries) = read_dir_sorted(&self.root.join("tmp")) else {
            return;
        };
        for entry in entries {
            let pid = entry
                .file_name()
                .and_then(|n| n.to_str())
                .and_then(|n| n.split('-').nth(1))
                .and_then(|p| p.parse::<u32>().ok());
            let dead = match pid {
                Some(pid) => crate::lock::pid_alive(pid) == Some(false),
                // name not in <key>-<pid>-<n> form: not one of ours,
                // treat as garbage
                None => true,
            };
            if dead {
                let _ = fs::remove_dir_all(&entry).or_else(|_| fs::remove_file(&entry));
            }
        }
    }

    /// Acquire the store's advisory writer lock; released on drop.
    /// Errors with [`StoreError::Locked`] while another live process
    /// holds it.
    pub fn lock(&self) -> Result<StoreLock, StoreError> {
        StoreLock::acquire(&self.root)
    }

    /// The store root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Path of the event journal.
    pub fn journal_path(&self) -> PathBuf {
        self.root.join("journal.jsonl")
    }

    /// Open the journal for appending.
    pub fn journal(&self) -> Result<Journal, StoreError> {
        let path = self.journal_path();
        Journal::open(&path).map_err(io_err(&path))
    }

    /// Read every journal event (empty when no journal exists).
    pub fn read_journal(&self) -> Result<Vec<JournalEvent>, StoreError> {
        let path = self.journal_path();
        crate::journal::read_events(&path).map_err(io_err(&path))
    }

    fn run_dir(&self, key: &str) -> PathBuf {
        let shard = key.get(..2).unwrap_or("xx");
        self.root.join("runs").join(shard).join(key)
    }

    /// Is a complete run stored under `key`?
    pub fn contains(&self, key: &RunKey) -> bool {
        let dir = self.run_dir(key.as_str());
        dir.join("manifest.json").is_file() && dir.join("anon.json").is_file()
    }

    /// Load the run stored under `key`, if complete: its manifest,
    /// plus `anon.json` verified against the manifest's checksum but
    /// left undecoded until [`StoredRun::anon`] asks.
    ///
    /// Self-healing: an entry whose manifest fails to parse or whose
    /// `anon.json` does not match the checksum in its manifest is
    /// moved to `quarantine/` and reported as a miss (`Ok(None)`), so
    /// the caller recomputes it. A manifest without a checksum
    /// (written before schema 3) cannot vouch for its payload, so that
    /// payload is decoded here and quarantined if it fails to parse.
    /// Only real I/O failures are errors.
    pub fn get(&self, key: &RunKey) -> Result<Option<StoredRun>, StoreError> {
        let dir = self.run_dir(key.as_str());
        match self.read_run(&dir, false)? {
            ReadOutcome::Missing => Ok(None),
            ReadOutcome::Complete(run) => Ok(Some(*run)),
            ReadOutcome::Corrupt(_, _) => {
                self.quarantine(&dir, key.as_str())?;
                Ok(None)
            }
        }
    }

    /// Read the run in `dir`, distinguishing corruption from real I/O
    /// failure. The payload is decoded only when `decode` is set or
    /// no checksum vouches for it. Never quarantines — callers decide.
    fn read_run(&self, dir: &Path, decode: bool) -> Result<ReadOutcome, StoreError> {
        let manifest_path = dir.join("manifest.json");
        let anon_path = dir.join("anon.json");
        if !manifest_path.is_file() || !anon_path.is_file() {
            return Ok(ReadOutcome::Missing);
        }
        let corrupt = |path: &Path, msg: String| Ok(ReadOutcome::Corrupt(path.to_path_buf(), msg));
        let manifest_bytes = fs::read(&manifest_path).map_err(io_err(&manifest_path))?;
        let manifest: RunManifest = match parse_json(&manifest_bytes) {
            Ok(m) => m,
            Err(msg) => return corrupt(&manifest_path, msg),
        };
        let anon_json = fs::read(&anon_path).map_err(io_err(&anon_path))?;
        if let Some(expected) = &manifest.anon_sha256 {
            let actual = sha256_hex(&anon_json);
            if &actual != expected {
                return corrupt(
                    &anon_path,
                    format!("checksum mismatch: manifest says {expected}, file is {actual}"),
                );
            }
        }
        if decode || manifest.anon_sha256.is_none() {
            if let Err(msg) = parse_json::<AnonTable>(&anon_json) {
                return corrupt(&anon_path, msg);
            }
        }
        Ok(ReadOutcome::Complete(Box::new(StoredRun {
            manifest,
            anon_json,
            anon_path,
        })))
    }

    /// Move the run directory `dir` into `quarantine/`, preserving it
    /// for post-mortems while freeing its key for recomputation.
    fn quarantine(&self, dir: &Path, key: &str) -> Result<PathBuf, StoreError> {
        let qdir = self.root.join("quarantine");
        fs::create_dir_all(&qdir).map_err(io_err(&qdir))?;
        let dest = qdir.join(format!(
            "{}-{}-{}",
            &key[..key.len().min(16)],
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed),
        ));
        fs::rename(dir, &dest).map_err(io_err(dir))?;
        if let Some(shard) = dir.parent() {
            let _ = fs::remove_dir(shard);
        }
        Ok(dest)
    }

    /// Store a completed run atomically. A run already present under
    /// the same key is left untouched (first write wins; contents are
    /// deterministic in the key, so any duplicate is identical).
    ///
    /// The stored manifest gains an `anon_sha256` checksum over the
    /// `anon.json` bytes, verified by every later [`RunStore::get`].
    /// Transient I/O failures are retried with bounded deterministic
    /// backoff; each attempt stages into a fresh directory, so a
    /// failed attempt never pollutes the next.
    pub fn put(&self, manifest: &RunManifest, anon: &AnonTable) -> Result<(), StoreError> {
        self.commit(manifest, anon, None).map(|_| ())
    }

    /// Directory of claimable job records for `sweep`.
    pub fn jobs_dir(&self, sweep: &str) -> PathBuf {
        self.root.join("jobs").join(sweep)
    }

    /// Write the claimable job records of a distributed sweep. Each
    /// record lands atomically (tmp + rename) under a name ordered by
    /// its expansion sequence, so workers list them deterministically.
    pub fn put_jobs(&self, jobs: &[JobRecord]) -> Result<(), StoreError> {
        for job in jobs {
            let dir = self.jobs_dir(&job.sweep);
            fs::create_dir_all(&dir).map_err(io_err(&dir))?;
            let text = serde_json::to_string(job)
                .map_err(|e| StoreError::Corrupt(dir.clone(), e.to_string()))?;
            let name = format!("{:08}-{}.json", job.seq, &job.key[..job.key.len().min(16)]);
            let tmp = dir.join(format!(
                ".tmp-{}-{}",
                std::process::id(),
                TMP_COUNTER.fetch_add(1, Ordering::Relaxed)
            ));
            let path = dir.join(name);
            fs::write(&tmp, text)
                .and_then(|_| fs::rename(&tmp, &path))
                .map_err(io_err(&path))?;
        }
        Ok(())
    }

    /// Read the job records of `sweep`, in expansion (`seq`) order.
    /// Dot-prefixed staging leftovers and unparseable records are
    /// skipped — a torn record re-executes via `runs resume`, it
    /// should not wedge every worker.
    pub fn list_jobs(&self, sweep: &str) -> Result<Vec<JobRecord>, StoreError> {
        let mut jobs = Vec::new();
        for path in read_dir_sorted(&self.jobs_dir(sweep))? {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or(".");
            if name.starts_with('.') || !name.ends_with(".json") {
                continue;
            }
            let text = fs::read_to_string(&path).map_err(io_err(&path))?;
            if let Ok(job) = serde_json::from_str::<JobRecord>(&text) {
                jobs.push(job);
            }
        }
        jobs.sort_by_key(|j| j.seq);
        Ok(jobs)
    }

    /// Remove the job records (and any leases) of a completed sweep.
    pub fn clear_jobs(&self, sweep: &str) -> Result<(), StoreError> {
        for dir in [
            self.jobs_dir(sweep),
            self.root.join(crate::lease::LEASE_DIR).join(sweep),
        ] {
            if dir.exists() {
                fs::remove_dir_all(&dir).map_err(io_err(&dir))?;
            }
            if let Some(parent) = dir.parent() {
                let _ = fs::remove_dir(parent);
            }
        }
        Ok(())
    }

    /// Store a completed run like [`RunStore::put`], but fenced by a
    /// worker lease: the staged directory carries the lease `epoch` in
    /// its name, and `fence` is re-checked immediately before the
    /// rename-commit. Returns `Ok(false)` — with the staging cleaned
    /// up and nothing committed — when the fence reports the lease
    /// lost, so a reclaimed worker's late write is rejected instead of
    /// racing the reclaimer.
    pub fn put_fenced(
        &self,
        manifest: &RunManifest,
        anon: &AnonTable,
        epoch: u64,
        fence: &dyn Fn() -> bool,
    ) -> Result<bool, StoreError> {
        self.commit(manifest, anon, Some((epoch, fence)))
    }

    /// The one commit routine behind [`RunStore::put`] (unfenced) and
    /// [`RunStore::put_fenced`]. `Ok(true)` once the key holds a
    /// complete run, whoever wrote it; `Ok(false)` only when the fence
    /// rejected this write.
    fn commit(
        &self,
        manifest: &RunManifest,
        anon: &AnonTable,
        fence: Option<(u64, &dyn Fn() -> bool)>,
    ) -> Result<bool, StoreError> {
        let key = RunKey(manifest.key.clone());
        if self.contains(&key) {
            return Ok(true);
        }
        let anon_text = serde_json::to_string(anon)
            .map_err(|e| StoreError::Corrupt(self.root.clone(), e.to_string()))?;
        let mut manifest = manifest.clone();
        manifest.anon_sha256 = Some(sha256_hex(anon_text.as_bytes()));
        let manifest_text = serde_json::to_string_pretty(&manifest)
            .map_err(|e| StoreError::Corrupt(self.root.clone(), e.to_string()))?;
        RetryPolicy::store_default().run(
            || self.commit_once(&key, &manifest_text, &anon_text, fence),
            StoreError::is_transient,
        )
    }

    /// One staged-write-and-rename attempt of [`RunStore::commit`].
    fn commit_once(
        &self,
        key: &RunKey,
        manifest_text: &str,
        anon_text: &str,
        fence: Option<(u64, &dyn Fn() -> bool)>,
    ) -> Result<bool, StoreError> {
        // fault-injection points: before any bytes touch disk, so a
        // retried attempt starts from a clean slate and a crashed
        // writer leaves only the commits that finished before it
        if let Some(e) = secreta_faults::fault::io("store.put") {
            return Err(StoreError::Io(self.root.join("tmp"), e));
        }
        secreta_faults::fault::crash_point("store.put");
        let epoch = fence.map(|(epoch, _)| format!("-e{epoch}"));
        let stage = self.root.join("tmp").join(format!(
            "{}-{}-{}{}",
            &key.as_str()[..key.as_str().len().min(16)],
            std::process::id(),
            TMP_COUNTER.fetch_add(1, Ordering::Relaxed),
            epoch.unwrap_or_default(),
        ));
        let staged = (|| -> Result<(), StoreError> {
            fs::create_dir_all(&stage).map_err(io_err(&stage))?;
            for (name, text) in [("manifest.json", manifest_text), ("anon.json", anon_text)] {
                let path = stage.join(name);
                fs::write(&path, text).map_err(io_err(&path))?;
            }
            Ok(())
        })();
        if let Err(e) = staged {
            let _ = fs::remove_dir_all(&stage);
            return Err(e);
        }
        // the fence: a reclaimed lease means another worker owns this
        // job now — discard the late write
        if fence.is_some_and(|(_, still_ours)| !still_ours()) {
            let _ = fs::remove_dir_all(&stage);
            return Ok(false);
        }
        let dest = self.run_dir(key.as_str());
        if let Some(parent) = dest.parent() {
            fs::create_dir_all(parent).map_err(io_err(parent))?;
        }
        match fs::rename(&stage, &dest) {
            Ok(()) => Ok(true),
            Err(_) if self.contains(key) => {
                // lost a race with a concurrent writer of the same run
                let _ = fs::remove_dir_all(&stage);
                Ok(true)
            }
            Err(e) => {
                let _ = fs::remove_dir_all(&stage);
                Err(StoreError::Io(dest, e))
            }
        }
    }

    /// Manifests of every complete run, oldest first (ties broken by
    /// key, so the order is deterministic). Entries whose manifest
    /// fails to parse are skipped — `fsck` reports (and `--repair`
    /// quarantines) them; a listing should not die on one bad file.
    pub fn list(&self) -> Result<Vec<RunManifest>, StoreError> {
        let runs = self.root.join("runs");
        let mut out = Vec::new();
        for shard in read_dir_sorted(&runs)? {
            if !shard.is_dir() {
                continue;
            }
            for dir in read_dir_sorted(&shard)? {
                let manifest_path = dir.join("manifest.json");
                if !manifest_path.is_file() || !dir.join("anon.json").is_file() {
                    continue;
                }
                let bytes = fs::read(&manifest_path).map_err(io_err(&manifest_path))?;
                if let Ok(manifest) = parse_json::<RunManifest>(&bytes) {
                    out.push(manifest);
                }
            }
        }
        out.sort_by(|a, b| {
            a.created_unix_ms
                .cmp(&b.created_unix_ms)
                .then_with(|| a.key.cmp(&b.key))
        });
        Ok(out)
    }

    /// Resolve a (possibly abbreviated) key to the unique stored run
    /// it prefixes. Errors on ambiguity; `Ok(None)` when nothing
    /// matches.
    pub fn resolve(&self, prefix: &str) -> Result<Option<RunKey>, StoreError> {
        let mut matches: Vec<String> = self
            .list()?
            .into_iter()
            .map(|m| m.key)
            .filter(|k| k.starts_with(prefix))
            .collect();
        match (matches.pop(), matches.len()) {
            (None, _) => Ok(None),
            (Some(key), 0) => Ok(Some(RunKey(key))),
            (Some(_), n) => Err(StoreError::Corrupt(
                self.root.clone(),
                format!("key prefix `{prefix}` is ambiguous ({} matches)", n + 1),
            )),
        }
    }

    /// Remove the run stored under `key`. Returns whether anything
    /// was deleted.
    pub fn remove(&self, key: &RunKey) -> Result<bool, StoreError> {
        let dir = self.run_dir(key.as_str());
        if !dir.exists() {
            return Ok(false);
        }
        fs::remove_dir_all(&dir).map_err(io_err(&dir))?;
        // drop the shard directory too once it empties
        if let Some(shard) = dir.parent() {
            let _ = fs::remove_dir(shard);
        }
        Ok(true)
    }

    /// Remove staging leftovers and incomplete run directories (a
    /// crash between `create_dir_all` and `rename` can leave either).
    /// Returns the number of directories removed.
    pub fn gc_incomplete(&self) -> Result<usize, StoreError> {
        let mut removed = 0;
        let tmp = self.root.join("tmp");
        for entry in read_dir_sorted(&tmp)? {
            fs::remove_dir_all(&entry)
                .or_else(|_| fs::remove_file(&entry))
                .map_err(io_err(&entry))?;
            removed += 1;
        }
        let runs = self.root.join("runs");
        for shard in read_dir_sorted(&runs)? {
            if !shard.is_dir() {
                continue;
            }
            for dir in read_dir_sorted(&shard)? {
                if dir.join("manifest.json").is_file() && dir.join("anon.json").is_file() {
                    continue;
                }
                fs::remove_dir_all(&dir).map_err(io_err(&dir))?;
                removed += 1;
            }
            let _ = fs::remove_dir(&shard);
        }
        Ok(removed)
    }

    /// Remove *everything* — every run, the staging area, quarantined
    /// entries, job records, leases, the journal, any lock file —
    /// leaving the store root empty. Returns the number of runs
    /// removed.
    pub fn gc_all(&self) -> Result<usize, StoreError> {
        let count = self.list()?.len();
        for sub in ["runs", "tmp", "quarantine", "jobs", crate::lease::LEASE_DIR] {
            let dir = self.root.join(sub);
            if dir.exists() {
                fs::remove_dir_all(&dir).map_err(io_err(&dir))?;
            }
        }
        for file in [self.journal_path(), self.root.join(crate::lock::LOCK_FILE)] {
            if file.exists() {
                fs::remove_file(&file).map_err(io_err(&file))?;
            }
        }
        Ok(count)
    }

    /// Verify every stored run (parseability of both files and
    /// `anon.json` checksums — unlike a cache hit, fsck decodes every
    /// table) plus the staging area and journal. With
    /// `repair = true`, corrupt entries are moved to `quarantine/` —
    /// freeing their keys for recomputation — and incomplete/staging
    /// leftovers are removed; without it, nothing is touched.
    pub fn fsck(&self, repair: bool) -> Result<FsckReport, StoreError> {
        let mut report = FsckReport {
            repaired: repair,
            ..FsckReport::default()
        };
        let runs = self.root.join("runs");
        for shard in read_dir_sorted(&runs)? {
            if !shard.is_dir() {
                continue;
            }
            for dir in read_dir_sorted(&shard)? {
                let key = dir
                    .file_name()
                    .and_then(|n| n.to_str())
                    .unwrap_or("?")
                    .to_string();
                report.scanned += 1;
                match self.read_run(&dir, true)? {
                    ReadOutcome::Complete(_) => report.ok += 1,
                    ReadOutcome::Missing => {
                        report.incomplete += 1;
                        if repair {
                            fs::remove_dir_all(&dir).map_err(io_err(&dir))?;
                        }
                    }
                    ReadOutcome::Corrupt(path, reason) => {
                        report
                            .corrupt
                            .push((key.clone(), format!("{}: {reason}", path.display())));
                        if repair {
                            self.quarantine(&dir, &key)?;
                        }
                    }
                }
            }
            if repair {
                let _ = fs::remove_dir(&shard);
            }
        }
        for entry in read_dir_sorted(&self.root.join("tmp"))? {
            report.staging += 1;
            if repair {
                fs::remove_dir_all(&entry)
                    .or_else(|_| fs::remove_file(&entry))
                    .map_err(io_err(&entry))?;
            }
        }
        report.journal_error = match crate::journal::read_events(&self.journal_path()) {
            Ok(_) => None,
            Err(e) => Some(e.to_string()),
        };
        Ok(report)
    }
}

/// What [`RunStore::fsck`] found (and, with `--repair`, did).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct FsckReport {
    /// Run directories examined.
    pub scanned: usize,
    /// Runs that parsed and passed checksum verification.
    pub ok: usize,
    /// `(key, reason)` of corrupt entries (quarantined when repairing).
    pub corrupt: Vec<(String, String)>,
    /// Incomplete run directories (removed when repairing).
    pub incomplete: usize,
    /// Staging leftovers under `tmp/` (removed when repairing).
    pub staging: usize,
    /// Set when the journal itself fails to read; mid-file journal
    /// corruption is reported but never auto-repaired.
    pub journal_error: Option<String>,
    /// Whether this report was produced by a repairing pass.
    pub repaired: bool,
}

impl FsckReport {
    /// Whether the store is fully healthy (nothing corrupt, nothing
    /// left over, journal readable).
    pub fn is_clean(&self) -> bool {
        self.corrupt.is_empty()
            && self.incomplete == 0
            && self.staging == 0
            && self.journal_error.is_none()
    }
}

/// Parse stored JSON bytes, folding invalid UTF-8 into the parse
/// error: damaged bytes are corruption, not an I/O failure.
fn parse_json<T: Deserialize>(bytes: &[u8]) -> Result<T, String> {
    let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
    serde_json::from_str(text).map_err(|e| e.to_string())
}

/// Directory entries sorted by name; a missing directory reads as
/// empty.
fn read_dir_sorted(dir: &Path) -> Result<Vec<PathBuf>, StoreError> {
    let rd = match fs::read_dir(dir) {
        Ok(rd) => rd,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(StoreError::Io(dir.to_path_buf(), e)),
    };
    let mut entries = Vec::new();
    for entry in rd {
        entries.push(entry.map_err(io_err(dir))?.path());
    }
    entries.sort();
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::STORE_SCHEMA_VERSION;
    use secreta_metrics::Indicators;
    use serde::Value;
    use std::time::Duration;

    fn tmp_store(name: &str) -> RunStore {
        let dir =
            std::env::temp_dir().join(format!("secreta-store-{}-{}", std::process::id(), name));
        let _ = fs::remove_dir_all(&dir);
        RunStore::open(dir).unwrap()
    }

    fn manifest(key: &str, created: u64) -> RunManifest {
        RunManifest {
            key: key.to_owned(),
            schema_version: STORE_SCHEMA_VERSION,
            context: "ctx".to_owned(),
            label: "CLUSTER".to_owned(),
            config: Value::Obj(vec![("k".to_owned(), Value::U64(5))]),
            seed: 1,
            sweep_param: None,
            sweep_value: None,
            created_unix_ms: created,
            indicators: Indicators {
                gcp: 0.5,
                tx_gcp: 0.25,
                ul: 0.0,
                are: 0.0,
                item_freq_error: 0.0,
                discernibility: 8,
                avg_class_size: 2.0,
                runtime_ms: 1.5,
                verified: true,
                risk: None,
            },
            phases: secreta_metrics::PhaseTimes {
                phases: vec![("anonymize".to_owned(), Duration::from_millis(1))],
            },
            profile: None,
            anon_sha256: None,
        }
    }

    fn empty_anon() -> AnonTable {
        AnonTable {
            rel: vec![],
            tx: None,
            n_rows: 0,
        }
    }

    fn key64(seed: u8) -> String {
        let c = char::from_digit((seed % 16) as u32, 16).unwrap();
        std::iter::repeat_n(c, 64).collect()
    }

    #[test]
    fn put_get_roundtrip() {
        let store = tmp_store("putget");
        let key = key64(0xa);
        let m = manifest(&key, 10);
        let anon = empty_anon();
        store.put(&m, &anon).unwrap();
        assert!(store.contains(&RunKey(key.clone())));
        let back = store.get(&RunKey(key)).unwrap().unwrap();
        assert_eq!(back.anon().unwrap(), anon);
        // put fills in the checksum; every other field round-trips
        assert!(back.manifest.anon_sha256.is_some());
        assert_eq!(
            RunManifest {
                anon_sha256: None,
                ..back.manifest
            },
            m
        );
        // tmp staging is clean after a successful put
        assert!(read_dir_sorted(&store.root().join("tmp"))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn get_missing_is_none() {
        let store = tmp_store("missing");
        assert!(store.get(&RunKey(key64(1))).unwrap().is_none());
        assert!(!store.contains(&RunKey(key64(1))));
    }

    #[test]
    fn list_sorts_by_creation() {
        let store = tmp_store("list");
        store.put(&manifest(&key64(2), 20), &empty_anon()).unwrap();
        store.put(&manifest(&key64(3), 10), &empty_anon()).unwrap();
        let all = store.list().unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].created_unix_ms, 10);
        assert_eq!(all[1].created_unix_ms, 20);
    }

    #[test]
    fn resolve_prefix() {
        let store = tmp_store("resolve");
        store.put(&manifest(&key64(4), 1), &empty_anon()).unwrap();
        store.put(&manifest(&key64(5), 2), &empty_anon()).unwrap();
        assert_eq!(store.resolve("44").unwrap(), Some(RunKey(key64(4))));
        assert_eq!(store.resolve("ff").unwrap(), None);
        // "" prefixes both keys
        assert!(store.resolve("").is_err());
    }

    #[test]
    fn remove_and_gc_all_leave_store_empty() {
        let store = tmp_store("gc");
        store.put(&manifest(&key64(6), 1), &empty_anon()).unwrap();
        store.put(&manifest(&key64(7), 2), &empty_anon()).unwrap();
        store
            .journal()
            .unwrap()
            .append(&JournalEvent::SweepFinished {
                sweep: "s".into(),
                hits: 0,
                misses: 0,
                failures: 0,
            })
            .unwrap();
        assert!(store.remove(&RunKey(key64(6))).unwrap());
        assert!(!store.remove(&RunKey(key64(6))).unwrap());
        assert_eq!(store.list().unwrap().len(), 1);
        assert_eq!(store.gc_all().unwrap(), 1);
        let leftovers: Vec<PathBuf> = fs::read_dir(store.root())
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert!(
            leftovers.is_empty(),
            "store not empty after gc: {leftovers:?}"
        );
    }

    #[test]
    fn gc_incomplete_removes_partial_runs() {
        let store = tmp_store("gcpartial");
        store.put(&manifest(&key64(8), 1), &empty_anon()).unwrap();
        // a run dir missing anon.json, as left by a crash
        let partial = store.root().join("runs").join("99").join(key64(9));
        fs::create_dir_all(&partial).unwrap();
        fs::write(partial.join("manifest.json"), "{}").unwrap();
        // staging leftovers
        fs::create_dir_all(store.root().join("tmp").join("stale")).unwrap();
        assert_eq!(store.gc_incomplete().unwrap(), 2);
        assert!(!partial.exists());
        assert_eq!(store.list().unwrap().len(), 1);
    }

    #[test]
    fn corrupt_manifest_is_quarantined_as_a_miss() {
        let store = tmp_store("corrupt");
        let key = key64(0xb);
        store.put(&manifest(&key, 1), &empty_anon()).unwrap();
        let path = store
            .root()
            .join("runs")
            .join("bb")
            .join(&key)
            .join("manifest.json");
        fs::write(&path, "{ not json").unwrap();
        // a corrupt entry reads as a miss, not an error...
        assert!(store.get(&RunKey(key.clone())).unwrap().is_none());
        // ...and has been moved aside, freeing the key for re-put
        assert!(!store.contains(&RunKey(key.clone())));
        assert_eq!(
            read_dir_sorted(&store.root().join("quarantine"))
                .unwrap()
                .len(),
            1
        );
        store.put(&manifest(&key, 2), &empty_anon()).unwrap();
        assert!(store.get(&RunKey(key.clone())).unwrap().is_some());
        // bytes that are not even UTF-8 are corruption too, not an
        // I/O error: listing skips the entry and a read sets it aside
        fs::write(&path, b"{\"key\": \"\xff\"}").unwrap();
        assert!(store.list().unwrap().is_empty());
        assert!(store.get(&RunKey(key)).unwrap().is_none());
        assert_eq!(
            read_dir_sorted(&store.root().join("quarantine"))
                .unwrap()
                .len(),
            2
        );
    }

    #[test]
    fn checksum_mismatch_is_quarantined_as_a_miss() {
        let store = tmp_store("checksum");
        let key = key64(0xc);
        store.put(&manifest(&key, 1), &empty_anon()).unwrap();
        let anon_path = store
            .root()
            .join("runs")
            .join("cc")
            .join(&key)
            .join("anon.json");
        // valid JSON of the right shape, but not the recorded bytes —
        // only the checksum can catch this
        fs::write(&anon_path, r#"{"rel":[],"tx":null,"n_rows":7}"#).unwrap();
        assert!(store.get(&RunKey(key.clone())).unwrap().is_none());
        assert!(!store.contains(&RunKey(key)));
    }

    /// The run directory of `key`.
    fn dir_of(store: &RunStore, key: &str) -> PathBuf {
        store.root().join("runs").join(&key[..2]).join(key)
    }

    #[test]
    fn unchecksummed_garbage_payload_is_still_quarantined() {
        // a pre-schema-3 manifest carries no checksum, so get must
        // decode the payload itself to catch the garbage
        let store = tmp_store("nosum");
        let key = key64(0x9);
        store.put(&manifest(&key, 1), &empty_anon()).unwrap();
        let dir = dir_of(&store, &key);
        let legacy = RunManifest {
            anon_sha256: None,
            ..manifest(&key, 1)
        };
        fs::write(
            dir.join("manifest.json"),
            serde_json::to_string_pretty(&legacy).unwrap(),
        )
        .unwrap();
        fs::write(dir.join("anon.json"), "{\"rel\":[[").unwrap();
        assert!(store.get(&RunKey(key.clone())).unwrap().is_none());
        assert!(!store.contains(&RunKey(key)));
        assert_eq!(
            read_dir_sorted(&store.root().join("quarantine"))
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn verified_payload_decodes_only_on_demand() {
        // both files rewritten to agree on a payload that is not JSON:
        // the checksum passes, so get serves the manifest; the table
        // decode and fsck both name the corruption
        let store = tmp_store("lazy");
        let key = key64(0x8);
        store.put(&manifest(&key, 1), &empty_anon()).unwrap();
        let dir = dir_of(&store, &key);
        let garbage = b"\xffnot json".as_slice();
        let mut m = store.get(&RunKey(key.clone())).unwrap().unwrap().manifest;
        m.anon_sha256 = Some(sha256_hex(garbage));
        fs::write(
            dir.join("manifest.json"),
            serde_json::to_string_pretty(&m).unwrap(),
        )
        .unwrap();
        fs::write(dir.join("anon.json"), garbage).unwrap();

        let run = store.get(&RunKey(key.clone())).unwrap().expect("verified");
        assert_eq!(run.manifest, m);
        match run.anon() {
            Err(StoreError::Corrupt(path, _)) => assert_eq!(path, dir.join("anon.json")),
            other => panic!("expected a corrupt table, got {other:?}"),
        }
        let report = store.fsck(false).unwrap();
        assert_eq!(report.ok, 0);
        assert_eq!(report.corrupt.len(), 1, "{report:?}");
        assert_eq!(report.corrupt[0].0, key);
    }

    #[test]
    fn fsck_reports_and_repair_quarantines() {
        let store = tmp_store("fsck");
        let good = key64(0xd);
        let bad = key64(0xe);
        store.put(&manifest(&good, 1), &empty_anon()).unwrap();
        store.put(&manifest(&bad, 2), &empty_anon()).unwrap();
        let bad_anon = store
            .root()
            .join("runs")
            .join("ee")
            .join(&bad)
            .join("anon.json");
        fs::write(&bad_anon, "garbage").unwrap();
        // an incomplete run dir and a staging leftover
        let partial = store.root().join("runs").join("11").join(key64(1));
        fs::create_dir_all(&partial).unwrap();
        fs::write(partial.join("manifest.json"), "{}").unwrap();
        fs::create_dir_all(store.root().join("tmp").join("stale")).unwrap();

        let dry = store.fsck(false).unwrap();
        assert_eq!(dry.scanned, 3);
        assert_eq!(dry.ok, 1);
        assert_eq!(dry.corrupt.len(), 1);
        assert_eq!(dry.incomplete, 1);
        assert_eq!(dry.staging, 1);
        assert!(!dry.is_clean());
        // dry run touched nothing
        assert!(bad_anon.exists() && partial.exists());

        let fixed = store.fsck(true).unwrap();
        assert_eq!(fixed.corrupt.len(), 1);
        assert!(!bad_anon.exists() && !partial.exists());
        let again = store.fsck(false).unwrap();
        assert!(again.is_clean(), "{again:?}");
        assert_eq!(again.ok, 1);
        // the good run survived untouched
        assert!(store.get(&RunKey(good)).unwrap().is_some());
    }

    #[test]
    fn put_retries_injected_transient_faults() {
        let store = tmp_store("putretry");
        let key = key64(0xf);
        secreta_faults::install(
            secreta_faults::FaultPlan::from_spec("seed=9;io@store.put=1x1").unwrap(),
        );
        let res = store.put(&manifest(&key, 1), &empty_anon());
        secreta_faults::clear();
        res.unwrap();
        assert!(store.get(&RunKey(key)).unwrap().is_some());
        assert!(read_dir_sorted(&store.root().join("tmp"))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn truncated_staged_put_recovers_on_next_open() {
        // a crash mid-put leaves a staging dir with a truncated
        // anon.json; reopening the store (same pid is "alive", so use
        // a dead-pid name as the crashed writer) must sweep it
        let store = tmp_store("truncstage");
        let stage = store
            .root()
            .join("tmp")
            .join(format!("{}-{}-0", &key64(3)[..16], u32::MAX));
        fs::create_dir_all(&stage).unwrap();
        fs::write(stage.join("manifest.json"), "{\"key\": \"tru").unwrap();
        fs::write(stage.join("anon.json"), "{\"rel\":[[1,").unwrap();
        let reopened = RunStore::open(store.root().to_path_buf()).unwrap();
        if crate::lock::pid_alive(1).is_some() {
            assert!(!stage.exists(), "dead writer's staging dir must be swept");
            assert!(read_dir_sorted(&reopened.root().join("tmp"))
                .unwrap()
                .is_empty());
        } else {
            // no /proc: the sweep cannot prove the writer dead; gc
            // still cleans it
            reopened.gc_incomplete().unwrap();
            assert!(!stage.exists());
        }
        assert_eq!(reopened.list().unwrap().len(), 0);
    }

    #[test]
    fn crash_during_gc_incomplete_is_rerunnable() {
        // gc removes entries one at a time; simulate a crash halfway
        // (some partial dirs removed, some left) and verify a second
        // gc pass — as run by the next open/resume — finishes the job
        let store = tmp_store("gccrash");
        store.put(&manifest(&key64(2), 1), &empty_anon()).unwrap();
        let partial_a = store.root().join("runs").join("33").join(key64(3));
        let partial_b = store.root().join("runs").join("44").join(key64(4));
        for p in [&partial_a, &partial_b] {
            fs::create_dir_all(p).unwrap();
            fs::write(p.join("anon.json"), "{}").unwrap();
        }
        // "crash": first dir already gone, second still there
        fs::remove_dir_all(&partial_a).unwrap();
        assert_eq!(store.gc_incomplete().unwrap(), 1);
        assert!(!partial_b.exists());
        assert_eq!(store.list().unwrap().len(), 1);
        assert!(store.fsck(false).unwrap().is_clean());
    }

    #[test]
    fn lock_roundtrip_via_store() {
        let store = tmp_store("lock");
        let guard = store.lock().unwrap();
        assert!(matches!(store.lock(), Err(StoreError::Locked(_, _))));
        drop(guard);
        assert!(store.lock().is_ok());
    }
}
