//! The write-ahead event journal.
//!
//! Every orchestrated experiment appends JSONL events to
//! `journal.jsonl` in the store root. The journal serves two roles:
//!
//! 1. **Intent log** — a [`JournalEvent::SweepStarted`] record is
//!    written *before* any job runs. It carries the full invocation
//!    (enough to re-expand the job DAG) and the precomputed run key of
//!    every job. If the process dies mid-sweep, `secreta runs resume`
//!    replays the invocation; jobs whose results already reached the
//!    store are cache hits, so only the missing tail is recomputed.
//! 2. **Observability** — `JobStarted` / `JobFinished` /
//!    `SweepFinished` events record per-job wall time, cache
//!    hit/miss/failure counters and scheduling order, without any
//!    extra instrumentation in the algorithms themselves.
//!
//! Appends are line-atomic on POSIX (single short `write` + flush);
//! the reader tolerates a torn final line, treating it as truncation
//! from a crash mid-append.

use serde::{Deserialize, Serialize, Value};
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// The intent record for one orchestrated experiment (a sweep of one
/// or more configurations).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepRecord {
    /// Identifier of this sweep, unique within the journal (derived
    /// from its job keys, so re-running the same experiment produces
    /// the same id).
    pub id: String,
    /// Digest of the session inputs.
    pub context: String,
    /// Label of the varied parameter (`k`, `m`, `δ`).
    pub param: String,
    /// One label per configuration, in order.
    pub labels: Vec<String>,
    /// For each configuration, the `(sweep value, run key)` of every
    /// job it expands to, in sweep order.
    pub jobs: Vec<Vec<(f64, String)>>,
    /// The full invocation as an opaque JSON payload, sufficient for
    /// `runs resume` to rebuild the session context and re-run.
    pub invocation: Value,
}

/// One line of the journal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JournalEvent {
    /// A sweep is about to execute; written before any job starts.
    SweepStarted(SweepRecord),
    /// A job was picked up by a worker (cache misses only).
    JobStarted {
        /// Sweep this job belongs to.
        sweep: String,
        /// Content address of the job.
        key: String,
        /// Configuration label.
        label: String,
        /// Sweep-point value.
        value: f64,
    },
    /// A job failed (panic, timeout, or run error). Written in
    /// addition to the `ok: false` [`JournalEvent::JobFinished`] line
    /// so failure counters keep working while the error itself stays
    /// on record; sweeps with `JobFailed` events are degraded and show
    /// up in [`resumable_sweeps`] until a later re-run finishes clean.
    JobFailed {
        /// Sweep this job belongs to.
        sweep: String,
        /// Content address of the job.
        key: String,
        /// Configuration label.
        label: String,
        /// Sweep-point value.
        value: f64,
        /// Rendered run error.
        error: String,
    },
    /// A job completed (by cache replay or by running).
    JobFinished {
        /// Sweep this job belongs to.
        sweep: String,
        /// Content address of the job.
        key: String,
        /// `true` when the result was replayed from the store without
        /// doing any anonymization work.
        cache_hit: bool,
        /// `false` when the run returned an error (errors are not
        /// cached; they re-run on resume).
        ok: bool,
        /// Wall-clock milliseconds to produce the result.
        wall_ms: f64,
    },
    /// A worker process claimed the lease on a job (distributed sweeps
    /// only).
    JobClaimed {
        /// Sweep this job belongs to.
        sweep: String,
        /// Content address of the job.
        key: String,
        /// PID of the claiming worker.
        pid: u32,
        /// Fencing epoch of the claimed lease.
        epoch: u64,
    },
    /// A lease went stale (dead holder or heartbeat older than the
    /// TTL) and was observed expired by another worker.
    JobLeaseExpired {
        /// Sweep this job belongs to.
        sweep: String,
        /// Content address of the job.
        key: String,
        /// PID of the stale holder.
        pid: u32,
        /// Epoch of the expired lease.
        epoch: u64,
    },
    /// A stale lease was reclaimed by a new worker; the old holder's
    /// late writes are fenced off by the epoch bump.
    JobReclaimed {
        /// Sweep this job belongs to.
        sweep: String,
        /// Content address of the job.
        key: String,
        /// PID of the stale holder whose lease was taken.
        old_pid: u32,
        /// PID of the reclaiming worker.
        new_pid: u32,
        /// Epoch of the *new* lease (old epoch + 1).
        epoch: u64,
    },
    /// All jobs of a sweep completed.
    SweepFinished {
        /// Sweep identifier.
        sweep: String,
        /// Jobs served from the store.
        hits: u64,
        /// Jobs actually executed.
        misses: u64,
        /// Jobs that returned an error.
        failures: u64,
    },
}

/// Append handle on a journal file.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: File,
}

impl Journal {
    /// Open (creating if necessary) the journal at `path` for append.
    pub fn open(path: &Path) -> io::Result<Journal> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Journal {
            path: path.to_path_buf(),
            file,
        })
    }

    /// Append one event as a JSONL line and flush it to the OS.
    ///
    /// Transient I/O failures are retried with a bounded deterministic
    /// backoff. The fault-injection point sits *before* any bytes are
    /// written, so a retried append can never leave a torn line in the
    /// middle of the file (`write_all` itself already retries
    /// `Interrupted` writes internally).
    pub fn append(&mut self, event: &JournalEvent) -> io::Result<()> {
        let mut line = serde_json::to_string(event)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        line.push('\n');
        crate::retry::RetryPolicy::store_default().run(
            || {
                if let Some(e) = secreta_faults::fault::io("journal.append") {
                    return Err(e);
                }
                self.file.write_all(line.as_bytes())?;
                self.file.flush()
            },
            crate::retry::transient_io,
        )
    }

    /// Path of the underlying file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Description of a torn final record dropped by [`read_events_checked`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// Byte offset where the surviving journal prefix ends.
    pub offset: u64,
    /// Why the tail failed to parse (invalid UTF-8 or malformed JSON).
    pub reason: String,
}

/// Read every event in the journal at `path`, reporting a torn tail.
///
/// A missing file reads as empty. The file is read as raw bytes —
/// a crash mid-`append` can cut the final record at *any* byte offset,
/// including inside a multi-byte UTF-8 sequence (the `δ` sweep label),
/// so decoding is per-line rather than whole-file. A final line that
/// fails UTF-8 or JSON parsing is a clean truncation point from a
/// crash: it is dropped and reported as `Some(TornTail)`. An
/// unparseable line *followed by* further lines is real corruption and
/// an error.
pub fn read_events_checked(path: &Path) -> io::Result<(Vec<JournalEvent>, Option<TornTail>)> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((Vec::new(), None)),
        Err(e) => return Err(e),
    }
    // (start offset, line bytes) for every non-empty line.
    let mut lines: Vec<(usize, &[u8])> = Vec::new();
    let mut start = 0usize;
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'\n' {
            if bytes[start..i].iter().any(|c| !c.is_ascii_whitespace()) {
                lines.push((start, &bytes[start..i]));
            }
            start = i + 1;
        }
    }
    if bytes[start..].iter().any(|c| !c.is_ascii_whitespace()) {
        // an unterminated final fragment: always a torn append, since
        // `append` writes the trailing newline as part of the record
        lines.push((start, &bytes[start..]));
    }
    let mut events = Vec::with_capacity(lines.len());
    let mut torn = None;
    for (i, (offset, line)) in lines.iter().enumerate() {
        let last = i + 1 == lines.len();
        let parsed = std::str::from_utf8(line)
            .map_err(|e| e.to_string())
            .and_then(|s| serde_json::from_str::<JournalEvent>(s).map_err(|e| e.to_string()));
        match parsed {
            Ok(ev) => events.push(ev),
            Err(reason) if last => {
                torn = Some(TornTail {
                    offset: *offset as u64,
                    reason,
                });
            }
            Err(reason) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("journal {} line {}: {reason}", path.display(), i + 1),
                ))
            }
        }
    }
    Ok((events, torn))
}

/// Read every event in the journal at `path`.
///
/// Thin wrapper over [`read_events_checked`] that warns on stderr when
/// a torn final record is dropped and returns the surviving prefix.
pub fn read_events(path: &Path) -> io::Result<Vec<JournalEvent>> {
    let (events, torn) = read_events_checked(path)?;
    if let Some(t) = &torn {
        eprintln!(
            "warning: journal {}: torn final record at byte {} dropped ({}); \
             treating as crash truncation",
            path.display(),
            t.offset,
            t.reason
        );
    }
    Ok(events)
}

/// The most recent `SweepStarted` record with the given id, if any.
pub fn find_sweep(events: &[JournalEvent], id: &str) -> Option<SweepRecord> {
    events.iter().rev().find_map(|ev| match ev {
        JournalEvent::SweepStarted(rec) if rec.id == id => Some(rec.clone()),
        _ => None,
    })
}

/// Ids of sweeps that have a `SweepStarted` but no `SweepFinished`,
/// oldest first — the candidates for `secreta runs resume`.
pub fn unfinished_sweeps(events: &[JournalEvent]) -> Vec<SweepRecord> {
    let mut started: Vec<SweepRecord> = Vec::new();
    for ev in events {
        match ev {
            JournalEvent::SweepStarted(rec) => {
                started.retain(|r| r.id != rec.id);
                started.push(rec.clone());
            }
            JournalEvent::SweepFinished { sweep, .. } => {
                started.retain(|r| &r.id != sweep);
            }
            _ => {}
        }
    }
    started
}

/// Sweeps that still need work, oldest first: a `SweepStarted` with no
/// `SweepFinished`, or one whose most recent `SweepFinished` reported
/// failures. `secreta runs resume` replays these — completed jobs are
/// cache hits, so only failed/missing points re-execute.
pub fn resumable_sweeps(events: &[JournalEvent]) -> Vec<SweepRecord> {
    let mut open: Vec<SweepRecord> = Vec::new();
    for ev in events {
        match ev {
            JournalEvent::SweepStarted(rec) => {
                open.retain(|r| r.id != rec.id);
                open.push(rec.clone());
            }
            JournalEvent::SweepFinished {
                sweep, failures, ..
            } if *failures == 0 => {
                open.retain(|r| &r.id != sweep);
            }
            _ => {}
        }
    }
    open
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::Scratch;

    fn record(id: &str) -> SweepRecord {
        SweepRecord {
            id: id.to_owned(),
            context: "ctx".to_owned(),
            param: "k".to_owned(),
            labels: vec!["A".to_owned(), "B".to_owned()],
            jobs: vec![
                vec![(2.0, "kA2".to_owned()), (5.0, "kA5".to_owned())],
                vec![(2.0, "kB2".to_owned())],
            ],
            invocation: Value::Obj(vec![("dataset".to_owned(), Value::Str("d.csv".into()))]),
        }
    }

    fn tmp(name: &str) -> Scratch<PathBuf> {
        Scratch::new(&format!("journal-{name}"), |dir| dir.join("journal.jsonl"))
    }

    #[test]
    fn round_trips_and_reads_back() {
        let path = tmp("rt");
        let mut j = Journal::open(&path).unwrap();
        let events = vec![
            JournalEvent::SweepStarted(record("s1")),
            JournalEvent::JobStarted {
                sweep: "s1".into(),
                key: "kA2".into(),
                label: "A".into(),
                value: 2.0,
            },
            JournalEvent::JobFinished {
                sweep: "s1".into(),
                key: "kA2".into(),
                cache_hit: false,
                ok: true,
                wall_ms: 12.5,
            },
            JournalEvent::SweepFinished {
                sweep: "s1".into(),
                hits: 0,
                misses: 3,
                failures: 0,
            },
        ];
        for ev in &events {
            j.append(ev).unwrap();
        }
        assert_eq!(read_events(&path).unwrap(), events);
    }

    #[test]
    fn missing_file_is_empty() {
        let path = tmp("none");
        assert_eq!(read_events(&path).unwrap(), Vec::new());
    }

    #[test]
    fn torn_tail_is_truncation() {
        let path = tmp("torn");
        let mut j = Journal::open(&path).unwrap();
        j.append(&JournalEvent::SweepStarted(record("s1"))).unwrap();
        // simulate a crash mid-append
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"JobFinished\":{\"sweep\":\"s1\",\"ke")
            .unwrap();
        drop(f);
        let events = read_events(&path).unwrap();
        assert_eq!(events.len(), 1);
    }

    #[test]
    fn truncation_at_every_byte_offset_of_the_last_record() {
        let path = tmp("offsets");
        let mut j = Journal::open(&path).unwrap();
        // first record uses the multi-byte `δ` param so truncation can
        // land inside a UTF-8 sequence
        let mut rec = record("s1");
        rec.param = "δ".to_owned();
        j.append(&JournalEvent::SweepStarted(rec)).unwrap();
        let prefix_len = std::fs::read(&path).unwrap().len();
        j.append(&JournalEvent::JobClaimed {
            sweep: "δ-sweep".into(),
            key: "kA2".into(),
            pid: 7,
            epoch: 1,
        })
        .unwrap();
        let full = std::fs::read(&path).unwrap();
        for cut in prefix_len..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let (events, torn) = read_events_checked(&path)
                .unwrap_or_else(|e| panic!("truncation at byte {cut} must not error: {e}"));
            let fragment = &full[prefix_len..cut];
            let fragment_parses = std::str::from_utf8(fragment)
                .is_ok_and(|s| serde_json::from_str::<JournalEvent>(s).is_ok());
            if cut == prefix_len {
                assert_eq!(events.len(), 1, "cut at {cut}");
                assert_eq!(torn, None, "cut at {cut}");
            } else if fragment_parses {
                // e.g. everything but the trailing newline survived:
                // the record is complete and must be kept
                assert_eq!(events.len(), 2, "cut at {cut}");
                assert_eq!(torn, None, "cut at {cut}");
            } else {
                assert_eq!(events.len(), 1, "cut at {cut}");
                let t = torn.unwrap_or_else(|| panic!("cut at {cut} must report a torn tail"));
                assert_eq!(t.offset, prefix_len as u64, "cut at {cut}");
            }
        }
        // untruncated file parses both records with no torn tail
        std::fs::write(&path, &full).unwrap();
        let (events, torn) = read_events_checked(&path).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(torn, None);
    }

    #[test]
    fn torn_tail_inside_multibyte_char_is_not_an_error() {
        let path = tmp("utf8");
        let mut j = Journal::open(&path).unwrap();
        j.append(&JournalEvent::SweepStarted(record("s1"))).unwrap();
        // append raw bytes ending mid-δ (0xCE without its 0xB4)
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"JobStarted\":{\"sweep\":\"s1\",\"label\":\"\xce")
            .unwrap();
        drop(f);
        let (events, torn) = read_events_checked(&path).unwrap();
        assert_eq!(events.len(), 1);
        assert!(torn.is_some());
        // the legacy entry point also survives (warns instead of erroring)
        assert_eq!(read_events(&path).unwrap().len(), 1);
    }

    #[test]
    fn mid_file_corruption_is_an_error() {
        let path = tmp("corrupt");
        std::fs::write(&path, "not json\n{\"SweepFinished\":{\"sweep\":\"s\",\"hits\":0,\"misses\":0,\"failures\":0}}\n").unwrap();
        assert!(read_events(&path).is_err());
    }

    #[test]
    fn unfinished_tracking() {
        let events = vec![
            JournalEvent::SweepStarted(record("s1")),
            JournalEvent::SweepStarted(record("s2")),
            JournalEvent::SweepFinished {
                sweep: "s1".into(),
                hits: 1,
                misses: 0,
                failures: 0,
            },
        ];
        let open = unfinished_sweeps(&events);
        assert_eq!(open.len(), 1);
        assert_eq!(open[0].id, "s2");
        assert!(find_sweep(&events, "s1").is_some());
        assert!(find_sweep(&events, "nope").is_none());
    }

    #[test]
    fn degraded_sweeps_stay_resumable_until_a_clean_finish() {
        let finished = |id: &str, failures: u64| JournalEvent::SweepFinished {
            sweep: id.into(),
            hits: 0,
            misses: 3,
            failures,
        };
        let events = vec![
            JournalEvent::SweepStarted(record("clean")),
            finished("clean", 0),
            JournalEvent::SweepStarted(record("degraded")),
            JournalEvent::JobFailed {
                sweep: "degraded".into(),
                key: "kA2".into(),
                label: "A".into(),
                value: 2.0,
                error: "panicked: boom".into(),
            },
            finished("degraded", 1),
            JournalEvent::SweepStarted(record("unfinished")),
        ];
        // a degraded finish is final for `unfinished_sweeps`...
        let ids: Vec<String> = unfinished_sweeps(&events)
            .into_iter()
            .map(|r| r.id)
            .collect();
        assert_eq!(ids, ["unfinished"]);
        // ...but still resumable
        let ids: Vec<String> = resumable_sweeps(&events)
            .into_iter()
            .map(|r| r.id)
            .collect();
        assert_eq!(ids, ["degraded", "unfinished"]);
        // a later clean re-run clears it
        let mut more = events.clone();
        more.push(JournalEvent::SweepStarted(record("degraded")));
        more.push(finished("degraded", 0));
        let ids: Vec<String> = resumable_sweeps(&more).into_iter().map(|r| r.id).collect();
        assert_eq!(ids, ["unfinished"]);
    }

    #[test]
    fn append_retries_injected_transient_faults() {
        let path = tmp("retry");
        // one injected transient failure; the bounded retry absorbs it
        secreta_faults::install(
            secreta_faults::FaultPlan::from_spec("seed=3;io@journal.append=1x1").unwrap(),
        );
        let mut j = Journal::open(&path).unwrap();
        let res = j.append(&JournalEvent::SweepStarted(record("s1")));
        secreta_faults::clear();
        res.unwrap();
        assert_eq!(read_events(&path).unwrap().len(), 1);
    }
}
