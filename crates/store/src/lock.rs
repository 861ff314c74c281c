//! Advisory store locking.
//!
//! Two orchestrators sharing one `--store-dir` must not interleave
//! journal writes: both would append `SweepStarted`/`JobFinished`
//! lines for different sweeps and each other's `runs resume` view
//! would be confused. A `store.lock` file in the store root holds the
//! owning process identity; the second writer gets a
//! [`StoreError::Locked`] naming the
//! holder instead of a corrupted journal.
//!
//! The lock is advisory — run puts themselves are rename-atomic and
//! need no lock — and crash-safe: a lock whose holder is no longer
//! alive is considered stale and silently reclaimed. Liveness is
//! judged on the *pair* (PID, process start time from
//! `/proc/<pid>/stat`), not the PID alone: PIDs are recycled, so a
//! bare-PID payload could make a dead owner look alive forever once an
//! unrelated process inherits the number. A recycled PID has a
//! different start time and is reclaimed correctly. Legacy bare-PID
//! lock files are still understood (PID-only liveness check).

use crate::store::StoreError;
use serde::Value;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub(crate) use crate::procinfo::{owner_dead, pid_alive, self_start_time};

/// Name of the lock file inside a store root.
pub const LOCK_FILE: &str = "store.lock";

/// Parse a lock payload: either the current JSON form
/// `{"pid":N,"start":S}` or a legacy bare-PID string. Returns
/// `(pid, start)` where a missing start means a legacy payload.
pub(crate) fn parse_owner(text: &str) -> Option<(u32, Option<u64>)> {
    let text = text.trim();
    if let Ok(pid) = text.parse::<u32>() {
        return Some((pid, None));
    }
    let value = serde_json::from_str::<Value>(text).ok()?;
    let fields = match &value {
        Value::Obj(fields) => fields,
        _ => return None,
    };
    let field_u64 = |name: &str| {
        fields
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| match v {
                Value::U64(n) => Some(*n),
                Value::I64(n) if *n >= 0 => Some(*n as u64),
                _ => None,
            })
    };
    let pid = u32::try_from(field_u64("pid")?).ok()?;
    Some((pid, field_u64("start")))
}

/// Render the lock payload for the current process.
pub(crate) fn owner_payload() -> String {
    match self_start_time() {
        Some(start) => format!("{{\"pid\":{},\"start\":{}}}", std::process::id(), start),
        None => format!("{{\"pid\":{}}}", std::process::id()),
    }
}

/// Held advisory lock on a store; released (file removed) on drop.
#[derive(Debug)]
pub struct StoreLock {
    path: PathBuf,
}

impl StoreLock {
    /// Acquire the lock under `root`, erroring with
    /// [`StoreError::Locked`] when another
    /// live process holds it. A stale lock (dead holder, including a
    /// recycled PID whose start time no longer matches) is reclaimed.
    pub fn acquire(root: &Path) -> Result<StoreLock, StoreError> {
        let path = root.join(LOCK_FILE);
        // Two tries: the second only after removing a stale lock.
        for _ in 0..2 {
            match fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut f) => {
                    use io::Write;
                    f.write_all(owner_payload().as_bytes())
                        .and_then(|_| f.flush())
                        .map_err(|e| StoreError::Io(path.clone(), e))?;
                    return Ok(StoreLock { path });
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    let holder = fs::read_to_string(&path).ok().and_then(|s| parse_owner(&s));
                    match holder {
                        Some((pid, start)) if owner_dead(pid, start) => {
                            // stale: holder died without releasing (or
                            // its PID was recycled by another process)
                            let _ = fs::remove_file(&path);
                            continue;
                        }
                        Some((pid, _)) => return Err(StoreError::Locked(path, pid)),
                        // unreadable/empty lock file: treat as held by
                        // an unknown process rather than clobbering it
                        None => return Err(StoreError::Locked(path, 0)),
                    }
                }
                Err(e) => return Err(StoreError::Io(path, e)),
            }
        }
        Err(StoreError::Locked(path, 0))
    }

    /// Path of the lock file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for StoreLock {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::Scratch;

    fn tmp_root(name: &str) -> Scratch<PathBuf> {
        Scratch::new(&format!("lock-{name}"), Path::to_path_buf)
    }

    #[test]
    fn acquire_release_reacquire() {
        let root = tmp_root("cycle");
        let lock = StoreLock::acquire(&root).unwrap();
        assert!(lock.path().is_file());
        drop(lock);
        assert!(!root.join(LOCK_FILE).exists());
        let _again = StoreLock::acquire(&root).unwrap();
    }

    #[test]
    fn second_acquire_reports_live_holder() {
        let root = tmp_root("held");
        let _held = StoreLock::acquire(&root).unwrap();
        // our own pid is alive, so the second acquire must refuse
        match StoreLock::acquire(&root) {
            Err(StoreError::Locked(_, pid)) => assert_eq!(pid, std::process::id()),
            other => panic!("expected Locked, got {other:?}"),
        }
    }

    #[test]
    fn stale_lock_is_reclaimed() {
        if pid_alive(1).is_none() {
            return; // no /proc: staleness is undecidable on this platform
        }
        let root = tmp_root("stale");
        // fabricate a lock held by a pid that cannot be running
        fs::write(root.join(LOCK_FILE), u32::MAX.to_string()).unwrap();
        let lock = StoreLock::acquire(&root).unwrap();
        assert!(lock.path().is_file());
    }

    #[test]
    fn payload_round_trips_and_accepts_legacy() {
        let (pid, start) = parse_owner(&owner_payload()).unwrap();
        assert_eq!(pid, std::process::id());
        if self_start_time().is_some() {
            assert_eq!(start, self_start_time());
        }
        // legacy bare-PID payloads still parse (without a start time)
        assert_eq!(parse_owner("4242\n"), Some((4242, None)));
        assert_eq!(parse_owner("not a lock"), None);
    }

    #[test]
    fn forged_lock_with_recycled_pid_is_reclaimed() {
        if self_start_time().is_none() {
            return; // no /proc: the PID-reuse defence needs start times
        }
        let root = tmp_root("forged");
        // Forge a lock naming a PID that IS alive (our own) but with a
        // start time that cannot match — exactly what a recycled PID
        // looks like after the real owner died. A bare-PID check would
        // deadlock here forever; the start-time comparison reclaims it.
        fs::write(
            root.join(LOCK_FILE),
            format!("{{\"pid\":{},\"start\":{}}}", std::process::id(), u64::MAX),
        )
        .unwrap();
        let lock = StoreLock::acquire(&root).unwrap();
        assert!(lock.path().is_file());
        // ...while a forged lock with our *correct* identity is held.
        drop(lock);
        fs::write(root.join(LOCK_FILE), owner_payload()).unwrap();
        assert!(matches!(
            StoreLock::acquire(&root),
            Err(StoreError::Locked(_, _))
        ));
    }
}
