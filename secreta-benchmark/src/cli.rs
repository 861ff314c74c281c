//! Running the `secreta` CLI as a user does, and reading what it
//! prints.
//!
//! Each invocation is reaped with `wait4`, which returns that one
//! process's user+sys CPU and peak RSS. Linux folds the resident set a
//! process had before `exec` into the `ru_maxrss` of what it execs, so
//! the benchmark, with datasets in memory, must not spawn the CLI
//! itself: a fresh copy of this small binary, started with [`SPAWNER`],
//! spawns it, times it and writes its usage to a file.

use std::fs::File;
use std::io;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("secreta-benchmark reads child resource usage through Linux wait4");

/// First argument that makes this binary the spawner:
/// `--spawn-cli USAGE_FILE EXE ARGS...`.
pub const SPAWNER: &str = "--spawn-cli";

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals, then fourteen longs
/// of which only `ru_maxrss` (KiB) is read.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// What one CLI invocation did and printed.
#[derive(Debug)]
pub struct Invocation {
    pub wall: Duration,
    pub cpu: Duration,
    pub peak_rss_kib: u64,
    /// Exit code, or `None` when a signal ended the process.
    pub code: Option<i32>,
    pub stdout: String,
    pub stderr: String,
}

/// Run `exe args` in `dir` through the spawner and wait for it. Output
/// goes to files in `dir`, so that no pipe can fill and stall the CLI.
pub fn run(exe: &Path, args: &[String], dir: &Path) -> io::Result<Invocation> {
    let out_path = dir.join("cli.stdout");
    let err_path = dir.join("cli.stderr");
    let usage_path = dir.join("cli.usage");
    if let Err(e) = std::fs::remove_file(&usage_path) {
        if e.kind() != io::ErrorKind::NotFound {
            return Err(e);
        }
    }
    let status = Command::new(std::env::current_exe()?)
        .arg(SPAWNER)
        .arg(&usage_path)
        .arg(exe)
        .args(args)
        .current_dir(dir)
        .stdin(Stdio::null())
        .stdout(File::create(&out_path)?)
        .stderr(File::create(&err_path)?)
        .status()?;
    let usage = std::fs::read_to_string(&usage_path).map_err(|e| {
        let stderr = std::fs::read_to_string(&err_path).unwrap_or_default();
        io::Error::new(e.kind(), format!("spawner exited with {status}: {stderr}"))
    })?;
    let field = |i: usize| -> io::Result<i64> {
        usage
            .split_whitespace()
            .nth(i)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| io::Error::other(format!("malformed usage report {usage:?}")))
    };
    let code = field(0)?;
    Ok(Invocation {
        code: (code >= 0).then_some(code as i32),
        wall: Duration::from_nanos(field(1)? as u64),
        cpu: Duration::from_nanos(field(2)? as u64),
        peak_rss_kib: field(3)? as u64,
        stdout: std::fs::read_to_string(&out_path)?,
        stderr: std::fs::read_to_string(&err_path)?,
    })
}

/// The spawner: run `EXE ARGS...` (inheriting stdio and directory),
/// reap it with `wait4`, and write `code wall_ns cpu_ns maxrss_kib` to
/// `USAGE_FILE` (code -1 when a signal ended it). Returns the exit code
/// to leave with.
pub fn spawner(args: &[String]) -> i32 {
    let [usage_file, exe, rest @ ..] = args else {
        eprintln!("usage: {SPAWNER} USAGE_FILE EXE ARGS...");
        return 2;
    };
    let run = || -> io::Result<String> {
        let start = Instant::now();
        let child = Command::new(exe).args(rest).spawn()?;
        let pid = i32::try_from(child.id()).expect("Linux pids fit in i32");
        let mut status = 0i32;
        let mut usage = Rusage::default();
        loop {
            // SAFETY: `status` and `usage` are live, writable and laid
            // out as wait4 expects (int and 64-bit Linux struct rusage);
            // `pid` is our own unreaped child, so wait4 reaps exactly it.
            let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
            if r == pid {
                break;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
        let wall = start.elapsed();
        // the child is reaped: dropping the handle neither waits nor kills
        drop(child);
        let tv = |t: &Timeval| Duration::new(t.tv_sec as u64, t.tv_usec as u32 * 1000);
        let cpu = tv(&usage.ru_utime) + tv(&usage.ru_stime);
        // WIFEXITED ? WEXITSTATUS : -1
        let code = if status & 0x7f == 0 {
            (status >> 8) & 0xff
        } else {
            -1
        };
        Ok(format!(
            "{code} {} {} {}\n",
            wall.as_nanos(),
            cpu.as_nanos(),
            usage.ru_maxrss
        ))
    };
    match run().and_then(|report| std::fs::write(usage_file, report)) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("{SPAWNER}: {exe}: {e}");
            2
        }
    }
}

/// The `cache: H hits, M misses, F failures (...)` summary line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheLine {
    pub hits: u64,
    pub misses: u64,
    pub failures: u64,
}

impl CacheLine {
    pub fn jobs(&self) -> u64 {
        self.hits + self.misses + self.failures
    }
}

pub fn parse_cache(stdout: &str) -> Option<CacheLine> {
    let rest = stdout.lines().find_map(|l| l.strip_prefix("cache: "))?;
    let mut counts = rest.split(", ").map(|part| {
        let (n, _) = part.split_once(' ')?;
        n.parse::<u64>().ok()
    });
    Some(CacheLine {
        hits: counts.next()??,
        misses: counts.next()??,
        failures: counts.next()??,
    })
}

/// One job of a `compare` report: its result line (runtime removed,
/// since it is wall-clock) and its `risk:` line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobReport {
    /// Configuration label from the `== label` header.
    pub label: String,
    /// The sweep point, e.g. `k=5`.
    pub point: String,
    /// `None` when the CLI printed `failed: ...` for this job.
    pub result: Option<String>,
    pub verified: bool,
    pub risk: Option<String>,
    pub audit_passed: bool,
}

/// Parse the per-configuration blocks `compare` prints:
///
/// ```text
/// == cluster
///   k=5: GCP=0.1106 ... runtime=2334.8ms verified=true
///   k=5 risk: prosecutor=0.2000 ... audit=k-anonymity(k=5) pass
///   k=15: failed: <error>
/// ```
pub fn parse_jobs(stdout: &str) -> Vec<JobReport> {
    let mut label = String::new();
    let mut jobs: Vec<JobReport> = Vec::new();
    for line in stdout.lines() {
        if let Some(l) = line.strip_prefix("== ") {
            label = l.to_owned();
            continue;
        }
        let Some(body) = line.strip_prefix("  ") else {
            continue;
        };
        if let Some((point, risk)) = body.split_once(" risk: ") {
            if let Some(job) = jobs
                .iter_mut()
                .rev()
                .find(|j| j.label == label && j.point == point)
            {
                job.audit_passed = risk.ends_with(" pass");
                job.risk = Some(risk.to_owned());
            }
        } else if let Some((point, rest)) = body.split_once(": ") {
            let result = (!rest.starts_with("failed: ")).then(|| {
                rest.split(' ')
                    .filter(|field| !field.starts_with("runtime="))
                    .collect::<Vec<_>>()
                    .join(" ")
            });
            jobs.push(JobReport {
                label: label.clone(),
                point: point.to_owned(),
                verified: result
                    .as_deref()
                    .is_some_and(|r| r.ends_with("verified=true")),
                result,
                risk: None,
                audit_passed: false,
            });
        }
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPORT: &str = "\
cache: 3 hits, 1 misses, 1 failures (sweep ad79499dd0458531, store st)
== cluster
  k=5: GCP=0.1106 txGCP=0.0000 UL=0.0000 ARE=0.0000 freqErr=0.0000 disc=100950 avgClass=5.96 runtime=2334.8ms verified=true
  k=5 risk: prosecutor=0.2000 journalist=0.0200 atRisk=0.0000 audit=k-anonymity(k=5) pass
  k=15: failed: run exceeded its 10 ms deadline
== rt
  k=5: GCP=0.2297 txGCP=0.9061 UL=0.9984 ARE=0.0000 freqErr=1.5898 disc=574100 avgClass=31.06 runtime=5056.4ms verified=false
  k=5 risk: prosecutor=0.0500 journalist=0.0050 atRisk=0.0000 unique[m1=0.0000 m2=0.0000 m3=0.0000] audit=(k,k^m)-anonymity(k=5,m=2) FAIL(3 violations)
wrote out/compare_are.svg and out/compare_are.csv
";

    #[test]
    fn parses_the_cache_line() {
        let c = parse_cache(REPORT).unwrap();
        assert_eq!((c.hits, c.misses, c.failures, c.jobs()), (3, 1, 1, 5));
        assert_eq!(parse_cache("no summary here"), None);
        assert_eq!(parse_cache("cache: x hits, 1 misses, 0 failures"), None);
    }

    #[test]
    fn parses_result_and_risk_lines() {
        let jobs = parse_jobs(REPORT);
        assert_eq!(jobs.len(), 3);
        let ok = &jobs[0];
        assert_eq!((ok.label.as_str(), ok.point.as_str()), ("cluster", "k=5"));
        assert!(ok.verified && ok.audit_passed);
        let result = ok.result.as_deref().unwrap();
        assert!(!result.contains("runtime"), "{result}");
        assert!(result.starts_with("GCP=0.1106 ") && result.ends_with("verified=true"));
        assert!(ok
            .risk
            .as_deref()
            .unwrap()
            .ends_with("audit=k-anonymity(k=5) pass"));

        let failed = &jobs[1];
        assert_eq!(failed.point, "k=15");
        assert!(failed.result.is_none() && !failed.verified && failed.risk.is_none());

        let rt = &jobs[2];
        assert_eq!(rt.label, "rt");
        assert!(!rt.verified && !rt.audit_passed);
        assert!(rt.risk.as_deref().unwrap().contains("unique[m1=0.0000"));
    }
}
