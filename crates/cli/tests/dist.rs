//! Process-level chaos tests of sweep execution: real coordinator,
//! worker and in-process sweep processes, real `kill -9`-equivalent
//! crashes injected through `SECRETA_FAULTS`, byte-identical
//! convergence asserted against a fault-free single-process run of the
//! same experiment.

use std::path::{Path, PathBuf};
use std::process::Command;

fn secreta() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_secreta"));
    // never let an ambient fault plan leak into the control runs
    cmd.env_remove("SECRETA_FAULTS");
    cmd
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("secreta_dist_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn generate_dataset(dir: &Path) -> PathBuf {
    let data = dir.join("data.csv");
    let out = secreta()
        .args([
            "generate", "--kind", "adult", "--rows", "120", "--seed", "7", "--out",
        ])
        .arg(&data)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    data
}

/// The session flags every participant (solo run, coordinator,
/// workers) must share so the context digests agree.
const SESSION: &[&str] = &["--tx", "Items", "--queries", "10", "--seed", "5"];

/// The experiment flags only the coordinator/solo run needs.
const EXPERIMENT: &[&str] = &[
    "--mode",
    "rel",
    "--rel-algo",
    "cluster",
    "--k",
    "2",
    "--vary",
    "k",
    "--start",
    "2",
    "--end",
    "6",
    "--step",
    "2",
];

/// Every stored anonymization, keyed by run key, as raw bytes.
fn anon_bytes(store: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    let runs = store.join("runs");
    for shard in std::fs::read_dir(&runs).unwrap() {
        for run in std::fs::read_dir(shard.unwrap().path()).unwrap() {
            let run = run.unwrap();
            out.push((
                run.file_name().to_string_lossy().into_owned(),
                std::fs::read(run.path().join("anon.json")).unwrap(),
            ));
        }
    }
    out.sort();
    assert!(!out.is_empty(), "no runs stored under {}", runs.display());
    out
}

fn run_solo(data: &Path, store: &Path) {
    let out = secreta()
        .arg("evaluate")
        .arg(data)
        .args(SESSION)
        .args(EXPERIMENT)
        .arg("--store-dir")
        .arg(store)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "solo run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// The ISSUE's headline scenario: a coordinator publishes a 3-point
/// sweep, three externally attached workers execute it, and two of
/// them are kill -9'd (SIGABRT via the fault plan's `crash@`, which
/// skips every destructor — leases stay behind) right after claiming a
/// job. The surviving worker reclaims the dead workers' leases and the
/// merged sweep must be byte-identical to the single-process run.
#[test]
fn two_of_three_workers_killed_converges_byte_identical() {
    let dir = tmpdir("chaos");
    let data = generate_dataset(&dir);
    let solo_store = dir.join("solo");
    run_solo(&data, &solo_store);

    let store = dir.join("dist");
    // attach-mode coordinator: publish jobs and wait for workers
    let mut coordinator = secreta()
        .arg("evaluate")
        .arg(&data)
        .args(SESSION)
        .args(EXPERIMENT)
        .arg("--store-dir")
        .arg(&store)
        .args(["--distributed", "--lease-ttl-ms", "1000"])
        .spawn()
        .unwrap();

    // two workers that abort right after claiming their first job...
    let mut doomed = Vec::new();
    for i in 0..2 {
        doomed.push(
            secreta()
                .arg("worker")
                .arg(&data)
                .args(SESSION)
                .arg("--store-dir")
                .arg(&store)
                .args(["--lease-ttl-ms", "1000"])
                .env(
                    "SECRETA_FAULTS",
                    format!("seed={i};crash@worker.claimed=1x1"),
                )
                .spawn()
                .unwrap(),
        );
    }
    // each doomed worker scans until it wins a claim, then aborts with
    // its lease still on disk — wait for both corpses before attaching
    // the survivor, so the recovery path genuinely runs
    for child in &mut doomed {
        let status = child.wait().unwrap();
        assert!(!status.success(), "doomed workers must die by the plan");
    }
    // ...and one healthy worker that inherits their abandoned jobs
    let mut survivor = secreta()
        .arg("worker")
        .arg(&data)
        .args(SESSION)
        .arg("--store-dir")
        .arg(&store)
        .args(["--lease-ttl-ms", "1000"])
        .spawn()
        .unwrap();
    let survivor_status = survivor.wait().unwrap();
    assert!(survivor_status.success(), "the healthy worker finishes");
    let coord_status = coordinator.wait().unwrap();
    assert_eq!(
        coord_status.code(),
        Some(0),
        "every job was recovered, so the sweep must not degrade"
    );

    assert_eq!(
        anon_bytes(&solo_store),
        anon_bytes(&store),
        "distributed convergence must be byte-identical to the solo run"
    );
    assert!(!store.join("jobs").exists(), "job records cleaned up");
    assert!(!store.join("leases").exists(), "leases cleaned up");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Permanent degradation: the coordinator spawns its own workers, the
/// fault plan kills every one of them on their first claim, and no
/// replacement ever attaches. The sweep must exit 3 (degraded) instead
/// of hanging, and `runs resume` — without the fault plan — must
/// re-execute only the lost jobs and restore byte-identity.
#[test]
fn all_workers_killed_degrades_then_resume_recovers() {
    let dir = tmpdir("degraded");
    let data = generate_dataset(&dir);
    let solo_store = dir.join("solo");
    run_solo(&data, &solo_store);

    let store = dir.join("dist");
    let out = secreta()
        .arg("evaluate")
        .arg(&data)
        .args(SESSION)
        .args(EXPERIMENT)
        .arg("--store-dir")
        .arg(&store)
        .args(["--workers", "2", "--lease-ttl-ms", "500"])
        // spawned workers inherit the plan; the coordinator never
        // executes a `worker.*` site itself
        .env("SECRETA_FAULTS", "seed=9;crash@worker.claimed=1x1")
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(3),
        "all workers dead must degrade, not hang: stdout={} stderr={}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("completed degraded"),
        "degradation must be announced: {stdout}"
    );

    let resume = secreta()
        .args(["runs", "resume", "--store-dir"])
        .arg(&store)
        .output()
        .unwrap();
    assert_eq!(
        resume.status.code(),
        Some(0),
        "resume re-executes the lost jobs: {}",
        String::from_utf8_lossy(&resume.stderr)
    );
    assert_eq!(
        anon_bytes(&solo_store),
        anon_bytes(&store),
        "after resume the store must match the solo run byte-for-byte"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The thread executor's twin of the test above: an in-process
/// `compare --threads 2` is kill -9'd at its fourth store commit
/// (`crash@store.put`; fault seed 7 skips the first three), so at least
/// one job has landed and at least one has not. A fault-free `runs
/// resume` executes only the missing jobs, and the store must then
/// match a fault-free store byte for byte.
#[test]
fn crashed_thread_executor_resumes_byte_identical() {
    let dir = tmpdir("threads");
    let data = generate_dataset(&dir);
    let config = dir.join("configs.json");
    std::fs::write(
        &config,
        r#"[{"label":"cluster","spec":{"Relational":{"algo":"Cluster","k":0}},
            "sweep":{"param":"K","start":2,"end":12,"step":2},"seed":1}]"#,
    )
    .unwrap();
    let compare = |store: &Path| {
        let mut cmd = secreta();
        cmd.arg("compare")
            .arg(&data)
            .args(SESSION)
            .arg("--config")
            .arg(&config)
            .args(["--threads", "2", "--store-dir"])
            .arg(store);
        cmd
    };
    let solo_store = dir.join("solo");
    let solo = compare(&solo_store).output().unwrap();
    assert!(
        solo.status.success(),
        "{}",
        String::from_utf8_lossy(&solo.stderr)
    );

    let store = dir.join("crashed");
    let crashed = compare(&store)
        .env("SECRETA_FAULTS", "seed=7;crash@store.put=0.5x1")
        .output()
        .unwrap();
    assert!(!crashed.status.success(), "the plan must kill the sweep");
    let landed = anon_bytes(&store).len();
    assert!(
        (1..6).contains(&landed),
        "{landed} of 6 jobs landed before the crash"
    );

    let resume = secreta()
        .args(["runs", "resume", "--threads", "2", "--store-dir"])
        .arg(&store)
        .output()
        .unwrap();
    assert_eq!(
        resume.status.code(),
        Some(0),
        "resume executes the missing jobs: {}",
        String::from_utf8_lossy(&resume.stderr)
    );
    let stdout = String::from_utf8_lossy(&resume.stdout);
    assert!(
        stdout.contains(&format!("{landed} replayed, {} executed", 6 - landed)),
        "{stdout}"
    );
    assert_eq!(
        anon_bytes(&solo_store),
        anon_bytes(&store),
        "after resume the store must match the fault-free store byte for byte"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A worker with nothing to attach to gives up with a clear error
/// instead of hanging forever.
#[test]
fn worker_without_a_sweep_times_out_cleanly() {
    let dir = tmpdir("timeout");
    let data = generate_dataset(&dir);
    let out = secreta()
        .arg("worker")
        .arg(&data)
        .args(SESSION)
        .arg("--store-dir")
        .arg(dir.join("empty"))
        .args(["--wait-ms", "300"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("no open sweep"),
        "expected a discovery timeout, got: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--workers` without `--vary` is a usage error, and distributed mode
/// without a store is impossible by construction.
#[test]
fn distributed_flags_are_validated() {
    let dir = tmpdir("validate");
    let data = generate_dataset(&dir);
    let no_vary = secreta()
        .arg("evaluate")
        .arg(&data)
        .args([
            "--tx",
            "Items",
            "--mode",
            "rel",
            "--rel-algo",
            "cluster",
            "--k",
            "2",
        ])
        .args(["--workers", "2", "--store-dir"])
        .arg(dir.join("s1"))
        .output()
        .unwrap();
    assert!(!no_vary.status.success());
    assert!(
        String::from_utf8_lossy(&no_vary.stderr).contains("--vary"),
        "must point at --vary"
    );

    let no_store = secreta()
        .arg("evaluate")
        .arg(&data)
        .args(SESSION)
        .args(EXPERIMENT)
        .args(["--workers", "2"])
        .output()
        .unwrap();
    assert!(!no_store.status.success());
    assert!(
        String::from_utf8_lossy(&no_store.stderr).contains("--store-dir"),
        "must point at --store-dir"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
