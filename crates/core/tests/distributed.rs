//! In-process integration tests of the distributed coordinator/worker
//! split: convergence, byte-identity against the single-process
//! orchestrator, cache interplay, and graceful degradation when every
//! worker dies. (Process-level chaos — `kill -9` via fault injection —
//! lives in the CLI's test suite; these tests drive `worker_loop` from
//! threads, which exercises the identical lease/fence code paths.)

use secreta_core::config::RelAlgo;
use secreta_core::distributed::{run_distributed, worker_loop, DistOptions, WorkerError};
use secreta_core::sweep::{Sweep, VaryingParam};
use secreta_core::{Configuration, MethodSpec, Orchestrator, SessionContext};
use secreta_gen::{DatasetSpec, WorkloadSpec};
use secreta_store::{JournalEvent, RunStore, SweepRecord};
use serde::Value;

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

fn configs(start: usize, end: usize) -> Vec<Configuration> {
    vec![Configuration::new(
        MethodSpec::Relational {
            algo: RelAlgo::Cluster,
            k: 0,
        },
        Sweep {
            param: VaryingParam::K,
            start,
            end,
            step: 2,
        },
        1,
    )]
}

fn tmp_store(name: &str) -> RunStore {
    let dir = std::env::temp_dir().join(format!("secreta-dist-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&dir);
    RunStore::open(dir).unwrap()
}

fn opts() -> DistOptions {
    DistOptions {
        lease_ttl_ms: 2_000,
        poll_ms: 10,
        workers: 0,
        worker_wait_ms: 10_000,
    }
}

/// Read the raw stored anon.json bytes of every run in a store, keyed
/// by run key.
fn anon_bytes(store: &RunStore) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = store
        .list()
        .unwrap()
        .into_iter()
        .map(|m| {
            let path = store
                .root()
                .join("runs")
                .join(&m.key[..2])
                .join(&m.key)
                .join("anon.json");
            (m.key, std::fs::read(path).unwrap())
        })
        .collect();
    out.sort();
    out
}

/// Three attached workers race one coordinator; the merged comparison
/// and every stored anonymization must be byte-identical to a plain
/// single-process run of the same experiment.
#[test]
fn multi_worker_sweep_is_byte_identical_to_single_process() {
    let ctx = ctx();
    // baseline: the classic in-process orchestrator
    let solo_store = tmp_store("solo");
    let solo = Orchestrator::new(2)
        .with_store(solo_store.clone())
        .compare(&ctx, &configs(2, 6), Value::Null)
        .unwrap();

    // distributed: coordinator in attach mode + 3 worker threads
    let dist_store = tmp_store("dist");
    let o = opts();
    let (dist, reports) = std::thread::scope(|s| {
        let coord = {
            let (ctx, store, o) = (&ctx, &dist_store, &o);
            s.spawn(move || {
                run_distributed(ctx, store, &configs(2, 6), Value::Null, o, None).unwrap()
            })
        };
        let workers: Vec<_> = (0..3)
            .map(|_| {
                let (ctx, store, o) = (&ctx, &dist_store, &o);
                s.spawn(move || {
                    let sweep = secreta_core::sweep_id_for(ctx, &configs(2, 6));
                    worker_loop(ctx, store, &sweep, o).unwrap()
                })
            })
            .collect();
        let dist = coord.join().unwrap();
        let reports: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();
        (dist, reports)
    });

    assert_eq!(dist.sweep_id, solo.sweep_id, "same expansion, same id");
    assert_eq!(dist.stats.misses, 3);
    assert_eq!(dist.stats.failures, 0);
    // the workers between them executed every job exactly once (no
    // crashes here, so no benign duplicate computes)
    let executed: u64 = reports.iter().map(|r| r.executed).sum();
    assert_eq!(executed, 3);

    // merged indicators match the single-process run (runtime is
    // wall-clock and legitimately differs)
    for (sp, dp) in solo.result.points[0].iter().zip(&dist.result.points[0]) {
        assert_eq!(sp.0, dp.0);
        let mut a = sp.1.as_ref().unwrap().indicators.clone();
        let mut b = dp.1.as_ref().unwrap().indicators.clone();
        a.runtime_ms = 0.0;
        b.runtime_ms = 0.0;
        assert_eq!(a, b, "k={} diverged", sp.0);
    }
    // the stored anonymizations are byte-identical across stores
    assert_eq!(anon_bytes(&solo_store), anon_bytes(&dist_store));
    // job records and leases are cleaned up after the merge
    assert!(!dist_store.root().join("jobs").exists());
    assert!(!dist_store.root().join("leases").exists());
}

/// A second distributed run of the same experiment is served entirely
/// from the cache: no job records are ever published, no workers
/// needed.
#[test]
fn warm_distributed_run_is_all_hits_without_workers() {
    let ctx = ctx();
    let store = tmp_store("warm");
    let o = opts();
    std::thread::scope(|s| {
        let coord = {
            let (ctx, store, o) = (&ctx, &store, &o);
            s.spawn(move || {
                run_distributed(ctx, store, &configs(2, 4), Value::Null, o, None).unwrap()
            })
        };
        let (ctx2, store2, o2) = (&ctx, &store, &o);
        let sweep = secreta_core::sweep_id_for(ctx2, &configs(2, 4));
        s.spawn(move || worker_loop(ctx2, store2, &sweep, o2).unwrap());
        coord.join().unwrap()
    });
    // warm run: attach mode with no workers attached — must not hang
    let warm = run_distributed(&ctx, &store, &configs(2, 4), Value::Null, &o, None).unwrap();
    assert_eq!(warm.stats.hits, 2);
    assert_eq!(warm.stats.misses, 0);
    assert!(!store.root().join("jobs").exists(), "no jobs published");
}

/// Every spawned worker dies instantly: the sweep degrades instead of
/// hanging — cached points still serve, lost jobs merge as
/// `RunError::Lost` and are journaled as failed — and a subsequent
/// in-process resume re-executes exactly the lost tail.
#[test]
fn dead_workers_degrade_and_resume_reexecutes_only_lost_jobs() {
    let ctx = ctx();
    let store = tmp_store("degraded");
    // pre-populate one sweep point (k=2) through the normal path
    let pre = Orchestrator::new(1)
        .with_store(store.clone())
        .compare(&ctx, &configs(2, 2), Value::Null)
        .unwrap();
    assert_eq!(pre.stats.misses, 1);

    // "workers" that exit immediately without claiming anything
    let o = DistOptions {
        lease_ttl_ms: 200,
        poll_ms: 10,
        workers: 2,
        worker_wait_ms: 1_000,
    };
    let spawner = |_i: usize, _sweep: &str| std::process::Command::new("true").spawn();
    let out = run_distributed(
        &ctx,
        &store,
        &configs(2, 6),
        Value::Null,
        &o,
        Some(&spawner),
    )
    .unwrap();
    assert_eq!(out.stats.hits, 1, "k=2 was already cached");
    assert_eq!(out.stats.misses, 0);
    assert_eq!(out.stats.failures, 2, "k=4 and k=6 are lost");
    let lost: Vec<_> = out.result.points[0]
        .iter()
        .filter_map(|(v, r)| r.as_ref().err().map(|e| (*v, e.to_string())))
        .collect();
    assert_eq!(lost.len(), 2);
    for (_, msg) in &lost {
        assert!(msg.starts_with("job lost:"), "got: {msg}");
    }
    // the journal marks the sweep degraded (JobFailed lines present)
    let events = store.read_journal().unwrap();
    let failed = events
        .iter()
        .filter(|e| matches!(e, JournalEvent::JobFailed { .. }))
        .count();
    assert_eq!(failed, 2);

    // resume = replay the invocation in-process: the cached point hits,
    // exactly the two lost jobs execute
    let resumed = Orchestrator::new(2)
        .with_store(store.clone())
        .compare(&ctx, &configs(2, 6), Value::Null)
        .unwrap();
    assert_eq!(resumed.stats.hits, 1);
    assert_eq!(resumed.stats.misses, 2, "only the lost tail re-executes");
    assert_eq!(resumed.stats.failures, 0);
}

/// A worker pointed at a sweep that never appears gives up with
/// `NoSuchSweep`; one whose session digests differently than the
/// recorded context refuses with `ContextMismatch`.
#[test]
fn worker_validates_sweep_and_context() {
    let ctx = ctx();
    let store = tmp_store("validate");
    let o = DistOptions {
        worker_wait_ms: 100,
        poll_ms: 10,
        ..opts()
    };
    match worker_loop(&ctx, &store, "deadbeefdeadbeef", &o) {
        Err(WorkerError::NoSuchSweep(id)) => assert_eq!(id, "deadbeefdeadbeef"),
        other => panic!("expected NoSuchSweep, got {other:?}"),
    }

    // forge an intent record with a foreign context digest
    let mut journal = store.journal().unwrap();
    journal
        .append(&JournalEvent::SweepStarted(SweepRecord {
            id: "cafecafecafecafe".to_owned(),
            context: "not-this-session".to_owned(),
            param: "k".to_owned(),
            labels: vec![],
            jobs: vec![],
            invocation: Value::Null,
        }))
        .unwrap();
    match worker_loop(&ctx, &store, "cafecafecafecafe", &o) {
        Err(WorkerError::ContextMismatch { expected, .. }) => {
            assert_eq!(expected, "not-this-session")
        }
        other => panic!("expected ContextMismatch, got {other:?}"),
    }
}

/// A sweep record naming a varying parameter this build does not know
/// is refused with a typed error, instead of being executed and stored
/// under manifests labelled `k`.
#[test]
fn worker_rejects_an_unknown_sweep_parameter() {
    let ctx = ctx();
    let store = tmp_store("unknown-param");
    store
        .journal()
        .unwrap()
        .append(&JournalEvent::SweepStarted(SweepRecord {
            id: "0123456789abcdef".to_owned(),
            context: secreta_core::context_digest(&ctx),
            param: "q".to_owned(),
            labels: vec![],
            jobs: vec![],
            invocation: Value::Null,
        }))
        .unwrap();
    match worker_loop(&ctx, &store, "0123456789abcdef", &opts()) {
        Err(WorkerError::UnknownParam { sweep, param }) => {
            assert_eq!(sweep, "0123456789abcdef");
            assert_eq!(param, "q");
        }
        other => panic!("expected UnknownParam, got {other:?}"),
    }
    assert!(store.list().unwrap().is_empty(), "nothing was stored");
}

/// A spawner that fails part-way must not orphan the workers it already
/// started: when the coordinator errors out, they are killed and reaped.
#[cfg(target_os = "linux")]
#[test]
fn partial_spawn_failure_kills_the_workers_already_spawned() {
    use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
    let ctx = ctx();
    let store = tmp_store("partial-spawn");
    // spawners are `'static` callbacks, so the probes live in statics
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    static FIRST_PID: AtomicU32 = AtomicU32::new(0);
    let spawner = |_i: usize, _sweep: &str| {
        if CALLS.fetch_add(1, Ordering::SeqCst) > 0 {
            return Err(std::io::Error::other("second worker refused to start"));
        }
        let child = std::process::Command::new("sleep").arg("60").spawn()?;
        FIRST_PID.store(child.id(), Ordering::SeqCst);
        Ok(child)
    };
    let o = DistOptions {
        workers: 2,
        ..opts()
    };
    let out = run_distributed(
        &ctx,
        &store,
        &configs(2, 4),
        Value::Null,
        &o,
        Some(&spawner),
    );
    assert!(out.is_err(), "a failed spawn fails the sweep");
    let pid = FIRST_PID.load(Ordering::SeqCst);
    assert_ne!(pid, 0, "the first worker was spawned");
    assert!(
        !std::path::Path::new(&format!("/proc/{pid}")).exists(),
        "worker {pid} outlived its coordinator"
    );
}
