//! End-to-end chaos test: the fault-tolerance acceptance property.
//!
//! A 3-configuration × 5-point comparison runs under an installed
//! fault plan — two injected panics in one algorithm plus one
//! transient store I/O error — then one cached manifest is corrupted
//! on disk. The sweep must complete **degraded** (failures recorded,
//! everything else stored), `fsck --repair` must quarantine the
//! corrupt entry, and a fault-free re-run must re-execute only the
//! damaged points and converge to a store whose anonymized outputs are
//! **byte-identical** to a reference store produced with no faults at
//! all.
//!
//! A second scenario damages stored payloads directly — one flipped
//! byte, one truncation — and checks that the next sweep heals them on
//! its own hit path, with no `fsck` in between.
//!
//! This file owns its test process: the fault plan is process-global,
//! so the chaos scenario lives here rather than in any crate's unit
//! tests, and every `#[test]` holds [`SERIAL`] so no sweep runs while
//! another test's plan is installed.

use secreta_core::store::{resumable_sweeps, RunStore};
use secreta_core::{
    CacheStats, Configuration, MethodSpec, Orchestrator, RelAlgo, SessionContext, Sweep,
    VaryingParam,
};
use secreta_gen::{DatasetSpec, WorkloadSpec};
use serde::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

/// Serializes the tests of this file (see the module docs).
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // a failed test poisons the lock; the others still run
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn ctx() -> SessionContext {
    let t = DatasetSpec::adult_like(120, 7).generate();
    let ctx = SessionContext::auto(t, 4).unwrap();
    let w = WorkloadSpec {
        n_queries: 10,
        ..Default::default()
    }
    .generate(&ctx.table);
    ctx.with_workload(w)
}

fn configs() -> Vec<Configuration> {
    let sweep = Sweep {
        param: VaryingParam::K,
        start: 2,
        end: 10,
        step: 2,
    };
    [RelAlgo::Cluster, RelAlgo::TopDown, RelAlgo::BottomUp]
        .into_iter()
        .map(|algo| Configuration::new(MethodSpec::Relational { algo, k: 0 }, sweep, 1))
        .collect()
}

fn tmp_store(name: &str) -> RunStore {
    let dir =
        std::env::temp_dir().join(format!("secreta-chaos-it-{}-{}", std::process::id(), name));
    let _ = std::fs::remove_dir_all(&dir);
    RunStore::open(dir).unwrap()
}

/// Every stored run's anonymized payload, keyed by content address.
fn anon_payloads(store: &RunStore) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    let mut stack = vec![store.root().join("runs")];
    while let Some(dir) = stack.pop() {
        let Ok(rd) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in rd.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.file_name().and_then(|n| n.to_str()) == Some("anon.json") {
                let key = dir
                    .file_name()
                    .and_then(|n| n.to_str())
                    .expect("run dir is the key")
                    .to_owned();
                out.insert(key, std::fs::read(&path).unwrap());
            }
        }
    }
    out
}

/// The stored `anon.json` of `key`, for tampering.
fn anon_path(store: &RunStore, key: &str) -> PathBuf {
    store
        .root()
        .join("runs")
        .join(&key[..2])
        .join(key)
        .join("anon.json")
}

/// One stored run's `anon.json`, for tampering.
fn any_anon_path(store: &RunStore) -> PathBuf {
    let (key, _) = anon_payloads(store)
        .into_iter()
        .next()
        .expect("store holds at least one run");
    anon_path(store, &key)
}

/// Assert `store` holds exactly `want`'s payloads, key for key.
fn assert_same_payloads(store: &RunStore, want: &BTreeMap<String, Vec<u8>>) {
    let got = anon_payloads(store);
    assert_eq!(
        got.keys().collect::<Vec<_>>(),
        want.keys().collect::<Vec<_>>(),
        "same content addresses"
    );
    for (key, bytes) in want {
        assert_eq!(
            Some(bytes),
            got.get(key),
            "payload of {key} differs from the fault-free reference"
        );
    }
}

#[test]
fn degraded_sweep_recovers_byte_identical_to_a_fault_free_run() {
    let _serial = serial();
    let ctx = ctx();
    let configs = configs();
    let n_jobs = 15u64; // 3 configurations × 5 sweep points

    // reference: the same comparison with no faults anywhere
    let reference = tmp_store("reference");
    let ref_out = Orchestrator::new(2)
        .with_store(reference.clone())
        .compare(&ctx, &configs, Value::Null)
        .unwrap();
    assert_eq!(ref_out.stats.failures, 0);
    assert_eq!(ref_out.stats.misses, n_jobs);
    let want = anon_payloads(&reference);
    assert_eq!(want.len(), n_jobs as usize);

    // chaos: two panics inside the TopDown family and one transient
    // store write error (absorbed by the retry policy, so it must NOT
    // surface as a failure)
    let store = tmp_store("chaos");
    let orch = Orchestrator::new(2).with_store(store.clone());
    secreta_core::faults::install(
        secreta_core::faults::FaultPlan::from_spec(
            "seed=3;panic@run:Top-down*=1x2;io@store.put=1x1",
        )
        .unwrap(),
    );
    let degraded = orch.compare(&ctx, &configs, Value::Null).unwrap();
    secreta_core::faults::clear();

    assert_eq!(degraded.stats.failures, 2, "exactly the injected panics");
    assert_eq!(degraded.stats.misses, n_jobs - 2, "everything else ran");
    let errors: Vec<String> = degraded
        .result
        .points
        .iter()
        .flatten()
        .filter_map(|(_, r)| r.as_ref().err().map(|e| e.to_string()))
        .collect();
    assert_eq!(errors.len(), 2);
    for e in &errors {
        assert!(
            e.contains("injected fault:"),
            "failures carry the panic message: {e}"
        );
    }
    assert_eq!(
        resumable_sweeps(&store.read_journal().unwrap()).len(),
        1,
        "a degraded sweep stays resumable"
    );

    // damage one cached payload on disk; fsck --repair quarantines it
    std::fs::write(any_anon_path(&store), b"{\"rel\":[],\"garbage").unwrap();
    let report = store.fsck(true).unwrap();
    assert_eq!(report.scanned, n_jobs as usize - 2);
    assert_eq!(report.corrupt.len(), 1, "{:?}", report.corrupt);
    assert_eq!(report.ok, n_jobs as usize - 3);
    assert!(
        store.root().join("quarantine").is_dir(),
        "corrupt entry moved aside, not destroyed"
    );

    // fault-free re-run: only the 2 panicked and 1 quarantined points
    // execute, the remaining 12 replay from the store
    let healed = orch.compare(&ctx, &configs, Value::Null).unwrap();
    assert_eq!(healed.stats.failures, 0);
    assert_eq!(healed.stats.misses, 3, "only the damaged points re-ran");
    assert_eq!(healed.stats.hits, n_jobs - 3);
    assert!(
        resumable_sweeps(&store.read_journal().unwrap()).is_empty(),
        "a clean finish closes the degraded sweep"
    );

    // convergence: the recovered store's anonymized outputs are
    // byte-identical to the fault-free reference, key for key
    assert_same_payloads(&store, &want);

    let _ = std::fs::remove_dir_all(reference.root());
    let _ = std::fs::remove_dir_all(store.root());
}

#[test]
fn sweep_heals_damaged_payloads_without_fsck() {
    let _serial = serial();
    let ctx = ctx();
    let configs = configs();
    let n_jobs = 15u64;

    let reference = tmp_store("heal-reference");
    Orchestrator::new(2)
        .with_store(reference.clone())
        .compare(&ctx, &configs, Value::Null)
        .unwrap();
    let want = anon_payloads(&reference);
    assert_eq!(want.len(), n_jobs as usize);

    let store = tmp_store("heal");
    let orch = Orchestrator::new(2).with_store(store.clone());
    let cold = orch.compare(&ctx, &configs, Value::Null).unwrap();
    assert_eq!(cold.stats.misses, n_jobs);

    // flip one byte of one payload, truncate another
    let mut keys = want.keys();
    let flipped = anon_path(&store, keys.next().unwrap());
    let truncated = anon_path(&store, keys.next().unwrap());
    let mut bytes = std::fs::read(&flipped).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&flipped, bytes).unwrap();
    let len = std::fs::metadata(&truncated).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&truncated)
        .unwrap()
        .set_len(len / 2)
        .unwrap();

    // the same sweep verifies every hit: the two damaged entries fail
    // their checksums, are set aside and recomputed, nothing fails
    let healed = orch.compare(&ctx, &configs, Value::Null).unwrap();
    assert_eq!(
        healed.stats,
        CacheStats {
            hits: n_jobs - 2,
            misses: 2,
            failures: 0,
        }
    );
    let quarantined = std::fs::read_dir(store.root().join("quarantine")).unwrap();
    assert_eq!(quarantined.count(), 2, "both damaged entries set aside");
    assert_same_payloads(&store, &want);

    let _ = std::fs::remove_dir_all(reference.root());
    let _ = std::fs::remove_dir_all(store.root());
}
