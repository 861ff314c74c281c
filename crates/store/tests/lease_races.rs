//! Interleaving tests for concurrent same-job lease claims.
//!
//! Two (or many) claimers race for one job: exactly one lease must
//! win each round, losers must back off on a deterministic schedule,
//! and the committed result must be byte-identical no matter which
//! claimer wins — the distributed sweep's core safety argument,
//! exercised here directly against the lease + fenced-put primitives.

use secreta_store::lease::{backoff_ms, ClaimOutcome, LeaseSet};
use secreta_store::{RunKey, RunStore};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

fn tmp_root(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "secreta-lease-race-{}-{}",
        std::process::id(),
        name
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn key64(c: char) -> String {
    std::iter::repeat_n(c, 64).collect()
}

fn manifest(key: &str) -> secreta_store::RunManifest {
    secreta_store::RunManifest {
        key: key.to_owned(),
        schema_version: secreta_store::STORE_SCHEMA_VERSION,
        context: "ctx".to_owned(),
        label: "CLUSTER".to_owned(),
        config: serde::Value::Obj(vec![("k".to_owned(), serde::Value::U64(5))]),
        seed: 1,
        sweep_param: None,
        sweep_value: None,
        created_unix_ms: 0,
        indicators: secreta_metrics::Indicators {
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
        phases: secreta_metrics::PhaseTimes { phases: vec![] },
        profile: None,
        anon_sha256: None,
    }
}

fn empty_anon() -> secreta_metrics::AnonTable {
    secreta_metrics::AnonTable {
        rel: vec![],
        tx: None,
        n_rows: 0,
    }
}

/// Many threads race to claim one job simultaneously; exactly one
/// wins, every loser observes the winner's token, and each loser's
/// backoff schedule is deterministic in its own token.
#[test]
fn exactly_one_of_many_simultaneous_claims_wins() {
    let root = tmp_root("many");
    const N: usize = 8;
    let sets: Vec<LeaseSet> = (0..N)
        .map(|_| LeaseSet::open(&root, "s1", 60_000).unwrap())
        .collect();
    for round in 0..16 {
        let key = format!("job-{round}");
        let wins = AtomicUsize::new(0);
        let barrier = Barrier::new(N);
        std::thread::scope(|s| {
            for set in &sets {
                let wins = &wins;
                let barrier = &barrier;
                let key = &key;
                s.spawn(move || {
                    barrier.wait();
                    let outcome = set.claim(key).unwrap();
                    // hold any won lease until every thread has tried,
                    // so late claimers race the *held* lease
                    barrier.wait();
                    match outcome {
                        ClaimOutcome::Claimed(guard) => {
                            wins.fetch_add(1, Ordering::SeqCst);
                            assert!(guard.verify());
                            guard.release();
                        }
                        ClaimOutcome::Held(rec) => {
                            // the loser sees a live lease and backs off
                            // on its own deterministic schedule
                            assert!(!rec.token.is_empty());
                            let schedule: Vec<u64> =
                                (0..4).map(|a| backoff_ms(a, set.token())).collect();
                            assert_eq!(
                                schedule,
                                (0..4)
                                    .map(|a| backoff_ms(a, set.token()))
                                    .collect::<Vec<_>>()
                            );
                        }
                        ClaimOutcome::Reclaimed(_, old) => {
                            panic!("fresh job must never be reclaimed (old: {old:?})")
                        }
                    }
                });
            }
        });
        assert_eq!(
            wins.load(Ordering::SeqCst),
            1,
            "round {round}: exactly one claim must win"
        );
    }
}

/// Two workers race claim→execute→publish for the same job; whoever
/// wins, the committed bytes are identical, and the loser's fenced put
/// either never runs or commits the very same content.
#[test]
fn stored_result_is_byte_identical_regardless_of_winner() {
    for round in 0..8 {
        let root = tmp_root(&format!("winner-{round}"));
        let store = RunStore::open(root.clone()).unwrap();
        let a = LeaseSet::open(&root, "s1", 60_000).unwrap();
        let b = LeaseSet::open(&root, "s1", 60_000).unwrap();
        let key = key64('a');
        let barrier = Barrier::new(2);
        std::thread::scope(|s| {
            for set in [&a, &b] {
                let store = &store;
                let key = &key;
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    match set.claim(key).unwrap() {
                        ClaimOutcome::Claimed(guard) => {
                            let committed = store
                                .put_fenced(&manifest(key), &empty_anon(), guard.epoch(), &|| {
                                    guard.verify()
                                })
                                .unwrap();
                            assert!(committed, "winner's fence must hold");
                            guard.release();
                        }
                        ClaimOutcome::Held(_) => {
                            // deterministic backoff, then the loser
                            // finds the result already stored
                            std::thread::sleep(std::time::Duration::from_millis(
                                backoff_ms(0, set.token()).min(50),
                            ));
                        }
                        ClaimOutcome::Reclaimed(..) => panic!("nothing to reclaim"),
                    }
                });
            }
        });
        // winner committed; bytes are the canonical serialization
        let run = store.get(&RunKey(key.clone())).unwrap().expect("stored");
        let anon_path = root
            .join("runs")
            .join(&key[..2])
            .join(&key)
            .join("anon.json");
        let bytes = std::fs::read(&anon_path).unwrap();
        assert_eq!(
            bytes,
            serde_json::to_string(&run.anon().unwrap())
                .unwrap()
                .as_bytes()
        );
        // staging is clean: no half-committed leftovers either way
        assert_eq!(
            std::fs::read_dir(root.join("tmp")).unwrap().count(),
            0,
            "round {round}"
        );
    }
}

/// A reclaimed (fenced-off) worker's late publish is rejected: the
/// job's result is committed exactly once, by the reclaimer.
#[test]
fn fenced_off_late_write_is_rejected() {
    let root = tmp_root("fence");
    let store = RunStore::open(root.clone()).unwrap();
    let slow = LeaseSet::open(&root, "s1", 50).unwrap(); // 50 ms TTL
    let fast = LeaseSet::open(&root, "s1", 50).unwrap();
    let key = key64('b');
    let slow_guard = match slow.claim(&key).unwrap() {
        ClaimOutcome::Claimed(g) => g,
        other => panic!("{other:?}"),
    };
    // the slow worker stalls past its TTL without heartbeating...
    std::thread::sleep(std::time::Duration::from_millis(80));
    let fast_guard = match fast.claim(&key).unwrap() {
        ClaimOutcome::Reclaimed(g, old) => {
            assert_eq!(old.token, slow.token());
            g
        }
        other => panic!("expected reclaim, got {other:?}"),
    };
    // ...then wakes up and tries to publish: the fence rejects it
    let late = store
        .put_fenced(&manifest(&key), &empty_anon(), slow_guard.epoch(), &|| {
            slow_guard.verify()
        })
        .unwrap();
    assert!(!late, "late write must be fenced off");
    assert!(store.get(&RunKey(key.clone())).unwrap().is_none());
    // the reclaimer publishes normally
    let ok = store
        .put_fenced(&manifest(&key), &empty_anon(), fast_guard.epoch(), &|| {
            fast_guard.verify()
        })
        .unwrap();
    assert!(ok);
    assert!(store.get(&RunKey(key)).unwrap().is_some());
}
