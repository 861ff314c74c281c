//! End-to-end orchestrator behaviour against a real on-disk store:
//! the acceptance properties of the run store subsystem.
//!
//! * An identical re-run of a sweep is a **full cache hit** — zero
//!   anonymization work, asserted through the journal (no `JobStarted`
//!   events, every completion a `cache_hit`), with byte-identical
//!   indicator output.
//! * A sweep interrupted mid-run (simulated by restoring the exact
//!   on-disk state a `kill -9` leaves: partial results, an intent
//!   record with no `SweepFinished`) resumes to results byte-identical
//!   to an uninterrupted run.

use scratch::Scratch;
use secreta_core::store::{unfinished_sweeps, JournalEvent, RunKey, RunStore};
use secreta_core::{
    Configuration, MethodSpec, Orchestrator, RelAlgo, SessionContext, Sweep, VaryingParam,
};
use secreta_gen::{DatasetSpec, WorkloadSpec};
use serde::Value;
use std::path::PathBuf;

#[path = "../../store/tests/support/scratch.rs"]
mod scratch;

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
    let sweep = Sweep {
        param: VaryingParam::K,
        start: 2,
        end: 6,
        step: 2,
    };
    vec![
        Configuration::new(
            MethodSpec::Relational {
                algo: RelAlgo::Cluster,
                k: 0,
            },
            sweep,
            1,
        ),
        Configuration::new(
            MethodSpec::Relational {
                algo: RelAlgo::TopDown,
                k: 0,
            },
            sweep,
            1,
        ),
    ]
}

fn tmp_store(name: &str) -> Scratch<RunStore> {
    Scratch::new(&format!("orch-it-{name}"), |dir| {
        RunStore::open(dir).unwrap()
    })
}

/// Path of a stored run's anonymized table (mirrors the store layout).
fn anon_path(store: &RunStore, key: &str) -> PathBuf {
    store
        .root()
        .join("runs")
        .join(&key[..2])
        .join(key)
        .join("anon.json")
}

#[test]
fn identical_rerun_is_a_full_cache_hit_doing_zero_anonymization_work() {
    let ctx = ctx();
    let store = tmp_store("fullhit");
    let orch = Orchestrator::new(2).with_store(store.clone());

    let cold = orch.compare(&ctx, &configs(), Value::Null).unwrap();
    assert_eq!(cold.stats.misses, 6);
    let cold_event_count = store.read_journal().unwrap().len();

    let warm = orch.compare(&ctx, &configs(), Value::Null).unwrap();
    assert_eq!(warm.stats.hits, 6);
    assert_eq!(warm.stats.misses, 0);
    assert_eq!(warm.stats.failures, 0);

    // the journal proves no anonymization happened: the warm sweep
    // appended no JobStarted event, and every completion was a replay
    let events = store.read_journal().unwrap();
    let warm_events = &events[cold_event_count..];
    assert!(
        !warm_events
            .iter()
            .any(|e| matches!(e, JournalEvent::JobStarted { .. })),
        "a full cache hit must not start any job"
    );
    let completions: Vec<_> = warm_events
        .iter()
        .filter_map(|e| match e {
            JournalEvent::JobFinished { cache_hit, .. } => Some(*cache_hit),
            _ => None,
        })
        .collect();
    assert_eq!(completions.len(), 6);
    assert!(completions.iter().all(|&hit| hit));
    assert!(warm_events.iter().any(|e| matches!(
        e,
        JournalEvent::SweepFinished {
            hits: 6,
            misses: 0,
            failures: 0,
            ..
        }
    )));

    // byte-identical output: the replayed indicators serialize to the
    // exact same JSON as the cold run's, wall-clock timings included
    assert_eq!(warm.sweep_id, cold.sweep_id);
    for (c_points, w_points) in cold.result.points.iter().zip(&warm.result.points) {
        for ((cv, c), (wv, w)) in c_points.iter().zip(w_points) {
            assert_eq!(cv, wv);
            let c_json = serde_json::to_string(&c.as_ref().unwrap().indicators).unwrap();
            let w_json = serde_json::to_string(&w.as_ref().unwrap().indicators).unwrap();
            assert_eq!(c_json, w_json, "replay must be byte-identical");
        }
    }
}

#[test]
fn interrupted_sweep_resumes_to_byte_identical_results() {
    let ctx = ctx();

    // reference: the same experiment, uninterrupted, in its own store
    let reference_store = tmp_store("resume-ref");
    let reference = Orchestrator::new(2)
        .with_store(reference_store.clone())
        .compare(&ctx, &configs(), Value::Null)
        .unwrap();
    assert_eq!(reference.stats.misses, 6);

    // run the experiment, then put the store into the exact state a
    // kill -9 mid-sweep leaves behind: drop the SweepFinished event,
    // and for two jobs also drop their results and completion events
    // (they were still running when the process died)
    let store = tmp_store("resume");
    let orch = Orchestrator::new(2).with_store(store.clone());
    let out = orch.compare(&ctx, &configs(), Value::Null).unwrap();
    assert_eq!(out.stats.misses, 6);

    let events = store.read_journal().unwrap();
    let record = events
        .iter()
        .find_map(|e| match e {
            JournalEvent::SweepStarted(rec) => Some(rec.clone()),
            _ => None,
        })
        .unwrap();
    // the last job of each configuration "was still running"
    let killed: Vec<String> = record
        .jobs
        .iter()
        .map(|cfg_jobs| cfg_jobs.last().unwrap().1.clone())
        .collect();
    assert_eq!(killed.len(), 2);
    for key in &killed {
        assert!(store.remove(&RunKey(key.clone())).unwrap());
    }
    let truncated: Vec<String> = events
        .iter()
        .filter(|e| match e {
            JournalEvent::SweepFinished { .. } => false,
            JournalEvent::JobFinished { key, .. } => !killed.contains(key),
            _ => true,
        })
        .map(|e| serde_json::to_string(e).unwrap())
        .collect();
    std::fs::write(store.journal_path(), truncated.join("\n") + "\n").unwrap();

    // the journal now reports the sweep as resumable
    let unfinished = unfinished_sweeps(&store.read_journal().unwrap());
    assert_eq!(unfinished.len(), 1);
    assert_eq!(unfinished[0].id, out.sweep_id);

    // resume = replay the invocation against the same store: completed
    // jobs are cache hits, only the killed tail executes
    let resumed = orch.compare(&ctx, &configs(), Value::Null).unwrap();
    assert_eq!(resumed.sweep_id, unfinished[0].id);
    assert_eq!(resumed.stats.hits, 4);
    assert_eq!(resumed.stats.misses, 2);
    assert_eq!(resumed.stats.failures, 0);
    assert!(
        unfinished_sweeps(&store.read_journal().unwrap()).is_empty(),
        "the resumed sweep must close its journal record"
    );

    // every stored anonymized table — replayed and re-executed alike —
    // is byte-identical to the uninterrupted run's
    for cfg_jobs in &record.jobs {
        for (_, key) in cfg_jobs {
            let want = std::fs::read(anon_path(&reference_store, key)).unwrap();
            let got = std::fs::read(anon_path(&store, key)).unwrap();
            assert_eq!(want, got, "anon table for {key} diverged after resume");
        }
    }
    // and the quality indicators match the reference exactly, modulo
    // wall-clock runtime on the two jobs that re-executed
    for (r_points, s_points) in reference.result.points.iter().zip(&resumed.result.points) {
        for ((rv, r), (sv, s)) in r_points.iter().zip(s_points) {
            assert_eq!(rv, sv);
            let mut want = r.as_ref().unwrap().indicators.clone();
            let mut got = s.as_ref().unwrap().indicators.clone();
            want.runtime_ms = 0.0;
            got.runtime_ms = 0.0;
            assert_eq!(want, got);
        }
    }
}
