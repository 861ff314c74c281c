//! `secreta runs` — inspect and manage the persistent run store.
//!
//! Subcommands:
//!
//! * `runs list`   — stored runs plus open/degraded sweeps and failed
//!   jobs from the journal
//! * `runs show`   — full manifest of one run (key prefixes accepted)
//! * `runs chart`  — plot an indicator straight from stored manifests
//! * `runs gc`     — drop incomplete entries (`--all` empties the store)
//! * `runs resume` — finish an interrupted or degraded sweep from its
//!   journal intent (only failed/missing jobs re-execute)
//! * `runs fsck`   — verify every entry; `--repair` quarantines corrupt
//!   ones and removes leftovers

use crate::args::Args;
use crate::commands::{load_context, print_indicators, threads_of, with_limits, DEFAULT_STORE_DIR};
use crate::commands::{EXIT_DEGRADED, EXIT_OK};
use secreta_core::store::{resumable_sweeps, JournalEvent, RunStore, SweepRecord};
use secreta_core::{export, Configuration, Orchestrator};
use serde::{Deserialize, Value};

/// Dispatch `secreta runs <subcommand>`; returns the process exit code.
pub fn cmd_runs(args: &Args) -> Result<i32, String> {
    let sub = args
        .positional
        .first()
        .map(String::as_str)
        .unwrap_or("list");
    match sub {
        "list" => cmd_list(args).map(|()| EXIT_OK),
        "show" => cmd_show(args).map(|()| EXIT_OK),
        "chart" => cmd_chart(args).map(|()| EXIT_OK),
        "gc" => cmd_gc(args).map(|()| EXIT_OK),
        "resume" => cmd_resume(args),
        "fsck" => cmd_fsck(args),
        other => Err(format!(
            "unknown runs subcommand {other:?} (list|show|chart|gc|resume|fsck)"
        )),
    }
}

/// Open the store at `--store-dir` (default `.secreta-store`).
fn store_of(args: &Args) -> Result<RunStore, String> {
    let dir = args.opt("store-dir").unwrap_or(DEFAULT_STORE_DIR);
    RunStore::open(dir).map_err(|e| e.to_string())
}

fn cmd_list(args: &Args) -> Result<(), String> {
    let store = store_of(args)?;
    let manifests = store.list().map_err(|e| e.to_string())?;
    if manifests.is_empty() {
        println!("store {} holds no runs", store.root().display());
    } else {
        println!(
            "{:<18} {:<28} {:>8} {:>10} {:>12} {:>10}",
            "key", "method", "sweep", "gcp", "runtime(ms)", "created"
        );
        for m in &manifests {
            let sweep = match (&m.sweep_param, m.sweep_value) {
                (Some(p), Some(v)) => format!("{p}={v}"),
                _ => "-".to_owned(),
            };
            println!(
                "{:<18} {:<28} {:>8} {:>10.4} {:>12.1} {:>10}",
                &m.key[..16.min(m.key.len())],
                m.label,
                sweep,
                m.indicators.gcp,
                m.indicators.runtime_ms,
                m.created_unix_ms / 1000,
            );
        }
        println!("{} runs in {}", manifests.len(), store.root().display());
    }
    let events = store.read_journal().map_err(|e| e.to_string())?;
    let open = resumable_sweeps(&events);
    if !open.is_empty() {
        println!("open or degraded sweeps (resume with `secreta runs resume <id>`):");
        for rec in &open {
            let total: usize = rec.jobs.iter().map(Vec::len).sum();
            let done = events
                .iter()
                .filter(
                    |e| matches!(e, JournalEvent::JobFinished { sweep, .. } if *sweep == rec.id),
                )
                .count();
            println!(
                "  {}  {}  {}/{} jobs done",
                rec.id,
                rec.labels.join(" vs "),
                done,
                total
            );
            for e in &events {
                if let JournalEvent::JobFailed {
                    sweep,
                    label,
                    value,
                    error,
                    ..
                } = e
                {
                    if *sweep == rec.id {
                        println!("    failed: {label} @ {value}: {error}");
                    }
                }
            }
        }
    }
    Ok(())
}

fn cmd_show(args: &Args) -> Result<(), String> {
    let store = store_of(args)?;
    let prefix = args
        .positional
        .get(1)
        .ok_or("usage: secreta runs show KEY [--store-dir DIR]")?;
    let key = store
        .resolve(prefix)
        .map_err(|e| e.to_string())?
        .ok_or_else(|| format!("no run matches key prefix {prefix:?}"))?;
    // `resolve` just listed the run complete, so a miss here means it
    // failed verification and `get` moved it aside
    let run = store.get(&key).map_err(|e| e.to_string())?.ok_or_else(|| {
        format!(
            "run {key} failed verification and was moved to {}; \
             `secreta runs fsck` checks the rest of the store",
            store.root().join("quarantine").display()
        )
    })?;
    let m = &run.manifest;
    println!("key:      {}", m.key);
    println!("method:   {}", m.label);
    println!("context:  {}", m.context);
    println!("seed:     {}", m.seed);
    if let (Some(p), Some(v)) = (&m.sweep_param, m.sweep_value) {
        println!("sweep:    {p}={v}");
    }
    println!("schema:   v{}", m.schema_version);
    println!("created:  {}s (unix)", m.created_unix_ms / 1000);
    println!(
        "config:   {}",
        serde_json::to_string(&m.config).map_err(|e| e.to_string())?
    );
    print_indicators("indicators", &m.indicators);
    println!("phases:");
    for (name, d) in &m.phases.phases {
        println!("  {:<32} {:>10.2}ms", name, d.as_secs_f64() * 1e3);
    }
    if let Some(profile) = &m.profile {
        println!("profile:");
        print!("{}", profile.render_table());
    }
    let anon = run.anon().map_err(|e| {
        format!(
            "run {key} passed its checksum but its table does not decode: {e}; \
             `secreta runs fsck --repair` quarantines it"
        )
    })?;
    println!(
        "anonymized table: {} rows, {} relational columns, transactions: {}",
        anon.n_rows,
        anon.rel.len(),
        anon.tx.is_some()
    );
    Ok(())
}

fn cmd_chart(args: &Args) -> Result<(), String> {
    let store = store_of(args)?;
    let manifests = store.list().map_err(|e| e.to_string())?;
    if manifests.is_empty() {
        return Err(format!("store {} holds no runs", store.root().display()));
    }
    let indicator = args.opt("indicator").unwrap_or("gcp");
    if indicator == "phases" {
        let chart = export::phase_chart_from_manifests(&manifests);
        if chart.categories.is_empty() {
            return Err("no stored run carries phase timings to plot".into());
        }
        if args.flag("ascii") || args.opt("out-dir").is_none() {
            print!("{}", export::terminal_grouped(&chart));
        }
        if let Some(dir) = args.opt("out-dir") {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
            let stem = std::path::Path::new(dir).join("runs_phases");
            let (svg, csv) =
                export::export_grouped_chart(&chart, &stem).map_err(|e| e.to_string())?;
            println!("wrote {} and {}", svg.display(), csv.display());
        }
        return Ok(());
    }
    match indicator {
        "gcp" | "are" | "runtime" | "prosecutor" | "uniqueness" | "violations" => {}
        other => {
            return Err(format!(
                "unknown --indicator {other:?} \
                 (gcp|are|runtime|prosecutor|uniqueness|violations|phases)"
            ))
        }
    }
    let chart = export::chart_from_manifests(
        &manifests,
        format!("{indicator} from stored runs"),
        indicator,
        |i| crate::commands::indicator_scalar(indicator, i),
    );
    if chart.series.is_empty() {
        return Err("no stored run carries a sweep point to plot".into());
    }
    if args.flag("ascii") || args.opt("out-dir").is_none() {
        print!("{}", export::terminal_xy(&chart));
    }
    if let Some(dir) = args.opt("out-dir") {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let stem = std::path::Path::new(dir).join(format!("runs_{indicator}"));
        let (svg, csv) = export::export_xy_chart(&chart, &stem).map_err(|e| e.to_string())?;
        println!("wrote {} and {}", svg.display(), csv.display());
    }
    Ok(())
}

fn cmd_gc(args: &Args) -> Result<(), String> {
    let store = store_of(args)?;
    if args.flag("all") {
        let removed = store.gc_all().map_err(|e| e.to_string())?;
        println!(
            "removed {} entries; {} is empty",
            removed,
            store.root().display()
        );
    } else {
        let removed = store.gc_incomplete().map_err(|e| e.to_string())?;
        println!("removed {removed} incomplete entries");
    }
    Ok(())
}

fn cmd_resume(args: &Args) -> Result<i32, String> {
    let threads = threads_of(args)?;
    let store = store_of(args)?;
    let events = store.read_journal().map_err(|e| e.to_string())?;
    let open = resumable_sweeps(&events);
    let record = match args.positional.get(1) {
        Some(id) => open
            .iter()
            .find(|r| r.id.starts_with(id.as_str()))
            .cloned()
            .ok_or_else(|| format!("no resumable sweep matches {id:?}"))?,
        None => match open.len() {
            0 => {
                println!("nothing to resume: the journal has no open or degraded sweep");
                return Ok(EXIT_OK);
            }
            1 => open[0].clone(),
            _ => {
                let ids: Vec<&str> = open.iter().map(|r| r.id.as_str()).collect();
                return Err(format!(
                    "multiple resumable sweeps: {}; pick one with `secreta runs resume <id>`",
                    ids.join(", ")
                ));
            }
        },
    };
    resume_sweep(args, &store, &record, threads)
}

/// Re-run a journaled sweep with the cache on: completed jobs replay
/// from the store, only the failed or missing ones execute.
fn resume_sweep(
    args: &Args,
    store: &RunStore,
    record: &SweepRecord,
    threads: usize,
) -> Result<i32, String> {
    let (rebuilt, configs) = decode_invocation(&record.invocation)?;
    let ctx = with_limits(args, load_context(&rebuilt).map_err(String::from)?)?;
    let orch = Orchestrator::new(threads).with_store(store.clone());
    println!(
        "resuming sweep {} ({}) from {}",
        record.id,
        record.labels.join(" vs "),
        store.root().display()
    );
    let out = orch
        .compare(&ctx, &configs, record.invocation.clone())
        .map_err(|e| e.to_string())?;
    if out.sweep_id != record.id {
        // the session inputs changed since the intent was journaled —
        // the jobs above ran, but they belong to a different sweep
        return Err(format!(
            "session inputs changed since the sweep was journaled \
             (intent {}, replay {}); results were computed and stored \
             under the new identity",
            record.id, out.sweep_id
        ));
    }
    for (label, pts) in out.result.labels.iter().zip(&out.result.points) {
        println!("== {label}");
        for (v, r) in pts {
            match r {
                Ok(p) => print_indicators(
                    &format!("  {}={v}", out.result.param.label()),
                    &p.indicators,
                ),
                Err(e) => println!("  {}={v}: failed: {e}", out.result.param.label()),
            }
        }
    }
    println!(
        "sweep {} complete: {} replayed, {} executed, {} failed",
        out.sweep_id, out.stats.hits, out.stats.misses, out.stats.failures
    );
    Ok(if out.stats.failures == 0 {
        EXIT_OK
    } else {
        EXIT_DEGRADED
    })
}

/// `secreta runs fsck [--repair]`: verify every stored entry (manifest
/// parse, payload checksum) and the journal. Without `--repair` the
/// store is left untouched and problems exit 3; with it, corrupt
/// entries are quarantined and leftovers removed. Journal damage is
/// reported but never auto-repaired.
fn cmd_fsck(args: &Args) -> Result<i32, String> {
    let store = store_of(args)?;
    let repair = args.flag("repair");
    let report = store.fsck(repair).map_err(|e| e.to_string())?;
    println!(
        "fsck {}: {} scanned, {} ok, {} corrupt, {} incomplete, {} staging leftover(s)",
        store.root().display(),
        report.scanned,
        report.ok,
        report.corrupt.len(),
        report.incomplete,
        report.staging,
    );
    for (key, reason) in &report.corrupt {
        let action = if repair { " (quarantined)" } else { "" };
        println!("  corrupt {key}: {reason}{action}");
    }
    if let Some(err) = &report.journal_error {
        println!("  journal: {err} — not auto-repaired; `runs gc --all` resets the store");
    }
    if report.is_clean() {
        println!("store is clean");
        Ok(EXIT_OK)
    } else if repair && report.journal_error.is_none() {
        println!("issues repaired: corrupt entries quarantined, leftovers removed");
        Ok(EXIT_OK)
    } else if repair {
        Ok(EXIT_DEGRADED)
    } else {
        println!("store has issues; `secreta runs fsck --repair` fixes what it can");
        Ok(EXIT_DEGRADED)
    }
}

/// Decode the opaque invocation payload journaled by evaluate/compare
/// back into the argument set and configurations that produced it.
fn decode_invocation(invocation: &Value) -> Result<(Args, Vec<Configuration>), String> {
    let bad = |what: &str| format!("journal invocation payload is missing {what}");
    let mut rebuilt = Args {
        command: invocation
            .get("command")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("\"command\""))?
            .to_owned(),
        ..Args::default()
    };
    if let Some(positional) = invocation.get("positional").and_then(Value::as_arr) {
        for p in positional {
            rebuilt
                .positional
                .push(p.as_str().ok_or_else(|| bad("a positional string"))?.into());
        }
    }
    if let Some(options) = invocation.get("options").and_then(Value::as_obj) {
        for (k, v) in options {
            rebuilt.options.insert(
                k.clone(),
                v.as_str().ok_or_else(|| bad("an option string"))?.into(),
            );
        }
    }
    let configs = Vec::<Configuration>::de(
        invocation
            .get("configurations")
            .ok_or_else(|| bad("\"configurations\""))?,
    )
    .map_err(|e| format!("journal invocation payload: {e}"))?;
    Ok((rebuilt, configs))
}
