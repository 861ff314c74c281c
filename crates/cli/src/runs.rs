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

use crate::args::{Args, CONTEXT};
use crate::commands::{emit_chart, load_context, print_comparison, print_indicators};
use crate::commands::{threads_of, with_limits};
use crate::commands::{EXIT_DEGRADED, EXIT_OK};
use secreta_core::store::{resumable_sweeps, JournalEvent, RunStore, SweepRecord};
use secreta_core::{export, Configuration, Orchestrator};
use serde::{Deserialize, Value};

/// Open the store at `--store-dir` (default `.secreta-store`).
fn store_of(args: &Args) -> Result<RunStore, String> {
    let dir = args.text("store-dir").expect("--store-dir has a default");
    RunStore::open(dir).map_err(|e| e.to_string())
}

pub(crate) fn cmd_list(args: &Args) -> Result<i32, String> {
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
    Ok(EXIT_OK)
}

pub(crate) fn cmd_show(args: &Args) -> Result<i32, String> {
    let store = store_of(args)?;
    let prefix = args.positional0()?;
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
    Ok(EXIT_OK)
}

pub(crate) fn cmd_chart(args: &Args) -> Result<i32, String> {
    let store = store_of(args)?;
    let manifests = store.list().map_err(|e| e.to_string())?;
    if manifests.is_empty() {
        return Err(format!("store {} holds no runs", store.root().display()));
    }
    let indicator = args.text("indicator").expect("--indicator has a default");
    // charts print unless they only go to files
    let shown = args.given("ascii") || !args.given("out-dir");
    if indicator == "phases" {
        let chart = export::phase_chart_from_manifests(&manifests);
        if chart.categories.is_empty() {
            return Err("no stored run carries phase timings to plot".into());
        }
        let shown = shown.then(|| export::terminal_grouped(&chart));
        emit_chart(args, shown, "runs_phases", |stem| {
            export::export_grouped_chart(&chart, stem)
        })?;
        return Ok(EXIT_OK);
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
    let shown = shown.then(|| export::terminal_xy(&chart));
    let export = |stem: &std::path::Path| export::export_xy_chart(&chart, stem);
    emit_chart(args, shown, &format!("runs_{indicator}"), export)?;
    Ok(EXIT_OK)
}

pub(crate) fn cmd_gc(args: &Args) -> Result<i32, String> {
    let store = store_of(args)?;
    if args.given("all") {
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
    Ok(EXIT_OK)
}

pub(crate) fn cmd_resume(args: &Args) -> Result<i32, String> {
    let threads = threads_of(args);
    let store = store_of(args)?;
    let events = store.read_journal().map_err(|e| e.to_string())?;
    let open = resumable_sweeps(&events);
    let record = match &args.positional {
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
    let ctx = with_limits(args, load_context(&rebuilt).map_err(String::from)?);
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
    print_comparison(&out.result);
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
pub(crate) fn cmd_fsck(args: &Args) -> Result<i32, String> {
    let store = store_of(args)?;
    let repair = args.given("repair");
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
/// back into its configurations and the session they ran on: the
/// positional and the [`CONTEXT`] flags, parsed as the command line of a
/// worker, which rebuilds sessions the same way. Any other key of the
/// payload is not read; binaries before the flag declaration journaled
/// every flag, typos included, and ignored DATA, `--tx` and `--fanout`
/// beside a `--session`.
fn decode_invocation(invocation: &Value) -> Result<(Args, Vec<Configuration>), String> {
    let bad = |what: &str| format!("journal invocation payload is missing {what}");
    let text = |v: &Value| v.as_str().map(str::to_owned).ok_or_else(|| bad("a string"));
    let option = |name: &str| invocation.get("options")?.get(name);
    let session = option("session").is_some();
    let mut tokens = vec!["worker".to_owned()];
    let positional = invocation.get("positional").and_then(Value::as_arr);
    if let Some(data) = positional.and_then(|p| p.first()).filter(|_| !session) {
        tokens.push(text(data)?);
    }
    for flag in CONTEXT {
        if let Some(value) =
            option(flag.name).filter(|_| !session || !matches!(flag.name, "tx" | "fanout"))
        {
            tokens.extend([format!("--{}", flag.name), text(value)?]);
        }
    }
    let rebuilt = Args::parse(tokens).map_err(|e| format!("journal invocation payload: {e}"))?;
    let configs = Vec::<Configuration>::de(
        invocation
            .get("configurations")
            .ok_or_else(|| bad("\"configurations\""))?,
    )
    .map_err(|e| format!("journal invocation payload: {e}"))?;
    Ok((rebuilt, configs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::invocation_of;
    use secreta_core::{context_digest, MethodSpec, RelAlgo, Sweep, VaryingParam};
    use serde::Serialize;

    /// Sweeps journaled by the binary before the flag declaration, whose
    /// payload holds every flag of the invocation (method, output and
    /// execution flags, typos too), resume onto the same session; so do
    /// the payloads journaled now.
    #[test]
    fn journaled_invocations_rebuild_their_session() {
        let dir = std::env::temp_dir().join(format!("secreta-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dir.join("data.csv");
        let table = secreta_gen::DatasetSpec::adult_like(80, 3).generate();
        secreta_core::data::csv::write_table_path(&table, &data, &Default::default()).unwrap();
        let data = data.to_str().unwrap().to_owned();
        let sweep = Sweep {
            param: VaryingParam::K,
            start: 2,
            end: 4,
            step: 2,
        };
        let spec = MethodSpec::Relational {
            algo: RelAlgo::Cluster,
            k: 0,
        };
        let configs = vec![Configuration::new(spec, sweep, 1)];
        let text = |s: &str| Value::Str(s.to_owned());
        let options = [
            ("tx", "Items"),
            ("queries", "5"),
            ("seed", "7"),
            ("threads", "2"),
            ("mode", "rel"),
            ("out-dir", "charts"),
            ("ascii", "true"),
            ("treads", "1"),
        ];
        let parent = Value::Obj(vec![
            ("command".to_owned(), text("evaluate")),
            ("positional".to_owned(), Value::Arr(vec![text(&data)])),
            (
                "options".to_owned(),
                Value::Obj(options.map(|(k, v)| (k.to_owned(), text(v))).to_vec()),
            ),
            (
                "configurations".to_owned(),
                Value::Arr(configs.iter().map(Serialize::ser).collect()),
            ),
        ]);
        let line = [
            "evaluate",
            &data,
            "--tx",
            "Items",
            "--queries",
            "5",
            "--seed",
            "7",
        ];
        let original = Args::parse(line.iter().map(|t| t.to_string()))
            .ok()
            .unwrap();
        let digest = |args: &Args| context_digest(&load_context(args).ok().unwrap());
        let now = invocation_of("evaluate", &original, &configs);
        for payload in [parent, now] {
            let (rebuilt, decoded) = decode_invocation(&payload).ok().unwrap();
            assert_eq!(decoded, configs);
            assert_eq!(digest(&rebuilt), digest(&original));
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
