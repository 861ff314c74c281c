//! CLI smoke tests: every subcommand drives the real binary.

use std::path::PathBuf;
use std::process::Command;
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

/// `bench_all_gate_passes_self_and_fails_handicap` times the binary
/// against its own earlier run, so sibling tests' processes must not
/// load the machine while it measures: it holds this lock exclusively,
/// and every other test holds it shared.
static MACHINE: RwLock<()> = RwLock::new(());

fn shared_machine() -> RwLockReadGuard<'static, ()> {
    // a failed test poisons the lock; the others still run
    MACHINE.read().unwrap_or_else(|e| e.into_inner())
}

fn quiet_machine() -> RwLockWriteGuard<'static, ()> {
    MACHINE.write().unwrap_or_else(|e| e.into_inner())
}

fn secreta() -> Command {
    Command::new(env!("CARGO_BIN_EXE_secreta"))
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("secreta_cli_{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn generate_dataset(dir: &std::path::Path) -> PathBuf {
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

#[test]
fn help_lists_commands() {
    let _machine = shared_machine();
    let out = secreta().arg("help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for cmd in ["generate", "evaluate", "compare", "histogram", "policy"] {
        assert!(text.contains(cmd), "help must mention {cmd}");
    }
    // a verb's --help prints its declared flags before any check runs
    for (line, flag) in [
        (
            "evaluate --help",
            "--rel-algo incognito|cluster|topdown|bottomup",
        ),
        ("evaluate --K 7 --help", "--threads N"),
        ("runs resume --help", "--store-dir DIR"),
        ("bench --help", "--gate-pct N"),
    ] {
        let out = secreta().args(line.split(' ')).output().unwrap();
        assert_eq!(out.status.code(), Some(0), "{line}");
        assert!(
            String::from_utf8_lossy(&out.stdout).contains(flag),
            "{line}"
        );
    }
}

#[test]
fn unknown_command_fails_with_code() {
    let _machine = shared_machine();
    let out = secreta().arg("frobnicate").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

/// Run `line` in `dir`; it must be refused as malformed: exit 2,
/// nothing on stdout, and `expected` on stderr.
fn assert_refused(dir: &std::path::Path, line: &[&str], expected: &str) {
    let out = secreta().args(line).current_dir(dir).output().unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{line:?}: {err}");
    assert!(out.stdout.is_empty(), "{line:?} printed on stdout");
    assert!(err.contains(expected), "{line:?}: {err}");
}

/// Every verb, each `runs` subcommand and `bench` refuse an unknown
/// flag (suggesting the nearest declared one), another verb's flag, an
/// extra positional and an ill-typed value at parse: exit 2, nothing on
/// stdout, no file written. None of these lines starts any work.
#[test]
fn malformed_command_lines_exit_2() {
    let _machine = shared_machine();
    let dir = tmpdir("malformed");
    let cases: &[(&str, &str)] = &[
        // typos no longer run on defaults (this printed `Incognito (k=5)`)
        (
            "evaluate adult.csv --tx Items --mode rel --rel-algo incognito --K 7 --treads 1",
            "unknown flag --K for evaluate; did you mean --k?",
        ),
        // `--items` took `--fanout` as its value and built fan-out 4
        (
            "hierarchy adult.csv --attr Age --items --fanout 2",
            "unknown flag --items",
        ),
        ("frobnicate", "unknown command \"frobnicate\""),
        ("generate --out g.csv --rowz 5", "did you mean --rows?"),
        (
            "generate --out g.csv --tx Items",
            "unknown flag --tx for generate",
        ),
        (
            "generate --out g.csv extra.csv",
            "unexpected argument \"extra.csv\"",
        ),
        (
            "generate --out g.csv --rows many",
            "--rows expects an integer",
        ),
        ("generate --rows 5", "generate requires --out"),
        ("info d.csv --txx Items", "did you mean --tx?"),
        ("info d.csv --k 5", "unknown flag --k for info"),
        ("info d.csv e.csv", "unexpected argument \"e.csv\""),
        (
            "info d.csv --memory-budget 0",
            "--memory-budget expects a positive integer",
        ),
        ("histogram d.csv --attr A --topp 3", "did you mean --top?"),
        (
            "histogram d.csv --attr A --fanout 3",
            "unknown flag --fanout for histogram",
        ),
        ("histogram d.csv e.csv --attr A", "unexpected argument"),
        (
            "histogram d.csv --attr A --top x",
            "--top expects an integer",
        ),
        (
            "hierarchy d.csv --attr A --fanuot 3",
            "did you mean --fanout?",
        ),
        (
            "hierarchy d.csv --attr A --queries 3",
            "unknown flag --queries for hierarchy",
        ),
        ("hierarchy d.csv e.csv --attr A", "unexpected argument"),
        (
            "hierarchy d.csv --attr A --fanout -1",
            "--fanout expects an integer",
        ),
        (
            "workload d.csv --out w.txt --querys 3",
            "did you mean --queries?",
        ),
        (
            "workload d.csv --out w.txt --attr A",
            "unknown flag --attr for workload",
        ),
        ("workload d.csv e.csv --out w.txt", "unexpected argument"),
        (
            "workload d.csv --out w.txt --seed s",
            "--seed expects an integer",
        ),
        (
            "policy d.csv --out p.txt --privacy rare --sise 2",
            "did you mean --size?",
        ),
        (
            "policy d.csv --out p.txt --privacy rare --k 2",
            "unknown flag --k for policy",
        ),
        (
            "policy d.csv e.csv --out p.txt --privacy rare",
            "unexpected argument",
        ),
        (
            "policy d.csv --out p.txt --privacy some",
            "--privacy expects one of all|rare|random",
        ),
        (
            "policy d.csv --out p.txt",
            "exactly one of --privacy and --utility",
        ),
        (
            "evaluate d.csv --mode rel --threds 2",
            "did you mean --threads?",
        ),
        (
            "evaluate d.csv --mode rel --attr A",
            "unknown flag --attr for evaluate",
        ),
        ("evaluate d.csv e.csv --mode rel", "unexpected argument"),
        ("evaluate d.csv --k five", "--k expects an integer"),
        (
            "evaluate d.csv --mode foo",
            "--mode expects one of rel|tx|rt|rho",
        ),
        (
            "evaluate d.csv --mode rho",
            "--mode rho requires --sensitive",
        ),
        (
            "evaluate d.csv --vary k --lease-ttl-ms 0",
            "--lease-ttl-ms expects a positive",
        ),
        ("evaluate d.csv --k", "--k expects a value"),
        (
            "evaluate d.csv --vary k --workers 2",
            "--workers/--distributed requires --store-dir",
        ),
        (
            "compare d.csv --config c.json --store-dir s --distributed --no-cache",
            "--no-cache does not apply to distributed execution",
        ),
        ("profile d.csv --mode rel --kk 2", "did you mean --k?"),
        (
            "profile d.csv --mode rel --vary k",
            "unknown flag --vary for profile",
        ),
        ("profile d.csv e.csv --mode rel", "unexpected argument"),
        ("profile d.csv --rho high", "--rho expects a number"),
        (
            "compare d.csv --config c.json --querie 3",
            "did you mean --queries?",
        ),
        (
            "compare d.csv --config c.json --k 2",
            "unknown flag --k for compare",
        ),
        ("compare d.csv e.csv --config c.json", "unexpected argument"),
        (
            "compare d.csv --config c.json --threads 0",
            "--threads expects a positive",
        ),
        ("compare d.csv", "compare requires --config"),
        ("worker d.csv --swep abc", "did you mean --sweep?"),
        ("worker d.csv --mode rel", "unknown flag --mode for worker"),
        ("worker d.csv e.csv", "unexpected argument"),
        (
            "worker d.csv --wait-ms soon",
            "--wait-ms expects an integer",
        ),
        ("runs list --store-dri s", "did you mean --store-dir?"),
        ("runs list --repair", "unknown flag --repair for runs list"),
        ("runs list extra", "unexpected argument"),
        ("runs show abc --stor-dir s", "did you mean --store-dir?"),
        ("runs show abc --all", "unknown flag --all for runs show"),
        ("runs show abc def", "unexpected argument"),
        ("runs show", "runs show requires KEY"),
        ("runs chart --indicatr gcp", "did you mean --indicator?"),
        (
            "runs chart --repair",
            "unknown flag --repair for runs chart",
        ),
        ("runs chart extra", "unexpected argument"),
        ("runs chart --indicator size", "--indicator expects one of"),
        ("runs gc --alll", "did you mean --all?"),
        (
            "runs gc --indicator gcp",
            "unknown flag --indicator for runs gc",
        ),
        ("runs gc extra", "unexpected argument"),
        ("runs resume --thread 2", "did you mean --threads?"),
        (
            "runs resume --repair",
            "unknown flag --repair for runs resume",
        ),
        ("runs resume abc def", "unexpected argument"),
        ("runs resume --threads 0", "--threads expects a positive"),
        ("runs fsck --repiar", "did you mean --repair?"),
        ("runs fsck --all", "unknown flag --all for runs fsck"),
        ("runs fsck extra", "unexpected argument"),
        ("runs fsck --store-dir", "--store-dir expects a value"),
        ("runs frob", "unknown command \"runs frob\""),
        (
            "edit d.csv --out e.csv --scrip s.json",
            "did you mean --script?",
        ),
        (
            "edit d.csv --out e.csv --script s.json --attr A",
            "unknown flag --attr for edit",
        ),
        (
            "edit d.csv e.csv --out x.csv --script s.json",
            "unexpected argument",
        ),
        ("edit d.csv --script s.json", "edit requires --out"),
        ("session s.json --tx Items", "unknown flag --tx for session"),
        ("session s.json t.json", "unexpected argument"),
        ("session", "session requires SESSION.json"),
        ("bench --suite tx --rowz 50", "did you mean --rows?"),
        ("bench --suite tx --k 5", "unknown flag --k for bench"),
        ("bench extra", "unexpected argument"),
        ("bench --suite tx --rows 5,x", "--rows expects integers"),
        (
            "bench --suite nope",
            "--suite expects one of kernels|store|",
        ),
        ("bench --all --suite tx", "--all is --suite all"),
        ("help extra", "unexpected argument"),
        ("help --k 5", "unknown flag --k for help"),
    ];
    for (line, expected) in cases {
        let tokens: Vec<&str> = line.split(' ').collect();
        assert_refused(&dir, &tokens, expected);
    }
    let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(written.is_empty(), "refused lines wrote {written:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A flag the chosen mode would ignore is refused, not dropped: exit 2
/// before any work, no file written, even with a real dataset and
/// session file to run on.
#[test]
fn mode_conflicting_flags_are_refused() {
    let _machine = shared_machine();
    let dir = tmpdir("conflicts");
    let data = generate_dataset(&dir);
    let data = data.to_str().unwrap();
    std::fs::write(dir.join("s.json"), r#"{"dataset":"data.csv"}"#).unwrap();
    let single = [
        "evaluate", data, "--tx", "Items", "--mode", "rel", "--k", "4",
    ];
    let sweep = [&single[..], &["--vary", "k", "--start", "2", "--end", "4"]].concat();
    let session = ["--session", "s.json", "--mode", "rel"];
    let cases: Vec<(Vec<&str>, &str)> = vec![
        (
            [&sweep[..], &["--export-anon", "anon.csv"]].concat(),
            "--export-anon applies to single runs",
        ),
        (
            [&single[..], &["--out-dir", "charts"]].concat(),
            "--out-dir applies to sweeps",
        ),
        (
            [&single[..], &["--ascii"]].concat(),
            "--ascii applies to sweeps",
        ),
        (
            [&single[..], &["--step", "2"]].concat(),
            "--step applies to sweeps",
        ),
        (
            [&single[..], &["--workers", "2"]].concat(),
            "--workers applies to sweeps",
        ),
        (
            [&single[..], &["--distributed"]].concat(),
            "--distributed applies to sweeps",
        ),
        (
            [&["evaluate", "does-not-exist.csv"], &session[..]].concat(),
            "--session replaces DATA, --tx and --fanout; drop DATA",
        ),
        (
            [&["evaluate"], &session[..], &["--tx", "NoSuchColumn"]].concat(),
            "drop --tx",
        ),
        (
            [&["profile"], &session[..], &["--fanout", "9"]].concat(),
            "drop --fanout",
        ),
        (
            [&["compare", data, "--config", "c.json"], &session[..2]].concat(),
            "drop DATA",
        ),
        (
            vec!["evaluate", "--mode", "rel"],
            "evaluate requires DATA or --session FILE",
        ),
    ];
    for (line, expected) in &cases {
        assert_refused(&dir, line, expected);
    }
    let mut left: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    left.sort();
    assert_eq!(left, ["data.csv", "s.json"], "refused lines wrote files");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn generate_info_histogram() {
    let _machine = shared_machine();
    let dir = tmpdir("gih");
    let data = generate_dataset(&dir);

    let info = secreta()
        .arg("info")
        .arg(&data)
        .args(["--tx", "Items"])
        .output()
        .unwrap();
    assert!(info.status.success());
    let text = String::from_utf8_lossy(&info.stdout);
    assert!(text.contains("120 rows"));
    assert!(text.contains("item universe"));

    let hist = secreta()
        .arg("histogram")
        .arg(&data)
        .args(["--tx", "Items", "--attr", "Education", "--top", "5"])
        .output()
        .unwrap();
    assert!(hist.status.success());
    assert!(String::from_utf8_lossy(&hist.stdout).contains('█'));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hierarchy_workload_policy_files() {
    let _machine = shared_machine();
    let dir = tmpdir("hwp");
    let data = generate_dataset(&dir);

    let hpath = dir.join("age.hier");
    let h = secreta()
        .arg("hierarchy")
        .arg(&data)
        .args(["--tx", "Items", "--attr", "Age", "--fanout", "3", "--out"])
        .arg(&hpath)
        .output()
        .unwrap();
    assert!(h.status.success(), "{}", String::from_utf8_lossy(&h.stderr));
    // one line per leaf; the file only interns ages present among the
    // 120 sampled rows, so expect a healthy subset of the 74-value
    // domain rather than all of it
    let content = std::fs::read_to_string(&hpath).unwrap();
    assert!(content.lines().count() >= 30, "one line per leaf");

    let wpath = dir.join("queries.txt");
    let w = secreta()
        .arg("workload")
        .arg(&data)
        .args(["--tx", "Items", "--queries", "10", "--out"])
        .arg(&wpath)
        .output()
        .unwrap();
    assert!(w.status.success());
    assert_eq!(std::fs::read_to_string(&wpath).unwrap().lines().count(), 10);

    let ppath = dir.join("privacy.txt");
    let p = secreta()
        .arg("policy")
        .arg(&data)
        .args(["--tx", "Items", "--privacy", "rare", "--out"])
        .arg(&ppath)
        .output()
        .unwrap();
    assert!(p.status.success(), "{}", String::from_utf8_lossy(&p.stderr));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn evaluate_single_and_sweep() {
    let _machine = shared_machine();
    let dir = tmpdir("eval");
    let data = generate_dataset(&dir);

    let single = secreta()
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
            "4",
            "--queries",
            "10",
        ])
        .output()
        .unwrap();
    assert!(
        single.status.success(),
        "{}",
        String::from_utf8_lossy(&single.stderr)
    );
    let text = String::from_utf8_lossy(&single.stdout);
    assert!(text.contains("verified=true"));
    assert!(text.contains("phases:"));

    let outdir = dir.join("plots");
    let sweep = secreta()
        .arg("evaluate")
        .arg(&data)
        .args([
            "--tx",
            "Items",
            "--mode",
            "rel",
            "--rel-algo",
            "bottomup",
            "--vary",
            "k",
            "--start",
            "2",
            "--end",
            "6",
            "--step",
            "2",
            "--queries",
            "10",
            "--ascii",
            "--out-dir",
        ])
        .arg(&outdir)
        .output()
        .unwrap();
    assert!(
        sweep.status.success(),
        "{}",
        String::from_utf8_lossy(&sweep.stderr)
    );
    assert!(outdir.join("evaluate_are.svg").exists());
    assert!(outdir.join("evaluate_gcp.csv").exists());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compare_from_config_file() {
    let _machine = shared_machine();
    let dir = tmpdir("cmp");
    let data = generate_dataset(&dir);
    let config = dir.join("configs.json");
    std::fs::write(
        &config,
        r#"[
          {"label":"cluster","spec":{"Relational":{"algo":"Cluster","k":0}},
           "sweep":{"param":"K","start":2,"end":6,"step":2},"seed":1},
          {"label":"incognito","spec":{"Relational":{"algo":"Incognito","k":0}},
           "sweep":{"param":"K","start":2,"end":6,"step":2},"seed":1}
        ]"#,
    )
    .unwrap();
    let out = secreta()
        .arg("compare")
        .arg(&data)
        .args(["--tx", "Items", "--queries", "10", "--config"])
        .arg(&config)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("== cluster"));
    assert!(text.contains("== incognito"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn export_anonymized_dataset() {
    let _machine = shared_machine();
    let dir = tmpdir("exp");
    let data = generate_dataset(&dir);
    let anon = dir.join("anon.csv");
    let out = secreta()
        .arg("evaluate")
        .arg(&data)
        .args([
            "--tx",
            "Items",
            "--mode",
            "rt",
            "--rel-algo",
            "cluster",
            "--tx-algo",
            "apriori",
            "--bounding",
            "tmerge",
            "--k",
            "4",
            "--m",
            "1",
            "--delta",
            "2",
            "--export-anon",
        ])
        .arg(&anon)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&anon).unwrap();
    assert_eq!(text.lines().count(), 121, "header + 120 rows");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rho_uncertainty_mode() {
    let _machine = shared_machine();
    let dir = tmpdir("rho");
    let data = generate_dataset(&dir);
    // find a real item label to protect
    let info = secreta()
        .arg("histogram")
        .arg(&data)
        .args(["--tx", "Items", "--attr", "Items", "--top", "1"])
        .output()
        .unwrap();
    assert!(info.status.success());
    let text = String::from_utf8_lossy(&info.stdout);
    let item = text
        .lines()
        .nth(1)
        .and_then(|l| l.split_whitespace().next())
        .expect("top item printed")
        .to_owned();
    let out = secreta()
        .arg("evaluate")
        .arg(&data)
        .args([
            "--tx",
            "Items",
            "--mode",
            "rho",
            "--rho",
            "0.2",
            "--sensitive",
            &item,
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("verified=true"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn edit_script_applies_and_exports() {
    let _machine = shared_machine();
    let dir = tmpdir("edit");
    let data = generate_dataset(&dir);
    let script = dir.join("edits.json");
    std::fs::write(
        &script,
        r#"[
          {"RenameAttribute":{"attr":0,"name":"Years"}},
          {"SetValue":{"row":0,"attr":0,"value":"99"}},
          {"DeleteRow":{"row":1}}
        ]"#,
    )
    .unwrap();
    let out_path = dir.join("edited.csv");
    let out = secreta()
        .arg("edit")
        .arg(&data)
        .args(["--tx", "Items", "--script"])
        .arg(&script)
        .arg("--out")
        .arg(&out_path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&out_path).unwrap();
    assert!(text.starts_with("Years,"));
    assert_eq!(text.lines().count(), 120, "header + 119 rows after delete");
    assert!(text.lines().nth(1).unwrap().starts_with("99,"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn profile_table_and_trace_agree() {
    let _machine = shared_machine();
    let dir = tmpdir("prof");
    let data = generate_dataset(&dir);
    let trace = dir.join("trace.ndjson");
    let out = secreta()
        .arg("profile")
        .arg(&data)
        .args([
            "--tx",
            "Items",
            "--mode",
            "rel",
            "--rel-algo",
            "cluster",
            "--k",
            "4",
            "--queries",
            "10",
            "--trace-out",
        ])
        .arg(&trace)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("profile:"));
    assert!(text.contains("clustering"), "span rows printed");
    assert!(text.contains("cluster/ncp_evals"), "counter rows printed");

    // the NDJSON trace must be internally consistent: the run record's
    // total equals the sum of the root span durations, and its span /
    // counter tallies match the record counts
    let ndjson = std::fs::read_to_string(&trace).unwrap();
    let mut root_span_us: u64 = 0;
    let mut root_spans = 0u64;
    let mut spans = 0u64;
    let mut counters = 0u64;
    let mut run_total: Option<(u64, u64, u64)> = None;
    let field = |line: &str, key: &str| -> Option<u64> {
        let pat = format!("\"{key}\":");
        let rest = &line[line.find(&pat)? + pat.len()..];
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        digits.parse().ok()
    };
    for line in ndjson.lines() {
        if line.contains("\"ev\":\"span\"") {
            spans += 1;
            if !line.contains('/') {
                root_spans += 1;
                root_span_us += field(line, "dur_us").expect("span has dur_us");
            }
        } else if line.contains("\"ev\":\"counter\"") {
            counters += 1;
        } else if line.contains("\"ev\":\"run\"") {
            run_total = Some((
                field(line, "total_us").expect("run has total_us"),
                field(line, "spans").expect("run has spans"),
                field(line, "counters").expect("run has counters"),
            ));
        }
    }
    let (total_us, n_spans, n_counters) = run_total.expect("trace ends with a run record");
    // per-span dur_us truncates each duration to whole microseconds
    // while total_us truncates their exact sum, so the totals may
    // differ by up to one microsecond per root span
    assert!(
        total_us >= root_span_us && total_us - root_span_us < root_spans.max(1),
        "run total {total_us}µs vs root span sum {root_span_us}µs over {root_spans} spans"
    );
    assert_eq!(n_spans, spans, "span record count");
    assert_eq!(n_counters, counters, "counter record count");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stored_profile_survives_runs_show_and_phase_chart() {
    let _machine = shared_machine();
    let dir = tmpdir("sprof");
    let data = generate_dataset(&dir);
    let store = dir.join("store");
    let trace = dir.join("trace.ndjson");
    let eval = secreta()
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
            "4",
            "--queries",
            "10",
            "--store-dir",
        ])
        .arg(&store)
        .arg("--trace-out")
        .arg(&trace)
        .output()
        .unwrap();
    assert!(
        eval.status.success(),
        "{}",
        String::from_utf8_lossy(&eval.stderr)
    );

    let list = secreta()
        .args(["runs", "list", "--store-dir"])
        .arg(&store)
        .output()
        .unwrap();
    assert!(list.status.success());
    let key = String::from_utf8_lossy(&list.stdout)
        .lines()
        .nth(1)
        .and_then(|l| l.split_whitespace().next())
        .expect("one stored run")
        .to_owned();

    let show = secreta()
        .args(["runs", "show", &key, "--store-dir"])
        .arg(&store)
        .output()
        .unwrap();
    assert!(
        show.status.success(),
        "{}",
        String::from_utf8_lossy(&show.stderr)
    );
    let text = String::from_utf8_lossy(&show.stdout);
    assert!(text.contains("profile:"), "show prints the stored profile");
    assert!(text.contains("cluster/ncp_evals"), "counters persisted");

    let chart = secreta()
        .args([
            "runs",
            "chart",
            "--indicator",
            "phases",
            "--ascii",
            "--store-dir",
        ])
        .arg(&store)
        .output()
        .unwrap();
    assert!(
        chart.status.success(),
        "{}",
        String::from_utf8_lossy(&chart.stderr)
    );
    let text = String::from_utf8_lossy(&chart.stdout);
    assert!(text.contains("Runtime phases"));
    assert!(text.contains("clustering"));
    std::fs::remove_dir_all(&dir).ok();
}

/// `runs show` on a damaged entry says what happened: a payload that
/// fails its checksum is quarantined and the error says so and points
/// to `runs fsck`; a payload that passes its checksum but does not
/// decode is named as corrupt.
#[test]
fn runs_show_reports_damaged_entries() {
    use secreta_core::store::{sha256_hex, RunManifest};
    let _machine = shared_machine();
    let dir = tmpdir("showdamaged");
    let data = generate_dataset(&dir);
    let store = dir.join("store");
    let store_one_run = || {
        let eval = secreta()
            .arg("evaluate")
            .arg(&data)
            .args(["--mode", "rel", "--rel-algo", "cluster", "--k", "4"])
            .arg("--store-dir")
            .arg(&store)
            .output()
            .unwrap();
        assert!(
            eval.status.success(),
            "{}",
            String::from_utf8_lossy(&eval.stderr)
        );
        let manifest = manifests_in(&store).pop().expect("one stored run");
        let run_dir = manifest.parent().unwrap().to_path_buf();
        let key = run_dir.file_name().unwrap().to_str().unwrap().to_owned();
        (run_dir, key)
    };
    let show = |key: &str| {
        secreta()
            .args(["runs", "show", key, "--store-dir"])
            .arg(&store)
            .output()
            .unwrap()
    };

    // one flipped payload byte fails the checksum
    let (run_dir, key) = store_one_run();
    let anon = run_dir.join("anon.json");
    let mut bytes = std::fs::read(&anon).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&anon, bytes).unwrap();
    let out = show(&key);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("failed verification"), "{err}");
    assert!(err.contains("quarantine"), "{err}");
    assert!(err.contains("secreta runs fsck"), "{err}");
    let quarantined = std::fs::read_dir(store.join("quarantine")).unwrap().count();
    assert_eq!(quarantined, 1);

    // a payload that is not JSON, with the manifest's checksum made to
    // match: the checksum passes, the table decode names the damage
    let (run_dir, key) = store_one_run();
    let garbage = b"not json at all";
    let manifest_path = run_dir.join("manifest.json");
    let text = std::fs::read_to_string(&manifest_path).unwrap();
    let mut manifest: RunManifest = serde_json::from_str(&text).unwrap();
    manifest.anon_sha256 = Some(sha256_hex(garbage));
    let text = serde_json::to_string_pretty(&manifest).unwrap();
    std::fs::write(&manifest_path, text).unwrap();
    std::fs::write(run_dir.join("anon.json"), garbage).unwrap();
    let out = show(&key);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains(&key), "the manifest still prints: {stdout}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("does not decode"), "{err}");
    assert!(err.contains("corrupt store entry"), "{err}");
    assert!(err.contains("anon.json"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Every manifest file under the store's `runs/` tree.
fn manifests_in(store: &std::path::Path) -> Vec<PathBuf> {
    let mut found = Vec::new();
    let mut stack = vec![store.join("runs")];
    while let Some(dir) = stack.pop() {
        let Ok(rd) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in rd.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.file_name().and_then(|n| n.to_str()) == Some("manifest.json") {
                found.push(path);
            }
        }
    }
    found.sort();
    found
}

/// The full failure lifecycle through the binary: an injected panic
/// degrades a sweep (exit 3) without aborting it, the failure is
/// journaled and listed, fsck finds and quarantines a corrupt entry,
/// and a fault-free `runs resume` re-executes only the damaged points
/// and converges to a clean store (exit 0).
#[test]
fn chaos_degraded_sweep_fsck_and_resume() {
    let _machine = shared_machine();
    let dir = tmpdir("chaos");
    let data = generate_dataset(&dir);
    let store = dir.join("store");
    let sweep_args = [
        "--tx",
        "Items",
        "--mode",
        "rel",
        "--rel-algo",
        "cluster",
        "--vary",
        "k",
        "--start",
        "2",
        "--end",
        "6",
        "--step",
        "2",
        "--queries",
        "10",
        "--threads",
        "2",
        "--store-dir",
    ];

    // one injected panic in the Cluster family: the sweep must finish
    // degraded, not die
    let degraded = secreta()
        .arg("evaluate")
        .arg(&data)
        .args(sweep_args)
        .arg(&store)
        .env("SECRETA_FAULTS", "seed=1;panic@run:Cluster*=1x1")
        .output()
        .unwrap();
    assert_eq!(
        degraded.status.code(),
        Some(3),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&degraded.stdout),
        String::from_utf8_lossy(&degraded.stderr)
    );
    let text = String::from_utf8_lossy(&degraded.stdout);
    assert!(text.contains("1 failures"), "cache stats count the panic");
    assert!(text.contains("completed degraded"), "degraded is announced");
    assert!(
        text.contains("injected fault:"),
        "the error names its cause"
    );

    // the journal keeps the failure on record
    let list = secreta()
        .args(["runs", "list", "--store-dir"])
        .arg(&store)
        .output()
        .unwrap();
    assert_eq!(list.status.code(), Some(0));
    let text = String::from_utf8_lossy(&list.stdout);
    assert!(text.contains("open or degraded sweeps"));
    assert!(text.contains("failed:"), "failed jobs listed: {text}");

    // corrupt one stored manifest on disk
    let victims = manifests_in(&store);
    assert!(!victims.is_empty(), "the degraded sweep stored something");
    std::fs::write(&victims[0], "not json {").unwrap();

    // fsck reports it (exit 3) without touching the store...
    let fsck = secreta()
        .args(["runs", "fsck", "--store-dir"])
        .arg(&store)
        .output()
        .unwrap();
    assert_eq!(fsck.status.code(), Some(3));
    assert!(String::from_utf8_lossy(&fsck.stdout).contains("corrupt"));

    // ...and --repair quarantines it (exit 0)
    let repair = secreta()
        .args(["runs", "fsck", "--repair", "--store-dir"])
        .arg(&store)
        .output()
        .unwrap();
    assert_eq!(
        repair.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&repair.stdout)
    );
    assert!(
        store.join("quarantine").is_dir(),
        "corrupt entry moved aside, not destroyed"
    );

    // a fault-free resume re-executes only the failed and quarantined
    // points and leaves the sweep clean
    let resume = secreta()
        .args(["runs", "resume", "--store-dir"])
        .arg(&store)
        .output()
        .unwrap();
    assert_eq!(
        resume.status.code(),
        Some(0),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&resume.stdout),
        String::from_utf8_lossy(&resume.stderr)
    );
    let text = String::from_utf8_lossy(&resume.stdout);
    assert!(
        text.contains("2 executed, 0 failed"),
        "resume output: {text}"
    );

    // the same sweep now replays entirely from the store, exit 0
    let warm = secreta()
        .arg("evaluate")
        .arg(&data)
        .args(sweep_args)
        .arg(&store)
        .output()
        .unwrap();
    assert_eq!(warm.status.code(), Some(0));
    assert!(
        String::from_utf8_lossy(&warm.stdout).contains("cache: 3 hits, 0 misses"),
        "{}",
        String::from_utf8_lossy(&warm.stdout)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn exit_codes_follow_failure_severity() {
    let _machine = shared_machine();
    let dir = tmpdir("codes");
    let data = generate_dataset(&dir);

    // usage errors exit 2
    let usage = secreta().args(["evaluate", "--k"]).output().unwrap();
    assert_eq!(usage.status.code(), Some(2));
    let bad_plan = secreta()
        .arg("help")
        .env("SECRETA_FAULTS", "nonsense")
        .output()
        .unwrap();
    assert_eq!(bad_plan.status.code(), Some(2));

    // a failing single run (no sweep to degrade) stays fatal: exit 1
    let fatal = secreta()
        .arg("evaluate")
        .arg(&data)
        .args([
            "--tx",
            "Items",
            "--mode",
            "rel",
            "--rel-algo",
            "incognito",
            "--k",
            "1000000",
        ])
        .output()
        .unwrap();
    assert_eq!(fatal.status.code(), Some(1));

    // a timed-out job in a sweep degrades instead: exit 3
    let timeout = secreta()
        .arg("evaluate")
        .arg(&data)
        .args([
            "--tx",
            "Items",
            "--mode",
            "rel",
            "--rel-algo",
            "cluster",
            "--vary",
            "k",
            "--start",
            "2",
            "--end",
            "4",
            "--step",
            "2",
            "--job-timeout-ms",
            "0",
        ])
        .output()
        .unwrap();
    assert_eq!(
        timeout.status.code(),
        Some(3),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&timeout.stdout),
        String::from_utf8_lossy(&timeout.stderr)
    );
    assert!(
        String::from_utf8_lossy(&timeout.stdout).contains("deadline"),
        "timeout errors name the deadline"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `--threads` is the thread budget of the whole process: every verb
/// that takes it refuses 0 before any work starts, instead of quietly
/// running on one thread.
#[test]
fn zero_threads_is_refused() {
    let _machine = shared_machine();
    let dir = tmpdir("threads0");
    let data = generate_dataset(&dir);
    let config = dir.join("configs.json");
    std::fs::write(
        &config,
        r#"[{"label":"cluster","spec":{"Relational":{"algo":"Cluster","k":0}},
            "sweep":{"param":"K","start":2,"end":4,"step":2},"seed":1}]"#,
    )
    .unwrap();
    let single = ["--tx", "Items", "--mode", "rel", "--rel-algo", "incognito"];
    let mut evaluate = secreta();
    evaluate.arg("evaluate").arg(&data).args(single);
    let mut profile = secreta();
    profile.arg("profile").arg(&data).args(single);
    let mut compare = secreta();
    compare
        .arg("compare")
        .arg(&data)
        .args(["--tx", "Items", "--config"])
        .arg(&config);
    let mut resume = secreta();
    resume
        .args(["runs", "resume", "--store-dir"])
        .arg(dir.join("store"));
    let mut bench = secreta();
    bench.args(["bench", "--suite", "tx", "--rows", "50"]);
    for mut cmd in [evaluate, profile, compare, resume, bench] {
        let out = cmd.args(["--threads", "0"]).output().unwrap();
        let verb = format!("{:?}", cmd.get_args().next().unwrap());
        assert_eq!(out.status.code(), Some(2), "{verb}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("--threads expects a positive integer"),
            "{verb}: {err}"
        );
        assert!(out.stdout.is_empty(), "{verb} started work");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The `secreta bench` suites, every entry of its suite table.
const BENCH_SUITES: &[&str] = &[
    "kernels", "store", "obsv", "tx", "tiered", "risk", "scale", "rel", "dist", "all",
];

/// Benchmarks measure the real code paths, so an active fault plan
/// must make every suite refuse outright instead of timing corrupted
/// runs.
#[test]
fn bench_refuses_active_fault_plan() {
    let _machine = shared_machine();
    for suite in BENCH_SUITES {
        let out = secreta()
            .args(["bench", "--suite", suite, "--rows", "50"])
            .env("SECRETA_FAULTS", "seed=1")
            .current_dir(std::env::temp_dir())
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "suite {suite}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("SECRETA_FAULTS") && err.contains("refusing"),
            "error must name the cause: {err}"
        );
    }
}

/// Every suite at tiny sizes: each exits 0 and writes a report that
/// parses as a `BenchReport` whose identity checks all hold, and
/// `scale` under a tight budget records its over-budget point instead
/// of failing.
#[test]
fn bench_every_suite_outputs_identical() {
    let _machine = shared_machine();
    let dir = tmpdir("bsuites");
    for &suite in BENCH_SUITES {
        let out_path = dir.join(format!("{suite}.json"));
        let mut cmd = secreta();
        cmd.args(["bench", "--suite", suite, "--reps", "1", "--out"])
            .arg(&out_path);
        match suite {
            "scale" => cmd.args(["--rows", "1000,100000", "--memory-budget", "1"]),
            _ => cmd.args(["--rows", "150"]),
        };
        let out = cmd.output().unwrap();
        assert!(
            out.status.success(),
            "{suite}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let report: secreta_bench::report::BenchReport =
            serde_json::from_str(&std::fs::read_to_string(&out_path).unwrap()).unwrap();
        assert_eq!(report.suite, suite);
        assert!(!report.cases.is_empty(), "{suite}");
        // every suite but scale and the single-variant gate compares
        // its variants' outputs
        let checked = !matches!(suite, "scale" | "all");
        for case in &report.cases {
            assert_eq!(
                case.outputs_identical,
                checked.then_some(true),
                "{suite}: {}",
                case.id
            );
        }
        if suite == "scale" {
            let exceeded: Vec<f64> = report
                .cases
                .iter()
                .map(|c| c.variants[0].extras["budget_exceeded"])
                .collect();
            assert_eq!(exceeded, [0.0, 1.0]);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `bench` refuses every flag it does not declare: a typo or a retired
/// flag (`--k`, `--json`) must not run on defaults.
#[test]
fn bench_refuses_unknown_flags() {
    let _machine = shared_machine();
    for flag in ["--k", "--json"] {
        let out = secreta()
            .args(["bench", "--suite", "tx", "--rows", "50", flag, "5"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("unknown flag {flag} for bench")),
            "{err}"
        );
    }
}

/// `bench --all` end to end: the report is schema-versioned JSON, a
/// self-comparison passes the gate, and a synthetic slowdown
/// (`SECRETA_BENCH_HANDICAP`) trips it. Generous `--gate-pct`
/// margins keep scheduler noise at tiny row counts from flaking the
/// pass leg; the 4x handicap (+300%) clears the same margin with
/// room to spare.
#[test]
fn bench_all_gate_passes_self_and_fails_handicap() {
    let _quiet = quiet_machine();
    let dir = tmpdir("ballgate");
    let base = dir.join("base.json");
    let run = |extra_env: Option<(&str, &str)>, baseline: bool, out_name: &str| {
        let mut cmd = secreta();
        cmd.args([
            "bench",
            "--all",
            "--rows",
            "200",
            "--reps",
            "2",
            "--threads",
            "2",
            "--out",
        ])
        .arg(dir.join(out_name));
        if baseline {
            cmd.args(["--baseline"])
                .arg(&base)
                .args(["--gate-pct", "100"]);
        }
        if let Some((k, v)) = extra_env {
            cmd.env(k, v);
        }
        cmd.output().unwrap()
    };

    let first = run(None, false, "base.json");
    assert!(
        first.status.success(),
        "{}",
        String::from_utf8_lossy(&first.stderr)
    );
    let report = std::fs::read_to_string(&base).unwrap();
    for key in [
        "schema_version",
        "calibration_ms",
        "machine",
        "tx/coat",
        "metrics/gcp",
    ] {
        assert!(report.contains(key), "report must carry {key}: {report}");
    }

    let selfcmp = run(None, true, "self.json");
    assert!(
        selfcmp.status.success(),
        "self-comparison must pass the gate: {}\n{}",
        String::from_utf8_lossy(&selfcmp.stdout),
        String::from_utf8_lossy(&selfcmp.stderr)
    );
    assert!(
        String::from_utf8_lossy(&selfcmp.stdout).contains("gate passed"),
        "{}",
        String::from_utf8_lossy(&selfcmp.stdout)
    );

    let handicapped = run(Some(("SECRETA_BENCH_HANDICAP", "4")), true, "slow.json");
    assert_eq!(
        handicapped.status.code(),
        Some(1),
        "a 4x slowdown must fail the gate: {}",
        String::from_utf8_lossy(&handicapped.stdout)
    );
    let err = String::from_utf8_lossy(&handicapped.stderr);
    assert!(
        err.contains("perf regression") && err.contains("update_bench_baseline"),
        "the failure names the remedy: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn session_file_drives_evaluate() {
    let _machine = shared_machine();
    let dir = tmpdir("sess");
    generate_dataset(&dir);
    let session = dir.join("session.json");
    std::fs::write(
        &session,
        r#"{"dataset":"data.csv","transaction_column":"Items","fanout":3}"#,
    )
    .unwrap();

    let show = secreta().arg("session").arg(&session).output().unwrap();
    assert!(
        show.status.success(),
        "{}",
        String::from_utf8_lossy(&show.stderr)
    );
    assert!(String::from_utf8_lossy(&show.stdout).contains("120 rows"));

    let eval = secreta()
        .arg("evaluate")
        .args(["--session"])
        .arg(&session)
        .args([
            "--mode",
            "rel",
            "--rel-algo",
            "cluster",
            "--k",
            "4",
            "--queries",
            "10",
        ])
        .output()
        .unwrap();
    assert!(
        eval.status.success(),
        "{}",
        String::from_utf8_lossy(&eval.stderr)
    );
    assert!(String::from_utf8_lossy(&eval.stdout).contains("verified=true"));
    std::fs::remove_dir_all(&dir).ok();
}
