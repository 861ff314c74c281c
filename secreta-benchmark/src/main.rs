//! `secreta-benchmark`: the end-to-end benchmark of the `secreta` CLI.
//!
//! Four workloads each run one `secreta compare` sweep, as a user
//! would: the benchmark is a closed loop that starts the next
//! invocation only when the previous one has exited. Every invocation
//! is checked, and wall time, CPU time and peak RSS are taken from the
//! child process; times are scaled to a reference host speed by a
//! kernel timed around each measurement (see `calib`). A separate
//! traced pass runs the same jobs in-process
//! with a span around each layer call, for the per-layer metrics.
//!
//! ```text
//! secreta-benchmark --workload W --seed S --seconds T --trace 0|1
//! secreta-benchmark run --seed S [--reps N] [--smoke] [--report FILE]
//! secreta-benchmark trace --seed S [--trace-out FILE.ndjson] [--smoke]
//! secreta-benchmark repeat --seed S [--reps N] [--smoke]
//! ```
//!
//! The first form measures one workload for T seconds and prints one
//! JSON object as its last line. Run from the repository root; build
//! and run with `secreta-benchmark/run.sh`.

mod calib;
mod cli;
mod measure;
mod stats;
mod trace;
mod workload;

use measure::{Env, Plan, Traced, E2E_METRICS};
use serde::Value;
use stats::Summary;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use workload::{Workload, NAMES};

/// Bounds and metric names, as the benchmark's definition fixes them.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Variables that change what or how fast the CLI computes: fault
/// injection, handicaps and kernel thresholds.
const REFUSED_ENV: [&str; 5] = [
    "SECRETA_FAULTS",
    "SECRETA_BENCH_HANDICAP",
    "SECRETA_CHUNK_ROWS",
    "SECRETA_BITMAP_THRESHOLD",
    "SECRETA_THREADS",
];

/// Working space for datasets and stores, relative to the repository
/// root the benchmark runs from.
const WORK_DIR: &str = ".bench_work";

/// Measured reps of `run` and `repeat` unless `--reps` or `--smoke`
/// (one rep) says otherwise.
const DEFAULT_REPS: usize = 30;

/// Fewest measured reps (or traced passes) of a timed single-workload run.
const MIN_REPS: usize = 3;

const USAGE: &str = "\
usage: secreta-benchmark --workload W --seed S --seconds T --trace 0|1
       secreta-benchmark run --seed S [--reps N] [--smoke] [--report FILE]
       secreta-benchmark trace --seed S [--trace-out FILE.ndjson] [--smoke]
       secreta-benchmark repeat --seed S [--reps N] [--smoke]
workloads: rel-compare rel-are tx-compare replay";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    };
    std::process::exit(code);
}

/// Parsed `--name value` options (`--smoke` takes no value).
struct Opts(BTreeMap<String, String>);

impl Opts {
    fn parse(args: &[String], allowed: &[&str]) -> Result<Opts, String> {
        let mut map = BTreeMap::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let name = arg
                .strip_prefix("--")
                .filter(|n| allowed.contains(n))
                .ok_or_else(|| format!("unexpected argument {arg:?}\n{USAGE}"))?;
            let value = if name == "smoke" {
                String::new()
            } else {
                it.next()
                    .ok_or_else(|| format!("--{name} needs a value"))?
                    .clone()
            };
            map.insert(name.to_owned(), value);
        }
        Ok(Opts(map))
    }

    fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.0
            .get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name}: cannot parse {v:?}"))
            })
            .transpose()
    }

    fn req<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.get(name)?
            .ok_or_else(|| format!("--{name} is required\n{USAGE}"))
    }

    fn smoke(&self) -> bool {
        self.0.contains_key("smoke")
    }

    fn reps(&self) -> Result<usize, String> {
        let default = if self.smoke() { 1 } else { DEFAULT_REPS };
        Ok(self.get("reps")?.unwrap_or(default))
    }
}

fn dispatch(args: &[String]) -> Result<i32, String> {
    if args.first().map(String::as_str) == Some(cli::SPAWNER) {
        return Ok(cli::spawner(&args[1..]));
    }
    if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        return Err(format!("refusing to benchmark with {var} set"));
    }
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "trace" | "repeat")) => (c, &args[1..]),
        Some("help" | "--help" | "-h") => {
            println!("{USAGE}");
            return Ok(0);
        }
        _ => ("", args),
    };
    match command {
        "run" => {
            let o = Opts::parse(rest, &["seed", "reps", "smoke", "report"])?;
            let report = o.get::<PathBuf>("report")?;
            cmd_run(o.req("seed")?, o.reps()?, o.smoke(), report)
        }
        "trace" => {
            let o = Opts::parse(rest, &["seed", "trace-out", "smoke"])?;
            cmd_trace(o.req("seed")?, o.smoke(), o.get::<PathBuf>("trace-out")?)
        }
        "repeat" => {
            let o = Opts::parse(rest, &["seed", "reps", "smoke"])?;
            cmd_repeat(o.req("seed")?, o.reps()?, o.smoke())
        }
        _ => {
            let o = Opts::parse(rest, &["workload", "seed", "seconds", "trace"])?;
            let plan = Plan {
                reps: MIN_REPS,
                seconds: o.req("seconds")?,
            };
            let traced = match o.req::<String>("trace")?.as_str() {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
            };
            cmd_single(&o.req::<String>("workload")?, o.req("seed")?, plan, traced)
        }
    }
}

fn env(smoke: bool) -> Result<Env, String> {
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    Ok(Env {
        exe: secreta_exe()?,
        threads: nproc(),
        work_root: cwd.join(WORK_DIR),
        smoke,
    })
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The `secreta` binary next to this executable (or, for the unit
/// tests, next to the `deps` directory they run from).
fn secreta_exe() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut dir = me.parent().unwrap_or(Path::new("."));
    if dir.file_name().is_some_and(|n| n == "deps") {
        dir = dir.parent().unwrap_or(dir);
    }
    let exe = dir.join("secreta");
    if exe.is_file() {
        Ok(exe)
    } else {
        Err(format!(
            "{} not found: build the CLI into the same target directory \
             (secreta-benchmark/run.sh does)",
            exe.display()
        ))
    }
}

fn workload(name: &str, seed: u64, smoke: bool) -> Result<Workload, String> {
    Workload::new(name, seed, smoke)
        .ok_or_else(|| format!("unknown workload {name:?}; one of {}", NAMES.join(" ")))
}

/// One workload measured for `plan.seconds`, the
/// result as one JSON line.
fn cmd_single(name: &str, seed: u64, plan: Plan, traced: bool) -> Result<i32, String> {
    let env = env(false)?;
    let w = workload(name, seed, false)?;
    let (errors, attempted, failed, metrics) = if traced {
        let t = measure::trace(&w, &env, plan)?;
        print_layers(name, &t);
        let metrics = trace::layer_metric_names()
            .into_iter()
            .map(|(m, unit)| (m, t.median(m), unit))
            .collect::<Vec<_>>();
        (t.errors, t.jobs_attempted, t.jobs_failed, metrics)
    } else {
        let e = measure::measure(&w, &env, plan)?;
        print_e2e(name, &e);
        let metrics = E2E_METRICS
            .iter()
            .map(|&(m, unit)| (m, e.summary(m).map_or(f64::NAN, |s| s.median), unit))
            .collect::<Vec<_>>();
        (e.errors, e.jobs_attempted, e.jobs_failed, metrics)
    };
    for err in &errors {
        eprintln!("check failed: {err}");
    }
    let metrics = metrics
        .into_iter()
        .map(|(m, value, unit)| {
            let v = Value::Obj(vec![
                ("value".into(), Value::F64(value)),
                ("unit".into(), Value::Str(unit.into())),
            ]);
            (m.to_owned(), v)
        })
        .collect();
    let result = Value::Obj(vec![
        ("correct".into(), Value::Bool(errors.is_empty())),
        ("attempted".into(), Value::U64(attempted)),
        ("failed".into(), Value::U64(failed)),
        ("metrics".into(), Value::Obj(metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).map_err(|e| e.to_string())?
    );
    Ok(if errors.is_empty() { 0 } else { 1 })
}

fn print_e2e(name: &str, e: &measure::E2e) {
    println!("== {name}");
    for (metric, unit) in E2E_METRICS {
        if let Some(s) = e.summary(metric) {
            println!(
                "  {metric:<12} {:>10.4} {unit:<4} q1 {:.4}  q3 {:.4}  n={}",
                s.median, s.q1, s.q3, s.n
            );
        }
    }
    println!(
        "  jobs_attempted {}  jobs_failed {}  fail_frac {}",
        e.jobs_attempted,
        e.jobs_failed,
        e.fail_frac()
    );
    println!("  indicator digest {}", e.digest.as_deref().unwrap_or("-"));
    if let Some(f) = Summary::of(&e.factors) {
        println!(
            "  times scaled to the reference host by {:.4} (q1 {:.4}  q3 {:.4})",
            f.median, f.q1, f.q3
        );
    }
}

/// Each layer's self time and share of the workload span, from the
/// first traced pass, then the per-layer metrics (medians over passes).
fn print_layers(name: &str, t: &Traced) {
    println!("== {name} (traced, {} passes)", t.passes.len());
    if let Some(first) = t.passes.first() {
        let root = first.tracer.total("workload").as_secs_f64();
        println!("  {:<18} {:>10} {:>7}", "span", "self ms", "share");
        for (span, d) in first.tracer.self_times() {
            let s = d.as_secs_f64();
            println!("  {span:<18} {:>10.2} {:>6.1}%", s * 1e3, 100.0 * s / root);
        }
    }
    for (metric, unit) in trace::layer_metric_names() {
        println!("  {metric:<40} {:>14.4} {unit}", t.median(metric));
    }
}

/// `run`: every workload end to end with `reps` measured reps, plus a
/// traced pass for the cross-check; writes a JSON report.
fn cmd_run(seed: u64, reps: usize, smoke: bool, report: Option<PathBuf>) -> Result<i32, String> {
    let env = env(smoke)?;
    let mut entries = Vec::new();
    let mut ok = true;
    for name in NAMES {
        let w = workload(name, seed, smoke)?;
        let e = measure::measure(&w, &env, Plan::reps(reps))?;
        print_e2e(name, &e);
        let t = measure::trace(&w, &env, Plan::reps(1))?;
        let errors: Vec<String> = e.errors.iter().chain(&t.errors).cloned().collect();
        for err in &errors {
            println!("  check failed: {err}");
        }
        ok &= errors.is_empty() && e.jobs_failed == 0;
        entries.push(workload_report(&w, &e, &t, &errors));
    }
    let report_value = Value::Obj(vec![
        ("machine".into(), machine(&env, seed, reps)),
        ("workloads".into(), Value::Arr(entries)),
    ]);
    let path = report.unwrap_or_else(|| PathBuf::from(WORK_DIR).join(format!("run-{seed}.json")));
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(&report_value).map_err(|e| e.to_string())?;
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("report written to {}", path.display());
    Ok(if ok { 0 } else { 1 })
}

fn workload_report(w: &Workload, e: &measure::E2e, t: &Traced, errors: &[String]) -> Value {
    let metrics = E2E_METRICS
        .iter()
        .filter_map(|&(m, unit)| {
            let s = e.summary(m)?;
            let v = Value::Obj(vec![
                ("median".into(), Value::F64(s.median)),
                ("q1".into(), Value::F64(s.q1)),
                ("q3".into(), Value::F64(s.q3)),
                ("n".into(), Value::U64(s.n as u64)),
                ("unit".into(), Value::Str(unit.into())),
            ]);
            Some((m.to_owned(), v))
        })
        .collect();
    let layers = trace::layer_metric_names()
        .into_iter()
        .map(|(m, _)| (m.to_owned(), Value::F64(t.median(m))))
        .collect();
    Value::Obj(vec![
        ("name".into(), Value::Str(w.name.into())),
        ("rows".into(), Value::U64(w.rows as u64)),
        ("metrics".into(), Value::Obj(metrics)),
        ("jobs_attempted".into(), Value::U64(e.jobs_attempted)),
        ("jobs_failed".into(), Value::U64(e.jobs_failed)),
        ("fail_frac".into(), Value::F64(e.fail_frac())),
        (
            "host_factor".into(),
            Value::F64(Summary::of(&e.factors).map_or(f64::NAN, |s| s.median)),
        ),
        (
            "indicator_digest".into(),
            e.digest.clone().map_or(Value::Null, Value::Str),
        ),
        ("layers".into(), Value::Obj(layers)),
        (
            "errors".into(),
            Value::Arr(errors.iter().cloned().map(Value::Str).collect()),
        ),
    ])
}

/// The machine and build the numbers come from.
fn machine(env: &Env, seed: u64, reps: usize) -> Value {
    let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|l| l.trim_start_matches([' ', '\t', ':']).to_owned())
        .unwrap_or_default();
    let head = git(&["rev-parse", "HEAD"]);
    let dirty = git(&["status", "--porcelain"]).map(|s| !s.is_empty());
    Value::Obj(vec![
        ("nproc".into(), Value::U64(nproc() as u64)),
        ("cpu".into(), Value::Str(cpu)),
        (
            "kernel".into(),
            Value::Str(read("/proc/sys/kernel/osrelease").trim().into()),
        ),
        ("threads".into(), Value::U64(env.threads as u64)),
        ("seed".into(), Value::U64(seed)),
        ("reps".into(), Value::U64(reps as u64)),
        ("smoke".into(), Value::Bool(env.smoke)),
        ("git_head".into(), head.map_or(Value::Null, Value::Str)),
        ("git_dirty".into(), dirty.map_or(Value::Null, Value::Bool)),
    ])
}

/// `git args` in the current directory, never searching above it;
/// `None` outside a repository or without git.
fn git(args: &[&str]) -> Option<String> {
    let cwd = std::env::current_dir().ok()?;
    let out = Command::new("git")
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(&cwd))
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// `trace`: a traced pass of every workload, checked against the CLI;
/// prints each layer's share and writes the spans as NDJSON.
fn cmd_trace(seed: u64, smoke: bool, trace_out: Option<PathBuf>) -> Result<i32, String> {
    let env = env(smoke)?;
    let mut ndjson = String::new();
    let mut ok = true;
    for name in NAMES {
        let w = workload(name, seed, smoke)?;
        let t = measure::trace(&w, &env, Plan::reps(1))?;
        print_layers(name, &t);
        for err in &t.errors {
            println!("  check failed: {err}");
        }
        ok &= t.errors.is_empty();
        for (i, pass) in t.passes.iter().enumerate() {
            ndjson.push_str(&trace::ndjson(name, i, &pass.tracer));
        }
    }
    if let Some(path) = trace_out {
        std::fs::write(&path, ndjson).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
    }
    Ok(if ok { 0 } else { 1 })
}

/// The `end_to_end` bounds of `BENCHMARK.json`, by metric name.
fn bounds() -> BTreeMap<String, f64> {
    let def = serde_json::parse_value(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
    def.get("end_to_end")
        .and_then(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_owned(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect()
}

/// `repeat`: the end-to-end set twice; exits 1 when a median moved by
/// more than its bound between the two sets.
fn cmd_repeat(seed: u64, reps: usize, smoke: bool) -> Result<i32, String> {
    let env = env(smoke)?;
    let bounds = bounds();
    let plan = Plan::reps(reps);
    let mut sets = Vec::new();
    for set in 1..=2 {
        let mut results = Vec::new();
        for name in NAMES {
            eprintln!("set {set}: {name}");
            let e = measure::measure(&workload(name, seed, smoke)?, &env, plan)?;
            if !e.errors.is_empty() {
                return Err(e.errors.join("; "));
            }
            results.push(e);
        }
        sets.push(results);
    }
    let mut ok = true;
    println!(
        "{:<12} {:<12} {:>11} {:>11} {:>8} {:>6}",
        "workload", "metric", "set 1", "set 2", "diff", "bound"
    );
    for (i, name) in NAMES.iter().enumerate() {
        for (metric, _) in E2E_METRICS {
            let (Some(a), Some(b)) = (sets[0][i].summary(metric), sets[1][i].summary(metric))
            else {
                continue;
            };
            let diff = (b.median - a.median) / a.median;
            let bound = bounds.get(metric).copied().unwrap_or(0.0);
            let within = diff.abs() <= bound;
            ok &= within;
            println!(
                "{name:<12} {metric:<12} {:>11.4} {:>11.4} {:>+7.2}% {:>5.1}% {}",
                a.median,
                b.median,
                100.0 * diff,
                100.0 * bound,
                if within { "ok" } else { "EXCEEDED" }
            );
        }
    }
    Ok(if ok { 0 } else { 1 })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every entry under `key` (unit "" when absent).
    fn entries(def: &Value, key: &str) -> Vec<(String, String)> {
        let field = |m: &Value, f: &str| m.get(f).and_then(Value::as_str).unwrap_or("").to_owned();
        def.get(key)
            .and_then(Value::as_arr)
            .unwrap_or_default()
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    fn owned(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_names_are_plain_and_match_the_code() {
        let def = serde_json::parse_value(BENCHMARK_JSON).unwrap();
        let plain = |n: &str| {
            !n.is_empty()
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        };
        let workloads = entries(&def, "workloads");
        let e2e = entries(&def, "end_to_end");
        let layers = entries(&def, "per_layer");
        for (n, _) in workloads.iter().chain(&e2e).chain(&layers) {
            assert!(plain(n), "{n:?} is not ^[A-Za-z0-9_.-]+$");
        }
        assert!(!plain("a b") && !plain("m/s") && !plain(""));
        let workload_names: Vec<&str> = workloads.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(workload_names, NAMES);
        assert_eq!(e2e, owned(&E2E_METRICS));
        assert_eq!(layers, owned(&trace::layer_metric_names()));
    }

    #[test]
    fn every_bound_is_set() {
        let b = bounds();
        for (metric, _) in E2E_METRICS {
            let bound = b[metric];
            assert!(bound > 0.0 && bound <= 0.25, "{metric}: {bound}");
        }
    }

    #[test]
    fn options_reject_unknown_flags() {
        let args = |s: &str| s.split(' ').map(str::to_owned).collect::<Vec<_>>();
        let o = Opts::parse(&args("--seed 7 --smoke"), &["seed", "smoke"]).unwrap();
        assert_eq!(o.req::<u64>("seed").unwrap(), 7);
        assert!(o.smoke());
        assert!(Opts::parse(&args("--sede 7"), &["seed"]).is_err());
        assert!(Opts::parse(&args("--seed"), &["seed"]).is_err());
        assert!(o.req::<u64>("reps").is_err());
    }
}
