//! The one `secreta bench` harness: versioned reports, baseline
//! comparison, and the runner every suite goes through.
//!
//! A suite is one entry of a table of [`Suite`]s: a name, default
//! dataset sizes and reps, and a function that builds its fixtures for
//! one size and hands each [`Case`] to [`Bench::case`]. A case lists
//! named variants of the same work (a kernel and its naive oracle, a
//! tier on and off, N worker processes). [`run`] owns everything
//! around them:
//!
//! * the refusal to measure under an active `SECRETA_FAULTS` plan,
//! * the shared flags (`--rows`, `--threads`, `--reps`, ...),
//! * best-of-reps timing, with the `SECRETA_BENCH_HANDICAP` multiplier,
//! * the identity check across a case's variants: a divergence fails
//!   the run once the report is written,
//! * one scratch directory per run, removed on every exit path,
//! * one table printer, and
//! * the schema-versioned [`BenchReport`], written with `--out FILE`.
//!
//! A report can later be fed back through `--baseline FILE`:
//! [`compare`] checks that the two reports measured the same thing
//! (schema, suite, rows, seed, threads) and returns per-case deltas of
//! *calibration-normalized* wall times, so a faster or slower CI
//! machine shifts both sides of the ratio and the >25% regression gate
//! tracks real slowdowns instead of host lottery.

use secreta_core::metrics::PhaseTimes;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Version of the report JSON layout. Bump on any breaking change to
/// the structs below; [`compare`] refuses mismatched versions.
pub const SCHEMA_VERSION: u32 = 1;

/// Environment variable holding the synthetic slowdown factor of the
/// gate self-test: every variant call is repeated that many times
/// inside its timed region.
pub const HANDICAP_VAR: &str = "SECRETA_BENCH_HANDICAP";

/// Coarse machine fingerprint recorded in every report. Not used for
/// normalization (that is what `calibration_ms` is for) — it exists so
/// a human reading two reports can see when they came from different
/// hardware.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Machine {
    /// `std::env::consts::OS` of the measuring process.
    pub os: String,
    /// `std::env::consts::ARCH` of the measuring process.
    pub arch: String,
    /// Logical CPUs visible to the process.
    pub cpus: usize,
}

/// The fingerprint of the current machine.
pub fn machine_fingerprint() -> Machine {
    Machine {
        os: std::env::consts::OS.to_owned(),
        arch: std::env::consts::ARCH.to_owned(),
        cpus: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    }
}

/// One measured variant of a case.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Variant {
    /// Variant name, e.g. `naive`, `kernel`, `warm` or `2 workers`.
    pub name: String,
    /// Best-of-`reps` wall time in milliseconds.
    pub wall_ms: f64,
    /// Phase breakdown of the variant's last run, in milliseconds.
    #[serde(default)]
    pub phases_ms: BTreeMap<String, f64>,
    /// Suite-specific numbers of the last run (cache hits, bytes, ...).
    #[serde(default)]
    pub extras: BTreeMap<String, f64>,
}

/// One measured case of a suite run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchCase {
    /// Stable case id, e.g. `tx/coat` or `metrics/gcp`.
    pub id: String,
    /// Best-of-`reps` wall time in milliseconds of the last variant
    /// (the production path) — what the gate compares.
    pub wall_ms: f64,
    /// Repetitions measured (the minimum is reported).
    pub reps: usize,
    /// Dataset rows the case ran at.
    #[serde(default)]
    pub rows: usize,
    /// Every variant, in the order the suite declared them.
    #[serde(default)]
    pub variants: Vec<Variant>,
    /// Whether every variant that returned an output returned the same
    /// one; `None` when fewer than two did.
    #[serde(default)]
    pub outputs_identical: Option<bool>,
}

/// A full `secreta bench` result document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Layout version — see [`SCHEMA_VERSION`].
    pub schema_version: u32,
    /// Suite name (`all` for the gate suite).
    pub suite: String,
    /// Largest dataset size the suite ran at (each case records its
    /// own).
    pub rows: usize,
    /// Dataset seed.
    pub seed: u64,
    /// `--threads` the suite ran with (0 = not given: one per core).
    pub threads: usize,
    /// Where the report was measured.
    pub machine: Machine,
    /// Single-core spin-loop calibration (milliseconds, best of
    /// several) measured by [`calibrate`] just before the cases —
    /// the denominator that makes reports comparable across hosts.
    pub calibration_ms: f64,
    /// The suite's fixed workload parameters (`k`, `m`, `items`, ...).
    #[serde(default)]
    pub params: BTreeMap<String, f64>,
    /// The measured cases.
    pub cases: Vec<BenchCase>,
}

/// Per-case outcome of [`compare`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CaseDelta {
    /// Case id shared by both reports.
    pub id: String,
    /// Baseline wall time (ms).
    pub base_ms: f64,
    /// New wall time (ms).
    pub new_ms: f64,
    /// `(new_ms / new_calibration) / (base_ms / base_calibration) - 1`,
    /// as a percentage; positive = regression.
    pub delta_pct: f64,
}

/// Iterations of the calibration spin loop (one sample).
const CALIBRATE_ITERS: u64 = 10_000_000;
/// Samples taken; the fastest is the calibration constant.
const CALIBRATE_SAMPLES: usize = 5;

/// Measure a fixed single-threaded integer spin loop and return the
/// fastest sample's wall time in milliseconds — a unit of "how fast
/// this machine runs scalar Rust", used to normalize wall times before
/// comparing reports across hosts.
pub fn calibrate() -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..CALIBRATE_SAMPLES {
        let start = Instant::now();
        let mut z = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..CALIBRATE_ITERS {
            z ^= z << 13;
            z ^= z >> 7;
            z ^= z << 17;
            // keep the loop honest: no vectorizing or folding it away
            z = std::hint::black_box(z);
        }
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if ms < best {
            best = ms;
        }
    }
    best
}

/// Compare `new` against `base`: verify the reports measured the same
/// suite under the same parameters, then return one [`CaseDelta`] per
/// baseline case (order of the baseline). Errors on schema/parameter
/// mismatch, on a non-positive calibration, and on a baseline case the
/// new report no longer contains; extra new cases are ignored (adding
/// a case must not fail old baselines).
pub fn compare(base: &BenchReport, new: &BenchReport) -> Result<Vec<CaseDelta>, String> {
    if base.schema_version != SCHEMA_VERSION || new.schema_version != SCHEMA_VERSION {
        return Err(format!(
            "schema mismatch: baseline v{}, new v{}, supported v{SCHEMA_VERSION} \
             (regenerate the baseline with tools/update_bench_baseline.sh)",
            base.schema_version, new.schema_version
        ));
    }
    if base.suite != new.suite {
        return Err(format!(
            "suite mismatch: {:?} vs {:?}",
            base.suite, new.suite
        ));
    }
    if (base.rows, base.seed, base.threads) != (new.rows, new.seed, new.threads) {
        return Err(format!(
            "parameter mismatch: baseline rows={} seed={} threads={}, \
             new rows={} seed={} threads={}",
            base.rows, base.seed, base.threads, new.rows, new.seed, new.threads
        ));
    }
    // rejects NaN and infinities too, not just zero and negatives
    let usable = |c: f64| c.is_finite() && c > 0.0;
    if !usable(base.calibration_ms) || !usable(new.calibration_ms) {
        return Err("non-positive calibration constant".to_owned());
    }
    let mut deltas = Vec::with_capacity(base.cases.len());
    for bc in &base.cases {
        let nc = new
            .cases
            .iter()
            .find(|c| c.id == bc.id)
            .ok_or_else(|| format!("case {:?} missing from the new report", bc.id))?;
        let base_norm = bc.wall_ms / base.calibration_ms;
        let new_norm = nc.wall_ms / new.calibration_ms;
        let delta_pct = if base_norm > 0.0 {
            (new_norm / base_norm - 1.0) * 100.0
        } else {
            0.0
        };
        deltas.push(CaseDelta {
            id: bc.id.clone(),
            base_ms: bc.wall_ms,
            new_ms: nc.wall_ms,
            delta_pct,
        });
    }
    Ok(deltas)
}

/// The deltas exceeding `gate_pct` percent regression.
pub fn regressions(deltas: &[CaseDelta], gate_pct: f64) -> Vec<&CaseDelta> {
    deltas.iter().filter(|d| d.delta_pct > gate_pct).collect()
}

/// One entry of the suite table.
pub struct Suite {
    /// `--suite` name; `all` is the perf-gate suite, also selected by
    /// `--all`.
    pub name: &'static str,
    /// Default `--rows`.
    pub rows: &'static [usize],
    /// Default `--reps`.
    pub reps: usize,
    /// Build the fixtures for one dataset size and measure its cases.
    pub cases: fn(&Setup, &mut Bench) -> Result<(), String>,
}

impl Suite {
    /// A table entry: name, default `--rows`, default `--reps`, cases.
    pub const fn new(
        name: &'static str,
        rows: &'static [usize],
        reps: usize,
        cases: fn(&Setup, &mut Bench) -> Result<(), String>,
    ) -> Suite {
        Suite {
            name,
            rows,
            reps,
            cases,
        }
    }
}

/// What a suite's case function gets for one dataset size.
pub struct Setup<'a> {
    /// Dataset rows of this size.
    pub rows: usize,
    /// `--seed` (default 42).
    pub seed: u64,
    /// `--threads`, when given; the suite runs within a thread budget
    /// of that many threads (default: one per core).
    pub threads: Option<usize>,
    /// `--memory-budget` in megabytes, when given.
    pub memory_budget_mb: Option<u64>,
    /// The run's scratch directory, removed when the run ends.
    pub scratch: &'a Path,
}

/// What one call of a variant hands back; the harness inspects it after
/// the timed region.
#[derive(Default)]
pub struct Sample {
    /// The published output, compared across the case's variants by
    /// its `Debug` rendering (derived impls cover every field and print
    /// floats exactly); `None` keeps the variant out of the check.
    pub output: Option<Box<dyn Debug>>,
    /// Phase breakdown of the call.
    pub phases: PhaseTimes,
    /// Suite-specific numbers recorded with the variant.
    pub extras: BTreeMap<String, f64>,
}

impl Sample {
    /// A sample carrying the published `output`.
    pub fn of(output: impl Debug + 'static) -> Sample {
        Sample {
            output: Some(Box::new(output)),
            ..Sample::default()
        }
    }

    /// Attach the call's phase breakdown.
    pub fn with_phases(mut self, phases: PhaseTimes) -> Sample {
        self.phases = phases;
        self
    }

    /// Record a suite-specific number with the sample.
    pub fn extra(mut self, key: &str, value: f64) -> Sample {
        self.extras.insert(key.to_owned(), value);
        self
    }
}

/// One timed call of a variant.
type Call<'a> = Box<dyn FnMut() -> Result<Sample, String> + 'a>;

/// Named variants of the same work, measured and checked together.
pub struct Case<'a> {
    id: String,
    variants: Vec<(&'static str, Call<'a>)>,
}

impl<'a> Case<'a> {
    /// An empty case called `id`.
    pub fn new(id: impl Into<String>) -> Case<'a> {
        Case {
            id: id.into(),
            variants: Vec::new(),
        }
    }

    /// Add a variant; the last one added is the production path whose
    /// time the gate compares.
    pub fn variant(
        mut self,
        name: &'static str,
        call: impl FnMut() -> Result<Sample, String> + 'a,
    ) -> Case<'a> {
        self.variants.push((name, Box::new(call)));
        self
    }
}

/// The harness state while a suite runs; suites hand it their cases
/// and fixed parameters.
pub struct Bench {
    reps: usize,
    handicap: usize,
    rows: usize,
    params: BTreeMap<String, f64>,
    cases: Vec<BenchCase>,
}

impl Bench {
    /// Record a fixed workload parameter of the suite in the report.
    pub fn param(&mut self, key: &str, value: f64) {
        self.params.insert(key.to_owned(), value);
    }

    /// Measure `case`: best-of-reps per variant, then the identity
    /// check, one table row and one report entry. Reps are the outer
    /// loop, so within a rep each variant runs after the one declared
    /// before it (a warm pass replays the store its cold pass filled).
    pub fn case(&mut self, case: Case<'_>) -> Result<(), String> {
        let Case { id, mut variants } = case;
        let mut best = vec![f64::INFINITY; variants.len()];
        let mut last: Vec<Option<Sample>> = variants.iter().map(|_| None).collect();
        for _ in 0..self.reps {
            for (i, (name, call)) in variants.iter_mut().enumerate() {
                let mut timed = || call().map_err(|e| format!("{id} ({name}): {e}"));
                let t0 = Instant::now();
                let mut sample = timed()?;
                for _ in 1..self.handicap {
                    sample = timed()?;
                }
                best[i] = best[i].min(t0.elapsed().as_secs_f64() * 1e3);
                last[i] = Some(sample);
            }
        }
        let samples: Vec<Sample> = last.into_iter().map(|s| s.expect("reps >= 1")).collect();
        let compared = samples.iter().filter(|s| s.output.is_some()).count() >= 2;
        let mut outputs: Vec<(usize, String)> = Vec::new();
        let mut measured = Vec::with_capacity(variants.len());
        for (i, ((name, _), sample)) in variants.iter().zip(samples).enumerate() {
            if let Some(output) = sample.output.as_ref().filter(|_| compared) {
                outputs.push((i, format!("{output:?}")));
            }
            let mut phases_ms = BTreeMap::new();
            for (phase, d) in &sample.phases.phases {
                *phases_ms.entry(phase.clone()).or_insert(0.0) += d.as_secs_f64() * 1e3;
            }
            measured.push(Variant {
                name: (*name).to_owned(),
                wall_ms: best[i],
                phases_ms,
                extras: sample.extras,
            });
        }
        let outputs_identical = compared.then(|| outputs.windows(2).all(|w| w[0].1 == w[1].1));

        print!("  {id:<16} n={:<9}", self.rows);
        for v in &measured {
            print!("  {} {:.2}ms", v.name, v.wall_ms);
            for (k, x) in &v.extras {
                print!(" {k}={x}");
            }
        }
        if let (Some(same), Some(&(a, _)), Some(&(b, _))) =
            (outputs_identical, outputs.first(), outputs.last())
        {
            print!(
                "  {}/{} {:.2}x  outputs identical: {same}",
                measured[a].name,
                measured[b].name,
                best[a] / best[b].max(1e-9)
            );
        }
        println!();

        self.cases.push(BenchCase {
            id,
            wall_ms: measured.last().map_or(0.0, |v| v.wall_ms),
            reps: self.reps,
            rows: self.rows,
            variants: measured,
            outputs_identical,
        });
        Ok(())
    }
}

/// The run's scratch directory, removed when dropped: on success, on
/// an early `?` return and while unwinding alike.
struct Scratch(PathBuf);

impl Scratch {
    fn create(suite: &str) -> Result<Scratch, String> {
        let dir =
            std::env::temp_dir().join(format!("secreta-bench-{suite}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Take `--name` out of `flags`, parsed as a number (`None` when
/// absent).
fn number<T: std::str::FromStr>(
    flags: &mut BTreeMap<String, String>,
    name: &str,
) -> Result<Option<T>, String> {
    flags
        .remove(name)
        .map(|v| {
            v.parse()
                .map_err(|_| format!("--{name} expects a number, got {v:?}"))
        })
        .transpose()
}

/// The gate self-test's slowdown factor (1 when unset).
fn handicap() -> Result<usize, String> {
    let Ok(v) = std::env::var(HANDICAP_VAR) else {
        return Ok(1);
    };
    let n: usize = v
        .parse()
        .map_err(|_| format!("{HANDICAP_VAR} expects an integer, got {v:?}"))?;
    if n > 1 {
        eprintln!(
            "WARNING: {HANDICAP_VAR}={n} multiplies every workload {n}x inside the \
             timed region; this run is a gate self-test, NOT a measurement"
        );
    }
    Ok(n.max(1))
}

/// Compare `new` against the report stored at `path`, print the
/// per-case table, and fail on any case regressing more than
/// `gate_pct` percent.
fn gate(path: &str, new: &BenchReport, gate_pct: f64) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let base: BenchReport =
        serde_json::from_str(&text).map_err(|e| format!("{path}: not a bench report: {e}"))?;
    let deltas = compare(&base, new).map_err(|e| format!("{path}: {e}"))?;
    println!("baseline comparison ({path}, gate {gate_pct}%):");
    println!(
        "  baseline calibration {:.1}ms, this run {:.1}ms",
        base.calibration_ms, new.calibration_ms
    );
    for d in &deltas {
        println!(
            "  {:<16} base {:>9.2}ms  new {:>9.2}ms  normalized delta {:>+7.1}%",
            d.id, d.base_ms, d.new_ms, d.delta_pct
        );
    }
    let bad = regressions(&deltas, gate_pct);
    if !bad.is_empty() {
        let list: Vec<String> = bad
            .iter()
            .map(|d| format!("{} ({:+.1}%)", d.id, d.delta_pct))
            .collect();
        return Err(format!(
            "perf regression above {gate_pct}%: {} \
             (if intentional, regenerate the baseline with \
             tools/update_bench_baseline.sh)",
            list.join(", ")
        ));
    }
    println!("  gate passed: no case regressed more than {gate_pct}%");
    Ok(())
}

/// Run the suite `options` select from `suites` (`--all` picks `all`,
/// `--suite NAME` any other, default `kernels`): each `--rows` size in
/// ascending order, then the report (`--out FILE`), then the checks.
/// Diverging variants fail the run, naming every such case; so does a
/// regression against `--baseline FILE` beyond `--gate-pct` (25).
pub fn run(suites: &[Suite], options: &BTreeMap<String, String>) -> Result<(), String> {
    // benchmarks measure the real code paths; an active fault plan
    // would inject panics/latency into the timed regions and corrupt
    // every number, so refuse outright rather than record garbage
    let faults = secreta_core::faults::ENV_VAR;
    if std::env::var(faults).is_ok_and(|v| !v.is_empty()) {
        return Err(format!(
            "refusing to benchmark with {faults} set: injected faults would corrupt \
             the timings; unset it and re-run"
        ));
    }
    // each flag is taken out of `flags` where it is read; any left over
    // is a typo or a retired flag, refused rather than ignored
    let mut flags = options.clone();
    let all = flags.remove("all").is_some();
    let name = match flags.remove("suite") {
        _ if all => "all".to_owned(),
        Some(name) => name,
        None => "kernels".to_owned(),
    };
    let rows = flags.remove("rows");
    let seed = number(&mut flags, "seed")?.unwrap_or(42);
    let threads = match number(&mut flags, "threads")? {
        Some(0) => return Err("--threads expects a positive integer".into()),
        n => n,
    };
    let reps: Option<usize> = number(&mut flags, "reps")?;
    let gate_pct = number(&mut flags, "gate-pct")?.unwrap_or(25.0);
    let memory_budget_mb = match number(&mut flags, "memory-budget")? {
        Some(0) => return Err("--memory-budget expects a positive number of megabytes".into()),
        mb => mb,
    };
    let (out, baseline) = (flags.remove("out"), flags.remove("baseline"));
    if let Some(flag) = flags.keys().next() {
        return Err(format!("unknown bench flag --{flag}"));
    }
    let suite = suites.iter().find(|s| s.name == name).ok_or_else(|| {
        let names: Vec<&str> = suites.iter().map(|s| s.name).collect();
        format!("unknown --suite {name:?} ({})", names.join("|"))
    })?;
    let mut rows: Vec<usize> = match rows {
        Some(list) => list
            .split(',')
            .map(|t| {
                t.trim()
                    .parse()
                    .map_err(|_| format!("--rows expects integers, got {t:?}"))
            })
            .collect::<Result<_, _>>()?,
        None => suite.rows.to_vec(),
    };
    rows.sort_unstable();
    let reps = reps.unwrap_or(suite.reps).max(1);
    let handicap = handicap()?;
    let scratch = Scratch::create(&name)?;

    println!("bench --suite {name} (seed={seed}, best of {reps})");
    let calibration_ms = calibrate();
    println!("  calibration: {calibration_ms:.1}ms");
    let mut bench = Bench {
        reps,
        handicap,
        rows: 0,
        params: BTreeMap::new(),
        cases: Vec::new(),
    };
    // the kernels run at `--threads`, else at one thread per core
    let budget = threads.unwrap_or_else(|| machine_fingerprint().cpus);
    secreta_core::parallel::with_threads(budget, || {
        for &n in &rows {
            bench.rows = n;
            let setup = Setup {
                rows: n,
                seed,
                threads,
                memory_budget_mb,
                scratch: &scratch.0,
            };
            (suite.cases)(&setup, &mut bench)?;
        }
        Ok::<(), String>(())
    })?;

    let report = BenchReport {
        schema_version: SCHEMA_VERSION,
        suite: name,
        rows: rows.last().copied().unwrap_or(0),
        seed,
        threads: threads.unwrap_or(0),
        machine: machine_fingerprint(),
        calibration_ms,
        params: bench.params,
        cases: bench.cases,
    };
    if let Some(path) = out {
        let body = serde_json::to_string_pretty(&report)
            .map_err(|e| format!("internal error: report serialization failed: {e}"))?;
        std::fs::write(&path, body).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
    }
    let gated = match baseline {
        Some(path) => gate(&path, &report, gate_pct),
        None => Ok(()),
    };
    let diverged: Vec<String> = report
        .cases
        .iter()
        .filter(|c| c.outputs_identical == Some(false))
        .map(|c| format!("{} at {} rows", c.id, c.rows))
        .collect();
    if !diverged.is_empty() {
        return Err(format!(
            "outputs diverged between the variants of: {}",
            diverged.join(", ")
        ));
    }
    gated
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(cases: &[(&str, f64)], calibration_ms: f64) -> BenchReport {
        BenchReport {
            schema_version: SCHEMA_VERSION,
            suite: "all".to_owned(),
            rows: 800,
            seed: crate::SEED,
            threads: 2,
            machine: machine_fingerprint(),
            calibration_ms,
            params: BTreeMap::new(),
            cases: cases
                .iter()
                .map(|&(id, wall_ms)| BenchCase {
                    id: id.to_owned(),
                    wall_ms,
                    reps: 3,
                    rows: 800,
                    variants: Vec::new(),
                    outputs_identical: None,
                })
                .collect(),
        }
    }

    #[test]
    fn report_roundtrips_through_json() {
        let mut r = report(&[("tx/coat", 12.5), ("metrics/gcp", 0.75)], 30.0);
        r.params.insert("k".to_owned(), 10.0);
        r.cases[0].outputs_identical = Some(true);
        r.cases[0].variants.push(Variant {
            name: "kernel".to_owned(),
            wall_ms: 12.5,
            phases_ms: [("publish".to_owned(), 0.25)].into_iter().collect(),
            extras: [("hits".to_owned(), 3.0)].into_iter().collect(),
        });
        let json = serde_json::to_string_pretty(&r).unwrap();
        let back: BenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn identical_reports_have_zero_delta() {
        // the committed baseline predates the per-variant fields: it
        // loads with their defaults and gates unchanged
        let text = include_str!("../../../benches/baseline.json");
        let base: BenchReport = serde_json::from_str(text).unwrap();
        assert!(base.params.is_empty() && base.cases[0].variants.is_empty());
        let deltas = compare(&base, &base).unwrap();
        assert_eq!(deltas.len(), 12);
        assert!(deltas.iter().all(|d| d.delta_pct.abs() < 1e-12));
        assert!(regressions(&deltas, 25.0).is_empty());
    }

    #[test]
    fn calibration_normalizes_host_speed() {
        // same workload measured on a machine running everything 2x
        // slower (wall times and calibration both double): no delta
        let base = report(&[("a", 10.0)], 20.0);
        let slow_host = report(&[("a", 20.0)], 40.0);
        let deltas = compare(&base, &slow_host).unwrap();
        assert!(deltas[0].delta_pct.abs() < 1e-12, "{deltas:?}");
        // a genuine 2x slowdown on the same host trips the gate
        let regressed = report(&[("a", 20.0)], 20.0);
        let deltas = compare(&base, &regressed).unwrap();
        assert!((deltas[0].delta_pct - 100.0).abs() < 1e-9);
        assert_eq!(regressions(&deltas, 25.0).len(), 1);
    }

    #[test]
    fn mismatched_reports_are_rejected() {
        let base = report(&[("a", 10.0)], 20.0);
        let mut other = base.clone();
        other.rows = 999;
        assert!(compare(&base, &other).is_err());
        let mut other = base.clone();
        other.schema_version = SCHEMA_VERSION + 1;
        assert!(compare(&base, &other).is_err());
        let mut other = base.clone();
        other.cases.clear();
        assert!(compare(&base, &other).is_err());
        // extra cases in the new report are fine
        let mut other = base.clone();
        other
            .cases
            .push(report(&[("new-case", 1.0)], 20.0).cases.remove(0));
        assert_eq!(compare(&base, &other).unwrap().len(), 1);
    }

    #[test]
    fn calibration_is_positive_and_finite() {
        let c = calibrate();
        assert!(c.is_finite() && c > 0.0);
    }

    static SCRATCH_SEEN: std::sync::Mutex<Option<PathBuf>> = std::sync::Mutex::new(None);

    /// Leaves a file in the scratch directory, then measures two cases:
    /// one whose variants agree, one whose second variant publishes a
    /// different output.
    fn diverging(setup: &Setup, bench: &mut Bench) -> Result<(), String> {
        std::fs::write(setup.scratch.join("data.csv"), "a\n1\n").unwrap();
        *SCRATCH_SEEN.lock().unwrap() = Some(setup.scratch.to_owned());
        let same = || Ok(Sample::of(vec![1u32, 2]));
        bench.case(
            Case::new("demo/agree")
                .variant("naive", same)
                .variant("kernel", same),
        )?;
        bench.case(
            Case::new("demo/diverge")
                .variant("naive", same)
                .variant("kernel", || Ok(Sample::of(vec![1u32, 3]))),
        )
    }

    #[test]
    fn divergent_variants_fail_the_run_after_the_report() {
        let suites = [Suite::new("diverging", &[5], 2, diverging)];
        let out = std::env::temp_dir().join(format!(
            "secreta-bench-diverging-{}.json",
            std::process::id()
        ));
        let options = [("suite", "diverging"), ("out", out.to_str().unwrap())]
            .map(|(k, v)| (k.to_owned(), v.to_owned()))
            .into();
        let err = run(&suites, &options).expect_err("a divergence must fail the run");
        assert!(err.contains("demo/diverge at 5 rows"), "{err}");
        assert!(!err.contains("demo/agree"), "{err}");
        let written: BenchReport =
            serde_json::from_str(&std::fs::read_to_string(&out).unwrap()).unwrap();
        std::fs::remove_file(&out).unwrap();
        let verdicts: Vec<_> = written.cases.iter().map(|c| c.outputs_identical).collect();
        assert_eq!(verdicts, [Some(true), Some(false)]);
        assert!(written.cases.iter().all(|c| c.reps == 2 && c.rows == 5));
        let scratch = SCRATCH_SEEN.lock().unwrap().clone().expect("suite ran");
        assert!(!scratch.exists(), "{} leaked", scratch.display());
    }
}
