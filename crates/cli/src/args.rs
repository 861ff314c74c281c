//! The command line of the `secreta` binary: one declaration per verb.
//!
//! Every verb (each `runs` subcommand and `bench` included) is one
//! entry of [`VERBS`]: its positional argument and its groups of
//! flags. Each flag is declared once, with its value kind, what it
//! reads as when absent, and one line of help. Parsing checks every
//! token against the verb's declaration and refuses anything else; the
//! accessors return the given value or the declared default. `secreta
//! help`, the GUIDE's flag tables, the flags a coordinator forwards to
//! its workers and the flags journaled for `runs resume` all read the
//! same declaration. No external parser dependency: the surface is
//! small and fixed.

use crate::commands as cmd;
use std::fmt::Write;
use std::str::FromStr;
use Fallback::{Required, Unset, Value};
use Kind::{Count, Number, OneOf, Positive, Switch, Text};

/// What a flag takes; each hint names the value in help.
#[derive(Clone, Copy)]
pub(crate) enum Kind {
    /// Nothing: the flag is present or absent.
    Switch,
    /// Free text.
    Text(&'static str),
    /// A non-negative integer.
    Count(&'static str),
    /// A positive integer.
    Positive(&'static str),
    /// A finite number.
    Number(&'static str),
    /// One of a fixed list of names.
    OneOf(&'static [&'static str]),
}

/// What an absent flag reads as.
#[derive(Clone, Copy)]
pub(crate) enum Fallback {
    /// Nothing: absence is a usage error.
    Required,
    /// Nothing; the note says what absence means.
    Unset(&'static str),
    /// This value, checked like a given one.
    Value(&'static str),
}

/// One flag of one or more verbs.
#[derive(Clone, Copy)]
pub(crate) struct Flag {
    pub name: &'static str,
    pub kind: Kind,
    pub fallback: Fallback,
    pub help: &'static str,
}

const fn f(name: &'static str, kind: Kind, fallback: Fallback, help: &'static str) -> Flag {
    Flag {
        name,
        kind,
        fallback,
        help,
    }
}

impl Flag {
    /// `--name HINT`, as help shows it.
    pub fn syntax(&self) -> String {
        match self.kind {
            Switch => format!("--{}", self.name),
            Text(h) | Count(h) | Positive(h) | Number(h) => format!("--{} {h}", self.name),
            OneOf(names) => format!("--{} {}", self.name, names.join("|")),
        }
    }

    /// Refuse a value the flag's kind does not take.
    fn check(&self, value: &str) -> Result<(), String> {
        let expected = match self.kind {
            Count(_) if value.parse::<u64>().is_err() => "an integer".to_owned(),
            Positive(_) if value.parse::<u64>().map_or(true, |n| n == 0) => {
                "a positive integer".to_owned()
            }
            Number(_) if !value.parse::<f64>().is_ok_and(f64::is_finite) => "a number".to_owned(),
            OneOf(names) if !names.contains(&value) => format!("one of {}", names.join("|")),
            _ => return Ok(()),
        };
        Err(format!("--{} expects {expected}, got {value:?}", self.name))
    }
}

use declared::FORWARDED;
pub(crate) use declared::{CHARTS, CONTEXT, COORDINATOR, LEASE, SWEEP, VERBS};

/// The declaration itself, one row per flag and one entry per verb;
/// kept as a table by hand.
#[rustfmt::skip]
mod declared {
    use super::*;
    use crate::{bench, commands as cmd, runs, worker};

    const TX: Flag = f("tx", Text("COL"), Unset(""), "name of the transaction (set-valued) column");
    const MEMORY_BUDGET: Flag = f("memory-budget", Positive("MB"), Unset("off"), "enforced memory budget");
    const SEED: Flag = f("seed", Count("S"), Value("42"), "random seed");
    const FANOUT: Flag = f("fanout", Count("F"), Value("4"), "fan-out of auto-derived hierarchies");
    const OUT: Flag = f("out", Text("FILE"), Required, "output file");
    const OUT_DIR: Flag = f("out-dir", Text("DIR"), Unset(""), "export the charts as SVG + CSV");
    const THREADS: Flag = f("threads", Positive("N"), Unset("one per core"), "thread budget of the whole process");
    const STORE_DIR: Flag = f("store-dir", Text("DIR"), Unset("no store"), "persist and replay runs here");
    const TRACE_OUT: Flag = f("trace-out", Text("FILE"), Unset(""), "stream an NDJSON execution trace");

    /// The dataset every data verb loads.
    const DATA: &[Flag] = &[TX, MEMORY_BUDGET];
    /// What rebuilds a session: journaled for `runs resume`.
    pub(crate) const CONTEXT: &[Flag] = &[
        f("session", Text("FILE"), Unset(""), "load a saved session instead of DATA"),
        TX,
        FANOUT,
        f("queries", Count("N"), Value("0"), "generate an N-query ARE workload"),
        SEED,
    ];
    /// Operational limits, never part of an experiment's identity.
    const LIMITS: &[Flag] = &[
        MEMORY_BUDGET,
        f("job-timeout-ms", Count("MS"), Unset("off"), "per-job soft deadline; a late job fails alone"),
    ];
    const METHOD: &[Flag] = &[
        f("mode", OneOf(&["rel", "tx", "rt", "rho"]), Value("rt"), "privacy model family"),
        f("rel-algo", OneOf(&["incognito", "cluster", "topdown", "bottomup"]), Value("cluster"), "relational algorithm"),
        f("tx-algo", OneOf(&["coat", "pcta", "apriori", "lra", "vpa"]), Value("apriori"), "transaction algorithm"),
        f("bounding", OneOf(&["rmerge", "tmerge", "rtmerge"]), Value("rmerge"), "RT bounding method"),
        f("k", Count("N"), Value("5"), "k of k-anonymity and k^m-anonymity"),
        f("m", Count("N"), Value("2"), "m of k^m-anonymity"),
        f("delta", Count("N"), Value("1"), "RT merge budget δ"),
        f("partitions", Count("N"), Value("4"), "LRA horizontal partitions"),
        f("parts", Count("N"), Value("4"), "VPA vertical parts"),
        f("rho", Number("R"), Value("0.5"), "ρ confidence threshold"),
        f("sensitive", Text("I1,I2,..."), Unset(""), "sensitive item labels (`--mode rho`)"),
        f("max-antecedent", Count("N"), Value("2"), "ρ rule-antecedent size bound"),
        f("rho-algo", OneOf(&["suppress", "tdcontrol"]), Value("suppress"), "SuppressControl or TDControl"),
    ];
    const RUN: &[Flag] = &[
        THREADS,
        STORE_DIR,
        f("no-cache", Switch, Unset("off"), "execute even on a store hit, still recording"),
        TRACE_OUT,
    ];
    pub(crate) const SWEEP: &[Flag] = &[
        f("vary", OneOf(&["k", "m", "delta"]), Unset("single run"), "parameter to sweep"),
        f("start", Count("N"), Value("2"), "first sweep value"),
        f("end", Count("N"), Value("10"), "last sweep value"),
        f("step", Count("N"), Value("2"), "sweep step"),
    ];
    pub(crate) const CHARTS: &[Flag] = &[f("ascii", Switch, Unset("off"), "render the charts in the terminal"), OUT_DIR];
    pub(crate) const COORDINATOR: &[Flag] = &[
        f("workers", Count("N"), Value("0"), "spawn N local worker processes"),
        f("distributed", Switch, Unset("off"), "wait for externally started workers"),
    ];
    pub(crate) const LEASE: &[Flag] = &[
        f("lease-ttl-ms", Positive("MS"), Value("5000"), "reclaim a silent worker's jobs after MS"),
        f("poll-ms", Count("MS"), Value("25"), "poll interval while waiting on the store"),
        f("wait-ms", Count("MS"), Value("10000"), "how long a worker waits for its sweep to appear"),
    ];
    /// Where the run-store verbs and workers find the store.
    const STORE: &[Flag] = &[f("store-dir", Text("DIR"), Value(".secreta-store"), "the run store")];

    /// What a coordinator forwards to its `secreta worker` processes:
    /// the flags that rebuild the session (so the context digests
    /// agree) or reach the store.
    pub(super) const FORWARDED: &[&[Flag]] = &[CONTEXT, LIMITS, &[STORE_DIR], LEASE];

    /// Every verb, in the order `secreta help` lists them.
    pub(crate) static VERBS: &[Verb] = &[
        v("generate", "", "synthesize a dataset", &[&[
            f("kind", OneOf(&["adult", "basket", "census", "adversarial"]), Value("adult"), "generator family"),
            f("rows", Count("N"), Value("1000"), "number of records"),
            f("items", Count("N"), Value("100"), "item-universe size (`basket`)"),
            SEED,
            OUT,
            f("correlation", Number("C"), Value("0.6"), "QI joint-value correlation in [0, 1] (`adversarial`)"),
            f("item-skew", OneOf(&["head", "tail"]), Value("tail"), "common or rare half carries the items (`adversarial`)"),
            f("outlier-fraction", Number("F"), Value("0.05"), "fraction of rows with rare picks (`adversarial`)"),
        ]], cmd::cmd_generate),
        v("info", "DATA", "dataset summary", &[DATA], cmd::cmd_info),
        v("histogram", "DATA", "attribute or item histogram", &[DATA, &[
            f("attr", Text("NAME"), Required, "attribute to plot"),
            f("top", Count("N"), Value("15"), "keep the N most frequent values"),
            OUT_DIR,
        ]], cmd::cmd_histogram),
        v("hierarchy", "DATA", "derive a generalization hierarchy", &[DATA, &[
            f("attr", Text("NAME"), Required, "attribute (the transaction column for items)"),
            FANOUT,
            f("out", Text("FILE"), Unset("stdout"), "output file"),
        ]], cmd::cmd_hierarchy),
        v("workload", "DATA", "generate a COUNT-query workload", &[DATA, &[
            f("queries", Count("N"), Value("100"), "number of queries"),
            SEED,
            OUT,
        ]], cmd::cmd_workload),
        v("policy", "DATA", "derive COAT/PCTA privacy or utility policies", &[DATA, &[
            f("privacy", OneOf(&["all", "rare", "random"]), Unset(""), "every item, items under 5% support, or random itemsets"),
            f("size", Count("N"), Value("2"), "itemset size (`random`)"),
            f("count", Count("N"), Value("50"), "itemset count (`random`)"),
            SEED,
            f("utility", OneOf(&["unconstrained", "bands"]), Unset(""), "utility-group strategy"),
            f("bands", Count("N"), Value("5"), "number of frequency bands (`bands`)"),
            OUT,
        ]], cmd::cmd_policy),
        v("evaluate", "[DATA]", "Evaluation mode: one method, fixed or swept", &[
            CONTEXT, LIMITS, METHOD, RUN, SWEEP, CHARTS,
            &[f("export-anon", Text("FILE"), Unset(""), "write the anonymized dataset")],
            COORDINATOR, LEASE,
        ], cmd::cmd_evaluate),
        v("profile", "[DATA]", "profile one run", &[CONTEXT, LIMITS, METHOD, RUN], cmd::cmd_profile),
        v("compare", "[DATA]", "Comparison mode: configurations side by side", &[
            CONTEXT, LIMITS, RUN,
            &[f("config", Text("FILE.json"), Required, "JSON array of configurations")],
            CHARTS, COORDINATOR, LEASE,
        ], cmd::cmd_compare),
        v("worker", "[DATA]", "execute the jobs of a distributed sweep", &[
            CONTEXT, LIMITS, STORE,
            &[f("sweep", Text("ID"), Unset("newest matching"), "the sweep to attach to"), TRACE_OUT],
            LEASE,
        ], worker::cmd_worker),
        v("runs list", "", "stored runs and open sweeps", &[STORE], runs::cmd_list),
        v("runs show", "KEY", "one stored run in full", &[STORE], runs::cmd_show),
        v("runs chart", "", "chart an indicator across stored runs", &[STORE, &[
            f("indicator", OneOf(&["gcp", "are", "runtime", "prosecutor", "uniqueness", "violations", "phases"]),
              Value("gcp"), "indicator to chart; `phases` draws phase bars"),
        ], CHARTS], runs::cmd_chart),
        v("runs gc", "", "drop incomplete entries", &[STORE, &[
            f("all", Switch, Unset("off"), "empty the store"),
        ]], runs::cmd_gc),
        v("runs resume", "[ID]", "finish an interrupted or degraded sweep", &[STORE, &[THREADS], LIMITS], runs::cmd_resume),
        v("runs fsck", "", "verify every stored entry", &[STORE, &[
            f("repair", Switch, Unset("off"), "quarantine corrupt entries, remove leftovers"),
        ]], runs::cmd_fsck),
        v("edit", "DATA", "apply a Dataset Editor script", &[DATA, &[
            f("script", Text("FILE.json"), Required, "JSON Dataset Editor script"),
            OUT,
        ]], cmd::cmd_edit),
        v("session", "SESSION.json", "show a saved session", &[], cmd::cmd_session),
        v("bench", "", "benchmark suites and the perf-regression gate", &[&[
            f("suite", OneOf(&bench::SUITE_NAMES), Value("kernels"), "the suite to run"),
            f("all", Switch, Unset("off"), "the gate suite (`--suite all`)"),
            f("rows", Text("N,N,..."), Unset("per suite"), "dataset sizes, run in ascending order"),
            SEED,
            THREADS,
            f("reps", Count("N"), Unset("per suite"), "repetitions per variant; the fastest is kept"),
            MEMORY_BUDGET,
            f("out", Text("FILE"), Unset("no report"), "write the report"),
            f("baseline", Text("FILE"), Unset("off"), "gate against a stored report"),
            f("gate-pct", Number("N"), Value("25"), "regression threshold of `--baseline`"),
        ]], bench::cmd_bench),
        v("help", "", "this overview", &[], help),
    ];
}

/// One verb of the binary.
pub(crate) struct Verb {
    /// `info`, `runs show`, ...
    pub name: &'static str,
    /// The positional argument as help shows it: empty when the verb
    /// takes none, in brackets when it is optional.
    pub positional: &'static str,
    pub summary: &'static str,
    /// The verb's flags, in groups that verbs share.
    pub flags: &'static [&'static [Flag]],
    /// Run the verb; returns the process exit code.
    pub run: fn(&Args) -> Result<i32, String>,
}

const fn v(
    name: &'static str,
    positional: &'static str,
    summary: &'static str,
    flags: &'static [&'static [Flag]],
    run: fn(&Args) -> Result<i32, String>,
) -> Verb {
    Verb {
        name,
        positional,
        summary,
        flags,
        run,
    }
}

impl Verb {
    /// Every flag the verb declares.
    pub fn all_flags(&self) -> impl Iterator<Item = &'static Flag> {
        self.flags.iter().flat_map(|group| group.iter())
    }

    /// The declaration of `--name`, when the verb has one.
    pub fn flag(&self, name: &str) -> Option<&'static Flag> {
        self.all_flags().find(|f| f.name == name)
    }

    /// `secreta VERB --help`: the positional and every flag.
    pub fn usage(&self) -> String {
        let pos = if self.positional.is_empty() { "" } else { " " };
        let mut out = format!(
            "usage: secreta {}{pos}{} [flags]\n{}\n\n",
            self.name, self.positional, self.summary
        );
        for flag in self.all_flags() {
            let fallback = match flag.fallback {
                Required => " (required)".to_owned(),
                Unset("") => String::new(),
                Unset(note) | Value(note) => format!(" (default: {note})"),
            };
            let _ = writeln!(out, "  {:<30} {}{fallback}", flag.syntax(), flag.help);
        }
        out + "\nSee docs/GUIDE.md for the full reference.\n"
    }
}

/// `secreta help`: every verb with its summary.
fn help(_: &Args) -> Result<i32, String> {
    println!("secreta — evaluate and compare relational & transaction anonymization algorithms\n");
    println!("usage: secreta VERB [ARG] [--flag value ...]");
    println!("       secreta VERB --help     that verb's flags\n");
    for verb in VERBS {
        println!(
            "  {:<12} {:<13} {}",
            verb.name, verb.positional, verb.summary
        );
    }
    println!("\nExit codes: 0 success, 1 fatal error, 2 malformed command line, 3 degraded.");
    println!("See docs/GUIDE.md for every verb and flag in full.");
    Ok(cmd::EXIT_OK)
}

/// A parsed command line: a verb and the values its declaration took.
pub struct Args {
    pub verb: &'static Verb,
    /// The positional argument, when given.
    pub positional: Option<String>,
    /// The given flags with their checked values (empty for a switch).
    given: Vec<(&'static Flag, String)>,
    /// `--help` was given: print the declaration instead of running.
    help: bool,
}

impl Args {
    /// Parse the tokens after argv\[0\]: the verb (`runs` takes its
    /// subcommand as the next token, `list` when none), at most one
    /// positional, and flags the verb declares with values their kinds
    /// take. `--help` anywhere stops the checks. Any other token, a
    /// missing required flag or positional, or a broken usage rule
    /// ([`cmd::check_usage`]) is a usage error.
    pub fn parse(tokens: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut tokens = tokens.into_iter().peekable();
        let mut name = tokens.next().filter(|t| t != "--help");
        if name.as_deref() == Some("runs") {
            let sub = tokens.next_if(|t| !t.starts_with("--"));
            name = Some(format!("runs {}", sub.as_deref().unwrap_or("list")));
        }
        let name = name.unwrap_or_else(|| "help".to_owned());
        let verb = VERBS.iter().find(|v| v.name == name).ok_or_else(|| {
            let near = suggest(&name, VERBS.iter().map(|v| v.name), "");
            format!("unknown command {name:?}{near}; try `secreta help`")
        })?;
        let tokens: Vec<String> = tokens.collect();
        let mut args = Args {
            verb,
            positional: None,
            given: Vec::new(),
            help: tokens.iter().any(|t| t == "--help"),
        };
        if args.help {
            return Ok(args);
        }
        let mut tokens = tokens.into_iter();
        while let Some(token) = tokens.next() {
            let Some(name) = token.strip_prefix("--") else {
                if verb.positional.is_empty() || args.positional.is_some() {
                    return Err(format!("unexpected argument {token:?} for {}", verb.name));
                }
                args.positional = Some(token);
                continue;
            };
            let flag = verb.flag(name).ok_or_else(|| {
                let near = suggest(name, verb.all_flags().map(|f| f.name), "--");
                format!("unknown flag --{name} for {}{near}", verb.name)
            })?;
            if args.given(name) {
                return Err(format!("--{name} is given twice"));
            }
            let value = match flag.kind {
                Switch => String::new(),
                _ => tokens
                    .next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("--{name} expects a value"))?,
            };
            flag.check(&value)?;
            args.given.push((flag, value));
        }
        if let Some(flag) = verb
            .all_flags()
            .find(|f| matches!(f.fallback, Required) && !args.given(f.name))
        {
            return Err(format!("{} requires --{}", verb.name, flag.name));
        }
        let optional = verb.positional.is_empty() || verb.positional.starts_with('[');
        if args.positional.is_none() && !optional {
            return Err(format!("{} requires {}", verb.name, verb.positional));
        }
        cmd::check_usage(&args)?;
        Ok(args)
    }

    /// Run the verb, or print its declaration for `--help`.
    pub fn run(&self) -> Result<i32, String> {
        if self.help {
            print!("{}", self.verb.usage());
            return Ok(cmd::EXIT_OK);
        }
        (self.verb.run)(self)
    }

    /// The given or declared value of `--name`. Reading a flag the verb
    /// does not declare is a bug: nobody can set it.
    pub fn text(&self, name: &str) -> Option<&str> {
        let flag = self.verb.flag(name);
        debug_assert!(flag.is_some(), "--{name} is undeclared");
        match self.given.iter().find(|(f, _)| f.name == name) {
            Some((_, value)) => Some(value),
            None => match flag?.fallback {
                Value(value) => Some(value),
                Required | Unset(_) => None,
            },
        }
    }

    /// Whether `--name` was given.
    pub fn given(&self, name: &str) -> bool {
        debug_assert!(self.verb.flag(name).is_some(), "--{name} is undeclared");
        self.given.iter().any(|(f, _)| f.name == name)
    }

    /// `--name` as a `T`, `None` when absent without a default.
    pub fn opt<T: FromStr>(&self, name: &str) -> Option<T> {
        let value = self.text(name)?.parse().ok();
        Some(value.expect("values are checked against their kind"))
    }

    /// `--name` as a `T`, given or declared.
    pub fn get<T: FromStr>(&self, name: &str) -> T {
        self.opt(name)
            .unwrap_or_else(|| panic!("--{name} declares no default"))
    }

    /// The entry of `values` at the position of `--name`'s value in
    /// the names its [`Kind::OneOf`] declares.
    pub fn pick<T, const N: usize>(&self, name: &str, values: [T; N]) -> T {
        let names = match self.verb.flag(name).map(|f| f.kind) {
            Some(OneOf(names)) => names,
            _ => panic!("--{name} is not a choice of {}", self.verb.name),
        };
        debug_assert_eq!(names.len(), N, "--{name} names and values differ");
        let at = names.iter().position(|n| Some(*n) == self.text(name));
        let at = at.expect("a picked choice is given or has a default");
        values.into_iter().nth(at).expect("one value per name")
    }

    /// The given flags that `group` declares, with their values.
    pub fn given_in<'a>(
        &'a self,
        group: &'a [Flag],
    ) -> impl Iterator<Item = (&'static str, &'a str)> + 'a {
        let declared = move |f: &Flag| group.iter().any(|g| g.name == f.name);
        let given = self.given.iter().filter(move |(f, _)| declared(f));
        given.map(|(f, v)| (f.name, v.as_str()))
    }

    /// The positional and the [`FORWARDED`] flags, as the tokens a
    /// spawned `secreta worker` is given.
    pub fn forward(&self) -> Vec<String> {
        let mut out: Vec<String> = self.positional.iter().cloned().collect();
        for (name, value) in FORWARDED.iter().flat_map(|g| self.given_in(g)) {
            out.push(format!("--{name}"));
            out.extend((!value.is_empty()).then(|| value.to_owned()));
        }
        out
    }

    /// The positional argument, the dataset path of most verbs.
    pub fn positional0(&self) -> Result<&str, String> {
        self.positional
            .as_deref()
            .ok_or_else(|| "missing positional argument (dataset path)".to_owned())
    }
}

/// `; did you mean PREFIX+NAME?` naming the candidate nearest to
/// `name`, when one is within a third of its length (or one edit).
fn suggest<'a>(name: &str, candidates: impl Iterator<Item = &'a str>, prefix: &str) -> String {
    let name = name.to_lowercase();
    let distance = |c: &str| {
        // Levenshtein distance over one rolling row
        let c: Vec<char> = c.chars().collect();
        let mut row: Vec<usize> = (0..=c.len()).collect();
        for (i, a) in name.chars().enumerate() {
            let mut diagonal = row[0];
            row[0] = i + 1;
            for (j, &b) in c.iter().enumerate() {
                let up = row[j + 1];
                row[j + 1] = (diagonal + usize::from(a != b)).min(row[j] + 1).min(up + 1);
                diagonal = up;
            }
        }
        row[c.len()]
    };
    candidates
        .map(|c| (distance(c), c))
        .filter(|&(d, _)| d <= (name.chars().count() / 3).max(1))
        .min()
        .map_or_else(String::new, |(_, c)| format!("; did you mean {prefix}{c}?"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(str::to_owned))
    }

    fn refusal(line: &str) -> String {
        parse(line).err().expect("refused")
    }

    /// The names `--flag` of `verb` takes.
    fn choices(verb: &str, flag: &str) -> &'static [&'static str] {
        let verb = VERBS.iter().find(|v| v.name == verb).unwrap();
        match verb.flag(flag).unwrap().kind {
            OneOf(names) => names,
            _ => panic!("--{flag} is no choice"),
        }
    }

    #[test]
    fn subcommand_positional_and_options() {
        let a = parse("evaluate data.csv --k 5 --tx Items --vary k --ascii").unwrap();
        assert_eq!(a.verb.name, "evaluate");
        assert_eq!(a.positional0().unwrap(), "data.csv");
        assert_eq!(a.text("tx"), Some("Items"));
        assert_eq!(a.get::<usize>("k"), 5);
        assert!(a.given("ascii") && !a.given("no-cache"));
        assert_eq!(a.text("session"), None);
        let show = parse("runs show 0a1b --store-dir s").unwrap();
        assert_eq!(show.verb.name, "runs show");
        assert_eq!(show.positional0().unwrap(), "0a1b");
        assert_eq!(parse("runs --store-dir s").unwrap().verb.name, "runs list");
    }

    #[test]
    fn missing_value_is_an_error() {
        for line in ["evaluate d.csv --k", "evaluate d.csv --k --m 2"] {
            assert_eq!(refusal(line), "--k expects a value");
        }
    }

    #[test]
    fn bad_integers_are_reported() {
        for (line, err) in [
            (
                "evaluate d.csv --k five",
                "--k expects an integer, got \"five\"",
            ),
            (
                "evaluate d.csv --threads 0",
                "--threads expects a positive integer, got \"0\"",
            ),
            (
                "evaluate d.csv --rho high",
                "--rho expects a number, got \"high\"",
            ),
            (
                "evaluate d.csv --mode foo",
                "--mode expects one of rel|tx|rt|rho, got \"foo\"",
            ),
            ("evaluate d.csv --k 1 --k 2", "--k is given twice"),
        ] {
            assert_eq!(refusal(line), err);
        }
    }

    #[test]
    fn defaults_apply() {
        let a = parse("evaluate d.csv").unwrap();
        assert_eq!(a.get::<usize>("k"), 7 - 2);
        assert_eq!(a.get::<u64>("seed"), 42);
        assert_eq!(a.get::<f64>("rho"), 0.5);
        assert_eq!(a.text("mode"), Some("rt"));
        assert_eq!(a.opt::<usize>("threads"), None);
        assert!(parse("generate --out g.csv")
            .unwrap()
            .positional0()
            .is_err());
        assert_eq!(refusal("generate"), "generate requires --out");
        assert_eq!(refusal("info"), "info requires DATA");
    }

    #[test]
    fn help_stops_the_checks() {
        let a = parse("evaluate --K 7 --help").unwrap();
        assert!(a.help && a.verb.name == "evaluate");
        assert!(a
            .verb
            .usage()
            .contains("--rel-algo incognito|cluster|topdown|bottomup"));
        assert_eq!(parse("--help").unwrap().verb.name, "help");
    }

    #[test]
    fn every_declaration_is_consistent() {
        for verb in VERBS {
            let mut names: Vec<&str> = verb.all_flags().map(|f| f.name).collect();
            names.sort_unstable();
            let declared = names.len();
            names.dedup();
            assert_eq!(declared, names.len(), "{} declares a flag twice", verb.name);
            for flag in verb.all_flags() {
                if let Value(value) = flag.fallback {
                    flag.check(value).unwrap();
                }
                let switch = matches!(flag.kind, Switch);
                assert!(
                    !switch || matches!(flag.fallback, Unset(_)),
                    "--{}",
                    flag.name
                );
                // a `|` would split the GUIDE's table row
                assert!(!flag.help.contains('|'), "--{}", flag.name);
            }
        }
    }

    #[test]
    fn choices_convert_in_declared_order() {
        let debug = |line: String| format!("{:?}", cmd::build_spec(&parse(&line).unwrap()));
        let spec = |line: String| debug(line).to_lowercase();
        for name in choices("evaluate", "rel-algo") {
            let s = spec(format!("evaluate d.csv --mode rel --rel-algo {name}"));
            assert!(s.contains(&format!("algo: {name},")), "{name}: {s}");
        }
        for name in choices("evaluate", "tx-algo") {
            let s = spec(format!("evaluate d.csv --mode tx --tx-algo {name}"));
            let ends = [",", " {"].map(|end| format!("algo: {name}{end}"));
            assert!(ends.iter().any(|e| s.contains(e)), "{name}: {s}");
        }
        for name in choices("evaluate", "bounding") {
            let s = spec(format!("evaluate d.csv --mode rt --bounding {name}"));
            assert!(s.contains(&format!("bounding: {name},")), "{name}: {s}");
        }
        for name in choices("evaluate", "vary") {
            let args = parse(&format!("evaluate d.csv --vary {name}")).unwrap();
            let s = format!("{:?}", cmd::parse_sweep(&args)).to_lowercase();
            assert!(s.contains(&format!("param: {name},")), "{name}: {s}");
        }
    }

    /// The GUIDE's table of one group of flags.
    fn guide_table(group: &[Flag]) -> String {
        let mut out = String::from("| Flag | Meaning | Default |\n|---|---|---|\n");
        for flag in group {
            let default = match flag.fallback {
                Required => "required".to_owned(),
                Unset("") => "—".to_owned(),
                Unset(note) => note.to_owned(),
                Value(value) => format!("`{value}`"),
            };
            let syntax = flag.syntax().replace('|', "\\|");
            let _ = writeln!(out, "| `{syntax}` | {} | {default} |", flag.help);
        }
        out
    }

    /// Every group of flags appears in docs/GUIDE.md as the table the
    /// declaration renders, so the two cannot drift.
    #[test]
    fn guide_tables_match_the_declaration() {
        let guide = include_str!("../../../docs/GUIDE.md");
        let mut tables: Vec<String> = Vec::new();
        for table in VERBS.iter().flat_map(|v| v.flags).map(|g| guide_table(g)) {
            if !tables.contains(&table) {
                tables.push(table);
            }
        }
        let missing: Vec<&String> = tables.iter().filter(|t| !guide.contains(*t)).collect();
        assert!(
            missing.is_empty(),
            "docs/GUIDE.md lacks these tables of the declaration:\n\n{}",
            missing
                .iter()
                .map(|t| t.as_str())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    /// Split one shell line into words: quotes group, `#` at a word
    /// start comments out the rest, and `;|&<>` are words of their own.
    fn shell_words(line: &str) -> Vec<String> {
        let (mut words, mut word, mut quote, mut started) =
            (Vec::new(), String::new(), None, false);
        for c in line.chars() {
            match (quote, c) {
                (Some(q), c) if c == q => quote = None,
                (Some(_), c) => word.push(c),
                (None, '"' | '\'') => {
                    quote = Some(c);
                    started = true;
                }
                (None, '#') if !started => break,
                (None, ';' | '|' | '&' | '<' | '>') | (None, ' ' | '\t') => {
                    if started {
                        words.push(std::mem::take(&mut word));
                        started = false;
                    }
                    if !c.is_whitespace() {
                        words.push(c.to_string());
                    }
                }
                (None, c) => {
                    word.push(c);
                    started = true;
                }
            }
        }
        words.extend(started.then_some(word));
        words
    }

    /// The `secreta` command lines in the shell code blocks of a
    /// markdown document, `\` continuations joined and every word
    /// holding a `$VAR` read as `1`.
    fn documented_command_lines(markdown: &str) -> Vec<Vec<String>> {
        let (mut lines, mut shell, mut line) = (Vec::new(), None, String::new());
        for raw in markdown.lines() {
            if let Some(lang) = raw.trim_start().strip_prefix("```") {
                shell = match shell {
                    None => Some(matches!(lang.trim(), "" | "sh" | "bash")),
                    Some(_) => None,
                };
                continue;
            }
            if shell != Some(true) {
                continue;
            }
            line.push_str(raw);
            if line.ends_with('\\') {
                line.pop();
                continue;
            }
            let words = shell_words(&std::mem::take(&mut line));
            let bin = |w: &String| w == "secreta" || w.ends_with("/secreta");
            if let Some(at) = words.iter().position(bin) {
                let args = words[at + 1..]
                    .iter()
                    .take_while(|w| !";|&<>".contains(w.as_str()));
                let args = args.map(|w| {
                    if w.contains('$') {
                        "1".to_owned()
                    } else {
                        w.clone()
                    }
                });
                lines.push(args.collect());
            }
        }
        lines
    }

    /// Every command line the README, the GUIDE and the verify skill
    /// show parses under the declaration; nothing runs.
    #[test]
    fn documented_command_lines_parse() {
        let docs = [
            ("README.md", include_str!("../../../README.md")),
            ("docs/GUIDE.md", include_str!("../../../docs/GUIDE.md")),
            (
                "SKILL.md",
                include_str!("../../../.claude/skills/verify/SKILL.md"),
            ),
        ];
        let mut checked = 0;
        for (doc, text) in docs {
            for line in documented_command_lines(text) {
                let shown = line.join(" ");
                if let Err(e) = Args::parse(line) {
                    panic!("{doc}: `secreta {shown}`: {e}");
                }
                checked += 1;
            }
        }
        assert!(checked > 60, "only {checked} command lines found");
    }
}
