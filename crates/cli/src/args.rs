//! Minimal argument parsing for the `secreta` binary.
//!
//! Flags are `--name value` (or `--flag` for booleans); the first
//! non-flag token is the subcommand, the second (when present) a
//! positional path. No external parser dependency — the surface is
//! small and fixed.

use std::collections::BTreeMap;

/// Parsed command line.
#[derive(Debug, Default)]
pub struct Args {
    /// Subcommand name.
    pub command: String,
    /// Positional arguments after the subcommand.
    pub positional: Vec<String>,
    /// `--key value` options (booleans store "true").
    pub options: BTreeMap<String, String>,
}

/// Boolean flags (no value follows them).
const BOOL_FLAGS: &[&str] = &[
    "help",
    "ascii",
    "verify",
    "no-cache",
    "all",
    "repair",
    "distributed",
];

impl Args {
    /// Parse from an iterator of tokens (excluding argv\[0\]).
    pub fn parse(tokens: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args::default();
        let mut it = tokens.peekable();
        while let Some(tok) = it.next() {
            if let Some(name) = tok.strip_prefix("--") {
                if BOOL_FLAGS.contains(&name) {
                    args.options.insert(name.to_owned(), "true".to_owned());
                } else {
                    let value = it
                        .next()
                        .ok_or_else(|| format!("--{name} expects a value"))?;
                    args.options.insert(name.to_owned(), value);
                }
            } else if args.command.is_empty() {
                args.command = tok;
            } else {
                args.positional.push(tok);
            }
        }
        Ok(args)
    }

    /// Required string option.
    pub fn req(&self, name: &str) -> Result<&str, String> {
        self.options
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required option --{name}"))
    }

    /// Optional string option.
    pub fn opt(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// Optional usize with default.
    pub fn usize_or(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.options.get(name) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} expects an integer, got {v:?}")),
            None => Ok(default),
        }
    }

    /// Optional u64 with default.
    pub fn u64_or(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.options.get(name) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} expects an integer, got {v:?}")),
            None => Ok(default),
        }
    }

    /// Boolean flag presence.
    pub fn flag(&self, name: &str) -> bool {
        self.options.get(name).map(String::as_str) == Some("true")
    }

    /// Re-render the positionals and options as command-line tokens,
    /// skipping the options named in `exclude` — how the distributed
    /// coordinator forwards its session arguments to spawned
    /// `secreta worker` processes.
    pub fn forward(&self, exclude: &[&str]) -> Vec<String> {
        let mut out: Vec<String> = self.positional.clone();
        for (k, v) in &self.options {
            if exclude.contains(&k.as_str()) {
                continue;
            }
            out.push(format!("--{k}"));
            if !BOOL_FLAGS.contains(&k.as_str()) {
                out.push(v.clone());
            }
        }
        out
    }

    /// First positional argument.
    pub fn positional0(&self) -> Result<&str, String> {
        self.positional
            .first()
            .map(String::as_str)
            .ok_or_else(|| "missing positional argument (dataset path)".to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(str::to_owned)).unwrap()
    }

    #[test]
    fn subcommand_positional_and_options() {
        let a = parse("evaluate data.csv --k 5 --tx Items --ascii");
        assert_eq!(a.command, "evaluate");
        assert_eq!(a.positional0().unwrap(), "data.csv");
        assert_eq!(a.req("k").unwrap(), "5");
        assert_eq!(a.usize_or("k", 1).unwrap(), 5);
        assert!(a.flag("ascii"));
        assert!(!a.flag("verify"));
        assert_eq!(a.opt("missing"), None);
    }

    #[test]
    fn missing_value_is_an_error() {
        let err = Args::parse(["evaluate", "--k"].iter().map(|s| s.to_string()));
        assert!(err.is_err());
    }

    #[test]
    fn bad_integers_are_reported() {
        let a = parse("x --k five");
        assert!(a.usize_or("k", 1).is_err());
        assert!(a.u64_or("k", 1).is_err());
    }

    #[test]
    fn defaults_apply() {
        let a = parse("x");
        assert_eq!(a.usize_or("k", 7).unwrap(), 7);
        assert_eq!(a.u64_or("seed", 9).unwrap(), 9);
        assert!(a.req("k").is_err());
        assert!(a.positional0().is_err());
    }
}
