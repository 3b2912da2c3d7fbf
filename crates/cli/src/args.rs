//! Flag parsing for the `chameleon` CLI (dependency-free).
//!
//! Strictness contract: a flag given twice is a parse error, and every
//! subcommand declares the flags it accepts ([`Cli::expect_flags`]) so a
//! misspelled or misplaced `--flag` fails with a message listing the valid
//! ones instead of being silently ignored.

use std::collections::HashMap;

/// Parsed command line: a subcommand, positional operands, `--flag value`
/// pairs and bare `--switch`es.
#[derive(Debug, Clone, Default)]
pub struct Cli {
    command: Option<String>,
    flags: HashMap<String, String>,
    switches: Vec<String>,
    positional: Vec<String>,
    /// Every argument except the subcommand, in order.
    flag_args: Vec<String>,
}

impl Cli {
    /// Parses process arguments (program name skipped).
    ///
    /// # Errors
    /// Returns a message on duplicated flags.
    pub fn from_env() -> Result<Self, String> {
        Self::parse(std::env::args().skip(1))
    }

    /// Parses an explicit argument iterator. The first non-flag token is
    /// the subcommand.
    ///
    /// # Errors
    /// Returns a message when the same `--flag` appears more than once
    /// (in either value or switch form).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut out = Cli::default();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            if out.command.is_some() || arg.starts_with("--") {
                out.flag_args.push(arg.clone());
            }
            if let Some(name) = arg.strip_prefix("--") {
                let (key, value) = if let Some((k, v)) = name.split_once('=') {
                    (k.to_string(), Some(v.to_string()))
                } else if iter
                    .peek()
                    .map(|next| !next.starts_with("--"))
                    .unwrap_or(false)
                {
                    let value = iter.next().expect("peeked");
                    out.flag_args.push(value.clone());
                    (name.to_string(), Some(value))
                } else {
                    (name.to_string(), None)
                };
                let seen = out.flags.contains_key(&key) || out.switches.iter().any(|s| s == &key);
                if seen {
                    return Err(format!("duplicate flag --{key}"));
                }
                match value {
                    Some(v) => {
                        out.flags.insert(key, v);
                    }
                    None => out.switches.push(key),
                }
            } else if out.command.is_none() {
                out.command = Some(arg);
            } else {
                out.positional.push(arg);
            }
        }
        Ok(out)
    }

    /// The subcommand, if any.
    pub fn command(&self) -> Option<&str> {
        self.command.as_deref()
    }

    /// Every argument except the subcommand, for subcommands that parse
    /// their own flags.
    pub fn flag_args(&self) -> &[String] {
        &self.flag_args
    }

    /// Positional operands after the subcommand.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// Rejects any flag or switch not in `allowed`. The global `--metrics`
    /// flag is always accepted; call this once per subcommand before
    /// reading flags so typos fail loudly instead of falling back to
    /// defaults.
    ///
    /// # Errors
    /// Returns a message naming the unknown flag and listing the valid
    /// ones.
    pub fn expect_flags(&self, allowed: &[&str]) -> Result<(), String> {
        let known = |name: &str| name == "metrics" || allowed.contains(&name);
        let unknown = self
            .flags
            .keys()
            .map(String::as_str)
            .chain(self.switches.iter().map(String::as_str))
            .find(|name| !known(name));
        match unknown {
            None => Ok(()),
            Some(name) => {
                let mut expected: Vec<&str> = allowed.to_vec();
                expected.sort_unstable();
                let listing = if expected.is_empty() {
                    "only the global --metrics".to_string()
                } else {
                    format!(
                        "--metrics and {}",
                        expected
                            .iter()
                            .map(|f| format!("--{f}"))
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                };
                Err(format!(
                    "unknown flag --{name} for {:?} (valid flags: {listing})",
                    self.command.as_deref().unwrap_or("")
                ))
            }
        }
    }

    /// Typed flag with default.
    ///
    /// # Errors
    /// Returns a message naming the flag on parse failure.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("invalid value {raw:?} for --{name}")),
        }
    }

    /// Required flag.
    ///
    /// # Errors
    /// Returns a message when the flag is missing or unparsable.
    pub fn require<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        match self.flags.get(name) {
            None => Err(format!("missing required flag --{name}")),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("invalid value {raw:?} for --{name}")),
        }
    }

    /// True when `--name` was given (as switch or with a value).
    #[allow(dead_code)] // part of the parser's public surface; used in tests
    pub fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name) || self.flags.contains_key(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Cli {
        Cli::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn subcommand_and_operands() {
        let c = parse(&["anonymize", "in.txt", "out.txt", "--k", "20"]);
        assert_eq!(c.command(), Some("anonymize"));
        assert_eq!(
            c.positional(),
            &["in.txt".to_string(), "out.txt".to_string()]
        );
        assert_eq!(c.get("k", 0usize).unwrap(), 20);
    }

    #[test]
    fn require_reports_missing() {
        let c = parse(&["check"]);
        assert!(c.require::<usize>("k").unwrap_err().contains("--k"));
    }

    #[test]
    fn invalid_value_is_error_not_panic() {
        let c = parse(&["check", "--k", "abc"]);
        assert!(c.get("k", 1usize).is_err());
    }

    #[test]
    fn empty_command_line() {
        let c = parse(&[]);
        assert_eq!(c.command(), None);
        assert!(c.positional().is_empty());
    }

    #[test]
    fn switches() {
        let c = parse(&["stats", "g.txt", "--verbose"]);
        assert!(c.has("verbose"));
        assert!(!c.has("quiet"));
    }

    #[test]
    fn duplicate_flag_is_an_error() {
        let err = Cli::parse(
            ["check", "--k", "2", "--k", "3"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap_err();
        assert!(err.contains("duplicate flag --k"), "{err}");
        // Equals form and switch form collide with value form too.
        assert!(Cli::parse(["check", "--k=2", "--k", "3"].iter().map(|s| s.to_string())).is_err());
        assert!(Cli::parse(
            ["stats", "--verbose", "--verbose"]
                .iter()
                .map(|s| s.to_string())
        )
        .is_err());
    }

    #[test]
    fn unknown_flag_is_rejected_with_the_valid_list() {
        let c = parse(&["check", "g.txt", "--kk", "2"]);
        let err = c.expect_flags(&["k", "epsilon"]).unwrap_err();
        assert!(err.contains("--kk"), "{err}");
        assert!(err.contains("--epsilon"), "{err}");
        assert!(err.contains("--metrics"), "{err}");
    }

    #[test]
    fn expect_flags_accepts_known_and_global_metrics() {
        let c = parse(&["check", "g.txt", "--k", "2", "--metrics", "m.json"]);
        assert!(c.expect_flags(&["k", "epsilon"]).is_ok());
    }

    #[test]
    fn unknown_switch_is_rejected_too() {
        let c = parse(&["stats", "g.txt", "--fast"]);
        assert!(c.expect_flags(&[]).unwrap_err().contains("--fast"));
    }
}
