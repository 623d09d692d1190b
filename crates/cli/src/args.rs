//! Minimal argument parsing for the `dpr` CLI: a subcommand followed by
//! `--key value` options and positional arguments. No external parser
//! dependency — the surface is small and the error messages are ours.

use std::collections::HashMap;

/// Parsed command line: subcommand, positionals, options.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The subcommand (first non-flag argument).
    pub command: String,
    /// Positional arguments after the subcommand.
    pub positional: Vec<String>,
    /// `--key value` and bare `--flag` (value `"true"`).
    pub options: HashMap<String, String>,
}

impl Args {
    /// Parses an iterator of raw arguments (without the binary name).
    #[must_use]
    pub fn parse(raw: impl Iterator<Item = String>) -> Self {
        let mut out = Args::default();
        let mut raw = raw.peekable();
        while let Some(a) = raw.next() {
            if let Some(key) = a.strip_prefix("--") {
                let value = match raw.peek() {
                    Some(v) if !v.starts_with("--") => raw.next().unwrap(),
                    _ => "true".to_string(),
                };
                out.options.insert(key.to_string(), value);
            } else if out.command.is_empty() {
                out.command = a;
            } else {
                out.positional.push(a);
            }
        }
        out
    }

    /// Rejects every option not named in `known` (space-separated), so a
    /// misspelled or retired flag fails the command instead of being
    /// silently ignored.
    ///
    /// # Errors
    /// Names the first unknown option (in sorted order, so the message is
    /// deterministic).
    pub fn expect_only(&self, known: &str) -> Result<(), String> {
        let known: Vec<&str> = known.split_whitespace().collect();
        let mut unknown: Vec<&str> =
            self.options.keys().map(String::as_str).filter(|k| !known.contains(k)).collect();
        unknown.sort_unstable();
        match unknown.first() {
            None => Ok(()),
            Some(k) => Err(format!("unknown option --{k} for `{}`", self.command)),
        }
    }

    /// Typed option lookup: `None` when absent.
    ///
    /// # Errors
    /// When the option is present but its value does not parse as `T`.
    pub fn get_opt<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.options
            .get(key)
            .map(|v| v.parse().map_err(|_| format!("bad value `{v}` for --{key}")))
            .transpose()
    }

    /// Typed option lookup with a default for an absent option.
    ///
    /// # Errors
    /// When the option is present but its value does not parse as `T`.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        Ok(self.get_opt(key)?.unwrap_or(default))
    }

    /// String option lookup.
    #[must_use]
    pub fn get_str<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.options.get(key).map_or(default, String::as_str)
    }

    /// Whether a bare flag was passed.
    ///
    /// # Errors
    /// When the flag was given a value (`--net graph.txt` would otherwise
    /// swallow the positional argument).
    pub fn flag(&self, key: &str) -> Result<bool, String> {
        match self.options.get(key).map(String::as_str) {
            None => Ok(false),
            Some("true") => Ok(true),
            Some(v) => Err(format!("--{key} is a flag and takes no value (got `{v}`)")),
        }
    }

    /// The `i`-th positional argument, or an error message naming it.
    pub fn positional(&self, i: usize, name: &str) -> Result<&str, String> {
        self.positional
            .get(i)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required argument <{name}>"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> Args {
        Args::parse(s.iter().map(ToString::to_string))
    }

    #[test]
    fn command_positional_options() {
        let a = parse(&["rank", "graph.txt", "--top", "5", "--accelerated"]);
        assert_eq!(a.command, "rank");
        assert_eq!(a.positional(0, "graph").unwrap(), "graph.txt");
        assert_eq!(a.get("top", 0usize), Ok(5));
        assert_eq!(a.flag("accelerated"), Ok(true));
        assert_eq!(a.flag("absent"), Ok(false));
    }

    #[test]
    fn missing_positional_reports_name() {
        let a = parse(&["stats"]);
        let err = a.positional(0, "graph").unwrap_err();
        assert!(err.contains("<graph>"));
    }

    #[test]
    fn defaults_apply() {
        let a = parse(&["plan"]);
        assert_eq!(a.get("rankers", 1000u64), Ok(1000));
        assert_eq!(a.get_str("strategy", "site"), "site");
    }

    #[test]
    fn malformed_values_and_unknown_options_are_errors() {
        let a = parse(&["generate", "--pages", "2k", "--binary", "--sitez", "4"]);
        assert_eq!(a.get("pages", 50_000usize).unwrap_err(), "bad value `2k` for --pages");
        assert_eq!(a.get_opt::<u32>("seed"), Ok(None));
        assert_eq!(
            a.expect_only("pages binary").unwrap_err(),
            "unknown option --sitez for `generate`"
        );
        assert!(a.expect_only("pages binary sitez").is_ok());
        let b = parse(&["simulate", "--net", "graph.txt"]);
        assert!(b.flag("net").unwrap_err().contains("takes no value"));
    }

    #[test]
    fn empty_input() {
        let a = parse(&[]);
        assert!(a.command.is_empty());
    }
}
