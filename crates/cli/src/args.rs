//! Minimal argument parsing for the `wfsm` binary (no external deps).

use std::collections::BTreeMap;
use std::fmt::Display;
use std::str::FromStr;

/// A parsed command line: subcommand, `--key value` options, positionals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParsedArgs {
    pub command: String,
    pub options: BTreeMap<String, String>,
    pub flags: Vec<String>,
    pub positional: Vec<String>,
}

impl ParsedArgs {
    /// Parses `args` (without the program name). The first non-flag token
    /// is the subcommand; `--key value` pairs become options; `--flag`
    /// followed by another `--` token or nothing becomes a boolean flag.
    /// An option or flag given twice is an error.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<ParsedArgs, String> {
        let mut parsed = ParsedArgs::default();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            if let Some(key) = arg.strip_prefix("--") {
                if key.is_empty() {
                    return Err("empty option name '--'".into());
                }
                if parsed.options.contains_key(key) || parsed.flag(key) {
                    return Err(format!("option --{key} given more than once"));
                }
                match iter.peek() {
                    Some(next) if !next.starts_with("--") => {
                        let value = iter.next().expect("peeked");
                        parsed.options.insert(key.to_string(), value);
                    }
                    _ => parsed.flags.push(key.to_string()),
                }
            } else if parsed.command.is_empty() {
                parsed.command = arg;
            } else {
                parsed.positional.push(arg);
            }
        }
        Ok(parsed)
    }

    /// The value of an option.
    pub fn opt(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// A required option, with a helpful error.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.opt(key)
            .ok_or_else(|| format!("missing required option --{key}"))
    }

    /// True when a boolean flag was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// An option parsed as `T`, if given: `bad --NAME: …` when it does not
    /// parse.
    pub fn parse_opt<T: FromStr<Err: Display>>(&self, name: &str) -> Result<Option<T>, String> {
        self.opt(name)
            .map(|v| v.parse().map_err(|e| format!("bad --{name}: {e}")))
            .transpose()
    }

    /// An option parsed as `T`, or `default` when absent.
    pub fn parse_or<T: FromStr<Err: Display>>(&self, name: &str, default: T) -> Result<T, String> {
        Ok(self.parse_opt(name)?.unwrap_or(default))
    }

    /// [`ParsedArgs::parse_or`] for a count or rate that must be at least 1.
    pub fn positive_or<T>(&self, name: &str, default: T) -> Result<T, String>
    where
        T: FromStr<Err: Display> + PartialOrd + From<u8>,
    {
        let value = self.parse_or(name, default)?;
        if value < T::from(1u8) {
            return Err(format!("--{name} must be at least 1"));
        }
        Ok(value)
    }

    /// Splits a comma-separated option value.
    pub fn opt_list(&self, key: &str) -> Vec<String> {
        self.opt(key)
            .map(|v| {
                v.split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect()
            })
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> ParsedArgs {
        ParsedArgs::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn command_and_options() {
        let p = parse(&["analyze", "--subjects", "Canon,Nikon", "--file", "x.txt"]);
        assert_eq!(p.command, "analyze");
        assert_eq!(p.opt("subjects"), Some("Canon,Nikon"));
        assert_eq!(p.opt("file"), Some("x.txt"));
    }

    #[test]
    fn flags_without_values() {
        let p = parse(&["query", "--json", "--subject", "Canon"]);
        assert!(p.flag("json"));
        assert_eq!(p.opt("subject"), Some("Canon"));
        assert!(!p.flag("missing"));
    }

    #[test]
    fn positionals() {
        let p = parse(&["features", "dplus.txt", "dminus.txt"]);
        assert_eq!(p.positional, vec!["dplus.txt", "dminus.txt"]);
    }

    #[test]
    fn comma_lists() {
        let p = parse(&["analyze", "--subjects", "a, b ,,c"]);
        assert_eq!(p.opt_list("subjects"), vec!["a", "b", "c"]);
        assert!(p.opt_list("absent").is_empty());
    }

    #[test]
    fn require_reports_missing() {
        let p = parse(&["analyze"]);
        assert!(p.require("subjects").unwrap_err().contains("--subjects"));
    }

    #[test]
    fn consecutive_flags() {
        let p = parse(&["mine", "--verbose", "--json"]);
        assert!(p.flag("verbose"));
        assert!(p.flag("json"));
    }

    #[test]
    fn empty_input() {
        let p = parse(&[]);
        assert!(p.command.is_empty());
    }

    #[test]
    fn repeated_option_or_flag_is_error() {
        for tokens in [
            &["gen-corpus", "--docs", "1", "--docs", "3"][..],
            &["serve", "--docs", "1", "--docs"],
            &["doctor", "--format", "json", "--json", "--json"],
        ] {
            let err = ParsedArgs::parse(tokens.iter().map(|s| s.to_string())).unwrap_err();
            let key = if tokens.contains(&"--json") {
                "--json"
            } else {
                "--docs"
            };
            assert_eq!(err, format!("option {key} given more than once"));
        }
    }

    #[test]
    fn bare_double_dash_is_error() {
        assert!(ParsedArgs::parse(vec!["--".to_string()]).is_err());
    }
}
