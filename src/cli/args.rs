//! Minimal `--flag value` argument parser (no external dependencies).

use std::collections::BTreeMap;

/// Parsed command line: a subcommand plus `--key value` flags.
#[derive(Clone, Debug, Default)]
pub struct Args {
    pub command: String,
    flags: BTreeMap<String, String>,
}

/// Parse errors carry a human-oriented message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parse `argv[1..]`: first token is the subcommand, the rest
    /// `--key value` pairs (`--key` alone is a boolean `true`).
    pub fn parse(argv: &[String]) -> Result<Args, ArgError> {
        let mut it = argv.iter();
        let command = it
            .next()
            .ok_or_else(|| ArgError("missing subcommand".into()))?
            .clone();
        let mut flags = BTreeMap::new();
        let rest: Vec<&String> = it.collect();
        let mut i = 0;
        while i < rest.len() {
            let key = rest[i]
                .strip_prefix("--")
                .ok_or_else(|| ArgError(format!("expected --flag, got '{}'", rest[i])))?;
            if i + 1 < rest.len() && !rest[i + 1].starts_with("--") {
                flags.insert(key.to_string(), rest[i + 1].clone());
                i += 2;
            } else {
                flags.insert(key.to_string(), "true".to_string());
                i += 1;
            }
        }
        Ok(Args { command, flags })
    }

    /// Every flag given, without its `--`.
    pub fn flags(&self) -> impl Iterator<Item = &str> {
        self.flags.keys().map(String::as_str)
    }

    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    pub fn str_or(&self, key: &str, default: &str) -> String {
        self.get(key).unwrap_or(default).to_string()
    }

    pub fn usize_or(&self, key: &str, default: usize) -> Result<usize, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("--{key} expects an integer, got '{v}'"))),
        }
    }

    pub fn f64_or(&self, key: &str, default: f64) -> Result<f64, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("--{key} expects a number, got '{v}'"))),
        }
    }

    pub fn bool(&self, key: &str) -> bool {
        matches!(self.get(key), Some("true") | Some("1") | Some("yes"))
    }

    /// Comma-separated float list.
    pub fn f64_list(&self, key: &str) -> Result<Option<Vec<f64>>, ArgError> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v
                .split(',')
                .map(|s| {
                    s.trim()
                        .parse()
                        .map_err(|_| ArgError(format!("--{key}: bad number '{s}'")))
                })
                .collect::<Result<Vec<f64>, _>>()
                .map(Some),
        }
    }

    /// Required flag.
    pub fn require(&self, key: &str) -> Result<&str, ArgError> {
        self.get(key)
            .ok_or_else(|| ArgError(format!("missing required flag --{key}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_command_and_flags() {
        let a = Args::parse(&argv("fit --n 100 --kernel matern --uncertainty")).unwrap();
        assert_eq!(a.command, "fit");
        assert_eq!(a.usize_or("n", 0).unwrap(), 100);
        assert_eq!(a.get("kernel"), Some("matern"));
        assert!(a.bool("uncertainty"));
        assert!(!a.bool("absent"));
    }

    #[test]
    fn defaults_apply() {
        let a = Args::parse(&argv("simulate")).unwrap();
        assert_eq!(a.usize_or("n", 42).unwrap(), 42);
        assert_eq!(a.f64_or("domain", 1.5).unwrap(), 1.5);
        assert_eq!(a.str_or("kernel", "matern"), "matern");
    }

    #[test]
    fn float_lists() {
        let a = Args::parse(&argv("fit --params 1.0,0.1,0.5")).unwrap();
        assert_eq!(a.f64_list("params").unwrap().unwrap(), vec![1.0, 0.1, 0.5]);
        assert!(a.f64_list("missing").unwrap().is_none());
        let bad = Args::parse(&argv("fit --params 1.0,x")).unwrap();
        assert!(bad.f64_list("params").is_err());
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(Args::parse(&[]).is_err());
        let a = Args::parse(&argv("fit --n ten")).unwrap();
        let e = a.usize_or("n", 0).unwrap_err();
        assert!(e.0.contains("--n"));
        let a2 = Args::parse(&argv("fit")).unwrap();
        assert!(a2.require("data").is_err());
    }

    #[test]
    fn rejects_positional_garbage() {
        assert!(Args::parse(&argv("fit stray")).is_err());
    }
}
