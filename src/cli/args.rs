//! Minimal `--flag value` argument parser (no external dependencies).

use std::collections::BTreeMap;

/// Parsed command line: a command path plus `--key value` flags and
/// `--switch`es.
#[derive(Clone, Debug, Default)]
pub struct Args {
    /// One word, or two where the command table nests (`paper fig9`),
    /// separated by a space.
    pub command: String,
    /// Each flag with its value; `None` for one given bare.
    flags: BTreeMap<String, Option<String>>,
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
    /// Parse `argv[1..]`: the command path — a first word, and a second
    /// where the command table nests under the first — then `--key value`
    /// pairs and bare `--switch`es. A flag given twice is an error.
    pub fn parse(argv: &[String]) -> Result<Args, ArgError> {
        let mut it = argv.iter().peekable();
        let mut command = it
            .next()
            .ok_or_else(|| ArgError("missing subcommand".into()))?
            .clone();
        if crate::cli::commands::nests(&command) {
            if let Some(word) = it.next_if(|w| !w.starts_with("--")) {
                command = format!("{command} {word}");
            }
        }
        let mut flags = BTreeMap::new();
        while let Some(word) = it.next() {
            let key = word
                .strip_prefix("--")
                .ok_or_else(|| ArgError(format!("expected --flag, got '{word}'")))?;
            let value = it.next_if(|v| !v.starts_with("--")).cloned();
            if flags.insert(key.to_string(), value).is_some() {
                return Err(ArgError(format!("--{key} given more than once")));
            }
        }
        Ok(Args { command, flags })
    }

    /// Every flag given, without its `--`, with its value if it has one.
    pub fn flags(&self) -> impl Iterator<Item = (&str, Option<&str>)> {
        self.flags.iter().map(|(k, v)| (k.as_str(), v.as_deref()))
    }

    /// The value of `--key`, if given one.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key)?.as_deref()
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

    /// Whether the switch `--key` was given.
    pub fn bool(&self, key: &str) -> bool {
        self.flags.contains_key(key)
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

    #[test]
    fn a_second_word_only_where_the_table_nests() {
        let a = Args::parse(&argv("paper table1 --metrics m.json")).unwrap();
        assert_eq!(a.command, "paper table1");
        assert_eq!(a.get("metrics"), Some("m.json"));
        assert_eq!(Args::parse(&argv("paper")).unwrap().command, "paper");
        assert!(Args::parse(&argv("paper fig9 stray")).is_err());
    }

    #[test]
    fn a_repeated_flag_is_an_error() {
        let e = Args::parse(&argv("fit --tile 64 --data d.csv --tile 128")).unwrap_err();
        assert!(e.0.contains("--tile"), "{e}");
        assert!(Args::parse(&argv("fit --se --se")).is_err());
    }
}
