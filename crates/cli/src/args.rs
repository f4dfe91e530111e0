//! Minimal `--key value` argument parser.

use std::collections::BTreeMap;

/// Parsed flags.
#[derive(Debug, Clone, Default)]
pub struct Args {
    map: BTreeMap<String, String>,
}

impl Args {
    /// Parse `--key value` pairs; bare `--flag` (no value) stores `"true"`.
    pub fn parse(argv: &[String]) -> Result<Self, String> {
        let mut map = BTreeMap::new();
        let mut i = 0;
        while i < argv.len() {
            let key = &argv[i];
            let Some(name) = key.strip_prefix("--") else {
                return Err(format!("expected a --flag, got `{key}`"));
            };
            if name.is_empty() {
                return Err("empty flag name".into());
            }
            let has_value = i + 1 < argv.len() && !argv[i + 1].starts_with("--");
            if has_value {
                map.insert(name.to_string(), argv[i + 1].clone());
                i += 2;
            } else {
                map.insert(name.to_string(), "true".into());
                i += 1;
            }
        }
        Ok(Self { map })
    }

    /// String value with a default.
    pub fn get_str(&self, key: &str, default: &str) -> String {
        self.map
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// Typed value with a default; errors on unparsable input.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.map.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value `{v}` for --{key}")),
        }
    }

    /// Every flag given, without its `--`.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.map.keys().map(String::as_str)
    }

    /// True when the flag is present (with any value other than "false").
    pub fn flag(&self, key: &str) -> bool {
        self.map.get(key).is_some_and(|v| v != "false")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_pairs_and_bare_flags() {
        let a = Args::parse(&s(&["--nodes", "10", "--verbose", "--seed", "3"])).unwrap();
        assert_eq!(a.get::<usize>("nodes", 0).unwrap(), 10);
        assert_eq!(a.get::<u64>("seed", 0).unwrap(), 3);
        assert!(a.flag("verbose"));
        assert!(!a.flag("quiet"));
    }

    #[test]
    fn defaults_apply_when_missing() {
        let a = Args::parse(&[]).unwrap();
        assert_eq!(a.get::<usize>("users", 40).unwrap(), 40);
        assert_eq!(a.get_str("algo", "socl"), "socl");
    }

    #[test]
    fn rejects_positional_arguments() {
        assert!(Args::parse(&s(&["positional"])).is_err());
    }

    #[test]
    fn rejects_bad_typed_values() {
        let a = Args::parse(&s(&["--users", "many"])).unwrap();
        assert!(a.get::<usize>("users", 1).is_err());
    }

    #[test]
    fn negative_numbers_are_values_not_flags() {
        // "-5" does not start with "--", so it binds as a value.
        let a = Args::parse(&s(&["--delta", "-5"])).unwrap();
        assert_eq!(a.get::<i32>("delta", 0).unwrap(), -5);
    }
}
