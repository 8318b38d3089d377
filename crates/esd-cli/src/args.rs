//! Tiny hand-rolled argument parser: `--key value` pairs and positionals,
//! with typed accessors. No external dependencies.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Error produced while parsing or reading arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgsError {
    /// A `--flag` appeared at the end with no value.
    MissingValue(String),
    /// A required option or positional was absent.
    Required(&'static str),
    /// A value failed to parse into the requested type.
    BadValue {
        /// Option name.
        key: String,
        /// The raw value.
        value: String,
    },
    /// An option was given that the command does not understand.
    Unknown(String),
}

impl fmt::Display for ArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgsError::MissingValue(k) => write!(f, "option --{k} needs a value"),
            ArgsError::Required(k) => write!(f, "missing required argument {k}"),
            ArgsError::BadValue { key, value } => {
                write!(f, "invalid value {value:?} for --{key}")
            }
            ArgsError::Unknown(k) => write!(f, "unknown option --{k}"),
        }
    }
}

impl Error for ArgsError {}

/// Parsed command-line arguments.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    options: HashMap<String, String>,
    positionals: Vec<String>,
}

impl Args {
    /// Parses raw arguments (after the subcommand name).
    ///
    /// # Errors
    ///
    /// Returns [`ArgsError::MissingValue`] when a `--flag` has no value and
    /// [`ArgsError::Unknown`] when `allowed` does not contain a given key.
    pub fn parse<I: IntoIterator<Item = String>>(
        raw: I,
        allowed: &[&str],
    ) -> Result<Args, ArgsError> {
        let mut args = Args::default();
        let mut iter = raw.into_iter();
        while let Some(token) = iter.next() {
            if let Some(key) = token.strip_prefix("--") {
                if !allowed.contains(&key) {
                    return Err(ArgsError::Unknown(key.to_owned()));
                }
                let value = iter
                    .next()
                    .ok_or_else(|| ArgsError::MissingValue(key.to_owned()))?;
                args.options.insert(key.to_owned(), value);
            } else {
                args.positionals.push(token);
            }
        }
        Ok(args)
    }

    /// A string option.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// A string option with a default.
    #[must_use]
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.get(key).unwrap_or(default)
    }

    /// A typed option with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ArgsError::BadValue`] when the value does not parse.
    pub fn get_parsed_or<T: std::str::FromStr>(
        &self,
        key: &str,
        default: T,
    ) -> Result<T, ArgsError> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| ArgsError::BadValue {
                key: key.to_owned(),
                value: raw.to_owned(),
            }),
        }
    }

    /// The `i`-th positional argument.
    #[must_use]
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(String::as_str)
    }

    /// The `i`-th positional, required.
    ///
    /// # Errors
    ///
    /// Returns [`ArgsError::Required`] when absent.
    pub fn required_positional(&self, i: usize, name: &'static str) -> Result<&str, ArgsError> {
        self.positional(i).ok_or(ArgsError::Required(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str], allowed: &[&str]) -> Result<Args, ArgsError> {
        Args::parse(tokens.iter().map(|s| (*s).to_owned()), allowed)
    }

    #[test]
    fn options_and_positionals() {
        let args = parse(
            &["file.trace", "--scheme", "esd", "--accesses", "100"],
            &["scheme", "accesses"],
        )
        .unwrap();
        assert_eq!(args.positional(0), Some("file.trace"));
        assert_eq!(args.get("scheme"), Some("esd"));
        assert_eq!(args.get_parsed_or("accesses", 0usize).unwrap(), 100);
        assert_eq!(args.get_parsed_or("seed", 42u64).unwrap(), 42);
    }

    #[test]
    fn unknown_option_is_rejected() {
        assert_eq!(
            parse(&["--bogus", "x"], &["scheme"]),
            Err(ArgsError::Unknown("bogus".to_owned()))
        );
    }

    #[test]
    fn missing_value_is_rejected() {
        assert_eq!(
            parse(&["--scheme"], &["scheme"]),
            Err(ArgsError::MissingValue("scheme".to_owned()))
        );
    }

    #[test]
    fn bad_value_is_reported() {
        let args = parse(&["--accesses", "lots"], &["accesses"]).unwrap();
        assert!(matches!(
            args.get_parsed_or("accesses", 0usize),
            Err(ArgsError::BadValue { .. })
        ));
    }

    #[test]
    fn required_positional_errors_when_absent() {
        let args = parse(&[], &[]).unwrap();
        assert_eq!(
            args.required_positional(0, "trace"),
            Err(ArgsError::Required("trace"))
        );
        assert!(!ArgsError::Required("trace").to_string().is_empty());
    }
}
