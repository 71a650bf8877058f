//! The command-line parser of the four binaries (`sweep`, `trace`, `obs`
//! and `paper`).
//!
//! A command line is boolean flags (`--progress`), `--key value` options
//! and positionals. The caller names its flags; every other `--key` takes
//! the next argument as its value, whatever it looks like. The caller then
//! takes out what it uses ([`Args::flag`], [`Args::take`],
//! [`Args::take_parsed`], [`Args::positionals`]), and [`Args::finish`]
//! rejects whatever is left, so an option a mode does not use is an error
//! instead of being ignored. Every error goes through [`die`]: one line on
//! stderr, exit status 2.
//!
//! ```
//! use mithril_runner::cli::Args;
//!
//! let raw = ["--threads", "4", "--progress", "in.json", "--out", "a", "--out", "b"];
//! let mut args = Args::parse(raw.map(String::from), &["progress"]);
//! assert!(args.flag("progress"));
//! assert_eq!(args.take_parsed::<usize>("threads"), Some(4));
//! assert_eq!(args.take("out").as_deref(), Some("b")); // the last one wins
//! assert_eq!(args.positionals(), ["in.json"]);
//! args.finish();
//! ```

use std::fmt::Display;
use std::path::Path;
use std::str::FromStr;

/// A parsed command line, emptied by the caller's take-outs.
#[derive(Debug)]
pub struct Args {
    /// The flags given, without their `--`.
    flags: Vec<String>,
    /// `(key, value)` in command-line order; `None` is a trailing option
    /// with no value, an error once it is taken.
    options: Vec<(String, Option<String>)>,
    positionals: Vec<String>,
}

impl Args {
    /// Parses `raw` (without the program name). `flags` names the boolean
    /// flags, without their `--`.
    pub fn parse(raw: impl IntoIterator<Item = String>, flags: &[&str]) -> Self {
        let mut args = Self {
            flags: Vec::new(),
            options: Vec::new(),
            positionals: Vec::new(),
        };
        let mut raw = raw.into_iter();
        while let Some(arg) = raw.next() {
            match arg.strip_prefix("--") {
                Some(key) if flags.contains(&key) => args.flags.push(key.to_string()),
                Some(key) => args.options.push((key.to_string(), raw.next())),
                None => args.positionals.push(arg),
            }
        }
        args
    }

    /// Parses the process's own arguments.
    pub fn from_env(flags: &[&str]) -> Self {
        Self::parse(std::env::args().skip(1), flags)
    }

    /// Takes out flag `--name`: true when it was given.
    pub fn flag(&mut self, name: &str) -> bool {
        let before = self.flags.len();
        self.flags.retain(|f| f != name);
        self.flags.len() < before
    }

    /// Takes out option `--key`: its value, the last one when it was given
    /// more than once. Dies when it has no value.
    pub fn take(&mut self, key: &str) -> Option<String> {
        let mut value = None;
        self.options.retain(|(k, v)| {
            if k == key {
                value = Some(v.clone());
            }
            k != key
        });
        value.map(|v| v.unwrap_or_else(|| die(format!("--{key} needs a value"))))
    }

    /// [`Args::take`], parsed as a `T`. Dies on a value that does not parse.
    pub fn take_parsed<T: FromStr>(&mut self, key: &str) -> Option<T> {
        self.take(key).map(|v| {
            v.parse()
                .unwrap_or_else(|_| die(format!("invalid value {v:?} for --{key}")))
        })
    }

    /// Takes out the positionals, in order.
    pub fn positionals(&mut self) -> Vec<String> {
        std::mem::take(&mut self.positionals)
    }

    /// Dies naming the first argument nobody took out.
    pub fn finish(self) {
        if let Some(flag) = self.flags.first() {
            die(format!("--{flag} does not apply to this command"));
        }
        if let Some((key, _)) = self.options.first() {
            die(format!("unknown option --{key}"));
        }
        if let Some(arg) = self.positionals.first() {
            die(format!("unexpected argument {arg:?}"));
        }
    }
}

/// Prints `<program>: <msg>` on stderr and exits with status 2, the status
/// of every usage and operational error of the binaries.
pub fn die(msg: impl Display) -> ! {
    let argv0 = std::env::args().next().unwrap_or_default();
    let program = Path::new(&argv0)
        .file_stem()
        .map_or(argv0.as_str().into(), |s| s.to_string_lossy());
    eprintln!("{program}: {msg}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_value_is_the_next_argument_whatever_it_looks_like() {
        let raw = ["--out", "--progress", "--shift", "-1", "--progress"];
        let mut args = Args::parse(raw.map(String::from), &["progress"]);
        assert_eq!(args.take("out").as_deref(), Some("--progress"));
        assert_eq!(args.take_parsed::<i64>("shift"), Some(-1));
        assert!(args.flag("progress"));
        assert!(!args.flag("progress"), "a flag is taken out once");
        assert_eq!(args.take("out"), None);
        args.finish();
    }
}
