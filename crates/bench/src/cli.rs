//! The one `--flag value` parser every bench binary shares.
//!
//! Arguments are read up front: `--help`/`-h` prints the usage, a listed
//! switch stands alone, any other `--flag` takes the next argument as
//! its value, and the rest are positional. The binary then takes what
//! it knows ([`Args::set`], [`Args::list`], ...) and calls
//! [`Args::finish`]; an unknown flag, a stray positional argument, a
//! missing value or an unparsable one exits 2 with the usage line.

use std::str::FromStr;

/// Parsed command-line arguments, consumed flag by flag.
pub struct Args {
    usage: &'static str,
    flags: Vec<(String, Option<String>)>,
    positional: Vec<String>,
}

impl Args {
    /// Reads the process arguments; `switches` take no value.
    pub fn parse(usage: &'static str, switches: &[&str]) -> Args {
        Args::from_iter(usage, switches, std::env::args().skip(1))
    }

    fn from_iter(
        usage: &'static str,
        switches: &[&str],
        args: impl IntoIterator<Item = String>,
    ) -> Args {
        let mut parsed = Args { usage, flags: Vec::new(), positional: Vec::new() };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if arg == "--help" || arg == "-h" {
                parsed.usage();
            } else if switches.contains(&arg.as_str()) {
                parsed.flags.push((arg, None));
            } else if arg.starts_with("--") {
                let value = args.next().unwrap_or_else(|| parsed.usage());
                parsed.flags.push((arg, Some(value)));
            } else {
                parsed.positional.push(arg);
            }
        }
        parsed
    }

    /// Prints the usage line and exits 2.
    pub fn usage(&self) -> ! {
        eprintln!("{}", self.usage);
        std::process::exit(2);
    }

    /// Takes every occurrence of `flag`; the last one wins.
    fn take(&mut self, flag: &str) -> Option<Option<String>> {
        let mut found = None;
        self.flags.retain(|(f, value)| {
            let hit = f == flag;
            if hit {
                found = Some(value.clone());
            }
            !hit
        });
        found
    }

    /// The value of `--flag`, parsed; exits 2 when it does not parse.
    pub fn get<T: FromStr>(&mut self, flag: &str) -> Option<T> {
        let value = self.take(flag)?.unwrap_or_default();
        Some(value.parse().unwrap_or_else(|_| self.usage()))
    }

    /// Overwrites `into` with the value of `--flag`, if given.
    pub fn set<T: FromStr>(&mut self, flag: &str, into: &mut T) {
        if let Some(value) = self.get(flag) {
            *into = value;
        }
    }

    /// Overwrites `into` with the comma-separated list `--flag` gives.
    pub fn list<T: FromStr>(&mut self, flag: &str, into: &mut Vec<T>) {
        if let Some(Some(value)) = self.take(flag) {
            let items: Option<Vec<T>> =
                value.split(',').map(|item| item.trim().parse().ok()).collect();
            *into = items.unwrap_or_else(|| self.usage());
        }
    }

    /// `true` when the switch was given.
    pub fn switch(&mut self, flag: &str) -> bool {
        self.take(flag).is_some()
    }

    /// Takes the positional arguments.
    pub fn rest(&mut self) -> Vec<String> {
        std::mem::take(&mut self.positional)
    }

    /// Exits 2 on anything not taken: an unknown flag or a stray
    /// positional argument.
    pub fn finish(self) {
        if let Some(other) = self.flags.first().map(|(f, _)| f).or(self.positional.first()) {
            eprintln!("unknown argument {other:?}");
            self.usage();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Args {
        Args::from_iter("usage", &["--write-baseline"], line.split_whitespace().map(String::from))
    }

    #[test]
    fn flags_switches_lists_and_positionals() {
        let mut a = args("--users 8 a.json --threads 1,2,4 --write-baseline b.json --users 9");
        let mut users = 0usize;
        a.set("--users", &mut users);
        assert_eq!(users, 9, "the last occurrence wins");
        let mut threads = vec![8usize];
        a.list("--threads", &mut threads);
        assert_eq!(threads, [1, 2, 4]);
        assert!(a.switch("--write-baseline"));
        assert!(!a.switch("--write-baseline"));
        assert_eq!(a.get::<f64>("--seed"), None);
        assert_eq!(a.rest(), ["a.json", "b.json"]);
        a.finish();
    }
}
