//! The one `--flag value` parser every bench binary shares.
//!
//! Arguments are read up front: `--help`/`-h` prints the usage and any
//! other `--flag` takes the next argument as its value. The binary then
//! takes what it knows ([`Args::set`], [`Args::list`], ...) and calls
//! [`Args::finish`]; an unknown flag, a positional argument, a missing
//! value or an unparsable one exits 2 with the usage line.

use std::str::FromStr;

/// Parsed command-line arguments, consumed flag by flag.
pub struct Args {
    usage: &'static str,
    flags: Vec<(String, String)>,
}

impl Args {
    /// Reads the process arguments.
    pub fn parse(usage: &'static str) -> Args {
        Args::from_iter(usage, std::env::args().skip(1))
    }

    fn from_iter(usage: &'static str, args: impl IntoIterator<Item = String>) -> Args {
        let mut parsed = Args { usage, flags: Vec::new() };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if arg == "--help" || arg == "-h" {
                parsed.usage();
            } else if arg.starts_with("--") {
                let value = args.next().unwrap_or_else(|| parsed.usage());
                parsed.flags.push((arg, value));
            } else {
                eprintln!("unknown argument {arg:?}");
                parsed.usage();
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
    fn take(&mut self, flag: &str) -> Option<String> {
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
        let value = self.take(flag)?;
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
        if let Some(value) = self.take(flag) {
            let items: Option<Vec<T>> =
                value.split(',').map(|item| item.trim().parse().ok()).collect();
            *into = items.unwrap_or_else(|| self.usage());
        }
    }

    /// Exits 2 on a flag nothing took.
    pub fn finish(self) {
        if let Some((other, _)) = self.flags.first() {
            eprintln!("unknown argument {other:?}");
            self.usage();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Args {
        Args::from_iter("usage", line.split_whitespace().map(String::from))
    }

    #[test]
    fn flags_and_lists() {
        let mut a = args("--users 8 --threads 1,2,4 --out b.json --users 9");
        let mut users = 0usize;
        a.set("--users", &mut users);
        assert_eq!(users, 9, "the last occurrence wins");
        let mut threads = vec![8usize];
        a.list("--threads", &mut threads);
        assert_eq!(threads, [1, 2, 4]);
        assert_eq!(a.get::<String>("--out").as_deref(), Some("b.json"));
        assert_eq!(a.get::<String>("--out"), None, "a flag is taken once");
        assert_eq!(a.get::<f64>("--seed"), None);
        a.finish();
    }
}
