//! The one strict argument parser behind every subcommand.
//!
//! Each row of the command table declares its flags (name and [`Kind`]) and
//! its positional arguments; [`parse`] checks an invocation against that
//! declaration before the subcommand runs. An unknown or repeated flag, a
//! missing or malformed value, or a stray positional is a usage error
//! (`error: …` on stderr, exit 2) — nothing is silently ignored, and no
//! value that the library would assert on reaches it.

use crate::Command;
use std::str::FromStr;

/// What a flag or positional accepts; checked at parse time.
#[derive(Clone, Copy, Debug)]
pub enum Kind {
    /// A flag without a value.
    Switch,
    /// An integer >= 1 (sizes, counts, minibatches).
    Count,
    /// An integer >= 0 (seeds, padding, case counts).
    Uint,
    /// A finite real > 0 (milliseconds).
    Real,
    /// A Table 3 layer id.
    Layer,
    /// Exactly one of the listed words.
    Choice(&'static [&'static str]),
    /// Free text, checked by the subcommand; the word names it in messages.
    Text(&'static str),
}

/// A declared flag: its name without the leading `--`, and its kind.
pub type Flag = (&'static str, Kind);

impl Kind {
    /// How the value appears in the usage synopsis.
    pub fn placeholder(self) -> String {
        match self {
            Kind::Switch => String::new(),
            Kind::Count | Kind::Uint => "N".into(),
            Kind::Real => "X".into(),
            Kind::Layer => "LAYER".into(),
            Kind::Choice(words) => words.join("|"),
            Kind::Text(word) => format!("<{word}>"),
        }
    }

    /// What a valid value is, for error messages.
    fn expected(self) -> String {
        match self {
            Kind::Switch => "no value".into(),
            Kind::Count => "a positive integer".into(),
            Kind::Uint => "a non-negative integer".into(),
            Kind::Real => "a positive number".into(),
            Kind::Layer => format!("a layer id 0..{}", lsv_models::NUM_LAYERS - 1),
            Kind::Choice(words) => format!("one of {}", words.join("|")),
            Kind::Text(word) => format!("a {word}"),
        }
    }

    fn accepts(self, v: &str) -> bool {
        match self {
            Kind::Switch => false,
            Kind::Count => v.parse::<usize>().is_ok_and(|n| n >= 1),
            Kind::Uint => v.parse::<u64>().is_ok(),
            Kind::Real => v.parse::<f64>().is_ok_and(|x| x.is_finite() && x > 0.0),
            Kind::Layer => v
                .parse::<usize>()
                .is_ok_and(|id| id < lsv_models::NUM_LAYERS),
            Kind::Choice(words) => words.contains(&v),
            Kind::Text(_) => !v.is_empty(),
        }
    }
}

/// A parsed, validated invocation of one subcommand.
pub struct Args {
    cmd: &'static Command,
    flags: Vec<(&'static str, String)>,
    pos: Vec<String>,
}

impl Args {
    /// Whether `--name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.lookup(name).is_some()
    }

    /// The raw value of `--name`, if given.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.lookup(name).map(|(_, v)| v.as_str())
    }

    /// The value of `--name` as `T`; its kind was checked at parse time.
    pub fn value<T: FromStr>(&self, name: &str) -> Option<T> {
        self.get(name).map(checked)
    }

    /// Positional `i` as `T`, if given.
    pub fn pos<T: FromStr>(&self, i: usize) -> Option<T> {
        self.pos.get(i).map(|v| checked(v))
    }

    /// Every positional as `T` (variadic subcommands).
    pub fn positionals<T: FromStr>(&self) -> Vec<T> {
        self.pos.iter().map(|v| checked(v)).collect()
    }

    fn lookup(&self, name: &str) -> Option<&(&'static str, String)> {
        assert!(
            self.cmd.all_flags().any(|f| f.0 == name),
            "`{}` does not declare --{name}",
            self.cmd.name
        );
        self.flags.iter().find(|(n, _)| *n == name)
    }
}

fn checked<T: FromStr>(v: &str) -> T {
    v.parse()
        .unwrap_or_else(|_| unreachable!("'{v}' passed its parse-time check"))
}

/// Check `argv` (everything after the subcommand name) against `cmd`'s
/// declaration. Exits 2 with a usage error on the first violation.
pub fn parse(cmd: &'static Command, argv: &[String]) -> Args {
    let fail = |msg: String| -> ! { crate::usage(&msg) };
    let max_pos = if cmd.variadic {
        usize::MAX
    } else {
        cmd.pos.len()
    };
    let mut args = Args {
        cmd,
        flags: Vec::new(),
        pos: Vec::new(),
    };
    let mut i = 0;
    while i < argv.len() {
        let a = &argv[i];
        i += 1;
        let Some(name) = a.strip_prefix("--") else {
            if args.pos.len() == max_pos {
                fail(match max_pos {
                    0 => format!("`{}` takes no positional arguments (got '{a}')", cmd.name),
                    n => format!(
                        "`{}` takes at most {n} positional argument(s) (got '{a}')",
                        cmd.name
                    ),
                });
            }
            let kind = cmd.pos[args.pos.len().min(cmd.pos.len() - 1)];
            if !kind.accepts(a) {
                fail(format!(
                    "positional argument {} of `{}` must be {}, got '{a}'",
                    args.pos.len() + 1,
                    cmd.name,
                    kind.expected()
                ));
            }
            args.pos.push(a.clone());
            continue;
        };
        let Some(&(name, kind)) = cmd.all_flags().find(|f| f.0 == name) else {
            fail(format!("unknown flag `--{name}` for `{}`", cmd.name));
        };
        if args.flags.iter().any(|(n, _)| *n == name) {
            fail(format!("--{name} given more than once"));
        }
        let next = argv.get(i).filter(|v| !v.starts_with("--"));
        let value = match (kind, next) {
            // A word after a switch is a positional when the command takes
            // one, and otherwise a value the switch cannot have.
            (Kind::Switch, Some(v)) if args.pos.len() == max_pos => {
                fail(format!("--{name} takes no value (got '{v}')"))
            }
            (Kind::Switch, _) => String::new(),
            (_, None) => fail(format!("--{name} requires {}", kind.expected())),
            (_, Some(v)) if !kind.accepts(v) => {
                fail(format!("--{name} must be {}, got '{v}'", kind.expected()))
            }
            (_, Some(v)) => {
                i += 1;
                v.clone()
            }
        };
        args.flags.push((name, value));
    }
    args
}
