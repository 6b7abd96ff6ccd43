//! CLI contract of `lsvconv-cli`, driven by its own command table (the
//! command list it prints when run without arguments):
//!
//! * every subcommand rejects an unknown flag, a stray positional and every
//!   malformed numeric value with exit 2 and an `error:` line, before doing
//!   any work and without panicking;
//! * `regen --list` names exactly the committed `results/` artifacts;
//! * the cheap experiments reproduce their `results/` files byte for byte.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn cmd(args: &[&str]) -> Command {
    let mut c = Command::new(env!("CARGO_BIN_EXE_lsvconv-cli"));
    c.args(args)
        .env("LSV_STORE", "0")
        .env_remove("LSV_STORE_DIR")
        .env_remove("LSV_STORE_STATS");
    c
}

/// Run an invocation that must fail fast; a run that is still going after
/// a minute did not reject its arguments and is killed.
fn run_rejected(args: &[&str]) -> Output {
    let mut child = cmd(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("lsvconv-cli runs");
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().unwrap().is_none() {
        if Instant::now() > deadline {
            child.kill().ok();
            panic!("{args:?} was not rejected: still running after 60 s");
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    child.wait_with_output().unwrap()
}

fn assert_usage_error<S: AsRef<str>>(args: &[S]) {
    let args: Vec<&str> = args.iter().map(AsRef::as_ref).collect();
    let out = run_rejected(&args);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}; stderr: {err}");
    let first = err.lines().next().unwrap_or("");
    assert!(first.starts_with("error:"), "{args:?}; stderr: {err}");
    assert!(!err.contains("panicked"), "{args:?}; stderr: {err}");
}

/// One row of the command table, as its usage synopsis shows it.
struct Row {
    name: String,
    /// `(flag, value placeholder)` of every flag that takes a value.
    valued_flags: Vec<(String, String)>,
    positionals: Vec<String>,
    variadic: bool,
}

fn is_numeric(placeholder: &str) -> bool {
    matches!(placeholder, "N" | "X" | "LAYER")
}

/// A value the placeholder accepts.
fn valid_sample(placeholder: &str) -> String {
    match placeholder {
        "N" | "X" => "1".into(),
        "LAYER" => "0".into(),
        p if p.starts_with('<') => "results".into(),
        choices => choices.split('|').next().unwrap().into(),
    }
}

/// The rows of the command list printed by a bare `lsvconv-cli`: one
/// `  <name> [POS]... [--flag VALUE]...` line per subcommand.
fn command_table() -> Vec<Row> {
    let out = cmd(&[]).output().expect("lsvconv-cli runs");
    assert_eq!(out.status.code(), Some(2));
    let text = String::from_utf8(out.stderr).unwrap();
    let mut rows = Vec::new();
    for line in text
        .lines()
        .filter(|l| l.starts_with("  ") && !l.starts_with("   "))
    {
        let (name, rest) = line.trim().split_once(' ').unwrap_or((line.trim(), ""));
        let mut row = Row {
            name: name.to_string(),
            valued_flags: Vec::new(),
            positionals: Vec::new(),
            variadic: false,
        };
        let rest = rest.trim().trim_start_matches('[').trim_end_matches(']');
        for group in rest.split("] [").filter(|g| !g.is_empty()) {
            if let Some(flag) = group.strip_prefix("--") {
                if let Some((f, v)) = flag.split_once(' ') {
                    row.valued_flags.push((f.to_string(), v.to_string()));
                }
            } else {
                row.variadic |= group.ends_with("...");
                row.positionals
                    .push(group.trim_end_matches("...").to_string());
            }
        }
        rows.push(row);
    }
    let names: BTreeSet<&str> = rows.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(names.len(), rows.len(), "command names must be unique");
    assert!(names.is_superset(&BTreeSet::from([
        "bench", "serve", "figure4", "regen", "report"
    ])));
    rows
}

#[test]
fn every_command_rejects_bad_arguments_before_running() {
    let mut numeric = 0;
    for row in command_table() {
        let name = row.name.as_str();
        assert_usage_error(&[name, "--bogus-flag", "3"]);

        // One positional more than the command takes (a variadic list
        // takes any number, so there the stray word is a bad value).
        let mut stray = vec![name.to_string()];
        if !row.variadic {
            stray.extend(row.positionals.iter().map(|p| valid_sample(p)));
        }
        stray.push("stray".into());
        assert_usage_error(&stray);

        for (flag, placeholder) in &row.valued_flags {
            if is_numeric(placeholder) {
                for bad in ["abc", "-1", "", "1e999"] {
                    assert_usage_error(&[name, &format!("--{flag}"), bad]);
                }
                numeric += 1;
            }
        }
        for (i, p) in row.positionals.iter().enumerate() {
            if is_numeric(p) {
                let mut args = vec![name.to_string()];
                args.extend(row.positionals[..i].iter().map(|p| valid_sample(p)));
                args.push("abc".into());
                assert_usage_error(&args);
                numeric += 1;
            }
        }
    }
    assert!(numeric > 30, "only {numeric} numeric arguments found");
}

#[test]
fn values_the_library_would_panic_on_are_usage_errors() {
    for args in [
        &["verify", "--minibatch", "0"][..],
        &["serve", "--max-batch", "0"],
        &["serve", "--requests", "0"],
        &["serve", "--slo", "0"],
        &["bench", "--minibatch", "abc", "stray"],
        &["bench", "--k", "9", "--hw", "2", "--pad", "0"],
        &["bench", "--layer", "19"],
        &["bench", "--dir", "--alg", "BDC"],
        &["fuzz", "--seed", "1", "--seed", "2"],
        &["info", "--arch", "aurora-vl0"],
        &["probe", "0", "bogus"],
        &["figure3", "19"],
        &["profile", "3", "--layer", "4"],
    ] {
        assert_usage_error(args);
    }
}

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

#[test]
fn regen_list_names_exactly_the_committed_artifacts() {
    let out = cmd(&["regen", "--list"])
        .output()
        .expect("lsvconv-cli runs");
    assert!(out.status.success());
    let list = String::from_utf8(out.stdout).unwrap();
    let mut listed = BTreeSet::new();
    for line in list.lines() {
        let mut words = line.split(' ');
        let (_cmd, artifact) = (words.next().unwrap(), words.next().unwrap());
        listed.insert(artifact.to_string());
        // Output-path arguments name the side artifacts a command writes.
        listed.extend(
            words
                .filter_map(|w| w.strip_prefix("results/"))
                .map(str::to_string),
        );
    }
    let committed: BTreeSet<String> = std::fs::read_dir(results_dir())
        .unwrap()
        .map(|e| e.unwrap())
        .filter(|e| e.file_type().unwrap().is_file())
        .map(|e| e.file_name().into_string().unwrap())
        // lint.json comes from `lint-kernels`, which prints wall times and
        // so is not a byte-reproducible regen step.
        .filter(|n| n != "lint.json" && !n.ends_with(".tmp"))
        .collect();
    assert_eq!(listed, committed);
}

#[test]
fn cheap_experiments_reproduce_results_byte_for_byte() {
    for (name, artifact) in [
        ("table1", "table1.csv"),
        ("table2", "table2.csv"),
        ("table3", "table3.csv"),
        ("figure2", "figure2.csv"),
    ] {
        let out = cmd(&[name]).output().expect("lsvconv-cli runs");
        assert!(out.status.success(), "{name} failed");
        let want = std::fs::read(results_dir().join(artifact)).unwrap();
        assert!(out.stdout == want, "{name} differs from results/{artifact}");
    }
}
