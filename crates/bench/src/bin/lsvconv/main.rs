//! `lsvconv-cli` — one driver for every table and figure of the paper, the
//! artifact's `validate.sh`/`performance.sh` stages, the serving sweep, the
//! kernel lint sweep and the interactive tools, as subcommands over one
//! table ([`COMMANDS`]).
//!
//! ```text
//! lsvconv-cli <command> [args]    # run one subcommand
//! lsvconv-cli figure4 > f         # == results/figure4.csv, byte for byte
//! lsvconv-cli regen --list        # the plan regen_results.sh runs
//! lsvconv-cli                     # the command list
//! ```
//!
//! An experiment's defaults are exactly the arguments `regen_results.sh`
//! runs it with, so `lsvconv-cli <name> > f` reproduces `results/<artifact>`.
//! The only regen arguments left in the table are output paths.

mod ablation;
mod args;
mod bench_serving;
mod crossisa;
mod figure2;
mod figure3;
mod figure4;
mod figure5;
mod figure6;
mod lint_kernels;
mod mpki;
mod performance;
mod probe;
mod report;
mod serve;
mod table1;
mod table2;
mod table3;
mod tools;
mod validate;

use args::Kind::{Choice, Count, Layer, Real, Switch, Text, Uint};
use args::{Args, Flag};
use std::process::exit;
use std::sync::OnceLock;

/// What a subcommand reports back: `Err` is a runtime failure (exit 1),
/// after the subcommand printed whatever it had.
pub type Outcome = Result<(), String>;

/// One subcommand: one row of [`COMMANDS`].
pub struct Command {
    name: &'static str,
    /// The file under `results/` this subcommand regenerates, if any.
    artifact: Option<&'static str>,
    /// Extra arguments regen passes: output paths only.
    regen_args: &'static [&'static str],
    /// Accepted flags, in groups.
    flags: &'static [&'static [Flag]],
    /// Positional arguments, all optional, in order.
    pos: &'static [args::Kind],
    /// The last positional repeats.
    variadic: bool,
    about: &'static str,
    run: fn(&Args) -> Outcome,
}

impl Command {
    /// Every flag this subcommand accepts.
    fn all_flags(&self) -> impl Iterator<Item = &Flag> {
        self.flags.iter().flat_map(|group| group.iter())
    }

    /// This subcommand regenerates `results/<artifact>`.
    const fn writes(self, artifact: &'static str) -> Self {
        Command {
            artifact: Some(artifact),
            ..self
        }
    }

    /// Regen passes these output-path arguments.
    const fn regen_args(self, regen_args: &'static [&'static str]) -> Self {
        Command { regen_args, ..self }
    }

    /// The last positional repeats.
    const fn variadic(self) -> Self {
        Command {
            variadic: true,
            ..self
        }
    }
}

const fn cmd(
    name: &'static str,
    flags: &'static [&'static [Flag]],
    pos: &'static [args::Kind],
    about: &'static str,
    run: fn(&Args) -> Outcome,
) -> Command {
    Command {
        name,
        artifact: None,
        regen_args: &[],
        flags,
        pos,
        variadic: false,
        about,
        run,
    }
}

const NONE: &[&[Flag]] = &[];
const DIRS: &[&str] = &["fwdd", "fwd", "bwdd", "bwdw"];
const MODELS: &[&str] = &["resnet-50", "resnet-101", "resnet-152"];
const PASSES: &[&str] = &["infer", "train"];
const ARCH: &[Flag] = &[("arch", Text("architecture"))];
const BACKEND: &[Flag] = &[("backend", Choice(&["sim", "simulator", "native"]))];
const STORE: &[Flag] = &[("no-store", Switch), ("store-dir", Text("path"))];
#[rustfmt::skip]
const PROBLEM: &[Flag] = &[
    ("layer", Layer), ("minibatch", Count), ("ic", Count), ("oc", Count), ("hw", Count),
    ("k", Count), ("stride", Count), ("pad", Uint), ("dir", Choice(DIRS)),
    ("alg", Text("algorithm")),
];

/// Every subcommand: the tools, then the experiments in the order regen
/// runs them — the sweeps that warm the shared layer store for later ones
/// first, and `report` last, over the finished artifacts.
#[rustfmt::skip]
static COMMANDS: &[Command] = &[
    cmd("info", &[ARCH], &[], "machine + model summary", tools::info),
    cmd("bench", &[ARCH, BACKEND, STORE, PROBLEM], &[],
        "time one layer (default minibatch 64; alg DC|BDC|MBDC|vednn)", tools::bench),
    cmd("verify", &[ARCH, BACKEND, PROBLEM], &[],
        "check one layer against the naive reference (default minibatch 2)", tools::verify),
    cmd("tune", &[ARCH, BACKEND, STORE, PROBLEM, &[("metrics", Switch)]], &[],
        "show the generated kernel config and the empirical sweep", tools::tune),
    cmd("fuzz", &[BACKEND, &[("cases", Uint), ("seed", Uint), ("smoke", Switch),
                              ("agreement", Switch)]], &[],
        "differential fuzzing: seed corpus + N random cases (default 500, smoke 50)", tools::fuzz),
    cmd("profile", &[ARCH, BACKEND, STORE, PROBLEM, &[("out", Text("path")), ("smoke", Switch)]],
        &[Layer],
        "region profile of one layer: profile.json + Perfetto trace + folded stacks",
        tools::profile),
    cmd("serve", &[ARCH, BACKEND, STORE, &[
            ("model", Choice(MODELS)), ("pass", Choice(PASSES)), ("engine", Text("engine")),
            ("arrival", Choice(&["poisson", "bursty"])), ("max-batch", Count),
            ("requests", Count), ("seed", Uint), ("slo", Real), ("smoke", Switch),
            ("trace", Text("path")), ("metrics", Switch)]], &[],
        "serve a ResNet under a batching queue (engine DC|BDC|MBDC|vednn|tuned)", serve::run),
    cmd("lint-kernels", &[&[("deny-as-error", Switch), ("all", Switch), ("static", Switch)]],
        &[Text("path")],
        "verify every tuned kernel; writes <results_dir>/lint.json", lint_kernels::run),
    cmd("probe", NONE, &[Layer, Choice(&["fwdd", "bwdd", "bwdw"]), Count],
        "stall/cache breakdown of one layer (default 17 fwdd, minibatch 256)", probe::run),
    cmd("regen", &[&[("list", Switch)]], &[],
        "--list: one `<command> <artifact> [args]` line per results/ artifact", regen),
    cmd("table1", NONE, &[], "Table 1: analytical model and Formula 1", table1::run)
        .writes("table1.csv"),
    cmd("table2", NONE, &[], "Table 2: algorithm summary", table2::run)
        .writes("table2.csv"),
    cmd("table3", &[&[("profile", Switch)]], &[],
        "Table 3: layer suite + conflict predictions", table3::run)
        .writes("table3.csv"),
    cmd("figure2", NONE, &[], "Figure 2: micro-kernel footprint vs vector length", figure2::run)
        .writes("figure2.csv"),
    cmd("figure4", &[&[("functional", Switch)]], &[Count],
        "Figure 4: per-layer GFLOP/s (N = minibatch, default 256)", figure4::run)
        .writes("figure4.csv"),
    cmd("figure5", NONE, &[Count],
        "Figure 5: speedup vs vector length (N = minibatch, default 256)", figure5::run)
        .writes("figure5.csv"),
    cmd("figure6", NONE, &[Count],
        "Figure 6: minibatch scaling (default 8 16 32 64 128 256)", figure6::run)
        .writes("figure6.csv").variadic(),
    cmd("mpki", NONE, &[Count], "Section 8 MPKI study (N = minibatch, default 32)", mpki::run)
        .writes("mpki.csv"),
    cmd("ablation", NONE, &[Layer],
        "RB / grain / pipelining / dynamic-VL ablations (RB sweep layer, default 8)",
        ablation::run)
        .writes("ablation.csv"),
    cmd("performance", &[&[("profile", Switch)]], &[Count],
        "artifact performance.sh (N... = minibatches, default 256)", performance::run)
        .writes("performance.csv").variadic(),
    cmd("figure3", NONE, &[Layer], "Figure 3: L1 set-pressure heat map (default layer 8)",
        figure3::run)
        .writes("figure3.txt"),
    cmd("crossisa", NONE, &[Count], "cross-ISA extension (N = minibatch, default 32)",
        crossisa::run)
        .writes("crossisa.csv"),
    cmd("validate", NONE, &[Count], "artifact validate.sh (N = minibatch, default 1)",
        validate::run)
        .writes("validate.csv"),
    cmd("bench-serving", &[&[
            ("smoke", Switch), ("json", Text("path")), ("timeseries", Text("path")),
            ("model", Choice(MODELS)), ("pass", Choice(PASSES)), ("requests", Count),
            ("seed", Uint)]], &[],
        "serving load sweep (arrival x load x policy x engine)", bench_serving::run)
        .writes("serving.csv")
        .regen_args(&["--json", "results/BENCH_serving.json",
                      "--timeseries", "results/serving_timeseries.csv"]),
    cmd("report", NONE, &[Text("path")],
        "check the paper's headline claims over <results_dir> (default results)", report::run)
        .writes("report.txt"),
];

/// The chosen subcommand, for usage errors.
static CURRENT: OnceLock<&'static Command> = OnceLock::new();

fn synopsis(cmd: &Command) -> String {
    let mut s = String::from(cmd.name);
    for kind in cmd.pos {
        s.push_str(&format!(" [{}]", kind.placeholder()));
    }
    if cmd.variadic {
        s.insert_str(s.len() - 1, "...");
    }
    for &(name, kind) in cmd.all_flags() {
        match kind {
            Switch => s.push_str(&format!(" [--{name}]")),
            _ => s.push_str(&format!(" [--{name} {}]", kind.placeholder())),
        }
    }
    s
}

/// Print `error: <msg>` and the usage of the chosen subcommand (of every
/// subcommand before one is chosen), then exit 2.
pub fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!();
    match CURRENT.get() {
        Some(cmd) => {
            eprintln!("usage: lsvconv-cli {}", synopsis(cmd));
            eprintln!("       {}", cmd.about);
        }
        None => {
            eprintln!("usage: lsvconv-cli <command> [args]");
            eprintln!();
            for cmd in COMMANDS {
                eprintln!("  {}", synopsis(cmd));
                eprintln!("      {}", cmd.about);
            }
        }
    }
    exit(2);
}

fn regen(args: &Args) -> Outcome {
    if !args.has("list") {
        usage("regen only lists its plan (--list); regen_results.sh runs it");
    }
    for cmd in COMMANDS {
        if let Some(artifact) = cmd.artifact {
            let args: String = cmd.regen_args.iter().map(|a| format!(" {a}")).collect();
            println!("{} {artifact}{args}", cmd.name);
        }
    }
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(name) = argv.first() else {
        usage("missing command")
    };
    let Some(cmd) = COMMANDS.iter().find(|c| c.name == name) else {
        usage(&format!("unknown command '{name}'"))
    };
    CURRENT.set(cmd).ok();
    let args = args::parse(cmd, &argv[1..]);
    let outcome = (cmd.run)(&args);
    lsv_conv::store::dump_stats_to_env_file();
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        exit(1);
    }
}
