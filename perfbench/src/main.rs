//! The repository benchmark: one workload per process, measured with
//! tracing off (end-to-end metrics) or on (per-layer metrics and a
//! Perfetto span file).
//!
//! Usage:
//!   lsv-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!   lsv-perfbench compare <old-result.json> <new-result.json>
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Every run also writes a
//! result file with the host fingerprint into `perfbench/out`.

mod compare;
mod fuzz;
mod host;
mod metrics;
mod native;
mod serve;
mod sim;
mod trace;

use metrics::Metrics;
use std::path::PathBuf;
use std::process::exit;
use std::time::Instant;
use trace::Tracer;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = [
    "sim-figure4",
    "native-table3",
    "serve-tuned",
    "fuzz-agreement",
];

/// Times each workload repeats its set-up; `setup_s` reports the median.
/// A set-up longer than [`SETUP_BUDGET_S`] in total stops repeating early.
const SETUP_REPEATS: usize = 3;
const SETUP_BUDGET_S: f64 = 1.0;
const WARM_UP_MINIBATCH: usize = 8;

/// Wall and CPU seconds of one timed call.
#[derive(Debug, Clone, Copy)]
pub struct Took {
    pub wall: f64,
    pub cpu: f64,
}

/// Time `f` on the wall clock and in process CPU time (all threads).
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Took) {
    let (t0, c0) = (Instant::now(), host::cpu_s());
    let out = f();
    let took = Took {
        wall: t0.elapsed().as_secs_f64(),
        cpu: host::cpu_s() - c0,
    };
    (out, took)
}

/// What one workload run hands back to `main`.
pub struct Outcome {
    /// Operations checked for correctness.
    pub attempted: u64,
    /// Operations whose output was wrong.
    pub failed: u64,
    /// Median host seconds of the workload's set-up.
    pub setup_s: f64,
    /// Every timed iteration of the workload's job.
    pub jobs: Vec<Took>,
    /// Every per-layer metric the workload measured.
    pub metrics: Metrics,
    /// One line per failed check.
    pub failures: Vec<String>,
}

/// Inputs shared by every workload.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
    /// Private scratch directory of this run (removed at exit).
    pub scratch: PathBuf,
}

impl Ctx {
    /// Run `prepare` up to [`SETUP_REPEATS`] times; returns the last
    /// result and the median duration in seconds.
    pub fn setup<T>(&self, mut prepare: impl FnMut() -> T) -> (T, f64) {
        let mut times: Vec<f64> = Vec::with_capacity(SETUP_REPEATS);
        let mut last = None;
        while times.len() < SETUP_REPEATS && times.iter().sum::<f64>() < SETUP_BUDGET_S {
            let t0 = Instant::now();
            last = Some(prepare());
            times.push(t0.elapsed().as_secs_f64());
        }
        (last.expect("at least one set-up"), median(times))
    }

    /// Run `job(k)` for k = 0, 1, ... while another iteration as long as
    /// the last still fits in the measurement budget; the first always
    /// runs. A traced run times exactly one iteration, so its per-layer
    /// totals describe one job whatever the budget.
    pub fn measure<R>(&self, mut job: impl FnMut(usize) -> R) -> (Vec<R>, Vec<Took>) {
        let start = Instant::now();
        let (mut outs, mut took) = (Vec::new(), Vec::<Took>::new());
        while took.last().is_none_or(|t| {
            !self.tracer.enabled() && start.elapsed().as_secs_f64() + t.wall <= self.seconds
        }) {
            let (out, t) = timed(|| job(took.len()));
            outs.push(out);
            took.push(t);
        }
        (outs, took)
    }
}

/// Warm the simulator up before timing: one TimingOnly simulation of the
/// last Table 3 layer at minibatch [`WARM_UP_MINIBATCH`] per direct
/// algorithm, run on a private core so the layer store never sees it.
pub fn warm_up_simulator() {
    let arch = lsv_arch::presets::sx_aurora();
    let p = lsv_models::resnet_layer(lsv_models::NUM_LAYERS - 1, WARM_UP_MINIBATCH);
    for alg in lsv_conv::Algorithm::ALL {
        let prim = lsv_conv::ConvDesc::new(p, lsv_conv::Direction::Fwd, alg)
            .create(&arch, 1)
            .expect("the last Table 3 layer is creatable");
        let mut arena = lsv_vengine::Arena::new();
        let t = prim.alloc_tensors(&mut arena);
        let mut core = lsv_vengine::VCore::new(&arch, lsv_conv::ExecutionMode::TimingOnly, 1);
        prim.execute_core(
            &mut core,
            &mut arena,
            &t,
            0..p.n,
            0..prim.bwdw_small_blocks(),
        );
        std::hint::black_box(core.drain().cycles);
    }
}

pub fn median(xs: impl IntoIterator<Item = f64>) -> f64 {
    let mut xs: Vec<f64> = xs.into_iter().collect();
    assert!(!xs.is_empty(), "median of nothing");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Deterministic shuffle of `items` from `seed` (Fisher-Yates on
/// SplitMix64).
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = lsv_serve::SplitMix64::new(seed);
    for i in (1..items.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

fn usage(why: &str) -> ! {
    eprintln!("error: {why}");
    eprintln!(
        "usage: lsv-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    eprintln!("       lsv-perfbench compare <old-result.json> <new-result.json>");
    exit(2);
}

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .unwrap_or_else(|| usage(&format!("unknown workload '{value}'"))),
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .unwrap_or_else(|_| usage(&format!("bad seed '{value}'"))),
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .unwrap_or_else(|| usage(&format!("bad seconds '{value}'"))),
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(&format!("bad trace '{value}' (0 or 1)")),
                })
            }
            _ => usage(&format!("unknown flag '{flag}'")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
    }
}

fn main() {
    let start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        match argv.as_slice() {
            [_, old, new] => exit(compare::run(old, new)),
            _ => usage("compare takes two result files"),
        }
    }
    let args = parse_args(&argv);
    let out = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("error: cannot create {}: {e}", out.display());
        exit(1);
    }
    let scratch = out.join(format!("scratch-{}", std::process::id()));
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tracer: Tracer::new(args.trace),
        scratch,
    };
    // Only serve-tuned uses the layer store (it configures its own private
    // directory); the others run with it disabled, whatever `LSV_STORE*`
    // says.
    let store_off = args.workload != "serve-tuned";
    if store_off {
        lsv_conv::store::configure(lsv_conv::StoreConfig {
            disabled: true,
            ..Default::default()
        })
        .expect("store configured before first use");
    }
    let one_off_s = start.elapsed().as_secs_f64();
    let mut outcome = match args.workload {
        "sim-figure4" => sim::run(&ctx),
        "native-table3" => native::run(&ctx),
        "serve-tuned" => serve::run(&ctx),
        "fuzz-agreement" => fuzz::run(&ctx),
        _ => unreachable!("workload names are checked when parsed"),
    };
    if store_off {
        // A disabled store must have served and kept nothing.
        let st = lsv_conv::store::store().stats();
        outcome.attempted += 1;
        if st != lsv_conv::StoreStats::default() {
            outcome.failed += 1;
            outcome
                .failures
                .push(format!("disabled store saw traffic: {st:?}"));
        }
    }
    let _ = std::fs::remove_dir_all(&ctx.scratch);
    for f in &outcome.failures {
        eprintln!("FAILED: {f}");
    }

    let mut all = outcome.metrics;
    let job_s = median(outcome.jobs.iter().map(|t| t.wall));
    all.set("setup_s", one_off_s + outcome.setup_s);
    all.set("job_s", job_s);
    all.set("job_cpu_s", median(outcome.jobs.iter().map(|t| t.cpu)));
    all.set("peak_rss_mb", host::peak_rss_mb());
    let spans = ctx.tracer.spans();
    if args.trace {
        all.set("trace.job_s", job_s);
        all.set("trace.spans", spans.len() as f64);
        for (layer, ms) in trace::self_ms_by_layer(&spans) {
            all.set(&format!("self_ms.{layer}"), ms);
        }
    }

    let fp = host::Fingerprint::collect();
    let stem = format!(
        "{}-s{}-t{}",
        args.workload,
        args.seed,
        if args.trace { 1 } else { 0 }
    );
    if args.trace {
        let path = out.join(format!("trace-{stem}.json"));
        let doc = trace::timeline_json(&spans, &format!("lsv-perfbench {}", args.workload));
        match std::fs::write(&path, doc) {
            Ok(()) => eprintln!("wrote {} ({} spans)", path.display(), spans.len()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
    }
    let reported = if args.trace {
        all.select(&metrics::per_layer())
    } else {
        all.select(&metrics::end_to_end())
    };
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    println!(
        "# {} seed {} ({} s budget, trace {}) on {} x {}",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace { "on" } else { "off" },
        fp.nproc,
        fp.cpu_model
    );
    println!(
        "# correct {correct}: {} attempted, {} failed",
        outcome.attempted, outcome.failed
    );
    for line in reported.lines() {
        println!("# {line}");
    }
    let result_path = out.join(format!("result-{stem}.json"));
    let doc = compare::result_json(
        &fp,
        args.workload,
        args.seed,
        args.trace,
        correct,
        outcome.attempted,
        outcome.failed,
        &all,
    );
    if let Err(e) = std::fs::write(&result_path, doc) {
        eprintln!("warning: cannot write {}: {e}", result_path.display());
    }
    if args.trace {
        compare::print_overhead(&out, args.workload, args.seed, &all);
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        reported.to_json()
    );
}
