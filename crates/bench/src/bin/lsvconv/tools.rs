//! The interactive subcommands a downstream user drives, and the flag
//! helpers they share with `serve`, `probe` and `bench-serving`:
//!
//! ```text
//! lsvconv-cli info                                    # machine + model summary
//! lsvconv-cli bench  --layer 8 --dir fwdd --alg BDC [--minibatch 64] [--arch sx-aurora]
//! lsvconv-cli bench  --ic 512 --oc 128 --hw 28 --k 1 --stride 1 --pad 0 ...
//! lsvconv-cli verify --layer 8 --dir fwdd --alg MBDC [--minibatch 2]
//! lsvconv-cli tune   --layer 16 --dir fwdd --alg BDC  # show the generated config
//! lsvconv-cli fuzz   [--cases 500] [--seed 1] [--smoke]  # differential fuzzing
//! lsvconv-cli profile <layer> [--dir fwdd] [--alg BDC] [--out results/profile] [--smoke]
//! ```

use crate::args::Args;
use crate::{usage, Outcome};
use lsv_arch::presets::{a64fx_sve, rvv_longvector, skylake_avx512, sx_aurora};
use lsv_arch::ArchParams;
use lsv_bench::profiling::{print_profile_summary, profile_meta, write_profile_artifacts};
use lsv_bench::{bench_engine, Engine};
use lsv_conv::fuzz::{self, FuzzOutcome};
use lsv_conv::{
    bench_layer_profiled, validate_with_backend, Algorithm, BackendKind, ConvDesc, ConvProblem,
    Direction, ExecutionMode, Pass,
};
use lsv_models::{resnet_layer, ResNetModel};
use lsv_vengine::CoreStats;
use std::path::Path;

/// `--arch` (default SX-Aurora).
pub fn arch(args: &Args) -> ArchParams {
    match args.get("arch").unwrap_or("sx-aurora") {
        "sx-aurora" => sx_aurora(),
        "skylake" | "skylake-avx512" => skylake_avx512(),
        "rvv" | "rvv-4096" => rvv_longvector(),
        "a64fx" | "a64fx-sve" => a64fx_sve(),
        other => match other.strip_prefix("aurora-vl").map(str::parse::<usize>) {
            Some(Ok(bits)) if bits > 0 && bits % 32 == 0 => {
                lsv_arch::presets::aurora_with_vlen_bits(bits)
            }
            Some(_) => usage(&format!(
                "bad vlen in '{other}' (a positive multiple of 32 bits)"
            )),
            None => usage(&format!("unknown architecture '{other}'")),
        },
    }
}

/// A direction name the parser already checked (`fwd` is `fwdd`).
pub fn direction(name: &str) -> Direction {
    match name {
        "bwdd" => Direction::BwdData,
        "bwdw" => Direction::BwdWeights,
        _ => Direction::Fwd,
    }
}

/// `--model` and `--pass` (default ResNet-50 inference).
pub fn model_and_pass(args: &Args) -> (ResNetModel, Pass) {
    let model = args.get("model").map_or(ResNetModel::R50, |name| {
        ResNetModel::ALL
            .into_iter()
            .find(|m| m.name() == name)
            .expect("checked by the parser")
    });
    let pass = match args.get("pass") {
        Some("train") => Pass::TrainingStep,
        _ => Pass::Inference,
    };
    (model, pass)
}

/// `--backend` (default: the simulator). Subcommands that report time
/// (`bench`, `tune`, `profile`, `serve`) pass `allow_native = false`: the
/// native backend computes values only, so selecting it there is a user
/// error, not a silent fallback.
pub fn backend(args: &Args, cmd: &str, allow_native: bool) -> BackendKind {
    let kind = args.value("backend").unwrap_or(BackendKind::Sim);
    if !allow_native && kind == BackendKind::Native {
        usage(&format!(
            "--backend native is not valid for `{cmd}`: only the simulator models time \
             (cycles, caches, stalls); use --backend sim or drop the flag"
        ));
    }
    kind
}

/// Apply `--no-store` / `--store-dir <path>` before the first store access.
/// Defaults come from the environment (`LSV_STORE`, `LSV_STORE_DIR`,
/// `LSV_STORE_PARANOID`); the flags override it.
pub fn configure_store(args: &Args) {
    let mut cfg = lsv_conv::StoreConfig::from_env();
    if args.has("no-store") {
        if args.has("store-dir") {
            usage("--no-store and --store-dir are mutually exclusive");
        }
        cfg.disabled = true;
        cfg.dir = None;
    }
    if let Some(d) = args.get("store-dir") {
        cfg.disabled = false;
        cfg.dir = Some(std::path::PathBuf::from(d));
    }
    // Infallible here: this runs before anything touches the store.
    lsv_conv::store::configure(cfg).expect("store configured before first use");
}

/// `--alg` (default BDC), in any letter case.
fn engine(args: &Args) -> Engine {
    let name = args.get("alg").unwrap_or("BDC");
    match name.to_ascii_uppercase().as_str() {
        "DC" => Engine::Direct(Algorithm::Dc),
        "BDC" => Engine::Direct(Algorithm::Bdc),
        "MBDC" => Engine::Direct(Algorithm::Mbdc),
        "VEDNN" => Engine::Vednn,
        _ => usage(&format!("unknown algorithm '{name}' (DC|BDC|MBDC|vednn)")),
    }
}

/// `--alg` for the subcommands that only run the direct algorithms.
fn direct_algorithm(args: &Args, cmd: &str) -> Algorithm {
    match engine(args) {
        Engine::Direct(alg) => alg,
        Engine::Vednn => usage(&format!("{cmd} applies to the direct algorithms")),
    }
}

/// The problem named by `--layer` (or the positional layer) or by the
/// explicit geometry flags.
fn problem(args: &Args, default_mb: usize, default_hw: usize) -> ConvProblem {
    let mb = args.value("minibatch").unwrap_or(default_mb);
    let layer = match (args.value::<usize>("layer"), args.pos::<usize>(0)) {
        (Some(_), Some(_)) => usage("give the layer either positionally or as --layer"),
        (flag, pos) => flag.or(pos),
    };
    if let Some(id) = layer {
        return resnet_layer(id, mb);
    }
    let get = |k: &str, d: usize| args.value(k).unwrap_or(d);
    let hw = get("hw", default_hw);
    let k = get("k", 3);
    let pad = get("pad", if k > 1 { 1 } else { 0 });
    if hw + 2 * pad < k {
        usage(&format!(
            "--k {k} is larger than the padded input (--hw {hw} + 2 x --pad {pad})"
        ));
    }
    ConvProblem::new(
        mb,
        get("ic", 64),
        get("oc", 64),
        hw,
        hw,
        k,
        k,
        get("stride", 1),
        pad,
    )
}

fn dir(args: &Args) -> Direction {
    direction(args.get("dir").unwrap_or("fwdd"))
}

fn report_fuzz(label: &str, out: &FuzzOutcome) {
    println!(
        "  {label}: {} cases, {} skipped (register pressure), {} failures ({:.3}s kernel exec)",
        out.cases_run,
        out.skipped,
        out.failures.len(),
        out.exec_secs,
    );
    for f in &out.failures {
        println!("    FAIL {}: {}", f.case, f.why);
    }
}

pub fn info(args: &Args) -> Outcome {
    let arch = arch(args);
    println!("architecture: {}", arch.name);
    println!(
        "  SIMD: {} bits = {} x f32, {} vregs",
        arch.vlen_bits,
        arch.n_vlen(),
        arch.n_vregs
    );
    println!(
        "  FMA:  {} ports x {} lanes, {}-cycle pipelines",
        arch.n_fma, arch.lanes_per_port, arch.l_fma
    );
    println!(
        "  peak: {:.1} GFLOP/s/core, {:.1} GFLOP/s chip ({} cores)",
        arch.peak_flops_per_core() / 1e9,
        arch.peak_flops() / 1e9,
        arch.cores
    );
    println!(
        "  L1D {} KB {}-way | L2 {} KB | LLC {} MB, {} banks",
        arch.l1d.size / 1024,
        arch.l1d.ways,
        arch.l2.size / 1024,
        arch.llc.size / (1024 * 1024),
        arch.llc_banking.banks
    );
    println!(
        "  E (Formula 1) = {}",
        lsv_arch::formula1_required_independent_elems(&arch)
    );
    println!();
    println!(
        "ResNet models: {} layer shapes (Table 3); see `lsvconv-cli bench --layer N`",
        lsv_models::NUM_LAYERS
    );
    Ok(())
}

pub fn bench(args: &Args) -> Outcome {
    let arch = arch(args);
    backend(args, "bench", false);
    let (p, dir, engine) = (problem(args, 64, 28), dir(args), engine(args));
    configure_store(args);
    let perf = bench_engine(&arch, &p, dir, engine, ExecutionMode::TimingOnly);
    println!("problem:   {p} ({dir}, {})", engine.name());
    println!(
        "time:      {:.3} ms for the whole minibatch on {} cores",
        perf.time_ms, arch.cores
    );
    println!(
        "rate:      {:.1} GFLOP/s ({:.1}% of chip peak)",
        perf.gflops,
        perf.efficiency * 100.0
    );
    println!(
        "L1 MPKI:   {:.2} (conflict fraction {:.2})",
        perf.mpki_l1, perf.conflict_fraction
    );
    println!(
        "predicted: conflicts {}",
        if perf.conflicts_predicted {
            "YES (Formula 3)"
        } else {
            "no"
        }
    );
    Ok(())
}

pub fn verify(args: &Args) -> Outcome {
    let arch = arch(args);
    let backend = backend(args, "verify", true);
    let (p, dir) = (problem(args, 2, 28), dir(args));
    let Engine::Direct(alg) = engine(args) else {
        usage("use the `validate` subcommand for vednn checks")
    };
    let r = validate_with_backend(&arch, &p, dir, alg, backend.create().as_ref());
    println!(
        "{p} {dir} {alg} [{backend} backend]: {} (rel err {:.3e})",
        if r.passed { "PASSED" } else { "FAILED" },
        r.rel_err
    );
    if r.passed {
        Ok(())
    } else {
        Err("verification failed".into())
    }
}

pub fn tune(args: &Args) -> Outcome {
    let arch = arch(args);
    backend(args, "tune", false);
    let (p, dir, alg) = (
        problem(args, 64, 28),
        dir(args),
        direct_algorithm(args, "tune"),
    );
    configure_store(args);
    let prim = ConvDesc::new(p, dir, alg)
        .create(&arch, arch.cores)
        .map_err(|e| format!("cannot create primitive: {e}"))?;
    let cfg = prim.cfg();
    println!("{p} {dir} {alg} on {}:", arch.name);
    println!("  vl            = {}", cfg.vl);
    println!(
        "  register blk  = {} x {} (combined {}), rb_c = {}",
        cfg.rb.rb_w,
        cfg.rb.rb_h,
        cfg.rb.combined(),
        cfg.rb_c
    );
    println!(
        "  micro tile    = kh {} x kw {} x c {}",
        cfg.tile.kh_i, cfg.tile.kw_i, cfg.tile.c_i
    );
    println!("  src layout    = C_b {}", cfg.src_layout.cb);
    println!("  dst layout    = C_b {}", cfg.dst_layout.cb);
    println!(
        "  wei layout    = (icb {}, ocb {}){}",
        cfg.wei_layout.icb,
        cfg.wei_layout.ocb,
        if cfg.wei_swapped {
            " [role-swapped]"
        } else {
            ""
        }
    );
    println!("  weight bufs   = {}", cfg.wbuf);
    println!(
        "  conflicts     = {}",
        if cfg.conflicts_predicted {
            "PREDICTED (Formula 3)"
        } else {
            "not predicted"
        }
    );
    match lsv_conv::tune_empirical(&arch, &p, dir, alg, ExecutionMode::TimingOnly) {
        Ok(t) => {
            println!();
            println!("empirical register-block sweep (store-backed):");
            println!(
                "  candidates    = {} generated, {} unique after dedupe \
                 ({} redundant evaluations avoided)",
                t.generated,
                t.unique,
                (t.generated + 1).saturating_sub(t.unique)
            );
            println!(
                "  evaluations   = {} store hits + {} simulated",
                t.store_hits, t.simulated
            );
            println!("  analytic pick = {} chip cycles", t.analytic_cycles);
            println!(
                "  best found    = rb {}x{} rb_c {} wbuf {} @ {} chip cycles{}",
                t.best_cfg.rb.rb_w,
                t.best_cfg.rb.rb_h,
                t.best_cfg.rb_c,
                t.best_cfg.wbuf,
                t.best_cycles,
                if t.best_cycles == t.analytic_cycles {
                    " (= analytic)"
                } else {
                    ""
                }
            );
            if args.has("metrics") {
                let reg = lsv_obs::registry();
                t.publish_metrics(reg);
                lsv_conv::store::store().stats().publish(reg);
                println!();
                println!("metrics:");
                for line in reg.summary_lines() {
                    println!("  {line}");
                }
            }
        }
        Err(e) => eprintln!("empirical sweep skipped: {e}"),
    }
    Ok(())
}

pub fn fuzz(args: &Args) -> Outcome {
    let backend = backend(args, "fuzz", true);
    let smoke = args.has("smoke");
    let agreement = args.has("agreement");
    let cases: usize = args.value("cases").unwrap_or(if smoke { 50 } else { 500 });
    let seed: u64 = args.value("seed").unwrap_or(1);
    let validator = lsv_analyze::deny_validator;
    // --agreement cross-checks the symbolic analyzer's OOB-ADDR /
    // ACC-CLOBBER verdicts against the traced replay on every case.
    let oracle: Option<fuzz::CaseValidator> = if agreement {
        Some(&lsv_analyze::verdict_agreement)
    } else {
        None
    };

    println!(
        "replaying seed corpus ({} cases, {backend} backend{})...",
        fuzz::seed_corpus().len(),
        if agreement {
            ", agreement oracle on"
        } else {
            ""
        }
    );
    let corpus = fuzz::run_corpus_backend(&validator, oracle, backend);
    report_fuzz("corpus", &corpus);

    println!("fuzzing {cases} randomized cases (seed {seed}, {backend} backend)...");
    let random = fuzz::run_fuzz_backend(cases, seed, &validator, oracle, backend);
    report_fuzz("random", &random);

    if corpus.clean() && random.clean() {
        Ok(())
    } else {
        Err("fuzzing found failures".into())
    }
}

pub fn profile(args: &Args) -> Outcome {
    let arch = arch(args);
    backend(args, "profile", false);
    let smoke = args.has("smoke");
    // A small fixed problem keeps the CI gate fast.
    let p = problem(
        args,
        if smoke { 4 } else { 64 },
        if smoke { 14 } else { 28 },
    );
    let (dir, alg) = (dir(args), direct_algorithm(args, "profile"));
    configure_store(args);

    let (perf, profile) = bench_layer_profiled(&arch, &p, dir, alg, ExecutionMode::TimingOnly);

    // Cross-check the profile against the *independently kept* slice
    // report, not just its own embedded totals.
    let r = &perf.report;
    let slice_stats = CoreStats {
        cycles: r.cycles,
        insts: r.insts,
        cache: r.cache,
        stall_scalar: r.stall_scalar,
        stall_dep: r.stall_dep,
        stall_port: r.stall_port,
        bank_serial_cycles: r.bank_serial_cycles,
    };
    let reconciliation = lsv_analyze::check_profile_reconciliation(&profile, &slice_stats);
    for d in &reconciliation.diagnostics {
        eprintln!("{d}");
    }
    if reconciliation.has_deny() {
        return Err("profile does not reconcile with the slice report".into());
    }

    let meta = profile_meta(&arch, &p, dir, alg.short_name(), &profile);
    let out_dir = args.get("out").unwrap_or("results/profile");
    let artifacts = write_profile_artifacts(Path::new(out_dir), "profile", &profile, &meta)
        .map_err(|e| e.to_string())?;

    println!("problem: {p} ({dir}, {})", alg.short_name());
    print_profile_summary(&profile, if smoke { 8 } else { 24 });
    println!();
    println!("report:  {} (schema-valid)", artifacts.report.display());
    println!(
        "trace:   {} (load at https://ui.perfetto.dev)",
        artifacts.trace.display()
    );
    println!(
        "folded:  {} (flamegraph.pl input)",
        artifacts.folded.display()
    );
    Ok(())
}
