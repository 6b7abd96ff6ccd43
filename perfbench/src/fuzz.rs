//! `fuzz-agreement`: seeded differential fuzzing on the simulator backend,
//! with the `lsv-analyze` deny-linter as the case validator and the
//! symbolic-vs-replay verdict-agreement oracle. Every run must be clean.

use crate::metrics::Metrics;
use crate::{warm_up_simulator, Ctx, Outcome};
use lsv_arch::ArchParams;
use lsv_conv::fuzz::run_fuzz_backend;
use lsv_conv::tuning::KernelConfig;
use lsv_conv::{BackendKind, ConvProblem};
use std::cell::Cell;
use std::time::Instant;

/// Cases per fuzzing iteration.
const CASES: usize = 1000;

/// Seed of iteration `k`: every iteration draws fresh cases.
fn iteration_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (k as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let tracer = &ctx.tracer;
    let ((), setup_s) = ctx.setup(warm_up_simulator);

    let mut m = Metrics::default();
    let validator_s = Cell::new(0.0);
    let validator_calls = Cell::new(0u64);
    let oracle_s = Cell::new(0.0);
    let (outs, took) = ctx.measure(|k| {
        tracer.span(
            "conv.fuzz",
            || format!("run_fuzz_backend #{k}"),
            None,
            |root| {
                let validator = |a: &ArchParams, p: &ConvProblem, c: &KernelConfig| {
                    let t = Instant::now();
                    let r = tracer.span(
                        "analyze",
                        || "deny_validator".to_string(),
                        root,
                        |_| lsv_analyze::deny_validator(a, p, c),
                    );
                    validator_s.set(validator_s.get() + t.elapsed().as_secs_f64());
                    validator_calls.set(validator_calls.get() + 1);
                    r
                };
                let oracle = |a: &ArchParams, p: &ConvProblem, c: &KernelConfig| {
                    let t = Instant::now();
                    let r = tracer.span(
                        "analyze",
                        || "verdict_agreement".to_string(),
                        root,
                        |_| lsv_analyze::verdict_agreement(a, p, c),
                    );
                    oracle_s.set(oracle_s.get() + t.elapsed().as_secs_f64());
                    r
                };
                run_fuzz_backend(
                    CASES,
                    iteration_seed(ctx.seed, k),
                    &validator,
                    Some(&oracle),
                    BackendKind::Sim,
                )
            },
        )
    });
    let (mut attempted, mut failed, mut skipped, mut exec_s) = (0u64, 0u64, 0u64, 0.0);
    let mut failures = Vec::new();
    for out in &outs {
        attempted += out.cases_run as u64;
        skipped += out.skipped as u64;
        failed += out.failures.len() as u64;
        exec_s += out.exec_secs;
        failures.extend(
            out.failures
                .iter()
                .map(|f| format!("fuzz {}: {}", f.case, f.why)),
        );
    }
    let n = took.len() as f64;
    let total_s: f64 = took.iter().map(|t| t.wall).sum();
    m.set("fuzz_cases_per_s", attempted as f64 / total_s);
    m.set("fuzz.exec_s", exec_s / n);
    m.set("analyze.validator_ms", validator_s.get() * 1e3 / n);
    m.set("analyze.validator_calls", validator_calls.get() as f64 / n);
    m.set("analyze.oracle_ms", oracle_s.get() * 1e3 / n);
    m.set(
        "fuzz.other_s",
        (total_s - exec_s - validator_s.get() - oracle_s.get()) / n,
    );
    m.set(
        "fuzz.skipped_frac",
        skipped as f64 / attempted.max(1) as f64,
    );
    Outcome {
        attempted,
        failed,
        setup_s,
        jobs: took,
        metrics: m,
        failures,
    }
}
