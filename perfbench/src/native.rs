//! `native-table3`: the native backend on every Table 3 forward layer
//! (BDC), plus backward-data, backward-weights and MBDC forward on layers
//! 4, 8 and 16, at minibatch 16. No simulator runs. Set-up checks a
//! minibatch-2 copy of every configuration against the naive reference.

use crate::metrics::{layer_tag, Metrics};
use crate::{host, shuffle, Ctx, Outcome};
use lsv_arch::presets::sx_aurora;
use lsv_conv::{bench_layer_native, validate_with_backend, Algorithm, Direction, NativeBackend};
use std::collections::BTreeMap;
use std::time::Instant;

const MINIBATCH: usize = 16;
const CHECK_MINIBATCH: usize = 2;
const EXTRA_LAYERS: [usize; 3] = [4, 8, 16];

type Job = (usize, Direction, Algorithm);

/// The metric suffix of a job's GFLOP/s.
fn tag(job: &Job) -> String {
    match job {
        (id, Direction::Fwd, Algorithm::Bdc) => format!("{}.fwdd", layer_tag(*id)),
        (_, Direction::Fwd, _) => "mbdc".to_string(),
        (_, dir, _) => dir.short_name().to_string(),
    }
}

fn jobs(seed: u64) -> Vec<Job> {
    let mut v: Vec<Job> = (0..lsv_models::NUM_LAYERS)
        .map(|id| (id, Direction::Fwd, Algorithm::Bdc))
        .collect();
    for id in EXTRA_LAYERS {
        v.push((id, Direction::BwdData, Algorithm::Bdc));
        v.push((id, Direction::BwdWeights, Algorithm::Bdc));
        v.push((id, Direction::Fwd, Algorithm::Mbdc));
    }
    shuffle(&mut v, seed);
    v
}

pub fn run(ctx: &Ctx) -> Outcome {
    let arch = sx_aurora();
    let tracer = &ctx.tracer;
    let mut m = Metrics::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut failures = Vec::new();

    // Set-up: the job list and the naive check of every configuration at
    // minibatch 2.
    let ((jobs, reports), setup_s) = ctx.setup(|| {
        let jobs = jobs(ctx.seed);
        let reports: Vec<_> = lsv_bench::par::par_map(jobs.clone(), |(id, dir, alg)| {
            let p = lsv_models::resnet_layer(id, CHECK_MINIBATCH);
            let r = tracer.span(
                "conv.verify",
                || format!("validate_with_backend L{id:02} {dir} {alg}"),
                None,
                |_| validate_with_backend(&arch, &p, dir, alg, &NativeBackend),
            );
            ((id, dir, alg), r)
        });
        (jobs, reports)
    });
    for ((id, dir, alg), r) in reports {
        attempted += 1;
        if !r.passed {
            failed += 1;
            failures.push(format!(
                "native L{id:02} {dir} {alg} at minibatch {CHECK_MINIBATCH}: rel_err {}",
                r.rel_err
            ));
        }
    }
    m.set("naive.check_ms", setup_s * 1e3);

    let (passes, took) = ctx.measure(|k| {
        tracer.span(
            "bench",
            || format!("native pass {k}"),
            None,
            |root| {
                jobs.iter()
                    .map(|&(id, dir, alg)| {
                        let p = lsv_models::resnet_layer(id, MINIBATCH);
                        let t0 = Instant::now();
                        let perf = tracer.span(
                            "conv.native",
                            || format!("bench_layer_native L{id:02} {dir} {alg}"),
                            root,
                            |_| bench_layer_native(&arch, &p, dir, alg),
                        );
                        let call_s = t0.elapsed().as_secs_f64();
                        (p.flops() as f64, perf.host_secs, call_s - perf.host_secs)
                    })
                    .collect::<Vec<_>>()
            },
        )
    });
    // (FLOPs, execution seconds) summed per reported rate: the total, each
    // layer or pass, and each direction's BDC jobs against the host peak.
    let mut rates: BTreeMap<String, (f64, f64)> = BTreeMap::new();
    let mut operand_setup_s = 0.0;
    for pass in &passes {
        for (job, &(f, s, setup)) in jobs.iter().zip(pass) {
            let mut keys = vec![
                "native_gflops".to_string(),
                format!("native.gflops.{}", tag(job)),
            ];
            if job.2 == Algorithm::Bdc {
                keys.push(format!("native.peak_frac.{}", job.1.short_name()));
            }
            for k in keys {
                let r = rates.entry(k).or_default();
                r.0 += f;
                r.1 += s;
            }
            operand_setup_s += setup;
        }
    }
    // Primitive creation and operand allocation and fill inside each
    // `bench_layer_native` call, outside its timed execution.
    m.set(
        "native.setup_ms",
        operand_setup_s * 1e3 / passes.len() as f64,
    );
    let peak = host::peak_gflops();
    m.set("native.host_peak_gflops", peak);
    for (name, (f, s)) in rates {
        let gflops = f / s / 1e9;
        let value = if name.starts_with("native.peak_frac.") {
            gflops / peak
        } else {
            gflops
        };
        m.set(&name, value);
    }
    Outcome {
        attempted,
        failed,
        setup_s,
        jobs: took,
        metrics: m,
        failures,
    }
}
