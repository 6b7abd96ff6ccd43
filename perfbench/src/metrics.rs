//! Metric names and units, as `BENCHMARK.json` declares them.

use std::collections::BTreeMap;

/// Name -> value of every metric one run measured.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<String, f64>);

/// A declared metric: name and unit.
pub type Decl = (String, &'static str);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    /// Add `value` to a metric (starting from 0).
    pub fn add(&mut self, name: &str, value: f64) {
        *self.0.entry(name.to_string()).or_insert(0.0) += value;
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&String, &f64)> {
        self.0.iter()
    }

    /// The declared metrics, in declaration order, with their units. A
    /// metric the run did not exercise reads 0.
    pub fn select(&self, decls: &[Decl]) -> Reported {
        Reported(
            decls
                .iter()
                .map(|(name, unit)| (name.clone(), self.get(name).unwrap_or(0.0), *unit))
                .collect(),
        )
    }
}

/// The metrics one run reports, with units.
pub struct Reported(Vec<(String, f64, &'static str)>);

impl Reported {
    /// `name = value unit`, one per metric.
    pub fn lines(&self) -> Vec<String> {
        self.0
            .iter()
            .map(|(n, v, u)| format!("{n} = {v} {u}"))
            .collect()
    }

    pub fn to_json(&self) -> String {
        let items: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!("{{{}}}", items.join(", "))
    }
}

/// A JSON number with every digit of the measurement.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn d(name: &str, unit: &'static str) -> Decl {
    (name.to_string(), unit)
}

/// The end-to-end metrics: every workload reports all of them.
pub fn end_to_end() -> Vec<Decl> {
    vec![d("setup_s", "s"), d("job_s", "s")]
}

/// Span layers, as `self_ms.<layer>` names them.
pub const LAYERS: [&str; 12] = [
    "bench",
    "sim",
    "vednn",
    "conv.create",
    "conv.native",
    "conv.verify",
    "conv.runner",
    "conv.store",
    "conv.fuzz",
    "serve",
    "obs",
    "analyze",
];

/// Table 3 layer ids as metric suffixes (`L00`..`L18`).
pub fn layer_tag(id: usize) -> String {
    format!("L{id:02}")
}

/// The per-layer metrics: a traced run of any workload reports all of them;
/// the ones its workload does not exercise read 0.
pub fn per_layer() -> Vec<Decl> {
    let mut v = vec![
        d("sim_sweep_s", "s"),
        d("sim_gflops", "GFLOP/s"),
        d("native_gflops", "GFLOP/s"),
        d("serve_cold_s", "s"),
        d("serve_p99_ms", "ms"),
        d("serve_capacity_rps", "1/s"),
        d("fuzz_cases_per_s", "1/s"),
        d("peak_rss_mb", "MB"),
        d("job_cpu_s", "s"),
        d("trace.job_s", "s"),
        d("trace.spans", "count"),
    ];
    v.extend(LAYERS.iter().map(|l| d(&format!("self_ms.{l}"), "ms")));
    for k in ["fwdd", "bwdd", "bwdw", "DC", "BDC", "MBDC", "vednn"] {
        v.push(d(&format!("sim.host_ms.{k}"), "ms"));
    }
    for id in 0..lsv_models::NUM_LAYERS {
        v.push(d(&format!("sim.host_ms.{}", layer_tag(id)), "ms"));
    }
    for k in ["fwdd", "bwdd", "bwdw"] {
        v.push(d(&format!("sim.mcycles_per_s.{k}"), "Mcycle/s"));
    }
    v.push(d("sim.minsts_per_s", "Minst/s"));
    v.push(d("conv.create_us", "us"));
    v.push(d("conv.creates", "count"));
    for id in 0..lsv_models::NUM_LAYERS {
        v.push(d(
            &format!("native.gflops.{}.fwdd", layer_tag(id)),
            "GFLOP/s",
        ));
    }
    for k in ["bwdd", "bwdw", "mbdc"] {
        v.push(d(&format!("native.gflops.{k}"), "GFLOP/s"));
    }
    v.push(d("native.host_peak_gflops", "GFLOP/s"));
    for k in ["fwdd", "bwdd", "bwdw"] {
        v.push(d(&format!("native.peak_frac.{k}"), "frac"));
    }
    v.extend([
        d("native.setup_ms", "ms"),
        d("naive.check_ms", "ms"),
        d("runner.plan_ms", "ms"),
        d("runner.plans", "count"),
        d("runner.simulated", "count"),
        d("runner.store_hits", "count"),
        d("store.hits", "count"),
        d("store.misses", "count"),
        d("store.hit_rate", "frac"),
        d("store.disk_bytes", "bytes"),
        d("store.warm_replay_ms", "ms"),
        d("serve.table_ms", "ms"),
        d("serve.sweep_ms", "ms"),
        d("serve.sim_requests_per_s", "1/s"),
        d("obs.serving_json_ms", "ms"),
        d("fuzz.exec_s", "s"),
        d("analyze.validator_ms", "ms"),
        d("analyze.validator_calls", "count"),
        d("analyze.oracle_ms", "ms"),
        d("fuzz.other_s", "s"),
        d("fuzz.skipped_frac", "frac"),
    ]);
    v
}
