//! Result files and their comparison. A result records the host
//! fingerprint next to every metric; two results compare only when their
//! hosts match, otherwise the comparison prints "not comparable".

use crate::host::Fingerprint;
use crate::metrics::{num, Metrics};
use lsv_obs::JsonValue;
use std::path::Path;

#[allow(clippy::too_many_arguments)]
pub fn result_json(
    fp: &Fingerprint,
    workload: &str,
    seed: u64,
    trace: bool,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|(k, v)| format!("    \"{k}\": {}", num(*v)))
        .collect();
    format!(
        "{{\n  \"workload\": \"{workload}\",\n  \"seed\": {seed},\n  \"trace\": {trace},\n  \
         \"host\": {},\n  \"correct\": {correct},\n  \"attempted\": {attempted},\n  \
         \"failed\": {failed},\n  \"metrics\": {{\n{}\n  }}\n}}\n",
        fp.to_json(),
        items.join(",\n")
    )
}

struct Loaded {
    workload: String,
    host: Fingerprint,
    metrics: Vec<(String, f64)>,
}

fn load(path: &str) -> Result<Loaded, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v = lsv_obs::parse_json(&text).map_err(|e| format!("{path}: {e}"))?;
    let workload = match v.get("workload") {
        Some(JsonValue::Str(s)) => s.clone(),
        _ => return Err(format!("{path}: no workload")),
    };
    let host = v
        .get("host")
        .and_then(Fingerprint::from_json)
        .ok_or_else(|| format!("{path}: no host fingerprint"))?;
    let metrics = match v.get("metrics") {
        Some(JsonValue::Obj(members)) => members
            .iter()
            .filter_map(|(k, v)| match v {
                JsonValue::Num(x) => Some((k.clone(), *x)),
                _ => None,
            })
            .collect(),
        _ => return Err(format!("{path}: no metrics")),
    };
    Ok(Loaded {
        workload,
        host,
        metrics,
    })
}

/// `compare OLD NEW`: new/old ratio of every metric both results carry.
/// Exit code 0, or 1 when a file cannot be read or the results are not
/// comparable.
pub fn run(old: &str, new: &str) -> i32 {
    let (a, b) = match (load(old), load(new)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    println!("old: {} at {}", a.workload, a.host.to_json());
    println!("new: {} at {}", b.workload, b.host.to_json());
    if a.workload != b.workload {
        println!("not comparable: workloads differ");
        return 1;
    }
    if !a.host.comparable(&b.host) {
        println!("not comparable: host fingerprints differ");
        return 1;
    }
    for (name, x) in &a.metrics {
        if let Some((_, y)) = b.metrics.iter().find(|(n, _)| n == name) {
            if *x != 0.0 {
                println!("{name}: {x} -> {y} (x{:.4})", y / x);
            } else {
                println!("{name}: {x} -> {y}");
            }
        }
    }
    0
}

/// After a traced run: the tracing overhead on `job_s` against the
/// untraced result of the same workload and seed, when there is one.
pub fn print_overhead(out: &Path, workload: &str, seed: u64, traced: &Metrics) {
    let path = out.join(format!("result-{workload}-s{seed}-t0.json"));
    let Ok(untraced) = load(&path.to_string_lossy()) else {
        println!("# tracing overhead: no untraced result for this seed yet");
        return;
    };
    let base = untraced.metrics.iter().find(|(n, _)| n == "job_s");
    if let (Some((_, base)), Some(t)) = (base, traced.get("job_s")) {
        println!(
            "# tracing overhead: job_s {t} s traced vs {base} s untraced ({:+.2}%)",
            (t / base - 1.0) * 100.0
        );
    }
}
