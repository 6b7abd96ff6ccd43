//! The artifact's analysis-notebook role (appendix A.4): read the CSVs the
//! experiments produced into `results/` and check the paper's headline
//! claims automatically, printing a PASS/FAIL verdict per claim.
//!
//! Usage: `lsvconv-cli report [results_dir]` (default `results`). Exits non-zero if any
//! claim fails, so it can gate CI.

use crate::args::Args;
use crate::Outcome;
use lsv_bench::geomean;
use std::collections::HashMap;
use std::path::Path;

#[derive(Debug, Clone)]
struct PerfRow {
    layer: usize,
    direction: String,
    algorithm: String,
    gflops: f64,
    #[allow(dead_code)] // kept for ad-hoc analysis of the CSVs
    time_ms: f64,
    conflicts_predicted: bool,
}

fn load_performance(dir: &Path) -> Result<Vec<PerfRow>, String> {
    let text = std::fs::read_to_string(dir.join("figure4.csv"))
        .or_else(|_| std::fs::read_to_string(dir.join("performance.csv")))
        .map_err(|_| {
            format!(
                "no figure4.csv or performance.csv in {} (run figure4/performance first)",
                dir.display()
            )
        })?;
    Ok(text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.starts_with("problem_id") && !l.trim().is_empty())
        .filter_map(|l| {
            let f: Vec<&str> = l.split(',').collect();
            if f.len() < 10 {
                return None;
            }
            Some(PerfRow {
                layer: f[0].parse().ok()?,
                direction: f[1].to_string(),
                algorithm: f[2].to_string(),
                gflops: f[4].parse().ok()?,
                time_ms: f[5].parse().ok()?,
                conflicts_predicted: f[9] == "true",
            })
        })
        .collect())
}

struct Verdicts {
    failures: usize,
}

impl Verdicts {
    fn check(&mut self, name: &str, ok: bool, detail: String) {
        println!("[{}] {name}: {detail}", if ok { "PASS" } else { "FAIL" });
        if !ok {
            self.failures += 1;
        }
    }
}

pub fn run(args: &Args) -> Outcome {
    let dir = args.pos::<String>(0).unwrap_or_else(|| "results".into());
    let dir = Path::new(&dir);
    let rows = load_performance(dir)?;
    if rows.is_empty() {
        return Err(format!("no performance rows in {}", dir.display()));
    }

    let mut v = Verdicts { failures: 0 };

    // Index rows by (direction, algorithm).
    let mut by: HashMap<(String, String), Vec<&PerfRow>> = HashMap::new();
    for r in &rows {
        by.entry((r.direction.clone(), r.algorithm.clone()))
            .or_default()
            .push(r);
    }
    let gm = |dir: &str, alg: &str| -> f64 {
        geomean(
            by.get(&(dir.to_string(), alg.to_string()))
                .map(|v| v.iter().map(|r| r.gflops).collect::<Vec<_>>())
                .unwrap_or_default(),
        )
    };

    // --- claim: BDC beats DC in every direction (>= 1.0x, > 1.3x overall)
    for d in ["fwdd", "bwdd", "bwdw"] {
        let ratio = gm(d, "BDC") / gm(d, "DC");
        v.check(
            &format!("BDC >= DC ({d})"),
            ratio >= 0.99,
            format!("geomean ratio {ratio:.2}x"),
        );
    }

    // --- claim: BDC and MBDC beat vednn overall (paper: 1.83x / 1.63x on R101)
    let bdc_vednn = geomean(
        ["fwdd", "bwdd", "bwdw"]
            .iter()
            .map(|d| gm(d, "BDC") / gm(d, "vednn")),
    );
    let mbdc_vednn = geomean(
        ["fwdd", "bwdd", "bwdw"]
            .iter()
            .map(|d| gm(d, "MBDC") / gm(d, "vednn")),
    );
    v.check(
        "BDC > vednn (paper 1.83x)",
        bdc_vednn > 1.3,
        format!("{bdc_vednn:.2}x"),
    );
    v.check(
        "MBDC > vednn (paper 1.63x)",
        mbdc_vednn > 1.2,
        format!("{mbdc_vednn:.2}x"),
    );

    // --- claim: DC collapses on the Formula-3 layers (fwdd)
    let (mut hot, mut cold) = (Vec::new(), Vec::new());
    for r in by.get(&("fwdd".to_string(), "DC".to_string())).unwrap() {
        if r.conflicts_predicted {
            hot.push(r.gflops);
        } else {
            cold.push(r.gflops);
        }
    }
    let collapse = geomean(cold.iter().copied()) / geomean(hot.iter().copied());
    v.check(
        "DC conflict collapse (fwdd)",
        collapse > 1.5,
        format!(
            "clean/conflicted geomean = {collapse:.2}x ({} conflicted layers)",
            hot.len()
        ),
    );

    // --- claim: BDC rescues the conflicted layers (paper ~2.95x over DC)
    let rescued: Vec<f64> = rows
        .iter()
        .filter(|r| r.direction == "fwdd" && r.algorithm == "DC" && r.conflicts_predicted)
        .map(|dc| {
            let bdc = rows
                .iter()
                .find(|r| r.layer == dc.layer && r.direction == "fwdd" && r.algorithm == "BDC")
                .unwrap();
            bdc.gflops / dc.gflops
        })
        .collect();
    let rescue = geomean(rescued.iter().copied());
    v.check(
        "BDC speedup on conflicted fwdd layers (paper ~2.95x)",
        rescue > 2.0,
        format!("{rescue:.2}x"),
    );

    // --- claim: MBDC bwdw is bimodal (slow early, fast late)
    let mbdc_bwdw: Vec<&PerfRow> = rows
        .iter()
        .filter(|r| r.direction == "bwdw" && r.algorithm == "MBDC")
        .collect();
    let dc_bwdw: Vec<&PerfRow> = rows
        .iter()
        .filter(|r| r.direction == "bwdw" && r.algorithm == "DC")
        .collect();
    let early = |rs: &[&PerfRow]| geomean(rs.iter().filter(|r| r.layer <= 10).map(|r| r.gflops));
    let late = |rs: &[&PerfRow]| geomean(rs.iter().filter(|r| r.layer >= 11).map(|r| r.gflops));
    v.check(
        "MBDC bwdw slower than DC on layers 0-10 (bank serialization)",
        early(&mbdc_bwdw) < early(&dc_bwdw),
        format!("{:.0} vs {:.0} GFLOP/s", early(&mbdc_bwdw), early(&dc_bwdw)),
    );
    v.check(
        "MBDC bwdw faster than DC on layers 11-18",
        late(&mbdc_bwdw) > late(&dc_bwdw),
        format!("{:.0} vs {:.0} GFLOP/s", late(&mbdc_bwdw), late(&dc_bwdw)),
    );

    // --- claim: vednn strong on layer 2, weak on 7x7 (ids 16-18)
    let vednn_l2 = rows
        .iter()
        .find(|r| r.layer == 2 && r.direction == "fwdd" && r.algorithm == "vednn")
        .unwrap();
    let vednn_7x7 = geomean(
        rows.iter()
            .filter(|r| r.layer >= 16 && r.direction == "fwdd" && r.algorithm == "vednn")
            .map(|r| r.gflops),
    );
    v.check(
        "vednn best-case on layer 2 (paper 65.5% peak)",
        vednn_l2.gflops > 2500.0,
        format!("{:.0} GFLOP/s", vednn_l2.gflops),
    );
    v.check(
        "vednn weak on 7x7 layers",
        vednn_7x7 < vednn_l2.gflops / 3.0,
        format!("{vednn_7x7:.0} vs {:.0} GFLOP/s", vednn_l2.gflops),
    );

    // --- Figure 5 claims, if present.
    if let Ok(text) = std::fs::read_to_string(dir.join("figure5.csv")) {
        let mut t: HashMap<(String, usize, String), f64> = HashMap::new();
        for l in text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.starts_with("model"))
        {
            let f: Vec<&str> = l.split(',').collect();
            if f.len() == 5 {
                if let (Ok(vl), Ok(ms)) = (f[1].parse::<usize>(), f[3].parse::<f64>()) {
                    t.insert((f[0].to_string(), vl, f[2].to_string()), ms);
                }
            }
        }
        for model in ["resnet-50", "resnet-101", "resnet-152"] {
            if let (Some(dc), Some(bdc)) = (
                t.get(&(model.to_string(), 16384, "DC".to_string())),
                t.get(&(model.to_string(), 16384, "BDC".to_string())),
            ) {
                let r = dc / bdc;
                v.check(
                    &format!("Figure 5: BDC > DC at 16384-bit ({model})"),
                    r > 1.15,
                    format!("{r:.2}x (paper 1.41-1.46x)"),
                );
            }
            // parity below 8192-bit
            if let (Some(dc), Some(bdc)) = (
                t.get(&(model.to_string(), 2048, "DC".to_string())),
                t.get(&(model.to_string(), 2048, "BDC".to_string())),
            ) {
                let r = dc / bdc;
                v.check(
                    &format!("Figure 5: parity at 2048-bit ({model})"),
                    (0.9..1.15).contains(&r),
                    format!("{r:.2}x"),
                );
            }
        }
    }

    println!();
    if v.failures == 0 {
        println!("all headline claims reproduced.");
        Ok(())
    } else {
        println!("{} claim(s) FAILED.", v.failures);
        Err("headline claims failed".into())
    }
}
