//! Diagnostic probe: detailed stall/cache breakdown for one layer,
//! direction and engine set. Development tool; not part of the paper's
//! experiment set.
//!
//! Usage: `lsvconv-cli probe [layer_id] [fwdd|bwdd|bwdw] [minibatch]` (default 17 fwdd 256)

use crate::args::Args;
use crate::tools::direction;
use crate::Outcome;
use lsv_arch::presets::sx_aurora;
use lsv_bench::{bench_engine, Engine};
use lsv_conv::{ConvDesc, ExecutionMode};
use lsv_models::resnet_layer;

pub fn run(args: &Args) -> Outcome {
    let id: usize = args.pos(0).unwrap_or(17);
    let dir = direction(args.pos::<String>(1).as_deref().unwrap_or("fwdd"));
    let minibatch: usize = args.pos(2).unwrap_or(256);
    let arch = sx_aurora();
    let p = resnet_layer(id, minibatch);
    println!("layer {id} {dir}: {p}");
    for engine in Engine::ALL {
        let perf = bench_engine(&arch, &p, dir, engine, ExecutionMode::TimingOnly);
        let r = &perf.report;
        let cyc = r.cycles.max(1) as f64;
        let stalls = r
            .stall_breakdown()
            .map(|(label, c)| format!("{label} {:.2}", c as f64 / cyc))
            .join(" ");
        println!(
            "{:6}: {:8.1} GF/s eff {:5.3} | slice cycles {:>12} | {stalls} | insts {} | L1 h/m/c {}/{}/{} L2m {} LLCm {}",
            engine.name(),
            perf.gflops,
            perf.efficiency,
            r.cycles,
            r.insts.total(),
            r.cache.l1.hits,
            r.cache.l1.misses,
            r.cache.l1.conflict_misses,
            r.cache.l2.misses,
            r.cache.llc.misses,
        );
        if let Engine::Direct(alg) = engine {
            let cfg = *ConvDesc::new(p, dir, alg).create(&arch, 8).unwrap().cfg();
            println!(
                "        vl {} rb ({} x {}) rb_c {} tile (kh {} kw {} c {}) wbuf {} src_cb {} dst_cb {} wei ({},{}) conf {}",
                cfg.vl, cfg.rb.rb_w, cfg.rb.rb_h, cfg.rb_c, cfg.tile.kh_i, cfg.tile.kw_i,
                cfg.tile.c_i, cfg.wbuf, cfg.src_layout.cb, cfg.dst_layout.cb,
                cfg.wei_layout.icb, cfg.wei_layout.ocb, cfg.conflicts_predicted
            );
        }
    }
    Ok(())
}
