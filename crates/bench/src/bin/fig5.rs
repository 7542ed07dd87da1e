//! Regenerates Fig. 5: energy efficiency of layer-wise architecture-dataflow
//! co-design (same chip area as Eyeriss) versus the best dataflow on the
//! fixed Eyeriss architecture.

use thistle::pipeline::optimize_pipeline_traced;
use thistle_arch::ArchConfig;
use thistle_bench::{all_layers, geomean, print_table, standard_optimizer, tech, TraceCapture};
use thistle_model::{ArchMode, CoDesignSpec, ConvLayer, Objective};

fn main() {
    let trace = TraceCapture::from_args("fig5-trace.json");
    let ctx = trace.as_ref().map(TraceCapture::ctx).unwrap_or_default();
    let optimizer = standard_optimizer();
    let eyeriss = ArchConfig::eyeriss();
    let fixed = ArchMode::Fixed(eyeriss);
    let codesign = ArchMode::CoDesign(CoDesignSpec::same_area_as(&eyeriss, &tech()));

    println!("== Fig. 5: energy — Eyeriss vs layer-wise co-designed architecture ==");
    println!("(equal chip area; paper: Eyeriss 20-30 pJ/MAC, co-design ~5, <10 for all)\n");

    let tagged = all_layers();
    let layers: Vec<ConvLayer> = tagged.iter().map(|(_, l)| l.clone()).collect();
    let on_eyeriss = optimize_pipeline_traced(&optimizer, &layers, Objective::Energy, &fixed, &ctx)
        .expect("fixed-arch optimization");
    let co_designed =
        optimize_pipeline_traced(&optimizer, &layers, Objective::Energy, &codesign, &ctx)
            .expect("co-design optimization");

    let mut rows = Vec::new();
    let mut improvements = Vec::new();
    for (i, (pipeline, layer)) in tagged.iter().enumerate() {
        let e = &on_eyeriss.layers[i];
        let c = &co_designed.layers[i];
        improvements.push(e.eval.pj_per_mac / c.eval.pj_per_mac);
        rows.push(vec![
            format!("{pipeline}/{}", layer.name),
            format!("{:.2}", e.eval.pj_per_mac),
            format!("{:.2}", c.eval.pj_per_mac),
            format!(
                "P={} R={} S={}K",
                c.arch.pe_count,
                c.arch.regs_per_pe,
                c.arch.sram_words / 1024
            ),
            format!("{:.2}x", e.eval.pj_per_mac / c.eval.pj_per_mac),
        ]);
    }
    print_table(
        &[
            "layer",
            "Eyeriss pJ/MAC",
            "Co-design pJ/MAC",
            "chosen arch",
            "improvement",
        ],
        &rows,
    );
    println!("\ngeomean improvement: {:.2}x", geomean(&improvements));
    if let Some(trace) = trace {
        trace.finish();
    }
}
