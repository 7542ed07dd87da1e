//! Regenerates Fig. 8: delay (cycles, and IPC) for (1) the fixed Eyeriss
//! architecture, (2) a layer-wise co-designed architecture, and (3) one
//! shared architecture taken from the delay-dominant stage, with dataflow
//! re-optimized per layer.

use thistle::pipeline::{optimize_pipeline_traced, single_architecture_for_pipeline};
use thistle_arch::ArchConfig;
use thistle_bench::{print_table, standard_optimizer, tech, TraceCapture};
use thistle_model::{ArchMode, CoDesignSpec, ConvLayer, Objective};
use thistle_workloads::all_pipelines;

fn main() {
    let trace = TraceCapture::from_args("fig8-trace.json");
    let ctx = trace.as_ref().map(TraceCapture::ctx).unwrap_or_default();
    let optimizer = standard_optimizer();
    let eyeriss = ArchConfig::eyeriss();
    let codesign = ArchMode::CoDesign(CoDesignSpec::same_area_as(&eyeriss, &tech()));
    let objective = Objective::Delay;

    println!("== Fig. 8: delay — Eyeriss vs layer-wise arch vs single fixed arch ==");
    println!("(paper: co-design wins by orders of magnitude; bigger drop to the shared arch than for energy)\n");

    let pipelines = all_pipelines();
    let every_layer: Vec<ConvLayer> = pipelines.iter().flat_map(|(_, l)| l.clone()).collect();
    let (layerwise, shared, fixed_shared) =
        single_architecture_for_pipeline(&optimizer, &every_layer, objective, &codesign, &ctx)
            .expect("single-architecture protocol");
    let fixed_eyeriss = optimize_pipeline_traced(
        &optimizer,
        &every_layer,
        objective,
        &ArchMode::Fixed(eyeriss),
        &ctx,
    )
    .expect("eyeriss delay optimization");
    let dominant = layerwise
        .dominant_layer(objective)
        .expect("both pipelines have layers");
    println!(
        "delay-dominant layer: {} -> shared arch P={} R={} S={}K words\n",
        layerwise.layers[dominant].workload_name,
        shared.pe_count,
        shared.regs_per_pe,
        shared.sram_words / 1024
    );

    let mut first = 0;
    for (name, layers) in &pipelines {
        println!("\n-- {name} (cycles; speedup vs Eyeriss in parentheses) --");
        let rows: Vec<Vec<String>> = (first..first + layers.len())
            .map(|i| {
                let base = fixed_eyeriss.layers[i].eval.cycles;
                let lw = layerwise.layers[i].eval.cycles;
                let sh = fixed_shared.layers[i].eval.cycles;
                vec![
                    layerwise.layers[i].workload_name.clone(),
                    format!("{:.3e}", base),
                    format!("{:.3e} ({:.0}x)", lw, base / lw),
                    format!("{:.3e} ({:.1}x)", sh, base / sh),
                ]
            })
            .collect();
        print_table(
            &["layer", "Eyeriss", "layer-wise arch", "fixed shared arch"],
            &rows,
        );
        first += layers.len();
    }
    if let Some(trace) = trace {
        trace.finish();
    }
}
