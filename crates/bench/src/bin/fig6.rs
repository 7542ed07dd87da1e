//! Regenerates Fig. 6: energy for (1) the fixed Eyeriss architecture, (2) a
//! layer-wise optimized architecture per stage, and (3) one shared
//! architecture — that of the energy-dominant stage across *both* pipelines
//! — with dataflow re-optimized per layer.

use thistle::pipeline::{optimize_pipeline_traced, single_architecture_for_pipeline};
use thistle_arch::ArchConfig;
use thistle_bench::{print_table, standard_optimizer, tech, TraceCapture};
use thistle_model::{ArchMode, CoDesignSpec, ConvLayer, Objective};
use thistle_workloads::all_pipelines;

fn main() {
    let trace = TraceCapture::from_args("fig6-trace.json");
    let ctx = trace.as_ref().map(TraceCapture::ctx).unwrap_or_default();
    let optimizer = standard_optimizer();
    let eyeriss = ArchConfig::eyeriss();
    let codesign = ArchMode::CoDesign(CoDesignSpec::same_area_as(&eyeriss, &tech()));
    let objective = Objective::Energy;

    println!("== Fig. 6: energy — Eyeriss vs layer-wise arch vs single fixed arch ==");
    println!("(shared arch = architecture of the energy-dominant layer across both pipelines)\n");

    // One protocol run over both pipelines' layers: layer-wise co-design,
    // the energy-dominant layer's architecture (repaired to fit every
    // layer), then dataflow-only re-optimization on it.
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
    .expect("eyeriss dataflow optimization");
    let dominant = layerwise
        .dominant_layer(objective)
        .expect("both pipelines have layers");
    println!(
        "energy-dominant layer: {} -> shared arch P={} R={} S={}K words\n",
        layerwise.layers[dominant].workload_name,
        shared.pe_count,
        shared.regs_per_pe,
        shared.sram_words / 1024
    );

    let mut first = 0;
    for (name, layers) in &pipelines {
        println!("\n-- {name} (pJ/MAC per conv stage) --");
        let rows: Vec<Vec<String>> = (first..first + layers.len())
            .map(|i| {
                vec![
                    layerwise.layers[i].workload_name.clone(),
                    format!("{:.2}", fixed_eyeriss.layers[i].eval.pj_per_mac),
                    format!("{:.2}", layerwise.layers[i].eval.pj_per_mac),
                    format!("{:.2}", fixed_shared.layers[i].eval.pj_per_mac),
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
