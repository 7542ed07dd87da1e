//! Regenerates Fig. 7: throughput (MAC IPC) of Thistle's delay-optimized
//! dataflows versus the Timeloop-Mapper-style search, both on the fixed
//! Eyeriss architecture. The theoretical maximum IPC is the PE count (168).

use thistle::pipeline::optimize_pipeline;
use thistle_arch::ArchConfig;
use thistle_bench::{all_layers, geomean, mapper_baseline, print_table, standard_optimizer};
use thistle_model::{ArchMode, ConvLayer, Objective};
use timeloop_lite::mapper::SearchObjective;

fn main() {
    let optimizer = standard_optimizer();
    let eyeriss = ArchConfig::eyeriss();
    let mode = ArchMode::Fixed(eyeriss);

    println!("== Fig. 7: IPC on Eyeriss — Timeloop-style Mapper vs Thistle ==");
    println!("(higher is better; theoretical max = 168; paper: larger spread than energy)\n");

    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    let tagged = all_layers();
    let layers: Vec<ConvLayer> = tagged.iter().map(|(_, l)| l.clone()).collect();
    let result = optimize_pipeline(&optimizer, &layers, Objective::Delay, &mode)
        .expect("thistle delay optimization");
    for ((pipeline, layer), thistle) in tagged.iter().zip(&result.layers) {
        let mapper =
            mapper_baseline(layer, &eyeriss, SearchObjective::Delay).expect("mapper baseline");
        let speedup = thistle.eval.ipc / mapper.ipc;
        speedups.push(speedup);
        rows.push(vec![
            format!("{pipeline}/{}", layer.name),
            format!("{:.1}", mapper.ipc),
            format!("{:.1}", thistle.eval.ipc),
            format!("{:.3}", speedup),
        ]);
    }
    print_table(&["layer", "Mapper IPC", "Thistle IPC", "SpeedUp"], &rows);
    println!(
        "\ngeomean speedup (Thistle/Mapper): {:.3}",
        geomean(&speedups)
    );
}
