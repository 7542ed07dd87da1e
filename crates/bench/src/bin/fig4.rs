//! Regenerates Fig. 4: energy efficiency (pJ/MAC) of Thistle's dataflow
//! optimization versus the Timeloop-Mapper-style search baseline, both on
//! the fixed Eyeriss architecture, for every conv layer of ResNet-18 and
//! Yolo-9000. `EnergyUp = Mapper / Thistle` (> 1 means Thistle wins).

use thistle::pipeline::optimize_pipeline;
use thistle_arch::ArchConfig;
use thistle_bench::{all_layers, geomean, mapper_baseline, print_table, standard_optimizer};
use thistle_model::{ArchMode, ConvLayer, Objective};
use timeloop_lite::mapper::SearchObjective;

fn main() {
    let optimizer = standard_optimizer();
    let eyeriss = ArchConfig::eyeriss();
    let mode = ArchMode::Fixed(eyeriss);

    println!("== Fig. 4: energy on Eyeriss — Timeloop-style Mapper vs Thistle ==");
    println!("(pJ/MAC, lower is better; paper band: 20-30 pJ/MAC, Thistle slightly ahead)\n");

    let mut rows = Vec::new();
    let mut ratios = Vec::new();
    let tagged = all_layers();
    let layers: Vec<ConvLayer> = tagged.iter().map(|(_, l)| l.clone()).collect();
    let result = optimize_pipeline(&optimizer, &layers, Objective::Energy, &mode)
        .expect("thistle optimization");
    for ((pipeline, layer), thistle) in tagged.iter().zip(&result.layers) {
        let mapper =
            mapper_baseline(layer, &eyeriss, SearchObjective::Energy).expect("mapper baseline");
        let energy_up = mapper.pj_per_mac / thistle.eval.pj_per_mac;
        ratios.push(energy_up);
        rows.push(vec![
            format!("{pipeline}/{}", layer.name),
            format!("{:.2}", mapper.pj_per_mac),
            format!("{:.2}", thistle.eval.pj_per_mac),
            format!("{:.3}", energy_up),
        ]);
    }
    print_table(
        &["layer", "Mapper pJ/MAC", "Thistle pJ/MAC", "EnergyUp"],
        &rows,
    );
    println!(
        "\ngeomean EnergyUp (Mapper/Thistle): {:.3}",
        geomean(&ratios)
    );
}
