//! Whole-pipeline co-design for ResNet-18 (the Fig. 6 protocol): layer-wise
//! optimal architectures, then one shared architecture taken from the
//! energy-dominant stage.
//!
//! ```text
//! cargo run --release --example resnet_pipeline
//! ```

use thistle::pipeline::single_architecture_for_pipeline;
use thistle::{Optimizer, OptimizerOptions};
use thistle_arch::{ArchConfig, TechnologyParams};
use thistle_model::{ArchMode, CoDesignSpec, Objective};
use thistle_obs::TraceCtx;
use thistle_workloads::resnet18;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tech = TechnologyParams::cgo2022_45nm();
    let optimizer = Optimizer::new(tech.clone()).with_options(OptimizerOptions {
        threads: 8,
        ..OptimizerOptions::default()
    });
    let layers = resnet18();
    let eyeriss = ArchConfig::eyeriss();
    let codesign = ArchMode::CoDesign(CoDesignSpec::same_area_as(&eyeriss, &tech));

    let (layerwise, shared, fixed) = single_architecture_for_pipeline(
        &optimizer,
        &layers,
        Objective::Energy,
        &codesign,
        &TraceCtx::disabled(),
    )?;

    println!(
        "shared architecture (from the energy-dominant stage): P={} R={} S={} KB",
        shared.pe_count,
        shared.regs_per_pe,
        shared.sram_words * 2 / 1024
    );
    println!(
        "\n{:>10}  {:>14}  {:>16}  {:>16}",
        "layer", "layer-wise", "shared arch", "arch (layer-wise)"
    );
    for (lw, fx) in layerwise.layers.iter().zip(&fixed.layers) {
        println!(
            "{:>10}  {:>10.2} pJ/MAC  {:>12.2} pJ/MAC  P={:<4} R={:<4} S={}K",
            lw.workload_name,
            lw.eval.pj_per_mac,
            fx.eval.pj_per_mac,
            lw.arch.pe_count,
            lw.arch.regs_per_pe,
            lw.arch.sram_words / 1024,
        );
    }
    println!(
        "\npipeline totals: layer-wise {:.2} uJ, shared arch {:.2} uJ",
        layerwise.total(Objective::Energy) / 1e6,
        fixed.total(Objective::Energy) / 1e6
    );
    Ok(())
}
