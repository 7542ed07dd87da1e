//! Integration tests for the whole-pipeline protocols behind Figs. 6 and 8,
//! at reduced scale: layer-wise co-design, dominant-stage architecture
//! sharing, and the feasibility repair for kernel-halo conflicts.

use thistle_arch::{ArchConfig, TechnologyParams};
use thistle_model::{ArchMode, CoDesignSpec, ConvLayer, Objective};
use thistle_obs::TraceCtx;
use thistle_repro::thistle::pipeline::{
    optimize_pipeline, repair_architecture_for_layers, single_architecture_for_pipeline,
};
use thistle_repro::thistle::{Optimizer, OptimizerOptions};

fn quick_optimizer() -> Optimizer {
    Optimizer::new(TechnologyParams::cgo2022_45nm()).with_options(OptimizerOptions {
        max_perm_pairs: 16,
        candidate_limit: 500,
        top_solutions: 4,
        threads: 4,
        ..OptimizerOptions::default()
    })
}

/// A mixed pipeline whose biggest stage is a 1x1 conv (like yolo_11): the
/// dominant stage co-designs a tiny register file that must be repaired
/// before it can serve the 3x3 stages.
fn mixed_pipeline() -> Vec<ConvLayer> {
    vec![
        ConvLayer::new("small_3x3", 1, 16, 16, 18, 18, 3, 3, 1),
        ConvLayer::new("big_1x1", 1, 512, 64, 18, 18, 1, 1, 1),
    ]
}

#[test]
fn repair_raises_register_capacity_for_stencil_layers() {
    let opt = quick_optimizer();
    let layers = mixed_pipeline();
    // An architecture a 1x1 layer would love: 4 registers per PE.
    let tiny_regs = ArchConfig::new(400, 4, 65536);
    let repaired = repair_architecture_for_layers(&opt, &layers, tiny_regs);
    assert!(
        repaired.regs_per_pe > 4,
        "3x3 halos cannot fit in 4 registers; repaired to {}",
        repaired.regs_per_pe
    );
    assert!(repaired.regs_per_pe.is_power_of_two());
    // Repair trades PEs for registers within the same area.
    let tech = TechnologyParams::cgo2022_45nm();
    assert!(repaired.area_um2(&tech) <= tiny_regs.area_um2(&tech) * 1.0001);
    // An already-adequate architecture is untouched.
    let fine = ArchConfig::eyeriss();
    assert_eq!(repair_architecture_for_layers(&opt, &layers, fine), fine);
}

#[test]
fn fig6_protocol_completes_on_mixed_kernel_sizes() {
    let opt = quick_optimizer();
    let layers = mixed_pipeline();
    let spec = CoDesignSpec::same_area_as(&ArchConfig::eyeriss(), opt.tech());
    let (layerwise, shared, fixed) = single_architecture_for_pipeline(
        &opt,
        &layers,
        Objective::Energy,
        &ArchMode::CoDesign(spec),
        &TraceCtx::disabled(),
    )
    .expect("protocol must survive a 1x1-dominant pipeline");

    // The shared architecture serves every layer (no NoFeasibleDesign), and
    // each layer's shared-arch energy is within a modest factor of its
    // layer-wise optimum — the paper's Fig. 6 observation.
    for (lw, fx) in layerwise.layers.iter().zip(&fixed.layers) {
        assert!(
            fx.eval.pj_per_mac <= lw.eval.pj_per_mac * 3.0,
            "{}: shared {} vs layer-wise {}",
            lw.workload_name,
            fx.eval.pj_per_mac,
            lw.eval.pj_per_mac
        );
    }
    // And far better than Eyeriss.
    let eyeriss = optimize_pipeline(
        &opt,
        &layers,
        Objective::Energy,
        &ArchMode::Fixed(ArchConfig::eyeriss()),
    )
    .unwrap();
    assert!(fixed.total(Objective::Energy) < eyeriss.total(Objective::Energy) * 0.6);
    let _ = shared;
}

#[test]
fn fig8_protocol_shared_arch_keeps_most_of_the_speedup() {
    let opt = quick_optimizer();
    let layers = mixed_pipeline();
    let spec = CoDesignSpec::same_area_as(&ArchConfig::eyeriss(), opt.tech());
    let (layerwise, _, fixed) = single_architecture_for_pipeline(
        &opt,
        &layers,
        Objective::Delay,
        &ArchMode::CoDesign(spec),
        &TraceCtx::disabled(),
    )
    .expect("delay protocol");
    let eyeriss = optimize_pipeline(
        &opt,
        &layers,
        Objective::Delay,
        &ArchMode::Fixed(ArchConfig::eyeriss()),
    )
    .unwrap();
    // Ordering of the three series (paper's Fig. 8 shape).
    assert!(layerwise.total(Objective::Delay) <= fixed.total(Objective::Delay) * 1.0001);
    assert!(fixed.total(Objective::Delay) <= eyeriss.total(Objective::Delay) * 1.0001);
}
