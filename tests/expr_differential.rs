//! Thread-count invariance of the optimizer sweep: each worker thread
//! builds its pairs' symbolic traffic models, and the winner must stay
//! bit-identical however many threads run the sweep.

use thistle_arch::{ArchConfig, TechnologyParams};
use thistle_model::{ArchMode, CoDesignSpec, ConvLayer, Objective};
use thistle_repro::thistle::{Optimizer, OptimizerOptions};

fn tech() -> TechnologyParams {
    TechnologyParams::cgo2022_45nm()
}

fn conv3x3() -> ConvLayer {
    ConvLayer::new("conv3x3", 1, 32, 16, 16, 16, 3, 3, 1)
}

fn relative_gap(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(1e-300)
}

/// The full conv3x3 sweep returns the identical winner regardless of thread
/// count: same permutation pair, architecture, mapping, and referee score.
#[test]
fn conv3x3_sweep_winner_is_thread_count_invariant() {
    let layer = conv3x3();
    let run = |threads: usize| {
        Optimizer::new(tech())
            .with_options(OptimizerOptions {
                max_perm_pairs: 16,
                candidate_limit: 300,
                threads,
                ..OptimizerOptions::default()
            })
            .optimize_layer(
                &layer,
                Objective::Energy,
                &ArchMode::Fixed(ArchConfig::eyeriss()),
            )
            .unwrap()
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(serial.perm1, parallel.perm1);
    assert_eq!(serial.perm3, parallel.perm3);
    assert_eq!(serial.arch, parallel.arch);
    assert_eq!(serial.mapping, parallel.mapping);
    assert_eq!(serial.eval.energy_pj, parallel.eval.energy_pj);
    assert_eq!(serial.eval.cycles, parallel.eval.cycles);
    assert!(relative_gap(serial.relaxed_objective, parallel.relaxed_objective) < 1e-9);
}

/// Co-design sweeps stay deterministic too — the capacity prefilter in the
/// rescore loop must not change the winner, only skip referee calls that
/// would have been rejected anyway.
#[test]
fn codesign_sweep_winner_is_thread_count_invariant() {
    let layer = conv3x3();
    let mode = ArchMode::CoDesign(CoDesignSpec::same_area_as(&ArchConfig::eyeriss(), &tech()));
    let run = |threads: usize| {
        Optimizer::new(tech())
            .with_options(OptimizerOptions {
                max_perm_pairs: 8,
                candidate_limit: 200,
                threads,
                ..OptimizerOptions::default()
            })
            .optimize_layer(&layer, Objective::Energy, &mode)
            .unwrap()
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(serial.perm1, parallel.perm1);
    assert_eq!(serial.perm3, parallel.perm3);
    assert_eq!(serial.arch, parallel.arch);
    assert_eq!(serial.mapping, parallel.mapping);
    assert_eq!(serial.eval.energy_pj, parallel.eval.energy_pj);
}
