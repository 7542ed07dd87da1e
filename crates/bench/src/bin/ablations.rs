//! Ablations for the design choices DESIGN.md calls out:
//!
//! 1. **Permutation pruning**: hoist-signature classes vs raw permutation
//!    counts per level, for matmul and representative conv layers.
//! 2. **Integerization width `n`**: final referee energy for n = 1, 2, 3
//!    (the paper picks 2 or 3).
//! 3. **`sqrt(S)` energy model**: Eq. 4 vs the cacti-lite physical model
//!    across capacities.
//! 4. **GP gap tolerance**: solution quality vs solver effort.
//! 5. **Register-cost fidelity**: the literal Eq. 3 register term vs the
//!    referee-faithful per-PE form.
//! 6. **Spatial stencil distribution**: IPC with and without spreading the
//!    kernel dims across PEs (delay objective).
//! 7. **Search baselines**: random and genetic mapping search vs Thistle
//!    at a similar evaluation budget.

use thistle::{Optimizer, OptimizerOptions};
use thistle_arch::{cacti_lite, ArchConfig};
use thistle_bench::{print_table, tech};
use thistle_gp::SolveOptions;
use thistle_model::{perms, ArchMode, ConvLayer, Objective, RegisterCostModel};

fn main() {
    ablate_pruning();
    ablate_candidate_width();
    ablate_sqrt_s();
    ablate_gap_tolerance();
    ablate_register_cost();
    ablate_spatial_stencils();
    ablate_search_baselines();
}

fn ablate_pruning() {
    println!("== Ablation 1: permutation pruning ==");
    let conv = ConvLayer::new("conv", 4, 64, 32, 56, 56, 3, 3, 1).workload();
    let conv1x1 = ConvLayer::new("conv1x1", 1, 256, 512, 34, 34, 1, 1, 1).workload();
    let mm = thistle_model::matmul_workload(256, 256, 256);
    let mut rows = Vec::new();
    for wl in [&mm, &conv, &conv1x1] {
        let (_, stats) = perms::level_classes_with_stats(wl);
        rows.push(vec![
            wl.name.clone(),
            stats.total.to_string(),
            stats.after_symmetry.to_string(),
            stats.classes.to_string(),
            format!(
                "{} -> {}",
                stats.total * stats.total,
                stats.classes * stats.classes
            ),
        ]);
    }
    print_table(
        &[
            "workload",
            "perms/level",
            "after symmetry",
            "classes",
            "GP solves (pairs)",
        ],
        &rows,
    );
}

fn ablate_candidate_width() {
    println!("\n== Ablation 2: integerization candidate width n ==");
    let layer = ConvLayer::new("resnet_6", 1, 128, 128, 28, 28, 3, 3, 1);
    let mut rows = Vec::new();
    for n in 1..=3 {
        let optimizer = Optimizer::new(tech()).with_options(OptimizerOptions {
            candidates_per_var: n,
            max_perm_pairs: 64,
            threads: 8,
            ..OptimizerOptions::default()
        });
        let start = std::time::Instant::now();
        let point = optimizer
            .optimize_layer(
                &layer,
                Objective::Energy,
                &ArchMode::Fixed(ArchConfig::eyeriss()),
            )
            .expect("optimization");
        rows.push(vec![
            n.to_string(),
            point.candidates_evaluated.to_string(),
            format!("{:.3}", point.eval.pj_per_mac),
            format!("{:.0} ms", start.elapsed().as_secs_f64() * 1e3),
        ]);
    }
    print_table(&["n", "candidates", "pJ/MAC", "time"], &rows);
}

fn ablate_sqrt_s() {
    println!("\n== Ablation 3: Eq. 4 sqrt(S) vs cacti-lite SRAM energy ==");
    let t = tech();
    let mut rows = Vec::new();
    for p in [10u32, 12, 14, 16, 18, 20] {
        let words = 1u64 << p;
        let exact = cacti_lite::access_energy(words).total_pj();
        let approx = t.sram_energy_pj(words as f64);
        rows.push(vec![
            format!("2^{p}"),
            format!("{:.3}", approx),
            format!("{:.3}", exact),
            format!("{:+.1}%", (approx / exact - 1.0) * 100.0),
        ]);
    }
    print_table(
        &["capacity (words)", "Eq.4 pJ", "cacti-lite pJ", "error"],
        &rows,
    );
    println!(
        "max relative error over 2^10..2^20: {:.1}%",
        cacti_lite::max_relative_error_vs_sqrt(&t, 10, 20) * 100.0
    );
}

fn ablate_gap_tolerance() {
    println!("\n== Ablation 4: GP duality-gap tolerance ==");
    let layer = ConvLayer::new("resnet_9", 1, 256, 256, 14, 14, 3, 3, 1);
    let mut rows = Vec::new();
    for gap in [1e-3, 1e-6, 1e-9] {
        let optimizer = Optimizer::new(tech()).with_options(OptimizerOptions {
            max_perm_pairs: 64,
            threads: 8,
            solve_options: SolveOptions {
                gap_tolerance: gap,
                ..SolveOptions::default()
            },
            ..OptimizerOptions::default()
        });
        let start = std::time::Instant::now();
        let point = optimizer
            .optimize_layer(
                &layer,
                Objective::Energy,
                &ArchMode::Fixed(ArchConfig::eyeriss()),
            )
            .expect("optimization");
        rows.push(vec![
            format!("{gap:.0e}"),
            format!("{:.4}", point.eval.pj_per_mac),
            format!("{:.1}", point.relaxed_objective / point.eval.macs as f64),
            format!("{:.0} ms", start.elapsed().as_secs_f64() * 1e3),
        ]);
    }
    print_table(
        &["gap tol", "pJ/MAC (referee)", "relaxed pJ/MAC", "time"],
        &rows,
    );
}

/// The literal Eq. 3 register term multicast-discounts register writes; the
/// referee (like Timeloop) charges them per PE. How much does objective
/// fidelity matter to the final refereed design?
fn ablate_register_cost() {
    println!("\n== Ablation 5: Eq. 3 literal vs referee-faithful register cost ==");
    let layers = [
        ConvLayer::new("resnet_2", 1, 64, 64, 56, 56, 3, 3, 1),
        ConvLayer::new("resnet_5", 1, 128, 64, 56, 56, 1, 1, 2),
        ConvLayer::new("yolo_7", 1, 512, 256, 34, 34, 3, 3, 1),
    ];
    let mut rows = Vec::new();
    for layer in &layers {
        let run = |model: RegisterCostModel| {
            let optimizer = Optimizer::new(tech()).with_options(OptimizerOptions {
                max_perm_pairs: 64,
                threads: 8,
                register_cost: model,
                ..OptimizerOptions::default()
            });
            optimizer
                .optimize_layer(
                    layer,
                    Objective::Energy,
                    &ArchMode::Fixed(ArchConfig::eyeriss()),
                )
                .expect("optimization")
                .eval
                .pj_per_mac
        };
        let paper = run(RegisterCostModel::PaperEq3);
        let faithful = run(RegisterCostModel::PerPe);
        rows.push(vec![
            layer.name.clone(),
            format!("{:.3}", paper),
            format!("{:.3}", faithful),
            format!("{:+.1}%", (faithful / paper - 1.0) * 100.0),
        ]);
    }
    print_table(
        &["layer", "Eq.3 literal", "per-PE (default)", "delta"],
        &rows,
    );
}

/// Spatial distribution of the kernel stencil dims (off = the paper's
/// literal pruning) matters at integerization time: the kernel extents (3,
/// 7) supply exactly the divisors the other extents lack, so with them the
/// rounded design can occupy the whole 168-PE array.
fn ablate_spatial_stencils() {
    println!("\n== Ablation 6: spatial stencil distribution (delay objective) ==");
    let layers = [
        ConvLayer::new("resnet_1", 1, 64, 3, 224, 224, 7, 7, 2),
        ConvLayer::new("yolo_3", 1, 128, 64, 136, 136, 3, 3, 1),
    ];
    let mut rows = Vec::new();
    for layer in &layers {
        let run = |enabled: bool| {
            let optimizer = Optimizer::new(tech()).with_options(OptimizerOptions {
                max_perm_pairs: 64,
                threads: 8,
                spatial_stencils: enabled,
                ..OptimizerOptions::default()
            });
            optimizer
                .optimize_layer(
                    layer,
                    Objective::Delay,
                    &ArchMode::Fixed(ArchConfig::eyeriss()),
                )
                .expect("optimization")
                .eval
                .ipc
        };
        let off = run(false);
        let on = run(true);
        rows.push(vec![
            layer.name.clone(),
            format!("{:.1}", off),
            format!("{:.1}", on),
            format!("{:.2}x", on / off),
        ]);
    }
    print_table(&["layer", "IPC (off)", "IPC (on)", "speedup"], &rows);
}

/// Search baselines at a fixed evaluation budget: random search (Timeloop-
/// Mapper-style), genetic algorithm (GAMMA-style), and Thistle's
/// model-driven pipeline.
fn ablate_search_baselines() {
    use thistle::convert::to_problem_spec;
    use thistle_arch::Bandwidths;
    use timeloop_lite::gamma::{GammaOptions, GeneticMapper};
    use timeloop_lite::mapper::{Mapper, MapperOptions, SearchObjective};
    use timeloop_lite::ArchSpec;

    println!("\n== Ablation 7: search baselines (energy, ~12k evaluations each) ==");
    let layer = ConvLayer::new("yolo_7", 1, 512, 256, 34, 34, 3, 3, 1);
    let prob = to_problem_spec(&layer.workload());
    let arch = ArchSpec::from_config(
        "abl",
        &ArchConfig::eyeriss(),
        &tech(),
        Bandwidths::default(),
    );

    let random = Mapper::new(
        prob.clone(),
        arch.clone(),
        MapperOptions {
            objective: SearchObjective::Energy,
            max_trials: 12_000,
            victory_condition: 12_000,
            threads: 8,
            seed: 1,
            time_limit: None,
        },
    )
    .search();
    let ga = GeneticMapper::new(
        prob,
        arch,
        GammaOptions {
            population: 60,
            generations: 200,
            ..GammaOptions::default()
        },
    )
    .search();
    let thistle = Optimizer::new(tech())
        .with_options(OptimizerOptions {
            threads: 8,
            ..OptimizerOptions::default()
        })
        .optimize_layer(
            &layer,
            Objective::Energy,
            &ArchMode::Fixed(ArchConfig::eyeriss()),
        )
        .expect("optimization");

    print_table(
        &["strategy", "pJ/MAC", "evaluations"],
        &[
            vec![
                "random (Mapper)".into(),
                format!(
                    "{:.3}",
                    random.best.as_ref().map_or(f64::NAN, |b| b.1.pj_per_mac)
                ),
                random.evaluated.to_string(),
            ],
            vec![
                "genetic (GAMMA-style)".into(),
                format!(
                    "{:.3}",
                    ga.best.as_ref().map_or(f64::NAN, |b| b.1.pj_per_mac)
                ),
                ga.evaluated.to_string(),
            ],
            vec![
                "Thistle (model-driven)".into(),
                format!("{:.3}", thistle.eval.pj_per_mac),
                format!(
                    "{} GPs + {} candidates",
                    thistle.gp_solves, thistle.candidates_evaluated
                ),
            ],
        ],
    );
}
