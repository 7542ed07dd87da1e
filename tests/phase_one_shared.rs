//! The sweep runs phase I once per layer and starts every GP's phase II
//! from that point. The contract is that this is invisible: each pair's
//! `Solution` is bit-identical with and without the shared point, and a
//! whole sweep answers with the same ledger, recovery counts and winning
//! relaxed solve as solving every pair alone, clean and under injected
//! numerical faults, in all four mode x objective settings.

use thistle::{FailureLedger, Optimizer, OptimizerOptions};
use thistle_arch::{ArchConfig, Bandwidths, TechnologyParams};
use thistle_gp::{Deadline, GpError, Solution, SolveStatus};
use thistle_model::{ArchMode, CoDesignSpec, ConvLayer, Objective, ProblemGenerator};
use thistle_obs::TraceCtx;

fn layer() -> ConvLayer {
    ConvLayer::new("phase_one", 1, 16, 8, 8, 8, 3, 3, 1)
}

fn settings() -> Vec<(ArchMode, Objective)> {
    let eyeriss = ArchConfig::eyeriss();
    let same_area = CoDesignSpec::same_area_as(&eyeriss, &TechnologyParams::cgo2022_45nm());
    let mut out = Vec::new();
    for mode in [ArchMode::Fixed(eyeriss), ArchMode::CoDesign(same_area)] {
        for objective in [Objective::Energy, Objective::Delay] {
            out.push((mode.clone(), objective));
        }
    }
    out
}

/// The generator the optimizer builds for `layer()` under default options.
fn generator() -> ProblemGenerator {
    let options = OptimizerOptions::default();
    ProblemGenerator::new(
        layer().workload(),
        TechnologyParams::cgo2022_45nm(),
        Bandwidths::default(),
    )
    .with_register_cost(options.register_cost)
    .with_spatial_stencils(options.spatial_stencils)
}

/// An optimizer that sweeps every pair `generator()` enumerates, so sweep
/// indices and standalone indices name the same pairs.
fn optimizer() -> Optimizer {
    Optimizer::new(TechnologyParams::cgo2022_45nm()).with_options(OptimizerOptions {
        max_perm_pairs: generator().permutation_classes().len(),
        candidate_limit: 200,
        top_solutions: 2,
        threads: 2,
        ..OptimizerOptions::default()
    })
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Every field of a solution, floats as bit patterns.
fn solution_bits(sol: &Solution) -> impl PartialEq + std::fmt::Debug {
    (
        bits(sol.assignment.values()),
        sol.objective.to_bits(),
        sol.status,
        sol.newton_iterations,
        sol.newton_per_center.clone(),
        bits(&sol.gap_trajectory),
        sol.recovery,
    )
}

#[test]
fn shared_point_gives_every_pair_its_own_solution() {
    #[cfg(feature = "fault-inject")]
    let _guard = thistle_fault::FaultPlan::new().install();
    let options = OptimizerOptions::default().solve_options;
    let (none, ctx) = (Deadline::none(), TraceCtx::disabled());
    let generator = generator();
    let pairs = generator.permutation_classes();
    for (mode, objective) in settings() {
        let gps: Vec<_> = pairs
            .iter()
            .map(|(p1, p3)| generator.generate(p1, p3, objective, &mode).unwrap())
            .collect();
        let point = gps[0].problem.phase_one(&options, &none).unwrap();
        for (pair, gp) in gps.iter().enumerate() {
            let alone = gp.problem.solve_cancellable(&options, &none, &ctx, None);
            let shared = gp
                .problem
                .solve_cancellable(&options, &none, &ctx, Some(&point));
            assert_eq!(
                solution_bits(&shared.unwrap()),
                solution_bits(&alone.unwrap()),
                "{mode:?} {objective}: pair {pair}"
            );
        }
    }
}

/// The ledger every pair's standalone solve adds up to, and each pair's
/// solution.
fn standalone(mode: &ArchMode, objective: Objective) -> (FailureLedger, Vec<Option<Solution>>) {
    let generator = generator();
    let options = OptimizerOptions::default().solve_options;
    let mut ledger = FailureLedger::default();
    let solutions = generator
        .permutation_classes()
        .iter()
        .map(|(p1, p3)| {
            let Ok(gp) = generator.generate(p1, p3, objective, mode) else {
                ledger.generation_failures += 1;
                return None;
            };
            match gp.problem.solve(&options) {
                Ok(sol) => {
                    ledger.recovered += u64::from(sol.recovery.recovered_by.is_some());
                    match sol.status {
                        SolveStatus::Degraded => ledger.degraded_solves += 1,
                        SolveStatus::Inaccurate => ledger.stalled_solves += 1,
                        SolveStatus::Optimal => {}
                    }
                    Some(sol)
                }
                Err(e) => {
                    match e {
                        GpError::Infeasible => ledger.infeasible += 1,
                        GpError::InvalidProblem(_) => ledger.invalid += 1,
                        GpError::NumericalFailure(_) => ledger.numerical += 1,
                        GpError::Cancelled => ledger.cancelled += 1,
                    }
                    None
                }
            }
        })
        .collect();
    (ledger, solutions)
}

/// A whole sweep against every pair solved alone: the same ledger, the
/// same best relaxed objective, and the winner's relaxed solve bit for bit,
/// recovery included.
fn assert_sweep_matches_standalone(plan: &str) {
    for (mode, objective) in settings() {
        let context = format!("{mode:?} {objective} under {plan:?}");
        let point = {
            #[cfg(feature = "fault-inject")]
            let _guard = thistle_fault::FaultPlan::parse(plan).unwrap().install();
            optimizer()
                .optimize_layer(&layer(), objective, &mode)
                .unwrap()
        };
        let (ledger, solutions) = {
            #[cfg(feature = "fault-inject")]
            let _guard = thistle_fault::FaultPlan::parse(plan).unwrap().install();
            standalone(&mode, objective)
        };
        assert_eq!(point.ledger, ledger, "{context}: ledger");
        let solved: Vec<&Solution> = solutions.iter().flatten().collect();
        assert_eq!(point.gp_solves, solved.len(), "{context}: gp_solves");
        let best = solved
            .iter()
            .map(|sol| sol.objective)
            .min_by(f64::total_cmp)
            .unwrap();
        assert_eq!(
            point.relaxed_objective.to_bits(),
            best.to_bits(),
            "{context}: best relaxed objective"
        );
        let winner = solutions[point.perm_pair].as_ref().unwrap();
        assert_eq!(
            bits(point.relaxed_point.values()),
            bits(winner.assignment.values()),
            "{context}: winning relaxed point"
        );
        assert_eq!(
            point.report.newton_iterations, winner.newton_iterations,
            "{context}: winning Newton iterations"
        );
        assert_eq!(
            point.report.recovery_attempts, winner.recovery.attempts,
            "{context}: winning recovery attempts"
        );
        assert_eq!(
            point.report.recovered_by,
            winner.recovery.recovered_by.map(|r| r.to_string()),
            "{context}: winning recovery rung"
        );
    }
}

#[test]
fn sweep_matches_standalone_solves() {
    assert_sweep_matches_standalone("");
}

/// Each plan fails every nominal attempt, the shared phase I's included,
/// so every pair is rescued by the ladder exactly as it is alone.
#[cfg(feature = "fault-inject")]
#[test]
fn sweep_under_numerical_faults_matches_standalone_solves() {
    for plan in ["gp.solve.nan<1", "gp.kkt.singular<1", "gp.solve.diverge<1"] {
        assert_sweep_matches_standalone(plan);
    }
}
