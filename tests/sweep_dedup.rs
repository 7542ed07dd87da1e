//! Differential tests for the deduplicating permutation sweep.
//!
//! The sweep solves each distinct GP content once and clones the result to
//! every duplicate pair. The reference here is built from public API alone:
//! every pair is regenerated with `ProblemGenerator` and solved on its own.
//! The contract is that dedup is invisible — equal fingerprints mean
//! bit-identical solutions, and the sweep's winner, relaxed optimum and
//! solve count match the standalone solves bit for bit, at any thread count,
//! clean and under injected faults.

use thistle::{DesignPoint, Optimizer, OptimizerOptions};
use thistle_arch::{ArchConfig, Bandwidths, TechnologyParams};
use thistle_gp::{content_fingerprint, Solution};
use thistle_model::{ArchMode, CoDesignSpec, ConvLayer, Objective, ProblemGenerator};

fn layer() -> ConvLayer {
    ConvLayer::new("sweep_dedup", 1, 16, 16, 18, 18, 3, 3, 1)
}

fn fixed_mode() -> ArchMode {
    ArchMode::Fixed(ArchConfig::eyeriss())
}

fn codesign_mode() -> ArchMode {
    ArchMode::CoDesign(CoDesignSpec::same_area_as(
        &ArchConfig::eyeriss(),
        &TechnologyParams::cgo2022_45nm(),
    ))
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
fn optimizer(threads: usize) -> Optimizer {
    Optimizer::new(TechnologyParams::cgo2022_45nm()).with_options(OptimizerOptions {
        max_perm_pairs: generator().permutation_classes().len(),
        candidate_limit: 300,
        top_solutions: 3,
        threads,
        ..OptimizerOptions::default()
    })
}

/// Every pair generated and solved on its own, in sweep order: its content
/// fingerprint and its solution (`None` where either step failed).
fn standalone(mode: &ArchMode) -> Vec<Option<((u64, u64), Solution)>> {
    let generator = generator();
    let options = OptimizerOptions::default().solve_options;
    generator
        .permutation_classes()
        .iter()
        .map(|(p1, p3)| {
            let gp = generator.generate(p1, p3, Objective::Energy, mode).ok()?;
            let sol = gp.problem.solve(&options).ok()?;
            Some((content_fingerprint(&gp.problem), sol))
        })
        .collect()
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Every field that identifies the winning design and its provenance.
fn assert_same_winner(a: &DesignPoint, b: &DesignPoint, context: &str) {
    assert_eq!(a.perm_pair, b.perm_pair, "{context}: perm_pair");
    assert_eq!(
        a.relaxed_objective.to_bits(),
        b.relaxed_objective.to_bits(),
        "{context}: relaxed objective bits"
    );
    assert_eq!(
        a.eval.energy_pj.to_bits(),
        b.eval.energy_pj.to_bits(),
        "{context}: energy bits"
    );
    assert_eq!(a.mapping, b.mapping, "{context}: mapping");
    assert_eq!(a.arch, b.arch, "{context}: arch");
    assert_eq!(a.perm1, b.perm1, "{context}: perm1");
    assert_eq!(a.perm3, b.perm3, "{context}: perm3");
}

/// Checks one sweep against the standalone solves of the same pairs.
fn assert_matches_standalone(point: &DesignPoint, mode: &ArchMode, context: &str) {
    let reference = standalone(mode);
    let solved: Vec<(usize, &(u64, u64), &Solution)> = reference
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.as_ref().map(|(fp, sol)| (i, fp, sol)))
        .collect();

    // Equal content means bit-identical solutions: the premise of dedup.
    let mut contents: Vec<(u64, u64)> = Vec::new();
    for (i, fp, sol) in &solved {
        if let Some((j, _, first)) = solved.iter().find(|(_, f, _)| f == fp) {
            assert_eq!(
                sol.objective.to_bits(),
                first.objective.to_bits(),
                "{context}: pairs {j} and {i} share content but not objective bits"
            );
            assert_eq!(
                bits(sol.assignment.values()),
                bits(first.assignment.values()),
                "{context}: pairs {j} and {i} share content but not assignment bits"
            );
        }
        if !contents.contains(fp) {
            contents.push(**fp);
        }
    }
    assert!(
        contents.len() < solved.len(),
        "{context}: the layer has no duplicate contents to deduplicate"
    );

    // The sweep answers exactly what the standalone solves answer.
    assert_eq!(point.gp_solves, solved.len(), "{context}: gp_solves");
    assert_eq!(
        point.report.batch_classes as usize,
        contents.len(),
        "{context}: distinct contents solved"
    );
    assert_eq!(
        point.report.batch_members as usize,
        solved.len(),
        "{context}: pairs deduplicated"
    );
    let best = solved
        .iter()
        .map(|(_, _, sol)| sol.objective)
        .min_by(f64::total_cmp)
        .unwrap();
    assert_eq!(
        point.relaxed_objective.to_bits(),
        best.to_bits(),
        "{context}: relaxed objective bits"
    );
    let (_, winner) = reference[point.perm_pair]
        .as_ref()
        .expect("the winning pair solves standalone");
    assert_eq!(
        bits(point.relaxed_point.values()),
        bits(winner.assignment.values()),
        "{context}: winning relaxed point bits"
    );
    assert_eq!(
        point.report.newton_iterations, winner.newton_iterations,
        "{context}: winning solve's Newton iterations"
    );
}

#[test]
fn fixed_arch_sweep_matches_standalone_solves_at_any_thread_count() {
    // Chaos tests install process-wide fault plans; holding an empty one
    // keeps theirs out of this run.
    #[cfg(feature = "fault-inject")]
    let _guard = thistle_fault::FaultPlan::new().install();
    let (layer, mode) = (layer(), fixed_mode());
    let one = optimizer(1)
        .optimize_layer(&layer, Objective::Energy, &mode)
        .unwrap();
    assert_matches_standalone(&one, &mode, "fixed arch");
    let four = optimizer(4)
        .optimize_layer(&layer, Objective::Energy, &mode)
        .unwrap();
    assert_same_winner(&four, &one, "fixed arch, threads 1 vs 4");
    assert_eq!(one.gp_solves, four.gp_solves, "gp_solves across threads");
    assert_eq!(one.ledger, four.ledger, "ledger drifted across threads");
}

/// The co-design path adds the equal-area monomial equalities: the
/// configuration the fig5 sweep runs.
#[test]
fn codesign_sweep_matches_standalone_solves() {
    // Chaos tests install process-wide fault plans; holding an empty one
    // keeps theirs out of this run.
    #[cfg(feature = "fault-inject")]
    let _guard = thistle_fault::FaultPlan::new().install();
    let (layer, mode) = (layer(), codesign_mode());
    let point = optimizer(2)
        .optimize_layer(&layer, Objective::Energy, &mode)
        .unwrap();
    assert_matches_standalone(&point, &mode, "codesign");
}

/// One thread and four produce the same co-design winner, report and
/// failure ledger.
#[test]
fn codesign_sweep_is_thread_count_invariant() {
    #[cfg(feature = "fault-inject")]
    let _guard = thistle_fault::FaultPlan::new().install();
    let (layer, mode) = (layer(), codesign_mode());
    let one = optimizer(1)
        .optimize_layer(&layer, Objective::Energy, &mode)
        .unwrap();
    let four = optimizer(4)
        .optimize_layer(&layer, Objective::Energy, &mode)
        .unwrap();
    assert_same_winner(&four, &one, "codesign, threads 1 vs 4");
    assert_eq!(one.report, four.report, "report drifted across threads");
    assert_eq!(one.ledger, four.ledger, "ledger drifted across threads");
}

/// Chaos: fault plans kill pairs inside the sweep. The surviving winner and
/// the ledger must not depend on the thread count.
#[cfg(feature = "fault-inject")]
mod chaos {
    use super::*;
    use thistle_fault::FaultPlan;

    fn run_under(plan: &str, threads: usize) -> DesignPoint {
        let _guard = FaultPlan::parse(plan).unwrap().install();
        optimizer(threads)
            .optimize_layer(&layer(), Objective::Energy, &fixed_mode())
            .unwrap()
    }

    /// Kill one losing pair at every position in turn: the sweep keeps the
    /// clean winner bit-identically each time — a killed pair never poisons
    /// the duplicates that share its bytes — and one thread and four agree.
    #[test]
    fn killed_member_does_not_poison_duplicates() {
        let clean = run_under("", 2);
        let pairs = generator().permutation_classes().len();
        for victim in (0..pairs).filter(|&p| p != clean.perm_pair) {
            let plan = format!("core.sweep.solve={victim}");
            let one = run_under(&plan, 1);
            assert_same_winner(&clean, &one, &format!("victim={victim} vs clean"));
            let four = run_under(&plan, 4);
            assert_same_winner(&one, &four, &format!("victim={victim}, threads 1 vs 4"));
            assert_eq!(one.ledger, four.ledger, "victim={victim}: ledger");
            assert_eq!(one.ledger.numerical, 1, "victim={victim}");
            assert_eq!(one.gp_solves, clean.gp_solves - 1, "victim={victim}");
        }
    }

    /// A multi-kill plan (solve failures and a generation-stage panic mixed)
    /// yields the same winner and ledger at 1 and 4 threads.
    #[test]
    fn chaos_plan_is_thread_count_invariant() {
        let clean = run_under("", 2);
        // Kill three losers; never the clean winner.
        let victims: Vec<usize> = (0..).filter(|&p| p != clean.perm_pair).take(3).collect();
        let plan = format!(
            "core.sweep.solve={},{};core.sweep.panic={}",
            victims[0], victims[1], victims[2]
        );
        let one = run_under(&plan, 1);
        let four = run_under(&plan, 4);
        assert_same_winner(&four, &one, "chaos plan, threads 1 vs 4");
        assert_eq!(four.ledger, one.ledger, "chaos plan: ledger");
        assert_eq!(one.ledger.numerical, 2);
        assert_eq!(one.ledger.solver_panics, 1);
        assert!(one.degraded);
    }
}
