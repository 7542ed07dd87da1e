//! Chaos tests for graceful sweep degradation: inject deterministic solve
//! failures and panics into the permutation sweep via `thistle-fault` and
//! check that the optimizer returns the best *surviving* design — bit for
//! bit the same one a clean sweep restricted to the survivors would pick,
//! at any thread count — and that the failure ledger accounts for every
//! casualty.
//!
//! Compiled only with `--features fault-inject`; plan guards serialize the
//! tests against the process-global registry.
#![cfg(feature = "fault-inject")]

use thistle::{OptimizeError, Optimizer, OptimizerOptions};
use thistle_arch::{ArchConfig, TechnologyParams};
use thistle_fault::FaultPlan;
use thistle_model::{ArchMode, ConvLayer, Objective};

/// Sweep cap: pair indices live in `0..MAX_PAIRS`, so a kill plan keyed on
/// that whole range (minus the winner) hits every losing pair no matter how
/// many classes the enumerator actually produced.
const MAX_PAIRS: usize = 9;

fn optimizer(threads: usize) -> Optimizer {
    Optimizer::new(TechnologyParams::cgo2022_45nm()).with_options(OptimizerOptions {
        max_perm_pairs: MAX_PAIRS,
        candidate_limit: 300,
        top_solutions: 1,
        threads,
        ..OptimizerOptions::default()
    })
}

fn layer() -> ConvLayer {
    ConvLayer::new("chaos", 1, 16, 16, 18, 18, 3, 3, 1)
}

fn mode() -> ArchMode {
    ArchMode::Fixed(ArchConfig::eyeriss())
}

/// `site=K1,K2,...` clause killing every swept pair except `winner`.
fn kill_all_but(site: &str, winner: usize) -> String {
    let keys: Vec<String> = (0..MAX_PAIRS)
        .filter(|&p| p != winner)
        .map(|p| p.to_string())
        .collect();
    format!("{site}={}", keys.join(","))
}

/// A clean solve under an installed empty plan, which serializes it against
/// the tests that arm faults in the process-global registry.
fn clean_solve(layer: &ConvLayer, mode: &ArchMode) -> thistle::DesignPoint {
    let _guard = FaultPlan::new().install();
    optimizer(2)
        .optimize_layer(layer, Objective::Energy, mode)
        .unwrap()
}

#[test]
fn armed_feature_without_a_plan_changes_nothing() {
    let clean = clean_solve(&layer(), &mode());
    assert!(!clean.degraded);
    assert!(clean.ledger.is_clean());
    assert_eq!(clean.ledger.failed(), 0);
}

/// The headline property: fail every permutation pair except the clean
/// winner and the sweep must return that same winner bit-identically —
/// flagged degraded, with the kills on the ledger — whether it ran on one
/// thread or four.
#[test]
fn killing_losing_pairs_leaves_the_winner_bit_identical() {
    let (layer, mode) = (layer(), mode());
    let clean = clean_solve(&layer, &mode);
    let plan = kill_all_but("core.sweep.solve", clean.perm_pair);

    let mut degraded_runs = Vec::new();
    for threads in [1, 4] {
        let _guard = FaultPlan::parse(&plan).unwrap().install();
        let point = optimizer(threads)
            .optimize_layer(&layer, Objective::Energy, &mode)
            .unwrap();
        assert_eq!(point.perm_pair, clean.perm_pair, "threads={threads}");
        assert_eq!(
            point.eval.energy_pj.to_bits(),
            clean.eval.energy_pj.to_bits(),
            "threads={threads}"
        );
        assert_eq!(point.mapping, clean.mapping, "threads={threads}");
        assert_eq!(point.arch, clean.arch, "threads={threads}");
        assert!(point.degraded, "threads={threads}");
        assert_eq!(
            point.ledger.numerical,
            (clean.gp_solves - 1) as u64,
            "threads={threads}"
        );
        degraded_runs.push(point);
    }
    // The ledger itself is thread-count invariant, not just the winner.
    assert_eq!(degraded_runs[0].ledger, degraded_runs[1].ledger);
}

#[test]
fn panicking_losing_pairs_are_contained_and_counted() {
    let (layer, mode) = (layer(), mode());
    let clean = clean_solve(&layer, &mode);
    let plan = kill_all_but("core.sweep.panic", clean.perm_pair);
    let _guard = FaultPlan::parse(&plan).unwrap().install();
    let point = optimizer(4)
        .optimize_layer(&layer, Objective::Energy, &mode)
        .unwrap();
    assert_eq!(point.perm_pair, clean.perm_pair);
    assert_eq!(
        point.eval.energy_pj.to_bits(),
        clean.eval.energy_pj.to_bits()
    );
    assert!(point.degraded);
    // The panic site fires before GP generation, so even classes that would
    // have been pruned count as panics here.
    let total_pairs = clean.gp_solves as u64 + clean.ledger.generation_failures;
    assert_eq!(point.ledger.solver_panics, total_pairs - 1);
    assert_eq!(point.ledger.numerical, 0);
}

#[test]
fn every_pair_failing_is_all_solves_failed() {
    let _guard = FaultPlan::parse("core.sweep.solve*").unwrap().install();
    let err = optimizer(2)
        .optimize_layer(&layer(), Objective::Energy, &mode())
        .unwrap_err();
    assert!(
        matches!(err, OptimizeError::AllSolvesFailed(_)),
        "got {err:?}"
    );
}

#[test]
fn every_pair_panicking_is_all_solves_failed_not_a_crash() {
    let _guard = FaultPlan::parse("core.sweep.panic*").unwrap().install();
    let err = optimizer(4)
        .optimize_layer(&layer(), Objective::Energy, &mode())
        .unwrap_err();
    assert!(
        matches!(err, OptimizeError::AllSolvesFailed(_)),
        "got {err:?}"
    );
}

/// An integerization panic on the best relaxed solution must not sink the
/// optimization: the next-best solution's candidates win instead, and the
/// panic lands on the ledger.
#[test]
fn integerize_panic_falls_back_to_the_runner_up() {
    let (layer, mode) = (layer(), mode());
    let opts = OptimizerOptions {
        max_perm_pairs: 9,
        candidate_limit: 300,
        top_solutions: 3,
        threads: 2,
        ..OptimizerOptions::default()
    };
    let _guard = FaultPlan::parse("core.integerize.panic=0")
        .unwrap()
        .install();
    let point = Optimizer::new(TechnologyParams::cgo2022_45nm())
        .with_options(opts)
        .optimize_layer(&layer, Objective::Energy, &mode)
        .unwrap();
    assert_eq!(point.ledger.integerize_panics, 1);
    assert!(point.degraded);
}
