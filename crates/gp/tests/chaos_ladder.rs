//! Chaos tests for the solver recovery ladder: inject deterministic
//! numerical failures via `thistle-fault` and check that each rung rescues
//! (or correctly gives up on) the solve.
//!
//! Compiled only with `--features fault-inject`; plan guards serialize the
//! tests against the process-global registry.
#![cfg(feature = "fault-inject")]

use thistle_expr::{Monomial, Posynomial, VarRegistry};
use thistle_fault::FaultPlan;
use thistle_gp::{Deadline, GpError, GpProblem, RecoveryRung, Solution, SolveOptions, SolveStatus};

/// min x + y s.t. x*y >= 8 — optimum x = y = sqrt(8), objective 2*sqrt(8).
fn sample_problem() -> GpProblem {
    let mut reg = VarRegistry::new();
    let x = reg.var("x");
    let y = reg.var("y");
    let mut prob = GpProblem::new(reg);
    prob.set_objective(Posynomial::from_var(x) + Posynomial::from_var(y));
    prob.add_le(
        Posynomial::from(Monomial::new(8.0, [(x, -1.0), (y, -1.0)])),
        Monomial::one(),
    );
    prob
}

fn solve_under(plan: &str) -> Result<Solution, GpError> {
    let _guard = FaultPlan::parse(plan).unwrap().install();
    sample_problem().solve(&SolveOptions::default())
}

fn assert_near_optimum(sol: &Solution, tol: f64) {
    let expected = 2.0 * 8.0f64.sqrt();
    assert!(
        (sol.objective - expected).abs() < tol,
        "objective {} vs {expected}",
        sol.objective
    );
}

#[test]
fn healthy_solve_uses_one_attempt() {
    let sol = solve_under("").unwrap();
    assert_eq!(sol.recovery.attempts, 1);
    assert_eq!(sol.recovery.recovered_by, None);
    assert_eq!(sol.status, SolveStatus::Optimal);
    assert_near_optimum(&sol, 1e-4);
}

#[test]
fn nan_iterate_recovered_by_tikhonov_rung() {
    // Keyed on the attempt index: attempt 0 is poisoned, attempt 1 is not.
    let sol = solve_under("gp.solve.nan<1").unwrap();
    assert_eq!(sol.recovery.attempts, 2);
    assert_eq!(sol.recovery.recovered_by, Some(RecoveryRung::TikhonovRidge));
    assert_near_optimum(&sol, 1e-4);
}

#[test]
fn persistent_nan_reaches_perturbed_restart() {
    let sol = solve_under("gp.solve.nan<2").unwrap();
    assert_eq!(sol.recovery.attempts, 3);
    assert_eq!(
        sol.recovery.recovered_by,
        Some(RecoveryRung::PerturbedRestart)
    );
    assert_near_optimum(&sol, 1e-4);
}

#[test]
fn last_rung_relaxes_tolerance_and_reports_degraded() {
    let sol = solve_under("gp.solve.nan<3").unwrap();
    assert_eq!(sol.recovery.attempts, 4);
    assert_eq!(
        sol.recovery.recovered_by,
        Some(RecoveryRung::RelaxedTolerance)
    );
    assert_eq!(sol.status, SolveStatus::Degraded);
    // 1e4x looser gap tolerance still lands close on this small problem.
    assert_near_optimum(&sol, 1e-2);
}

#[test]
fn exhausted_ladder_surfaces_numerical_failure() {
    let err = solve_under("gp.solve.nan<4").unwrap_err();
    assert!(
        matches!(&err, GpError::NumericalFailure(m) if m.contains("recovery ladder")),
        "{err:?}"
    );
}

#[test]
fn singular_kkt_recovered_by_ladder() {
    let sol = solve_under("gp.kkt.singular<1").unwrap();
    assert_eq!(sol.recovery.recovered_by, Some(RecoveryRung::TikhonovRidge));
    assert_near_optimum(&sol, 1e-4);
}

#[test]
fn divergence_recovered_by_ladder() {
    let sol = solve_under("gp.solve.diverge<1").unwrap();
    assert_eq!(sol.recovery.recovered_by, Some(RecoveryRung::TikhonovRidge));
    assert_near_optimum(&sol, 1e-4);
}

#[test]
fn recovered_solution_matches_healthy_one_closely() {
    let healthy = solve_under("").unwrap();
    let recovered = solve_under("gp.solve.nan<1").unwrap();
    // The Tikhonov rung starts from the same point with a tiny extra ridge;
    // it must land on the same optimum to solver accuracy.
    assert!((healthy.objective - recovered.objective).abs() < 1e-6);
}

#[test]
fn cancelled_deadline_is_not_retried_by_the_ladder() {
    let deadline = Deadline::token();
    deadline.cancel();
    let err = sample_problem()
        .solve_cancellable(
            &SolveOptions::default(),
            &deadline,
            &thistle_obs::TraceCtx::disabled(),
            None,
        )
        .unwrap_err();
    assert_eq!(err, GpError::Cancelled);
}

#[test]
fn zero_duration_deadline_cancels_immediately() {
    let err = sample_problem()
        .solve_cancellable(
            &SolveOptions::default(),
            &Deadline::within(std::time::Duration::ZERO),
            &thistle_obs::TraceCtx::disabled(),
            None,
        )
        .unwrap_err();
    assert_eq!(err, GpError::Cancelled);
}
