//! Barrier interior-point solver for log-transformed geometric programs.
//!
//! The solver minimizes `F0(y)` subject to `Fi(y) <= 0` and `A y = b`, where
//! every `F` is a [`LogSumExp`] (hence smooth and convex):
//!
//! * **Phase I** finds a strictly feasible point by solving
//!   `min s  s.t.  Fi(y) - s <= 0, A y = b`. In log-space `Fi(y) - s` is
//!   again a log-sum-exp over the extended variable vector `(y, s)` — each
//!   exponential row simply gains a `-1` coefficient on `s` — so phase I
//!   reuses the phase-II machinery verbatim.
//! * **Phase II** runs the standard log-barrier method: repeatedly center
//!   `t F0(y) - sum_i log(-Fi(y))` with equality-constrained Newton steps and
//!   increase `t` until the duality gap bound `m / t` is below tolerance.

use crate::deadline::Deadline;
use crate::linalg::{axpy, dot, norm2, Matrix};
use crate::transform::{LogSumExp, LseScratch, TransformedProblem};
use std::fmt;
use thistle_expr::Assignment;

/// Why a [`Solution`] should (or should not) be trusted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum SolveStatus {
    /// Converged to the requested duality-gap tolerance.
    #[default]
    Optimal,
    /// Iteration limits were hit before full convergence; the returned point
    /// is feasible but may be slightly suboptimal.
    Inaccurate,
    /// The solve only succeeded on the relaxed-tolerance rung of the
    /// recovery ladder: the point is feasible but its optimality gap is
    /// orders of magnitude looser than requested.
    Degraded,
}

impl fmt::Display for SolveStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveStatus::Optimal => write!(f, "optimal"),
            SolveStatus::Inaccurate => write!(f, "inaccurate"),
            SolveStatus::Degraded => write!(f, "degraded"),
        }
    }
}

/// Errors from [`crate::GpProblem::solve`].
#[derive(Debug, Clone, PartialEq)]
pub enum GpError {
    /// No point satisfies all constraints (phase I certified infeasibility).
    Infeasible,
    /// The problem is malformed (e.g. no objective set).
    InvalidProblem(String),
    /// A numerical step failed beyond recovery (every ladder rung failed).
    NumericalFailure(String),
    /// The caller's [`Deadline`] expired or was cancelled mid-solve.
    Cancelled,
}

impl fmt::Display for GpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpError::Infeasible => write!(f, "problem is infeasible"),
            GpError::InvalidProblem(m) => write!(f, "invalid problem: {m}"),
            GpError::NumericalFailure(m) => write!(f, "numerical failure: {m}"),
            GpError::Cancelled => write!(f, "solve cancelled before completion"),
        }
    }
}

impl std::error::Error for GpError {}

/// The recovery-ladder rung that rescued a solve after a numerical failure.
/// Rungs are tried in declaration order, each strictly more invasive than
/// the last.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecoveryRung {
    /// Re-solve with a Tikhonov floor (`1e-6`) under every KKT
    /// factorization, taming near-singular Hessians at a small accuracy
    /// cost the line search absorbs.
    TikhonovRidge,
    /// Restart from a deterministically perturbed initial point (projected
    /// back onto the equality manifold), stepping around the degenerate
    /// region the nominal start ran into.
    PerturbedRestart,
    /// Both of the above plus tolerances relaxed by `1e4`; success is
    /// reported as [`SolveStatus::Degraded`].
    RelaxedTolerance,
}

impl fmt::Display for RecoveryRung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryRung::TikhonovRidge => write!(f, "tikhonov-ridge"),
            RecoveryRung::PerturbedRestart => write!(f, "perturbed-restart"),
            RecoveryRung::RelaxedTolerance => write!(f, "relaxed-tolerance"),
        }
    }
}

/// How hard the recovery ladder had to work for a [`Solution`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// Solve attempts consumed (1 = the nominal attempt succeeded).
    pub attempts: u32,
    /// The rung that produced the returned solution, if the nominal attempt
    /// failed.
    pub recovered_by: Option<RecoveryRung>,
}

/// The result of solving a GP: variable values (in the original, positive
/// space), objective value, and convergence data.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Values of the GP variables (positive reals).
    pub assignment: Assignment,
    /// Objective posynomial value at the solution.
    pub objective: f64,
    /// Convergence status.
    pub status: SolveStatus,
    /// Total Newton iterations across both phases.
    pub newton_iterations: usize,
    /// Newton iterations spent in each phase-II centering step, in order —
    /// the per-step convergence profile behind `newton_iterations` (phase-I
    /// iterations are included in the total only).
    pub newton_per_center: Vec<u32>,
    /// Duality-gap bound `m / t` after each phase-II centering step — the
    /// residual trajectory of the barrier method (empty for unconstrained
    /// problems).
    pub gap_trajectory: Vec<f64>,
    /// How many attempts the recovery ladder spent and which rung (if any)
    /// produced this solution.
    pub recovery: RecoveryInfo,
}

/// Internal tuning knobs for the barrier method.
#[derive(Debug, Clone)]
pub(crate) struct BarrierOptions {
    pub gap_tol: f64,
    pub newton_tol: f64,
    pub max_newton_per_center: usize,
    pub max_centering_steps: usize,
    pub mu: f64,
    /// Initial ridge added to every KKT factorization. The recovery ladder
    /// raises it; the default is small enough to leave healthy solves
    /// bit-identical to an unregularized run.
    pub base_ridge: f64,
}

impl Default for BarrierOptions {
    fn default() -> Self {
        BarrierOptions {
            gap_tol: 1e-8,
            newton_tol: 1e-10,
            max_newton_per_center: 80,
            max_centering_steps: 60,
            mu: 20.0,
            base_ridge: 1e-10,
        }
    }
}

/// Ridge floor applied by the [`RecoveryRung::TikhonovRidge`] rung and above.
const LADDER_RIDGE: f64 = 1e-6;
/// Tolerance multiplier applied by [`RecoveryRung::RelaxedTolerance`].
const LADDER_RELAX: f64 = 1e4;
/// Log-space amplitude of the [`RecoveryRung::PerturbedRestart`] offset.
const LADDER_PERTURB: f64 = 0.25;

pub(crate) struct RawSolution {
    pub y: Vec<f64>,
    pub status: SolveStatus,
    pub newton_iterations: usize,
    pub newton_per_center: Vec<u32>,
    pub gap_trajectory: Vec<f64>,
    pub recovery: RecoveryInfo,
}

/// What one phase-II barrier run produced: the final iterate plus the
/// convergence record (per-centering-step Newton counts and the duality-gap
/// trajectory).
struct BarrierRun {
    y: Vec<f64>,
    status: SolveStatus,
    newton_iterations: usize,
    newton_per_center: Vec<u32>,
    gaps: Vec<f64>,
}

/// Solves the transformed problem, escalating through the recovery ladder
/// on numerical failure.
///
/// Attempt 0 reproduces the nominal solver exactly (bit-identical on
/// healthy problems). Each subsequent attempt applies one more rung of
/// [`RecoveryRung`]; `Infeasible`, `InvalidProblem`, and `Cancelled` are
/// *not* numerical trouble and exit the ladder immediately.
pub(crate) fn solve_transformed(
    tp: &TransformedProblem,
    opts: &BarrierOptions,
    deadline: &Deadline,
) -> Result<RawSolution, GpError> {
    let mut last_failure = String::new();
    for (attempt, rung) in [
        None,
        Some(RecoveryRung::TikhonovRidge),
        Some(RecoveryRung::PerturbedRestart),
        Some(RecoveryRung::RelaxedTolerance),
    ]
    .into_iter()
    .enumerate()
    {
        let mut rung_opts = opts.clone();
        if rung.is_some() {
            rung_opts.base_ridge = rung_opts.base_ridge.max(LADDER_RIDGE);
        }
        if rung == Some(RecoveryRung::RelaxedTolerance) {
            rung_opts.gap_tol *= LADDER_RELAX;
            rung_opts.newton_tol *= LADDER_RELAX;
        }
        let perturb = matches!(
            rung,
            Some(RecoveryRung::PerturbedRestart) | Some(RecoveryRung::RelaxedTolerance)
        );
        match solve_attempt(tp, &rung_opts, deadline, attempt as u64, perturb) {
            Ok(mut raw) => {
                raw.recovery = RecoveryInfo {
                    attempts: attempt as u32 + 1,
                    recovered_by: rung,
                };
                if rung == Some(RecoveryRung::RelaxedTolerance) {
                    raw.status = SolveStatus::Degraded;
                }
                return Ok(raw);
            }
            Err(GpError::NumericalFailure(m)) => last_failure = m,
            Err(e) => return Err(e),
        }
    }
    Err(GpError::NumericalFailure(format!(
        "unrecoverable after exhausting the recovery ladder: {last_failure}"
    )))
}

/// One pass of the phase-I / phase-II pipeline. `attempt` keys the fault
/// sites (and the perturbation pattern) so injected failures replay exactly.
fn solve_attempt(
    tp: &TransformedProblem,
    opts: &BarrierOptions,
    deadline: &Deadline,
    attempt: u64,
    perturb: bool,
) -> Result<RawSolution, GpError> {
    let n = tp.n;
    let meq = tp.eq_matrix.rows();

    // A point on the equality manifold.
    let mut y0 = if meq > 0 {
        tp.eq_matrix
            .min_norm_solution(&tp.eq_rhs)
            .map_err(|e| GpError::NumericalFailure(format!("equality init: {e}")))?
    } else {
        vec![0.0; n]
    };
    // Verify the equalities are consistent.
    if meq > 0 {
        let r = axpy(&tp.eq_matrix.matvec(&y0), -1.0, &tp.eq_rhs);
        if norm2(&r) > 1e-6 * (1.0 + norm2(&tp.eq_rhs)) {
            return Err(GpError::Infeasible);
        }
    }

    if perturb {
        // Deterministic pseudo-random offset (no RNG state, pure hash of
        // (attempt, index)), projected back onto the equality manifold so
        // the restart point still satisfies `A y = b`.
        let mut p: Vec<f64> = (0..n)
            .map(|i| LADDER_PERTURB * unit_hash(attempt, i as u64))
            .collect();
        if meq > 0 {
            p = tp
                .eq_matrix
                .project_out_rowspace(&p)
                .map_err(|e| GpError::NumericalFailure(format!("restart projection: {e}")))?;
        }
        for (yv, pv) in y0.iter_mut().zip(&p) {
            *yv += pv;
        }
    }
    if thistle_fault::fire("gp.solve.nan", attempt) {
        // Chaos: poison the start point; the non-finite iterate check in
        // `center` must catch it and route the attempt into the ladder.
        if let Some(v) = y0.first_mut() {
            *v = f64::NAN;
        }
    }

    let mut total_newton = 0;

    if !tp.inequalities.is_empty() {
        let worst = tp
            .inequalities
            .iter()
            .map(|f| f.value(&y0))
            .fold(f64::NEG_INFINITY, f64::max);
        // `!(worst < ...)` rather than `worst >= ...`: a NaN margin must
        // also route through phase one.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(worst < -1e-6) {
            let (y_feas, iters) = phase_one(tp, &y0, worst, opts, deadline, attempt)?;
            total_newton += iters;
            y0 = y_feas;
        }
    }

    let run = barrier(
        &tp.objective,
        &tp.inequalities,
        &tp.eq_matrix,
        &y0,
        opts,
        None,
        deadline,
        attempt,
    )?;
    total_newton += run.newton_iterations;
    Ok(RawSolution {
        y: run.y,
        status: run.status,
        newton_iterations: total_newton,
        newton_per_center: run.newton_per_center,
        gap_trajectory: run.gaps,
        recovery: RecoveryInfo::default(),
    })
}

/// Maps `(attempt, index)` to a deterministic value in `[-1, 1)` via a
/// splitmix64-style avalanche — replayable, thread-independent, and free of
/// shared state.
fn unit_hash(attempt: u64, index: u64) -> f64 {
    let mut z = (attempt << 32) ^ index.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    2.0 * ((z >> 11) as f64 / (1u64 << 53) as f64) - 1.0
}

/// Phase I: find strictly feasible `y` or certify infeasibility. The slack
/// starts at `s0 = worst + 1`, strictly above every constraint value at
/// `y0`.
fn phase_one(
    tp: &TransformedProblem,
    y0: &[f64],
    worst: f64,
    opts: &BarrierOptions,
    deadline: &Deadline,
    fault_key: u64,
) -> Result<(Vec<f64>, usize), GpError> {
    let n = tp.n;
    // Extended space (y, s): constraints Fi(y) - s <= 0, objective s.
    let ineqs: Vec<LogSumExp> = tp
        .inequalities
        .iter()
        .map(|f| f.with_slack_column(n))
        .collect();
    let objective = LogSumExp::slack_objective(n);
    // Extend the equality matrix with a zero column for s.
    let mut eq = Matrix::zeros(tp.eq_matrix.rows(), n + 1);
    for i in 0..tp.eq_matrix.rows() {
        for j in 0..n {
            eq[(i, j)] = tp.eq_matrix[(i, j)];
        }
    }
    let mut z0 = y0.to_vec();
    z0.push(worst + 1.0);

    let mut phase_opts = opts.clone();
    phase_opts.gap_tol = 1e-6;
    let run = barrier(
        &objective,
        &ineqs,
        &eq,
        &z0,
        &phase_opts,
        Some(-1e-4), // stop as soon as s is comfortably negative
        deadline,
        fault_key,
    )?;
    let s = run.y[n];
    if s >= -1e-9 {
        return Err(GpError::Infeasible);
    }
    Ok((run.y[..n].to_vec(), run.newton_iterations))
}

/// The barrier loop, opened at `t = 1`. If `exit_below` is set, returns as
/// soon as the objective value drops below it (used by phase I). The
/// returned [`BarrierRun`] carries the Newton count of every centering step
/// and the duality-gap bound `m / t` after each one.
#[allow(clippy::too_many_arguments)]
fn barrier(
    objective: &LogSumExp,
    ineqs: &[LogSumExp],
    eq: &Matrix,
    y0: &[f64],
    opts: &BarrierOptions,
    exit_below: Option<f64>,
    deadline: &Deadline,
    fault_key: u64,
) -> Result<BarrierRun, GpError> {
    let m = ineqs.len();
    let mut y = y0.to_vec();
    let mut total_iters = 0;
    let mut t = 1.0;
    let mut status = SolveStatus::Optimal;
    let mut gaps = Vec::new();
    let mut per_center: Vec<u32> = Vec::new();
    let finish = |y: Vec<f64>, status, total_iters, per_center, gaps| BarrierRun {
        y,
        status,
        newton_iterations: total_iters,
        newton_per_center: per_center,
        gaps,
    };

    for outer in 0..opts.max_centering_steps {
        if deadline.expired() {
            return Err(GpError::Cancelled);
        }
        if thistle_fault::fire("gp.solve.diverge", fault_key) {
            return Err(GpError::NumericalFailure(
                "injected divergence in barrier loop".into(),
            ));
        }
        let iters = center(objective, ineqs, eq, &mut y, t, opts, deadline, fault_key)?;
        total_iters += iters;
        per_center.push(iters as u32);
        if m > 0 {
            gaps.push(m as f64 / t);
        }
        if let Some(threshold) = exit_below {
            if objective.value(&y) < threshold {
                return Ok(finish(
                    y,
                    SolveStatus::Optimal,
                    total_iters,
                    per_center,
                    gaps,
                ));
            }
        }
        if m == 0 || (m as f64) / t < opts.gap_tol {
            return Ok(finish(y, status, total_iters, per_center, gaps));
        }
        t *= opts.mu;
        if outer == opts.max_centering_steps - 1 {
            status = SolveStatus::Inaccurate;
        }
    }
    Ok(finish(
        y,
        SolveStatus::Inaccurate,
        total_iters,
        per_center,
        gaps,
    ))
}

/// One centering step: Newton-minimize `t*F0(y) + phi(y)` subject to the
/// equality constraints, starting from a feasible `y`.
#[allow(clippy::too_many_arguments)]
fn center(
    objective: &LogSumExp,
    ineqs: &[LogSumExp],
    eq: &Matrix,
    y: &mut Vec<f64>,
    t: f64,
    opts: &BarrierOptions,
    deadline: &Deadline,
    fault_key: u64,
) -> Result<usize, GpError> {
    let n = y.len();
    let meq = eq.rows();

    // Evaluation buffers, allocated once and overwritten each iteration by
    // the compiled-form kernels (`LogSumExp::eval_into`).
    let mut scratch = LseScratch::default();
    let mut grad = vec![0.0; n];
    let mut hess = Matrix::zeros(n, n);
    let mut gi = vec![0.0; n];
    let mut hi = Matrix::zeros(n, n);

    for iter in 0..opts.max_newton_per_center {
        if deadline.expired() {
            return Err(GpError::Cancelled);
        }
        if y.iter().any(|v| !v.is_finite()) {
            return Err(GpError::NumericalFailure(
                "non-finite iterate in centering step".into(),
            ));
        }
        // Assemble gradient and Hessian of t*F0 + phi.
        objective.eval_into(y, &mut grad, Some(&mut hess), &mut scratch);
        for g in grad.iter_mut() {
            *g *= t;
        }
        hess.scale_in_place(t);
        for f in ineqs {
            let v = f.eval_into(y, &mut gi, Some(&mut hi), &mut scratch);
            // `!(v < 0.0)` rather than `v >= 0.0`: a NaN value must also be
            // treated as having left the feasible region.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(v < 0.0) {
                return Err(GpError::NumericalFailure(
                    "barrier iterate left the feasible region".into(),
                ));
            }
            let inv = -1.0 / v; // 1 / (-Fi) > 0
            for (gacc, &gc) in grad.iter_mut().zip(&gi) {
                *gacc += inv * gc;
            }
            // hess += inv^2 * gi gi^T + inv * Hi
            hess.add_outer(inv * inv, &gi);
            hess.add_scaled(inv, &hi);
        }

        // Solve the KKT system, escalating the ridge on failure. The chaos
        // site skips the factorization loop entirely, simulating a system
        // that stays singular at every ridge level.
        let mut dy: Option<Vec<f64>> = None;
        if !thistle_fault::fire("gp.kkt.singular", fault_key) {
            let mut ridge = opts.base_ridge;
            while ridge < 1e4 {
                let mut h = hess.clone();
                h.add_diagonal(ridge);
                let step = if meq == 0 {
                    h.cholesky_solve(&neg(&grad)).ok()
                } else {
                    solve_kkt(&h, eq, &neg(&grad)).ok()
                };
                if let Some(s) = step {
                    if s.iter().all(|v| v.is_finite()) {
                        dy = Some(s);
                        break;
                    }
                }
                ridge *= 100.0;
            }
        }
        let dy = dy.ok_or_else(|| {
            GpError::NumericalFailure("KKT system unsolvable at any ridge level".into())
        })?;

        let lambda_sq = -dot(&grad, &dy);
        if !lambda_sq.is_finite() {
            return Err(GpError::NumericalFailure(
                "non-finite Newton decrement".into(),
            ));
        }
        if lambda_sq / 2.0 <= opts.newton_tol {
            return Ok(iter);
        }

        // Backtracking line search on the barrier merit function.
        let merit = |pt: &[f64]| -> f64 {
            let mut val = t * objective.value(pt);
            for f in ineqs {
                let fv = f.value(pt);
                if fv >= 0.0 {
                    return f64::INFINITY;
                }
                val -= (-fv).ln();
            }
            val
        };
        let m0 = merit(y);
        let slope = dot(&grad, &dy); // negative
        let mut step = 1.0;
        let mut accepted = false;
        for _ in 0..70 {
            let cand = axpy(y, step, &dy);
            let mc = merit(&cand);
            if mc <= m0 + 0.25 * step * slope {
                *y = cand;
                accepted = true;
                break;
            }
            step *= 0.5;
        }
        if !accepted {
            // Progress stalled at numerical precision — treat as converged.
            return Ok(iter);
        }
        debug_assert!(n == y.len());
    }
    Ok(opts.max_newton_per_center)
}

/// Solves the KKT system `[H A^T; A 0] [dy; w] = [rhs; 0]` by dense LU.
fn solve_kkt(
    h: &Matrix,
    a: &Matrix,
    rhs: &[f64],
) -> Result<Vec<f64>, crate::linalg::SolveMatrixError> {
    let n = h.rows();
    let m = a.rows();
    let mut kkt = Matrix::zeros(n + m, n + m);
    for i in 0..n {
        for j in 0..n {
            kkt[(i, j)] = h[(i, j)];
        }
    }
    for i in 0..m {
        for j in 0..n {
            kkt[(n + i, j)] = a[(i, j)];
            kkt[(j, n + i)] = a[(i, j)];
        }
    }
    let mut full_rhs = rhs.to_vec();
    full_rhs.extend(std::iter::repeat_n(0.0, m));
    let sol = kkt.solve(&full_rhs)?;
    Ok(sol[..n].to_vec())
}

fn neg(v: &[f64]) -> Vec<f64> {
    v.iter().map(|x| -x).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::TransformedProblem;
    use thistle_expr::{Monomial, Posynomial, VarRegistry};

    fn solve(
        n: usize,
        obj: &Posynomial,
        ineqs: &[Posynomial],
        eqs: &[Monomial],
    ) -> Result<Vec<f64>, GpError> {
        let tp = TransformedProblem::new(n, obj, ineqs, eqs);
        let raw = solve_transformed(&tp, &BarrierOptions::default(), &Deadline::none())?;
        Ok(tp.to_gp_point(&raw.y))
    }

    #[test]
    fn unconstrained_monomial_tradeoff() {
        // min x + 1/x  => x = 1.
        let mut reg = VarRegistry::new();
        let x = reg.var("x");
        let obj = Posynomial::from_var(x) + Posynomial::from(Monomial::new(1.0, [(x, -1.0)]));
        let sol = solve(1, &obj, &[], &[]).unwrap();
        assert!((sol[0] - 1.0).abs() < 1e-5, "{sol:?}");
    }

    #[test]
    fn equality_constrained() {
        // min x + y s.t. x*y = 16  => x = y = 4.
        let mut reg = VarRegistry::new();
        let x = reg.var("x");
        let y = reg.var("y");
        let obj = Posynomial::from_var(x) + Posynomial::from_var(y);
        let eq = Monomial::new(1.0 / 16.0, [(x, 1.0), (y, 1.0)]);
        let sol = solve(2, &obj, &[], &[eq]).unwrap();
        assert!((sol[0] - 4.0).abs() < 1e-4, "{sol:?}");
        assert!((sol[1] - 4.0).abs() < 1e-4, "{sol:?}");
    }

    #[test]
    fn inequality_active_at_optimum() {
        // min 1/(x*y) s.t. x <= 2, y <= 3 => x=2, y=3.
        let mut reg = VarRegistry::new();
        let x = reg.var("x");
        let y = reg.var("y");
        let obj = Posynomial::from(Monomial::new(1.0, [(x, -1.0), (y, -1.0)]));
        let ineqs = vec![
            Posynomial::from(Monomial::new(0.5, [(x, 1.0)])),
            Posynomial::from(Monomial::new(1.0 / 3.0, [(y, 1.0)])),
        ];
        let sol = solve(2, &obj, &ineqs, &[]).unwrap();
        assert!((sol[0] - 2.0).abs() < 1e-4, "{sol:?}");
        assert!((sol[1] - 3.0).abs() < 1e-4, "{sol:?}");
    }

    #[test]
    fn per_center_counts_profile_the_barrier() {
        // Constrained problem: phase II runs several centering steps, and
        // the per-center profile must line up with the gap trajectory.
        let mut reg = VarRegistry::new();
        let x = reg.var("x");
        let y = reg.var("y");
        let obj = Posynomial::from(Monomial::new(1.0, [(x, -1.0), (y, -1.0)]));
        let ineqs = vec![
            Posynomial::from(Monomial::new(0.5, [(x, 1.0)])),
            Posynomial::from(Monomial::new(1.0 / 3.0, [(y, 1.0)])),
        ];
        let tp = TransformedProblem::new(2, &obj, &ineqs, &[]);
        let raw = solve_transformed(&tp, &BarrierOptions::default(), &Deadline::none()).unwrap();
        assert!(!raw.newton_per_center.is_empty());
        assert_eq!(raw.newton_per_center.len(), raw.gap_trajectory.len());
        let phase_two: usize = raw.newton_per_center.iter().map(|&i| i as usize).sum();
        assert!(phase_two <= raw.newton_iterations);
    }

    #[test]
    fn infeasible_is_detected() {
        // x <= 1 and x >= 2 simultaneously.
        let mut reg = VarRegistry::new();
        let x = reg.var("x");
        let ineqs = vec![
            Posynomial::from(Monomial::new(1.0, [(x, 1.0)])), // x <= 1
            Posynomial::from(Monomial::new(2.0, [(x, -1.0)])), // 2/x <= 1 => x >= 2
        ];
        let err = solve(1, &Posynomial::from_var(x), &ineqs, &[]).unwrap_err();
        assert_eq!(err, GpError::Infeasible);
    }

    #[test]
    fn phase_one_needed_and_succeeds() {
        // Start point (x=1) violates x >= 10; optimum at x = 10.
        let mut reg = VarRegistry::new();
        let x = reg.var("x");
        let ineqs = vec![Posynomial::from(Monomial::new(10.0, [(x, -1.0)]))];
        let sol = solve(1, &Posynomial::from_var(x), &ineqs, &[]).unwrap();
        assert!((sol[0] - 10.0).abs() < 1e-3, "{sol:?}");
    }
}
