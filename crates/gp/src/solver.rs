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
use crate::linalg::{axpy, dot, norm2, LuScratch, Matrix};
use crate::transform::{Fnv128, LogSumExp, LseScratch, RisingColumn, TransformedProblem};
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

/// Where phase I left one GP: a point strictly inside every inequality that
/// mentions no rising column ([`TransformedProblem::rising_columns`]), with
/// the Newton iterations of each phase-I centering step (none when the
/// start already was), and a fingerprint of what it was computed from.
///
/// A sweep's GPs all share these phase-I rows and start, so the optimizer
/// runs phase I once ([`crate::GpProblem::phase_one`]) and hands the point
/// to every solve ([`crate::GpProblem::solve_cancellable`]). A solve uses it
/// only on its nominal attempt, and only if its own phase-I rows,
/// equalities, start and options fingerprint the same; it then returns
/// exactly what running phase I itself would have.
#[derive(Debug, Clone)]
pub struct PhaseOnePoint {
    key: (u64, u64),
    y: Vec<f64>,
    newton_per_center: Vec<u32>,
}

impl PhaseOnePoint {
    /// Newton iterations phase I spent.
    pub fn newton_iterations(&self) -> usize {
        self.newton_per_center.iter().map(|&i| i as usize).sum()
    }
}

/// Solves the transformed problem, escalating through the recovery ladder
/// on numerical failure.
///
/// Attempt 0 reproduces the nominal solver exactly (bit-identical on
/// healthy problems) and is the only one that may start phase II from
/// `shared`. Each subsequent attempt applies one more rung of
/// [`RecoveryRung`]; `Infeasible`, `InvalidProblem`, and `Cancelled` are
/// *not* numerical trouble and exit the ladder immediately.
pub(crate) fn solve_transformed(
    tp: &TransformedProblem,
    opts: &BarrierOptions,
    deadline: &Deadline,
    shared: Option<&PhaseOnePoint>,
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
        let shared = shared.filter(|_| rung.is_none());
        match solve_attempt(tp, &rung_opts, deadline, attempt as u64, perturb, shared) {
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

/// Phase I of attempt `attempt` over the inequalities that mention no
/// rising column, from [`start_point`]; `shared` stands in for it when it
/// fingerprints the same rows, start and options. Phase I is skipped when
/// the start is already strictly inside those rows.
pub(crate) fn phase_one_point(
    tp: &TransformedProblem,
    rising: &[RisingColumn],
    opts: &BarrierOptions,
    deadline: &Deadline,
    attempt: u64,
    perturb: bool,
    shared: Option<&PhaseOnePoint>,
) -> Result<PhaseOnePoint, GpError> {
    let rows = phase_one_rows(tp, rising);
    let y0 = start_point(tp, attempt, perturb)?;
    let key = phase_one_key(tp, &rows, &y0, opts);
    if let Some(point) = shared.filter(|point| point.key == key) {
        return Ok(point.clone());
    }
    let (y, newton_per_center) = phase_one(tp, &rows, y0, opts, deadline, attempt)?;
    Ok(PhaseOnePoint {
        key,
        y,
        newton_per_center,
    })
}

/// One pass of the phase-I / phase-II pipeline. `attempt` keys the fault
/// sites (and the perturbation pattern) so injected failures replay exactly.
/// Phase II starts from phase I's point with each rising column lifted
/// into its own rows ([`lift_rising`]).
fn solve_attempt(
    tp: &TransformedProblem,
    opts: &BarrierOptions,
    deadline: &Deadline,
    attempt: u64,
    perturb: bool,
    shared: Option<&PhaseOnePoint>,
) -> Result<RawSolution, GpError> {
    let rising = tp.rising_columns();
    let mut start = phase_one_point(tp, &rising, opts, deadline, attempt, perturb, shared)?;
    lift_rising(tp, &rising, &mut start.y);

    let run = barrier(
        &tp.objective,
        &tp.inequalities,
        &tp.eq_matrix,
        &start.y,
        opts,
        None,
        deadline,
        attempt,
    )?;
    Ok(RawSolution {
        y: run.y,
        status: run.status,
        newton_iterations: start.newton_iterations() + run.newton_iterations,
        newton_per_center: run.newton_per_center,
        gap_trajectory: run.gaps,
        recovery: RecoveryInfo::default(),
    })
}

/// The start of attempt `attempt`: the minimum-norm point on the equality
/// manifold, offset on the perturbed rungs, poisoned by `gp.solve.nan`.
fn start_point(tp: &TransformedProblem, attempt: u64, perturb: bool) -> Result<Vec<f64>, GpError> {
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
    Ok(y0)
}

/// The inequalities phase I reads: those that mention no rising column.
fn phase_one_rows(tp: &TransformedProblem, rising: &[RisingColumn]) -> Vec<usize> {
    let mut lifted = vec![false; tp.inequalities.len()];
    for &(i, _) in rising.iter().flat_map(|r| &r.rows) {
        lifted[i] = true;
    }
    (0..lifted.len()).filter(|&i| !lifted[i]).collect()
}

/// Fingerprint of everything phase I reads: its rows, the equality matrix,
/// the start, and the barrier options.
fn phase_one_key(
    tp: &TransformedProblem,
    rows: &[usize],
    y0: &[f64],
    opts: &BarrierOptions,
) -> (u64, u64) {
    let mut h = Fnv128::new();
    for &i in rows {
        tp.inequalities[i].hash_into(&mut h);
    }
    h.put(tp.eq_matrix.rows() as u64);
    for k in 0..tp.eq_matrix.rows() {
        for &a in tp.eq_matrix.row(k) {
            h.put(a.to_bits());
        }
    }
    for &v in y0 {
        h.put(v.to_bits());
    }
    for v in [opts.newton_tol, opts.mu, opts.base_ridge] {
        h.put(v.to_bits());
    }
    h.put(opts.max_newton_per_center as u64);
    h.put(opts.max_centering_steps as u64);
    h.finish()
}

/// Raises each rising column until every inequality that mentions it reads
/// at most `-1` (up to rounding), the unit margin phase I gives its slack.
/// A column whose rows already read below that stays put. Raising a column
/// only lowers its rows, so a later column never undoes an earlier lift.
fn lift_rising(tp: &TransformedProblem, rising: &[RisingColumn], y: &mut [f64]) {
    let mut scratch = LseScratch::default();
    for column in rising {
        let mut lift = 0.0f64;
        for &(i, rate) in &column.rows {
            lift = lift.max((tp.inequalities[i].value(y, &mut scratch) + 1.0) / rate);
        }
        y[column.col] += lift;
    }
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

/// Phase I over the inequalities `rows`: returns `y0` untouched (and no
/// centering steps) if it is already strictly inside them, else a point
/// that is, or certifies infeasibility. The slack starts at
/// `s0 = worst + 1`, strictly above every row's value at `y0`.
fn phase_one(
    tp: &TransformedProblem,
    rows: &[usize],
    y0: Vec<f64>,
    opts: &BarrierOptions,
    deadline: &Deadline,
    fault_key: u64,
) -> Result<(Vec<f64>, Vec<u32>), GpError> {
    let n = tp.n;
    let mut scratch = LseScratch::default();
    let worst = rows
        .iter()
        .map(|&i| tp.inequalities[i].value(&y0, &mut scratch))
        .fold(f64::NEG_INFINITY, f64::max);
    // A NaN margin fails this test and routes through phase I.
    if worst < -1e-6 {
        return Ok((y0, Vec::new()));
    }
    let (objective, ineqs, eq) = phase_one_problem(tp, rows);
    let mut z0 = y0;
    z0.push(worst + 1.0);

    let mut phase_opts = opts.clone();
    phase_opts.gap_tol = 1e-6;
    let mut run = barrier(
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
    run.y.truncate(n);
    Ok((run.y, run.newton_per_center))
}

/// The phase-I problem over the extended space `(y, s)`: objective `s`,
/// constraints `Fi(y) - s <= 0` for the inequalities `rows`, and the
/// equality matrix with a zero column for `s`.
fn phase_one_problem(
    tp: &TransformedProblem,
    rows: &[usize],
) -> (LogSumExp, Vec<LogSumExp>, Matrix) {
    let n = tp.n;
    let ineqs = rows
        .iter()
        .map(|&i| tp.inequalities[i].with_slack_column(n))
        .collect();
    let mut eq = Matrix::zeros(tp.eq_matrix.rows(), n + 1);
    for i in 0..tp.eq_matrix.rows() {
        eq.row_mut(i)[..n].copy_from_slice(tp.eq_matrix.row(i));
    }
    (LogSumExp::slack_objective(n), ineqs, eq)
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
    let mut scratch = LseScratch::default();
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
        if thistle_fault::fire("gp.solve.hold", fault_key) {
            // Chaos: stall until the deadline expires, so a waiter's timeout
            // always lands mid-solve; the poll below then stops the solve.
            // Arm it only for solves whose deadline can expire.
            while !deadline.expired() {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
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
            if objective.value(&y, &mut scratch) < threshold {
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
    // Buffers allocated once and overwritten every iteration.
    let mut sys = NewtonSystem::new(n);
    let mut kkt = Kkt::new(n, eq.rows());
    let mut cand = vec![0.0; n];

    for iter in 0..opts.max_newton_per_center {
        if deadline.expired() {
            return Err(GpError::Cancelled);
        }
        if y.iter().any(|v| !v.is_finite()) {
            return Err(GpError::NumericalFailure(
                "non-finite iterate in centering step".into(),
            ));
        }
        let m0 = newton_system(objective, ineqs, y, t, &mut sys)?;

        // Solve the KKT system, escalating the ridge on failure. The chaos
        // site skips the factorization loop entirely, simulating a system
        // that stays singular at every ridge level.
        let mut solved = false;
        if !thistle_fault::fire("gp.kkt.singular", fault_key) {
            let mut ridge = opts.base_ridge;
            while ridge < 1e4 {
                if kkt.solve(&sys.hess, eq, &sys.grad, ridge) {
                    solved = true;
                    break;
                }
                ridge *= 100.0;
            }
        }
        if !solved {
            return Err(GpError::NumericalFailure(
                "KKT system unsolvable at any ridge level".into(),
            ));
        }
        let dy = kkt.step();

        let lambda_sq = -dot(&sys.grad, dy);
        if !lambda_sq.is_finite() {
            return Err(GpError::NumericalFailure(
                "non-finite Newton decrement".into(),
            ));
        }
        if lambda_sq / 2.0 <= opts.newton_tol {
            return Ok(iter);
        }

        // Backtracking line search on the barrier merit function, from the
        // merit `newton_system` accumulated at `y`.
        let slope = -lambda_sq; // negative
        let mut step = 1.0;
        let mut accepted = false;
        for _ in 0..70 {
            for ((c, &yv), &d) in cand.iter_mut().zip(y.iter()).zip(dy) {
                *c = yv + step * d;
            }
            let mc = merit(objective, ineqs, &cand, t, &mut sys.scratch);
            if mc <= m0 + 0.25 * step * slope {
                std::mem::swap(y, &mut cand);
                accepted = true;
                break;
            }
            step *= 0.5;
        }
        if !accepted {
            // Progress stalled at numerical precision — treat as converged.
            return Ok(iter);
        }
    }
    Ok(opts.max_newton_per_center)
}

/// The dense gradient and Hessian of `t*F0 + phi`, with the evaluation
/// scratch every function shares.
struct NewtonSystem {
    grad: Vec<f64>,
    hess: Matrix,
    scratch: LseScratch,
}

impl NewtonSystem {
    fn new(n: usize) -> Self {
        NewtonSystem {
            grad: vec![0.0; n],
            hess: Matrix::zeros(n, n),
            scratch: LseScratch::default(),
        }
    }
}

/// Assembles the gradient and Hessian of the barrier function
/// `t*F0(y) - sum_i log(-Fi(y))` into `sys` from each function's live block,
/// and returns its value at `y` (the line search's starting merit).
///
/// The objective's block is written times `t`. Each inequality adds
/// `inv*g` to the gradient and, on its live x live entries only,
/// `inv^2 g g^T` (skipping the rows where `g` is zero) and then `inv*H`,
/// with `inv = 1/(-Fi(y))`. The entries a dense assembly would also touch
/// only receive `+-0`, which leaves every accumulator (zeroed to `+0`, never
/// `-0`) unchanged, so the system is bit-identical to the dense one.
///
/// # Errors
///
/// [`GpError::NumericalFailure`] if some `Fi(y)` is not negative (or NaN).
fn newton_system(
    objective: &LogSumExp,
    ineqs: &[LogSumExp],
    y: &[f64],
    t: f64,
    sys: &mut NewtonSystem,
) -> Result<f64, GpError> {
    let NewtonSystem {
        grad,
        hess,
        scratch,
    } = sys;
    grad.fill(0.0);
    hess.fill_zero();
    let v0 = objective.eval_block(y, scratch);
    let mut merit = t * v0;
    let live = objective.live();
    let rows = scratch.hess.chunks_exact(live.len().max(1));
    for ((&i, &g), block) in live.iter().zip(&scratch.grad).zip(rows) {
        grad[i as usize] = g * t;
        let row = hess.row_mut(i as usize);
        for (&j, &h) in live.iter().zip(block) {
            row[j as usize] = h * t;
        }
    }
    for f in ineqs {
        let v = f.eval_block(y, scratch);
        // `!(v < 0.0)` rather than `v >= 0.0`: a NaN value must also be
        // treated as having left the feasible region.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(v < 0.0) {
            return Err(GpError::NumericalFailure(
                "barrier iterate left the feasible region".into(),
            ));
        }
        let inv = -1.0 / v; // 1 / (-Fi) > 0
        merit -= (-v).ln();
        let c = inv * inv;
        let (live, g) = (f.live(), &scratch.grad);
        let rows = scratch.hess.chunks_exact(live.len().max(1));
        for ((&i, &gi), block) in live.iter().zip(g).zip(rows) {
            grad[i as usize] += inv * gi;
            let row = hess.row_mut(i as usize);
            if gi != 0.0 {
                let cv = c * gi;
                for (&j, &gj) in live.iter().zip(g) {
                    row[j as usize] += cv * gj;
                }
            }
            for (&j, &h) in live.iter().zip(block) {
                row[j as usize] += inv * h;
            }
        }
    }
    Ok(merit)
}

/// The barrier merit `t*F0(y) - sum_i log(-Fi(y))`, or `+inf` outside the
/// domain.
fn merit(
    objective: &LogSumExp,
    ineqs: &[LogSumExp],
    y: &[f64],
    t: f64,
    scratch: &mut LseScratch,
) -> f64 {
    let mut val = t * objective.value(y, scratch);
    for f in ineqs {
        let fv = f.value(y, scratch);
        if fv >= 0.0 {
            return f64::INFINITY;
        }
        val -= (-fv).ln();
    }
    val
}

/// The Newton step's KKT system `[H + rho*I, A^T; A, 0] [dy; w] = [-g; 0]`,
/// assembled into buffers reused across Newton iterations and ridge
/// retries, and factored in place (LU with partial pivoting; Cholesky when
/// there are no equalities).
struct Kkt {
    matrix: Matrix,
    rhs: Vec<f64>,
    sol: Vec<f64>,
    lu: LuScratch,
    n: usize,
}

impl Kkt {
    fn new(n: usize, meq: usize) -> Self {
        Kkt {
            matrix: Matrix::zeros(n + meq, n + meq),
            rhs: vec![0.0; n + meq],
            sol: vec![0.0; n + meq],
            lu: LuScratch::default(),
            n,
        }
    }

    /// Assembles the system at ridge `ridge` and solves it. Returns whether
    /// it produced a finite step, which [`Kkt::step`] then holds.
    fn solve(&mut self, hess: &Matrix, eq: &Matrix, grad: &[f64], ridge: f64) -> bool {
        let n = self.n;
        for i in 0..n {
            let row = self.matrix.row_mut(i);
            row[..n].copy_from_slice(hess.row(i));
            row[i] += ridge;
            for (k, r) in row[n..].iter_mut().enumerate() {
                *r = eq[(k, i)];
            }
        }
        for k in 0..eq.rows() {
            let row = self.matrix.row_mut(n + k);
            row[..n].copy_from_slice(eq.row(k));
            row[n..].fill(0.0);
        }
        for (r, g) in self.rhs.iter_mut().zip(grad) {
            *r = -g;
        }
        self.rhs[n..].fill(0.0);
        let solved = if eq.rows() == 0 {
            self.matrix
                .cholesky_solve(&self.rhs)
                .map(|x| self.sol.copy_from_slice(&x))
        } else {
            self.matrix
                .lu_solve_in_place(&mut self.rhs, &mut self.sol, &mut self.lu)
        };
        solved.is_ok() && self.step().iter().all(|v| v.is_finite())
    }

    /// The `dy` part of the last solution.
    fn step(&self) -> &[f64] {
        &self.sol[..self.n]
    }
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
        let raw = solve_transformed(&tp, &BarrierOptions::default(), &Deadline::none(), None)?;
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
        let raw =
            solve_transformed(&tp, &BarrierOptions::default(), &Deadline::none(), None).unwrap();
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

    /// The generator of one small conv layer, and its two architecture
    /// modes (fixed Eyeriss, co-design at Eyeriss area).
    fn small_layer() -> (
        thistle_model::ProblemGenerator,
        [thistle_model::ArchMode; 2],
    ) {
        use thistle_arch::{ArchConfig, Bandwidths, TechnologyParams};
        use thistle_model::{ArchMode, CoDesignSpec, ConvLayer, ProblemGenerator};
        let tech = TechnologyParams::cgo2022_45nm();
        let layer = ConvLayer::new("small", 1, 16, 8, 8, 8, 3, 3, 1);
        let gen = ProblemGenerator::new(layer.workload(), tech.clone(), Bandwidths::default());
        let eyeriss = ArchConfig::eyeriss();
        let modes = [
            ArchMode::Fixed(eyeriss),
            ArchMode::CoDesign(CoDesignSpec::same_area_as(&eyeriss, &tech)),
        ];
        (gen, modes)
    }

    /// The transformed problem of a generated GP. A macro, because the
    /// generator builds the `GpProblem` of the second copy of this crate
    /// that `thistle-model` links.
    macro_rules! transformed {
        ($p:expr) => {{
            let p = &$p;
            TransformedProblem::new(
                p.registry().len(),
                p.objective().unwrap(),
                p.inequalities(),
                p.equalities(),
            )
        }};
    }

    /// GPs generated for one small conv layer: the first and last
    /// permutation class in each mode x objective setting, each with its
    /// solved point.
    fn generated_gps() -> Vec<(TransformedProblem, Vec<f64>)> {
        use thistle_model::Objective;
        let (gen, modes) = small_layer();
        let classes = gen.permutation_classes();
        let mut out = Vec::new();
        for mode in &modes {
            for objective in [Objective::Energy, Objective::Delay] {
                for (p1, p3) in [&classes[0], &classes[classes.len() - 1]] {
                    let tp = transformed!(gen.generate(p1, p3, objective, mode).unwrap().problem);
                    let opts = BarrierOptions::default();
                    let y = solve_transformed(&tp, &opts, &Deadline::none(), None)
                        .unwrap()
                        .y;
                    out.push((tp, y));
                }
            }
        }
        out
    }

    /// `min t  s.t.  3/(x*t) + 1/t <= 1,  2 <= x <= hi`: `t` is rising, and
    /// the start `x = 1` violates `x >= 2`, so phase I has work to do. The
    /// optimum is `t = 3/hi + 1`.
    fn toy_delay_gp(hi: f64) -> TransformedProblem {
        let mut reg = VarRegistry::new();
        let x = reg.var("x");
        let t = reg.var("t");
        let ineqs = vec![
            Posynomial::from(Monomial::new(2.0, [(x, -1.0)])),
            Posynomial::from(Monomial::new(1.0 / hi, [(x, 1.0)])),
            Posynomial::from(Monomial::new(3.0, [(x, -1.0), (t, -1.0)]))
                + Posynomial::from(Monomial::new(1.0, [(t, -1.0)])),
        ];
        TransformedProblem::new(2, &Posynomial::from_var(t), &ineqs, &[])
    }

    /// Phase I of the nominal attempt, as `GpProblem::phase_one` runs it.
    fn nominal_phase_one(tp: &TransformedProblem, opts: &BarrierOptions) -> PhaseOnePoint {
        let rising = tp.rising_columns();
        phase_one_point(tp, &rising, opts, &Deadline::none(), 0, false, None).unwrap()
    }

    fn under_the_cap(per_center: &[u32], opts: &BarrierOptions) -> bool {
        per_center
            .iter()
            .all(|&i| (i as usize) < opts.max_newton_per_center)
    }

    #[test]
    fn rising_column_keeps_phase_one_under_the_cap() {
        let tp = toy_delay_gp(8.0);
        let opts = BarrierOptions::default();
        let rising = tp.rising_columns();
        assert_eq!(
            rising,
            [RisingColumn {
                col: 1,
                rows: vec![(2, 1.0)]
            }]
        );
        assert_eq!(phase_one_rows(&tp, &rising), [0, 1]);
        // Phase I over every row has no minimum along `t`: a centering
        // step runs into the cap.
        let every_row = [0, 1, 2];
        let y0 = vec![0.0; 2];
        let (_, capped) = phase_one(&tp, &every_row, y0, &opts, &Deadline::none(), 0).unwrap();
        assert!(!under_the_cap(&capped, &opts), "{capped:?}");
        // Without the rising row it converges.
        let point = nominal_phase_one(&tp, &opts);
        assert!(point.newton_iterations() > 0, "phase I ran");
        assert!(under_the_cap(&point.newton_per_center, &opts), "{point:?}");
        let raw = solve_transformed(&tp, &opts, &Deadline::none(), None).unwrap();
        let t = tp.to_gp_point(&raw.y)[1];
        let optimum = 3.0 / 8.0 + 1.0;
        assert!((t - optimum).abs() < 1e-6 * optimum, "t = {t}");
    }

    /// A lifted column reads at most `-1` (up to rounding) in each of its
    /// rows, and a column already below that stays put.
    #[test]
    fn lift_puts_rising_rows_at_the_unit_margin() {
        let tp = toy_delay_gp(8.0);
        let rising = tp.rising_columns();
        let mut scratch = LseScratch::default();
        let mut y = vec![(4.0f64).ln(), 0.0];
        lift_rising(&tp, &rising, &mut y);
        assert!((tp.inequalities[2].value(&y, &mut scratch) + 1.0).abs() < 1e-12);
        let high = vec![(4.0f64).ln(), 10.0];
        let mut y = high.clone();
        lift_rising(&tp, &rising, &mut y);
        assert_eq!(y, high);
    }

    /// Every GP of a small conv layer, in all four mode x objective
    /// settings: no phase-I centering step reaches the cap, a delay GP's
    /// phase I costs at most what the energy GP of the same pair costs, and
    /// every pair of a setting fingerprints the same phase-I rows and start,
    /// so one point serves them all.
    #[test]
    fn generated_phase_one_stays_under_the_cap() {
        use thistle_model::Objective;
        let (gen, modes) = small_layer();
        let classes = gen.permutation_classes();
        let opts = BarrierOptions::default();
        let mut ran = false;
        for mode in &modes {
            let [energy, delay] = [Objective::Energy, Objective::Delay].map(|objective| {
                let points: Vec<PhaseOnePoint> = classes
                    .iter()
                    .map(|(p1, p3)| {
                        let gp = gen.generate(p1, p3, objective, mode).unwrap();
                        let tp = transformed!(gp.problem);
                        let rising = tp.rising_columns();
                        let expected = usize::from(objective == Objective::Delay);
                        assert_eq!(rising.len(), expected, "{mode:?} {objective}");
                        nominal_phase_one(&tp, &opts)
                    })
                    .collect();
                for point in &points {
                    let context = format!("{mode:?} {objective}: {point:?}");
                    assert!(under_the_cap(&point.newton_per_center, &opts), "{context}");
                    assert_eq!(point.key, points[0].key, "{context}");
                }
                points
            });
            for (e, d) in energy.iter().zip(&delay) {
                assert!(
                    d.newton_iterations() <= e.newton_iterations(),
                    "{mode:?}: delay {d:?} vs energy {e:?}"
                );
                ran |= d.newton_iterations() > 0;
            }
        }
        assert!(ran, "no delay GP needed phase I");
    }

    fn solution_bits(raw: &RawSolution) -> impl PartialEq + fmt::Debug {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        (
            bits(&raw.y),
            raw.status,
            raw.newton_iterations,
            raw.newton_per_center.clone(),
            bits(&raw.gap_trajectory),
            raw.recovery,
        )
    }

    /// A shared point stands in for phase I only where it fingerprints the
    /// problem's own phase-I rows, start and options; there the solve is
    /// bit-identical to running phase I itself.
    #[test]
    fn shared_point_serves_only_a_matching_problem() {
        let opts = BarrierOptions::default();
        let none = Deadline::none();
        let tp = toy_delay_gp(8.0);
        let point = nominal_phase_one(&tp, &opts);
        let alone = solve_transformed(&tp, &opts, &none, None).unwrap();
        let shared = solve_transformed(&tp, &opts, &none, Some(&point)).unwrap();
        assert_eq!(solution_bits(&shared), solution_bits(&alone));

        // A marked copy shows which solves read it: its phase-I count lands
        // in a matching solve's total, and nowhere else.
        let mut marked = point.clone();
        marked.newton_per_center.push(1000);
        let used = solve_transformed(&tp, &opts, &none, Some(&marked)).unwrap();
        assert_eq!(used.newton_iterations, alone.newton_iterations + 1000);
        let other_rows = toy_delay_gp(9.0);
        let tighter = BarrierOptions {
            newton_tol: 1e-12,
            ..opts.clone()
        };
        for (tp, opts) in [(&other_rows, &opts), (&tp, &tighter)] {
            let alone = solve_transformed(tp, opts, &none, None).unwrap();
            let offered = solve_transformed(tp, opts, &none, Some(&marked)).unwrap();
            assert_eq!(solution_bits(&offered), solution_bits(&alone));
        }
    }

    /// The dense assembly `newton_system` replaced: dense evaluation of
    /// every function into `n`-vectors and `n x n` matrices, the objective
    /// scaled by `t`, then per inequality `inv*g`, a dense rank-one
    /// `inv^2 g g^T`, and `inv*H` added to every entry; the merit evaluated
    /// afresh with the two-pass value. `None` where some `Fi(y) >= 0`.
    fn dense_newton_system(
        objective: &LogSumExp,
        ineqs: &[LogSumExp],
        y: &[f64],
        t: f64,
    ) -> Option<(Vec<f64>, Matrix, f64)> {
        let n = y.len();
        let (_, mut grad, mut hess) = objective.dense_reference_eval(y);
        for g in grad.iter_mut() {
            *g *= t;
        }
        for i in 0..n {
            for j in 0..n {
                hess[(i, j)] *= t;
            }
        }
        for f in ineqs {
            let (v, gi, hi) = f.dense_reference_eval(y);
            if v >= 0.0 || v.is_nan() {
                return None;
            }
            let inv = -1.0 / v;
            for (gacc, &gc) in grad.iter_mut().zip(&gi) {
                *gacc += inv * gc;
            }
            hess.add_outer(inv * inv, &gi);
            for i in 0..n {
                for j in 0..n {
                    hess[(i, j)] += inv * hi[(i, j)];
                }
            }
        }
        let mut merit = t * objective.dense_reference_value(y);
        for f in ineqs {
            merit -= (-f.dense_reference_value(y)).ln();
        }
        Some((grad, hess, merit))
    }

    fn assert_same_system(objective: &LogSumExp, ineqs: &[LogSumExp], y: &[f64], t: f64) {
        let n = y.len();
        let mut sys = NewtonSystem::new(n);
        let m0 = newton_system(objective, ineqs, y, t, &mut sys).expect("strictly feasible");
        let (grad, hess, merit) = dense_newton_system(objective, ineqs, y, t).unwrap();
        for i in 0..n {
            assert_eq!(
                sys.grad[i].to_bits(),
                grad[i].to_bits(),
                "gradient entry {i} at t = {t}"
            );
            for j in 0..n {
                assert_eq!(
                    sys.hess[(i, j)].to_bits(),
                    hess[(i, j)].to_bits(),
                    "Hessian entry ({i},{j}) at t = {t}"
                );
            }
        }
        assert_eq!(m0.to_bits(), merit.to_bits(), "merit at t = {t}");
    }

    #[test]
    fn newton_system_matches_the_dense_assembly_bit_for_bit() {
        let gps = generated_gps();
        assert_eq!(gps.len(), 8);
        let mut scratch = LseScratch::default();
        let mut slack_point = |ineqs: &[LogSumExp], y: &[f64]| {
            let worst = ineqs
                .iter()
                .map(|f| f.value(y, &mut scratch))
                .fold(f64::NEG_INFINITY, f64::max);
            let mut z = y.to_vec();
            z.push(worst + 1.0);
            z
        };
        for (tp, y_star) in &gps {
            let all_rows: Vec<usize> = (0..tp.inequalities.len()).collect();
            let (slack_obj, slack_ineqs, _) = phase_one_problem(tp, &all_rows);
            let z_star = slack_point(&tp.inequalities, y_star);
            for t in [1.0, 20.0, 1e4] {
                assert_same_system(&tp.objective, &tp.inequalities, y_star, t);
                assert_same_system(&slack_obj, &slack_ineqs, &z_star, t);
            }
            // The phase-I start `(y0, worst + 1)`.
            let y0 = tp.eq_matrix.min_norm_solution(&tp.eq_rhs).unwrap();
            let z0 = slack_point(&tp.inequalities, &y0);
            assert_same_system(&slack_obj, &slack_ineqs, &z0, 1.0);
        }
    }

    /// The KKT solve the in-place buffer replaced: clone `H`, add the ridge,
    /// assemble a fresh `(n + m)^2` matrix and call [`Matrix::solve`] on it
    /// (Cholesky on `H` alone without equalities). `None` where that fails
    /// or yields a non-finite step.
    fn dense_kkt_step(hess: &Matrix, a: &Matrix, grad: &[f64], ridge: f64) -> Option<Vec<f64>> {
        let (n, m) = (hess.rows(), a.rows());
        let mut h = hess.clone();
        h.add_diagonal(ridge);
        let mut rhs: Vec<f64> = grad.iter().map(|g| -g).collect();
        let step = if m == 0 {
            h.cholesky_solve(&rhs).ok()?
        } else {
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
            rhs.extend(std::iter::repeat_n(0.0, m));
            kkt.solve(&rhs).ok()?[..n].to_vec()
        };
        step.iter().all(|v| v.is_finite()).then_some(step)
    }

    #[test]
    fn in_place_kkt_matches_a_fresh_dense_solve_bit_for_bit() {
        let mut retried = false;
        for (tp, y_star) in generated_gps() {
            let (n, eq) = (tp.n, &tp.eq_matrix);
            let mut sys = NewtonSystem::new(n);
            newton_system(&tp.objective, &tp.inequalities, &y_star, 20.0, &mut sys).unwrap();
            // One buffer for every solve below, as in a centering step. A
            // zero Hessian without a ridge is singular wherever a variable
            // sits in no equality, so the ridge retry after it runs on a
            // half-eliminated buffer.
            let zero = Matrix::zeros(n, n);
            let mut kkt = Kkt::new(n, eq.rows());
            for (hess, ridge) in [
                (&zero, 0.0),
                (&zero, 1e-10),
                (&sys.hess, 1e-10),
                (&sys.hess, 1e-8),
            ] {
                let expected = dense_kkt_step(hess, eq, &sys.grad, ridge);
                let solved = kkt.solve(hess, eq, &sys.grad, ridge);
                assert_eq!(solved, expected.is_some(), "ridge {ridge}");
                retried |= !solved;
                if let Some(dy) = expected {
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(kkt.step()), bits(&dy), "ridge {ridge}");
                }
            }
        }
        assert!(retried, "no solve exercised the ridge retry");
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
