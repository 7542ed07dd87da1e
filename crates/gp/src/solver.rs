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
use crate::transform::{LogSumExp, LoweringReuse, LseScratch, TransformedProblem};
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

/// Warm-start accounting for a [`Solution`] (all zeros on cold solves).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarmInfo {
    /// Whether the warm path actually ran. `false` on cold solves and on
    /// warm requests that fell back to the cold ladder (bad start point,
    /// numerical trouble on the warm attempt).
    pub warm_started: bool,
    /// CSR rows reused vs re-lowered by the patched lowering, when the
    /// solve went through [`crate::GpProblem::solve_warm`].
    pub reuse: LoweringReuse,
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
    /// Warm-start accounting (all zeros for cold solves).
    pub warm: WarmInfo,
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
    /// Newton budget for *intermediate* centering steps (the final centering
    /// always gets the full `max_newton_per_center`). Path-following does
    /// not require exact intermediate centering — a roughly centered point
    /// tracks the path fine — so warm runs cap the crawl; `None` (cold
    /// solves) centers every step to `newton_tol`.
    pub inexact_cap: Option<usize>,
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
            inexact_cap: None,
        }
    }
}

/// Ridge floor applied by the [`RecoveryRung::TikhonovRidge`] rung and above.
const LADDER_RIDGE: f64 = 1e-6;
/// Tolerance multiplier applied by [`RecoveryRung::RelaxedTolerance`].
const LADDER_RELAX: f64 = 1e4;
/// Log-space amplitude of the [`RecoveryRung::PerturbedRestart`] offset.
const LADDER_PERTURB: f64 = 0.25;
/// Initial duality-gap target for warm-started barrier runs: the first
/// centering step opens at `t0 = m / WARM_GAP_START` instead of `t = 1`,
/// skipping the early outer iterations a near-optimal start point does not
/// need.
const WARM_GAP_START: f64 = 5e-1;
/// Fault/perturbation key for the warm attempt, disjoint from the cold
/// ladder's attempt indices 0..=3.
const WARM_FAULT_KEY: u64 = 4;
/// Newton budget per *intermediate* centering on warm runs (see
/// [`BarrierOptions::inexact_cap`]); the final centering is never capped.
const WARM_INEXACT_CAP: usize = 6;
/// Slack-variable start margin for a *warm* phase I. The cold path starts
/// at `s0 = worst + 1.0` because its start point can be arbitrarily bad; a
/// warm start's violation is small, and a tight margin keeps the phase-I
/// descent short.
const WARM_PHASE1_MARGIN: f64 = 0.05;
/// Initial barrier `t` for a *warm* phase I: weighting the slack objective
/// heavily makes phase I dive straight for feasibility with minimal drift
/// from the donor point, instead of re-centering toward the analytic
/// center like the cold path's `t = 1` start.
const WARM_PHASE1_T0: f64 = 100.0;
/// Interior margin the warm-start repair pass restores on violated
/// inequalities (in log-space constraint value).
const WARM_REPAIR_MARGIN: f64 = 1e-4;

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

/// Solves the transformed problem warm-started from the GP-space point
/// `x0` (typically the optimum of a structurally identical prior problem).
/// Returns the solution plus whether the warm path actually produced it.
///
/// The warm attempt projects `ln(x0)` onto the new equality manifold via a
/// min-norm correction, skips phase I when the projected point is already
/// strictly feasible, and opens the barrier at an elevated `t`. Numerical
/// trouble on the warm attempt falls back to the full cold ladder, so the
/// returned point matches a cold solve up to solver tolerance either way
/// (the problem is convex: both paths converge to the same optimum).
pub(crate) fn solve_transformed_warm(
    tp: &TransformedProblem,
    opts: &BarrierOptions,
    deadline: &Deadline,
    x0: &[f64],
) -> Result<(RawSolution, bool), GpError> {
    match warm_attempt(tp, opts, deadline, x0) {
        Ok(mut raw) => {
            raw.recovery = RecoveryInfo {
                attempts: 1,
                recovered_by: None,
            };
            Ok((raw, true))
        }
        // An `Infeasible` from the warm attempt is as untrustworthy as
        // numerical trouble: the aggressive warm phase I can stall on a
        // feasible problem, and the heuristic projection can drift off the
        // equality manifold. Only the cold path's verdicts are
        // authoritative, so both fall back to it.
        Err(GpError::NumericalFailure(_)) | Err(GpError::Infeasible) => {
            solve_transformed(tp, opts, deadline).map(|raw| (raw, false))
        }
        Err(e) => Err(e),
    }
}

fn warm_attempt(
    tp: &TransformedProblem,
    opts: &BarrierOptions,
    deadline: &Deadline,
    x0: &[f64],
) -> Result<RawSolution, GpError> {
    let n = tp.n;
    if x0.len() != n {
        return Err(GpError::NumericalFailure(format!(
            "warm point has dimension {} but the problem has {n} variables",
            x0.len()
        )));
    }
    let mut y0: Vec<f64> = x0.iter().map(|&x| x.ln()).collect();
    if y0.iter().any(|v| !v.is_finite()) {
        return Err(GpError::NumericalFailure(
            "warm point is not strictly positive and finite".into(),
        ));
    }

    // Project onto the equality manifold: the near-miss changed right-hand
    // sides (e.g. the batch trip-count product), so the donor optimum sits
    // off the new manifold by exactly that delta. Any `d` with
    // `A d = A y0 - b` restores the equalities; a plain min-norm `d` spreads
    // the delta uniformly, which perturbs tile variables sitting in tight
    // footprint constraints and wrecks the donor's feasibility margins.
    // Instead minimize `sum((s_j d_j)^2)` where `s_j` grows with variable
    // j's total inequality sensitivity at the donor point: the correction
    // flows into directions the constraints barely see (outer trip counts),
    // keeping the donor's margins nearly intact.
    let meq = tp.eq_matrix.rows();
    let m = tp.inequalities.len();

    // Sensitivity weight per variable: 1 + total |gradient| over every
    // inequality at the donor point. Cheap directions (outer trip counts,
    // the delay variable) get small weights; tile variables buried in tight
    // footprint constraints get large ones.
    let sens: Vec<f64> = {
        let mut sens = vec![1.0f64; n];
        let mut scratch = LseScratch::default();
        let mut gi = vec![0.0; n];
        for f in &tp.inequalities {
            f.eval_into(&y0, &mut gi, None, &mut scratch);
            for (s, g) in sens.iter_mut().zip(&gi) {
                *s += g.abs();
            }
        }
        sens
    };
    // Minimal sensitivity-weighted step satisfying the linear system
    // `rows * d = rhs`: substituting `u_j = s_j d_j` turns the weighted
    // min-norm problem into a plain one on the column-scaled matrix.
    let weighted_step = |rows: &Matrix, rhs: &[f64]| -> Result<Vec<f64>, GpError> {
        let k = rows.rows();
        let mut scaled = Matrix::zeros(k, n);
        for i in 0..k {
            for j in 0..n {
                scaled[(i, j)] = rows[(i, j)] / sens[j];
            }
        }
        let u = scaled
            .min_norm_solution(rhs)
            .map_err(|e| GpError::NumericalFailure(format!("warm projection: {e}")))?;
        Ok(u.iter().zip(&sens).map(|(uv, s)| uv / s).collect())
    };

    if meq > 0 {
        let r = axpy(&tp.eq_matrix.matvec(&y0), -1.0, &tp.eq_rhs);
        let d = weighted_step(&tp.eq_matrix, &r)?;
        for (yv, dv) in y0.iter_mut().zip(&d) {
            *yv -= dv;
        }
    }

    // Repair pass: the projection restores the equalities but cannot touch
    // variables outside every equality row (e.g. the delay variable, whose
    // bandwidth constraints scale with the changed workload). Linearize the
    // violated and knife-edge inequalities and take the smallest weighted
    // step that restores an interior margin while staying on the equality
    // manifold (`A d = 0`). Convexity makes the linearization an
    // underestimate of the repair, hence the few-pass loop; any residual
    // violation falls through to the warm phase I below.
    if m > 0 {
        let mut scratch = LseScratch::default();
        let mut gi = vec![0.0; n];
        for _pass in 0..8 {
            let mut rows: Vec<(Vec<f64>, f64)> = Vec::new();
            // Only genuine violations enter the repair set: constraints
            // merely tight at the donor optimum are *supposed* to be tight
            // (complementarity), and demanding fresh margin on all of them
            // would force a large, ill-conditioned step away from the
            // optimum. The sensitivity weights keep the repair step out of
            // their variables instead.
            for f in &tp.inequalities {
                let v = f.eval_into(&y0, &mut gi, None, &mut scratch);
                #[allow(clippy::neg_cmp_op_on_partial_ord)]
                if !(v < -1e-9) {
                    rows.push((gi.clone(), -(v + WARM_REPAIR_MARGIN)));
                }
            }
            if rows.is_empty() {
                break;
            }
            let mut stacked = Matrix::zeros(meq + rows.len(), n);
            let mut rhs = vec![0.0; meq + rows.len()];
            for i in 0..meq {
                for j in 0..n {
                    stacked[(i, j)] = tp.eq_matrix[(i, j)];
                }
            }
            for (i, (grad, target)) in rows.iter().enumerate() {
                for j in 0..n {
                    stacked[(meq + i, j)] = grad[j];
                }
                rhs[meq + i] = *target;
            }
            // A rank-deficient stack (parallel gradients) is not fatal:
            // stop repairing and let phase I finish the job.
            let Ok(d) = weighted_step(&stacked, &rhs) else {
                break;
            };
            for (yv, dv) in y0.iter_mut().zip(&d) {
                *yv += dv;
            }
        }
    }

    if meq > 0 {
        let r2 = axpy(&tp.eq_matrix.matvec(&y0), -1.0, &tp.eq_rhs);
        if norm2(&r2) > 1e-6 * (1.0 + norm2(&tp.eq_rhs)) {
            return Err(GpError::Infeasible);
        }
    }

    let mut total_newton = 0;
    if m > 0 {
        let worst = tp
            .inequalities
            .iter()
            .map(|f| f.value(&y0))
            .fold(f64::NEG_INFINITY, f64::max);
        // A barrier optimum hugs its active constraints by less than the
        // cold path's -1e-6 interior margin, so a projected donor point is
        // routinely within 1e-6 of a boundary — and that is fine: the
        // centering backtracker keeps iterates strictly feasible from any
        // strictly feasible start. Only a genuine violation needs phase I,
        // and then a *warm* one: a tight slack margin and an elevated `t`
        // make it dive for feasibility instead of re-centering toward the
        // analytic center (which would throw away the donor's proximity).
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(worst < -1e-9) {
            let (y_feas, iters) = phase_one(
                tp,
                &y0,
                worst,
                WARM_PHASE1_MARGIN,
                WARM_PHASE1_T0,
                opts,
                deadline,
                WARM_FAULT_KEY,
            )?;
            total_newton += iters;
            y0 = y_feas;
        }
    }

    // Open the barrier part-way down the central path instead of at `t = 1`:
    // the donor's relaxed optimum is already near the new optimum, so the
    // early wide-gap centerings a cold solve needs are wasted work. Entering
    // too tight backfires, though — the donor point hugs the active
    // constraints, and a tight barrier makes the first centering fight its
    // way outward — so `WARM_GAP_START` is deliberately moderate. The raw
    // `t0` is then snapped onto the grid `t_final / mu^j`, where `t_final`
    // is the last `t` a cold solve would center at: otherwise the warm run
    // can overshoot the gap tolerance by most of a `mu` factor and spend its
    // final centering at a much stiffer barrier than cold ever faces.
    // A near-optimal start also tolerates a more aggressive barrier
    // schedule: with most of the path already behind it, the damped Newton
    // phase after each `t`-jump is short, so fewer/longer outer steps win.
    // Squaring `mu` keeps the warm grid a subset of the cold grid.
    let wopts = BarrierOptions {
        mu: opts.mu * opts.mu,
        inexact_cap: Some(WARM_INEXACT_CAP),
        ..opts.clone()
    };
    let t0 = warm_t0(m, opts, wopts.mu);
    let run = barrier_from(
        &tp.objective,
        &tp.inequalities,
        &tp.eq_matrix,
        &y0,
        t0,
        &wopts,
        deadline,
        WARM_FAULT_KEY,
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
            let (y_feas, iters) = phase_one(tp, &y0, worst, 1.0, 1.0, opts, deadline, attempt)?;
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

/// The warm-start initial barrier weight: `m / WARM_GAP_START`, snapped down
/// onto the grid `t_final / warm_mu^j` so the warm schedule's last centering
/// lands on the same final `t` a cold solve reaches (see the comment in
/// [`warm_attempt`]).
fn warm_t0(m: usize, cold: &BarrierOptions, warm_mu: f64) -> f64 {
    if m == 0 {
        return 1.0;
    }
    let raw = (m as f64 / WARM_GAP_START).max(1.0);
    let lmu_cold = cold.mu.ln();
    let k_final = ((m as f64 / cold.gap_tol).ln() / lmu_cold).ceil().max(0.0);
    let t_final = cold.mu.powf(k_final);
    let lmu = warm_mu.ln();
    let j = ((t_final / raw).ln() / lmu).floor().max(0.0);
    (t_final / warm_mu.powf(j)).max(1.0)
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

/// Phase I: find strictly feasible `y` or certify infeasibility.
///
/// `s_margin` sets the slack start `s0 = worst + s_margin` and `t0` the
/// initial barrier weight on the slack objective; the cold path uses
/// `(1.0, 1.0)`, warm starts use tighter/heavier settings (see
/// [`WARM_PHASE1_MARGIN`], [`WARM_PHASE1_T0`]).
#[allow(clippy::too_many_arguments)]
fn phase_one(
    tp: &TransformedProblem,
    y0: &[f64],
    worst: f64,
    s_margin: f64,
    t0: f64,
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
    z0.push(worst + s_margin);

    let mut phase_opts = opts.clone();
    phase_opts.gap_tol = 1e-6;
    let run = barrier_with_early_exit(
        &objective,
        &ineqs,
        &eq,
        &z0,
        t0,
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

#[allow(clippy::too_many_arguments)]
fn barrier(
    objective: &LogSumExp,
    ineqs: &[LogSumExp],
    eq: &Matrix,
    y0: &[f64],
    opts: &BarrierOptions,
    deadline: &Deadline,
    fault_key: u64,
) -> Result<BarrierRun, GpError> {
    barrier_with_early_exit(
        objective, ineqs, eq, y0, 1.0, opts, None, deadline, fault_key,
    )
}

/// [`barrier`] opened at an elevated initial `t0` (warm starts).
#[allow(clippy::too_many_arguments)]
fn barrier_from(
    objective: &LogSumExp,
    ineqs: &[LogSumExp],
    eq: &Matrix,
    y0: &[f64],
    t0: f64,
    opts: &BarrierOptions,
    deadline: &Deadline,
    fault_key: u64,
) -> Result<BarrierRun, GpError> {
    barrier_with_early_exit(
        objective, ineqs, eq, y0, t0, opts, None, deadline, fault_key,
    )
}

/// The barrier loop. If `exit_below` is set, returns as soon as the
/// objective value drops below it (used by phase I). The returned
/// [`BarrierRun`] carries the Newton count of every centering step and the
/// duality-gap bound `m / t` after each one.
#[allow(clippy::too_many_arguments)]
fn barrier_with_early_exit(
    objective: &LogSumExp,
    ineqs: &[LogSumExp],
    eq: &Matrix,
    y0: &[f64],
    t0: f64,
    opts: &BarrierOptions,
    exit_below: Option<f64>,
    deadline: &Deadline,
    fault_key: u64,
) -> Result<BarrierRun, GpError> {
    let m = ineqs.len();
    let mut y = y0.to_vec();
    let mut total_iters = 0;
    let mut t = t0;
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
        // The final centering (the one that takes `m/t` under `gap_tol`) is
        // known before centering, since the gap bound depends only on `t`.
        let is_final = m == 0 || (m as f64) / t < opts.gap_tol;
        let step_opts = match opts.inexact_cap {
            Some(cap) if !is_final => {
                let mut o = opts.clone();
                o.max_newton_per_center = cap.min(opts.max_newton_per_center);
                o
            }
            _ => opts.clone(),
        };
        let iters = center(
            objective, ineqs, eq, &mut y, t, &step_opts, deadline, fault_key,
        )?;
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
