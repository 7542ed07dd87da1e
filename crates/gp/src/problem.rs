//! User-facing geometric program builder.

use crate::deadline::Deadline;
use crate::solver::{
    phase_one_point, solve_transformed, BarrierOptions, GpError, PhaseOnePoint, Solution,
};
use crate::transform::{Fnv128, TransformedProblem};
use thistle_expr::{Assignment, Monomial, Posynomial, Var, VarRegistry};

/// Solver configuration exposed to callers.
///
/// The defaults converge to ~1e-8 relative accuracy on the problems in this
/// workspace; loosen `gap_tolerance` for speed when the result only seeds an
/// integerization search.
#[derive(Debug, Clone)]
pub struct SolveOptions {
    /// Target bound on the barrier duality gap (`m / t`).
    pub gap_tolerance: f64,
    /// Newton decrement threshold per centering step.
    pub newton_tolerance: f64,
    /// Cap on Newton iterations within one centering step.
    pub max_newton_iterations: usize,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            gap_tolerance: 1e-8,
            newton_tolerance: 1e-10,
            max_newton_iterations: 80,
        }
    }
}

/// The barrier method's settings for `options`.
fn barrier_options(options: &SolveOptions) -> BarrierOptions {
    BarrierOptions {
        gap_tol: options.gap_tolerance,
        newton_tol: options.newton_tolerance,
        max_newton_per_center: options.max_newton_iterations,
        ..BarrierOptions::default()
    }
}

/// A geometric program in standard form.
///
/// * objective: minimize a [`Posynomial`];
/// * inequality constraints: `posynomial <= monomial`
///   (stored as `posynomial / monomial <= 1`);
/// * equality constraints: `monomial == monomial`;
/// * optional box bounds on individual variables.
///
/// # Examples
///
/// See the [crate-level documentation](crate) for a complete example.
#[derive(Debug, Clone)]
pub struct GpProblem {
    registry: VarRegistry,
    objective: Option<Posynomial>,
    inequalities: Vec<Posynomial>,
    equalities: Vec<Monomial>,
}

impl GpProblem {
    /// Creates an empty problem over the variables of `registry`.
    pub fn new(registry: VarRegistry) -> Self {
        GpProblem {
            registry,
            objective: None,
            inequalities: Vec::new(),
            equalities: Vec::new(),
        }
    }

    /// The variable registry this problem was built over.
    pub fn registry(&self) -> &VarRegistry {
        &self.registry
    }

    /// Sets the posynomial objective to minimize.
    pub fn set_objective(&mut self, objective: Posynomial) -> &mut Self {
        self.objective = Some(objective);
        self
    }

    /// Adds the constraint `lhs <= rhs` where `rhs` is a monomial.
    pub fn add_le(&mut self, lhs: Posynomial, rhs: Monomial) -> &mut Self {
        self.inequalities.push(&lhs / &rhs);
        self
    }

    /// Adds the constraint `lhs == rhs` between two monomials.
    pub fn add_eq(&mut self, lhs: Monomial, rhs: Monomial) -> &mut Self {
        self.equalities.push(&lhs / &rhs);
        self
    }

    /// Constrains `lo <= v <= hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo` or `hi` is not positive and finite, or `lo > hi`.
    pub fn add_bounds(&mut self, v: Var, lo: f64, hi: f64) -> &mut Self {
        assert!(
            lo > 0.0 && hi.is_finite() && lo <= hi,
            "invalid bounds [{lo}, {hi}]"
        );
        // lo / v <= 1 and v / hi <= 1.
        self.inequalities
            .push(Posynomial::from(Monomial::new(lo, [(v, -1.0)])));
        self.inequalities
            .push(Posynomial::from(Monomial::new(1.0 / hi, [(v, 1.0)])));
        self
    }

    /// The objective posynomial, if one has been set.
    pub fn objective(&self) -> Option<&Posynomial> {
        self.objective.as_ref()
    }

    /// The inequality posynomials, each meaning `g(x) <= 1` (bounds
    /// included).
    pub fn inequalities(&self) -> &[Posynomial] {
        &self.inequalities
    }

    /// Number of inequality constraints (including bounds).
    pub fn num_inequalities(&self) -> usize {
        self.inequalities.len()
    }

    /// Number of monomial equality constraints.
    pub fn num_equalities(&self) -> usize {
        self.equalities.len()
    }

    /// The monomial equality constraints, each meaning `m(x) = 1`.
    pub fn equalities(&self) -> &[Monomial] {
        &self.equalities
    }

    /// Solves the program.
    ///
    /// # Errors
    ///
    /// * [`GpError::InvalidProblem`] if no objective has been set;
    /// * [`GpError::Infeasible`] if phase I certifies infeasibility;
    /// * [`GpError::NumericalFailure`] if the interior-point iteration breaks
    ///   down (ill-conditioned or unbounded problems).
    pub fn solve(&self, options: &SolveOptions) -> Result<Solution, GpError> {
        self.solve_with_ctx(
            options,
            &Deadline::none(),
            &thistle_obs::TraceCtx::disabled(),
            None,
        )
    }

    /// Runs phase I alone: the strictly feasible start a solve of this
    /// problem would reach before phase II, for
    /// [`GpProblem::solve_cancellable`] to share among problems with the same
    /// phase-I rows and start (see [`PhaseOnePoint`]).
    ///
    /// # Errors
    ///
    /// Those of [`GpProblem::solve`] that phase I can raise.
    pub fn phase_one(
        &self,
        options: &SolveOptions,
        deadline: &Deadline,
    ) -> Result<PhaseOnePoint, GpError> {
        let objective = self.objective_or_err()?;
        let tp = TransformedProblem::new(
            self.registry.len(),
            objective,
            &self.inequalities,
            &self.equalities,
        );
        let (rising, opts) = (tp.rising_columns(), barrier_options(options));
        phase_one_point(&tp, &rising, &opts, deadline, 0, false, None)
    }

    fn objective_or_err(&self) -> Result<&Posynomial, GpError> {
        self.objective
            .as_ref()
            .ok_or_else(|| GpError::InvalidProblem("no objective set".into()))
    }

    /// [`GpProblem::solve`] with trace context: the symbolic-to-CSR lowering
    /// is timed under an `"expr_compile"` span so compile cost shows up
    /// separately from the barrier iteration in stage histograms.
    fn solve_with_ctx(
        &self,
        options: &SolveOptions,
        deadline: &Deadline,
        ctx: &thistle_obs::TraceCtx,
        phase_one: Option<&PhaseOnePoint>,
    ) -> Result<Solution, GpError> {
        let objective = self.objective_or_err()?;
        let n = self.registry.len();
        let tp = {
            let mut span = ctx.span("expr_compile");
            let tp = TransformedProblem::new(n, objective, &self.inequalities, &self.equalities);
            if span.enabled() {
                span.set("vars", n);
                span.set("inequalities", self.inequalities.len());
            }
            tp
        };
        let raw = solve_transformed(&tp, &barrier_options(options), deadline, phase_one)?;
        let xs = tp.to_gp_point(&raw.y);
        let assignment = Assignment::from_values(xs);
        let objective_value = objective.eval(&assignment);
        Ok(Solution {
            assignment,
            objective: objective_value,
            status: raw.status,
            newton_iterations: raw.newton_iterations,
            newton_per_center: raw.newton_per_center,
            gap_trajectory: raw.gap_trajectory,
            recovery: raw.recovery,
        })
    }

    /// [`GpProblem::solve`] under a `"barrier_solve"` trace span carrying the
    /// problem size, convergence status, Newton iteration count, and the
    /// barrier duality-gap trajectory, with cooperative cancellation: the
    /// barrier loop polls `deadline` every Newton iteration and returns
    /// [`GpError::Cancelled`] once it expires, so an abandoned solve frees
    /// its thread within one iteration.
    ///
    /// `phase_one`, a point from [`GpProblem::phase_one`], stands in for the
    /// nominal attempt's phase I when it was computed from the same phase-I
    /// rows, start and options; the [`Solution`] is bit-identical either way,
    /// its `newton_iterations` included.
    pub fn solve_cancellable(
        &self,
        options: &SolveOptions,
        deadline: &Deadline,
        ctx: &thistle_obs::TraceCtx,
        phase_one: Option<&PhaseOnePoint>,
    ) -> Result<Solution, GpError> {
        let mut span = ctx.span("barrier_solve");
        if span.enabled() {
            span.set("vars", self.registry.len());
            span.set("inequalities", self.inequalities.len());
            span.set("equalities", self.equalities.len());
        }
        let result = self.solve_with_ctx(options, deadline, ctx, phase_one);
        if span.enabled() {
            match &result {
                Ok(sol) => {
                    span.set("status", sol.status.to_string());
                    span.set("newton_iterations", sol.newton_iterations);
                    span.set("centering_steps", sol.newton_per_center.len());
                    span.set("objective", sol.objective);
                    span.set("gap_trajectory", sol.gap_trajectory.clone());
                    if let Some(rung) = sol.recovery.recovered_by {
                        span.set("recovered_by", rung.to_string());
                        span.set("recovery_attempts", sol.recovery.attempts as usize);
                    }
                }
                Err(e) => span.set("status", format!("error: {e}")),
            }
        }
        result
    }

    /// Maximum relative violation of this problem's constraints at `point`
    /// (0 means feasible). Useful for validating integerized solutions.
    pub fn constraint_violation(&self, point: &Assignment) -> f64 {
        let mut worst: f64 = 0.0;
        for g in &self.inequalities {
            worst = worst.max(g.eval(point) - 1.0);
        }
        for m in &self.equalities {
            worst = worst.max((m.eval(point) - 1.0).abs());
        }
        worst
    }
}

/// The content fingerprint of a GP: a 128-bit hash over every coefficient
/// and exponent *bit pattern*, every variable index, and the exact term and
/// constraint order. Two problems with equal fingerprints are (modulo a
/// ~2^-128 collision) byte-identical inputs to the solver, and the solver is
/// deterministic, so their solutions are bit-identical. The optimizer's
/// sweep deduplicates on this: permutation pairs routinely lower to the
/// *same* GP (loop symmetries the class pruner cannot see), and one exact
/// solve serves every duplicate with perfect fidelity.
pub fn content_fingerprint(p: &GpProblem) -> (u64, u64) {
    let mut h = Fnv128::new();
    let put_posynomial = |h: &mut Fnv128, g: &Posynomial| {
        for (c, m) in g.terms() {
            h.put(c.to_bits());
            for (v, a) in m.powers() {
                h.put(v.index() as u64);
                h.put(a.to_bits());
            }
            h.put(u64::MAX); // term separator
        }
        h.put(u64::MAX - 1); // posynomial separator
    };
    h.put(p.registry().len() as u64);
    match p.objective() {
        Some(obj) => put_posynomial(&mut h, obj),
        None => h.put(u64::MAX - 3),
    }
    for g in p.inequalities() {
        put_posynomial(&mut h, g);
    }
    for m in p.equalities() {
        for (v, a) in m.powers() {
            h.put(v.index() as u64);
            h.put(a.to_bits());
        }
        h.put(u64::MAX - 2); // equality separator
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// min x + y s.t. x*y >= 16 and x <= 50*y (or the two constraints in
    /// the opposite order), with the coefficient of x given.
    fn fingerprinted(x_coeff: f64, swapped: bool) -> GpProblem {
        let mut reg = VarRegistry::new();
        let x = reg.var("x");
        let y = reg.var("y");
        let mut prob = GpProblem::new(reg);
        prob.set_objective(
            Posynomial::from(Monomial::new(x_coeff, [(x, 1.0)])) + Posynomial::from_var(y),
        );
        let product = Posynomial::from(Monomial::new(16.0, [(x, -1.0), (y, -1.0)]));
        let ratio = Posynomial::from(Monomial::new(0.02, [(x, 1.0), (y, -1.0)]));
        let (first, second) = if swapped {
            (ratio, product)
        } else {
            (product, ratio)
        };
        prob.add_le(first, Monomial::one());
        prob.add_le(second, Monomial::one());
        prob
    }

    #[test]
    fn identical_builds_fingerprint_equal() {
        assert_eq!(
            content_fingerprint(&fingerprinted(1.0, false)),
            content_fingerprint(&fingerprinted(1.0, false))
        );
    }

    #[test]
    fn one_ulp_coefficient_change_differs() {
        let nudged = f64::from_bits(1.0f64.to_bits() + 1);
        assert_ne!(
            content_fingerprint(&fingerprinted(1.0, false)),
            content_fingerprint(&fingerprinted(nudged, false))
        );
    }

    #[test]
    fn constraint_order_changes_the_fingerprint() {
        assert_ne!(
            content_fingerprint(&fingerprinted(1.0, false)),
            content_fingerprint(&fingerprinted(1.0, true))
        );
    }

    #[test]
    fn exponent_on_another_variable_differs() {
        // The same exponent value on a different variable index.
        let build = |on: usize| {
            let mut reg = VarRegistry::new();
            let vars = [reg.var("x"), reg.var("y")];
            let mut prob = GpProblem::new(reg);
            prob.set_objective(Posynomial::from(Monomial::new(1.0, [(vars[on], 2.0)])));
            prob
        };
        assert_ne!(
            content_fingerprint(&build(0)),
            content_fingerprint(&build(1))
        );
    }

    #[test]
    fn missing_objective_is_invalid() {
        let reg = VarRegistry::new();
        let prob = GpProblem::new(reg);
        let err = prob.solve(&SolveOptions::default()).unwrap_err();
        assert!(matches!(err, GpError::InvalidProblem(_)));
    }

    #[test]
    fn bounds_become_two_inequalities() {
        let mut reg = VarRegistry::new();
        let x = reg.var("x");
        let mut prob = GpProblem::new(reg);
        prob.add_bounds(x, 2.0, 8.0);
        assert_eq!(prob.num_inequalities(), 2);
    }

    #[test]
    fn bounds_clip_the_optimum() {
        let mut reg = VarRegistry::new();
        let x = reg.var("x");
        let mut prob = GpProblem::new(reg);
        // Unconstrained optimum of x + 1/x is 1; bounds force x >= 3.
        prob.set_objective(
            Posynomial::from_var(x) + Posynomial::from(Monomial::new(1.0, [(x, -1.0)])),
        );
        prob.add_bounds(x, 3.0, 100.0);
        let sol = prob.solve(&SolveOptions::default()).unwrap();
        assert!((sol.assignment.get(x) - 3.0).abs() < 1e-4);
        assert!(prob.constraint_violation(&sol.assignment) < 1e-6);
    }

    #[test]
    fn violation_detects_bad_points() {
        let mut reg = VarRegistry::new();
        let x = reg.var("x");
        let mut prob = GpProblem::new(reg);
        prob.set_objective(Posynomial::from_var(x));
        prob.add_bounds(x, 1.0, 2.0);
        let mut bad = Assignment::ones(1);
        bad.set(x, 4.0);
        assert!(prob.constraint_violation(&bad) > 0.9);
    }
}
