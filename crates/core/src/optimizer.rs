//! The end-to-end Thistle optimizer (Fig. 2 of the paper).
//!
//! For one workload, one objective, and one architecture mode:
//!
//! 1. enumerate pruned permutation-class pairs ([`thistle_model::perms`]);
//! 2. generate and solve one geometric program per pair (in parallel);
//! 3. integerize the best relaxed solutions — powers of two for co-designed
//!    capacities, hierarchical divisor rounding for tile sizes
//!    ([`crate::integerize`]);
//! 4. evaluate every surviving integer candidate with the timeloop-lite
//!    model (the referee) and return the best design point.

use crate::convert::to_problem_spec;
use crate::integerize::{closest_powers_of_two, cross_product_capped, dim_candidates, DimTiling};
use crate::ledger::FailureLedger;
use crate::report::SolveReport;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use thistle_arch::{ArchConfig, Bandwidths, TechnologyParams};
use thistle_gp::{
    content_fingerprint, Deadline, GpError, PhaseOnePoint, Solution, SolveOptions, SolveStatus,
};
use thistle_model::{
    ArchMode, ConvLayer, Dim, GeneratedGp, Level, Objective, PermPair, ProblemGenerator,
    RegisterCostModel, Workload,
};
use thistle_obs::{span, TraceCtx};
use timeloop_lite::{
    capacity_needs, compute_cycles, evaluate, ArchSpec, EvalResult, Mapping, ProblemSpec, Traffic,
};

/// Tuning knobs for the optimizer pipeline.
#[derive(Debug, Clone)]
pub struct OptimizerOptions {
    /// `n` of Section IV: candidates kept per variable when integerizing.
    pub candidates_per_var: usize,
    /// Cap on permutation-class pairs swept per workload (deterministic
    /// stride subsampling beyond this).
    pub max_perm_pairs: usize,
    /// Cap on integer candidate combinations per relaxed solution.
    pub candidate_limit: usize,
    /// How many of the best relaxed solutions to integerize. Solutions are
    /// ranked by `(relaxed objective, pair index)`, and every solution
    /// whose relaxed objective is at most the `top_solutions`-th one's
    /// times `1 + solve_options.gap_tolerance` is kept too: the solver
    /// promises no more accuracy than that, so a cut inside such a tie
    /// would be decided by rounding noise.
    pub top_solutions: usize,
    /// Worker threads for the GP sweep, rescore and a pipeline's layer
    /// solves; with one, the work runs inline on the caller's thread.
    pub threads: usize,
    /// GP solver settings.
    pub solve_options: SolveOptions,
    /// How register fills are charged in the GP objective (see
    /// [`RegisterCostModel`]).
    pub register_cost: RegisterCostModel,
    /// Whether kernel stencil dims may be distributed spatially across the
    /// PE grid (see [`thistle_model::TilingSpace::with_spatial_stencils`]).
    pub spatial_stencils: bool,
}

impl Default for OptimizerOptions {
    fn default() -> Self {
        OptimizerOptions {
            candidates_per_var: 3,
            max_perm_pairs: 288,
            candidate_limit: 4000,
            top_solutions: 24,
            threads: 8,
            solve_options: SolveOptions {
                gap_tolerance: 1e-6,
                ..SolveOptions::default()
            },
            register_cost: RegisterCostModel::default(),
            spatial_stencils: true,
        }
    }
}

/// A fully-resolved design: architecture, mapping, and the referee's verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPoint {
    /// Workload the design was optimized for.
    pub workload_name: String,
    /// Chosen architecture (the fixed one, or the integerized co-design).
    pub arch: ArchConfig,
    /// Chosen mapping on the three-level template.
    pub mapping: Mapping,
    /// timeloop-lite evaluation of (arch, mapping).
    pub eval: EvalResult,
    /// Best relaxed GP objective (a lower-bound estimate for energy;
    /// pre-integerization).
    pub relaxed_objective: f64,
    /// Relaxed optimum of the winning solve, indexed by the winning GP's
    /// variable registry (regenerating the GP with the same workload,
    /// permutations, objective, and mode reproduces that registry). A record
    /// of the solve, not an input to any later one. Empty when unknown
    /// (e.g. a transposed design).
    pub relaxed_point: thistle_expr::Assignment,
    /// PE-temporal permutation of the winning class.
    pub perm1: Vec<Dim>,
    /// Outer-level permutation of the winning class.
    pub perm3: Vec<Dim>,
    /// Sweep index of the winning permutation-class pair (stable across
    /// thread counts; lets callers correlate a winner with injected faults).
    pub perm_pair: usize,
    /// Permutation pairs that ended the sweep with a relaxed solution,
    /// duplicates included (64 on a typical layer, where only 16–25
    /// distinct GPs are actually solved; see `report.batch_classes`).
    pub gp_solves: usize,
    /// Integer candidates evaluated by the referee.
    pub candidates_evaluated: usize,
    /// Whether this design came from a degraded sweep: some permutation
    /// classes failed outright, or the winning solve itself finished with
    /// [`SolveStatus::Degraded`]. The ledger has the breakdown.
    pub degraded: bool,
    /// Per-cause failure and recovery counts for the whole sweep.
    pub ledger: FailureLedger,
    /// Convergence profile of the winning solve (Newton iterations per
    /// centering step, gap trajectory, recovery effort).
    pub report: SolveReport,
}

impl DesignPoint {
    /// The design's score under `objective`.
    pub fn score(&self, objective: Objective) -> f64 {
        objective_score(objective, self.eval.energy_pj, self.eval.cycles)
    }
}

/// Optimizer pipeline failures.
#[derive(Debug, Clone, PartialEq)]
pub enum OptimizeError {
    /// Every generated GP failed to solve. From the sweep, the message is
    /// its last failure in the order one thread meets them: generation
    /// panics in pair order, then `core.sweep.solve` gate failures in pair
    /// order, then group solve failures in group order. It is the same at
    /// any thread count.
    AllSolvesFailed(String),
    /// No integer candidate passed capacity/area filtering.
    NoFeasibleDesign,
    /// A pipeline-level operation was asked about an empty layer list.
    EmptyPipeline,
    /// A contained panic outside the sweep's own containment: a pipeline
    /// layer solve that panicked, or a serve pool worker that panicked
    /// mid-solve. The message carries the panic payload. The process
    /// survives — one solve fails, not the run.
    Internal(String),
    /// The caller's deadline expired or was cancelled mid-optimization.
    Cancelled,
}

impl fmt::Display for OptimizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptimizeError::AllSolvesFailed(e) => {
                write!(
                    f,
                    "no permutation class produced a solvable GP (last error: {e})"
                )
            }
            OptimizeError::NoFeasibleDesign => {
                write!(f, "no integer candidate satisfied the design constraints")
            }
            OptimizeError::EmptyPipeline => {
                write!(f, "the pipeline contains no layers")
            }
            OptimizeError::Internal(m) => {
                write!(f, "internal optimizer failure: {m}")
            }
            OptimizeError::Cancelled => {
                write!(f, "optimization cancelled by deadline")
            }
        }
    }
}

/// Best-effort text of a caught panic payload.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl std::error::Error for OptimizeError {}

/// Maps `f` over `0..n` on up to `threads` scoped threads and returns the
/// results in index order. Workers claim indices in order off one counter;
/// with one thread or one index the map runs inline. Every caller contains
/// its own panics, so one that escapes `f` re-raises here.
pub(crate) fn fan_out<T: Send>(threads: usize, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let threads = threads.min(n);
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    // The counter only hands out indices (hence `Relaxed`); results come
    // back through `join`.
    let next = AtomicUsize::new(0);
    let claim = || {
        let mut done = Vec::new();
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            if index >= n {
                return done;
            }
            done.push((index, f(index)));
        }
    };
    let mut done: Vec<(usize, T)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads).map(|_| scope.spawn(claim)).collect();
        workers
            .into_iter()
            .flat_map(|worker| {
                worker
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    });
    done.sort_unstable_by_key(|&(index, _)| index);
    done.into_iter().map(|(_, result)| result).collect()
}

/// One surviving relaxed solve from the permutation sweep. `pair_index` is
/// the stable sweep index (the sort key tiebreak); `group` is the sweep's
/// content group, shared by exactly the pairs whose GPs are byte-identical;
/// `status` records how the barrier solver finished so degraded winners stay
/// observable.
#[cfg_attr(test, derive(Clone))]
struct SweepSolution {
    objective: f64,
    pair_index: usize,
    group: usize,
    gp: GeneratedGp,
    point: thistle_expr::Assignment,
    status: SolveStatus,
    newton_iterations: usize,
    newton_per_center: Vec<u32>,
    gap_trajectory: Vec<f64>,
    recovery_attempts: u32,
    recovered_by: Option<String>,
}

impl SweepSolution {
    /// Pair `pair_index`'s solution: `sol`, the solve of its content
    /// `group`. Tallies the solve's recovery and status into `ledger` once
    /// per pair, exactly as if each duplicate had been solved on its own.
    fn new(
        pair_index: usize,
        group: usize,
        gp: GeneratedGp,
        sol: Solution,
        ledger: &mut FailureLedger,
    ) -> Self {
        if sol.recovery.recovered_by.is_some() {
            ledger.recovered += 1;
        }
        match sol.status {
            SolveStatus::Degraded => ledger.degraded_solves += 1,
            SolveStatus::Inaccurate => ledger.stalled_solves += 1,
            SolveStatus::Optimal => {}
        }
        SweepSolution {
            objective: sol.objective,
            pair_index,
            group,
            gp,
            point: sol.assignment,
            status: sol.status,
            newton_iterations: sol.newton_iterations,
            newton_per_center: sol.newton_per_center,
            gap_trajectory: sol.gap_trajectory,
            recovery_attempts: sol.recovery.attempts,
            recovered_by: sol.recovery.recovered_by.map(|r| r.to_string()),
        }
    }

    /// The winning solve's convergence profile (sweep-wide prefilter counts
    /// are patched in after rescoring).
    fn report(&self, workload: &Workload) -> SolveReport {
        SolveReport {
            workload: workload.name.clone(),
            status: self.status.to_string(),
            perm_pair: self.pair_index,
            newton_iterations: self.newton_iterations,
            newton_per_center: self.newton_per_center.clone(),
            gap_trajectory: self.gap_trajectory.clone(),
            recovery_attempts: self.recovery_attempts,
            recovered_by: self.recovered_by.clone(),
            prefiltered: 0,
            rejected_infeasible: 0,
            ..SolveReport::default()
        }
    }
}

/// What the sweep hands back to the selection tail.
struct SweepOutcome {
    solved: Vec<SweepSolution>,
    ledger: FailureLedger,
    /// The last failure's message (see [`OptimizeError::AllSolvesFailed`]).
    last_error: Option<String>,
    /// Distinct GP contents solved (one exact solve each).
    groups: u32,
    /// Pairs that entered deduplication (generated and past the solve gate).
    members: u32,
}

/// What one duplicate group's exact solve produced.
#[derive(Default)]
struct GroupSolve {
    /// The solution, and the position in the group of the member that
    /// produced it: that member and every later one share it.
    solution: Option<(usize, Solution)>,
    ledger: FailureLedger,
    /// The group's last failure message.
    error: Option<String>,
}

/// Tallies a failed solve into the ledger by error cause.
fn record_failure(ledger: &mut FailureLedger, e: &GpError) {
    match e {
        GpError::Infeasible => ledger.infeasible += 1,
        GpError::InvalidProblem(_) => ledger.invalid += 1,
        GpError::NumericalFailure(_) => ledger.numerical += 1,
        GpError::Cancelled => ledger.cancelled += 1,
    }
}

/// The Thistle optimizer.
///
/// # Examples
///
/// ```no_run
/// use thistle::Optimizer;
/// use thistle_arch::{ArchConfig, TechnologyParams};
/// use thistle_model::{ArchMode, ConvLayer, Objective};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let opt = Optimizer::new(TechnologyParams::cgo2022_45nm());
/// let layer = ConvLayer::new("conv3_1", 1, 128, 128, 28, 28, 3, 3, 1);
/// let point = opt.optimize_layer(
///     &layer,
///     Objective::Energy,
///     &ArchMode::Fixed(ArchConfig::eyeriss()),
/// )?;
/// println!("{:.2} pJ/MAC", point.eval.pj_per_mac);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Optimizer {
    tech: TechnologyParams,
    bandwidths: Bandwidths,
    options: OptimizerOptions,
}

impl Optimizer {
    /// Creates an optimizer with default options and bandwidths.
    pub fn new(tech: TechnologyParams) -> Self {
        Optimizer {
            tech,
            bandwidths: Bandwidths::default(),
            options: OptimizerOptions::default(),
        }
    }

    /// Replaces the per-level bandwidths used by the delay model.
    pub fn with_bandwidths(mut self, bandwidths: Bandwidths) -> Self {
        self.bandwidths = bandwidths;
        self
    }

    /// Replaces the pipeline options.
    pub fn with_options(mut self, options: OptimizerOptions) -> Self {
        self.options = options;
        self
    }

    /// The technology parameters in use.
    pub fn tech(&self) -> &TechnologyParams {
        &self.tech
    }

    /// The options in use.
    pub fn options(&self) -> &OptimizerOptions {
        &self.options
    }

    /// The per-level bandwidths in use.
    pub fn bandwidths(&self) -> &Bandwidths {
        &self.bandwidths
    }

    /// Optimizes a single conv layer.
    ///
    /// # Errors
    ///
    /// See [`Optimizer::optimize_workload`].
    pub fn optimize_layer(
        &self,
        layer: &ConvLayer,
        objective: Objective,
        mode: &ArchMode,
    ) -> Result<DesignPoint, OptimizeError> {
        self.optimize_workload(&layer.workload(), objective, mode)
    }

    /// [`Optimizer::optimize_layer`] with tracing (see
    /// [`Optimizer::optimize_workload_traced`]).
    pub fn optimize_layer_traced(
        &self,
        layer: &ConvLayer,
        objective: Objective,
        mode: &ArchMode,
        ctx: &TraceCtx,
    ) -> Result<DesignPoint, OptimizeError> {
        self.optimize_workload_traced(&layer.workload(), objective, mode, ctx)
    }

    /// [`Optimizer::optimize_layer_traced`] with cooperative cancellation:
    /// the deadline is polled between pipeline stages and inside every
    /// barrier solve, so an abandoned optimization stops within one Newton
    /// iteration and returns [`OptimizeError::Cancelled`].
    pub fn optimize_layer_deadline(
        &self,
        layer: &ConvLayer,
        objective: Objective,
        mode: &ArchMode,
        deadline: &Deadline,
        ctx: &TraceCtx,
    ) -> Result<DesignPoint, OptimizeError> {
        self.optimize_workload_deadline(&layer.workload(), objective, mode, deadline, ctx)
    }

    /// Runs the full pipeline for one workload.
    ///
    /// # Errors
    ///
    /// * [`OptimizeError::AllSolvesFailed`] if no permutation class yields a
    ///   solvable GP;
    /// * [`OptimizeError::NoFeasibleDesign`] if integerization finds no
    ///   candidate satisfying the constraints.
    pub fn optimize_workload(
        &self,
        workload: &Workload,
        objective: Objective,
        mode: &ArchMode,
    ) -> Result<DesignPoint, OptimizeError> {
        self.optimize_workload_traced(workload, objective, mode, &TraceCtx::disabled())
    }

    /// [`Optimizer::optimize_workload`] under an `"optimize_workload"` trace
    /// span, with nested spans for every pipeline stage: permutation
    /// enumeration (`perm_enum`), the parallel GP sweep (`gp_sweep` /
    /// per-pair `gp_solve` / `barrier_solve`), integerization
    /// (`integerize`), referee rescoring (`rescore`), and delay-mode spatial
    /// packing (`pack_spatial`).
    ///
    /// A disabled context makes this identical to
    /// [`Optimizer::optimize_workload`] at a cost of one branch per stage.
    pub fn optimize_workload_traced(
        &self,
        workload: &Workload,
        objective: Objective,
        mode: &ArchMode,
        ctx: &TraceCtx,
    ) -> Result<DesignPoint, OptimizeError> {
        self.optimize_workload_deadline(workload, objective, mode, &Deadline::none(), ctx)
    }

    /// [`Optimizer::optimize_workload_traced`] with cooperative
    /// cancellation (see [`Optimizer::optimize_layer_deadline`]).
    pub fn optimize_workload_deadline(
        &self,
        workload: &Workload,
        objective: Objective,
        mode: &ArchMode,
        deadline: &Deadline,
        ctx: &TraceCtx,
    ) -> Result<DesignPoint, OptimizeError> {
        let mut root = span!(ctx, "optimize_workload");
        if root.enabled() {
            root.set("workload", workload.name.as_str());
            root.set("objective", objective.to_string());
        }
        let result = self.optimize_workload_inner(workload, objective, mode, deadline, ctx);
        if root.enabled() {
            match &result {
                Ok(point) => {
                    root.set("feasible", true);
                    root.set("gp_solves", point.gp_solves);
                    root.set("candidates_evaluated", point.candidates_evaluated);
                    root.set("relaxed_objective", point.relaxed_objective);
                    root.set("score", point.score(objective));
                    root.set("degraded", point.degraded);
                    if point.ledger.recovered > 0 {
                        root.set("recovered_solves", point.ledger.recovered as usize);
                    }
                    if point.ledger.failed() > 0 {
                        root.set("failed_classes", point.ledger.failed() as usize);
                    }
                }
                Err(e) => {
                    root.set("feasible", false);
                    root.set("error", e.to_string());
                }
            }
        }
        result
    }

    /// Near-miss solve: optimizes `layer` from `donor`, a previously solved
    /// design point for the same layer shape at another batch size.
    ///
    /// Instead of sweeping every permutation-class pair, only the donor's
    /// winning pair is generated for `layer` and solved, with the same cold
    /// solve the sweep gives each pair. The one solution is integerized and
    /// referee-evaluated exactly like a sweep winner. The returned report
    /// marks the route ([`SolveReport::warm_started`]) and the Newton
    /// iterations saved relative to the donor's solve of the same pair
    /// ([`SolveReport::warm_newton_saved`]).
    ///
    /// # Errors
    ///
    /// Same surface as [`Optimizer::optimize_workload_deadline`]; a donor
    /// whose permutation pair cannot generate a GP for the new layer yields
    /// [`OptimizeError::AllSolvesFailed`].
    pub fn optimize_layer_near_miss_deadline(
        &self,
        layer: &ConvLayer,
        objective: Objective,
        mode: &ArchMode,
        donor: &DesignPoint,
        deadline: &Deadline,
        ctx: &TraceCtx,
    ) -> Result<DesignPoint, OptimizeError> {
        let workload = layer.workload();
        let mut root = span!(ctx, "optimize_near_miss");
        if root.enabled() {
            root.set("workload", workload.name.as_str());
            root.set("donor", donor.workload_name.as_str());
            root.set("perm_pair", donor.perm_pair);
        }

        let gp = self
            .generator(&workload)
            .generate(&donor.perm1, &donor.perm3, objective, mode)
            .map_err(|e| {
                OptimizeError::AllSolvesFailed(format!("near-miss generation failed: {e}"))
            })?;
        let sol = gp
            .problem
            .solve_cancellable(&self.options.solve_options, deadline, ctx, None)
            .map_err(|e| match e {
                GpError::Cancelled => OptimizeError::Cancelled,
                other => OptimizeError::AllSolvesFailed(other.to_string()),
            })?;
        let newton = sol.newton_iterations;
        if root.enabled() {
            root.set("warm_started", true);
            root.set("newton_iterations", newton);
        }

        let mut ledger = FailureLedger::default();
        let solution = SweepSolution::new(donor.perm_pair, 0, gp, sol, &mut ledger);
        let result = self.rescore_and_pick(
            &workload,
            objective,
            mode,
            std::slice::from_ref(&solution),
            1,
            ledger,
            deadline,
            ctx,
        );
        if root.enabled() {
            root.set("feasible", result.is_ok());
        }
        result.map(|mut point| {
            point.report.warm_started = true;
            // Saving relative to the donor's solve of the same pair; negative
            // when this solve worked harder.
            point.report.warm_newton_saved = donor.report.newton_iterations as i64 - newton as i64;
            point
        })
    }

    fn optimize_workload_inner(
        &self,
        workload: &Workload,
        objective: Objective,
        mode: &ArchMode,
        deadline: &Deadline,
        ctx: &TraceCtx,
    ) -> Result<DesignPoint, OptimizeError> {
        let generator = self.generator(workload);
        let (mut pairs, _) = generator.permutation_classes_traced(ctx);
        subsample(&mut pairs, self.options.max_perm_pairs);

        // The GP sweep over permutation classes. Each solution carries its
        // permutation-pair index so the final sort is a total order: results
        // are bit-identical for any thread count or scheduling.
        let mut sweep = span!(ctx, "gp_sweep", pairs = pairs.len());
        let SweepOutcome {
            mut solved,
            ledger,
            last_error,
            groups,
            members,
        } = self.sweep(&generator, &pairs, objective, mode, deadline, ctx);
        sweep.set("solved", solved.len());
        sweep.set("classes", groups as usize);
        sweep.set("batch_members", members as usize);
        drop(sweep);
        if deadline.expired() {
            return Err(OptimizeError::Cancelled);
        }
        if solved.is_empty() {
            let e = last_error.unwrap_or_else(|| "no classes generated".into());
            return Err(OptimizeError::AllSolvesFailed(e));
        }
        let gp_solves = solved.len();
        self.keep_top(&mut solved);
        let result = self.rescore_and_pick(
            workload, objective, mode, &solved, gp_solves, ledger, deadline, ctx,
        );
        result.map(|mut point| {
            point.report.batch_classes = groups;
            point.report.batch_members = members;
            point
        })
    }

    /// The problem generator for `workload` under these options.
    fn generator(&self, workload: &Workload) -> ProblemGenerator {
        ProblemGenerator::new(workload.clone(), self.tech.clone(), self.bandwidths.clone())
            .with_register_cost(self.options.register_cost)
            .with_spatial_stencils(self.options.spatial_stencils)
    }

    /// Ranks the sweep's solutions by `(objective, pair_index)`, a total
    /// order, and keeps the best `top_solutions` plus every solution tied
    /// with the last of them (see [`OptimizerOptions::top_solutions`]).
    fn keep_top(&self, solved: &mut Vec<SweepSolution>) {
        solved.sort_by(|a, b| {
            a.objective
                .total_cmp(&b.objective)
                .then(a.pair_index.cmp(&b.pair_index))
        });
        let top = self.options.top_solutions;
        if let Some(cut) = top.checked_sub(1).and_then(|last| solved.get(last)) {
            let tie = cut.objective * (1.0 + self.options.solve_options.gap_tolerance);
            let tied = solved.partition_point(|s| s.objective <= tie);
            solved.truncate(tied.max(top));
        }
    }

    /// The permutation sweep with exact-content deduplication.
    ///
    /// 1. Generate every pair's GP, fanned out over `options.threads`
    ///    ([`fan_out`]; `core.sweep.panic` fires per pair, keyed by its
    ///    sweep index).
    /// 2. Apply the per-pair `core.sweep.solve` gate, then group the
    ///    survivors by [`content_fingerprint`] in first-seen pair order.
    ///    Permutation pairs the upstream class pruner cannot collapse
    ///    routinely lower to byte-identical GPs (2.5–4× duplication on the
    ///    paper's layers).
    /// 3. Run phase I once, on the first group's GP, under a `phase_one`
    ///    span ([`thistle_gp::GpProblem::phase_one`]). A layer's GPs share
    ///    the rows phase I reads and its start, so every group's solve that
    ///    fingerprints the same starts phase II from this point, and returns
    ///    bit for bit what running phase I itself would (DESIGN.md §10).
    /// 4. Give each group one exact solve, fanned out the same way
    ///    ([`Optimizer::solve_duplicate_group`]); every member gets a clone
    ///    of the result. The solver is deterministic, so a clone is
    ///    bit-for-bit what solving the duplicate itself would produce.
    ///
    /// Every result is folded in pair or group order, so the solutions, the
    /// ledger and the last failure's message are the same at any thread
    /// count. See DESIGN.md §14.
    fn sweep(
        &self,
        generator: &ProblemGenerator,
        pairs: &[PermPair],
        objective: Objective,
        mode: &ArchMode,
        deadline: &Deadline,
        ctx: &TraceCtx,
    ) -> SweepOutcome {
        let threads = self.options.threads;
        let mut ledger = FailureLedger::default();
        let mut last_error = None;

        // Step 1: generate and fingerprint every pair's GP. A panicking
        // generation (model bug) fails this pair only; the sweep carries on
        // with the survivors. A pair the deadline skipped comes back `None`.
        let generated = fan_out(threads, pairs.len(), |pair_index| {
            let (p1, p3) = &pairs[pair_index];
            (!deadline.expired()).then(|| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    thistle_fault::panic_if("core.sweep.panic", pair_index as u64);
                    let gp = generator.generate(p1, p3, objective, mode).ok()?;
                    Some((content_fingerprint(&gp.problem), gp))
                }))
            })
        });
        let mut gen_map: Vec<Option<GeneratedGp>> = Vec::with_capacity(pairs.len());
        let mut fingerprints = Vec::with_capacity(pairs.len());
        for (pair_index, outcome) in generated.into_iter().enumerate() {
            gen_map.push(match outcome {
                Some(Ok(Some((fp, gp)))) => {
                    fingerprints.push((pair_index, fp));
                    Some(gp)
                }
                Some(Ok(None)) => {
                    ledger.generation_failures += 1;
                    None
                }
                Some(Err(payload)) => {
                    ledger.solver_panics += 1;
                    last_error = Some(format!(
                        "sweep worker panicked on pair {pair_index}: {}",
                        panic_message(payload)
                    ));
                    None
                }
                None => None,
            });
        }

        // Step 2: the solve gate fires once per pair, in pair order, so a
        // killed pair fails alone and its duplicates carry on. Survivors
        // group by content in first-seen order.
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut group_of: HashMap<(u64, u64), usize> = HashMap::new();
        let mut members = 0u32;
        for (pair_index, fp) in fingerprints {
            if thistle_fault::fire("core.sweep.solve", pair_index as u64) {
                ledger.numerical += 1;
                last_error = Some(
                    GpError::NumericalFailure("injected sweep solve failure".into()).to_string(),
                );
                continue;
            }
            members += 1;
            let next = groups.len();
            let g = *group_of.entry(fp).or_insert(next);
            if g == next {
                groups.push(Vec::new());
            }
            groups[g].push(pair_index);
        }

        // Step 3: phase I once. A solve whose own phase-I fingerprint does
        // not match the point runs phase I itself.
        let phase_one = groups.first().and_then(|group| {
            let mut span = span!(ctx, "phase_one", perm_pair = group[0]);
            let gp = gen_map[group[0]].as_ref().expect("generated member");
            let point = std::panic::catch_unwind(|| {
                gp.problem
                    .phase_one(&self.options.solve_options, deadline)
                    .ok()
            })
            .ok()
            .flatten();
            if span.enabled() {
                span.set("found", point.is_some());
                if let Some(point) = &point {
                    span.set("newton_iterations", point.newton_iterations());
                }
            }
            point
        });

        // Step 4: one exact solve per group.
        let solves = fan_out(threads, groups.len(), |g| {
            self.solve_duplicate_group(&groups[g], phase_one.as_ref(), &gen_map, deadline, ctx)
        });
        let mut solved = Vec::with_capacity(members as usize);
        for (g, (group, outcome)) in groups.iter().zip(solves).enumerate() {
            ledger.merge(&outcome.ledger);
            if outcome.error.is_some() {
                last_error = outcome.error;
            }
            if let Some((source, sol)) = outcome.solution {
                for &pair_index in &group[source..] {
                    let gp = gen_map[pair_index].take().expect("generated member");
                    let solution = SweepSolution::new(pair_index, g, gp, sol.clone(), &mut ledger);
                    solved.push(solution);
                }
            }
        }
        SweepOutcome {
            solved,
            ledger,
            last_error,
            groups: groups.len() as u32,
            members,
        }
    }

    /// Solves one duplicate group — members whose GPs are byte-identical —
    /// with one exact solve under a `batch_solve` span. The first member
    /// that solves becomes the source, and it and every later member get
    /// its solution. A panicking source solve (e.g. an injected kill) fails
    /// that member alone and promotes the next duplicate; a clean solver
    /// error is deterministic for identical bytes and is tallied once per
    /// remaining member without re-solving.
    fn solve_duplicate_group(
        &self,
        group: &[usize],
        phase_one: Option<&PhaseOnePoint>,
        gen_map: &[Option<GeneratedGp>],
        deadline: &Deadline,
        ctx: &TraceCtx,
    ) -> GroupSolve {
        let mut out = GroupSolve::default();
        let mut solve = span!(ctx, "batch_solve", members = group.len());
        for (attempt, &pair_index) in group.iter().enumerate() {
            if deadline.expired() {
                break;
            }
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut gp_span = span!(ctx, "gp_solve", perm_pair = pair_index);
                let result = gen_map[pair_index]
                    .as_ref()
                    .expect("generated member")
                    .problem
                    .solve_cancellable(&self.options.solve_options, deadline, ctx, phase_one);
                match &result {
                    Ok(sol) => {
                        if gp_span.enabled() {
                            gp_span.set("solved", true);
                            gp_span.set("objective", sol.objective);
                            gp_span.set("newton_iterations", sol.newton_iterations);
                        }
                    }
                    Err(_) => gp_span.set("solved", false),
                }
                result
            }));
            match outcome {
                Ok(Ok(sol)) => {
                    if solve.enabled() {
                        solve.set("source", pair_index);
                        solve.set("objective", sol.objective);
                    }
                    out.solution = Some((attempt, sol));
                    break;
                }
                Ok(Err(e)) => {
                    for _ in attempt..group.len() {
                        record_failure(&mut out.ledger, &e);
                    }
                    out.error = Some(e.to_string());
                    break;
                }
                Err(payload) => {
                    out.ledger.solver_panics += 1;
                    out.error = Some(format!(
                        "sweep worker panicked on pair {pair_index}: {}",
                        panic_message(payload)
                    ));
                }
            }
        }
        out
    }

    /// Integerizes and referee-evaluates a non-empty set of relaxed sweep
    /// solutions, returning the best surviving design point. Shared between
    /// the full permutation sweep and the near-miss route (which feeds
    /// exactly one solution, a group of one).
    ///
    /// The solutions are grouped by their sweep content group, and the
    /// groups, largest first, fan out over `options.threads` ([`fan_out`]).
    /// Each member of a group yields a [`RescoreOutcome`]
    /// ([`Optimizer::rescore_group`]). The outcomes are folded here in
    /// solution order, so the winner, the leaders and every count are
    /// identical at any thread count. A lower referee score wins, and an
    /// equal one goes to the lower pair index, so the winner does not depend
    /// on the relaxed order of tied solutions. A packed leader must beat the
    /// winner strictly.
    #[allow(clippy::too_many_arguments)]
    fn rescore_and_pick(
        &self,
        workload: &Workload,
        objective: Objective,
        mode: &ArchMode,
        solved: &[SweepSolution],
        gp_solves: usize,
        mut ledger: FailureLedger,
        deadline: &Deadline,
        ctx: &TraceCtx,
    ) -> Result<DesignPoint, OptimizeError> {
        let prob_spec = to_problem_spec(workload);
        // Per-candidate referee calls are too hot to trace individually; one
        // `rescore` span per solve carries the verdict totals instead.
        let mut rescore_span = span!(ctx, "rescore", solutions = solved.len());

        let groups = content_groups(solved);
        // A group the deadline skipped comes back `None`.
        let finished = fan_out(self.options.threads, groups.len(), |g| {
            (!deadline.expired()).then(|| {
                self.rescore_group(workload, &prob_spec, objective, solved, &groups[g], ctx)
            })
        });
        let mut work = RescoreWork::default();
        let mut outcomes = Vec::with_capacity(solved.len());
        for group in finished {
            let Some(group) = group else {
                return Err(OptimizeError::Cancelled);
            };
            work.traffic_counts += group.work.traffic_counts;
            work.pruned += group.work.pruned;
            outcomes.extend(group.members);
        }
        outcomes.sort_by_key(|&(index, _)| index);

        let mut counts = RescoreCounts::default();
        let mut best: Option<(usize, Scored)> = None;
        // Leaders kept aside for the delay-mode spatial packing pass.
        let mut leaders: Vec<(f64, (usize, ArchConfig, Mapping))> = Vec::new();
        for (index, outcome) in outcomes {
            match outcome {
                // A panicked solution contributes nothing but the count.
                None => ledger.integerize_panics += 1,
                Some(outcome) => {
                    counts.add(&outcome.counts);
                    if let Some(scored) = outcome.best {
                        let pair = solved[index].pair_index;
                        if best.as_ref().is_none_or(|(incumbent, b)| {
                            scored.score < b.score
                                || (scored.score == b.score && pair < solved[*incumbent].pair_index)
                        }) {
                            best = Some((index, scored));
                        }
                    }
                    for (score, (arch, mapping)) in outcome.leaders {
                        push_leader(&mut leaders, score, || (index, arch, mapping));
                    }
                }
            }
        }
        if rescore_span.enabled() {
            rescore_span.set("evaluated", counts.evaluated);
            rescore_span.set("rejected_area", counts.rejected_area);
            rescore_span.set("rejected_infeasible", counts.rejected_infeasible);
            rescore_span.set("prefiltered", counts.prefiltered);
            rescore_span.set("traffic_counts", work.traffic_counts);
            rescore_span.set("pruned", work.pruned);
        }
        drop(rescore_span);
        let mut candidates_evaluated = counts.evaluated as usize;

        // Delay-sensitive objectives only: the GP's PE allocation is a flat
        // direction of the relaxation, so per-dimension rounding can strand
        // PEs. Re-split the temporal/spatial factors of the leading
        // candidates to pack the PE array as fully as possible, and let the
        // referee re-judge.
        if !leaders.is_empty() {
            let mut pack_span = span!(ctx, "pack_spatial", leaders = leaders.len());
            let mut repacked = 0usize;
            for (_, (index, arch, mapping)) in leaders {
                // Fixed mode packs into the given array; co-design sets the
                // PE count itself, so the true limit is what the remaining
                // chip area affords at this register-file size.
                let pe_limit = match mode {
                    ArchMode::Fixed(a) => a.pe_count,
                    ArchMode::CoDesign(spec) => {
                        let per_pe = self.tech.area_register_um2 * arch.regs_per_pe as f64
                            + self.tech.area_mac_um2;
                        let available = spec.area_budget_um2
                            - self.tech.area_sram_word_um2 * arch.sram_words as f64;
                        ((available / per_pe).floor().max(1.0) as u64).min(spec.pe_range.1 as u64)
                    }
                };
                let Some(packed) = pack_spatial(&solved[index].gp.space, &mapping, pe_limit) else {
                    continue;
                };
                repacked += 1;
                let arch = match mode {
                    ArchMode::Fixed(a) => *a,
                    ArchMode::CoDesign(_) => {
                        ArchConfig::new(packed.pe_count(), arch.regs_per_pe, arch.sram_words)
                    }
                };
                let arch_spec =
                    ArchSpec::from_config("packed", &arch, &self.tech, self.bandwidths.clone());
                let Ok(eval) = evaluate(&prob_spec, &arch_spec, &packed) else {
                    continue;
                };
                let score = objective_score(objective, eval.energy_pj, eval.cycles);
                if best.as_ref().is_none_or(|(_, b)| score < b.score) {
                    best = Some((
                        index,
                        Scored {
                            score,
                            arch,
                            mapping: packed,
                            eval,
                        },
                    ));
                }
            }
            pack_span.set("repacked", repacked);
            candidates_evaluated += repacked;
        }

        let Some((index, winner)) = best else {
            return Err(OptimizeError::NoFeasibleDesign);
        };
        let sol = &solved[index];
        let mut report = sol.report(workload);
        report.prefiltered = counts.prefiltered;
        report.rejected_infeasible = counts.rejected_infeasible;
        Ok(DesignPoint {
            workload_name: workload.name.clone(),
            arch: winner.arch,
            mapping: winner.mapping,
            eval: winner.eval,
            relaxed_objective: solved[0].objective,
            relaxed_point: sol.point.clone(),
            perm1: sol.gp.perm1.clone(),
            perm3: sol.gp.perm3.clone(),
            perm_pair: sol.pair_index,
            gp_solves,
            candidates_evaluated,
            // A sweep that lost classes (or leaders) to contained failures
            // still answers, but the answer is marked degraded and carries
            // the full per-cause breakdown.
            degraded: matches!(sol.status, SolveStatus::Degraded) || ledger.failed() > 0,
            ledger,
            report,
        })
    }

    /// Integerizes and rescores one content group: solutions whose GPs are
    /// byte-identical, so they share one relaxed optimum and differ only in
    /// loop order. Every member gets exactly the verdicts, best and leaders
    /// it would get rescored alone, in solution order.
    ///
    /// Integerization and rescoring run over referee code paths that may
    /// panic on pathological candidates, so the group is contained: an
    /// injected `core.integerize.panic` fails its member alone, and a panic
    /// in the shared work fails every member still live.
    fn rescore_group(
        &self,
        workload: &Workload,
        prob_spec: &ProblemSpec,
        objective: Objective,
        solved: &[SweepSolution],
        group: &[usize],
        ctx: &TraceCtx,
    ) -> GroupOutcome {
        let live: Vec<usize> = group
            .iter()
            .copied()
            .filter(|&index| {
                std::panic::catch_unwind(|| {
                    thistle_fault::panic_if("core.integerize.panic", index as u64)
                })
                .is_ok()
            })
            .collect();
        let shared = if live.is_empty() {
            None
        } else {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.rescore_members(workload, prob_spec, objective, solved, group, &live, ctx)
            }))
            .ok()
        };
        let (outcomes, work) = shared.unwrap_or_default();
        let mut outcomes = outcomes.into_iter();
        let members = group
            .iter()
            .map(|&index| {
                let outcome = if live.contains(&index) {
                    outcomes.next()
                } else {
                    None
                };
                (index, outcome)
            })
            .collect();
        GroupOutcome { members, work }
    }

    /// The shared work of [`Optimizer::rescore_group`]: one outcome per
    /// `live` member, and the work it took. The integer space is built once.
    /// The area filter and the referee's verdict run once per combination
    /// and architecture choice, on member 0's mapping and without a count:
    /// validity, the capacity needs ([`capacity_needs`]) and the PEs used
    /// read no loop order, so its verdict serves all. A member whose leaders
    /// are full and whose last leader scores at most the combination's
    /// [`score_floor`] is settled without a score: no price of that
    /// candidate can place. Traffic is counted once per [`LoopOrderClasses`]
    /// class with a member still live, lazily, and priced once per class
    /// and choice; the other members' mappings are tiled only then. A
    /// mapping is cloned, and a full evaluation built, only for a member's
    /// new best; leaders clone the mapping. See DESIGN.md §14.
    #[allow(clippy::too_many_arguments)]
    fn rescore_members(
        &self,
        workload: &Workload,
        prob_spec: &ProblemSpec,
        objective: Objective,
        solved: &[SweepSolution],
        group: &[usize],
        live: &[usize],
        ctx: &TraceCtx,
    ) -> (Vec<RescoreOutcome>, RescoreWork) {
        let lead = &solved[live[0]];
        let space = {
            let mut int_span = span!(ctx, "integerize", solution = group[0]);
            let space = self.integer_space(workload, &lead.gp, &lead.point);
            if int_span.enabled() {
                int_span.set("members", group.len());
                int_span.set("combos", space.combos.len());
                int_span.set("arch_choices", space.arch_choices.len());
            }
            space
        };
        let keep_leaders = objective != Objective::Energy;
        let mut counts = RescoreCounts::default();
        let mut work = RescoreWork::default();
        let mut outs: Vec<RescoreOutcome> =
            live.iter().map(|_| RescoreOutcome::default()).collect();
        // Co-design overwrites each spec's PE count per combination; no other
        // field of the spec depends on it.
        let mut specs: Vec<ArchSpec> = space
            .arch_choices
            .iter()
            .map(|choice| {
                let arch = match *choice {
                    ArchChoice::Fixed(a) => a,
                    ArchChoice::CoDesign { regs, sram, .. } => ArchConfig::new(1, regs, sram),
                };
                ArchSpec::from_config("candidate", &arch, &self.tech, self.bandwidths.clone())
            })
            .collect();
        let mut mappings: Vec<Mapping> = live
            .iter()
            .map(|&index| base_mapping(workload, &solved[index].gp, &space.tiled))
            .collect();
        let mut classes = LoopOrderClasses::default();
        // Per class lead: its traffic, reset per combination, and that
        // traffic's score, reset per choice. Per member: whether the floor
        // settles it at the current choice.
        let mut counted = vec![None; live.len()];
        let mut scores: Vec<Option<f64>> = vec![None; live.len()];
        let mut settled = vec![false; live.len()];
        let macs = prob_spec.macs();
        for combo in &space.combos {
            set_tiling(&mut mappings[0], &space.tiled, combo);
            let mut all_tiled = mappings.len() == 1;
            let pes = mappings[0].pe_count();
            let (reg_need, sram_need) = capacity_needs(prob_spec, &mappings[0]);
            let mut valid = None;
            let floor = score_floor(objective, macs, pes);
            counted.fill(None);
            let mut combo_classes = None;
            for (choice, spec) in space.arch_choices.iter().zip(&mut specs) {
                let arch = match *choice {
                    ArchChoice::Fixed(a) => a,
                    // Use exactly as many PEs as the mapping occupies; reject
                    // over-budget combinations (paper's area filter).
                    ArchChoice::CoDesign {
                        regs,
                        sram,
                        area_budget,
                    } => {
                        let arch = ArchConfig::new(pes, regs, sram);
                        if arch.area_um2(&self.tech) <= area_budget {
                            spec.pe_count = pes;
                            arch
                        } else {
                            counts.rejected_area += 1;
                            continue;
                        }
                    }
                };
                counts.evaluated += 1;
                // Capacity prefilter: exactly the referee's first two
                // capacity checks, before paying for a count.
                if reg_need > arch.regs_per_pe || sram_need > arch.sram_words {
                    counts.rejected_infeasible += 1;
                    counts.prefiltered += 1;
                    continue;
                }
                // The rest of the referee's verdict, [`Traffic::fits`] on a
                // valid mapping: past the prefilter, only the PEs can fail.
                if pes > spec.pe_count
                    || !*valid.get_or_insert_with(|| mappings[0].validate(prob_spec).is_ok())
                {
                    counts.rejected_infeasible += 1;
                    continue;
                }
                if let Some(floor) = floor {
                    for (settled, out) in settled.iter_mut().zip(&outs) {
                        *settled = out.settled_by(floor);
                    }
                    let pruned = settled.iter().filter(|&&s| s).count();
                    work.pruned += pruned as u64;
                    if pruned == outs.len() {
                        continue;
                    }
                }
                if !all_tiled {
                    for mapping in &mut mappings[1..] {
                        set_tiling(mapping, &space.tiled, combo);
                    }
                    all_tiled = true;
                }
                let class_of: &[usize] = combo_classes.get_or_insert_with(|| classes.of(&mappings));
                scores.fill(None);
                for (m, out) in outs.iter_mut().enumerate() {
                    if settled[m] {
                        continue;
                    }
                    let lead = class_of[m];
                    let Ok(traffic) = counted[lead].get_or_insert_with(|| {
                        work.traffic_counts += 1;
                        Traffic::count(prob_spec, &mappings[lead])
                    }) else {
                        continue;
                    };
                    let score = *scores[lead].get_or_insert_with(|| {
                        objective_score(objective, traffic.energy_pj(spec), traffic.cycles(spec))
                    });
                    if keep_leaders {
                        push_leader(&mut out.leaders, score, || (arch, mappings[m].clone()));
                    }
                    if out.best.as_ref().is_none_or(|b| score < b.score) {
                        out.best = Some(Scored {
                            score,
                            arch,
                            mapping: mappings[m].clone(),
                            eval: traffic.evaluate(spec).expect("capacities were checked"),
                        });
                    }
                }
            }
        }
        for out in &mut outs {
            out.counts = counts.clone();
        }
        (outs, work)
    }

    /// One relaxed solution's integer design space: the capped tile-size
    /// combinations and the architecture choices each is paired with.
    fn integer_space(
        &self,
        workload: &Workload,
        gp: &GeneratedGp,
        point: &thistle_expr::Assignment,
    ) -> IntegerSpace {
        let n = self.options.candidates_per_var;
        let tiled = gp.space.variable_dims();

        // Hierarchical divisor candidates per dimension with free variables.
        let per_dim: Vec<Vec<DimTiling>> = tiled
            .iter()
            .map(|&d| {
                let r = trip_value(gp, point, Level::Register, d);
                let q = trip_value(gp, point, Level::PeTemporal, d);
                let p = trip_value(gp, point, Level::Spatial, d);
                let extent = workload.extent(d);
                if gp.space.trip(Level::PeTemporal, d).var().is_none() {
                    // Spatially-split stencil dim: the only freedom is the
                    // spatial share p; no temporal tiling at any level.
                    return crate::integerize::closest_divisors(extent, p, n)
                        .into_iter()
                        .map(|pv| DimTiling {
                            register: extent / pv,
                            pe: extent / pv,
                            sram: extent,
                            extent,
                        })
                        .collect();
                }
                dim_candidates(extent, (r, r * q, r * q * p), n)
            })
            .collect();
        let combos = cross_product_capped(&per_dim, self.options.candidate_limit);

        // Architecture candidates.
        let arch_choices: Vec<ArchChoice> = match gp.mode() {
            ArchMode::Fixed(a) => vec![ArchChoice::Fixed(*a)],
            ArchMode::CoDesign(spec) => {
                let av = gp.arch_vars.expect("co-design GPs carry arch vars");
                let regs = closest_powers_of_two(
                    point.get(av.regs),
                    n,
                    spec.regs_range.0 as u64,
                    spec.regs_range.1 as u64,
                );
                let srams = closest_powers_of_two(
                    point.get(av.sram),
                    n,
                    spec.sram_range.0 as u64,
                    spec.sram_range.1 as u64,
                );
                let mut choices = Vec::new();
                for &r in &regs {
                    for &s in &srams {
                        choices.push(ArchChoice::CoDesign {
                            regs: r,
                            sram: s,
                            area_budget: spec.area_budget_um2,
                        });
                    }
                }
                choices
            }
        };
        IntegerSpace {
            tiled,
            combos,
            arch_choices,
        }
    }
}

/// Candidates kept for the delay-mode spatial packing pass.
const LEADERS: usize = 24;

/// The tile-size combinations of one relaxed solution crossed with its
/// architecture choices, never materialized as pairs.
struct IntegerSpace {
    /// Dims with a free tiling variable, in the order of each combo.
    tiled: Vec<Dim>,
    /// Tile-size combinations after the rank-sum cap.
    combos: Vec<Vec<DimTiling>>,
    /// Architecture choices paired with each combination.
    arch_choices: Vec<ArchChoice>,
}

enum ArchChoice {
    Fixed(ArchConfig),
    CoDesign {
        regs: u64,
        sram: u64,
        area_budget: f64,
    },
}

/// A referee-scored integer candidate.
struct Scored {
    score: f64,
    arch: ArchConfig,
    mapping: Mapping,
    eval: EvalResult,
}

/// Candidate verdict counts of one relaxed solution (or, summed, of a
/// solve).
#[derive(Debug, Default, Clone, PartialEq)]
struct RescoreCounts {
    /// Candidates past the area filter.
    evaluated: u64,
    /// Co-design candidates dropped by the area filter.
    rejected_area: u64,
    /// Candidates over capacity: prefiltered, or refused by the referee.
    rejected_infeasible: u64,
    /// Candidates the capacity prefilter dropped before the referee.
    prefiltered: u64,
}

impl RescoreCounts {
    fn add(&mut self, other: &RescoreCounts) {
        self.evaluated += other.evaluated;
        self.rejected_area += other.rejected_area;
        self.rejected_infeasible += other.rejected_infeasible;
        self.prefiltered += other.prefiltered;
    }
}

/// What integerizing and rescoring one relaxed solution produced.
#[derive(Default)]
struct RescoreOutcome {
    /// The first candidate with the lowest score.
    best: Option<Scored>,
    /// Top-[`LEADERS`] candidates by score (delay-sensitive objectives
    /// only), ties in candidate order.
    leaders: Vec<(f64, (ArchConfig, Mapping))>,
    counts: RescoreCounts,
}

impl RescoreOutcome {
    /// Whether no candidate scoring at least `floor` can change this
    /// outcome: the leaders are full and the last scores at most `floor`.
    /// Such a candidate goes after the last leader, so it does not get in,
    /// and it cannot beat the best, which scores at most the last leader.
    fn settled_by(&self, floor: f64) -> bool {
        self.leaders
            .get(LEADERS - 1)
            .is_some_and(|&(last, _)| floor >= last)
    }
}

/// The work behind a rescore, beyond its verdict counts.
#[derive(Default)]
struct RescoreWork {
    /// [`Traffic::count`] calls: at most one per loop-order class of a tile
    /// combination, shared by its architecture choices.
    traffic_counts: u64,
    /// Member candidates the referee accepts that [`score_floor`] settled
    /// without a score.
    pruned: u64,
}

/// What rescoring one content group produced.
struct GroupOutcome {
    /// Each member's solution index and outcome, in solution order; `None`
    /// for a member that panicked.
    members: Vec<(usize, Option<RescoreOutcome>)>,
    work: RescoreWork,
}

/// The loop-order classes of a content group's members at one tile
/// combination. Their mappings share every factor, and the referee reads
/// only the order of the loops that exist (factor > 1), so members whose
/// mappings have the same loop orders ([`Mapping::same_loop_orders`]) count
/// the same traffic. Which loops exist depends only on which factors are 1,
/// so the classes are cached per unit-loop mask.
#[derive(Default)]
struct LoopOrderClasses {
    /// The current combination's mask: per PE-temporal, then per outer
    /// factor, whether its loop exists.
    mask: Vec<bool>,
    /// Per mask, each member's class lead: the first member in its class.
    cache: HashMap<Vec<bool>, Rc<[usize]>>,
}

impl LoopOrderClasses {
    /// Each member's class lead for the tile combination in `mappings`.
    fn of(&mut self, mappings: &[Mapping]) -> Rc<[usize]> {
        let first = &mappings[0];
        self.mask.clear();
        self.mask.extend(
            first
                .pe_temporal_factors
                .iter()
                .chain(&first.outer_factors)
                .map(|&f| f > 1),
        );
        if let Some(classes) = self.cache.get(self.mask.as_slice()) {
            return Rc::clone(classes);
        }
        let classes: Rc<[usize]> = (0..mappings.len())
            .map(|m| {
                (0..m)
                    .find(|&lead| mappings[lead].same_loop_orders(&mappings[m]))
                    .unwrap_or(m)
            })
            .collect();
        self.cache.insert(self.mask.clone(), Rc::clone(&classes));
        classes
    }
}

/// The solution indices of each content group, in solution order, largest
/// group first: it is the longest job. The sort is stable, so groups of
/// equal size keep solution order.
fn content_groups(solved: &[SweepSolution]) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (index, sol) in solved.iter().enumerate() {
        match groups.iter_mut().find(|g| solved[g[0]].group == sol.group) {
            Some(group) => group.push(index),
            None => groups.push(vec![index]),
        }
    }
    groups.sort_by_key(|group| std::cmp::Reverse(group.len()));
    groups
}

/// Inserts into a score-ordered list capped at [`LEADERS`] entries. A new
/// entry goes after every entry with an equal score, so the list is always
/// the head of a stable sort of everything offered; `make` runs only for an
/// entry that gets in.
fn push_leader<T>(leaders: &mut Vec<(f64, T)>, score: f64, make: impl FnOnce() -> T) {
    let at = leaders.partition_point(|(s, _)| s.total_cmp(&score).is_le());
    if at < LEADERS {
        leaders.insert(at, (score, make()));
        leaders.truncate(LEADERS);
    }
}

/// A floor on the score under `objective` of every candidate that uses `pes`
/// PEs, whatever its loop orders and architecture: for delay, the referee's
/// own compute cycles ([`compute_cycles`]), which its cycle count is a `max`
/// over. Energy and the energy-delay product have none that is cheaper than
/// a count.
fn score_floor(objective: Objective, macs: u64, pes: u64) -> Option<f64> {
    match objective {
        Objective::Delay => Some(compute_cycles(macs, pes)),
        Objective::Energy | Objective::EnergyDelayProduct => None,
    }
}

/// The score under `objective` (lower is better) of a candidate with this
/// referee energy and cycle count.
fn objective_score(objective: Objective, energy_pj: f64, cycles: f64) -> f64 {
    match objective {
        Objective::Energy => energy_pj,
        Objective::Delay => cycles,
        Objective::EnergyDelayProduct => energy_pj * cycles,
    }
}

/// The mapping every tile-size combination of `gp` starts from: the sweep's
/// loop orders, and dims without a free tiling variable run entirely at the
/// register level. [`set_tiling`] writes the rest.
fn base_mapping(workload: &Workload, gp: &GeneratedGp, tiled: &[Dim]) -> Mapping {
    let ndims = workload.dims.len();
    let mut mapping = Mapping {
        register_factors: vec![1; ndims],
        pe_temporal_factors: vec![1; ndims],
        pe_temporal_perm: full_perm(&gp.perm1, ndims),
        spatial_factors: vec![1; ndims],
        outer_factors: vec![1; ndims],
        outer_perm: full_perm(&gp.perm3, ndims),
    };
    for (d, spec) in workload.dims.iter().enumerate() {
        if !tiled.contains(&Dim(d)) {
            mapping.register_factors[d] = spec.extent;
        }
    }
    mapping
}

/// Overwrites all four factors of every tiled dim of `mapping` with one
/// tile-size combination.
fn set_tiling(mapping: &mut Mapping, tiled: &[Dim], combo: &[DimTiling]) {
    for (&d, tiling) in tiled.iter().zip(combo) {
        let (r, q, p, t) = tiling.factors();
        mapping.register_factors[d.index()] = r;
        mapping.pe_temporal_factors[d.index()] = q;
        mapping.spatial_factors[d.index()] = p;
        mapping.outer_factors[d.index()] = t;
    }
}

fn trip_value(gp: &GeneratedGp, point: &thistle_expr::Assignment, level: Level, d: Dim) -> f64 {
    match gp.space.trip(level, d) {
        thistle_model::TripCount::Variable(v) => point.get(v),
        thistle_model::TripCount::Fixed(c) => c,
    }
}

/// Extends a tiled-dims-only permutation to all dims (extra dims innermost;
/// their loops have factor 1 and do not exist).
fn full_perm(perm: &[Dim], ndims: usize) -> Vec<usize> {
    let mut out: Vec<usize> = perm.iter().map(|d| d.index()).collect();
    for d in 0..ndims {
        if !out.contains(&d) {
            out.push(d);
        }
    }
    out
}

/// Re-splits a mapping's per-dimension factor pools to maximize the spatial
/// PE product within `pe_limit`, holding tile sizes at the register/SRAM
/// boundaries fixed where the GP fixed them:
///
/// * dims with a free PE-temporal loop trade iterations between `q` and `p`
///   (the pool `q*p` is invariant);
/// * spatially-split stencil dims trade between the register extent and `p`
///   (`r*p` invariant);
/// * everything else is left untouched.
///
/// Returns `None` when no re-split changes the mapping.
fn pack_spatial(
    space: &thistle_model::TilingSpace,
    mapping: &Mapping,
    pe_limit: u64,
) -> Option<Mapping> {
    #[derive(Clone, Copy)]
    enum Pool {
        /// `q*p` pool (free PE-temporal loop).
        PeTemporal(u64),
        /// `r*p` pool (spatially-split stencil).
        Register(u64),
        /// No freedom.
        Fixed,
    }
    let ndims = mapping.register_factors.len();
    let pools: Vec<Pool> = (0..ndims)
        .map(|d| {
            let dim = Dim(d);
            if space.trip(Level::Spatial, dim).var().is_none() {
                Pool::Fixed
            } else if space.trip(Level::PeTemporal, dim).var().is_some() {
                Pool::PeTemporal(mapping.pe_temporal_factors[d] * mapping.spatial_factors[d])
            } else {
                Pool::Register(mapping.register_factors[d] * mapping.spatial_factors[d])
            }
        })
        .collect();

    // Options per dim: candidate spatial factors.
    let options: Vec<Vec<u64>> = pools
        .iter()
        .map(|pool| match *pool {
            Pool::Fixed => vec![1],
            Pool::PeTemporal(m) | Pool::Register(m) => crate::integerize::divisors(m),
        })
        .collect();

    // Branch-and-bound maximization of the spatial product within the limit.
    struct Packer<'a> {
        options: &'a [Vec<u64>],
        /// `suffix_max[d]`: product of the largest options from dim d onward.
        suffix_max: Vec<u64>,
        limit: u64,
        best: u64,
        choice: Vec<u64>,
        best_choice: Vec<u64>,
    }
    impl Packer<'_> {
        fn search(&mut self, dim: usize, product: u64) {
            if product.saturating_mul(self.suffix_max[dim]) <= self.best {
                return; // cannot beat the incumbent
            }
            if dim == self.options.len() {
                self.best = product;
                self.best_choice.clone_from(&self.choice);
                return;
            }
            for i in (0..self.options[dim].len()).rev() {
                let p = self.options[dim][i];
                let next = product.saturating_mul(p);
                if next > self.limit {
                    continue;
                }
                self.choice.push(p);
                self.search(dim + 1, next);
                self.choice.pop();
            }
        }
    }
    let mut suffix_max = vec![1u64; ndims + 1];
    for d in (0..ndims).rev() {
        suffix_max[d] =
            suffix_max[d + 1].saturating_mul(*options[d].iter().max().expect("nonempty"));
    }
    let mut packer = Packer {
        options: &options,
        suffix_max,
        limit: pe_limit,
        best: mapping.pe_count(), // must strictly improve
        choice: Vec::new(),
        best_choice: Vec::new(),
    };
    packer.search(0, 1);
    let best_choice = packer.best_choice;
    if best_choice.is_empty() {
        return None;
    }

    let mut packed = mapping.clone();
    for (d, (&p, pool)) in best_choice.iter().zip(&pools).enumerate() {
        match *pool {
            Pool::Fixed => {}
            Pool::PeTemporal(m) => {
                packed.spatial_factors[d] = p;
                packed.pe_temporal_factors[d] = m / p;
            }
            Pool::Register(m) => {
                packed.spatial_factors[d] = p;
                packed.register_factors[d] = m / p;
            }
        }
    }
    Some(packed)
}

/// Deterministic stride subsampling down to `limit` elements.
fn subsample<T>(items: &mut Vec<T>, limit: usize) {
    if items.len() <= limit || limit == 0 {
        return;
    }
    let keep_every = items.len() as f64 / limit as f64;
    let mut kept = 0usize;
    let mut next = 0.0f64;
    items.retain(|_| {
        let index = kept;
        kept += 1;
        if index as f64 >= next {
            next += keep_every;
            true
        } else {
            false
        }
    });
    items.truncate(limit);
}

#[cfg(test)]
mod tests {
    use super::*;
    use thistle_model::{matmul_workload, CoDesignSpec};

    fn quick_optimizer() -> Optimizer {
        Optimizer::new(TechnologyParams::cgo2022_45nm()).with_options(OptimizerOptions {
            max_perm_pairs: 16,
            candidate_limit: 600,
            top_solutions: 2,
            threads: 4,
            ..OptimizerOptions::default()
        })
    }

    #[test]
    fn matmul_on_eyeriss_finds_feasible_design() {
        let wl = matmul_workload(256, 256, 256);
        let opt = quick_optimizer();
        let point = opt
            .optimize_workload(
                &wl,
                Objective::Energy,
                &ArchMode::Fixed(ArchConfig::eyeriss()),
            )
            .unwrap();
        assert!(point.eval.pj_per_mac > 2.2);
        assert!(point.gp_solves > 0);
        assert!(point.candidates_evaluated > 0);
        // The winning solve's convergence report is populated.
        assert_eq!(point.report.workload, point.workload_name);
        assert_eq!(point.report.perm_pair, point.perm_pair);
        assert!(point.report.newton_iterations > 0);
        assert!(point.report.centering_steps() > 0);
        let per_center: usize = point
            .report
            .newton_per_center
            .iter()
            .map(|&n| n as usize)
            .sum();
        assert!(
            per_center > 0 && per_center <= point.report.newton_iterations,
            "phase-II per-center counts ({per_center}) are part of the total ({})",
            point.report.newton_iterations
        );
        assert!(point.report.final_gap().is_some_and(|g| g < 1e-5));
        // The integer design can never beat the relaxed bound by more than
        // the relaxation slack; sanity: same order of magnitude.
        assert!(point.eval.energy_pj >= point.relaxed_objective * 0.5);
    }

    #[test]
    fn conv_codesign_beats_eyeriss_energy() {
        let layer = ConvLayer::new("t", 1, 64, 64, 28, 28, 3, 3, 1);
        let opt = quick_optimizer();
        let eyeriss = opt
            .optimize_layer(
                &layer,
                Objective::Energy,
                &ArchMode::Fixed(ArchConfig::eyeriss()),
            )
            .unwrap();
        let spec = CoDesignSpec::same_area_as(&ArchConfig::eyeriss(), opt.tech());
        let codesign = opt
            .optimize_layer(&layer, Objective::Energy, &ArchMode::CoDesign(spec))
            .unwrap();
        assert!(
            codesign.eval.pj_per_mac < eyeriss.eval.pj_per_mac * 0.6,
            "co-design {} vs eyeriss {}",
            codesign.eval.pj_per_mac,
            eyeriss.eval.pj_per_mac
        );
        // Co-designed arch must respect the area budget.
        assert!(codesign.arch.area_um2(opt.tech()) <= ArchConfig::eyeriss().area_um2(opt.tech()));
    }

    #[test]
    fn delay_mode_reports_ipc() {
        let layer = ConvLayer::new("t", 1, 32, 32, 28, 28, 3, 3, 1);
        let opt = quick_optimizer();
        let point = opt
            .optimize_layer(
                &layer,
                Objective::Delay,
                &ArchMode::Fixed(ArchConfig::eyeriss()),
            )
            .unwrap();
        assert!(point.eval.ipc > 1.0, "ipc {}", point.eval.ipc);
        assert!(point.eval.ipc <= 168.0 + 1e-9);
    }

    #[test]
    fn near_miss_warm_start_answers_batch_variant() {
        let opt = quick_optimizer();
        let same_area = CoDesignSpec::same_area_as(&ArchConfig::eyeriss(), opt.tech());
        // Fixed Eyeriss, and co-design at Eyeriss area (the Fig. 5 setting).
        let eyeriss = ArchMode::Fixed(ArchConfig::eyeriss());
        for mode in [eyeriss, ArchMode::CoDesign(same_area)] {
            // Batch 2, not 1: the serve tier never routes a batch-1 donor.
            let donor_layer = ConvLayer::new("t", 2, 32, 32, 28, 28, 3, 3, 1);
            let donor = opt
                .optimize_layer(&donor_layer, Objective::Energy, &mode)
                .unwrap();

            let near_layer = ConvLayer::new("t", 4, 32, 32, 28, 28, 3, 3, 1);
            let near = opt
                .optimize_layer_near_miss_deadline(
                    &near_layer,
                    Objective::Energy,
                    &mode,
                    &donor,
                    &Deadline::none(),
                    &TraceCtx::disabled(),
                )
                .unwrap();

            // The near-miss answers the batch-4 problem, not the donor's.
            assert_eq!(near.eval.macs, donor.eval.macs * 2, "{mode:?}");
            assert_eq!(near.gp_solves, 1);
            assert_eq!(near.perm_pair, donor.perm_pair);

            // The near-miss is the sweep's solve of the donor's pair: a
            // standalone solve of that pair's GP for the batch-4 layer gives
            // the same relaxed objective and Newton count, bit for bit.
            assert!(near.report.warm_started, "{mode:?}");
            let standalone = ProblemGenerator::new(
                near_layer.workload(),
                opt.tech.clone(),
                opt.bandwidths.clone(),
            )
            .with_register_cost(opt.options.register_cost)
            .with_spatial_stencils(opt.options.spatial_stencils)
            .generate(&donor.perm1, &donor.perm3, Objective::Energy, &mode)
            .unwrap()
            .problem
            .solve(&opt.options.solve_options)
            .unwrap();
            assert_eq!(
                near.relaxed_objective.to_bits(),
                standalone.objective.to_bits(),
                "{mode:?}"
            );
            assert_eq!(
                near.report.newton_iterations, standalone.newton_iterations,
                "{mode:?}"
            );

            // Quality: close to a full sweep on the batch-4 layer (the
            // donor's permutation pair stays competitive across batch
            // sizes).
            let full = opt
                .optimize_layer(&near_layer, Objective::Energy, &mode)
                .unwrap();
            assert!(
                near.eval.energy_pj <= full.eval.energy_pj * 1.25,
                "{mode:?}: near-miss {} vs full sweep {}",
                near.eval.energy_pj,
                full.eval.energy_pj
            );
        }
    }

    /// Every relaxed solution of a full sweep, in sweep order.
    fn swept(
        opt: &Optimizer,
        workload: &Workload,
        objective: Objective,
        mode: &ArchMode,
    ) -> Vec<SweepSolution> {
        let generator = opt.generator(workload);
        let mut pairs = generator.permutation_classes();
        subsample(&mut pairs, opt.options.max_perm_pairs);
        let ctx = TraceCtx::disabled();
        let deadline = Deadline::none();
        opt.sweep(&generator, &pairs, objective, mode, &deadline, &ctx)
            .solved
    }

    /// The top relaxed solutions of a full sweep, as `rescore_and_pick`
    /// receives them.
    fn top_solutions(
        opt: &Optimizer,
        workload: &Workload,
        objective: Objective,
        mode: &ArchMode,
    ) -> Vec<SweepSolution> {
        let mut solved = swept(opt, workload, objective, mode);
        opt.keep_top(&mut solved);
        solved
    }

    /// The cut keeps whole ties: nudging every objective by one ulp, up on
    /// even pairs and down on odd ones or the other way round, reorders the
    /// tied solutions but keeps the same pairs. On fixed-Eyeriss delay the
    /// cut falls inside a tie.
    #[test]
    fn nudged_ties_keep_the_same_pairs() {
        let opt = Optimizer::new(TechnologyParams::cgo2022_45nm()).with_options(OptimizerOptions {
            top_solutions: 4,
            threads: 2,
            ..OptimizerOptions::default()
        });
        let workload = ConvLayer::new("t", 1, 16, 16, 18, 18, 3, 3, 1).workload();
        let mode = ArchMode::Fixed(ArchConfig::eyeriss());
        let all = swept(&opt, &workload, Objective::Delay, &mode);
        let kept = |mut solved: Vec<SweepSolution>| {
            opt.keep_top(&mut solved);
            let mut pairs: Vec<usize> = solved.iter().map(|s| s.pair_index).collect();
            pairs.sort_unstable();
            pairs
        };
        let clean = kept(all.clone());
        assert!(clean.len() > 4, "the cut splits no tie: {clean:?}");
        for up in [0, 1] {
            let nudged = all
                .iter()
                .cloned()
                .map(|mut s| {
                    let bits = s.objective.to_bits();
                    s.objective = f64::from_bits(if s.pair_index % 2 == up {
                        bits + 1
                    } else {
                        bits - 1
                    });
                    s
                })
                .collect();
            assert_eq!(kept(nudged), clean, "up on pairs = {up} mod 2");
        }
    }

    /// Two solutions of one content whose outcomes tie give the same winner
    /// in either relaxed order: the lower pair index.
    #[test]
    fn equal_scores_go_to_the_lower_pair_index() {
        let opt = quick_optimizer();
        let workload = ConvLayer::new("t", 1, 32, 64, 28, 28, 3, 3, 1).workload();
        let prob_spec = to_problem_spec(&workload);
        let ctx = TraceCtx::disabled();
        let mode = ArchMode::Fixed(ArchConfig::eyeriss());
        let objective = Objective::Energy;
        let solved = swept(&opt, &workload, objective, &mode);
        let best_score = |index: usize| {
            let alone =
                opt.rescore_group(&workload, &prob_spec, objective, &solved, &[index], &ctx);
            let outcome = alone.members[0].1.as_ref().unwrap();
            outcome.best.as_ref().map(|b| b.score.to_bits())
        };
        let (a, b) = (0..solved.len())
            .flat_map(|a| (a + 1..solved.len()).map(move |b| (a, b)))
            .find(|&(a, b)| {
                solved[a].group == solved[b].group
                    && solved[a].pair_index != solved[b].pair_index
                    && best_score(a).is_some()
                    && best_score(a) == best_score(b)
            })
            .expect("two members of one content tie");
        let pick = |order: [usize; 2]| {
            let pair = order.map(|i| solved[i].clone());
            opt.rescore_and_pick(
                &workload,
                objective,
                &mode,
                &pair,
                2,
                FailureLedger::default(),
                &Deadline::none(),
                &ctx,
            )
            .unwrap()
        };
        let (ab, ba) = (pick([a, b]), pick([b, a]));
        let lower = solved[a].pair_index.min(solved[b].pair_index);
        assert_eq!(ab.perm_pair, lower);
        assert_eq!(ab, ba);
    }

    /// Everything a member's outcome hands the fold, floats as bit patterns.
    fn outcome_bits(out: &RescoreOutcome) -> impl PartialEq + fmt::Debug {
        let best = out.best.as_ref().map(|b| {
            let bits = [b.score, b.eval.energy_pj, b.eval.cycles, b.eval.utilization];
            (
                bits.map(f64::to_bits),
                b.arch,
                b.mapping.clone(),
                b.eval.clone(),
            )
        });
        let leaders: Vec<_> = out
            .leaders
            .iter()
            .map(|(score, (arch, mapping))| (score.to_bits(), *arch, mapping.clone()))
            .collect();
        (best, leaders, out.counts.clone())
    }

    /// A content group rescored together gives every member exactly what it
    /// gets rescored alone, as a group of one, with fewer traffic counts.
    /// On this layer some members of one content score differently, so
    /// their loop-order classes really differ.
    #[test]
    fn rescore_group_equals_its_members_rescored_alone() {
        let opt = Optimizer::new(TechnologyParams::cgo2022_45nm()).with_options(OptimizerOptions {
            max_perm_pairs: 32,
            candidate_limit: 1000,
            top_solutions: 12,
            threads: 2,
            ..OptimizerOptions::default()
        });
        let workload = ConvLayer::new("t", 1, 32, 64, 28, 28, 3, 3, 1).workload();
        let prob_spec = to_problem_spec(&workload);
        let ctx = TraceCtx::disabled();
        let same_area = CoDesignSpec::same_area_as(&ArchConfig::eyeriss(), opt.tech());
        let scores = |out: &Option<RescoreOutcome>| {
            let out = out.as_ref().unwrap();
            let best = out.best.as_ref().map(|b| b.score.to_bits());
            (
                best,
                out.leaders
                    .iter()
                    .map(|(s, _)| s.to_bits())
                    .collect::<Vec<_>>(),
            )
        };
        let (mut fewer_counts, mut scores_differ) = (false, false);
        for mode in [
            ArchMode::Fixed(ArchConfig::eyeriss()),
            ArchMode::CoDesign(same_area),
        ] {
            for objective in [Objective::Energy, Objective::Delay] {
                let solved = top_solutions(&opt, &workload, objective, &mode);
                let groups = content_groups(&solved);
                let context = format!("{mode:?} {objective}");
                assert!(groups[0].len() > 1, "{context}: no duplicate group");
                let rescore = |group: &[usize]| {
                    opt.rescore_group(&workload, &prob_spec, objective, &solved, group, &ctx)
                };
                for group in &groups {
                    let together = rescore(group);
                    let mut alone_counts = 0;
                    for (index, outcome) in &together.members {
                        let alone = rescore(&[*index]);
                        alone_counts += alone.work.traffic_counts;
                        assert_eq!(
                            outcome_bits(outcome.as_ref().unwrap()),
                            outcome_bits(alone.members[0].1.as_ref().unwrap()),
                            "{context}: solution {index} of {group:?}"
                        );
                    }
                    assert!(together.work.traffic_counts <= alone_counts, "{context}");
                    fewer_counts |= together.work.traffic_counts < alone_counts;
                    scores_differ |= together
                        .members
                        .windows(2)
                        .any(|pair| scores(&pair[0].1) != scores(&pair[1].1));

                    // An injected panic fails its member alone; the others
                    // still get what they get alone (the clean group's
                    // outcomes, checked above). Keys 0 and 1 are left out:
                    // the other tests of this binary rescore two solutions
                    // and may run meanwhile.
                    #[cfg(feature = "fault-inject")]
                    for &k in group.iter().filter(|&&k| k >= 2 && group.len() > 1) {
                        let plan = format!("core.integerize.panic={k}");
                        let guard = thistle_fault::FaultPlan::parse(&plan).unwrap().install();
                        let faulted = rescore(group);
                        drop(guard);
                        for ((index, outcome), (_, clean)) in
                            faulted.members.iter().zip(&together.members)
                        {
                            assert_eq!(outcome.is_none(), *index == k, "{context} {plan}");
                            if let Some(outcome) = outcome {
                                assert_eq!(
                                    outcome_bits(outcome),
                                    outcome_bits(clean.as_ref().unwrap()),
                                    "{context} {plan}: solution {index}"
                                );
                            }
                        }
                    }
                }
            }
        }
        assert!(fewer_counts, "no group shared a traffic count");
        assert!(scores_differ, "no group's members scored differently");
    }

    /// The loop rescore must reproduce, written plainly: every combination
    /// and architecture choice, a full [`evaluate`] of the solution's own
    /// mapping for each candidate past the capacity prefilter, the best by
    /// strict `<` and the leaders by [`push_leader`]. It also checks that
    /// [`score_floor`] never exceeds a score. Returns the outcome, the
    /// referee calls it made and the scores equal to their floor.
    fn exhaustive_rescore(
        opt: &Optimizer,
        workload: &Workload,
        prob_spec: &ProblemSpec,
        objective: Objective,
        sol: &SweepSolution,
    ) -> (RescoreOutcome, u64, u64) {
        let space = opt.integer_space(workload, &sol.gp, &sol.point);
        let mut mapping = base_mapping(workload, &sol.gp, &space.tiled);
        let mut out = RescoreOutcome::default();
        let (mut referee_calls, mut at_floor) = (0, 0);
        for combo in &space.combos {
            set_tiling(&mut mapping, &space.tiled, combo);
            for choice in &space.arch_choices {
                let arch = match *choice {
                    ArchChoice::Fixed(a) => a,
                    ArchChoice::CoDesign {
                        regs,
                        sram,
                        area_budget,
                    } => {
                        let arch = ArchConfig::new(mapping.pe_count(), regs, sram);
                        if arch.area_um2(opt.tech()) > area_budget {
                            out.counts.rejected_area += 1;
                            continue;
                        }
                        arch
                    }
                };
                out.counts.evaluated += 1;
                let (reg_need, sram_need) = capacity_needs(prob_spec, &mapping);
                if reg_need > arch.regs_per_pe || sram_need > arch.sram_words {
                    out.counts.rejected_infeasible += 1;
                    out.counts.prefiltered += 1;
                    continue;
                }
                referee_calls += 1;
                let spec =
                    ArchSpec::from_config("candidate", &arch, opt.tech(), opt.bandwidths().clone());
                let Ok(eval) = evaluate(prob_spec, &spec, &mapping) else {
                    out.counts.rejected_infeasible += 1;
                    continue;
                };
                let score = objective_score(objective, eval.energy_pj, eval.cycles);
                if let Some(floor) = score_floor(objective, prob_spec.macs(), mapping.pe_count()) {
                    assert!(floor <= score, "floor {floor} above score {score}");
                    at_floor += u64::from(floor == score);
                }
                if objective != Objective::Energy {
                    push_leader(&mut out.leaders, score, || (arch, mapping.clone()));
                }
                if out.best.as_ref().is_none_or(|b| score < b.score) {
                    out.best = Some(Scored {
                        score,
                        arch,
                        mapping: mapping.clone(),
                        eval,
                    });
                }
            }
        }
        (out, referee_calls, at_floor)
    }

    /// Rescore, with its shared verdicts, loop-order classes and score
    /// floor, gives every member exactly what the exhaustive referee loop
    /// gives its solution, in its content group and alone. Where the floor
    /// bites (fixed Eyeriss, delay, full leader lists) a member alone counts
    /// traffic for fewer candidates than the loop calls the referee on, and
    /// the floor is tight: some scores equal it, so any higher floor would
    /// exceed them. Energy has no floor.
    #[test]
    fn rescore_equals_the_exhaustive_referee_loop() {
        // Holds off the fault plans other tests of this binary install.
        #[cfg(feature = "fault-inject")]
        let _guard = thistle_fault::FaultPlan::new().install();
        let opt = Optimizer::new(TechnologyParams::cgo2022_45nm()).with_options(OptimizerOptions {
            max_perm_pairs: 32,
            candidate_limit: 1000,
            top_solutions: 12,
            threads: 2,
            ..OptimizerOptions::default()
        });
        let workload = ConvLayer::new("t", 1, 32, 64, 28, 28, 3, 3, 1).workload();
        let prob_spec = to_problem_spec(&workload);
        let ctx = TraceCtx::disabled();
        let same_area = CoDesignSpec::same_area_as(&ArchConfig::eyeriss(), opt.tech());
        for mode in [
            ArchMode::Fixed(ArchConfig::eyeriss()),
            ArchMode::CoDesign(same_area),
        ] {
            for objective in [Objective::Energy, Objective::Delay] {
                let context = format!("{mode:?} {objective}");
                let solved = top_solutions(&opt, &workload, objective, &mode);
                let oracle: Vec<_> = solved
                    .iter()
                    .map(|sol| exhaustive_rescore(&opt, &workload, &prob_spec, objective, sol))
                    .collect();
                let rescore = |group: &[usize]| {
                    opt.rescore_group(&workload, &prob_spec, objective, &solved, group, &ctx)
                };
                let mut alone_work = RescoreWork::default();
                for group in content_groups(&solved) {
                    let together = rescore(&group);
                    for (index, outcome) in &together.members {
                        let expected = outcome_bits(&oracle[*index].0);
                        assert_eq!(
                            outcome_bits(outcome.as_ref().unwrap()),
                            expected,
                            "{context}: solution {index} of {group:?}"
                        );
                        let alone = rescore(&[*index]);
                        alone_work.traffic_counts += alone.work.traffic_counts;
                        alone_work.pruned += alone.work.pruned;
                        assert_eq!(
                            outcome_bits(alone.members[0].1.as_ref().unwrap()),
                            expected,
                            "{context}: solution {index} alone"
                        );
                    }
                }
                let referee_calls: u64 = oracle.iter().map(|(_, calls, _)| calls).sum();
                let at_floor: u64 = oracle.iter().map(|(.., at_floor)| at_floor).sum();
                match (&mode, objective) {
                    (_, Objective::Energy) => assert_eq!(alone_work.pruned, 0, "{context}"),
                    (ArchMode::Fixed(_), _) => {
                        assert!(at_floor > 0, "{context}: no score attains its floor");
                        assert!(
                            oracle.iter().all(|(out, ..)| out.leaders.len() == LEADERS),
                            "{context}: a leader list is not full"
                        );
                        assert!(alone_work.pruned > 0, "{context}");
                        assert!(
                            alone_work.traffic_counts < referee_calls,
                            "{context}: {} traffic counts for {referee_calls} referee calls",
                            alone_work.traffic_counts
                        );
                    }
                    _ => {}
                }
            }
        }
    }

    /// Classes are cached per unit-loop mask of both temporal levels. Two
    /// combinations with the same PE-temporal loops but different outer
    /// loops get classes of their own, whichever comes first.
    #[test]
    fn rescore_classes_are_cached_per_mask_of_both_levels() {
        let prob = timeloop_lite::problem::matmul(4, 4, 4);
        // Two members whose outer loops over i and j run in opposite orders.
        let mut members = [Mapping::untiled(&prob), Mapping::untiled(&prob)];
        members[1].outer_perm = vec![1, 0, 2];
        let mut classes = LoopOrderClasses::default();
        // Only i loops at the outer level: the orders agree.
        for m in &mut members {
            m.register_factors = vec![2, 4, 4];
            m.outer_factors = vec![2, 1, 1];
        }
        assert_eq!(*classes.of(&members), [0, 0]);
        // i and j loop there: they differ.
        for m in &mut members {
            m.register_factors = vec![2, 2, 4];
            m.outer_factors = vec![2, 2, 1];
        }
        assert_eq!(*classes.of(&members), [0, 1]);
    }

    #[test]
    fn subsample_is_deterministic_and_bounded() {
        let mut v: Vec<usize> = (0..100).collect();
        subsample(&mut v, 10);
        assert_eq!(v.len(), 10);
        let mut v2: Vec<usize> = (0..100).collect();
        subsample(&mut v2, 10);
        assert_eq!(v, v2);
        let mut small: Vec<usize> = (0..5).collect();
        subsample(&mut small, 10);
        assert_eq!(small.len(), 5);
    }

    #[test]
    fn bounded_leaders_are_the_head_of_a_stable_sort() {
        // Many ties, and more entries than the cap.
        let scores: Vec<f64> = (0..100).map(|i| ((i * 7) % 5) as f64).collect();
        let mut leaders = Vec::new();
        for (i, &score) in scores.iter().enumerate() {
            push_leader(&mut leaders, score, || i);
        }
        let mut reference: Vec<(f64, usize)> = scores.iter().copied().zip(0..).collect();
        reference.sort_by(|a, b| a.0.total_cmp(&b.0));
        reference.truncate(LEADERS);
        assert_eq!(leaders, reference);
    }

    #[test]
    fn full_perm_appends_missing_dims() {
        let perm = vec![Dim(5), Dim(1)];
        assert_eq!(full_perm(&perm, 7), vec![5, 1, 0, 2, 3, 4, 6]);
    }
}
