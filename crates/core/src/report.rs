//! Per-solve convergence introspection.
//!
//! A [`DesignPoint`](crate::DesignPoint) answers *what* design won; a
//! [`SolveReport`] answers *how hard the solver worked to find it*: Newton
//! iterations per centering step, the barrier duality-gap trajectory,
//! whether the recovery ladder fired, and what the rescore prefilter
//! rejected.
//! The serving layer retains recent reports for `GET /debug/solves/<id>`
//! and aggregates them into the integer-only [`ConvergenceRollup`] carried
//! by [`PipelineStats`](crate::PipelineStats).

/// Convergence and effort profile of the winning solve of one workload
/// optimization.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolveReport {
    /// Workload the report belongs to.
    pub workload: String,
    /// How the winning barrier solve finished (`optimal`, `degraded`, ...).
    pub status: String,
    /// Sweep index of the winning permutation-class pair.
    pub perm_pair: usize,
    /// Total Newton iterations of the winning solve (phase I + phase II).
    pub newton_iterations: usize,
    /// Phase-II Newton iterations per centering step, in order.
    pub newton_per_center: Vec<u32>,
    /// Barrier duality gap after each phase-II centering step.
    pub gap_trajectory: Vec<f64>,
    /// Solve attempts the recovery ladder consumed (1 = nominal attempt
    /// succeeded).
    pub recovery_attempts: u32,
    /// Name of the recovery rung that rescued the solve, if any.
    pub recovered_by: Option<String>,
    /// Integer candidates rejected by the capacity prefilter before
    /// reaching the referee (whole sweep).
    pub prefiltered: u64,
    /// Integer candidates the referee (or prefilter) found infeasible
    /// (whole sweep).
    pub rejected_infeasible: u64,
    /// Whether the design was answered by the near-miss route: only a
    /// same-family donor's permutation pair was solved, not the whole sweep
    /// (see `Optimizer::optimize_layer_near_miss_deadline`).
    pub warm_started: bool,
    /// Newton iterations of the donor's recorded solve of the same pair
    /// minus this solve's (negative when this solve worked harder; 0 off
    /// the near-miss route).
    pub warm_newton_saved: i64,
    /// Distinct GP contents the sweep solved, one exact solve each (0 on
    /// the near-miss route, which skips the sweep).
    pub batch_classes: u32,
    /// Permutation pairs that entered the sweep's deduplication: generated
    /// and not failed at the solve gate (0 on the near-miss route).
    pub batch_members: u32,
}

impl SolveReport {
    /// Number of phase-II centering steps of the winning solve.
    pub fn centering_steps(&self) -> usize {
        self.newton_per_center.len()
    }

    /// Final barrier duality gap, if phase II recorded any.
    pub fn final_gap(&self) -> Option<f64> {
        self.gap_trajectory.last().copied()
    }
}

/// Integer-only convergence totals across the unique solves of a pipeline
/// run.
///
/// Kept `Copy + Eq` (no floats, no vectors) so
/// [`PipelineStats`](crate::PipelineStats) stays `Copy + Eq`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConvergenceRollup {
    /// Total Newton iterations across winning solves.
    pub newton_iterations: u64,
    /// Total phase-II centering steps across winning solves.
    pub centering_steps: u64,
    /// Winning solves rescued by the recovery ladder.
    pub recovered_solves: u64,
    /// Candidates rejected by the capacity prefilter.
    pub prefiltered: u64,
}

impl ConvergenceRollup {
    /// Folds one solve's report into the totals.
    pub fn absorb(&mut self, report: &SolveReport) {
        self.newton_iterations += report.newton_iterations as u64;
        self.centering_steps += report.centering_steps() as u64;
        if report.recovered_by.is_some() {
            self.recovered_solves += 1;
        }
        self.prefiltered += report.prefiltered;
    }

    /// Adds another rollup's totals.
    pub fn merge(&mut self, other: &ConvergenceRollup) {
        self.newton_iterations += other.newton_iterations;
        self.centering_steps += other.centering_steps;
        self.recovered_solves += other.recovered_solves;
        self.prefiltered += other.prefiltered;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rollup_absorbs_reports() {
        let mut report = SolveReport {
            workload: "conv".into(),
            status: "optimal".into(),
            newton_iterations: 40,
            newton_per_center: vec![5, 4, 3],
            gap_trajectory: vec![1.0, 0.1, 1e-7],
            recovery_attempts: 2,
            recovered_by: Some("jitter".into()),
            prefiltered: 7,
            ..SolveReport::default()
        };
        assert_eq!(report.centering_steps(), 3);
        assert_eq!(report.final_gap(), Some(1e-7));

        let mut rollup = ConvergenceRollup::default();
        rollup.absorb(&report);
        report.recovered_by = None;
        rollup.absorb(&report);
        assert_eq!(rollup.newton_iterations, 80);
        assert_eq!(rollup.centering_steps, 6);
        assert_eq!(rollup.recovered_solves, 1);
        assert_eq!(rollup.prefiltered, 14);

        let mut other = ConvergenceRollup::default();
        other.merge(&rollup);
        other.merge(&rollup);
        assert_eq!(other.newton_iterations, 160);
    }
}
