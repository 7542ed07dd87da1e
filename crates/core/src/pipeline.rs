//! Pipeline-level co-design: optimizing every stage of a DNN and deriving a
//! single shared architecture (the Fig. 6 / Fig. 8 experiments).
//!
//! The paper's protocol for a single accelerator serving all layers:
//! optimize each layer independently (layer-wise co-design), find the stage
//! that dominates the pipeline cost (most energy, or most delay), adopt
//! *its* architecture, and re-run dataflow-only optimization of every layer
//! on that fixed architecture.
//!
//! [`optimize_pipeline`] deduplicates before it solves: layers that
//! canonicalize to the same [`CanonicalQuery`] (same shape up to name and
//! h/w orientation, same objective/mode/solver config) share one full solve,
//! and the unique solves run in parallel. Real networks repeat layer shapes
//! heavily — ResNet-18's basic blocks reuse a handful of shapes across
//! ~17 convolutions — so this typically cuts end-to-end pipeline time by the
//! repetition factor on top of the parallel speedup.

use crate::canon::{transpose_design_hw, CanonicalQuery};
use crate::convert::to_problem_spec;
use crate::ledger::FailureLedger;
use crate::optimizer::{DesignPoint, OptimizeError, Optimizer};
use crate::report::ConvergenceRollup;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use thistle_arch::ArchConfig;
use thistle_model::{ArchMode, ConvLayer, Objective};
use thistle_obs::{span, TraceCtx};
use timeloop_lite::{evaluate_traced, ArchSpec};

/// Solve-sharing and degradation statistics of one [`optimize_pipeline`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Layers submitted to the pipeline.
    pub layers_submitted: usize,
    /// Full optimizer solves actually performed (one per canonical shape).
    pub unique_solves: usize,
    /// Layers served from another layer's solve (rename or h/w transpose).
    pub reused: usize,
    /// Layers whose design point is marked degraded (counted after solve
    /// sharing, so a degraded shared solve counts once per layer using it).
    pub degraded_layers: usize,
    /// Failure/recovery counters merged across the *unique* solves (shared
    /// solves are not double-counted).
    pub ledger: FailureLedger,
    /// Convergence totals (Newton iterations, centering steps, recovered
    /// solves, prefiltered candidates) across the unique solves' winning
    /// reports.
    pub convergence: ConvergenceRollup,
}

/// Per-layer results of a pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineResult {
    /// One design point per layer, in input order.
    pub layers: Vec<DesignPoint>,
    /// How many solves were shared across layers.
    pub stats: PipelineStats,
}

impl PipelineResult {
    /// Index of the dominant layer: the one with the largest total cost
    /// under `objective` (energy in pJ, or delay in cycles).
    ///
    /// # Errors
    ///
    /// [`OptimizeError::EmptyPipeline`] if the result holds no layers.
    pub fn dominant_layer(&self, objective: Objective) -> Result<usize, OptimizeError> {
        let cost = |p: &DesignPoint| p.score(objective);
        self.layers
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| cost(a).total_cmp(&cost(b)))
            .map(|(i, _)| i)
            .ok_or(OptimizeError::EmptyPipeline)
    }

    /// Total cost across all layers under `objective`.
    pub fn total(&self, objective: Objective) -> f64 {
        self.layers.iter().map(|p| p.score(objective)).sum()
    }
}

/// Optimizes every layer of a pipeline under `mode`, sharing solves between
/// layers with equal canonical shapes and running the unique solves in
/// parallel.
///
/// A layer equal to an earlier one up to renaming reuses that layer's design
/// point verbatim; a layer equal up to the h/w axis swap reuses it with the
/// mapping transposed and the referee re-run on the layer's own workload.
/// Every returned design point carries its own layer's name, and totals are
/// identical to a sequential layer-by-layer run.
///
/// # Errors
///
/// Propagates the first (in input order) layer-level [`OptimizeError`].
pub fn optimize_pipeline(
    optimizer: &Optimizer,
    layers: &[ConvLayer],
    objective: Objective,
    mode: &ArchMode,
) -> Result<PipelineResult, OptimizeError> {
    optimize_pipeline_traced(optimizer, layers, objective, mode, &TraceCtx::disabled())
}

/// [`optimize_pipeline`] under a `"pipeline"` trace span carrying the
/// solve-sharing statistics; each unique solve nests a full
/// `optimize_workload` span tree (on its worker thread's timeline).
pub fn optimize_pipeline_traced(
    optimizer: &Optimizer,
    layers: &[ConvLayer],
    objective: Objective,
    mode: &ArchMode,
    ctx: &TraceCtx,
) -> Result<PipelineResult, OptimizeError> {
    let mut span = span!(ctx, "pipeline", layers = layers.len());
    let result = optimize_pipeline_inner(optimizer, layers, objective, mode, ctx);
    if span.enabled() {
        match &result {
            Ok(r) => {
                span.set("unique_solves", r.stats.unique_solves);
                span.set("reused", r.stats.reused);
                if r.stats.degraded_layers > 0 {
                    span.set("degraded_layers", r.stats.degraded_layers);
                    span.set("sweep_failures", r.stats.ledger.failed());
                }
            }
            Err(e) => span.set("error", e.to_string()),
        }
    }
    result
}

fn optimize_pipeline_inner(
    optimizer: &Optimizer,
    layers: &[ConvLayer],
    objective: Objective,
    mode: &ArchMode,
    ctx: &TraceCtx,
) -> Result<PipelineResult, OptimizeError> {
    // Group layers by canonical query; the first member of each group is the
    // representative and is solved in its *own* orientation, so same-shape
    // duplicates get bit-identical results to a sequential run.
    let mut group_of: HashMap<CanonicalQuery, usize> = HashMap::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut swapped = vec![false; layers.len()];
    for (i, layer) in layers.iter().enumerate() {
        let (query, swap) = CanonicalQuery::new(optimizer, layer, objective, mode);
        swapped[i] = swap;
        match group_of.entry(query) {
            std::collections::hash_map::Entry::Occupied(e) => groups[*e.get()].push(i),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(groups.len());
                groups.push(vec![i]);
            }
        }
    }

    // Solve one representative per group, fanned across worker threads.
    let representatives: Vec<usize> = groups.iter().map(|g| g[0]).collect();
    let solves: Mutex<Vec<Option<Result<DesignPoint, OptimizeError>>>> =
        Mutex::new(vec![None; representatives.len()]);
    let next = AtomicUsize::new(0);
    let workers = optimizer
        .options()
        .threads
        .max(1)
        .min(representatives.len().max(1));
    crossbeam::scope(|scope| {
        for _ in 0..workers {
            let solves = &solves;
            let next = &next;
            let representatives = &representatives;
            scope.spawn(move |_| loop {
                let slot = next.fetch_add(1, Ordering::Relaxed);
                if slot >= representatives.len() {
                    break;
                }
                // Contain a panicking layer solve to its own slot so the
                // other layers still resolve (or report their own errors).
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    optimizer.optimize_layer_traced(
                        &layers[representatives[slot]],
                        objective,
                        mode,
                        ctx,
                    )
                }))
                .unwrap_or_else(|payload| {
                    Err(OptimizeError::Internal(format!(
                        "layer solve panicked: {}",
                        crate::optimizer::panic_message(payload)
                    )))
                });
                solves.lock().expect("solve slots lock")[slot] = Some(result);
            });
        }
    })
    .map_err(|p| {
        OptimizeError::Internal(format!(
            "pipeline worker died: {}",
            crate::optimizer::panic_message(p)
        ))
    })?;
    let solves = solves.into_inner().expect("solve slots lock");

    // Propagate the earliest failure in input order, matching the sequential
    // contract.
    let mut by_group: Vec<&DesignPoint> = Vec::with_capacity(groups.len());
    let mut first_error: Option<(usize, OptimizeError)> = None;
    for (group, result) in solves.iter().enumerate() {
        match result.as_ref().expect("every slot solved") {
            Ok(point) => by_group.push(point),
            Err(e) => {
                let layer_index = representatives[group];
                if first_error.as_ref().is_none_or(|(i, _)| layer_index < *i) {
                    first_error = Some((layer_index, e.clone()));
                }
            }
        }
    }
    if let Some((_, e)) = first_error {
        return Err(e);
    }

    // Merge failure accounting across the unique solves before expansion so
    // shared solves are counted once.
    let mut ledger = FailureLedger::default();
    let mut convergence = ConvergenceRollup::default();
    for point in &by_group {
        ledger.merge(&point.ledger);
        convergence.absorb(&point.report);
    }

    // Expand group results back to per-layer design points.
    let mut out: Vec<Option<DesignPoint>> = (0..layers.len()).map(|_| None).collect();
    let mut reused = 0usize;
    for (group, members) in groups.iter().enumerate() {
        let representative = members[0];
        let solved = by_group[group];
        for &i in members {
            let mut point = if swapped[i] == swapped[representative] {
                solved.clone()
            } else {
                reoriented_for(optimizer, solved, &layers[i], ctx)
            };
            if i != representative {
                reused += 1;
            }
            point.workload_name = layers[i].name.clone();
            out[i] = Some(point);
        }
    }
    let resolved: Vec<DesignPoint> = out
        .into_iter()
        .map(|p| p.expect("every layer assigned"))
        .collect();
    let degraded_layers = resolved.iter().filter(|p| p.degraded).count();
    Ok(PipelineResult {
        layers: resolved,
        stats: PipelineStats {
            layers_submitted: layers.len(),
            unique_solves: groups.len(),
            reused,
            degraded_layers,
            ledger,
            convergence,
        },
    })
}

/// Adapts a design point solved for the h/w-transposed twin of `layer`:
/// transposes the mapping and re-runs the referee on `layer`'s own workload
/// so the evaluation is exact rather than inferred from symmetry.
fn reoriented_for(
    optimizer: &Optimizer,
    solved: &DesignPoint,
    layer: &ConvLayer,
    ctx: &TraceCtx,
) -> DesignPoint {
    let mut point = transpose_design_hw(solved);
    let workload = layer.workload();
    let prob = to_problem_spec(&workload);
    let arch_spec = ArchSpec::from_config(
        "reused",
        &point.arch,
        optimizer.tech(),
        optimizer.bandwidths().clone(),
    );
    if let Ok(eval) = evaluate_traced(&prob, &arch_spec, &point.mapping, ctx) {
        point.eval = eval;
    }
    point
}

/// The paper's single-architecture protocol: layer-wise co-design, then
/// dataflow-only re-optimization of all layers on the dominant layer's
/// architecture.
///
/// Returns `(layer-wise results, chosen architecture, fixed-architecture
/// results)`. Each phase runs under its own `"pipeline"` span of `ctx`.
///
/// # Errors
///
/// Propagates layer-level failures from either phase, and
/// [`OptimizeError::EmptyPipeline`] for an empty layer list.
pub fn single_architecture_for_pipeline(
    optimizer: &Optimizer,
    layers: &[ConvLayer],
    objective: Objective,
    codesign: &ArchMode,
    ctx: &TraceCtx,
) -> Result<(PipelineResult, ArchConfig, PipelineResult), OptimizeError> {
    let layerwise = optimize_pipeline_traced(optimizer, layers, objective, codesign, ctx)?;
    let dominant = layerwise.dominant_layer(objective)?;
    let shared_arch =
        repair_architecture_for_layers(optimizer, layers, layerwise.layers[dominant].arch);
    let fixed = optimize_pipeline_traced(
        optimizer,
        layers,
        objective,
        &ArchMode::Fixed(shared_arch),
        ctx,
    )?;
    Ok((layerwise, shared_arch, fixed))
}

/// Makes an architecture chosen for one layer feasible for a whole layer
/// set.
///
/// The dominant layer's architecture may be infeasible for other stages —
/// e.g. a 1x1-kernel stage co-designs a register file too small for 3x3
/// kernels' halos. Repair: raise the register capacity to the largest
/// per-layer minimum (rounded up to a power of two), shedding PEs if the
/// larger register files overflow the architecture's original chip area.
pub fn repair_architecture_for_layers(
    optimizer: &Optimizer,
    layers: &[ConvLayer],
    mut arch: ArchConfig,
) -> ArchConfig {
    let tech = optimizer.tech();
    let budget = arch.area_um2(tech);
    // The minimum depends only on the layer shape (symbolic footprint at all
    // trip counts one); real networks repeat shapes heavily, so share one
    // model build per distinct shape.
    /// A layer's shape signature: every field of [`ConvLayer`] but the name.
    type ShapeKey = (u64, u64, u64, u64, u64, u64, u64, u64, u64);
    let mut per_shape: HashMap<ShapeKey, f64> = HashMap::new();
    let needed = layers
        .iter()
        .map(|l| {
            *per_shape
                .entry((
                    l.batch,
                    l.out_channels,
                    l.in_channels,
                    l.in_h,
                    l.in_w,
                    l.kernel_h,
                    l.kernel_w,
                    l.stride,
                    l.dilation,
                ))
                .or_insert_with(|| {
                    thistle_model::problem_gen::min_register_capacity(&l.workload(), true)
                })
        })
        .fold(1.0f64, f64::max);
    if (arch.regs_per_pe as f64) < needed {
        arch.regs_per_pe = (needed.ceil() as u64).next_power_of_two();
        let per_pe = tech.area_register_um2 * arch.regs_per_pe as f64 + tech.area_mac_um2;
        let available = budget - tech.area_sram_word_um2 * arch.sram_words as f64;
        arch.pe_count = arch
            .pe_count
            .min((available / per_pe).floor() as u64)
            .max(1);
    }
    arch
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::OptimizerOptions;
    use std::sync::Arc;
    use thistle_arch::TechnologyParams;
    use thistle_model::CoDesignSpec;
    use thistle_obs::{CollectingSink, Record};

    fn tiny_layers() -> Vec<ConvLayer> {
        vec![
            ConvLayer::new("a", 1, 16, 16, 18, 18, 3, 3, 1),
            ConvLayer::new("b", 1, 64, 32, 10, 10, 3, 3, 1),
        ]
    }

    fn quick_optimizer() -> Optimizer {
        Optimizer::new(TechnologyParams::cgo2022_45nm()).with_options(OptimizerOptions {
            max_perm_pairs: 9,
            candidate_limit: 300,
            top_solutions: 1,
            threads: 4,
            ..OptimizerOptions::default()
        })
    }

    #[test]
    fn pipeline_and_dominant_layer() -> Result<(), OptimizeError> {
        let opt = quick_optimizer();
        let layers = tiny_layers();
        let result = optimize_pipeline(
            &opt,
            &layers,
            Objective::Energy,
            &ArchMode::Fixed(ArchConfig::eyeriss()),
        )?;
        assert_eq!(result.layers.len(), 2);
        // Layer "b" does more MACs, so it should dominate energy.
        assert_eq!(result.dominant_layer(Objective::Energy)?, 1);
        assert!(result.total(Objective::Energy) > result.layers[0].eval.energy_pj);
        // Distinct shapes: no solve sharing.
        assert_eq!(result.stats.unique_solves, 2);
        assert_eq!(result.stats.reused, 0);
        // Convergence rollup sums the unique solves' winning reports.
        assert!(result.stats.convergence.newton_iterations > 0);
        assert!(result.stats.convergence.centering_steps > 0);
        Ok(())
    }

    #[test]
    fn single_architecture_protocol_runs() -> Result<(), OptimizeError> {
        let opt = quick_optimizer();
        let layers = tiny_layers();
        let spec = CoDesignSpec::same_area_as(&ArchConfig::eyeriss(), opt.tech());
        let sink = Arc::new(CollectingSink::new());
        let ctx = TraceCtx::new(Arc::clone(&sink) as Arc<dyn thistle_obs::Sink>);
        let (layerwise, shared, fixed) = single_architecture_for_pipeline(
            &opt,
            &layers,
            Objective::Energy,
            &ArchMode::CoDesign(spec),
            &ctx,
        )?;
        assert_eq!(layerwise.layers.len(), fixed.layers.len());
        // The shared architecture is the dominant layer's architecture.
        let dom = layerwise.dominant_layer(Objective::Energy)?;
        assert_eq!(shared, layerwise.layers[dom].arch);
        // Dominant layer's fixed result can use the arch it was designed for.
        assert!(fixed.layers[dom].eval.energy_pj > 0.0);

        // One `pipeline` span per phase, in open order: the layer-wise phase
        // then the shared-architecture phase, each holding its own two
        // layer solves.
        let records = sink.take();
        let spans: Vec<_> = records
            .iter()
            .filter_map(Record::as_span)
            .filter(|s| matches!(s.name, "pipeline" | "optimize_workload"))
            .collect();
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "pipeline",
                "optimize_workload",
                "optimize_workload",
                "pipeline",
                "optimize_workload",
                "optimize_workload",
            ]
        );
        for phase in spans.chunks(3) {
            let (pipeline, solves) = (phase[0], &phase[1..]);
            let end = pipeline.start_ns + pipeline.dur_ns;
            assert!(solves
                .iter()
                .all(|s| s.start_ns >= pipeline.start_ns && s.start_ns + s.dur_ns <= end));
        }
        assert!(spans[3].start_ns >= spans[0].start_ns + spans[0].dur_ns);
        Ok(())
    }

    #[test]
    fn duplicate_shapes_share_one_solve() -> Result<(), OptimizeError> {
        let opt = quick_optimizer();
        let layers = vec![
            ConvLayer::new("first", 1, 16, 16, 18, 18, 3, 3, 1),
            ConvLayer::new("again", 1, 16, 16, 18, 18, 3, 3, 1),
            ConvLayer::new("other", 1, 64, 32, 10, 10, 3, 3, 1),
        ];
        let result = optimize_pipeline(
            &opt,
            &layers,
            Objective::Energy,
            &ArchMode::Fixed(ArchConfig::eyeriss()),
        )?;
        assert_eq!(result.stats.layers_submitted, 3);
        assert_eq!(result.stats.unique_solves, 2);
        assert_eq!(result.stats.reused, 1);
        // The reuse keeps each layer's own name and is otherwise identical.
        assert_eq!(result.layers[0].workload_name, "first");
        assert_eq!(result.layers[1].workload_name, "again");
        assert_eq!(
            result.layers[0].eval.energy_pj.to_bits(),
            result.layers[1].eval.energy_pj.to_bits()
        );
        assert_eq!(result.layers[0].mapping, result.layers[1].mapping);
        Ok(())
    }

    #[test]
    fn transposed_shapes_share_one_solve() -> Result<(), OptimizeError> {
        let opt = quick_optimizer();
        let layers = vec![
            ConvLayer::new("tall", 1, 16, 16, 20, 12, 1, 3, 1),
            ConvLayer::new("wide", 1, 16, 16, 12, 20, 3, 1, 1),
        ];
        let result = optimize_pipeline(
            &opt,
            &layers,
            Objective::Energy,
            &ArchMode::Fixed(ArchConfig::eyeriss()),
        )?;
        assert_eq!(result.stats.unique_solves, 1);
        assert_eq!(result.stats.reused, 1);
        // The transposed member is exact under the referee: symmetric costs.
        assert!(
            (result.layers[0].eval.energy_pj - result.layers[1].eval.energy_pj).abs()
                <= result.layers[0].eval.energy_pj * 1e-12
        );
        Ok(())
    }

    #[test]
    fn empty_pipeline_reports_error() {
        let result = PipelineResult {
            layers: Vec::new(),
            stats: PipelineStats::default(),
        };
        assert_eq!(
            result.dominant_layer(Objective::Energy),
            Err(OptimizeError::EmptyPipeline)
        );
    }
}
