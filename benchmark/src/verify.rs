//! Correctness checks every returned design must pass, independent of how
//! it was produced (direct solve, pipeline reuse, or an HTTP answer).

use thistle::convert::to_problem_spec;
use thistle_arch::{ArchConfig, Bandwidths, TechnologyParams};
use thistle_model::{ArchMode, ConvLayer};
use timeloop_lite::{evaluate, ArchSpec, EvalResult, Mapping};

/// Re-runs the referee on `(arch, mapping)` for `layer` and checks the
/// design's structure: every dimension's factors multiply to its extent, a
/// co-designed arch fits the area budget, and a fixed arch is the one asked
/// for. Returns the fresh evaluation for the caller's bit-equality check.
pub fn check_design(
    layer: &ConvLayer,
    mode: &ArchMode,
    arch: &ArchConfig,
    mapping: &Mapping,
    tech: &TechnologyParams,
    bandwidths: &Bandwidths,
) -> Result<EvalResult, String> {
    let prob = to_problem_spec(&layer.workload());
    let levels = [
        &mapping.register_factors,
        &mapping.pe_temporal_factors,
        &mapping.spatial_factors,
        &mapping.outer_factors,
    ];
    for (d, &extent) in prob.extents.iter().enumerate() {
        let product: u64 = levels
            .iter()
            .map(|l| l.get(d).copied().unwrap_or(0))
            .product();
        if product != extent {
            return Err(format!(
                "{}: dimension {} factors to {product}, extent is {extent}",
                layer.name, prob.dim_names[d]
            ));
        }
    }
    match mode {
        ArchMode::Fixed(fixed) if arch != fixed => {
            return Err(format!("{}: fixed arch changed to {arch:?}", layer.name));
        }
        ArchMode::CoDesign(spec) if arch.area_um2(tech) > spec.area_budget_um2 => {
            return Err(format!(
                "{}: arch {arch:?} exceeds the area budget {:.0} um2",
                layer.name, spec.area_budget_um2
            ));
        }
        _ => {}
    }
    let spec = ArchSpec::from_config("check", arch, tech, bandwidths.clone());
    evaluate(&prob, &spec, mapping).map_err(|e| format!("{}: referee rejects: {e}", layer.name))
}

/// The scalar verdict fields, as bits, for exact comparison.
pub fn eval_bits(e: &EvalResult) -> [u64; 7] {
    [
        e.energy_pj.to_bits(),
        e.cycles.to_bits(),
        e.pj_per_mac.to_bits(),
        e.ipc.to_bits(),
        e.macs,
        e.pe_used,
        e.utilization.to_bits(),
    ]
}
