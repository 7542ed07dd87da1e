//! Canonical request keys for caching and deduplication.
//!
//! Two optimization requests that must produce the same [`DesignPoint`] (up
//! to layer naming and the h/w symmetry the pruner already exploits) should
//! compare equal here, so that a pipeline run or a long-lived service can
//! solve once and reuse the result. A key covers everything that influences
//! the optimizer's answer:
//!
//! * the layer shape, with its name stripped and its H/W axes rotated into a
//!   canonical order (valid because [`ConvLayer`] shares one stride and one
//!   dilation between both spatial axes — the same symmetry rule the
//!   permutation pruner applies);
//! * the objective and architecture mode;
//! * the solver configuration: technology parameters, bandwidths, and every
//!   [`OptimizerOptions`](crate::OptimizerOptions) field except `threads`,
//!   which does not affect the (deterministically sorted) result.
//!
//! `f64` fields enter the key as their IEEE-754 bit patterns, so keys are
//! `Eq + Hash` without tolerance games: configs are equal when they were
//! built from the same numbers.

use crate::optimizer::{DesignPoint, Optimizer};
use thistle_model::{ArchMode, ConvLayer, Dim, Objective, RegisterCostModel};

/// A [`ConvLayer`] with the name stripped and the H/W axes in canonical
/// order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CanonicalLayer {
    pub batch: u64,
    pub out_channels: u64,
    pub in_channels: u64,
    pub in_h: u64,
    pub in_w: u64,
    pub kernel_h: u64,
    pub kernel_w: u64,
    pub stride: u64,
    pub dilation: u64,
}

impl CanonicalLayer {
    /// Canonicalizes `layer`. Returns the canonical form and whether the H
    /// and W axes were swapped to reach it (callers that reuse a cached
    /// design for a swapped layer must [`transpose_design_hw`] it back).
    pub fn of(layer: &ConvLayer) -> (Self, bool) {
        let swap = (layer.in_w, layer.kernel_w) < (layer.in_h, layer.kernel_h);
        let (in_h, kernel_h, in_w, kernel_w) = if swap {
            (layer.in_w, layer.kernel_w, layer.in_h, layer.kernel_h)
        } else {
            (layer.in_h, layer.kernel_h, layer.in_w, layer.kernel_w)
        };
        (
            CanonicalLayer {
                batch: layer.batch,
                out_channels: layer.out_channels,
                in_channels: layer.in_channels,
                in_h,
                in_w,
                kernel_h,
                kernel_w,
                stride: layer.stride,
                dilation: layer.dilation,
            },
            swap,
        )
    }
}

/// Architecture mode, reduced to hashable bit patterns.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CanonicalMode {
    Fixed {
        pe_count: u64,
        regs_per_pe: u64,
        sram_words: u64,
        word_bits: u32,
    },
    CoDesign {
        area_budget_bits: u64,
        regs_range_bits: (u64, u64),
        sram_range_bits: (u64, u64),
        pe_range_bits: (u64, u64),
    },
}

impl CanonicalMode {
    pub fn of(mode: &ArchMode) -> Self {
        match mode {
            ArchMode::Fixed(a) => CanonicalMode::Fixed {
                pe_count: a.pe_count,
                regs_per_pe: a.regs_per_pe,
                sram_words: a.sram_words,
                word_bits: a.word_bits,
            },
            ArchMode::CoDesign(spec) => CanonicalMode::CoDesign {
                area_budget_bits: spec.area_budget_um2.to_bits(),
                regs_range_bits: (spec.regs_range.0.to_bits(), spec.regs_range.1.to_bits()),
                sram_range_bits: (spec.sram_range.0.to_bits(), spec.sram_range.1.to_bits()),
                pe_range_bits: (spec.pe_range.0.to_bits(), spec.pe_range.1.to_bits()),
            },
        }
    }
}

/// Everything about an [`Optimizer`]'s configuration that influences its
/// answers. `threads` is deliberately excluded: the GP sweep sorts its
/// solutions by `(objective bits, permutation-pair index)`, so thread count
/// changes scheduling, never results.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SolverFingerprint {
    tech_bits: [u64; 7],
    bandwidth_bits: [u64; 3],
    candidates_per_var: usize,
    max_perm_pairs: usize,
    candidate_limit: usize,
    top_solutions: usize,
    gap_tolerance_bits: u64,
    newton_tolerance_bits: u64,
    max_newton_iterations: usize,
    register_cost: RegisterCostModel,
    spatial_stencils: bool,
}

/// Number of `u64` words in a [`SolverFingerprint::encode_words`] encoding.
pub const FINGERPRINT_WORDS: usize = 20;

impl SolverFingerprint {
    pub fn of(optimizer: &Optimizer) -> Self {
        let tech = optimizer.tech();
        let bw = optimizer.bandwidths();
        let o = optimizer.options();
        SolverFingerprint {
            tech_bits: [
                tech.area_mac_um2.to_bits(),
                tech.area_register_um2.to_bits(),
                tech.area_sram_word_um2.to_bits(),
                tech.energy_mac_pj.to_bits(),
                tech.sigma_register_pj.to_bits(),
                tech.sigma_sram_pj.to_bits(),
                tech.energy_dram_pj.to_bits(),
            ],
            bandwidth_bits: [
                bw.dram_words_per_cycle.to_bits(),
                bw.sram_words_per_cycle.to_bits(),
                bw.reg_words_per_cycle_per_pe.to_bits(),
            ],
            candidates_per_var: o.candidates_per_var,
            max_perm_pairs: o.max_perm_pairs,
            candidate_limit: o.candidate_limit,
            top_solutions: o.top_solutions,
            gap_tolerance_bits: o.solve_options.gap_tolerance.to_bits(),
            newton_tolerance_bits: o.solve_options.newton_tolerance.to_bits(),
            max_newton_iterations: o.solve_options.max_newton_iterations,
            register_cost: o.register_cost,
            spatial_stencils: o.spatial_stencils,
        }
    }

    /// Flattens the fingerprint to a fixed-width word vector for external
    /// serialization (the atlas snapshot format). The layout is part of the
    /// snapshot format: changing it requires bumping the atlas version.
    /// Word 17 is reserved and always 0 (it held the retired utilization
    /// floor, which was 0 unless set).
    pub fn encode_words(&self) -> [u64; FINGERPRINT_WORDS] {
        let mut w = [0u64; FINGERPRINT_WORDS];
        w[..7].copy_from_slice(&self.tech_bits);
        w[7..10].copy_from_slice(&self.bandwidth_bits);
        w[10] = self.candidates_per_var as u64;
        w[11] = self.max_perm_pairs as u64;
        w[12] = self.candidate_limit as u64;
        w[13] = self.top_solutions as u64;
        w[14] = self.gap_tolerance_bits;
        w[15] = self.newton_tolerance_bits;
        w[16] = self.max_newton_iterations as u64;
        w[18] = match self.register_cost {
            RegisterCostModel::PerPe => 0,
            RegisterCostModel::PaperEq3 => 1,
        };
        w[19] = u64::from(self.spatial_stencils);
        w
    }

    /// Inverse of [`SolverFingerprint::encode_words`]. Returns `None` when a
    /// discriminant word holds an unknown value (snapshot from a future
    /// format revision) or the reserved word 17 is not 0.
    pub fn decode_words(w: &[u64; FINGERPRINT_WORDS]) -> Option<Self> {
        if w[17] != 0 {
            return None;
        }
        let mut tech_bits = [0u64; 7];
        tech_bits.copy_from_slice(&w[..7]);
        let mut bandwidth_bits = [0u64; 3];
        bandwidth_bits.copy_from_slice(&w[7..10]);
        Some(SolverFingerprint {
            tech_bits,
            bandwidth_bits,
            candidates_per_var: w[10] as usize,
            max_perm_pairs: w[11] as usize,
            candidate_limit: w[12] as usize,
            top_solutions: w[13] as usize,
            gap_tolerance_bits: w[14],
            newton_tolerance_bits: w[15],
            max_newton_iterations: w[16] as usize,
            register_cost: match w[18] {
                0 => RegisterCostModel::PerPe,
                1 => RegisterCostModel::PaperEq3,
                _ => return None,
            },
            spatial_stencils: match w[19] {
                0 => false,
                1 => true,
                _ => return None,
            },
        })
    }
}

/// The full canonical key of one optimization request.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CanonicalQuery {
    pub layer: CanonicalLayer,
    pub objective: Objective,
    pub mode: CanonicalMode,
    pub solver: SolverFingerprint,
}

impl CanonicalQuery {
    /// Builds the key for `(optimizer, layer, objective, mode)`. Returns the
    /// key and whether the layer's H/W axes were swapped during
    /// canonicalization.
    pub fn new(
        optimizer: &Optimizer,
        layer: &ConvLayer,
        objective: Objective,
        mode: &ArchMode,
    ) -> (Self, bool) {
        let (canonical, swapped) = CanonicalLayer::of(layer);
        (
            CanonicalQuery {
                layer: canonical,
                objective,
                mode: CanonicalMode::of(mode),
                solver: SolverFingerprint::of(optimizer),
            },
            swapped,
        )
    }
}

/// A canonical query with the batch size erased: the "workload family" of a
/// request. Two queries in the same family describe the same layer shape,
/// objective, mode, and solver configuration and differ at most in batch
/// size — exactly the near-miss case, where a stored design's winning
/// permutation pair stays competitive at the new batch size, so the
/// near-miss route solves that one pair instead of the whole sweep.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FamilyKey(CanonicalQuery);

impl CanonicalQuery {
    /// The batch-erased family of this query (see [`FamilyKey`]).
    pub fn family_key(&self) -> FamilyKey {
        let mut q = self.clone();
        q.layer.batch = 0;
        FamilyKey(q)
    }
}

/// Conv workload dimension indices whose roles swap under an H/W transpose:
/// `r`(3)/`s`(4) and `h`(5)/`w`(6) in the `n,k,c,r,s,h,w` order of
/// [`ConvLayer::workload`].
const HW_SWAPS: [(usize, usize); 2] = [(3, 4), (5, 6)];

fn swap_dim_index(d: usize) -> usize {
    for (a, b) in HW_SWAPS {
        if d == a {
            return b;
        }
        if d == b {
            return a;
        }
    }
    d
}

/// Transposes a conv-layer design point across the H/W axis swap: a design
/// found for layer `L` becomes the corresponding design for the layer with
/// `(in_h, kernel_h)` and `(in_w, kernel_w)` exchanged. Factor vectors swap
/// their `r`/`s` and `h`/`w` entries; permutations are relabeled in place.
/// `eval` is carried over unchanged — the cost model is symmetric in the
/// swapped axes — but callers may re-run the referee for belt and braces.
pub fn transpose_design_hw(point: &DesignPoint) -> DesignPoint {
    let mut out = point.clone();
    for factors in [
        &mut out.mapping.register_factors,
        &mut out.mapping.pe_temporal_factors,
        &mut out.mapping.spatial_factors,
        &mut out.mapping.outer_factors,
    ] {
        for (a, b) in HW_SWAPS {
            if factors.len() > b {
                factors.swap(a, b);
            }
        }
    }
    for perm in [
        &mut out.mapping.pe_temporal_perm,
        &mut out.mapping.outer_perm,
    ] {
        for d in perm.iter_mut() {
            *d = swap_dim_index(*d);
        }
    }
    for perm in [&mut out.perm1, &mut out.perm3] {
        for d in perm.iter_mut() {
            *d = Dim(swap_dim_index(d.index()));
        }
    }
    // The relaxed point is indexed by the original GP's variable registry;
    // the transposed permutations generate a different registry, so the
    // values no longer correspond. Drop them rather than report values that
    // belong to another GP.
    out.relaxed_point = thistle_expr::Assignment::from_values(Vec::new());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::OptimizerOptions;
    use thistle_arch::{ArchConfig, TechnologyParams};
    use thistle_model::CoDesignSpec;

    fn optimizer() -> Optimizer {
        Optimizer::new(TechnologyParams::cgo2022_45nm())
    }

    #[test]
    fn names_do_not_enter_the_key() {
        let opt = optimizer();
        let mode = ArchMode::Fixed(ArchConfig::eyeriss());
        let a = ConvLayer::new("conv2_1", 1, 64, 64, 56, 56, 3, 3, 1);
        let b = ConvLayer::new("anything", 1, 64, 64, 56, 56, 3, 3, 1);
        let (qa, _) = CanonicalQuery::new(&opt, &a, Objective::Energy, &mode);
        let (qb, _) = CanonicalQuery::new(&opt, &b, Objective::Energy, &mode);
        assert_eq!(qa, qb);
    }

    #[test]
    fn hw_swap_canonicalizes_to_one_key() {
        let opt = optimizer();
        let mode = ArchMode::Fixed(ArchConfig::eyeriss());
        let a = ConvLayer::new("a", 1, 32, 16, 14, 28, 3, 1, 1);
        let b = ConvLayer::new("b", 1, 32, 16, 28, 14, 1, 3, 1);
        let (qa, swa) = CanonicalQuery::new(&opt, &a, Objective::Delay, &mode);
        let (qb, swb) = CanonicalQuery::new(&opt, &b, Objective::Delay, &mode);
        assert_eq!(qa, qb);
        assert_ne!(swa, swb, "exactly one orientation is canonical");
    }

    #[test]
    fn objective_mode_and_solver_config_split_keys() {
        let opt = optimizer();
        let layer = ConvLayer::new("l", 1, 64, 64, 56, 56, 3, 3, 1);
        let fixed = ArchMode::Fixed(ArchConfig::eyeriss());
        let spec = CoDesignSpec::same_area_as(&ArchConfig::eyeriss(), opt.tech());
        let codesign = ArchMode::CoDesign(spec);
        let (q1, _) = CanonicalQuery::new(&opt, &layer, Objective::Energy, &fixed);
        let (q2, _) = CanonicalQuery::new(&opt, &layer, Objective::Delay, &fixed);
        let (q3, _) = CanonicalQuery::new(&opt, &layer, Objective::Energy, &codesign);
        assert_ne!(q1, q2);
        assert_ne!(q1, q3);

        let tweaked = opt.clone().with_options(OptimizerOptions {
            max_perm_pairs: 17,
            ..OptimizerOptions::default()
        });
        let (q4, _) = CanonicalQuery::new(&tweaked, &layer, Objective::Energy, &fixed);
        assert_ne!(q1, q4);

        // Thread count is excluded by design.
        let threaded = opt.clone().with_options(OptimizerOptions {
            threads: 1,
            ..opt.options().clone()
        });
        let (q5, _) = CanonicalQuery::new(&threaded, &layer, Objective::Energy, &fixed);
        assert_eq!(q1, q5);
    }

    #[test]
    fn fingerprint_words_round_trip() {
        let paper = optimizer().with_options(OptimizerOptions {
            register_cost: RegisterCostModel::PaperEq3,
            spatial_stencils: false,
            ..OptimizerOptions::default()
        });
        for opt in [optimizer(), paper] {
            let fingerprint = SolverFingerprint::of(&opt);
            let mut words = fingerprint.encode_words();
            assert_eq!(words[17], 0, "word 17 is reserved");
            assert_eq!(SolverFingerprint::decode_words(&words), Some(fingerprint));
            // A set reserved word comes from a configuration this build
            // cannot reproduce.
            words[17] = 0.25f64.to_bits();
            assert_eq!(SolverFingerprint::decode_words(&words), None);
        }
    }

    #[test]
    fn transpose_swaps_stencil_and_image_dims() {
        let layer = ConvLayer::new("t", 1, 8, 8, 12, 20, 3, 1, 1);
        let opt = optimizer();
        let point = opt
            .optimize_layer(
                &layer,
                Objective::Energy,
                &ArchMode::Fixed(ArchConfig::eyeriss()),
            )
            .expect("solvable");
        let t = transpose_design_hw(&point);
        assert_eq!(
            t.mapping.register_factors[3],
            point.mapping.register_factors[4]
        );
        assert_eq!(t.mapping.outer_factors[5], point.mapping.outer_factors[6]);
        assert_eq!(t.mapping.outer_factors[6], point.mapping.outer_factors[5]);
        // Double transpose is the identity.
        let tt = transpose_design_hw(&t);
        assert_eq!(tt.mapping.register_factors, point.mapping.register_factors);
        assert_eq!(tt.mapping.outer_perm, point.mapping.outer_perm);
        assert_eq!(tt.perm1, point.perm1);
    }
}
