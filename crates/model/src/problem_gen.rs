//! Assembly of the constrained optimization problems (Eq. 3 / Eq. 5).
//!
//! Given a workload, a permutation pair, an objective, and an architecture
//! mode, [`ProblemGenerator::generate`] emits a [`GpProblem`]:
//!
//! * **Energy** (Eq. 3): `(4 eps_R + eps_op) N_ops + eps_R T_SR +
//!   eps_S (T_SR + T_DS) + eps_D T_DS`, where `T_SR`/`T_DS` are the total
//!   SRAM<->register and DRAM<->SRAM traffic posynomials.
//! * **Delay**: `min t` subject to one constraint per hardware component —
//!   compute (`N_ops / P_used <= t`), SRAM bandwidth, DRAM bandwidth — the
//!   paper's max-of-components cost in GP form.
//! * **Fixed architecture**: `R`, `S`, `P` are numeric constants
//!   (dataflow-only optimization, as when comparing against Timeloop Mapper).
//! * **Co-design** (Eq. 5): `R`, `S`, `P` become GP variables; per-access
//!   energies follow Eq. 4 (`eps_R = sigma_R R`, `eps_S = sigma_S sqrt(S)`),
//!   and the linear area model bounds the total chip area.
//!
//! Signomial traffic/footprint expressions (convolution halo terms) enter the
//! GP through their posynomial upper bounds.

use crate::perms;
use crate::space::TilingSpace;
use crate::volumes::TrafficModel;
use crate::workload::{Dim, Workload};
use std::fmt;
use thistle_arch::{ArchConfig, Bandwidths, TechnologyParams};
use thistle_expr::{Monomial, Posynomial, Signomial, Var};
use thistle_gp::GpProblem;

/// What to minimize.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Objective {
    /// Total energy in picojoules.
    Energy,
    /// Total delay in cycles (max over hardware components).
    Delay,
    /// Energy-delay product (pJ * cycles). The paper notes EDP is
    /// expressible in its framework but does not evaluate it; it is a
    /// posynomial-times-monomial objective under the same delay
    /// constraints, so the GP machinery handles it directly.
    EnergyDelayProduct,
}

impl fmt::Display for Objective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Objective::Energy => write!(f, "energy"),
            Objective::Delay => write!(f, "delay"),
            Objective::EnergyDelayProduct => write!(f, "energy-delay product"),
        }
    }
}

/// How register-file fill energy is charged in the objective.
///
/// Eq. 3 of the paper multiplies `eps_R` by the multicast-*discounted*
/// SRAM-side volume, undercounting register writes when data fans out
/// spatially: every PE still writes its own copy. The referee (timeloop-lite,
/// like Timeloop itself) charges those writes per PE, so the faithful model
/// scores candidates the way they will be judged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RegisterCostModel {
    /// Charge register fills per PE instance (matches the referee). Default.
    #[default]
    PerPe,
    /// The literal Eq. 3 formulation (multicast-discounted), kept for the
    /// fidelity ablation.
    PaperEq3,
}

/// Architecture treatment: fixed constants or co-designed variables.
#[derive(Debug, Clone, PartialEq)]
pub enum ArchMode {
    /// Dataflow-only optimization for a given accelerator.
    Fixed(ArchConfig),
    /// Architecture-dataflow co-design under an area budget (Eq. 5).
    CoDesign(CoDesignSpec),
}

/// Search-space bounds for co-design.
#[derive(Debug, Clone, PartialEq)]
pub struct CoDesignSpec {
    /// Total chip-area budget in square micrometres.
    pub area_budget_um2: f64,
    /// Bounds on registers per PE.
    pub regs_range: (f64, f64),
    /// Bounds on SRAM words.
    pub sram_range: (f64, f64),
    /// Bounds on the number of PEs.
    pub pe_range: (f64, f64),
}

impl CoDesignSpec {
    /// Co-design constrained to the chip area of `arch` — the paper's
    /// experimental setup ("limiting the total area ... to that used by the
    /// original Eyeriss design").
    pub fn same_area_as(arch: &ArchConfig, tech: &TechnologyParams) -> Self {
        CoDesignSpec {
            area_budget_um2: arch.area_um2(tech),
            regs_range: (4.0, 4096.0),
            sram_range: (256.0, 16.0 * 1024.0 * 1024.0),
            pe_range: (1.0, 8192.0),
        }
    }
}

/// Handles to the co-design architecture variables inside a generated GP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArchVars {
    /// Registers per PE (`R`).
    pub regs: Var,
    /// SRAM words (`S`).
    pub sram: Var,
    /// PE count (`P`).
    pub pes: Var,
}

/// Errors from problem generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenError {
    /// A traffic or footprint expression had no posynomial upper bound
    /// (cannot happen for well-formed workloads; reported rather than
    /// panicking).
    NotPosynomial(String),
}

impl fmt::Display for GenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenError::NotPosynomial(what) => {
                write!(f, "expression has no posynomial upper bound: {what}")
            }
        }
    }
}

impl std::error::Error for GenError {}

/// A generated GP plus everything needed to interpret its solution.
#[derive(Debug, Clone)]
pub struct GeneratedGp {
    /// The geometric program, ready to solve.
    pub problem: GpProblem,
    /// The tiling variable space (shared registry with `problem`).
    pub space: TilingSpace,
    /// PE-temporal level permutation (outermost first).
    pub perm1: Vec<Dim>,
    /// Outer level permutation (outermost first).
    pub perm3: Vec<Dim>,
    /// Co-design variable handles, if co-designing.
    pub arch_vars: Option<ArchVars>,
    /// The delay variable, if the objective is delay.
    pub delay_var: Option<Var>,
    mode: ArchMode,
}

impl GeneratedGp {
    /// The architecture mode this GP was generated under.
    pub fn mode(&self) -> &ArchMode {
        &self.mode
    }
}

/// The smallest register capacity for which this workload's GP relaxation is
/// feasible: the posynomial upper bound of the total register footprint with
/// every trip count at one (halo bounds make this slightly larger than the
/// true integer minimum). Used to repair shared architectures chosen from a
/// different layer's co-design.
pub fn min_register_capacity(workload: &Workload, spatial_stencils: bool) -> f64 {
    let space = TilingSpace::with_spatial_stencils(workload, spatial_stencils);
    let dims = workload.tiled_dims();
    let traffic = TrafficModel::build(&space, &dims, &dims);
    let ones = thistle_expr::Assignment::ones(space.registry().len());
    traffic
        .total_register_footprint()
        .posynomial_upper_bound()
        .map_or(f64::INFINITY, |p| p.eval(&ones))
}

/// One `(perm1, perm3)` loop-order pair swept by the optimizer.
pub type PermPair = (Vec<Dim>, Vec<Dim>);

/// Generates the per-permutation geometric programs for one workload.
#[derive(Debug, Clone)]
pub struct ProblemGenerator {
    workload: Workload,
    tech: TechnologyParams,
    bandwidths: Bandwidths,
    register_cost: RegisterCostModel,
    spatial_stencils: bool,
}

impl ProblemGenerator {
    /// Creates a generator for `workload` under the given technology
    /// parameters and bandwidths.
    pub fn new(workload: Workload, tech: TechnologyParams, bandwidths: Bandwidths) -> Self {
        ProblemGenerator {
            workload,
            tech,
            bandwidths,
            register_cost: RegisterCostModel::default(),
            spatial_stencils: true,
        }
    }

    /// Enables or disables spatial distribution of the kernel stencil dims
    /// across the PE grid (default on; see
    /// [`TilingSpace::with_spatial_stencils`]). Disable for the
    /// paper-literal pruning.
    pub fn with_spatial_stencils(mut self, enabled: bool) -> Self {
        self.spatial_stencils = enabled;
        self
    }

    /// Selects how register fills are charged (see [`RegisterCostModel`]).
    pub fn with_register_cost(mut self, model: RegisterCostModel) -> Self {
        self.register_cost = model;
        self
    }

    /// The workload being optimized.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// Pruned permutation-pair classes `(perm1, perm3)` to sweep. The same
    /// class structure applies to both temporal levels, so this is the cross
    /// product of one level's class representatives with itself.
    pub fn permutation_classes(&self) -> Vec<PermPair> {
        self.permutation_classes_traced(&thistle_obs::TraceCtx::disabled())
            .0
    }

    /// [`ProblemGenerator::permutation_classes`] under a `"perm_enum"` trace
    /// span carrying the enumeration and pruning counters.
    pub fn permutation_classes_traced(
        &self,
        ctx: &thistle_obs::TraceCtx,
    ) -> (Vec<PermPair>, perms::PruneStats) {
        let mut span = ctx.span("perm_enum");
        let (level, stats) = perms::level_classes_traced(&self.workload, ctx);
        let mut out = Vec::with_capacity(level.len() * level.len());
        for p1 in &level {
            for p3 in &level {
                out.push((p1.clone(), p3.clone()));
            }
        }
        span.set("total", stats.total);
        span.set("after_symmetry", stats.after_symmetry);
        span.set("collapsed_by_hoist", stats.after_symmetry - stats.classes);
        span.set("classes", stats.classes);
        span.set("pairs", out.len());
        (out, stats)
    }

    /// Generates the GP for one permutation pair.
    ///
    /// # Errors
    ///
    /// Returns [`GenError::NotPosynomial`] if an expression cannot be relaxed
    /// to a posynomial (degenerate workload).
    pub fn generate(
        &self,
        perm1: &[Dim],
        perm3: &[Dim],
        objective: Objective,
        mode: &ArchMode,
    ) -> Result<GeneratedGp, GenError> {
        let space = TilingSpace::with_spatial_stencils(&self.workload, self.spatial_stencils);
        let traffic = TrafficModel::build(&space, perm1, perm3);

        let mut registry = space.registry().clone();
        let arch_vars = match mode {
            ArchMode::Fixed(_) => None,
            ArchMode::CoDesign(_) => Some(ArchVars {
                regs: registry.var("R_cap"),
                sram: registry.var("S_cap"),
                pes: registry.var("P_cnt"),
            }),
        };
        let delay_var = match objective {
            Objective::Energy => None,
            Objective::Delay | Objective::EnergyDelayProduct => Some(registry.var("t_delay")),
        };
        let mut prob = GpProblem::new(registry);
        space.add_structural_constraints(&mut prob);

        let ub = |s: &Signomial, what: &str| -> Result<Posynomial, GenError> {
            s.posynomial_upper_bound()
                .ok_or_else(|| GenError::NotPosynomial(what.to_owned()))
        };
        let t_sr = ub(&traffic.total_sram_reg(), "SRAM<->register traffic")?;
        let t_ds = ub(&traffic.total_dram_sram(), "DRAM<->SRAM traffic")?;
        let reg_fp = ub(&traffic.total_register_footprint(), "register footprint")?;
        let sram_fp = ub(&traffic.total_sram_footprint(), "SRAM footprint")?;
        let num_ops = self.workload.num_ops();

        // Capacity + processor-count constraints.
        let (reg_cap, sram_cap, pe_cap): (Monomial, Monomial, Monomial) = match (mode, arch_vars) {
            (ArchMode::Fixed(a), _) => (
                Monomial::constant(a.regs_per_pe as f64),
                Monomial::constant(a.sram_words as f64),
                Monomial::constant(a.pe_count as f64),
            ),
            (ArchMode::CoDesign(spec), Some(av)) => {
                prob.add_bounds(av.regs, spec.regs_range.0, spec.regs_range.1);
                prob.add_bounds(av.sram, spec.sram_range.0, spec.sram_range.1);
                prob.add_bounds(av.pes, spec.pe_range.0, spec.pe_range.1);
                // Area (Eq. 5): (Area_R R + Area_MAC) P + Area_S S <= budget.
                let area =
                    Posynomial::from(Monomial::new(
                        self.tech.area_register_um2,
                        [(av.regs, 1.0), (av.pes, 1.0)],
                    )) + Posynomial::from(Monomial::new(self.tech.area_mac_um2, [(av.pes, 1.0)]))
                        + Posynomial::from(Monomial::new(
                            self.tech.area_sram_word_um2,
                            [(av.sram, 1.0)],
                        ));
                prob.add_le(area, Monomial::constant(spec.area_budget_um2));
                (
                    Monomial::var(av.regs),
                    Monomial::var(av.sram),
                    Monomial::var(av.pes),
                )
            }
            (ArchMode::CoDesign(_), None) => unreachable!(),
        };
        prob.add_le(reg_fp, reg_cap);
        prob.add_le(sram_fp, sram_cap);
        prob.add_le(Posynomial::from(traffic.pe_product.clone()), pe_cap);

        // Per-access energies as monomials (constants or Eq. 4 models).
        let (eps_r, eps_s): (Monomial, Monomial) = match (mode, arch_vars) {
            (ArchMode::Fixed(a), _) => (
                Monomial::constant(a.register_energy_pj(&self.tech)),
                Monomial::constant(a.sram_energy_pj(&self.tech)),
            ),
            (ArchMode::CoDesign(_), Some(av)) => (
                Monomial::new(self.tech.sigma_register_pj, [(av.regs, 1.0)]),
                Monomial::new(self.tech.sigma_sram_pj, [(av.sram, 0.5)]),
            ),
            (ArchMode::CoDesign(_), None) => unreachable!(),
        };

        // Eq. 3 energy (with Eq. 4 substituted in co-design mode).
        let energy = {
            let reg_volume = match self.register_cost {
                RegisterCostModel::PerPe => {
                    ub(&traffic.total_reg_fills(), "register fill traffic")?
                }
                RegisterCostModel::PaperEq3 => t_sr.clone(),
            };
            let mac_term = Posynomial::from(eps_r.scale(4.0 * num_ops))
                + Posynomial::constant(self.tech.energy_mac_pj * num_ops);
            let reg_side = &reg_volume * &Posynomial::from(eps_r.clone());
            let sram_side = &(&t_sr + &t_ds) * &Posynomial::from(eps_s);
            let dram_side = t_ds.scale(self.tech.energy_dram_pj);
            mac_term + reg_side + sram_side + dram_side
        };
        // Per-component delay constraints (max-of-components in GP form).
        if let Some(t) = delay_var {
            // Compute: N_ops / P_used <= t.
            prob.add_le(
                Posynomial::from(Monomial::constant(num_ops)),
                &traffic.pe_product * &Monomial::var(t),
            );
            // SRAM port: all SRAM-side transfers share its bandwidth.
            prob.add_le(
                (&t_sr + &t_ds).scale(1.0 / self.bandwidths.sram_words_per_cycle),
                Monomial::var(t),
            );
            // DRAM channel.
            prob.add_le(
                t_ds.scale(1.0 / self.bandwidths.dram_words_per_cycle),
                Monomial::var(t),
            );
        }
        match objective {
            Objective::Energy => {
                prob.set_objective(energy);
            }
            Objective::Delay => {
                let t = delay_var.expect("delay variable exists");
                prob.set_objective(Posynomial::from_var(t));
            }
            Objective::EnergyDelayProduct => {
                let t = delay_var.expect("delay variable exists");
                prob.set_objective(&energy * &Posynomial::from_var(t));
            }
        }

        Ok(GeneratedGp {
            problem: prob,
            space,
            perm1: perm1.to_vec(),
            perm3: perm3.to_vec(),
            arch_vars,
            delay_var,
            mode: mode.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{matmul_workload, ConvLayer};
    use thistle_expr::Assignment;
    use thistle_gp::SolveOptions;

    fn tech() -> TechnologyParams {
        TechnologyParams::cgo2022_45nm()
    }

    fn first_class(g: &ProblemGenerator) -> (Vec<Dim>, Vec<Dim>) {
        g.permutation_classes()[0].clone()
    }

    /// The exact (signomial) traffic model of `gp`'s permutation pair.
    fn traffic(gp: &GeneratedGp) -> TrafficModel {
        TrafficModel::build(&gp.space, &gp.perm1, &gp.perm3)
    }

    /// Exact modeled energy (pJ) of `num_ops` MACs at a concrete point
    /// under the default register-cost model: the exact traffic totals, no
    /// posynomial relaxation, at the fixed architecture or the co-design
    /// variables' real values.
    fn energy_at(gp: &GeneratedGp, point: &Assignment, num_ops: f64) -> f64 {
        let totals = traffic(gp).totals;
        let tech = tech();
        let (regs, sram) = match gp.mode() {
            ArchMode::Fixed(a) => (a.regs_per_pe as f64, a.sram_words as f64),
            ArchMode::CoDesign(_) => {
                let av = gp.arch_vars.expect("co-design GPs carry arch vars");
                (point.get(av.regs), point.get(av.sram))
            }
        };
        let eps_r = tech.register_energy_pj(regs);
        let eps_s = tech.sram_energy_pj(sram);
        let t_sr = totals.sram_reg.eval(point);
        let t_ds = totals.dram_sram.eval(point);
        (4.0 * eps_r + tech.energy_mac_pj) * num_ops
            + eps_r * totals.reg_fills.eval(point)
            + eps_s * (t_sr + t_ds)
            + tech.energy_dram_pj * t_ds
    }

    /// Exact modeled delay (cycles) of `num_ops` MACs at a concrete point
    /// under the default bandwidths: the max over compute, SRAM-bandwidth,
    /// and DRAM-bandwidth components.
    fn delay_at(gp: &GeneratedGp, point: &Assignment, num_ops: f64) -> f64 {
        let traffic = traffic(gp);
        let bandwidths = Bandwidths::default();
        let t_sr = traffic.totals.sram_reg.eval(point);
        let t_ds = traffic.totals.dram_sram.eval(point);
        let compute = num_ops / traffic.pe_product.eval(point);
        let sram = (t_sr + t_ds) / bandwidths.sram_words_per_cycle;
        let dram = t_ds / bandwidths.dram_words_per_cycle;
        compute.max(sram).max(dram)
    }

    #[test]
    fn fixed_energy_gp_solves_and_is_feasible() {
        let wl = matmul_workload(256, 256, 256);
        let gen = ProblemGenerator::new(wl.clone(), tech(), Bandwidths::default());
        let (p1, p3) = first_class(&gen);
        let gp = gen
            .generate(
                &p1,
                &p3,
                Objective::Energy,
                &ArchMode::Fixed(ArchConfig::eyeriss()),
            )
            .unwrap();
        let sol = gp.problem.solve(&SolveOptions::default()).unwrap();
        assert!(gp.problem.constraint_violation(&sol.assignment) < 1e-6);
        // Energy must be at least the MAC + register floor.
        let floor =
            (4.0 * ArchConfig::eyeriss().register_energy_pj(&tech()) + 2.2) * 256.0f64.powi(3);
        assert!(sol.objective >= floor * 0.999);
        // Exact evaluation agrees with the GP objective within the relaxation.
        let exact = energy_at(&gp, &sol.assignment, wl.num_ops());
        assert!(exact <= sol.objective * 1.0 + 1e-6);
    }

    #[test]
    fn codesign_energy_beats_fixed_eyeriss() {
        let layer = ConvLayer::new("t", 1, 64, 64, 56, 56, 3, 3, 1);
        let gen = ProblemGenerator::new(layer.workload(), tech(), Bandwidths::default());
        let (p1, p3) = first_class(&gen);
        let fixed = gen
            .generate(
                &p1,
                &p3,
                Objective::Energy,
                &ArchMode::Fixed(ArchConfig::eyeriss()),
            )
            .unwrap();
        let spec = CoDesignSpec::same_area_as(&ArchConfig::eyeriss(), &tech());
        let codesign = gen
            .generate(&p1, &p3, Objective::Energy, &ArchMode::CoDesign(spec))
            .unwrap();
        let f = fixed.problem.solve(&SolveOptions::default()).unwrap();
        let c = codesign.problem.solve(&SolveOptions::default()).unwrap();
        assert!(
            c.objective < f.objective * 0.5,
            "co-design {} should be far below fixed {}",
            c.objective,
            f.objective
        );
        // The co-designed register file is small (register energy dominates
        // Eyeriss) — the paper's headline effect.
        let av = codesign.arch_vars.unwrap();
        assert!(c.assignment.get(av.regs) < 256.0);
    }

    #[test]
    fn delay_gp_uses_more_pes_than_energy_gp() {
        let layer = ConvLayer::new("t", 1, 64, 64, 56, 56, 3, 3, 1);
        let gen = ProblemGenerator::new(layer.workload(), tech(), Bandwidths::default());
        let (p1, p3) = first_class(&gen);
        let mode = ArchMode::Fixed(ArchConfig::eyeriss());
        let e = gen.generate(&p1, &p3, Objective::Energy, &mode).unwrap();
        let d = gen.generate(&p1, &p3, Objective::Delay, &mode).unwrap();
        let es = e.problem.solve(&SolveOptions::default()).unwrap();
        let ds = d.problem.solve(&SolveOptions::default()).unwrap();
        let pes_energy = traffic(&e).pe_product.eval(&es.assignment);
        let pes_delay = traffic(&d).pe_product.eval(&ds.assignment);
        assert!(
            pes_delay > pes_energy * 0.99,
            "delay mode should not use fewer PEs ({pes_delay} vs {pes_energy})"
        );
        // Delay is bounded below by N_ops / P.
        assert!(ds.objective >= layer.workload().num_ops() / 168.0 * 0.999);
    }

    #[test]
    fn delay_objective_matches_component_max() {
        let wl = matmul_workload(128, 128, 128);
        let gen = ProblemGenerator::new(wl.clone(), tech(), Bandwidths::default());
        let (p1, p3) = first_class(&gen);
        let gp = gen
            .generate(
                &p1,
                &p3,
                Objective::Delay,
                &ArchMode::Fixed(ArchConfig::eyeriss()),
            )
            .unwrap();
        let sol = gp.problem.solve(&SolveOptions::default()).unwrap();
        let exact = delay_at(&gp, &sol.assignment, wl.num_ops());
        // The GP objective upper-bounds the exact max-of-components (it uses
        // posynomial relaxations of the traffic).
        assert!(
            exact <= sol.objective * (1.0 + 1e-6),
            "{exact} vs {}",
            sol.objective
        );
    }

    #[test]
    fn class_count_is_square_of_level_classes() {
        let wl = matmul_workload(64, 64, 64);
        let gen = ProblemGenerator::new(wl.clone(), tech(), Bandwidths::default());
        let level = perms::level_classes(&wl).len();
        assert_eq!(gen.permutation_classes().len(), level * level);
    }

    /// Generated GP bytes are pinned across commits. Every permutation pair
    /// of three small layers (a 3×3, a batch-2 stride-2 and a 1×1),
    /// generated as the optimizer generates them (spatial stencils on), in
    /// all four mode × objective settings, folds into one digest: each GP's
    /// `content_fingerprint`, plus the unit-monomial coefficient of every
    /// term and the coefficient of every equality, which the solver's
    /// lowering reads and the fingerprint does not. A change that moves any
    /// generated coefficient, exponent, term or constraint changes the
    /// digest; only a change meant to move generated GPs may re-record it.
    #[test]
    fn generated_gps_are_pinned() {
        let layers = [
            ConvLayer::new("k3", 1, 16, 8, 14, 14, 3, 3, 1),
            ConvLayer::new("b2s2", 2, 16, 8, 15, 15, 3, 3, 2),
            ConvLayer::new("k1", 1, 32, 16, 14, 14, 1, 1, 1),
        ];
        let modes = [
            ArchMode::Fixed(ArchConfig::eyeriss()),
            ArchMode::CoDesign(CoDesignSpec::same_area_as(&ArchConfig::eyeriss(), &tech())),
        ];
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |word: u64| digest = (digest ^ word).wrapping_mul(0x0100_0000_01b3);
        let mut generated = 0;
        for layer in &layers {
            let gen = ProblemGenerator::new(layer.workload(), tech(), Bandwidths::default())
                .with_spatial_stencils(true);
            for (p1, p3) in gen.permutation_classes() {
                for mode in &modes {
                    for objective in [Objective::Energy, Objective::Delay] {
                        let gp = gen.generate(&p1, &p3, objective, mode).expect("generates");
                        let prob = &gp.problem;
                        let (hi, lo) = thistle_gp::content_fingerprint(prob);
                        fold(hi);
                        fold(lo);
                        for g in prob.objective().into_iter().chain(prob.inequalities()) {
                            for (_, unit) in g.terms() {
                                fold(unit.coeff().to_bits());
                            }
                        }
                        for m in prob.equalities() {
                            fold(m.coeff().to_bits());
                        }
                        generated += 1;
                    }
                }
            }
        }
        assert_eq!(generated, 2112);
        assert_eq!(digest, 0x8578_bfda_77fd_7b6b, "digest {digest:#018x}");
    }
}
