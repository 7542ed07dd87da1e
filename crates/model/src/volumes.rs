//! Composition of per-level data volumes into total traffic expressions.
//!
//! For one choice of loop permutations — `perm1` for the per-PE temporal
//! loops, `perm3` for the outer (SRAM-tile) temporal loops — the total
//! traffic of each tensor is:
//!
//! * **SRAM <-> registers**: `DV^1` (Algorithm 1 at the PE-temporal level)
//!   times the multicast-discounted spatial fan-out, times *all* outer-level
//!   trip counts;
//! * **DRAM <-> SRAM**: `DV^3` (Algorithm 1 at the outer level, seeded with
//!   the spatial footprint `DF^2`).
//!
//! Read-write tensors carry their factor 2 inside each `DV`. These
//! compositions reproduce Eq. 1 and Eq. 2 of the paper exactly (see the
//! `eq1_*`/`eq2_*` tests).

use crate::footprint::{construct_level_exprs, register_footprint, spatial_lift};
use crate::space::{Level, TilingSpace};
use crate::workload::Dim;
use thistle_expr::{Monomial, Signomial};

/// Total traffic of one tensor under a fixed permutation pair.
#[derive(Debug, Clone, PartialEq)]
pub struct TensorTraffic {
    /// Tensor name.
    pub name: String,
    /// Words moved between SRAM and registers over the whole execution,
    /// counted on the *SRAM side* — multicast along absent spatial dims
    /// costs one read (both directions for read-write tensors).
    pub sram_reg: Signomial,
    /// The same transfers counted on the *register side*: every PE writes
    /// its own copy, so multicast fan-out multiplies
    /// (`= sram_reg * P_used / P_distinct`).
    pub reg_fills: Signomial,
    /// Words moved between DRAM and SRAM over the whole execution.
    pub dram_sram: Signomial,
    /// Register-level footprint `DF^0` (per-PE buffer words).
    pub register_footprint: Signomial,
    /// Spatial-level footprint `DF^2` (SRAM buffer words).
    pub sram_footprint: Signomial,
}

/// Traffic and footprint expressions for a whole workload under one
/// permutation pair.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficModel {
    /// Per-tensor traffic, in workload tensor order.
    pub tensors: Vec<TensorTraffic>,
    /// Product of spatial trip counts over all tiled dims (`P_used`).
    pub pe_product: Monomial,
    /// Whole-workload sums, computed once at build time.
    pub(crate) totals: TrafficTotals,
}

/// Cached whole-workload traffic/footprint sums.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TrafficTotals {
    pub(crate) sram_reg: Signomial,
    pub(crate) reg_fills: Signomial,
    pub(crate) dram_sram: Signomial,
    pub(crate) register_footprint: Signomial,
    pub(crate) sram_footprint: Signomial,
}

impl TrafficModel {
    /// Builds the model for permutations `perm1` (PE-temporal level) and
    /// `perm3` (outer level), both outermost-iterator-first.
    pub fn build(space: &TilingSpace, perm1: &[Dim], perm3: &[Dim]) -> Self {
        let workload = space.workload();
        // Products span every dimension: loops without variables have trip
        // count one and contribute nothing, while spatially-split stencil
        // dims (if enabled) must be counted.
        let all_dims: Vec<Dim> = (0..workload.dims.len()).map(Dim).collect();
        let outer_all: Monomial = space.level_product(Level::Outer, &all_dims);

        let spatial_all = space.level_product(Level::Spatial, &all_dims);
        // sram_reg, reg_fills, dram_sram, register and SRAM footprints.
        let mut sums: [Signomial; 5] = Default::default();
        let tensors = workload
            .tensors
            .iter()
            .map(|tensor| {
                let df0 = register_footprint(space, tensor);
                let level1 = construct_level_exprs(space, tensor, Level::PeTemporal, perm1, &df0);
                let (df2, multicast) = spatial_lift(space, tensor, &level1.df);
                let sram_reg = level1.dv.mul_monomial(&multicast).mul_monomial(&outer_all);
                let reg_fills = level1
                    .dv
                    .mul_monomial(&spatial_all)
                    .mul_monomial(&outer_all);
                let dram_sram = construct_level_exprs(space, tensor, Level::Outer, perm3, &df2).dv;
                for (sum, part) in sums
                    .iter_mut()
                    .zip([&sram_reg, &reg_fills, &dram_sram, &df0, &df2])
                {
                    *sum = &*sum + part;
                }
                TensorTraffic {
                    name: tensor.name.clone(),
                    sram_reg,
                    reg_fills,
                    dram_sram,
                    register_footprint: df0,
                    sram_footprint: df2,
                }
            })
            .collect();

        let [sram_reg, reg_fills, dram_sram, register_footprint, sram_footprint] = sums;
        TrafficModel {
            tensors,
            pe_product: spatial_all,
            totals: TrafficTotals {
                sram_reg,
                reg_fills,
                dram_sram,
                register_footprint,
                sram_footprint,
            },
        }
    }

    /// Sum of SRAM<->register traffic over all tensors.
    pub fn total_sram_reg(&self) -> Signomial {
        self.totals.sram_reg.clone()
    }

    /// Sum of register-side fill traffic (per-PE copies) over all tensors.
    pub fn total_reg_fills(&self) -> Signomial {
        self.totals.reg_fills.clone()
    }

    /// Sum of DRAM<->SRAM traffic over all tensors.
    pub fn total_dram_sram(&self) -> Signomial {
        self.totals.dram_sram.clone()
    }

    /// Sum of register-level footprints (register capacity requirement).
    pub fn total_register_footprint(&self) -> Signomial {
        self.totals.register_footprint.clone()
    }

    /// Sum of spatial-level footprints (SRAM capacity requirement).
    pub fn total_sram_footprint(&self) -> Signomial {
        self.totals.sram_footprint.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::matmul_workload;
    use thistle_expr::Assignment;

    /// A feasible matmul tiling point with distinct per-level factors:
    /// per dim, (r, q, p, t) multiply to the extent.
    fn matmul_point(space: &TilingSpace) -> Assignment {
        let reg = space.registry();
        let mut p = Assignment::ones(reg.len());
        let splits = [
            ("i", [4.0, 2.0, 4.0, 2.0]), // Ni = 64
            ("j", [2.0, 4.0, 2.0, 4.0]), // Nj = 64
            ("k", [8.0, 2.0, 2.0, 2.0]), // Nk = 64
        ];
        for (dim, vals) in splits {
            for (prefix, v) in ["r", "q", "p", "t"].iter().zip(vals) {
                p.set(reg.get(&format!("{prefix}_{dim}")).unwrap(), v);
            }
        }
        p
    }

    fn value(space: &TilingSpace, point: &Assignment, name: &str) -> f64 {
        Signomial::var(space.registry().get(name).unwrap()).eval(point)
    }

    /// Eq. 1 of the paper: DRAM<->SRAM volumes for the Fig. 1 permutation
    /// `(is, ks, js)` — outer level order `i, k, j`.
    #[test]
    fn eq1_dram_sram_volumes() {
        let wl = matmul_workload(64, 64, 64);
        let space = TilingSpace::new(&wl);
        let (i, j, k) = (Dim(0), Dim(1), Dim(2));
        let model = TrafficModel::build(&space, &[i, j, k], &[i, k, j]);
        let point = matmul_point(&space);
        let (ni, nj, nk) = (64.0, 64.0, 64.0);
        let s_i = value(&space, &point, "r_i")
            * value(&space, &point, "q_i")
            * value(&space, &point, "p_i");
        let s_k = value(&space, &point, "r_k")
            * value(&space, &point, "q_k")
            * value(&space, &point, "p_k");

        let by_name = |n: &str| model.tensors.iter().find(|t| t.name == n).unwrap();
        assert_eq!(by_name("A").dram_sram.eval(&point), ni * nk);
        assert_eq!(by_name("B").dram_sram.eval(&point), ni * nj * nk / s_i);
        // C: read + write.
        assert_eq!(
            by_name("C").dram_sram.eval(&point),
            2.0 * ni * nj * nk / s_k
        );
    }

    /// Eq. 2 of the paper: SRAM<->register volumes for register-level
    /// permutation `i, j, k` (outer to inner).
    #[test]
    fn eq2_sram_reg_volumes() {
        let wl = matmul_workload(64, 64, 64);
        let space = TilingSpace::new(&wl);
        let (i, j, k) = (Dim(0), Dim(1), Dim(2));
        let model = TrafficModel::build(&space, &[i, j, k], &[i, k, j]);
        let point = matmul_point(&space);
        let (ni, nj, nk) = (64.0, 64.0, 64.0);
        let v = |n: &str| value(&space, &point, n);

        let by_name = |n: &str| model.tensors.iter().find(|t| t.name == n).unwrap();
        assert_eq!(
            by_name("A").sram_reg.eval(&point),
            ni * nj * nk / (v("r_j") * v("p_j")),
            "DVol_A = Ni Nj Nk / (Rj Pj)"
        );
        assert_eq!(
            by_name("B").sram_reg.eval(&point),
            ni * nj * nk / (v("r_i") * v("p_i")),
            "DVol_B = Ni Nj Nk / (Ri Pi)"
        );
        let s_k = v("r_k") * v("q_k") * v("p_k");
        assert_eq!(
            by_name("C").sram_reg.eval(&point),
            2.0 * ni * nj * nk / s_k,
            "DVol_C (both directions) = 2 Ni Nj Nk / Sk"
        );
    }

    /// Footprint sums evaluate to the familiar tile-size expressions:
    /// registers `RiRj + RiRk + RjRk`, SRAM `SiSj + SiSk + SjSk`.
    #[test]
    fn capacity_expressions_match_paper() {
        let wl = matmul_workload(64, 64, 64);
        let space = TilingSpace::new(&wl);
        let (i, j, k) = (Dim(0), Dim(1), Dim(2));
        let model = TrafficModel::build(&space, &[i, j, k], &[i, k, j]);
        let point = matmul_point(&space);
        let v = |n: &str| value(&space, &point, n);
        let (ri, rj, rk) = (v("r_i"), v("r_j"), v("r_k"));
        assert_eq!(
            model.total_register_footprint().eval(&point),
            ri * rj + ri * rk + rj * rk
        );
        let s = |d: &str| v(&format!("r_{d}")) * v(&format!("q_{d}")) * v(&format!("p_{d}"));
        let (si, sj, sk) = (s("i"), s("j"), s("k"));
        assert_eq!(
            model.total_sram_footprint().eval(&point),
            si * sj + si * sk + sj * sk
        );
    }

    #[test]
    fn pe_product_spans_all_tiled_dims() {
        let wl = matmul_workload(64, 64, 64);
        let space = TilingSpace::new(&wl);
        let (i, j, k) = (Dim(0), Dim(1), Dim(2));
        let model = TrafficModel::build(&space, &[i, j, k], &[i, k, j]);
        let point = matmul_point(&space);
        assert_eq!(model.pe_product.eval(&point), 4.0 * 2.0 * 2.0);
    }

    /// Permutation choice changes traffic: placing the reduction loop `k`
    /// innermost at the outer level hoists A's copies differently than
    /// placing `j` innermost.
    #[test]
    fn permutation_changes_volumes() {
        let wl = matmul_workload(64, 64, 64);
        let space = TilingSpace::new(&wl);
        let (i, j, k) = (Dim(0), Dim(1), Dim(2));
        let m_kj = TrafficModel::build(&space, &[i, j, k], &[i, k, j]);
        let m_jk = TrafficModel::build(&space, &[i, j, k], &[i, j, k]);
        let point = matmul_point(&space);
        let a_kj = m_kj.tensors[0].dram_sram.eval(&point);
        let a_jk = m_jk.tensors[0].dram_sram.eval(&point);
        assert_ne!(a_kj, a_jk);
        // With k innermost, A (which uses k) cannot hoist: Ni*Nk.
        // With j innermost, A hoists past j: still Ni*Nk? No - then k
        // surrounds the copy, repeating it t_j times less... verify both
        // against first principles:
        let v = |n: &str| value(&space, &point, n);
        assert_eq!(a_kj, 64.0 * 64.0);
        // perm (i,j,k): k innermost present -> copy inside t_j too:
        // DV = Si*Sk * t_k * t_j * t_i = Ni*Nk*t_j.
        assert_eq!(a_jk, 64.0 * 64.0 * v("t_j"));
    }
}
