//! The analytical accelerator model: deterministic per-level access counts,
//! energy, and delay for one (problem, architecture, mapping) triple.
//!
//! Counting semantics (matching generated tiled code, validated against the
//! explicit simulator in [`crate::sim`]):
//!
//! * A tensor's copy into a level's buffer is hoisted outward past loops
//!   whose iterator is absent from the tensor, and lands just above the
//!   innermost *present* loop; the copied strip spans that loop's full range.
//! * On the SRAM side of the PE array, a word needed by several PEs along
//!   absent spatial dimensions is read once and multicast; each PE still
//!   writes its own register copy.
//! * Read-write tensors move in both directions at every boundary, and add
//!   one register read *and* write per MAC (the `4 eps_R + eps_op` term).
//!
//! An evaluation splits into a **count** and a **price**. [`Traffic::count`]
//! derives everything that reads only the problem and the mapping: validity,
//! register and SRAM footprint needs, PEs used, per-level reads and writes,
//! and the per-PE register-port traffic. It allocates nothing on success.
//! [`Traffic::evaluate`] then applies one architecture: the capacity checks,
//! per-access energies and bandwidths. A caller scoring one mapping under
//! many architectures counts once and prices each; [`evaluate`] is exactly
//! one count followed by one price, so both paths give the same bits.

use crate::arch::ArchSpec;
use crate::mapping::{Mapping, MappingError};
use crate::problem::{DataSpace, ProblemSpec};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Access counters and energy for one memory level.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LevelStats {
    /// Level name (`regfile`, `sram`, `dram`).
    pub name: String,
    /// Word reads.
    pub reads: f64,
    /// Word writes.
    pub writes: f64,
    /// Energy attributed to this level, pJ.
    pub energy_pj: f64,
}

impl LevelStats {
    /// Total accesses (reads + writes).
    pub fn accesses(&self) -> f64 {
        self.reads + self.writes
    }
}

/// The model's verdict for one mapping.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalResult {
    /// Total energy, pJ.
    pub energy_pj: f64,
    /// Execution cycles (max over compute and bandwidth components).
    pub cycles: f64,
    /// MAC operations.
    pub macs: u64,
    /// Energy per MAC, pJ.
    pub pj_per_mac: f64,
    /// MACs per cycle.
    pub ipc: f64,
    /// PEs the mapping occupies.
    pub pe_used: u64,
    /// `pe_used / arch.pe_count`.
    pub utilization: f64,
    /// Per-level statistics: `[regfile, sram, dram]`.
    pub levels: Vec<LevelStats>,
}

/// Why a mapping could not be evaluated.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// Structurally invalid mapping.
    Invalid(MappingError),
    /// Register-file footprint exceeds capacity.
    RegisterCapacity {
        /// Words required per PE.
        need: u64,
        /// Words available per PE.
        have: u64,
    },
    /// SRAM footprint exceeds capacity.
    SramCapacity {
        /// Words required.
        need: u64,
        /// Words available.
        have: u64,
    },
    /// Spatial fan-out exceeds the PE array.
    PeCount {
        /// PEs required.
        need: u64,
        /// PEs available.
        have: u64,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Invalid(e) => write!(f, "{e}"),
            EvalError::RegisterCapacity { need, have } => {
                write!(f, "register footprint {need} exceeds capacity {have}")
            }
            EvalError::SramCapacity { need, have } => {
                write!(f, "SRAM footprint {need} exceeds capacity {have}")
            }
            EvalError::PeCount { need, have } => {
                write!(f, "mapping needs {need} PEs, array has {have}")
            }
        }
    }
}

impl std::error::Error for EvalError {}

impl From<MappingError> for EvalError {
    fn from(e: MappingError) -> Self {
        EvalError::Invalid(e)
    }
}

/// Fill traffic of one tensor at one temporal level: the words of one copied
/// strip and the number of copies per execution of the enclosing levels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FillPattern {
    /// Words moved by one copy operation.
    pub copy_words: u64,
    /// Copies per enclosing-level iteration.
    pub copies: u64,
}

impl FillPattern {
    /// Total words per enclosing-level iteration.
    pub fn words(&self) -> u64 {
        self.copy_words * self.copies
    }
}

/// Computes the hoisted fill pattern of `ds` for the loops of one temporal
/// level: `base_tile(d)` is the extent along dim `d` of the tile fed from
/// below, `factors` the level's per-dimension trip counts, `perm` its loop
/// order (outermost first). Unit loops do not exist in generated code and
/// are skipped.
pub fn fill_pattern(
    ds: &DataSpace,
    base_tile: impl Fn(usize) -> u64,
    factors: &[u64],
    perm: &[usize],
) -> FillPattern {
    let exists = |d: usize| factors[d] > 1;
    // Innermost present loop: the copy lands just above it.
    match perm.iter().rposition(|&d| exists(d) && ds.uses(d)) {
        None => FillPattern {
            // Copy hoisted above the whole level: one copy of the base tile.
            copy_words: ds.footprint_with(base_tile),
            copies: 1,
        },
        Some(pos) => {
            // The copied strip spans the placement loop's whole range.
            let dstar = perm[pos];
            FillPattern {
                copy_words: ds.footprint_with(|d| {
                    if d == dstar {
                        base_tile(d) * factors[d]
                    } else {
                        base_tile(d)
                    }
                }),
                copies: perm[..pos]
                    .iter()
                    .filter(|&&d| exists(d))
                    .map(|&d| factors[d])
                    .product(),
            }
        }
    }
}

/// Per-tensor traffic at the two memory boundaries, before multicast and
/// outer-iteration scaling — exposed for the simulator cross-check.
#[derive(Debug, Clone, PartialEq)]
pub struct TensorTraffic {
    /// Tensor name.
    pub name: String,
    /// Words one PE pulls from SRAM into registers per SRAM tile.
    pub reg_fill_words_per_pe_per_tile: u64,
    /// Words written into SRAM from DRAM over the whole execution.
    pub sram_fill_words_total: u64,
    /// Spatial multicast divisor's complement: PEs needing distinct data.
    pub spatial_distinct: u64,
}

/// Extent along dim `d` of the register tile of `m`.
fn register_tile(m: &Mapping, d: usize) -> u64 {
    m.register_factors[d]
}

/// Extent along dim `d` of the SRAM tile of `m` (everything below the outer
/// loops).
fn sram_tile(m: &Mapping, d: usize) -> u64 {
    m.register_factors[d] * m.pe_temporal_factors[d] * m.spatial_factors[d]
}

/// The register words one PE needs and the SRAM words needed by a valid
/// mapping: every tensor's tile at that level, summed. These are the needs
/// [`Traffic::fits`] checks. They read only the factors, never a loop order.
///
/// # Panics
///
/// Panics if a factor list is shorter than the dimensions `prob` references,
/// which [`Mapping::validate`] rules out.
pub fn capacity_needs(prob: &ProblemSpec, mapping: &Mapping) -> (u64, u64) {
    let need = |tile: fn(&Mapping, usize) -> u64| -> u64 {
        prob.data_spaces
            .iter()
            .map(|ds| ds.footprint_with(|d| tile(mapping, d)))
            .sum()
    };
    (need(register_tile), need(sram_tile))
}

/// The compute component of [`Traffic::cycles`]: `macs` spread over
/// `pe_used` PEs. It reads no loop order and no architecture, and the cycles
/// are a `max` over it, so it is a floor on them, bit for bit.
pub fn compute_cycles(macs: u64, pe_used: u64) -> f64 {
    macs as f64 / pe_used as f64
}

/// One tensor's counts for a validated mapping, the single counting helper
/// behind [`tensor_traffic`] and [`Traffic::count`]: register fill words per
/// PE per SRAM tile, SRAM fill words in total, and the PEs needing distinct
/// data.
fn count_tensor(ds: &DataSpace, m: &Mapping) -> (u64, u64, u64) {
    let reg = fill_pattern(
        ds,
        |d| register_tile(m, d),
        &m.pe_temporal_factors,
        &m.pe_temporal_perm,
    );
    let sram = fill_pattern(ds, |d| sram_tile(m, d), &m.outer_factors, &m.outer_perm);
    let spatial_distinct = (0..m.spatial_factors.len())
        .filter(|&d| ds.uses(d))
        .map(|d| m.spatial_factors[d])
        .product();
    (reg.words(), sram.words(), spatial_distinct)
}

/// Computes the per-tensor traffic patterns for a validated mapping.
pub fn tensor_traffic(prob: &ProblemSpec, mapping: &Mapping) -> Vec<TensorTraffic> {
    prob.data_spaces
        .iter()
        .map(|ds| {
            let (reg_fill, sram_fill, spatial_distinct) = count_tensor(ds, mapping);
            TensorTraffic {
                name: ds.name.clone(),
                reg_fill_words_per_pe_per_tile: reg_fill,
                sram_fill_words_total: sram_fill,
                spatial_distinct,
            }
        })
        .collect()
}

/// Word reads and writes at one memory level.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Accesses {
    reads: f64,
    writes: f64,
}

impl Accesses {
    fn total(&self) -> f64 {
        self.reads + self.writes
    }

    fn stats(&self, name: &str, energy_per_access_pj: f64) -> LevelStats {
        LevelStats {
            name: name.into(),
            reads: self.reads,
            writes: self.writes,
            energy_pj: self.total() * energy_per_access_pj,
        }
    }
}

/// The architecture-free half of an evaluation: everything the model derives
/// from the problem and the mapping alone. Count it once with
/// [`Traffic::count`], then price it under any number of architectures with
/// [`Traffic::evaluate`] (or [`Traffic::fits`] and the formulas it guards).
#[derive(Debug, Clone, PartialEq)]
pub struct Traffic {
    macs: u64,
    /// Register words one PE needs (all tensors' register tiles).
    reg_need: u64,
    /// SRAM words needed (all tensors' SRAM tiles).
    sram_need: u64,
    pe_used: u64,
    reg: Accesses,
    sram: Accesses,
    dram: Accesses,
    /// Words one PE moves through its register port, for the bandwidth
    /// component of the delay.
    reg_fill_per_pe: f64,
}

impl Traffic {
    /// Validates `mapping` and counts its capacity needs and per-level
    /// accesses. Allocates nothing unless the mapping is invalid.
    ///
    /// # Errors
    ///
    /// Returns the [`MappingError`] of a structurally invalid mapping.
    pub fn count(prob: &ProblemSpec, mapping: &Mapping) -> Result<Traffic, MappingError> {
        mapping.validate(prob)?;
        let (reg_need, sram_need) = capacity_needs(prob, mapping);
        let mut t = Traffic {
            macs: prob.macs(),
            reg_need,
            sram_need,
            pe_used: mapping.pe_count(),
            reg: Accesses::default(),
            sram: Accesses::default(),
            dram: Accesses::default(),
            reg_fill_per_pe: 0.0,
        };
        let macs = t.macs as f64;
        let pe_used = t.pe_used as f64;
        let outer_iters: f64 = mapping.outer_factors.iter().product::<u64>() as f64;
        for ds in &prob.data_spaces {
            let (reg_fill, sram_fill, spatial_distinct) = count_tensor(ds, mapping);
            // MAC-operand accesses at the register file.
            t.reg.reads += macs;
            if ds.read_write {
                t.reg.writes += macs;
            }

            // SRAM -> register fills (and drains for read-write tensors).
            let per_pe_total = reg_fill as f64 * outer_iters;
            let directions = if ds.read_write { 2.0 } else { 1.0 };
            t.reg.writes += per_pe_total * pe_used;
            t.sram.reads += per_pe_total * spatial_distinct as f64;
            if ds.read_write {
                t.reg.reads += per_pe_total * pe_used;
                t.sram.writes += per_pe_total * spatial_distinct as f64;
            }
            t.reg_fill_per_pe += per_pe_total * directions;

            // DRAM -> SRAM fills (and drains).
            let dram_total = sram_fill as f64;
            t.dram.reads += dram_total;
            t.sram.writes += dram_total;
            if ds.read_write {
                t.dram.writes += dram_total;
                t.sram.reads += dram_total;
            }
        }
        Ok(t)
    }

    /// Checks the counted needs against `arch`: register file, then SRAM,
    /// then PE array.
    ///
    /// # Errors
    ///
    /// Returns the first capacity the mapping exceeds.
    pub fn fits(&self, arch: &ArchSpec) -> Result<(), EvalError> {
        if self.reg_need > arch.regs_per_pe {
            return Err(EvalError::RegisterCapacity {
                need: self.reg_need,
                have: arch.regs_per_pe,
            });
        }
        if self.sram_need > arch.sram_words {
            return Err(EvalError::SramCapacity {
                need: self.sram_need,
                have: arch.sram_words,
            });
        }
        if self.pe_used > arch.pe_count {
            return Err(EvalError::PeCount {
                need: self.pe_used,
                have: arch.pe_count,
            });
        }
        Ok(())
    }

    /// Total energy under `arch`, pJ: MACs plus every level's accesses at
    /// its per-access energy. Equals [`EvalResult::energy_pj`].
    pub fn energy_pj(&self, arch: &ArchSpec) -> f64 {
        self.macs as f64 * arch.mac_energy_pj
            + self.reg.total() * arch.reg_energy_pj
            + self.sram.total() * arch.sram_energy_pj
            + self.dram.total() * arch.dram_energy_pj
    }

    /// Execution cycles under `arch`: the slowest of compute and the three
    /// bandwidth components. Equals [`EvalResult::cycles`].
    pub fn cycles(&self, arch: &ArchSpec) -> f64 {
        let bw = &arch.bandwidths;
        let compute_cycles = compute_cycles(self.macs, self.pe_used);
        let sram_cycles = self.sram.total() / bw.sram_words_per_cycle;
        let dram_cycles = self.dram.total() / bw.dram_words_per_cycle;
        let reg_cycles = self.reg_fill_per_pe / bw.reg_words_per_cycle_per_pe;
        compute_cycles
            .max(sram_cycles)
            .max(dram_cycles)
            .max(reg_cycles)
    }

    /// `pe_used / arch.pe_count`. Equals [`EvalResult::utilization`].
    pub fn utilization(&self, arch: &ArchSpec) -> f64 {
        self.pe_used as f64 / arch.pe_count as f64
    }

    /// Prices the counted traffic under `arch`.
    ///
    /// # Errors
    ///
    /// Returns the [`EvalError`] of [`Traffic::fits`].
    pub fn evaluate(&self, arch: &ArchSpec) -> Result<EvalResult, EvalError> {
        self.fits(arch)?;
        let macs = self.macs as f64;
        let energy_pj = self.energy_pj(arch);
        let cycles = self.cycles(arch);
        Ok(EvalResult {
            energy_pj,
            cycles,
            macs: self.macs,
            pj_per_mac: energy_pj / macs,
            ipc: macs / cycles,
            pe_used: self.pe_used,
            utilization: self.utilization(arch),
            levels: vec![
                self.reg.stats("regfile", arch.reg_energy_pj),
                self.sram.stats("sram", arch.sram_energy_pj),
                self.dram.stats("dram", arch.dram_energy_pj),
            ],
        })
    }
}

/// [`evaluate`] under a `"tl_evaluate"` trace span carrying the verdict and
/// headline numbers. Use at low-frequency call sites (final rescoring, adapt
/// paths) — per-candidate loops should aggregate instead.
pub fn evaluate_traced(
    prob: &ProblemSpec,
    arch: &ArchSpec,
    mapping: &Mapping,
    ctx: &thistle_obs::TraceCtx,
) -> Result<EvalResult, EvalError> {
    let mut span = ctx.span("tl_evaluate");
    let result = evaluate(prob, arch, mapping);
    if span.enabled() {
        match &result {
            Ok(r) => {
                span.set("feasible", true);
                span.set("energy_pj", r.energy_pj);
                span.set("cycles", r.cycles);
                span.set("utilization", r.utilization);
            }
            Err(e) => {
                span.set("feasible", false);
                span.set("error", format!("{e:?}"));
            }
        }
    }
    result
}

/// Evaluates a mapping: validity, capacities, per-level accesses, energy,
/// cycles. [`Traffic::count`] followed by [`Traffic::evaluate`].
///
/// # Errors
///
/// Returns an [`EvalError`] for invalid mappings or capacity violations.
pub fn evaluate(
    prob: &ProblemSpec,
    arch: &ArchSpec,
    mapping: &Mapping,
) -> Result<EvalResult, EvalError> {
    Traffic::count(prob, mapping)?.evaluate(arch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::MapLevel;
    use crate::problem::{conv2d, matmul};

    fn small_arch() -> ArchSpec {
        let mut a = ArchSpec::eyeriss_like();
        a.pe_count = 16;
        a.regs_per_pe = 64;
        a.sram_words = 4096;
        a
    }

    fn simple_mapping(prob: &ProblemSpec) -> Mapping {
        // 8x8x8 matmul: registers 2x2x2, pe temporal 2x1x2, spatial 2x2x1,
        // outer 1x2x2.
        let mut m = Mapping::untiled(prob);
        m.register_factors = vec![2, 2, 2];
        m.pe_temporal_factors = vec![2, 1, 2];
        m.spatial_factors = vec![2, 2, 1];
        m.outer_factors = vec![1, 2, 2];
        m
    }

    #[test]
    fn capacity_violations_are_reported() {
        let p = matmul(64, 64, 64);
        let a = small_arch();
        let m = Mapping::untiled(&p);
        match evaluate(&p, &a, &m) {
            Err(EvalError::RegisterCapacity { need, have }) => {
                assert_eq!(need, 3 * 64 * 64);
                assert_eq!(have, 64);
            }
            other => panic!("expected register capacity error, got {other:?}"),
        }
    }

    #[test]
    fn pe_overflow_is_reported() {
        let p = matmul(8, 8, 8);
        let a = small_arch();
        let mut m = simple_mapping(&p);
        m.spatial_factors = vec![8, 8, 1];
        m.pe_temporal_factors = vec![1, 1, 2];
        m.outer_factors = vec![1, 1, 2];
        m.register_factors = vec![1, 1, 2];
        m.validate(&p).unwrap();
        assert!(matches!(
            evaluate(&p, &a, &m),
            Err(EvalError::PeCount { need: 64, have: 16 })
        ));
    }

    #[test]
    fn energy_components_add_up() {
        let p = matmul(8, 8, 8);
        let a = small_arch();
        let m = simple_mapping(&p);
        let r = evaluate(&p, &a, &m).unwrap();
        let sum: f64 =
            r.levels.iter().map(|l| l.energy_pj).sum::<f64>() + r.macs as f64 * a.mac_energy_pj;
        assert!((r.energy_pj - sum).abs() < 1e-9);
        assert!((r.pj_per_mac - r.energy_pj / 512.0).abs() < 1e-12);
    }

    #[test]
    fn mac_register_accesses_are_four_per_op() {
        let p = matmul(4, 4, 4);
        let a = small_arch();
        let mut m = Mapping::untiled(&p);
        m.register_factors = vec![4, 4, 4];
        // Tiny enough to fit: footprint 3*16 = 48 <= 64.
        let r = evaluate(&p, &a, &m).unwrap();
        let reg = &r.levels[0];
        // 3 reads + 1 write per MAC, plus one initial fill of each tensor and
        // one drain of C.
        let macs = 64.0;
        assert!(reg.reads >= 3.0 * macs && reg.writes >= macs);
        let fills = 16.0 + 16.0 + 16.0 + 16.0; // A, B, C in; C out
        assert!((reg.accesses() - (4.0 * macs + fills)).abs() < 1e-9);
    }

    #[test]
    fn ipc_is_bounded_by_pe_count() {
        let p = matmul(64, 64, 64);
        let a = ArchSpec::eyeriss_like();
        let mut m = Mapping::untiled(&p);
        m.register_factors = vec![4, 4, 4];
        m.pe_temporal_factors = vec![2, 2, 4];
        m.spatial_factors = vec![4, 4, 1];
        m.outer_factors = vec![2, 2, 4];
        let r = evaluate(&p, &a, &m).unwrap();
        assert!(r.ipc <= 16.0 + 1e-9);
        assert_eq!(r.pe_used, 16);
    }

    #[test]
    fn multicast_reduces_sram_reads() {
        // Same mapping except A's absent dim (j) is spatial: SRAM reads for A
        // must not scale with p_j.
        let p = matmul(16, 16, 16);
        let a = small_arch();
        let mut m1 = Mapping::untiled(&p);
        m1.register_factors = vec![2, 2, 4];
        m1.pe_temporal_factors = vec![2, 2, 4];
        m1.spatial_factors = vec![1, 4, 1]; // j spatial: multicast for A
        m1.outer_factors = vec![4, 1, 1];
        m1.validate(&p).unwrap();
        let mut m2 = m1.clone();
        m2.spatial_factors = vec![4, 1, 1]; // i spatial: A distributed
        m2.outer_factors = vec![1, 4, 1];
        m2.validate(&p).unwrap();
        let t1 = tensor_traffic(&p, &m1);
        let t2 = tensor_traffic(&p, &m2);
        let a1 = t1.iter().find(|t| t.name == "A").unwrap();
        let a2 = t2.iter().find(|t| t.name == "A").unwrap();
        assert_eq!(a1.spatial_distinct, 1, "A is multicast along j");
        assert_eq!(a2.spatial_distinct, 4, "A is distributed along i");
        let _ = a;
    }

    #[test]
    fn hoisting_reduces_fills() {
        // Out tensor: placing absent dim (k/reduction) innermost lets the
        // copy hoist past it.
        let p = matmul(8, 8, 8);
        let mut m = Mapping::untiled(&p);
        m.register_factors = vec![2, 2, 2];
        m.pe_temporal_factors = vec![4, 4, 4];
        m.outer_factors = vec![1, 1, 1];
        m.spatial_factors = vec![1, 1, 1];

        // k innermost: C copy hoists past k.
        m.pe_temporal_perm = vec![0, 1, 2];
        let hoisted = tensor_traffic(&p, &m)
            .into_iter()
            .find(|t| t.name == "C")
            .unwrap();
        // k outermost: C copy repeats for each k.
        m.pe_temporal_perm = vec![2, 0, 1];
        let repeated = tensor_traffic(&p, &m)
            .into_iter()
            .find(|t| t.name == "C")
            .unwrap();
        assert_eq!(
            repeated.reg_fill_words_per_pe_per_tile,
            4 * hoisted.reg_fill_words_per_pe_per_tile
        );
    }

    #[test]
    fn conv_halo_counts_in_register_capacity() {
        let p = conv2d("t", 1, 4, 4, 8, 8, 3, 3, 1);
        let a = small_arch();
        let mut m = Mapping::untiled(&p);
        // Register tile: k=1, c=1, h=2, w=2 (+3x3 kernel resident).
        m.register_factors = vec![1, 1, 1, 3, 3, 2, 2];
        m.pe_temporal_factors = vec![1, 4, 4, 1, 1, 2, 2];
        m.spatial_factors = vec![1, 1, 1, 1, 1, 2, 2];
        m.outer_factors = vec![1, 1, 1, 1, 1, 1, 1];
        m.validate(&p).unwrap();
        let r = evaluate(&p, &a, &m).unwrap();
        assert!(r.energy_pj > 0.0);
        // In footprint at register: (2+2)*(2+2) = 16; Ker 9; Out 4.
        let t0 = m.tile_through(MapLevel::Register);
        assert_eq!(p.data_spaces[0].footprint(&t0), 16);
        assert_eq!(p.data_spaces[1].footprint(&t0), 9);
        assert_eq!(p.data_spaces[2].footprint(&t0), 4);
    }
}
