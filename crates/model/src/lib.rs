//! Analytical modeling of multi-level tiled CNN dataflows and automatic
//! generation of the corresponding geometric programs (the core of the
//! paper's Section III).
//!
//! The flow, bottom to top:
//!
//! 1. [`workload`] describes a perfectly nested loop computation abstractly:
//!    iteration dimensions with extents, and tensors whose data dimensions
//!    are linear combinations of iteration dims (`In[n][c][x*h+r][y*w+s]`).
//!    [`ConvLayer`] and [`matmul_workload`] provide the two workloads the
//!    paper uses.
//! 2. [`space`] assigns one trip-count variable per (tiling level, tiled
//!    dimension) — the paper's lower-case `r/q/p/t` convention — with
//!    monomial equalities `r_d q_d p_d t_d = N_d`.
//! 3. [`footprint`] implements Algorithm 1: symbolic data-footprint (`DF`)
//!    and data-volume (`DV`) expressions per tensor per level, with copy
//!    hoisting past absent iterators and multicast discounting at the
//!    spatial level.
//! 4. [`volumes`] composes per-level `DV`s into total SRAM<->register and
//!    DRAM<->SRAM traffic for a given pair of loop permutations.
//! 5. [`perms`] enumerates permutations of the temporal tile loops and prunes
//!    them to hoist-signature equivalence classes (plus H/W symmetry).
//! 6. [`problem_gen`] assembles the energy- or delay-minimization geometric
//!    program (Eq. 3 / Eq. 5 of the paper) for a fixed architecture or for
//!    architecture-dataflow co-design.
//!
//! # Examples
//!
//! Generate and solve the energy GP for one ResNet layer on Eyeriss:
//!
//! ```
//! use thistle_arch::{ArchConfig, Bandwidths, TechnologyParams};
//! use thistle_model::{ArchMode, ConvLayer, Objective, ProblemGenerator};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let layer = ConvLayer::new("conv", 1, 64, 64, 56, 56, 3, 3, 1);
//! let gen = ProblemGenerator::new(
//!     layer.workload(),
//!     TechnologyParams::cgo2022_45nm(),
//!     Bandwidths::default(),
//! );
//! let classes = gen.permutation_classes();
//! assert!(!classes.is_empty());
//! let (perm1, perm3) = classes[0].clone();
//! let gp = gen.generate(
//!     &perm1,
//!     &perm3,
//!     Objective::Energy,
//!     &ArchMode::Fixed(ArchConfig::eyeriss()),
//! )?;
//! let sol = gp.problem.solve(&Default::default())?;
//! assert!(sol.objective > 0.0);
//! # Ok(())
//! # }
//! ```

pub mod footprint;
pub mod perms;
pub mod problem_gen;
pub mod space;
pub mod volumes;
pub mod workload;

pub use problem_gen::{
    ArchMode, ArchVars, CoDesignSpec, GeneratedGp, Objective, PermPair, ProblemGenerator,
    RegisterCostModel,
};
pub use space::{Level, TilingSpace, TripCount};
pub use workload::{matmul_workload, ConvLayer, Dim, DimSpec, LayerError, TensorAccess, Workload};
