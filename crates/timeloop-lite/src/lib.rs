//! An analytical accelerator model and mapping-space explorer in the mold of
//! Timeloop.
//!
//! The paper uses Timeloop in two roles, both reproduced here:
//!
//! * **Model** ([`model`]): given a problem, an architecture, and a mapping,
//!   deterministically count per-level memory accesses (with copy hoisting
//!   and spatial multicast), check buffer capacities, and report energy,
//!   cycles, and MAC IPC. The counting arithmetic is validated against an
//!   explicit loop-nest simulator ([`sim`]) that enumerates iterations one by
//!   one.
//! * **Mapper** ([`mapper`]): a multi-threaded randomized search over the
//!   mapping space (divisor factorizations x loop permutations) with
//!   timeout and victory-condition termination, mirroring Timeloop Mapper's
//!   interface. This is the baseline Thistle is compared against in
//!   Figs. 4 and 7.
//!
//! Specs mirror Timeloop's three input documents (Fig. 3 of the paper):
//! problem ([`problem::ProblemSpec`]), architecture ([`arch::ArchSpec`]),
//! and mapping ([`mapping::Mapping`]); [`emit`] renders them in the
//! Timeloop YAML style.
//!
//! # Examples
//!
//! ```
//! use timeloop_lite::{arch::ArchSpec, mapping::Mapping, model, problem};
//!
//! // C[i][j] += A[i][k] * B[k][j], 64^3.
//! let prob = problem::matmul(64, 64, 64);
//! let arch = ArchSpec::eyeriss_like();
//! let mapping = Mapping::untiled(&prob); // everything in one register tile
//! // An untiled mapping busts the register file; the model reports it.
//! assert!(model::evaluate(&prob, &arch, &mapping).is_err());
//! ```

pub mod arch;
pub mod codegen;
pub mod emit;
pub mod gamma;
pub mod mapper;
pub mod mapping;
pub mod model;
pub mod parse;
pub mod problem;
pub mod sim;

pub use arch::ArchSpec;
pub use gamma::{GammaOptions, GammaResult, GeneticMapper};
pub use mapper::{Mapper, MapperOptions, MapperResult};
pub use mapping::Mapping;
pub use model::{
    capacity_needs, compute_cycles, evaluate, evaluate_traced, EvalError, EvalResult, Traffic,
};
pub use problem::ProblemSpec;
