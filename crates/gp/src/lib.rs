//! A from-scratch geometric programming (GP) solver.
//!
//! Thistle's dataflow and co-design optimization problems are Disciplined
//! Geometric Programs: minimize a posynomial subject to posynomial
//! inequalities (`f(x) <= 1`) and monomial equalities (`m(x) = 1`) over
//! strictly positive variables. The paper solves them with CVXPY; this crate
//! implements the equivalent machinery natively:
//!
//! 1. the **log-log transform** `y = log x`, under which monomials become
//!    affine functions and posynomials become log-sum-exp (smooth convex)
//!    functions ([`transform`](TransformedProblem));
//! 2. a **phase-I / phase-II barrier interior-point method** with
//!    equality-constrained Newton steps;
//! 3. the **dense linear algebra** those Newton steps need ([`linalg`]).
//!
//! Problems in this repository are small (tens of variables, tens of
//! constraints, hundreds of monomials), so dense factorizations are the right
//! tool.
//!
//! # Examples
//!
//! Minimize `x + y` subject to `x*y >= 8` (optimum `x = y = sqrt(8)`):
//!
//! ```
//! use thistle_expr::{Monomial, Posynomial, VarRegistry};
//! use thistle_gp::GpProblem;
//!
//! # fn main() -> Result<(), thistle_gp::GpError> {
//! let mut reg = VarRegistry::new();
//! let x = reg.var("x");
//! let y = reg.var("y");
//! let mut prob = GpProblem::new(reg);
//! prob.set_objective(Posynomial::from_var(x) + Posynomial::from_var(y));
//! // x*y >= 8  <=>  8 / (x*y) <= 1
//! prob.add_le(
//!     Posynomial::from(Monomial::new(8.0, [(x, -1.0), (y, -1.0)])),
//!     Monomial::one(),
//! );
//! let sol = prob.solve(&Default::default())?;
//! assert!((sol.objective - 2.0 * 8.0f64.sqrt()).abs() < 1e-4);
//! # Ok(())
//! # }
//! ```

mod deadline;
pub mod linalg;
mod problem;
mod solver;
mod transform;

pub use deadline::Deadline;
pub use problem::{content_fingerprint, GpProblem, SolveOptions};
pub use solver::{GpError, PhaseOnePoint, RecoveryInfo, RecoveryRung, Solution, SolveStatus};
pub use transform::{LogSumExp, LseScratch, TransformedProblem};

#[cfg(test)]
mod known_problems;
