//! Symbolic expression engine for Thistle's analytical accelerator models.
//!
//! The data-footprint and data-volume expressions that drive Thistle's
//! geometric programs are built from three layers of structure over a set of
//! strictly positive real variables (trip counts, capacities, ...):
//!
//! * [`Monomial`] — `c * x1^a1 * x2^a2 * ...` with `c > 0` and real exponents.
//! * [`Posynomial`] — a sum of monomials (all coefficients positive). These
//!   are the only expressions a geometric program may contain.
//! * [`Signomial`] — a sum of monomials whose coefficients may be negative.
//!   Convolution footprints such as `x*H_t + R_t - x` are signomials; the
//!   solver uses their posynomial upper bound
//!   ([`Signomial::posynomial_upper_bound`]).
//!
//! Variables are interned in a [`VarRegistry`]; expressions refer to them by
//! the lightweight copyable handle [`Var`].
//!
//! The model builds Algorithm 1's footprint and volume expressions with
//! these types' own operators: `+`, `*`, [`Signomial::mul_monomial`] and
//! [`Signomial::substitute`].
//!
//! # Examples
//!
//! ```
//! use thistle_expr::{VarRegistry, Posynomial};
//!
//! let mut reg = VarRegistry::new();
//! let x = reg.var("x");
//! let y = reg.var("y");
//!
//! // f = 2*x*y + y^2
//! let f = Posynomial::from_var(x) * Posynomial::from_var(y) * 2.0
//!     + Posynomial::from_var(y).pow_i(2);
//! let mut point = reg.assignment();
//! point.set(x, 3.0);
//! point.set(y, 5.0);
//! assert_eq!(f.eval(&point), 2.0 * 3.0 * 5.0 + 25.0);
//! assert_eq!(reg.render(&f.to_signomial()), "2*x*y + y^2");
//! ```

#![deny(missing_docs)]

mod assignment;
mod monomial;
mod posynomial;
mod signomial;
mod var;

pub use assignment::Assignment;
pub use monomial::Monomial;
pub use posynomial::Posynomial;
pub use signomial::Signomial;
pub use var::{Var, VarRegistry};

/// Tolerance used when canonicalizing expressions (dropping ~zero terms and
/// ~zero exponents produced by cancellation).
pub(crate) const CANON_EPS: f64 = 1e-12;

#[cfg(test)]
mod proptests;
