//! Monomials: positive coefficient times a product of variable powers.

use crate::{Assignment, Var, CANON_EPS};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::ops::{Div, Mul};

/// Quantization factor for exponent comparison: exponents in our models are
/// small rationals, so rounding to multiples of `2^-32` makes like terms
/// produced by identical algebra compare equal.
const KEY_SCALE: f64 = 4294967296.0;

/// Quantizes one exponent for like-term comparison.
#[inline]
fn quantize(a: f64) -> i64 {
    (a * KEY_SCALE).round() as i64
}

/// A monomial `c * x1^a1 * ... * xn^an` with coefficient `c > 0` and real
/// exponents, the atom of geometric programming.
///
/// Monomials are closed under multiplication, division, and real powers.
/// The exponents are stored as a single sorted `(Var, f64)` run, so
/// iteration is a cache-friendly slice walk rather than a pointer chase.
///
/// # Examples
///
/// ```
/// use thistle_expr::{Monomial, VarRegistry};
/// let mut reg = VarRegistry::new();
/// let x = reg.var("x");
/// let y = reg.var("y");
/// let m = Monomial::var(x) * Monomial::var(y).powf(2.0) * 3.0; // 3*x*y^2
/// let mut point = reg.assignment();
/// point.set(x, 2.0);
/// point.set(y, 4.0);
/// assert_eq!(m.eval(&point), 3.0 * 2.0 * 16.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Monomial {
    coeff: f64,
    /// Sorted by `Var`, no duplicates, no ~zero exponents.
    exponents: Vec<(Var, f64)>,
}

impl Monomial {
    /// The constant monomial `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is not finite and strictly positive.
    pub fn constant(c: f64) -> Self {
        assert!(
            c.is_finite() && c > 0.0,
            "monomial coefficients must be finite and positive, got {c}"
        );
        Monomial {
            coeff: c,
            exponents: Vec::new(),
        }
    }

    /// The monomial `x` for a single variable.
    pub fn var(v: Var) -> Self {
        Monomial {
            coeff: 1.0,
            exponents: vec![(v, 1.0)],
        }
    }

    /// Builds `c * prod_i v_i^{a_i}` directly.
    ///
    /// Duplicate variables accumulate their exponents; exponents that cancel
    /// to ~zero are dropped.
    ///
    /// # Panics
    ///
    /// Panics if `c` is not finite and strictly positive.
    pub fn new(c: f64, powers: impl IntoIterator<Item = (Var, f64)>) -> Self {
        let mut m = Monomial::constant(c);
        m.exponents.extend(powers);
        m.exponents.sort_by_key(|&(v, _)| v);
        coalesce_sorted(&mut m.exponents);
        m
    }

    /// The multiplicative identity `1`.
    pub fn one() -> Self {
        Monomial::constant(1.0)
    }

    /// The coefficient `c`.
    pub fn coeff(&self) -> f64 {
        self.coeff
    }

    /// The exponent of `v` (zero if absent).
    pub fn exponent(&self, v: Var) -> f64 {
        match self.exponents.binary_search_by_key(&v, |&(w, _)| w) {
            Ok(i) => self.exponents[i].1,
            Err(_) => 0.0,
        }
    }

    /// Iterates over `(variable, exponent)` pairs in variable order.
    pub fn powers(&self) -> impl Iterator<Item = (Var, f64)> + '_ {
        self.exponents.iter().copied()
    }

    /// Whether this monomial mentions `v` with a nonzero exponent.
    pub fn contains(&self, v: Var) -> bool {
        self.exponents.binary_search_by_key(&v, |&(w, _)| w).is_ok()
    }

    /// Whether this is a pure constant (no variables).
    pub fn is_constant(&self) -> bool {
        self.exponents.is_empty()
    }

    /// Evaluates the monomial at a point.
    pub fn eval(&self, point: &Assignment) -> f64 {
        let mut acc = self.coeff;
        for &(v, a) in &self.exponents {
            acc *= point.get(v).powf(a);
        }
        acc
    }

    /// Raises the monomial to a real power.
    ///
    /// Monomials are closed under arbitrary real powers because the
    /// coefficient is positive.
    pub fn powf(&self, p: f64) -> Self {
        let mut out = Monomial::constant(self.coeff.powf(p));
        out.exponents
            .extend(self.exponents.iter().map(|&(v, a)| (v, a * p)));
        out.exponents.retain(|&(_, a)| a.abs() > CANON_EPS);
        out
    }

    /// The reciprocal `1/m`.
    pub fn recip(&self) -> Self {
        self.powf(-1.0)
    }

    /// Multiplies the coefficient by `c`.
    ///
    /// # Panics
    ///
    /// Panics if the resulting coefficient would not be positive and finite.
    pub fn scale(&self, c: f64) -> Self {
        let mut out = self.clone();
        out.coeff *= c;
        assert!(
            out.coeff.is_finite() && out.coeff > 0.0,
            "scaling produced a non-positive coefficient"
        );
        out
    }

    /// Substitutes `replacement` for every occurrence of `v`: if the exponent
    /// of `v` is `a`, the result is multiplied by `replacement^a` with `v`
    /// removed.
    ///
    /// This is the primitive behind Algorithm 1's
    /// `replace(expr, c_lower, c_upper * c_lower)` rewriting step.
    pub fn substitute(&self, v: Var, replacement: &Monomial) -> Self {
        match self.exponents.binary_search_by_key(&v, |&(w, _)| w) {
            Err(_) => self.clone(),
            Ok(i) => {
                let a = self.exponents[i].1;
                let mut base = self.clone();
                base.exponents.remove(i);
                &base * &replacement.powf(a)
            }
        }
    }

    /// Key identifying the variable part (ignoring the coefficient); two
    /// monomials with equal keys are like terms. Production code uses the
    /// allocation-free [`Monomial::key_cmp`]; this materialized form remains
    /// for tests that compare or collect keys.
    #[cfg(test)]
    pub(crate) fn term_key(&self) -> Vec<(Var, i64)> {
        self.exponents
            .iter()
            .map(|&(v, a)| (v, quantize(a)))
            .collect()
    }

    /// Allocation-free ordering on quantized variable parts; equal order
    /// means like terms. This is the comparison [`crate::Signomial`] sorts
    /// by during canonicalization.
    pub(crate) fn key_cmp(&self, other: &Monomial) -> Ordering {
        let mut lhs = self.exponents.iter();
        let mut rhs = other.exponents.iter();
        loop {
            match (lhs.next(), rhs.next()) {
                (None, None) => return Ordering::Equal,
                (None, Some(_)) => return Ordering::Less,
                (Some(_), None) => return Ordering::Greater,
                (Some(&(va, aa)), Some(&(vb, ab))) => {
                    let ord = va.cmp(&vb).then_with(|| quantize(aa).cmp(&quantize(ab)));
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
            }
        }
    }
}

/// Merges duplicate variables in a sorted run (summing exponents in
/// encounter order) and drops ~zero exponents.
fn coalesce_sorted(run: &mut Vec<(Var, f64)>) {
    let mut write = 0usize;
    for read in 0..run.len() {
        if write > 0 && run[write - 1].0 == run[read].0 {
            run[write - 1].1 += run[read].1;
        } else {
            run[write] = run[read];
            write += 1;
        }
    }
    run.truncate(write);
    run.retain(|&(_, a)| a.abs() > CANON_EPS);
}

impl Default for Monomial {
    fn default() -> Self {
        Monomial::one()
    }
}

impl Mul for &Monomial {
    type Output = Monomial;
    fn mul(self, rhs: &Monomial) -> Monomial {
        let mut exponents = Vec::with_capacity(self.exponents.len() + rhs.exponents.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.exponents.len() && j < rhs.exponents.len() {
            let (va, aa) = self.exponents[i];
            let (vb, ab) = rhs.exponents[j];
            match va.cmp(&vb) {
                Ordering::Less => {
                    exponents.push((va, aa));
                    i += 1;
                }
                Ordering::Greater => {
                    exponents.push((vb, ab));
                    j += 1;
                }
                Ordering::Equal => {
                    let sum = aa + ab;
                    if sum.abs() > CANON_EPS {
                        exponents.push((va, sum));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        exponents.extend_from_slice(&self.exponents[i..]);
        exponents.extend_from_slice(&rhs.exponents[j..]);
        Monomial {
            coeff: self.coeff * rhs.coeff,
            exponents,
        }
    }
}

impl Mul for Monomial {
    type Output = Monomial;
    fn mul(self, rhs: Monomial) -> Monomial {
        &self * &rhs
    }
}

impl Mul<f64> for Monomial {
    type Output = Monomial;
    fn mul(self, rhs: f64) -> Monomial {
        self.scale(rhs)
    }
}

impl Div for &Monomial {
    type Output = Monomial;
    // Division delegates to multiplication by the reciprocal on purpose.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: &Monomial) -> Monomial {
        self * &rhs.recip()
    }
}

impl Div for Monomial {
    type Output = Monomial;
    fn div(self, rhs: Monomial) -> Monomial {
        &self / &rhs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VarRegistry;

    fn xy() -> (VarRegistry, Var, Var) {
        let mut reg = VarRegistry::new();
        let x = reg.var("x");
        let y = reg.var("y");
        (reg, x, y)
    }

    #[test]
    fn multiplication_adds_exponents() {
        let (_, x, y) = xy();
        let m = Monomial::new(2.0, [(x, 1.0), (y, 2.0)]);
        let n = Monomial::new(3.0, [(x, -1.0), (y, 1.0)]);
        let p = &m * &n;
        assert_eq!(p.coeff(), 6.0);
        assert_eq!(p.exponent(x), 0.0);
        assert!(!p.contains(x), "cancelled exponents must be dropped");
        assert_eq!(p.exponent(y), 3.0);
    }

    #[test]
    fn division_is_mul_by_reciprocal() {
        let (reg, x, y) = xy();
        let m = Monomial::new(6.0, [(x, 2.0)]);
        let n = Monomial::new(2.0, [(x, 1.0), (y, 1.0)]);
        let q = &m / &n;
        let mut p = reg.assignment();
        p.set(x, 3.0);
        p.set(y, 5.0);
        let expected = m.eval(&p) / n.eval(&p);
        assert!((q.eval(&p) - expected).abs() < 1e-12);
    }

    #[test]
    fn powf_handles_fractional_powers() {
        let (reg, x, _) = xy();
        let m = Monomial::new(4.0, [(x, 2.0)]);
        let r = m.powf(0.5);
        let mut p = reg.assignment();
        p.set(x, 9.0);
        assert!((r.eval(&p) - 2.0 * 9.0).abs() < 1e-12);
    }

    #[test]
    fn substitute_replaces_and_respects_power() {
        let (reg, x, y) = xy();
        // m = x^2 * y; substitute x -> 3y  => 9 y^2 * y = 9 y^3
        let m = Monomial::new(1.0, [(x, 2.0), (y, 1.0)]);
        let s = m.substitute(x, &Monomial::new(3.0, [(y, 1.0)]));
        assert!(!s.contains(x));
        assert_eq!(s.coeff(), 9.0);
        assert_eq!(s.exponent(y), 3.0);
        let mut p = reg.assignment();
        p.set(y, 2.0);
        assert_eq!(s.eval(&p), 9.0 * 8.0);
    }

    #[test]
    fn substitute_absent_variable_is_identity() {
        let (_, x, y) = xy();
        let m = Monomial::new(5.0, [(y, 1.0)]);
        assert_eq!(m.substitute(x, &Monomial::constant(7.0)), m);
    }

    #[test]
    fn like_terms_share_keys() {
        let (_, x, y) = xy();
        let a = Monomial::new(2.0, [(x, 1.0), (y, 0.5)]);
        let b = Monomial::new(9.0, [(y, 0.5), (x, 1.0)]);
        assert_eq!(a.term_key(), b.term_key());
        assert_eq!(a.key_cmp(&b), Ordering::Equal);
        let c = Monomial::new(9.0, [(y, 0.5)]);
        assert_ne!(a.term_key(), c.term_key());
        assert_ne!(a.key_cmp(&c), Ordering::Equal);
    }

    #[test]
    fn runs_are_sorted_and_deduped() {
        let (_, x, y) = xy();
        let m = Monomial::new(2.0, [(y, 1.0), (x, 2.0), (y, 0.5)]);
        assert_eq!(m.powers().collect::<Vec<_>>(), [(x, 2.0), (y, 1.5)]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_negative_coefficient() {
        Monomial::constant(-1.0);
    }
}
