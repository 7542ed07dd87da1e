//! The compiled expression form: a contiguous exponent matrix for fast
//! repeated evaluation.
//!
//! A [`Signomial`] is the right representation for *building* expressions —
//! canonicalization, substitution, posynomial bounds — but evaluating one
//! walks a vector of monomials and calls `powf` per variable per term. The
//! compiled form here freezes a finished expression into a compressed
//! sparse-row exponent matrix over its *live* variables with a contiguous
//! coefficient array: evaluation precomputes `ln x_j` once per point and
//! each term costs one sparse dot product plus one `exp`. Candidate
//! rescoring (thousands of integer design points against the same exact
//! signomial) sits on this path.

use crate::{Assignment, Monomial, Signomial, Var};

/// Reusable scratch for compiled evaluation (the `ln x` buffer), so hot
/// loops evaluate without allocating.
#[derive(Debug, Clone, Default)]
pub struct EvalScratch {
    lnx: Vec<f64>,
}

/// A signomial compiled to CSR form: term `k` is
/// `coeffs[k] * exp(sum_j exps[j] * ln x_cols[j])` for `j` in
/// `row_ptr[k]..row_ptr[k+1]`, with `cols` indexing the sorted live-variable
/// list `vars`.
///
/// # Examples
///
/// ```
/// use thistle_expr::{CompiledSignomial, Signomial, VarRegistry};
/// let mut reg = VarRegistry::new();
/// let x = reg.var("x");
/// let s = Signomial::var(x) * 3.0 - Signomial::constant(1.0);
/// let c = CompiledSignomial::compile(&s);
/// let mut p = reg.assignment();
/// p.set(x, 2.0);
/// assert!((c.eval(&p) - 5.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct CompiledSignomial {
    /// Sorted live variables; CSR columns index into this list.
    vars: Vec<Var>,
    /// Per-term signed coefficients.
    coeffs: Vec<f64>,
    /// CSR row boundaries, length `num_terms + 1`.
    row_ptr: Vec<u32>,
    /// CSR column indices (into `vars`).
    cols: Vec<u32>,
    /// CSR exponent values, parallel to `cols`.
    exps: Vec<f64>,
}

impl CompiledSignomial {
    /// Compiles a canonicalized signomial.
    pub fn compile(s: &Signomial) -> Self {
        let terms: Vec<(f64, &Monomial)> = s.terms().collect();
        let mut vars: Vec<Var> = Vec::new();
        for &(_, m) in &terms {
            for (v, _) in m.powers() {
                if let Err(i) = vars.binary_search(&v) {
                    vars.insert(i, v);
                }
            }
        }
        let mut coeffs = Vec::new();
        let mut row_ptr = vec![0u32];
        let mut cols = Vec::new();
        let mut exps = Vec::new();
        for &(c, m) in &terms {
            coeffs.push(c * m.coeff());
            for (v, a) in m.powers() {
                let col = vars.binary_search(&v).expect("live var is indexed");
                cols.push(col as u32);
                exps.push(a);
            }
            row_ptr.push(cols.len() as u32);
        }
        CompiledSignomial {
            vars,
            coeffs,
            row_ptr,
            cols,
            exps,
        }
    }

    /// Number of terms (CSR rows).
    pub fn num_terms(&self) -> usize {
        self.coeffs.len()
    }

    /// The sorted live variables of the expression.
    pub fn vars(&self) -> &[Var] {
        &self.vars
    }

    /// Evaluates at a point (allocates a small scratch; hot loops should
    /// hold an [`EvalScratch`] and call [`CompiledSignomial::eval_with`]).
    pub fn eval(&self, point: &Assignment) -> f64 {
        self.eval_with(point, &mut EvalScratch::default())
    }

    /// Evaluates at a point, reusing `scratch` across calls.
    pub fn eval_with(&self, point: &Assignment, scratch: &mut EvalScratch) -> f64 {
        self.load_lnx(point, scratch);
        let mut total = 0.0;
        for k in 0..self.coeffs.len() {
            total += self.coeffs[k] * self.term_factor(k, &scratch.lnx);
        }
        total
    }

    fn load_lnx(&self, point: &Assignment, scratch: &mut EvalScratch) {
        scratch.lnx.clear();
        scratch
            .lnx
            .extend(self.vars.iter().map(|&v| point.get(v).ln()));
    }

    /// `exp(sum_j a_j ln x_j)` for term `k`.
    fn term_factor(&self, k: usize, lnx: &[f64]) -> f64 {
        let (lo, hi) = (self.row_ptr[k] as usize, self.row_ptr[k + 1] as usize);
        let mut acc = 0.0;
        for j in lo..hi {
            acc += self.exps[j] * lnx[self.cols[j] as usize];
        }
        acc.exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VarRegistry;

    #[test]
    fn compiled_matches_legacy_eval() {
        let mut reg = VarRegistry::new();
        let x = reg.var("x");
        let y = reg.var("y");
        let s = Signomial::var(x).pow_i(2) * 3.0 + Signomial::var(y) * Signomial::var(x)
            - Signomial::constant(7.0);
        let c = CompiledSignomial::compile(&s);
        assert_eq!(c.num_terms(), 3);
        assert_eq!(c.vars(), &[x, y]);
        let mut p = reg.assignment();
        p.set(x, 3.0);
        p.set(y, 5.0);
        let exact = s.eval(&p);
        let got = c.eval(&p);
        assert!((got - exact).abs() <= 1e-12 * (1.0 + exact.abs()));
    }

    #[test]
    fn constant_only_signomial_compiles() {
        let s = Signomial::constant(-2.5);
        let c = CompiledSignomial::compile(&s);
        assert_eq!(c.vars().len(), 0);
        assert_eq!(c.eval(&Assignment::ones(0)), -2.5);
    }
}
