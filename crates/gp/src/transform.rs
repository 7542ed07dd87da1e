//! The log-log transform from geometric programs to smooth convex programs.
//!
//! Under `y = log x`, a monomial `c * prod x_i^{a_i}` becomes the affine
//! function `a^T y + log c` and a posynomial becomes a log-sum-exp of affine
//! functions. A GP in standard form therefore becomes
//!
//! ```text
//! minimize    F0(y)            (log-sum-exp, convex)
//! subject to  Fi(y) <= 0       (log of posynomial constraints)
//!             A y = b          (log of monomial equalities)
//! ```
//!
//! which the barrier solver in this crate handles directly.
//!
//! [`LogSumExp`] is the *compiled* form the solver consumes: the exponent
//! matrix is stored in compressed sparse rows (most monomials mention a
//! handful of the problem's variables — bound constraints exactly one), and
//! its gradient and Hessian live on the *live block*, the columns some term
//! mentions. An inequality touches two variables on average, so the barrier
//! solver's Newton system only ever pays for those entries.

use crate::linalg::Matrix;
use thistle_expr::{Monomial, Posynomial};

/// A function `F(y) = log sum_k exp(a_k^T y + b_k)` — the log-log image of a
/// posynomial, compiled to a CSR exponent matrix.
///
/// Evaluation shifts by the max exponent for numerical stability; gradient
/// and Hessian use the standard softmax identities:
/// `grad F = sum_k p_k a_k` and
/// `hess F = sum_k p_k a_k a_k^T - (grad F)(grad F)^T`
/// with `p_k` the softmax weights. The Hessian is positive semidefinite, as
/// convexity demands. Both vanish outside the *live* columns (the sorted
/// union of the columns with a nonzero exponent), so the one evaluation
/// kernel, [`LogSumExp::eval_block`], returns them on the live block only:
/// `nnz` work for the gradient, `nnz^2` for the Hessian scatter, and one
/// `live x live` rank-one update for the `-gg^T` term. Each nonzero stores
/// its position in the live list, so the scatter needs no lookup.
#[derive(Debug, Clone, PartialEq)]
pub struct LogSumExp {
    /// CSR row boundaries, one row per monomial (length `num_terms + 1`).
    row_ptr: Vec<u32>,
    /// CSR column indices (variable indices in `0..n`).
    cols: Vec<u32>,
    /// Position of each nonzero's column in `live`, parallel to `cols`.
    pos: Vec<u32>,
    /// CSR exponent values, parallel to `cols`.
    vals: Vec<f64>,
    /// `log c_k` per monomial.
    offsets: Vec<f64>,
    /// Sorted union of all columns with a nonzero exponent.
    live: Vec<u32>,
    n: usize,
}

/// Reusable buffers for [`LogSumExp`] evaluation, so the Newton loop
/// evaluates every function without allocating.
#[derive(Debug, Clone, Default)]
pub struct LseScratch {
    /// Per term: the affine value `a_k^T y + b_k`, then its unnormalized
    /// softmax weight.
    ws: Vec<f64>,
    /// Gradient on the live block of the last [`LogSumExp::eval_block`].
    pub(crate) grad: Vec<f64>,
    /// Hessian on the live block, row-major `live x live`.
    pub(crate) hess: Vec<f64>,
}

impl LogSumExp {
    /// Builds the log-log image of `p` over `n` variables (indexed by
    /// [`thistle_expr::Var::index`]).
    pub fn from_posynomial(p: &Posynomial, n: usize) -> Self {
        let mut row_ptr = vec![0u32];
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        let mut offsets = Vec::with_capacity(p.num_terms());
        for (c, m) in p.terms() {
            for (v, a) in m.powers() {
                assert!(
                    v.index() < n,
                    "monomial references variable {} outside problem dimension {n}",
                    v.index()
                );
                cols.push(v.index() as u32);
                vals.push(a);
            }
            row_ptr.push(cols.len() as u32);
            offsets.push((c * m.coeff()).ln());
        }
        Self::assemble(row_ptr, cols, vals, offsets, n)
    }

    fn assemble(
        row_ptr: Vec<u32>,
        cols: Vec<u32>,
        vals: Vec<f64>,
        offsets: Vec<f64>,
        n: usize,
    ) -> Self {
        let mut live: Vec<u32> = cols.clone();
        live.sort_unstable();
        live.dedup();
        let pos = cols
            .iter()
            .map(|c| live.binary_search(c).expect("every column is live") as u32)
            .collect();
        LogSumExp {
            row_ptr,
            cols,
            pos,
            vals,
            offsets,
            live,
            n,
        }
    }

    /// Number of exponential terms.
    pub fn num_terms(&self) -> usize {
        self.offsets.len()
    }

    /// Number of variables.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// The live columns: where the gradient and Hessian can be nonzero.
    pub(crate) fn live(&self) -> &[u32] {
        &self.live
    }

    /// The nonzero range of term `k` in the CSR arrays.
    fn span(&self, k: usize) -> std::ops::Range<usize> {
        self.row_ptr[k] as usize..self.row_ptr[k + 1] as usize
    }

    /// `a_k^T y + b_k`.
    #[inline]
    fn affine(&self, k: usize, y: &[f64]) -> f64 {
        let span = self.span(k);
        let mut acc = 0.0;
        for (c, a) in self.cols[span.clone()].iter().zip(&self.vals[span]) {
            acc += a * y[*c as usize];
        }
        acc + self.offsets[k]
    }

    /// Overwrites `ws` with the unnormalized softmax weights
    /// `exp(g_k - max g)` of the affine terms `g_k`, each computed once, and
    /// returns `(max g, sum of the weights)`.
    fn softmax(&self, y: &[f64], ws: &mut Vec<f64>) -> (f64, f64) {
        debug_assert_eq!(y.len(), self.n);
        ws.clear();
        ws.extend((0..self.num_terms()).map(|k| self.affine(k, y)));
        let mut mx = f64::NEG_INFINITY;
        for &g in ws.iter() {
            if g > mx {
                mx = g;
            }
        }
        let mut z = 0.0;
        for w in ws.iter_mut() {
            *w = (*w - mx).exp();
            z += *w;
        }
        (mx, z)
    }

    /// `F(y)`, allocation-free once `scratch` has grown.
    pub fn value(&self, y: &[f64], scratch: &mut LseScratch) -> f64 {
        let (mx, z) = self.softmax(y, &mut scratch.ws);
        mx + z.ln()
    }

    /// The evaluation kernel: returns `F(y)` and overwrites
    /// `scratch.grad` / `scratch.hess` with `grad F(y)` and `hess F(y)` on
    /// the live block (`grad[a]` belongs to column `live[a]`, `hess` is
    /// row-major `live x live`). Terms accumulate in order, so every entry
    /// is the same sum a dense scatter over all `n` columns would form.
    pub(crate) fn eval_block(&self, y: &[f64], scratch: &mut LseScratch) -> f64 {
        let (mx, z) = self.softmax(y, &mut scratch.ws);
        let l = self.live.len();
        let LseScratch { ws, grad, hess } = scratch;
        grad.clear();
        grad.resize(l, 0.0);
        hess.clear();
        hess.resize(l * l, 0.0);
        for (k, &w) in ws.iter().enumerate() {
            let p = w / z;
            let span = self.span(k);
            let (pos, vals) = (&self.pos[span.clone()], &self.vals[span]);
            for (&i, &a) in pos.iter().zip(vals) {
                grad[i as usize] += p * a;
            }
            for (&i, &ai) in pos.iter().zip(vals) {
                let cv = p * ai;
                let row = &mut hess[i as usize * l..(i as usize + 1) * l];
                for (&j, &aj) in pos.iter().zip(vals) {
                    row[j as usize] += cv * aj;
                }
            }
        }
        // -grad grad^T over the whole block.
        for (row, &gi) in hess.chunks_exact_mut(l.max(1)).zip(grad.iter()) {
            let cv = -gi;
            for (h, &gj) in row.iter_mut().zip(grad.iter()) {
                *h += cv * gj;
            }
        }
        mx + z.ln()
    }

    /// Per live column, parallel to `live`: if every term has a strictly
    /// negative exponent on it, the smallest magnitude among them. Raising
    /// such a column by `d` lowers `F` by at least `d` times that rate.
    fn fall_rates(&self) -> Vec<Option<f64>> {
        let mut negative = vec![0usize; self.live.len()];
        let mut rate = vec![f64::INFINITY; self.live.len()];
        for (&p, &a) in self.pos.iter().zip(&self.vals) {
            if a < 0.0 {
                negative[p as usize] += 1;
                rate[p as usize] = rate[p as usize].min(-a);
            }
        }
        negative
            .into_iter()
            .zip(rate)
            .map(|(count, rate)| (count == self.num_terms()).then_some(rate))
            .collect()
    }

    /// Feeds every bit of the function's content to `h`.
    pub(crate) fn hash_into(&self, h: &mut Fnv128) {
        h.put(self.n as u64);
        for k in 0..self.num_terms() {
            h.put(self.offsets[k].to_bits());
            let span = self.span(k);
            for (&c, &a) in self.cols[span.clone()].iter().zip(&self.vals[span]) {
                h.put(u64::from(c));
                h.put(a.to_bits());
            }
            h.put(u64::MAX);
        }
    }

    /// `Fi(y) - s` over the extended space `(y, .., s)` with the slack as
    /// column `n`: every exponential row gains a `-1` coefficient on `s`.
    pub(crate) fn with_slack_column(&self, n: usize) -> LogSumExp {
        let terms = self.num_terms();
        let mut row_ptr = vec![0u32];
        let mut cols = Vec::with_capacity(self.cols.len() + terms);
        let mut vals = Vec::with_capacity(self.vals.len() + terms);
        for k in 0..terms {
            let span = self.span(k);
            cols.extend_from_slice(&self.cols[span.clone()]);
            vals.extend_from_slice(&self.vals[span]);
            cols.push(n as u32);
            vals.push(-1.0);
            row_ptr.push(cols.len() as u32);
        }
        Self::assemble(row_ptr, cols, vals, self.offsets.clone(), n + 1)
    }

    /// The phase-I objective `s` over the extended space `(y, s)` with `n`
    /// original variables: a single affine term selecting the slack.
    pub(crate) fn slack_objective(n: usize) -> Self {
        let mut row = vec![0.0; n + 1];
        row[n] = 1.0;
        LogSumExp::from_rows(vec![row], vec![0.0])
    }

    /// Builds a function directly from dense exponent rows and offsets.
    pub(crate) fn from_rows(rows: Vec<Vec<f64>>, offsets: Vec<f64>) -> Self {
        assert_eq!(rows.len(), offsets.len());
        let n = rows.first().map_or(0, |r| r.len());
        let mut row_ptr = vec![0u32];
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        for r in &rows {
            debug_assert_eq!(r.len(), n);
            for (j, &a) in r.iter().enumerate() {
                if a != 0.0 {
                    cols.push(j as u32);
                    vals.push(a);
                }
            }
            row_ptr.push(cols.len() as u32);
        }
        Self::assemble(row_ptr, cols, vals, offsets, n)
    }
}

/// Test-only dense views: the live-block kernel scattered into `n x n`, and
/// the dense evaluation it replaced, kept as a bitwise oracle.
#[cfg(test)]
impl LogSumExp {
    /// `F(y)` and `grad F(y)`, dense, from the live-block kernel.
    fn value_grad(&self, y: &[f64]) -> (f64, Vec<f64>) {
        let (v, grad, _) = self.value_grad_hess(y);
        (v, grad)
    }

    /// `F(y)`, `grad F(y)` and `hess F(y)`, dense, from the live-block
    /// kernel.
    fn value_grad_hess(&self, y: &[f64]) -> (f64, Vec<f64>, Matrix) {
        let mut scratch = LseScratch::default();
        let v = self.eval_block(y, &mut scratch);
        let l = self.live.len();
        let mut grad = vec![0.0; self.n];
        let mut hess = Matrix::zeros(self.n, self.n);
        for (a, &i) in self.live.iter().enumerate() {
            grad[i as usize] = scratch.grad[a];
            for (b, &j) in self.live.iter().enumerate() {
                hess[(i as usize, j as usize)] = scratch.hess[a * l + b];
            }
        }
        (v, grad, hess)
    }

    /// The dense evaluation the live-block kernel replaced: CSR affine
    /// terms, a fold-max shift, softmax weights summed with `Iterator::sum`,
    /// then the gradient and Hessian scattered into zeroed `n`-vectors and
    /// `n x n` matrices, with `-gg^T` over the live columns.
    pub(crate) fn dense_reference_eval(&self, y: &[f64]) -> (f64, Vec<f64>, Matrix) {
        let gs: Vec<f64> = (0..self.num_terms()).map(|k| self.affine(k, y)).collect();
        let mx = gs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let ws: Vec<f64> = gs.iter().map(|g| (g - mx).exp()).collect();
        let z: f64 = ws.iter().sum();
        let value = mx + z.ln();
        let mut grad = vec![0.0; self.n];
        for (k, &w) in ws.iter().enumerate() {
            let p = w / z;
            let span = self.span(k);
            for (c, a) in self.cols[span.clone()].iter().zip(&self.vals[span]) {
                grad[*c as usize] += p * a;
            }
        }
        let mut h = Matrix::zeros(self.n, self.n);
        for (k, &w) in ws.iter().enumerate() {
            let p = w / z;
            let span = self.span(k);
            let (cols, vals) = (&self.cols[span.clone()], &self.vals[span]);
            for (i, &ci) in cols.iter().enumerate() {
                let cv = p * vals[i];
                for (j, &cj) in cols.iter().enumerate() {
                    h[(ci as usize, cj as usize)] += cv * vals[j];
                }
            }
        }
        for &ci in &self.live {
            let cv = -grad[ci as usize];
            for &cj in &self.live {
                h[(ci as usize, cj as usize)] += cv * grad[cj as usize];
            }
        }
        (value, grad, h)
    }

    /// The value the dense solver's merit used: one pass over the affine
    /// terms for the max, a second that recomputes them for the sum.
    pub(crate) fn dense_reference_value(&self, y: &[f64]) -> f64 {
        let mut mx = f64::NEG_INFINITY;
        for k in 0..self.num_terms() {
            let g = self.affine(k, y);
            if g > mx {
                mx = g;
            }
        }
        let mut z = 0.0;
        for k in 0..self.num_terms() {
            z += (self.affine(k, y) - mx).exp();
        }
        mx + z.ln()
    }
}

/// A GP in log-space, ready for the barrier solver.
#[derive(Debug, Clone)]
pub struct TransformedProblem {
    /// Objective `F0`.
    pub objective: LogSumExp,
    /// Inequalities `Fi(y) <= 0`.
    pub inequalities: Vec<LogSumExp>,
    /// Equality rows `A y = b` (may have zero rows).
    pub eq_matrix: Matrix,
    /// Equality right-hand side.
    pub eq_rhs: Vec<f64>,
    /// Number of variables.
    pub n: usize,
}

impl TransformedProblem {
    /// Assembles the log-space problem from GP pieces.
    ///
    /// `inequalities` are posynomials `g` with the meaning `g(x) <= 1`;
    /// `equalities` are monomials `m` with the meaning `m(x) = 1`.
    pub fn new(
        n: usize,
        objective: &Posynomial,
        inequalities: &[Posynomial],
        equalities: &[Monomial],
    ) -> Self {
        let objective = LogSumExp::from_posynomial(objective, n);
        let ineqs = inequalities
            .iter()
            .map(|g| LogSumExp::from_posynomial(g, n))
            .collect();
        let mut eq_matrix = Matrix::zeros(equalities.len(), n);
        let mut eq_rhs = vec![0.0; equalities.len()];
        for (i, m) in equalities.iter().enumerate() {
            for (v, a) in m.powers() {
                assert!(
                    v.index() < n,
                    "equality references variable {} outside problem dimension {n}",
                    v.index()
                );
                eq_matrix[(i, v.index())] = a;
            }
            // a^T y + log c = 0  =>  a^T y = -log c
            eq_rhs[i] = -m.coeff().ln();
        }
        TransformedProblem {
            objective,
            inequalities: ineqs,
            eq_matrix,
            eq_rhs,
            n,
        }
    }

    /// Maps a log-space point back to GP variable values `x = exp(y)`.
    pub fn to_gp_point(&self, y: &[f64]) -> Vec<f64> {
        y.iter().map(|v| v.exp()).collect()
    }

    /// The *rising* columns, in column order. A rising column appears in no
    /// equality, and every term of every inequality that mentions it has a
    /// strictly negative exponent on it (at least one inequality does).
    /// Raising it only lowers those inequalities, without bound, so phase I
    /// has no minimum along it; a start is made strictly feasible in its
    /// rows by lifting the column alone. The delay variable `t_delay` of a
    /// delay GP is one.
    pub(crate) fn rising_columns(&self) -> Vec<RisingColumn> {
        let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); self.n];
        let mut blocked = vec![false; self.n];
        for k in 0..self.eq_matrix.rows() {
            for (b, &a) in blocked.iter_mut().zip(self.eq_matrix.row(k)) {
                *b |= a != 0.0;
            }
        }
        for (i, f) in self.inequalities.iter().enumerate() {
            for (&c, rate) in f.live.iter().zip(f.fall_rates()) {
                match rate {
                    Some(rate) => rows[c as usize].push((i, rate)),
                    None => blocked[c as usize] = true,
                }
            }
        }
        rows.into_iter()
            .zip(blocked)
            .enumerate()
            .filter(|(_, (rows, blocked))| !blocked && !rows.is_empty())
            .map(|(col, (rows, _))| RisingColumn { col, rows })
            .collect()
    }
}

/// One rising column ([`TransformedProblem::rising_columns`]) and the
/// inequalities that mention it.
#[derive(Debug, PartialEq)]
pub(crate) struct RisingColumn {
    /// The column's index in `y`.
    pub col: usize,
    /// Each inequality that mentions the column, with the smallest
    /// magnitude of its exponents there.
    pub rows: Vec<(usize, f64)>,
}

/// A 128-bit content fingerprint: two FNV-1a streams with distinct offset
/// bases, fed the same 64-bit words.
pub(crate) struct Fnv128(u64, u64);

impl Fnv128 {
    pub(crate) fn new() -> Self {
        Fnv128(0xcbf2_9ce4_8422_2325, 0x6c62_272e_07bb_0142)
    }

    pub(crate) fn put(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x0000_0100_0000_01b3);
        self.1 = (self.1 ^ v.rotate_left(17)).wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub(crate) fn finish(&self) -> (u64, u64) {
        (self.0, self.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::norm2;
    use thistle_expr::VarRegistry;

    fn sample_posy() -> (Posynomial, usize) {
        let mut reg = VarRegistry::new();
        let x = reg.var("x");
        let y = reg.var("y");
        // f = 2 x y^2 + 3 / x
        let f = Posynomial::from(Monomial::new(2.0, [(x, 1.0), (y, 2.0)]))
            + Posynomial::from(Monomial::new(3.0, [(x, -1.0)]));
        (f, reg.len())
    }

    /// The pre-CSR dense implementation, kept as a reference oracle for the
    /// differential tests below.
    struct DenseLse {
        rows: Vec<Vec<f64>>,
        offsets: Vec<f64>,
        n: usize,
    }

    impl DenseLse {
        fn from_posynomial(p: &Posynomial, n: usize) -> Self {
            let mut rows = Vec::new();
            let mut offsets = Vec::new();
            for m in p.monomials() {
                let mut row = vec![0.0; n];
                for (v, a) in m.powers() {
                    row[v.index()] = a;
                }
                rows.push(row);
                offsets.push(m.coeff().ln());
            }
            DenseLse { rows, offsets, n }
        }

        fn eval_full(&self, y: &[f64]) -> (f64, Vec<f64>, Matrix) {
            let dot = |row: &[f64]| row.iter().zip(y).map(|(a, b)| a * b).sum::<f64>();
            let gs: Vec<f64> = self
                .rows
                .iter()
                .zip(&self.offsets)
                .map(|(row, &b)| dot(row) + b)
                .collect();
            let mx = gs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let ws: Vec<f64> = gs.iter().map(|g| (g - mx).exp()).collect();
            let z: f64 = ws.iter().sum();
            let mut grad = vec![0.0; self.n];
            for (row, &w) in self.rows.iter().zip(&ws) {
                let p = w / z;
                for (g, &a) in grad.iter_mut().zip(row) {
                    *g += p * a;
                }
            }
            let mut h = Matrix::zeros(self.n, self.n);
            for (row, &w) in self.rows.iter().zip(&ws) {
                h.add_outer(w / z, row);
            }
            h.add_outer(-1.0, &grad);
            (mx + z.ln(), grad, h)
        }
    }

    #[test]
    fn value_matches_direct_eval() {
        let (f, n) = sample_posy();
        let lse = LogSumExp::from_posynomial(&f, n);
        let y = [0.3f64, -0.7];
        let x: Vec<f64> = y.iter().map(|v| v.exp()).collect();
        let direct: f64 = 2.0 * x[0] * x[1] * x[1] + 3.0 / x[0];
        assert!((lse.value(&y, &mut LseScratch::default()) - direct.ln()).abs() < 1e-12);
    }

    #[test]
    fn csr_matches_dense_reference() {
        let (f, n) = sample_posy();
        let lse = LogSumExp::from_posynomial(&f, n);
        let dense = DenseLse::from_posynomial(&f, n);
        for y in [[0.3, -0.7], [1.2, 0.4], [-2.0, 3.0]] {
            let (dv, dg, dh) = dense.eval_full(&y);
            let (v, g, h) = lse.value_grad_hess(&y);
            assert_eq!(v, dv);
            assert_eq!(g, dg);
            // Bit equality: the dense reference only adds zero products
            // outside the live block, which leave every sum unchanged.
            for i in 0..n {
                for j in 0..n {
                    assert_eq!(h[(i, j)].to_bits(), dh[(i, j)].to_bits(), "({i},{j})");
                }
            }
            assert_eq!(lse.value(&y, &mut LseScratch::default()), dv);
        }
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let (f, n) = sample_posy();
        let lse = LogSumExp::from_posynomial(&f, n);
        let y = [0.2, 0.5];
        let (_, grad) = lse.value_grad(&y);
        let h = 1e-6;
        for i in 0..n {
            let mut yp = y;
            yp[i] += h;
            let mut ym = y;
            ym[i] -= h;
            let mut scratch = LseScratch::default();
            let fd = (lse.value(&yp, &mut scratch) - lse.value(&ym, &mut scratch)) / (2.0 * h);
            assert!((grad[i] - fd).abs() < 1e-6, "component {i}");
        }
    }

    #[test]
    fn hessian_matches_finite_differences_and_is_psd() {
        let (f, n) = sample_posy();
        let lse = LogSumExp::from_posynomial(&f, n);
        let y = [-0.4, 0.9];
        let (_, _, hess) = lse.value_grad_hess(&y);
        let h = 1e-5;
        for i in 0..n {
            let mut yp = y;
            yp[i] += h;
            let mut ym = y;
            ym[i] -= h;
            let (_, gp) = lse.value_grad(&yp);
            let (_, gm) = lse.value_grad(&ym);
            for j in 0..n {
                let fd = (gp[j] - gm[j]) / (2.0 * h);
                assert!((hess[(i, j)] - fd).abs() < 1e-5, "entry ({i},{j})");
            }
        }
        // PSD check via random quadratic forms.
        for v in [[1.0, 0.0], [0.0, 1.0], [1.0, -1.0], [0.3, 0.7]] {
            let hv = hess.matvec(&v);
            assert!(crate::linalg::dot(&v, &hv) >= -1e-12);
        }
    }

    #[test]
    fn numerical_stability_with_huge_exponents() {
        let (f, n) = sample_posy();
        let lse = LogSumExp::from_posynomial(&f, n);
        let y = [400.0, 350.0]; // exp overflows without max-shift
        let v = lse.value(&y, &mut LseScratch::default());
        assert!(v.is_finite());
        // Dominated by the 2*x*y^2 term: log2 + y0 + 2 y1.
        assert!((v - (2.0f64.ln() + 400.0 + 700.0)).abs() < 1e-9);
    }

    #[test]
    fn monomial_becomes_affine() {
        let mut reg = VarRegistry::new();
        let x = reg.var("x");
        let m = Monomial::new(4.0, [(x, 2.0)]);
        let lse = LogSumExp::from_posynomial(&Posynomial::from(m), 1);
        assert_eq!(lse.num_terms(), 1);
        let (_, _, hess) = lse.value_grad_hess(&[1.3]);
        assert!(
            hess[(0, 0)].abs() < 1e-12,
            "affine functions have zero Hessian"
        );
    }

    #[test]
    fn slack_extension_appends_column() {
        let (f, n) = sample_posy();
        let lse = LogSumExp::from_posynomial(&f, n);
        let ext = lse.with_slack_column(n);
        assert_eq!(ext.dim(), n + 1);
        // F_ext(y, s) = F(y) - s.
        let y = [0.3, -0.7];
        let z = [0.3, -0.7, 2.0];
        let mut scratch = LseScratch::default();
        assert!((ext.value(&z, &mut scratch) - (lse.value(&y, &mut scratch) - 2.0)).abs() < 1e-12);
    }

    #[test]
    fn equalities_transform_to_linear_rows() {
        let mut reg = VarRegistry::new();
        let x = reg.var("x");
        let y = reg.var("y");
        // x^2 / y = 5  =>  2 log x - log y = log 5
        let eq = Monomial::new(1.0 / 5.0, [(x, 2.0), (y, -1.0)]);
        let tp = TransformedProblem::new(2, &Posynomial::from_var(x), &[], &[eq]);
        assert_eq!(tp.eq_matrix.rows(), 1);
        assert!((tp.eq_matrix[(0, 0)] - 2.0).abs() < 1e-12);
        assert!((tp.eq_matrix[(0, 1)] + 1.0).abs() < 1e-12);
        assert!((tp.eq_rhs[0] - 5.0f64.ln()).abs() < 1e-12);
        // A feasible x: x=5, y=5 => y-point (ln5, ln5)
        let yv = [5.0f64.ln(), 5.0f64.ln()];
        let r = tp.eq_matrix.matvec(&yv);
        assert!(norm2(&[r[0] - tp.eq_rhs[0]]) < 1e-12);
    }
}
