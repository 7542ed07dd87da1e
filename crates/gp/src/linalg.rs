//! Small dense linear algebra: exactly what an interior-point GP solver
//! needs, and nothing more.
//!
//! Problems in this workspace have at most a few dozen variables, so all
//! routines are dense and allocation-friendly rather than tuned. Provided:
//!
//! * [`Matrix`] — row-major dense matrix with the usual products;
//! * [`Matrix::solve`] — LU with partial pivoting (the one LU routine,
//!   also run in place on the barrier solver's reused KKT buffer);
//! * [`Matrix::cholesky_solve`] — for symmetric positive-definite systems;
//! * [`Matrix::min_norm_solution`] — minimum-norm solution of an
//!   underdetermined system (used to find a point on `Ay = b`).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Index, IndexMut};

/// Error produced when a factorization or solve cannot proceed (singular or
/// non-positive-definite input).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SolveMatrixError {
    what: &'static str,
}

impl fmt::Display for SolveMatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "linear solve failed: {}", self.what)
    }
}

impl std::error::Error for SolveMatrixError {}

/// Buffers for [`Matrix::lu_solve_in_place`], reusable across solves.
#[derive(Debug, Clone, Default)]
pub(crate) struct LuScratch {
    /// Row permutation: `piv[k]` is the row holding the `k`-th pivot.
    piv: Vec<usize>,
    /// The current pivot row's trailing entries.
    pivot_row: Vec<f64>,
}

/// A dense row-major matrix of `f64`.
///
/// # Examples
///
/// ```
/// use thistle_gp::linalg::Matrix;
/// let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 4.0]]);
/// let x = a.solve(&[2.0, 8.0]).unwrap();
/// assert_eq!(x, vec![1.0, 2.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Resets every entry to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for r in rows {
            assert_eq!(r.len(), ncols, "ragged rows");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: nrows,
            cols: ncols,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Matrix-vector product `A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "dimension mismatch in matvec");
        let mut out = vec![0.0; self.rows];
        for (i, o) in out.iter_mut().enumerate() {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            *o = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
        out
    }

    /// The transpose `A^T`.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Matrix product `A B`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "dimension mismatch in matmul");
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += a * rhs[(k, j)];
                }
            }
        }
        out
    }

    /// Adds `c` to every diagonal entry (ridge regularization), in place.
    pub fn add_diagonal(&mut self, c: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self[(i, i)] += c;
        }
    }

    /// Row `i` as a slice.
    pub(crate) fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable slice.
    pub(crate) fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Adds the rank-one update `c * v v^T`, in place, skipping the rows
    /// where `v` is zero. Only the tests' dense reference of the barrier
    /// assembly uses it.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square of size `v.len()`.
    #[cfg(test)]
    pub(crate) fn add_outer(&mut self, c: f64, v: &[f64]) {
        assert_eq!(self.rows, v.len());
        assert_eq!(self.cols, v.len());
        for i in 0..v.len() {
            if v[i] == 0.0 {
                continue;
            }
            let cv = c * v[i];
            let row = &mut self.data[i * self.cols..(i + 1) * self.cols];
            for (r, &vj) in row.iter_mut().zip(v) {
                *r += cv * vj;
            }
        }
    }

    /// Solves `A x = b` by LU decomposition with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns an error if the matrix is (numerically) singular.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or `b.len() != self.rows()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, SolveMatrixError> {
        let mut lu = self.clone();
        let mut x = b.to_vec();
        let mut out = vec![0.0; self.rows];
        lu.lu_solve_in_place(&mut x, &mut out, &mut LuScratch::default())?;
        Ok(out)
    }

    /// Solves `A x = b` by LU decomposition with partial pivoting, in place:
    /// the matrix is overwritten by its elimination, `b` by the eliminated
    /// right-hand side, and `out` receives `x`. Each row update is a slice
    /// loop against a copy of the pivot row, so the optimizer vectorizes it
    /// element by element without reassociating anything.
    ///
    /// # Errors
    ///
    /// Returns an error if the matrix is (numerically) singular.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or `b` or `out` is not
    /// `self.rows()` long.
    pub(crate) fn lu_solve_in_place(
        &mut self,
        b: &mut [f64],
        out: &mut [f64],
        scratch: &mut LuScratch,
    ) -> Result<(), SolveMatrixError> {
        assert_eq!(self.rows, self.cols, "solve requires a square matrix");
        assert_eq!(b.len(), self.rows, "rhs length mismatch");
        assert_eq!(out.len(), self.rows, "solution length mismatch");
        let n = self.rows;
        let a = &mut self.data;
        let LuScratch { piv, pivot_row } = scratch;
        piv.clear();
        piv.extend(0..n);

        for col in 0..n {
            // Pivot selection.
            let mut best = col;
            let mut best_mag = a[piv[col] * n + col].abs();
            for (r, &pr) in piv.iter().enumerate().skip(col + 1) {
                let mag = a[pr * n + col].abs();
                if mag > best_mag {
                    best = r;
                    best_mag = mag;
                }
            }
            if best_mag < 1e-300 {
                return Err(SolveMatrixError {
                    what: "singular matrix in LU",
                });
            }
            piv.swap(col, best);
            let prow = piv[col];
            let pivot = a[prow * n + col];
            pivot_row.clear();
            pivot_row.extend_from_slice(&a[prow * n + col + 1..(prow + 1) * n]);
            let xp = b[prow];
            for &r in piv.iter().skip(col + 1) {
                let factor = a[r * n + col] / pivot;
                if factor == 0.0 {
                    continue;
                }
                a[r * n + col] = 0.0;
                let row = &mut a[r * n + col + 1..(r + 1) * n];
                for (v, &p) in row.iter_mut().zip(pivot_row.iter()) {
                    *v -= factor * p;
                }
                b[r] -= factor * xp;
            }
        }
        // Back substitution.
        for col in (0..n).rev() {
            let prow = piv[col];
            let mut s = b[prow];
            for (&u, &x) in a[prow * n + col + 1..(prow + 1) * n]
                .iter()
                .zip(&out[col + 1..])
            {
                s -= u * x;
            }
            out[col] = s / a[prow * n + col];
        }
        Ok(())
    }

    /// Solves the symmetric positive-definite system `A x = b` by Cholesky
    /// factorization.
    ///
    /// # Errors
    ///
    /// Returns an error if the matrix is not numerically positive definite.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or `b.len() != self.rows()`.
    pub fn cholesky_solve(&self, b: &[f64]) -> Result<Vec<f64>, SolveMatrixError> {
        assert_eq!(self.rows, self.cols, "cholesky requires a square matrix");
        assert_eq!(b.len(), self.rows, "rhs length mismatch");
        let n = self.rows;
        let mut l = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..=i {
                let mut s = self[(i, j)];
                for k in 0..j {
                    s -= l[i * n + k] * l[j * n + k];
                }
                if i == j {
                    if s <= 0.0 {
                        return Err(SolveMatrixError {
                            what: "matrix is not positive definite",
                        });
                    }
                    l[i * n + i] = s.sqrt();
                } else {
                    l[i * n + j] = s / l[j * n + j];
                }
            }
        }
        // Forward: L z = b.
        let mut z = vec![0.0; n];
        for i in 0..n {
            let mut s = b[i];
            for k in 0..i {
                s -= l[i * n + k] * z[k];
            }
            z[i] = s / l[i * n + i];
        }
        // Backward: L^T x = z.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut s = z[i];
            for k in i + 1..n {
                s -= l[k * n + i] * x[k];
            }
            x[i] = s / l[i * n + i];
        }
        Ok(x)
    }

    /// Minimum-norm solution of the (typically underdetermined) system
    /// `A y = b`, computed as `y = A^T (A A^T)^{-1} b` with a small ridge for
    /// robustness against redundant rows.
    ///
    /// # Errors
    ///
    /// Returns an error if `A A^T` is singular even after regularization.
    pub fn min_norm_solution(&self, b: &[f64]) -> Result<Vec<f64>, SolveMatrixError> {
        assert_eq!(b.len(), self.rows);
        let at = self.transpose();
        let mut aat = self.matmul(&at);
        aat.add_diagonal(1e-12);
        let z = aat.cholesky_solve(b).or_else(|_| aat.solve(b))?;
        Ok(at.matvec(&z))
    }

    /// Projects `v` onto the null space of `self` by removing its row-space
    /// component: the result `p` satisfies `A p ≈ 0`, so adding it to any
    /// point on the manifold `A y = b` stays on the manifold. The solver's
    /// recovery ladder uses this to perturb restart points without
    /// violating equality constraints.
    ///
    /// # Errors
    ///
    /// Returns an error if the row-space projection (a min-norm solve on
    /// `A A^T`) fails.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn project_out_rowspace(&self, v: &[f64]) -> Result<Vec<f64>, SolveMatrixError> {
        assert_eq!(v.len(), self.cols, "dimension mismatch in projection");
        let rowspace_part = self.min_norm_solution(&self.matvec(v))?;
        Ok(axpy(v, -1.0, &rowspace_part))
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

/// Euclidean norm of a vector.
pub fn norm2(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Dot product of two equal-length vectors.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// `a + c * b`, elementwise.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn axpy(a: &[f64], c: f64, b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x + c * y).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    fn random_spd(n: usize, rng: &mut StdRng) -> Matrix {
        let mut b = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                b[(i, j)] = rng.gen_range(-1.0..1.0);
            }
        }
        let mut spd = b.transpose().matmul(&b);
        spd.add_diagonal(0.5);
        spd
    }

    #[test]
    fn lu_solves_diagonal() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 5.0]]);
        assert_eq!(a.solve(&[6.0, 10.0]).unwrap(), vec![2.0, 2.0]);
    }

    #[test]
    fn lu_requires_pivoting() {
        // Zero in the leading position forces a row swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = a.solve(&[3.0, 7.0]).unwrap();
        assert_eq!(x, vec![7.0, 3.0]);
    }

    #[test]
    fn lu_detects_singular() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(a.solve(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn lu_random_roundtrip() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in [1usize, 2, 3, 5, 8, 13] {
            let mut a = Matrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    a[(i, j)] = rng.gen_range(-2.0..2.0);
                }
            }
            a.add_diagonal(3.0); // keep well-conditioned
            let x_true: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
            let b = a.matvec(&x_true);
            let x = a.solve(&b).unwrap();
            assert!(
                norm2(&axpy(&x, -1.0, &x_true)) < 1e-8,
                "n={n}: {x:?} vs {x_true:?}"
            );
        }
    }

    /// The scalar LU that the in-place slice-loop routine replaced, kept as a
    /// bitwise oracle.
    fn scalar_lu_solve(m: &Matrix, b: &[f64]) -> Option<Vec<f64>> {
        let n = m.rows;
        let mut a = m.data.clone();
        let mut x: Vec<f64> = b.to_vec();
        let mut piv: Vec<usize> = (0..n).collect();
        for col in 0..n {
            let mut best = col;
            let mut best_mag = a[piv[col] * n + col].abs();
            for (r, &pr) in piv.iter().enumerate().skip(col + 1) {
                let mag = a[pr * n + col].abs();
                if mag > best_mag {
                    best = r;
                    best_mag = mag;
                }
            }
            if best_mag < 1e-300 {
                return None;
            }
            piv.swap(col, best);
            let prow = piv[col];
            let pivot = a[prow * n + col];
            for &r in piv.iter().skip(col + 1) {
                let factor = a[r * n + col] / pivot;
                if factor == 0.0 {
                    continue;
                }
                a[r * n + col] = 0.0;
                for j in col + 1..n {
                    a[r * n + j] -= factor * a[prow * n + j];
                }
                x[r] -= factor * x[prow];
            }
        }
        let mut out = vec![0.0; n];
        for col in (0..n).rev() {
            let prow = piv[col];
            let mut s = x[prow];
            for j in col + 1..n {
                s -= a[prow * n + j] * out[j];
            }
            out[col] = s / a[prow * n + col];
        }
        Some(out)
    }

    #[test]
    fn lu_matches_the_scalar_reference_bit_for_bit() {
        // Dense random systems and KKT-shaped ones (a zero lower-right
        // block, so some eliminations skip on a zero factor), at sizes
        // that span several vector widths.
        let mut rng = StdRng::seed_from_u64(23);
        for n in [1usize, 2, 3, 7, 16, 25, 31] {
            for kkt_block in [0, n / 3] {
                let mut a = Matrix::zeros(n, n);
                for i in 0..n {
                    for j in 0..n {
                        if i < n - kkt_block || j < n - kkt_block {
                            a[(i, j)] = rng.gen_range(-2.0..2.0);
                        }
                    }
                }
                let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
                let expected = scalar_lu_solve(&a, &b).expect("random systems are regular");
                let got = a.solve(&b).unwrap();
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&expected), "n={n}, zero block {kkt_block}");
            }
        }
        let singular = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(scalar_lu_solve(&singular, &[1.0, 2.0]).is_none());
    }

    #[test]
    fn cholesky_random_roundtrip() {
        let mut rng = StdRng::seed_from_u64(11);
        for n in [1usize, 2, 4, 9] {
            let a = random_spd(n, &mut rng);
            let x_true: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let b = a.matvec(&x_true);
            let x = a.cholesky_solve(&b).unwrap();
            assert!(norm2(&axpy(&x, -1.0, &x_true)) < 1e-8);
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert!(a.cholesky_solve(&[1.0, 1.0]).is_err());
    }

    #[test]
    fn project_out_rowspace_lands_in_null_space() {
        // A = [1 1 0]: null space is {(a, -a, c)}.
        let a = Matrix::from_rows(&[&[1.0, 1.0, 0.0]]);
        let p = a.project_out_rowspace(&[3.0, 1.0, 5.0]).unwrap();
        assert!(norm2(&a.matvec(&p)) < 1e-9, "{p:?}");
        // The null-space component of (3, 1, 5) is (1, -1, 5).
        assert!(norm2(&axpy(&p, -1.0, &[1.0, -1.0, 5.0])) < 1e-6, "{p:?}");
        // A vector already in the null space is unchanged.
        let q = a.project_out_rowspace(&[2.0, -2.0, 7.0]).unwrap();
        assert!(norm2(&axpy(&q, -1.0, &[2.0, -2.0, 7.0])) < 1e-6, "{q:?}");
    }

    #[test]
    fn min_norm_solution_satisfies_and_minimizes() {
        // One equation, two unknowns: y0 + y1 = 2. Min-norm answer: (1, 1).
        let a = Matrix::from_rows(&[&[1.0, 1.0]]);
        let y = a.min_norm_solution(&[2.0]).unwrap();
        assert!((y[0] - 1.0).abs() < 1e-6);
        assert!((y[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn add_outer_matches_explicit() {
        let v = [1.0, -2.0, 3.0];
        let mut m = Matrix::identity(3);
        m.add_outer(0.5, &v);
        for i in 0..3 {
            for j in 0..3 {
                let expected = if i == j { 1.0 } else { 0.0 } + 0.5 * v[i] * v[j];
                assert!((m[(i, j)] - expected).abs() < 1e-12);
            }
        }
    }
}
