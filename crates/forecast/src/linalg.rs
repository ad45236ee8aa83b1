//! Dense linear algebra for least-squares fitting.
//!
//! The models in this crate solve (weighted, ridge-regularised) normal
//! equations: `(Xᵀ W X + Λ) β = Xᵀ W y`. The left-hand side is symmetric
//! positive definite once Λ has any positive entries, so a Cholesky
//! factorisation is sufficient and fast; a jitter fallback covers the
//! numerically borderline cases.

use crate::ForecastError;

/// A dense, row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length must equal rows * cols"
        );
        Self { rows, cols, data }
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow of row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix-vector product `A v`.
    ///
    /// # Panics
    /// Panics if `v.len() != self.cols()`.
    pub fn mul_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "dimension mismatch");
        self.data
            .chunks_exact(self.cols)
            .map(|row| row.iter().zip(v).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// `Aᵀ diag(w) A`, the weighted Gram matrix. With `w = None` the
    /// weights are all one.
    ///
    /// Element `(i, j)` is `Σ_r (w_r · x_ri) · x_rj` summed over the rows
    /// in ascending order, rows of weight zero and zero `w_r · x_ri`
    /// skipped — that order is a contract (forecasts are compared bit
    /// for bit), so the inner loops run over row slices, which the
    /// compiler vectorises across `j`, and never reassociate over `r`.
    pub fn gram_weighted(&self, w: Option<&[f64]>) -> Matrix {
        let n = self.cols;
        let mut out = Matrix::zeros(n, n);
        for (r, row) in self.data.chunks_exact(n).enumerate() {
            let weight = w.map_or(1.0, |w| w[r]);
            if weight == 0.0 {
                continue;
            }
            for (i, acc) in out.data.chunks_exact_mut(n).enumerate() {
                let wi = weight * row[i];
                if wi == 0.0 {
                    continue;
                }
                for (o, x) in acc[i..].iter_mut().zip(&row[i..]) {
                    *o += wi * x;
                }
            }
        }
        // Mirror the upper triangle.
        for i in 0..n {
            for j in 0..i {
                out[(i, j)] = out[(j, i)];
            }
        }
        out
    }

    /// `Aᵀ diag(w) y`.
    pub fn tr_mul_vec_weighted(&self, y: &[f64], w: Option<&[f64]>) -> Vec<f64> {
        assert_eq!(y.len(), self.rows, "dimension mismatch");
        let mut out = vec![0.0; self.cols];
        for (r, row) in self.data.chunks_exact(self.cols).enumerate() {
            let wy = w.map_or(1.0, |w| w[r]) * y[r];
            if wy == 0.0 {
                continue;
            }
            for (o, a) in out.iter_mut().zip(row) {
                *o += a * wy;
            }
        }
        out
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }
}

/// Solves `A x = b` for symmetric positive-definite `A` via Cholesky
/// (`A = L Lᵀ`), with a small diagonal jitter retry if the factorisation
/// stalls on a semi-definite input.
pub fn solve_spd(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, ForecastError> {
    assert_eq!(a.rows(), a.cols(), "matrix must be square");
    assert_eq!(b.len(), a.rows(), "dimension mismatch");
    for attempt in 0..4 {
        let jitter = if attempt == 0 {
            0.0
        } else {
            // Scale jitter to the matrix magnitude.
            let max_diag = (0..a.rows())
                .map(|i| a[(i, i)].abs())
                .fold(f64::MIN_POSITIVE, f64::max);
            max_diag * 1e-10 * 10f64.powi(attempt)
        };
        if let Some(l) = cholesky(a, jitter) {
            return Ok(cholesky_solve(&l, b));
        }
    }
    Err(ForecastError::SingularSystem)
}

/// Lower-triangular Cholesky factor of `a + jitter * I`, or `None` if a
/// non-positive pivot appears.
fn cholesky(a: &Matrix, jitter: f64) -> Option<Matrix> {
    let n = a.rows();
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[(i, j)] + if i == j { jitter } else { 0.0 };
            for k in 0..j {
                sum -= l[(i, k)] * l[(j, k)];
            }
            if i == j {
                if sum <= 0.0 || !sum.is_finite() {
                    return None;
                }
                l[(i, i)] = sum.sqrt();
            } else {
                l[(i, j)] = sum / l[(j, j)];
            }
        }
    }
    Some(l)
}

/// Solves `L Lᵀ x = b` by forward then backward substitution.
fn cholesky_solve(l: &Matrix, b: &[f64]) -> Vec<f64> {
    let n = l.rows();
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut sum = b[i];
        for k in 0..i {
            sum -= l[(i, k)] * y[k];
        }
        y[i] = sum / l[(i, i)];
    }
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut sum = y[i];
        for k in i + 1..n {
            sum -= l[(k, i)] * x[k];
        }
        x[i] = sum / l[(i, i)];
    }
    x
}

/// Weighted ridge least squares: minimises
/// `Σ wᵢ (yᵢ - xᵢᵀβ)² + Σⱼ λⱼ βⱼ²`, i.e. a per-coefficient penalty.
///
/// `penalties.len()` must equal the design's column count; use zero entries
/// for unpenalised coefficients (intercept, base slope).
pub fn ridge_weighted(
    design: &Matrix,
    y: &[f64],
    weights: Option<&[f64]>,
    penalties: &[f64],
) -> Result<Vec<f64>, ForecastError> {
    assert_eq!(penalties.len(), design.cols(), "one penalty per column");
    let mut gram = design.gram_weighted(weights);
    for (i, p) in penalties.iter().enumerate() {
        gram[(i, i)] += p;
    }
    let rhs = design.tr_mul_vec_weighted(y, weights);
    solve_spd(&gram, &rhs)
}

/// Ordinary least squares through the origin for a single predictor:
/// returns the slope `Σ w x y / Σ w x²`. Used for the paper's I/O
/// coefficient (α) and CPU ratio (ψ) fits.
pub fn slope_through_origin(x: &[f64], y: &[f64], w: Option<&[f64]>) -> Option<f64> {
    assert_eq!(x.len(), y.len(), "dimension mismatch");
    let mut num = 0.0;
    let mut den = 0.0;
    for i in 0..x.len() {
        let wi = w.map_or(1.0, |w| w[i]);
        num += wi * x[i] * y[i];
        den += wi * x[i] * x[i];
    }
    (den > 0.0).then(|| num / den)
}

/// Simple linear regression `y = a + b x`; returns `(intercept, slope)`.
/// Returns `None` when `x` has no variance.
pub fn linear_fit(x: &[f64], y: &[f64]) -> Option<(f64, f64)> {
    assert_eq!(x.len(), y.len(), "dimension mismatch");
    let n = x.len() as f64;
    if x.is_empty() {
        return None;
    }
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    for i in 0..x.len() {
        sxx += (x[i] - mx) * (x[i] - mx);
        sxy += (x[i] - mx) * (y[i] - my);
    }
    if sxx <= f64::EPSILON * n {
        return None;
    }
    let slope = sxy / sxx;
    Some((my - slope * mx, slope))
}

/// The kernels as first written, one indexed element at a time: what the
/// slice loops above must equal bit for bit.
#[cfg(test)]
pub(crate) mod reference {
    use super::Matrix;

    pub(crate) fn mul_vec(a: &Matrix, v: &[f64]) -> Vec<f64> {
        (0..a.rows())
            .map(|r| (0..a.cols()).map(|c| a[(r, c)] * v[c]).sum())
            .collect()
    }

    pub(crate) fn gram_weighted(a: &Matrix, w: Option<&[f64]>) -> Matrix {
        let n = a.cols();
        let mut out = Matrix::zeros(n, n);
        for r in 0..a.rows() {
            let weight = w.map_or(1.0, |w| w[r]);
            if weight == 0.0 {
                continue;
            }
            for i in 0..n {
                let wi = weight * a[(r, i)];
                if wi == 0.0 {
                    continue;
                }
                for j in i..n {
                    out[(i, j)] += wi * a[(r, j)];
                }
            }
        }
        for i in 0..n {
            for j in 0..i {
                out[(i, j)] = out[(j, i)];
            }
        }
        out
    }

    pub(crate) fn tr_mul_vec_weighted(a: &Matrix, y: &[f64], w: Option<&[f64]>) -> Vec<f64> {
        let mut out = vec![0.0; a.cols()];
        for r in 0..a.rows() {
            let wy = w.map_or(1.0, |w| w[r]) * y[r];
            if wy == 0.0 {
                continue;
            }
            for c in 0..a.cols() {
                out[c] += a[(r, c)] * wy;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mul_vec_matches_manual() {
        let a = Matrix::from_rows(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.mul_vec(&[1.0, 1.0, 1.0]), vec![6.0, 15.0]);
    }

    #[test]
    fn gram_is_symmetric_and_correct() {
        let a = Matrix::from_rows(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let g = a.gram_weighted(None);
        assert_eq!(g[(0, 0)], 1.0 + 9.0 + 25.0);
        assert_eq!(g[(0, 1)], 2.0 + 12.0 + 30.0);
        assert_eq!(g[(1, 0)], g[(0, 1)]);
        assert_eq!(g[(1, 1)], 4.0 + 16.0 + 36.0);
    }

    #[test]
    fn weighted_gram_scales_rows() {
        let a = Matrix::from_rows(2, 1, vec![1.0, 2.0]);
        let g = a.gram_weighted(Some(&[2.0, 0.5]));
        assert_eq!(g[(0, 0)], 2.0 * 1.0 + 0.5 * 4.0);
    }

    proptest::proptest! {
        /// The kernels' accumulation order is a contract: whatever shape
        /// the loops take, every element equals the indexed reference's
        /// bit for bit — exact zeros, zero weights and down-weighted rows
        /// included.
        #[test]
        fn kernels_equal_their_indexed_reference_bit_for_bit(
            shape in (0usize..41, 1usize..46),
            entries in proptest::collection::vec(
                proptest::prop_oneof![proptest::strategy::Just(0.0), -10.0f64..10.0],
                40 * 45,
            ),
            weighted in proptest::bool::ANY,
            weights in proptest::collection::vec(
                proptest::prop_oneof![
                    proptest::strategy::Just(0.0),
                    proptest::strategy::Just(1.0),
                    0.0f64..1.0
                ],
                40,
            ),
            vector in proptest::collection::vec(-10.0f64..10.0, 45),
        ) {
            let (rows, cols) = shape;
            let a = Matrix::from_rows(rows, cols, entries[..rows * cols].to_vec());
            let w = weighted.then_some(&weights[..rows]);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&a.gram_weighted(w).data),
                bits(&reference::gram_weighted(&a, w).data)
            );
            assert_eq!(
                bits(&a.mul_vec(&vector[..cols])),
                bits(&reference::mul_vec(&a, &vector[..cols]))
            );
            assert_eq!(
                bits(&a.tr_mul_vec_weighted(&vector[..rows], w)),
                bits(&reference::tr_mul_vec_weighted(&a, &vector[..rows], w))
            );
        }
    }

    #[test]
    fn solve_spd_recovers_solution() {
        // A = [[4,2],[2,3]], x = [1, -1] => b = [2, -1]
        let a = Matrix::from_rows(2, 2, vec![4.0, 2.0, 2.0, 3.0]);
        let x = solve_spd(&a, &[2.0, -1.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn solve_spd_identity() {
        let a = Matrix::identity(4);
        let b = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(solve_spd(&a, &b).unwrap(), b);
    }

    #[test]
    fn solve_spd_rejects_truly_singular() {
        let a = Matrix::from_rows(2, 2, vec![0.0, 0.0, 0.0, 0.0]);
        // Jitter rescues an all-zero matrix only to a near-zero solve; the
        // scaled jitter is relative to MIN_POSITIVE here, so expect either
        // failure or an enormous-but-finite solution; both are acceptable
        // as long as no panic occurs.
        let _ = solve_spd(&a, &[1.0, 1.0]);
    }

    #[test]
    fn ridge_recovers_exact_fit_with_zero_penalty() {
        // y = 2 + 3x on a few points.
        let xs = [0.0, 1.0, 2.0, 3.0];
        let design = Matrix::from_rows(4, 2, xs.iter().flat_map(|x| [1.0, *x]).collect());
        let y: Vec<f64> = xs.iter().map(|x| 2.0 + 3.0 * x).collect();
        let beta = ridge_weighted(&design, &y, None, &[0.0, 0.0]).unwrap();
        assert!((beta[0] - 2.0).abs() < 1e-9);
        assert!((beta[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn ridge_penalty_shrinks_coefficients() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let design = Matrix::from_rows(4, 2, xs.iter().flat_map(|x| [1.0, *x]).collect());
        let y: Vec<f64> = xs.iter().map(|x| 2.0 + 3.0 * x).collect();
        let free = ridge_weighted(&design, &y, None, &[0.0, 0.0]).unwrap();
        let shrunk = ridge_weighted(&design, &y, None, &[0.0, 100.0]).unwrap();
        assert!(shrunk[1].abs() < free[1].abs());
    }

    #[test]
    fn ridge_weights_downweight_outliers() {
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        let design = Matrix::from_rows(5, 2, xs.iter().flat_map(|x| [1.0, *x]).collect());
        let mut y: Vec<f64> = xs.iter().map(|x| 1.0 + 2.0 * x).collect();
        y[4] = 100.0; // outlier
        let w = [1.0, 1.0, 1.0, 1.0, 0.0];
        let beta = ridge_weighted(&design, &y, Some(&w), &[0.0, 0.0]).unwrap();
        assert!((beta[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn slope_through_origin_exact() {
        let x = [1.0, 2.0, 3.0];
        let y = [7.63, 15.26, 22.89];
        let a = slope_through_origin(&x, &y, None).unwrap();
        assert!((a - 7.63).abs() < 1e-12);
        assert!(slope_through_origin(&[0.0], &[1.0], None).is_none());
    }

    #[test]
    fn linear_fit_recovers_line() {
        let x = [0.0, 1.0, 2.0, 3.0];
        let y = [5.0, 7.0, 9.0, 11.0];
        let (a, b) = linear_fit(&x, &y).unwrap();
        assert!((a - 5.0).abs() < 1e-12);
        assert!((b - 2.0).abs() < 1e-12);
    }

    #[test]
    fn linear_fit_degenerate_x() {
        assert!(linear_fit(&[2.0, 2.0, 2.0], &[1.0, 2.0, 3.0]).is_none());
        assert!(linear_fit(&[], &[]).is_none());
    }

    #[test]
    #[should_panic(expected = "rows * cols")]
    fn from_rows_checks_len() {
        let _ = Matrix::from_rows(2, 2, vec![1.0]);
    }
}
