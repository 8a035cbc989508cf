//! Numerical linear algebra: Cholesky decomposition, triangular solves, and
//! SPD inversion.
//!
//! TableDC (paper Eq. 4–5) inverts its covariance matrix Σ via the Cholesky
//! factorization `Σ = L·Lᵀ` and two triangular solves; this module provides
//! exactly that machinery for *general* SPD matrices, even though the paper's
//! default Σ is a scaled identity (for which the whitening reduces to a
//! scalar multiply — see [`crate::distance`]). Keeping the general path lets
//! the library support empirical (shrunk) covariance matrices as an ablation.

use crate::matrix::Matrix;

/// Errors from numerically fallible linear-algebra routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// The input matrix was not square.
    NotSquare { rows: usize, cols: usize },
    /// Cholesky failed: the matrix is not (numerically) positive definite.
    /// Contains the pivot index where the failure occurred.
    NotPositiveDefinite { pivot: usize },
    /// A triangular solve encountered a (near-)zero diagonal element.
    SingularTriangular { index: usize },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::NotSquare { rows, cols } => {
                write!(f, "matrix is not square ({rows}x{cols})")
            }
            LinalgError::NotPositiveDefinite { pivot } => {
                write!(f, "matrix is not positive definite (failure at pivot {pivot})")
            }
            LinalgError::SingularTriangular { index } => {
                write!(f, "triangular matrix is singular at diagonal index {index}")
            }
        }
    }
}

impl std::error::Error for LinalgError {}

/// Computes the Cholesky factor `L` of an SPD matrix `A = L·Lᵀ`
/// (paper Eq. 4). `L` is lower-triangular with strictly positive diagonal.
///
/// # Errors
/// [`LinalgError::NotSquare`] for non-square input;
/// [`LinalgError::NotPositiveDefinite`] if a pivot is not strictly positive
/// (the matrix is indefinite, semi-definite, or too ill-conditioned).
pub fn cholesky(a: &Matrix) -> Result<Matrix, LinalgError> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare { rows: a.rows(), cols: a.cols() });
    }
    let n = a.rows();
    let mut l = Matrix::zeros(n, n);
    for j in 0..n {
        // Diagonal element: sqrt(A[j,j] - Σ_{k<j} L[j,k]²)
        let mut d = a[(j, j)];
        for k in 0..j {
            d -= l[(j, k)] * l[(j, k)];
        }
        if d <= 0.0 || !d.is_finite() {
            return Err(LinalgError::NotPositiveDefinite { pivot: j });
        }
        let diag = d.sqrt();
        l[(j, j)] = diag;
        // Column below the diagonal.
        for i in (j + 1)..n {
            let mut s = a[(i, j)];
            for k in 0..j {
                s -= l[(i, k)] * l[(j, k)];
            }
            l[(i, j)] = s / diag;
        }
    }
    Ok(l)
}

/// Solves `L·X = B` for lower-triangular `L` by forward substitution.
/// `B` may have multiple right-hand-side columns.
///
/// # Errors
/// [`LinalgError::SingularTriangular`] on a zero diagonal.
pub fn solve_lower(l: &Matrix, b: &Matrix) -> Result<Matrix, LinalgError> {
    if !l.is_square() {
        return Err(LinalgError::NotSquare { rows: l.rows(), cols: l.cols() });
    }
    assert_eq!(l.rows(), b.rows(), "solve_lower: dimension mismatch");
    let n = l.rows();
    let m = b.cols();
    let mut x = b.clone();
    for i in 0..n {
        let diag = l[(i, i)];
        if diag == 0.0 {
            return Err(LinalgError::SingularTriangular { index: i });
        }
        for c in 0..m {
            let mut s = x[(i, c)];
            for k in 0..i {
                s -= l[(i, k)] * x[(k, c)];
            }
            x[(i, c)] = s / diag;
        }
    }
    Ok(x)
}

/// Solves `U·X = B` for upper-triangular `U` by backward substitution.
///
/// # Errors
/// [`LinalgError::SingularTriangular`] on a zero diagonal.
pub fn solve_upper(u: &Matrix, b: &Matrix) -> Result<Matrix, LinalgError> {
    if !u.is_square() {
        return Err(LinalgError::NotSquare { rows: u.rows(), cols: u.cols() });
    }
    assert_eq!(u.rows(), b.rows(), "solve_upper: dimension mismatch");
    let n = u.rows();
    let m = b.cols();
    let mut x = b.clone();
    for i in (0..n).rev() {
        let diag = u[(i, i)];
        if diag == 0.0 {
            return Err(LinalgError::SingularTriangular { index: i });
        }
        for c in 0..m {
            let mut s = x[(i, c)];
            for k in (i + 1)..n {
                s -= u[(i, k)] * x[(k, c)];
            }
            x[(i, c)] = s / diag;
        }
    }
    Ok(x)
}

/// Inverts an SPD matrix via Cholesky: `A⁻¹ = L⁻ᵀ·L⁻¹` (paper Eq. 5).
///
/// # Errors
/// Propagates Cholesky / solve failures.
pub fn spd_inverse(a: &Matrix) -> Result<Matrix, LinalgError> {
    let l = cholesky(a)?;
    let n = a.rows();
    // Solve L·Y = I, then Lᵀ·X = Y.
    let y = solve_lower(&l, &Matrix::identity(n))?;
    solve_upper(&l.transpose(), &y)
}

/// Empirical covariance of the rows of `x` (features are columns), with
/// optional shrinkage towards the scaled identity:
/// `Σ = (1-λ)·S + λ·(tr(S)/d)·I`.
///
/// Shrinkage keeps Σ positive definite when `n ≤ d` or under
/// multicollinearity — the failure mode the paper's scaled identity avoids.
pub fn empirical_covariance(x: &Matrix, shrinkage: f64) -> Matrix {
    let (n, d) = x.shape();
    assert!((0.0..=1.0).contains(&shrinkage), "shrinkage must be in [0,1]");
    let means = x.col_means();
    let mut s = Matrix::zeros(d, d);
    for row in x.row_iter() {
        for i in 0..d {
            let di = row[i] - means[i];
            for j in i..d {
                let dj = row[j] - means[j];
                s[(i, j)] += di * dj;
            }
        }
    }
    let denom = (n.max(2) - 1) as f64;
    for i in 0..d {
        for j in i..d {
            let v = s[(i, j)] / denom;
            s[(i, j)] = v;
            s[(j, i)] = v;
        }
    }
    if shrinkage > 0.0 {
        let trace_mean = (0..d).map(|i| s[(i, i)]).sum::<f64>() / d.max(1) as f64;
        for i in 0..d {
            for j in 0..d {
                s[(i, j)] *= 1.0 - shrinkage;
            }
            s[(i, i)] += shrinkage * trace_mean;
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        // A = Bᵀ·B + I is SPD for any B.
        let b = Matrix::from_rows(&[&[1.0, 2.0, 0.0], &[0.5, -1.0, 3.0], &[2.0, 0.0, 1.0]]);
        let mut a = b.transpose().matmul(&b);
        for i in 0..3 {
            a[(i, i)] += 1.0;
        }
        a
    }

    #[test]
    fn cholesky_reconstructs_input() {
        let a = spd3();
        let l = cholesky(&a).unwrap();
        let recon = l.matmul(&l.transpose());
        assert!(recon.max_abs_diff(&a) < 1e-10);
        // Lower triangular: everything above the diagonal is zero.
        for i in 0..3 {
            for j in (i + 1)..3 {
                assert_eq!(l[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn cholesky_of_scaled_identity_is_sqrt_delta() {
        let sigma = Matrix::scaled_identity(5, 0.01);
        let l = cholesky(&sigma).unwrap();
        for i in 0..5 {
            assert!((l[(i, i)] - 0.1).abs() < 1e-15);
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert_eq!(cholesky(&a), Err(LinalgError::NotPositiveDefinite { pivot: 1 }));
    }

    #[test]
    fn cholesky_rejects_non_square() {
        let a = Matrix::zeros(2, 3);
        assert_eq!(cholesky(&a), Err(LinalgError::NotSquare { rows: 2, cols: 3 }));
    }

    #[test]
    fn triangular_solves_round_trip() {
        let a = spd3();
        let l = cholesky(&a).unwrap();
        let b = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let y = solve_lower(&l, &b).unwrap();
        assert!(l.matmul(&y).max_abs_diff(&b) < 1e-12);
        let u = l.transpose();
        let x = solve_upper(&u, &b).unwrap();
        assert!(u.matmul(&x).max_abs_diff(&b) < 1e-12);
    }

    #[test]
    fn spd_inverse_gives_identity() {
        let a = spd3();
        let inv = spd_inverse(&a).unwrap();
        let eye = a.matmul(&inv);
        assert!(eye.max_abs_diff(&Matrix::identity(3)) < 1e-10);
    }

    #[test]
    fn spd_inverse_of_scaled_identity() {
        // (δI)⁻¹ = (1/δ)I — the exact quantity TableDC's Mahalanobis uses.
        let inv = spd_inverse(&Matrix::scaled_identity(4, 0.01)).unwrap();
        assert!(inv.max_abs_diff(&Matrix::scaled_identity(4, 100.0)) < 1e-9);
    }

    #[test]
    fn empirical_covariance_diag_matches_variance() {
        let x = Matrix::from_rows(&[&[1.0, 0.0], &[3.0, 0.0], &[5.0, 0.0]]);
        let s = empirical_covariance(&x, 0.0);
        assert!((s[(0, 0)] - 4.0).abs() < 1e-12); // sample variance of {1,3,5}
        assert_eq!(s[(1, 1)], 0.0);
        assert_eq!(s[(0, 1)], 0.0);
    }

    #[test]
    fn shrinkage_restores_positive_definiteness() {
        // A constant feature gives an exactly-zero variance row/column, so
        // the raw covariance is singular; shrinkage must restore SPD.
        let x = Matrix::from_rows(&[&[0.0, 0.0], &[2.0, 0.0]]);
        let raw = empirical_covariance(&x, 0.0);
        assert!(cholesky(&raw).is_err());
        let shrunk = empirical_covariance(&x, 0.5);
        assert!(cholesky(&shrunk).is_ok());
    }

    #[test]
    fn covariance_is_symmetric() {
        let x = Matrix::from_rows(&[&[1.0, 2.0, -1.0], &[0.0, 1.0, 4.0], &[2.0, -3.0, 0.5]]);
        let s = empirical_covariance(&x, 0.1);
        assert!(s.max_abs_diff(&s.transpose()) < 1e-14);
    }
}
