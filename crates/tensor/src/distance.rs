//! Pairwise distance kernels between two sets of points (rows of matrices).
//!
//! These are the geometric primitives of the whole repository: every
//! clustering algorithm and every deep-clustering similarity kernel reduces
//! to one of these `N×K` distance matrices between data points and cluster
//! centers.

use crate::linalg::{cholesky, solve_lower, LinalgError};
use crate::matrix::Matrix;

/// Pairwise **squared Euclidean** distances between the rows of `x` (`n×d`)
/// and the rows of `y` (`k×d`), returned as an `n×k` matrix.
///
/// Uses the expansion `‖a−b‖² = ‖a‖² + ‖b‖² − 2·a·b` so the dominant cost is
/// a single matmul; tiny negative values from cancellation are clamped to 0.
/// Runs in parallel row blocks on the [`runtime::global`] pool with
/// bit-identical results for every thread count.
///
/// # Panics
/// Panics if the feature dimensions differ.
pub fn sq_euclidean_cdist(x: &Matrix, y: &Matrix) -> Matrix {
    crate::par::sq_euclidean_cdist(runtime::global(), x, y)
}

/// Pairwise **squared Mahalanobis** distances with covariance Σ, computed
/// via Cholesky whitening exactly as in the paper (Eq. 4–6):
/// factor `Σ = L·Lᵀ`, whiten both point sets with `L⁻¹` (one triangular
/// solve each), then take squared Euclidean distances in the whitened space:
///
/// `D_M²(z, c) = (z−c)ᵀ Σ⁻¹ (z−c) = ‖L⁻¹(z−c)‖²`.
///
/// # Errors
/// Propagates Cholesky/solve failures for non-SPD Σ.
pub fn sq_mahalanobis_cdist(x: &Matrix, y: &Matrix, sigma: &Matrix) -> Result<Matrix, LinalgError> {
    assert_eq!(x.cols(), y.cols(), "sq_mahalanobis_cdist: feature dims differ");
    assert_eq!(
        sigma.rows(),
        x.cols(),
        "sq_mahalanobis_cdist: Σ is {}x{} but features are {}",
        sigma.rows(),
        sigma.cols(),
        x.cols()
    );
    let l = cholesky(sigma)?;
    // Whiten: W = (L⁻¹·Xᵀ)ᵀ, i.e. solve L·W̃ = Xᵀ.
    let xw = solve_lower(&l, &x.transpose())?.transpose();
    let yw = solve_lower(&l, &y.transpose())?.transpose();
    Ok(sq_euclidean_cdist(&xw, &yw))
}

/// Squared Euclidean distance between two vectors.
///
/// # Panics
/// Panics if lengths differ.
pub fn sq_euclidean(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "sq_euclidean: lengths differ");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Euclidean distance between two vectors.
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    sq_euclidean(a, b).sqrt()
}

/// Cosine similarity between two vectors (0 when either has zero norm).
pub fn cosine_similarity(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "cosine_similarity: lengths differ");
    let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
    let nb: f64 = b.iter().map(|x| x * x).sum::<f64>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sq_euclidean_cdist_matches_naive() {
        let x = Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 1.0], &[-2.0, 3.0]]);
        let y = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 4.0]]);
        let d = sq_euclidean_cdist(&x, &y);
        for i in 0..3 {
            for j in 0..2 {
                let naive = sq_euclidean(x.row(i), y.row(j));
                assert!((d[(i, j)] - naive).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn self_distance_is_zero() {
        let x = Matrix::from_rows(&[&[1.5, -2.5, 3.0]]);
        let d = sq_euclidean_cdist(&x, &x);
        assert_eq!(d[(0, 0)], 0.0);
    }

    #[test]
    fn mahalanobis_identity_equals_euclidean() {
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, -1.0]]);
        let y = Matrix::from_rows(&[&[0.0, 0.0]]);
        let m = sq_mahalanobis_cdist(&x, &y, &Matrix::identity(2)).unwrap();
        let e = sq_euclidean_cdist(&x, &y);
        assert!(m.max_abs_diff(&e) < 1e-10);
    }

    #[test]
    fn mahalanobis_downweights_high_variance_dimension() {
        // Σ with large variance in dim 0: distance along dim 0 should count
        // less than the same displacement along dim 1.
        let sigma = Matrix::from_rows(&[&[100.0, 0.0], &[0.0, 1.0]]);
        let origin = Matrix::from_rows(&[&[0.0, 0.0]]);
        let along0 = Matrix::from_rows(&[&[1.0, 0.0]]);
        let along1 = Matrix::from_rows(&[&[0.0, 1.0]]);
        let d0 = sq_mahalanobis_cdist(&along0, &origin, &sigma).unwrap()[(0, 0)];
        let d1 = sq_mahalanobis_cdist(&along1, &origin, &sigma).unwrap()[(0, 0)];
        assert!(d0 < d1, "high-variance axis must contribute less ({d0} vs {d1})");
        assert!((d0 - 0.01).abs() < 1e-12);
        assert!((d1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mahalanobis_accounts_for_correlation() {
        // Strong positive correlation: a displacement *along* the correlation
        // direction is "cheaper" than one against it.
        let sigma = Matrix::from_rows(&[&[1.0, 0.9], &[0.9, 1.0]]);
        let origin = Matrix::from_rows(&[&[0.0, 0.0]]);
        let with = Matrix::from_rows(&[&[1.0, 1.0]]);
        let against = Matrix::from_rows(&[&[1.0, -1.0]]);
        let dw = sq_mahalanobis_cdist(&with, &origin, &sigma).unwrap()[(0, 0)];
        let da = sq_mahalanobis_cdist(&against, &origin, &sigma).unwrap()[(0, 0)];
        assert!(dw < da, "correlated direction should be closer ({dw} vs {da})");
    }

    #[test]
    fn mahalanobis_rejects_indefinite_sigma() {
        let x = Matrix::zeros(1, 2);
        let bad = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
        assert!(sq_mahalanobis_cdist(&x, &x, &bad).is_err());
    }

    #[test]
    fn vector_helpers() {
        assert_eq!(sq_euclidean(&[0.0, 3.0], &[4.0, 0.0]), 25.0);
        assert_eq!(euclidean(&[0.0, 3.0], &[4.0, 0.0]), 5.0);
        assert!((cosine_similarity(&[1.0, 0.0], &[1.0, 1.0]) - 1.0 / 2f64.sqrt()).abs() < 1e-12);
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }
}
