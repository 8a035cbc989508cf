//! # tensor — dense matrices and numerical primitives for TableDC
//!
//! The numeric foundation of the TableDC reproduction: a dense row-major
//! `f64` [`Matrix`], Cholesky-based linear algebra ([`linalg`]), pairwise
//! distance kernels ([`distance`]) including the Mahalanobis distance at the
//! heart of TableDC (paper Eq. 3–6), and seeded random construction
//! ([`random`]).
//!
//! Everything is pure Rust with no external numerics dependencies. The hot
//! kernel is the packed, register-tiled matmul in [`par`] (which the cdist
//! kernels reduce to); it reads transposed operands in place
//! ([`Matrix::matmul_tn`], [`Matrix::matmul_nt`]), runs its AVX2 or
//! AVX-512 copy when the CPU has the feature, and keeps the naive loop's
//! exact per-element arithmetic, so every result is bit-identical across
//! thread counts, CPUs and compiled copies. The soft-assignment clustering head and its loss run as
//! fused row-block kernels ([`head`]) under the same bit-identity rule, as
//! do the training layer stack's dense layer and MSE loss ([`layer`]).

pub mod distance;
pub mod head;
pub mod layer;
pub mod linalg;
pub mod matrix;
pub mod par;
pub mod random;

pub use linalg::{cholesky, empirical_covariance, solve_lower, solve_upper, spd_inverse, LinalgError};
pub use matrix::Matrix;

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use crate::distance::{sq_euclidean_cdist, sq_mahalanobis_cdist};
    use crate::linalg::{cholesky, solve_lower, solve_upper};
    use crate::matrix::Matrix;

    /// Strategy: a random matrix with entries in [-5, 5].
    fn matrix_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
        proptest::collection::vec(-5.0..5.0f64, rows * cols)
            .prop_map(move |v| Matrix::from_vec(rows, cols, v))
    }

    /// Strategy: a random SPD matrix `BᵀB + I`.
    fn spd_strategy(n: usize) -> impl Strategy<Value = Matrix> {
        matrix_strategy(n, n).prop_map(move |b| {
            let mut a = b.transpose().matmul(&b);
            for i in 0..n {
                a[(i, i)] += 1.0;
            }
            a
        })
    }

    proptest! {
        #[test]
        fn cholesky_reconstruction(a in spd_strategy(4)) {
            let l = cholesky(&a).unwrap();
            let recon = l.matmul(&l.transpose());
            prop_assert!(recon.max_abs_diff(&a) < 1e-8);
        }

        #[test]
        fn solves_invert_triangular_products(a in spd_strategy(4), b in matrix_strategy(4, 2)) {
            let l = cholesky(&a).unwrap();
            let y = solve_lower(&l, &b).unwrap();
            prop_assert!(l.matmul(&y).max_abs_diff(&b) < 1e-8);
            let u = l.transpose();
            let x = solve_upper(&u, &b).unwrap();
            prop_assert!(u.matmul(&x).max_abs_diff(&b) < 1e-8);
        }

        #[test]
        fn cdist_is_nonnegative_and_symmetric(x in matrix_strategy(5, 3)) {
            let d = sq_euclidean_cdist(&x, &x);
            for i in 0..5 {
                prop_assert!(d[(i, i)] < 1e-9);
                for j in 0..5 {
                    prop_assert!(d[(i, j)] >= 0.0);
                    prop_assert!((d[(i, j)] - d[(j, i)]).abs() < 1e-9);
                }
            }
        }

        #[test]
        fn mahalanobis_matches_explicit_quadratic_form(
            x in matrix_strategy(3, 3),
            y in matrix_strategy(2, 3),
            sigma in spd_strategy(3),
        ) {
            let d = sq_mahalanobis_cdist(&x, &y, &sigma).unwrap();
            let inv = crate::linalg::spd_inverse(&sigma).unwrap();
            for i in 0..3 {
                for j in 0..2 {
                    let diff: Vec<f64> = x.row(i).iter().zip(y.row(j)).map(|(a, b)| a - b).collect();
                    let dm = Matrix::from_vec(1, 3, diff.clone());
                    let q = dm.matmul(&inv).matmul(&dm.transpose())[(0, 0)];
                    prop_assert!((d[(i, j)] - q).abs() < 1e-6 * (1.0 + q.abs()));
                }
            }
        }

        #[test]
        fn softmax_rows_are_distributions(x in matrix_strategy(4, 6)) {
            let s = x.softmax_rows();
            for i in 0..4 {
                let sum: f64 = s.row(i).iter().sum();
                prop_assert!((sum - 1.0).abs() < 1e-9);
                prop_assert!(s.row(i).iter().all(|&p| (0.0..=1.0).contains(&p)));
            }
        }

        #[test]
        fn matmul_distributes_over_addition(
            a in matrix_strategy(3, 4),
            b in matrix_strategy(4, 2),
            c in matrix_strategy(4, 2),
        ) {
            let lhs = a.matmul(&(&b + &c));
            let rhs = &a.matmul(&b) + &a.matmul(&c);
            prop_assert!(lhs.max_abs_diff(&rhs) < 1e-9);
        }

        #[test]
        fn transpose_reverses_matmul(a in matrix_strategy(3, 4), b in matrix_strategy(4, 2)) {
            let lhs = a.matmul(&b).transpose();
            let rhs = b.transpose().matmul(&a.transpose());
            prop_assert!(lhs.max_abs_diff(&rhs) < 1e-10);
        }
    }
}
