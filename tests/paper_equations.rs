//! Equation-level verification: each numbered equation of the paper's §3
//! is checked directly against its implementation, independent of any
//! training dynamics.

use autograd::Tape;
use tabledc::{target_distribution, Covariance, Distance, Kernel};
use tensor::distance::{sq_euclidean_cdist, sq_mahalanobis_cdist};
use tensor::linalg::{cholesky, solve_lower, solve_upper};
use tensor::random::{randn, rng};
use tensor::Matrix;

/// Eq. 3: Σ = δ·I with δ = 0.01.
#[test]
fn eq3_scaled_identity_covariance() {
    let sigma = Matrix::scaled_identity(5, 0.01);
    for i in 0..5 {
        for j in 0..5 {
            assert_eq!(sigma[(i, j)], if i == j { 0.01 } else { 0.0 });
        }
    }
}

/// Eq. 4: the Cholesky factor satisfies C = L·Lᵀ with lower-triangular L.
#[test]
fn eq4_cholesky_factorization() {
    let mut r = rng(1);
    let b = randn(4, 4, &mut r);
    let mut spd = b.transpose().matmul(&b);
    for i in 0..4 {
        spd[(i, i)] += 1.0;
    }
    let l = cholesky(&spd).expect("SPD input");
    assert!(l.matmul(&l.transpose()).max_abs_diff(&spd) < 1e-9);
    for i in 0..4 {
        for j in (i + 1)..4 {
            assert_eq!(l[(i, j)], 0.0, "L must be lower triangular");
        }
    }
}

/// Eq. 5: Σ⁻¹ = L⁻ᵀ·L⁻¹ computed via the two triangular solves.
#[test]
fn eq5_inverse_via_triangular_solves() {
    let sigma = Matrix::scaled_identity(3, 0.01);
    let l = cholesky(&sigma).expect("SPD");
    let eye = Matrix::identity(3);
    let linv = solve_lower(&l, &eye).expect("solve");
    let inv = solve_upper(&l.transpose(), &linv).expect("solve");
    // (0.01·I)⁻¹ = 100·I.
    assert!(inv.max_abs_diff(&Matrix::scaled_identity(3, 100.0)) < 1e-9);
}

/// Eq. 6: D_M²(z, c) = (z−c)ᵀ Σ⁻¹ (z−c); for Σ = δI this is ‖z−c‖²/δ.
#[test]
fn eq6_mahalanobis_distance() {
    let mut r = rng(2);
    let z = randn(6, 4, &mut r);
    let c = randn(3, 4, &mut r);
    let general = sq_mahalanobis_cdist(&z, &c, &Matrix::scaled_identity(4, 0.01)).expect("SPD");
    let scaled = &sq_euclidean_cdist(&z, &c) * 100.0;
    assert!(general.max_abs_diff(&scaled) < 1e-6);
}

/// Eq. 7: q_ij = 1 / (1 + D²/γ²).
#[test]
fn eq7_cauchy_kernel_values() {
    let gamma = 2.0;
    let q = Matrix::from_rows(&[&[0.0, 1.0, 4.0]]).map(|d2| Kernel::Cauchy { gamma }.soft_kernel().eval(d2));
    assert!((q[(0, 0)] - 1.0).abs() < 1e-12);
    assert!((q[(0, 1)] - 1.0 / (1.0 + 1.0 / 4.0)).abs() < 1e-12);
    assert!((q[(0, 2)] - 1.0 / (1.0 + 4.0 / 4.0)).abs() < 1e-12);
}

/// Eq. 8 + 9: normalized q is a simplex row; m = softmax(q) is a sharper
/// simplex row; argmax is preserved by the softmax.
#[test]
fn eq8_eq9_assignment_normalization_and_softmax() {
    let t = Tape::new();
    let mut r = rng(3);
    let z = t.constant(randn(8, 4, &mut r));
    let c = t.constant(randn(3, 4, &mut r));
    let d2 = Distance::Mahalanobis(Covariance::ScaledIdentity(0.01))
        .sq_cdist(&t, z, c)
        .expect("distance");
    let q = Kernel::Cauchy { gamma: 1.0 }.apply(&t, d2, 1e-10);
    let m = t.softmax_rows(q);
    let (qv, mv) = (t.value(q), t.value(m));
    for i in 0..8 {
        let qs: f64 = qv.row(i).iter().sum();
        let ms: f64 = mv.row(i).iter().sum();
        // The ε guard of Eq. 8 leaves row sums a few 1e-7 under 1 when the
        // kernel values are tiny (sharp δ = 0.01 Mahalanobis distances).
        assert!((qs - 1.0).abs() < 1e-5, "Eq. 8 row {i} sums to {qs}");
        assert!((ms - 1.0).abs() < 1e-9, "Eq. 9 row {i} sums to {ms}");
    }
    assert_eq!(qv.argmax_rows(), mv.argmax_rows(), "softmax must preserve the argmax");
}

/// Eq. 11: p_ij ∝ q_ij²/f_j sharpens confident assignments and stays a
/// valid distribution.
#[test]
fn eq11_target_distribution_sharpens() {
    let q = Matrix::from_rows(&[&[0.7, 0.2, 0.1], &[0.34, 0.33, 0.33]]);
    let p = target_distribution(&q);
    for i in 0..2 {
        let s: f64 = p.row(i).iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
    }
    // Confident row becomes sharper.
    assert!(p[(0, 0)] > q[(0, 0)]);
    // The f_j division deliberately *reorders* near-uniform rows away from
    // globally frequent clusters ("preventing cluster dominance", §2.1):
    // cluster 0 has the largest soft frequency, so the ambiguous second row
    // is pushed off it.
    let f0 = q[(0, 0)] + q[(1, 0)];
    let f2 = q[(0, 2)] + q[(1, 2)];
    assert!(f0 > f2);
    assert!(p[(1, 0)] < p[(1, 2)], "row 2 should be steered away from the dominant cluster");
}

/// Eq. 10 + 12 + 13: the total loss is α·KL(p‖m) + re_loss with α = 0.9,
/// and evaluates to the hand-computed value on a fixed example.
#[test]
fn eq13_total_loss_combination() {
    use nn::loss::{kl_div, mse};
    let t = Tape::new();
    let p = t.constant(Matrix::from_rows(&[&[0.8, 0.2]]));
    let m = t.constant(Matrix::from_rows(&[&[0.5, 0.5]]));
    let x = t.constant(Matrix::from_rows(&[&[1.0, 0.0]]));
    let xhat = t.constant(Matrix::from_rows(&[&[0.5, 0.5]]));
    let ce = kl_div(&t, p, m);
    let re = mse(&t, x, xhat);
    let total = t.add(t.scale(ce, 0.9), re);
    let expected_ce = 0.8 * (0.8f64 / 0.5).ln() + 0.2 * (0.2f64 / 0.5).ln();
    let expected_re = (0.25 + 0.25) / 2.0;
    let got = t.value(total)[(0, 0)];
    assert!((got - (0.9 * expected_ce + expected_re)).abs() < 1e-6, "loss = {got}");
}

/// The paper's Student-t vs Cauchy claim: at ν = 1 they coincide, and for
/// large ν the Student-t kernel approaches the Gaussian (thin tails).
#[test]
fn student_t_limits() {
    let cauchy = Kernel::Cauchy { gamma: 1.0 }.soft_kernel().eval(9.0);
    let t1 = Kernel::StudentT { nu: 1.0 }.soft_kernel().eval(9.0);
    assert!((cauchy - t1).abs() < 1e-12);
    let t50 = Kernel::StudentT { nu: 50.0 }.soft_kernel().eval(9.0);
    let normal = Kernel::Normal { sigma: 1.0 }.soft_kernel().eval(9.0);
    // ν=50 is already several times below the heavy-tailed Cauchy and
    // above the Gaussian it converges to.
    assert!(t50 < cauchy / 5.0);
    assert!(normal < t50);
}
