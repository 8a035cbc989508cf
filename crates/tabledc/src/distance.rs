//! Distance measures between latent points and cluster centers, on the
//! autograd tape (paper §3, Eq. 3–6, and the Table 5 ablation).

use autograd::{Tape, Var};
use tensor::linalg::{cholesky, empirical_covariance, solve_lower, LinalgError};
use tensor::Matrix;

/// Covariance model for the Mahalanobis distance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Covariance {
    /// `Σ = δ·I` — the paper's default with δ = 0.01 (Eq. 3). The scaled
    /// identity "adjusts the strictness of distance between data points"
    /// and sidesteps singular empirical covariances.
    ScaledIdentity(f64),
    /// Empirical covariance of the current latent batch with shrinkage
    /// `λ` towards the scaled identity — the full covariance-aware variant,
    /// kept as an ablation (DESIGN.md §5). Recomputed (and detached) each
    /// training epoch; inference uses the covariance of the final training
    /// latent, frozen when the fit ends, so every row is scored alone.
    Empirical {
        /// Shrinkage intensity in [0, 1].
        shrinkage: f64,
    },
}

impl Covariance {
    /// The paper's default: δ = 0.01.
    pub const PAPER: Covariance = Covariance::ScaledIdentity(0.01);
}

/// Distance measure used by the self-supervised module (Table 5, top half).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Distance {
    /// Squared Euclidean — the SDCN-style choice.
    Euclidean,
    /// Cosine distance `1 − cos` (squared for kernel input).
    Cosine,
    /// Squared Mahalanobis with the given covariance model — TableDC's
    /// choice (Eq. 6).
    Mahalanobis(Covariance),
}

impl Distance {
    /// TableDC's default distance (Mahalanobis, Σ = 0.01·I).
    pub const PAPER: Distance = Distance::Mahalanobis(Covariance::PAPER);

    /// Computes the `n×k` matrix of **squared** distances between the rows
    /// of `z` and the rows of `c`, differentiable w.r.t. both.
    ///
    /// For the empirical-covariance variant, Σ is estimated from the
    /// *current values* of `z` and enters the graph as a constant whitening
    /// transform ([`whitening`]; gradients do not flow through Σ itself,
    /// matching how such losses are trained in practice). This is the
    /// training path (TableDC's head takes it through
    /// [`Distance::sq_cdist_unscaled`]); inference whitens with the
    /// transform frozen from the training latent when the fit ends
    /// ([`crate::TableDc`]).
    ///
    /// # Errors
    /// [`LinalgError`] if an empirical covariance is not positive definite
    /// even after shrinkage.
    pub fn sq_cdist(self, t: &Tape, z: Var, c: Var) -> Result<Var, LinalgError> {
        let (d2, scale) = self.sq_cdist_unscaled(t, z, c)?;
        Ok(scale.map_or(d2, |s| t.scale(d2, s)))
    }

    /// [`Distance::sq_cdist`] split into squared distances and a constant
    /// factor still to be applied to them: the scaled-identity Mahalanobis
    /// distance's `1/δ` (`None` for every other distance). TableDC's
    /// clustering head applies the factor itself
    /// ([`tensor::head::HeadSpec::scale`]), so no scaled `n×k` copy is
    /// recorded.
    ///
    /// # Errors
    /// As [`Distance::sq_cdist`].
    pub fn sq_cdist_unscaled(self, t: &Tape, z: Var, c: Var) -> Result<(Var, Option<f64>), LinalgError> {
        match self {
            Distance::Euclidean => Ok((t.sq_dist_cdist(z, c), None)),
            Distance::Cosine => {
                // 1 − ẑ·ĉᵀ, squared: normalize rows on-tape so gradients
                // account for the normalization.
                let zn = normalize_rows_on_tape(t, z);
                let cn = normalize_rows_on_tape(t, c);
                let sim = t.matmul(zn, t.transpose(cn));
                let dist = t.add_scalar(t.neg(sim), 1.0);
                Ok((t.square(dist), None))
            }
            Distance::Mahalanobis(cov) => match cov {
                Covariance::ScaledIdentity(delta) => {
                    assert!(delta > 0.0, "Mahalanobis: delta must be positive, got {delta}");
                    // (z−c)ᵀ(δI)⁻¹(z−c) = ‖z−c‖²/δ.
                    Ok((t.sq_dist_cdist(z, c), Some(1.0 / delta)))
                }
                Covariance::Empirical { shrinkage } => {
                    let w = t.constant(t.with_value(z, |zv| whitening(zv, shrinkage))?);
                    let zw = t.matmul(z, w);
                    let cw = t.matmul(c, w);
                    Ok((t.sq_dist_cdist(zw, cw), None))
                }
            },
        }
    }

    /// Display name for experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            Distance::Euclidean => "Euclidean",
            Distance::Cosine => "Cosine",
            Distance::Mahalanobis(_) => "Mahalanobis",
        }
    }
}

/// The whitening transform of the latent rows `z` (Eq. 4–6): estimate Σ
/// from `z` with shrinkage, factor Σ = L·Lᵀ, and return W = L⁻ᵀ, so that
/// ‖(z−c)·W‖² = (z−c)ᵀ·Σ⁻¹·(z−c).
///
/// # Errors
/// [`LinalgError`] if Σ is not positive definite even after shrinkage.
pub(crate) fn whitening(z: &Matrix, shrinkage: f64) -> Result<Matrix, LinalgError> {
    let sigma = empirical_covariance(z, shrinkage);
    let l = cholesky(&sigma)?;
    // L⁻¹ via forward solve against I; W = (L⁻¹)ᵀ.
    let l_inv = solve_lower(&l, &Matrix::identity(sigma.rows()))?;
    Ok(l_inv.transpose())
}

/// The guard added to squared row norms before the square root when rows
/// are L2-normalized for the cosine distance.
const NORM_EPS: f64 = 1e-12;

/// L2-normalizes each row of `v` on the tape: `v / sqrt(rowsum(v²) + ε)`.
fn normalize_rows_on_tape(t: &Tape, v: Var) -> Var {
    let norms = t.sqrt(t.add_scalar(t.row_sums(t.square(v)), NORM_EPS));
    t.div_col_broadcast(v, norms)
}

/// The value of [`Tape::square`] on one entry: `powf(2.0)` evaluated by
/// the math library. The tape passes the exponent as a runtime value;
/// `black_box` stops LLVM from folding this constant one into `v * v`,
/// which rounds differently for some `v`.
pub(crate) fn square(v: f64) -> f64 {
    v.powf(std::hint::black_box(2.0))
}

/// [`normalize_rows_on_tape`]'s value for one row, in place, with the
/// tape ops' arithmetic.
pub(crate) fn normalize_row(row: &mut [f64]) {
    let sq_sum: f64 = row.iter().map(|&v| square(v)).sum();
    let norm = (sq_sum + NORM_EPS).sqrt();
    for v in row.iter_mut() {
        *v /= norm;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autograd::check::assert_grad_close;
    use tensor::distance::{sq_euclidean_cdist, sq_mahalanobis_cdist};
    use tensor::random::{randn, rng};

    #[test]
    fn euclidean_matches_tensor_cdist() {
        let t = Tape::new();
        let z = t.leaf(randn(5, 3, &mut rng(1)));
        let c = t.leaf(randn(2, 3, &mut rng(2)));
        let d = Distance::Euclidean.sq_cdist(&t, z, c).unwrap();
        let expect = sq_euclidean_cdist(&t.value(z), &t.value(c));
        assert!(t.value(d).max_abs_diff(&expect) < 1e-12);
    }

    #[test]
    fn scaled_identity_is_scaled_euclidean() {
        let t = Tape::new();
        let z = t.leaf(randn(4, 3, &mut rng(3)));
        let c = t.leaf(randn(2, 3, &mut rng(4)));
        let m = Distance::Mahalanobis(Covariance::ScaledIdentity(0.01))
            .sq_cdist(&t, z, c)
            .unwrap();
        let e = Distance::Euclidean.sq_cdist(&t, z, c).unwrap();
        let scaled = &t.value(e) * 100.0;
        assert!(t.value(m).max_abs_diff(&scaled) < 1e-9);
    }

    #[test]
    fn empirical_matches_tensor_mahalanobis() {
        let mut r = rng(5);
        let zv = randn(20, 4, &mut r);
        let cv = randn(3, 4, &mut r);
        let shrinkage = 0.2;
        let t = Tape::new();
        let z = t.leaf(zv.clone());
        let c = t.leaf(cv.clone());
        let d = Distance::Mahalanobis(Covariance::Empirical { shrinkage })
            .sq_cdist(&t, z, c)
            .unwrap();
        let sigma = tensor::linalg::empirical_covariance(&zv, shrinkage);
        let expect = sq_mahalanobis_cdist(&zv, &cv, &sigma).unwrap();
        assert!(t.value(d).max_abs_diff(&expect) < 1e-8);
    }

    #[test]
    fn cosine_distance_range_and_identity() {
        let t = Tape::new();
        let z = t.leaf(Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 2.0]]));
        let d = Distance::Cosine.sq_cdist(&t, z, z).unwrap();
        let v = t.value(d);
        assert!(v[(0, 0)] < 1e-9); // self-distance ≈ 0
        assert!((v[(0, 1)] - 1.0).abs() < 1e-9); // orthogonal → (1−0)² = 1
    }

    #[test]
    fn gradients_flow_through_all_distances() {
        let zv = randn(4, 3, &mut rng(6));
        let cv = randn(2, 3, &mut rng(7));
        for dist in [
            Distance::Euclidean,
            Distance::Cosine,
            Distance::Mahalanobis(Covariance::ScaledIdentity(0.05)),
        ] {
            assert_grad_close(
                &zv,
                |t, z| {
                    let c = t.constant(cv.clone());
                    let d = dist.sq_cdist(t, z, c).unwrap();
                    t.mean(d)
                },
                1e-5,
                1e-4,
            );
        }
    }

    #[test]
    fn mahalanobis_grad_wrt_centers() {
        let zv = randn(6, 3, &mut rng(8));
        let cv = randn(2, 3, &mut rng(9));
        assert_grad_close(
            &cv,
            |t, c| {
                let z = t.constant(zv.clone());
                let d = Distance::PAPER.sq_cdist(t, z, c).unwrap();
                t.mean(d)
            },
            1e-5,
            1e-4,
        );
    }
}
