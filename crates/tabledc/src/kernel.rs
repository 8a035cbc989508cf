//! Similarity kernels mapping squared distances to soft assignments
//! (paper Eq. 7 and the Table 5 ablation).

use autograd::{Tape, Var};
use tensor::head::SoftKernel;

/// Kernel turning squared distances into similarities (larger = more
/// similar); [`Kernel::apply`] normalizes them into soft assignments `q`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kernel {
    /// Heavy-tailed Cauchy kernel `q = 1 / (1 + D²/γ²)` — TableDC's choice
    /// (Eq. 7): its undefined mean/variance makes it "robust to outliers,
    /// as its shape is unaffected by them".
    Cauchy {
        /// Scale hyper-parameter γ.
        gamma: f64,
    },
    /// Student's-t kernel `q = (1 + D²/ν)^(−(ν+1)/2)` — the DEC/SDCN
    /// default; approaches a Gaussian for large ν (less outlier-tolerant).
    StudentT {
        /// Degrees of freedom ν.
        nu: f64,
    },
    /// Gaussian kernel `q = exp(−D²/(2σ²))` — standard normal decay.
    Normal {
        /// Bandwidth σ.
        sigma: f64,
    },
}

impl Kernel {
    /// TableDC's default kernel: Cauchy with γ = 1.
    pub const PAPER: Kernel = Kernel::Cauchy { gamma: 1.0 };

    /// Soft assignments on the tape (Eq. 7–8): the kernel applied to the
    /// `n×k` squared distances, each row divided by its sum plus `eps`.
    /// One fused node ([`Tape::soft_assign`]).
    pub fn apply(self, t: &Tape, sq_dist: Var, eps: f64) -> Var {
        t.soft_assign(sq_dist, self.soft_kernel(), eps)
    }

    /// The kernel's pointwise form, as the fused head op takes it.
    pub fn soft_kernel(self) -> SoftKernel {
        match self {
            Kernel::Cauchy { gamma } => {
                assert!(gamma > 0.0, "Cauchy kernel: gamma must be positive");
                SoftKernel::Power { scale: 1.0 / (gamma * gamma), exponent: -1.0 }
            }
            Kernel::StudentT { nu } => {
                assert!(nu > 0.0, "Student-t kernel: nu must be positive");
                SoftKernel::Power { scale: 1.0 / nu, exponent: -(nu + 1.0) / 2.0 }
            }
            Kernel::Normal { sigma } => {
                assert!(sigma > 0.0, "Normal kernel: sigma must be positive");
                SoftKernel::Exp { scale: -1.0 / (2.0 * sigma * sigma) }
            }
        }
    }

    /// Display name for experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Cauchy { .. } => "Cauchy",
            Kernel::StudentT { .. } => "Student's t",
            Kernel::Normal { .. } => "Normal",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autograd::check::assert_grad_close;
    use tensor::random::{randn, rng};
    use tensor::Matrix;

    /// The unnormalized kernel values (Eq. 7). `black_box` keeps LLVM from
    /// folding `powf(x, −1.0)` into `1.0 / x` for these constant kernels.
    fn apply_to(k: Kernel, d2: &Matrix) -> Matrix {
        d2.map(|v| std::hint::black_box(k.soft_kernel()).eval(v))
    }

    #[test]
    fn kernels_are_one_at_zero_distance() {
        let d2 = Matrix::zeros(1, 3);
        for k in [Kernel::PAPER, Kernel::StudentT { nu: 1.0 }, Kernel::Normal { sigma: 1.0 }] {
            let q = apply_to(k, &d2);
            assert!(q.as_slice().iter().all(|&v| (v - 1.0).abs() < 1e-12), "{k:?}");
        }
    }

    #[test]
    fn kernels_decrease_with_distance() {
        let d2 = Matrix::from_rows(&[&[0.0, 1.0, 4.0, 100.0]]);
        for k in [Kernel::PAPER, Kernel::StudentT { nu: 2.0 }, Kernel::Normal { sigma: 1.0 }] {
            let q = apply_to(k, &d2);
            for w in q.as_slice().windows(2) {
                assert!(w[0] > w[1], "{k:?} not monotone: {:?}", q.as_slice());
            }
            assert!(q.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn cauchy_has_heavier_tail_than_normal() {
        // The paper's outlier-tolerance argument: at large distances the
        // Cauchy similarity stays well above the Gaussian one.
        let d2 = Matrix::from_rows(&[&[25.0]]);
        let cauchy = apply_to(Kernel::Cauchy { gamma: 1.0 }, &d2)[(0, 0)];
        let normal = apply_to(Kernel::Normal { sigma: 1.0 }, &d2)[(0, 0)];
        assert!(cauchy > normal * 100.0, "cauchy {cauchy} vs normal {normal}");
    }

    #[test]
    fn student_t_with_nu1_matches_cauchy_gamma1() {
        // t-distribution with ν=1 *is* the Cauchy distribution.
        let d2 = Matrix::from_rows(&[&[0.3, 2.0, 9.0]]);
        let c = apply_to(Kernel::Cauchy { gamma: 1.0 }, &d2);
        let s = apply_to(Kernel::StudentT { nu: 1.0 }, &d2);
        assert!(c.max_abs_diff(&s) < 1e-12);
    }

    #[test]
    fn gamma_controls_kernel_width() {
        let d2 = Matrix::from_rows(&[&[1.0]]);
        let narrow = apply_to(Kernel::Cauchy { gamma: 0.5 }, &d2)[(0, 0)];
        let wide = apply_to(Kernel::Cauchy { gamma: 2.0 }, &d2)[(0, 0)];
        assert!(wide > narrow);
    }

    #[test]
    fn kernel_gradients_check_out() {
        let mut d2 = randn(3, 4, &mut rng(1));
        d2.map_inplace(|v| v * v + 0.1); // positive distances
        // Normalized rows sum to ~1, so weight the entries: a plain mean
        // of `q` would have a near-zero gradient.
        let w = randn(3, 4, &mut rng(2));
        for k in [
            Kernel::Cauchy { gamma: 1.3 },
            Kernel::StudentT { nu: 1.0 },
            Kernel::Normal { sigma: 0.8 },
        ] {
            assert_grad_close(
                &d2,
                |t, v| t.sum(t.mul(k.apply(t, v, 1e-10), t.constant(w.clone()))),
                1e-5,
                1e-4,
            );
        }
    }

    #[test]
    fn apply_normalizes_the_similarities() {
        let d2 = Matrix::from_rows(&[&[0.0, 1.0, 4.0], &[9.0, 0.5, 2.0]]);
        for k in [Kernel::PAPER, Kernel::StudentT { nu: 2.0 }, Kernel::Normal { sigma: 1.0 }] {
            let t = Tape::new();
            let q = t.value(k.apply(&t, t.constant(d2.clone()), 1e-10));
            let u = apply_to(k, &d2);
            for i in 0..2 {
                let s: f64 = u.row(i).iter().sum();
                for j in 0..3 {
                    assert_eq!(q[(i, j)].to_bits(), (u[(i, j)] / (s + 1e-10)).to_bits(), "{k:?}");
                }
            }
        }
    }
}
