//! Loss functions used across TableDC and the deep baselines.

use autograd::{Tape, Var};
use tensor::head::{kl_term, Head};
use tensor::Matrix;

/// Numerical floor inside logarithms.
pub const LOG_EPS: f64 = 1e-12;

/// Mean-squared-error reconstruction loss (paper Eq. 12):
/// `1/n · Σ (x − x̂)²` where the mean is over *all* elements. One fused
/// tape node ([`Tape::mse`]) that differentiates whichever operands need
/// it.
pub fn mse(t: &Tape, target: Var, pred: Var) -> Var {
    t.mse(target, pred)
}

/// KL divergence `KL(p ‖ m) = 1/n · Σ p·log(p/m)` with a constant target
/// node `p` (paper Eq. 10; [`Tape::constant`]), normalized per row
/// ("batchmean", the convention of the reference DEC/SDCN implementations
/// — an unnormalized sum would make the clustering gradient grow with n·k
/// and swamp the mean-reduced reconstruction loss in Eq. 13). The node
/// reads `p` in place, so several KL terms can share one target. `p` does
/// not require gradients; the
/// `p·log p` term is still included so the node's *value* is a true mean
/// KL divergence (useful for the Figure 5 loss curves), while the gradient
/// only flows through `−Σ p·log m`. One fused tape node
/// ([`Tape::kl_div`]).
pub fn kl_div(t: &Tape, p: Var, m: Var) -> Var {
    t.kl_div(p, m, LOG_EPS)
}

/// Plain (non-tape) mean-per-row KL divergence between two row-stochastic
/// matrices, `1/n · Σ_ij p·log(p/q)` — used for reporting (Figure 5)
/// without autograd. The terms are evaluated in parallel row blocks
/// ([`Head::sum_terms`]) and summed serially in row-major order.
pub fn kl_div_value(p: &Matrix, q: &Matrix) -> f64 {
    assert_eq!(p.shape(), q.shape(), "kl_div_value: shape mismatch");
    let n = p.rows().max(1) as f64;
    Head::global().sum_terms(p.shape(), |i, j| kl_term(p[(i, j)], q[(i, j)], LOG_EPS)) / n
}

/// Cross-entropy of row-stochastic predictions `m` against a constant node
/// `p` of hard or soft targets: `−1/n Σ p·log m`, one fused tape node
/// ([`Tape::cross_entropy`]). Used by SHGP's pseudo-label loss.
pub fn cross_entropy(t: &Tape, p: Var, m: Var) -> Var {
    t.cross_entropy(p, m, LOG_EPS)
}

/// NT-Xent-style contrastive loss on two aligned views (rows of `za`, `zb`
/// are positives; all other cross pairs are negatives), with temperature
/// `tau`. Used by the Starmie-style contrastive column encoder.
///
/// Implemented over tape variables so the encoder can be trained end to
/// end.
pub fn nt_xent(t: &Tape, za: Var, zb: Var, tau: f64) -> Var {
    // Cosine similarities via normalized dot products; we approximate with
    // dot products of L2-normalized inputs, which callers should provide,
    // or raw dot products otherwise (still a valid contrastive objective).
    let logits = t.scale(t.matmul(za, t.transpose(zb)), 1.0 / tau);
    let probs = t.softmax_rows(logits);
    // Positives are the diagonal; maximize their log-probability.
    cross_entropy(t, t.constant(Matrix::identity(t.shape(za).0)), probs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor::random::{randn, rng};

    /// `−1/n · Σ p·log(m + ε)` as the chain of elementwise tape ops the
    /// fused node replaces.
    fn composed_cross_entropy(t: &Tape, p: Var, m: Var) -> Var {
        let n = t.shape(p).0.max(1) as f64;
        let log_m = t.ln(t.add_scalar(m, LOG_EPS));
        t.scale(t.neg(t.sum(t.mul(p, log_m))), 1.0 / n)
    }

    fn composed_kl_div(t: &Tape, p: Var, m: Var) -> Var {
        let n = t.shape(p).0.max(1) as f64;
        let ent: f64 = t.with_value(p, |p| {
            p.as_slice().iter().map(|&x| if x > 0.0 { x * x.ln() } else { 0.0 }).sum::<f64>()
        }) / n;
        t.add_scalar(composed_cross_entropy(t, p, m), ent)
    }

    /// Value and gradient w.r.t. `m` of `α·loss(p, m)`.
    fn value_and_grad(loss: fn(&Tape, Var, Var) -> Var, p: &Matrix, m: &Matrix) -> (u64, Vec<u64>) {
        let t = Tape::new();
        let mv = t.leaf(m.clone());
        let l = t.scale(loss(&t, t.constant_ref(p), mv), 0.9);
        let g = t.backward(l).grad(mv);
        (t.value(l)[(0, 0)].to_bits(), g.as_slice().iter().map(|v| v.to_bits()).collect())
    }

    #[test]
    fn fused_kl_and_cross_entropy_match_composed_chain_bitwise() {
        for (n, k) in [(1, 1), (7, 3), (130, 40), (300, 1)] {
            let m = randn(n, k, &mut rng(n as u64)).softmax_rows();
            let mut p = randn(n, k, &mut rng(k as u64 + 100)).softmax_rows();
            p[(0, 0)] = 0.0; // a zero target entry drops out of the entropy
            assert_eq!(value_and_grad(kl_div, &p, &m), value_and_grad(composed_kl_div, &p, &m), "kl {n}x{k}");
            assert_eq!(
                value_and_grad(cross_entropy, &p, &m),
                value_and_grad(composed_cross_entropy, &p, &m),
                "cross entropy {n}x{k}"
            );
        }
    }

    #[test]
    fn fused_kl_gradient_matches_finite_differences() {
        let p = randn(4, 3, &mut rng(1)).softmax_rows();
        let m = randn(4, 3, &mut rng(2)).softmax_rows();
        autograd::check::assert_grad_close(&m, |t, v| kl_div(t, t.constant(p.clone()), v), 1e-6, 1e-5);
        autograd::check::assert_grad_close(&m, |t, v| cross_entropy(t, t.constant(p.clone()), v), 1e-6, 1e-5);
    }

    #[test]
    fn mse_of_identical_is_zero() {
        let t = Tape::new();
        let a = t.leaf(Matrix::from_rows(&[&[1.0, 2.0]]));
        let l = mse(&t, a, a);
        assert_eq!(t.value(l)[(0, 0)], 0.0);
    }

    #[test]
    fn mse_matches_hand_value() {
        let t = Tape::new();
        let a = t.constant(Matrix::from_rows(&[&[1.0, 2.0]]));
        let b = t.constant(Matrix::from_rows(&[&[3.0, 2.0]]));
        let l = mse(&t, a, b);
        assert_eq!(t.value(l)[(0, 0)], 2.0); // ((1-3)² + 0)/2
    }

    #[test]
    fn kl_zero_when_distributions_match() {
        let p = Matrix::from_rows(&[&[0.25, 0.75], &[0.5, 0.5]]);
        let t = Tape::new();
        let (pv, m) = (t.constant(p.clone()), t.constant(p.clone()));
        let l = kl_div(&t, pv, m);
        assert!(t.value(l)[(0, 0)].abs() < 1e-9);
        assert!(kl_div_value(&p, &p).abs() < 1e-12);
    }

    #[test]
    fn kl_div_value_matches_the_serial_sum_bitwise() {
        for (n, k) in [(1, 1), (70, 9), (2050, 40)] {
            let mut p = randn(n, k, &mut rng(n as u64)).softmax_rows();
            let mut q = randn(n, k, &mut rng(k as u64 + 7)).softmax_rows();
            p[(n - 1, 0)] = 0.0; // a zero target entry drops out
            q[(0, k - 1)] = 0.0; // a zero prediction is floored at LOG_EPS
            let serial = p
                .as_slice()
                .iter()
                .zip(q.as_slice())
                .map(|(&pi, &qi)| if pi > 0.0 { pi * (pi / qi.max(LOG_EPS)).ln() } else { 0.0 })
                .sum::<f64>()
                / n as f64;
            assert_eq!(kl_div_value(&p, &q).to_bits(), serial.to_bits(), "{n}x{k}");
        }
    }

    #[test]
    fn kl_positive_when_distributions_differ() {
        let p = Matrix::from_rows(&[&[0.9, 0.1]]);
        let q = Matrix::from_rows(&[&[0.5, 0.5]]);
        let v = kl_div_value(&p, &q);
        assert!(v > 0.0);
        // Hand value: 0.9·ln(1.8) + 0.1·ln(0.2)
        let expect = 0.9 * (1.8f64).ln() + 0.1 * (0.2f64).ln();
        assert!((v - expect).abs() < 1e-12);
        // Tape version agrees.
        let t = Tape::new();
        let m = t.constant(q);
        assert!((t.value(kl_div(&t, t.constant(p), m))[(0, 0)] - expect).abs() < 1e-6);
    }

    #[test]
    fn kl_gradient_pushes_m_towards_p() {
        // d/dm KL(p‖m) should be negative where p > m (increase m there).
        let p = Matrix::from_rows(&[&[0.9, 0.1]]);
        let t = Tape::new();
        let m = t.leaf(Matrix::from_rows(&[&[0.5, 0.5]]));
        let l = kl_div(&t, t.constant(p), m);
        let g = t.backward(l).grad(m);
        assert!(g[(0, 0)] < 0.0, "gradient should increase m where p is larger");
        assert!(g[(0, 1)] > g[(0, 0)]);
    }

    #[test]
    fn cross_entropy_prefers_correct_labels() {
        let p = Matrix::from_rows(&[&[1.0, 0.0]]);
        let good = Matrix::from_rows(&[&[0.9, 0.1]]);
        let bad = Matrix::from_rows(&[&[0.1, 0.9]]);
        let t = Tape::new();
        let pv = t.constant(p);
        let lg = t.value(cross_entropy(&t, pv, t.constant(good)))[(0, 0)];
        let lb = t.value(cross_entropy(&t, pv, t.constant(bad)))[(0, 0)];
        assert!(lg < lb);
    }

    #[test]
    fn nt_xent_lower_for_aligned_views() {
        let t = Tape::new();
        let base = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]).normalize_rows();
        let aligned = t.constant(base.clone());
        let view = t.constant(base.clone());
        let l_aligned = t.value(nt_xent(&t, aligned, view, 0.5))[(0, 0)];
        // Misaligned: swap rows of the second view.
        let swapped = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let t2 = Tape::new();
        let a2 = t2.constant(base);
        let b2 = t2.constant(swapped);
        let l_mis = t2.value(nt_xent(&t2, a2, b2, 0.5))[(0, 0)];
        assert!(l_aligned < l_mis);
    }
}
