//! Gradient checking against central finite differences.
//!
//! Used by this crate's own tests and exported so downstream crates
//! (`nn`, `tabledc`) can verify that their composite losses differentiate
//! correctly — the repository's substitute for trusting a mature autodiff
//! framework.

use tensor::Matrix;

use crate::tape::{Tape, Var};

/// Numerically estimates `∂f/∂input` with central differences, where `f`
/// builds a scalar loss on a fresh tape from leaf matrices (the perturbed
/// `input` plus any fixed context the closure captures).
///
/// `f` receives the input value and must return the scalar loss value.
pub fn finite_difference_grad(
    input: &Matrix,
    eps: f64,
    mut f: impl FnMut(&Matrix) -> f64,
) -> Matrix {
    let (r, c) = input.shape();
    let mut g = Matrix::zeros(r, c);
    let mut x = input.clone();
    for i in 0..r {
        for j in 0..c {
            let orig = x[(i, j)];
            x[(i, j)] = orig + eps;
            let fp = f(&x);
            x[(i, j)] = orig - eps;
            let fm = f(&x);
            x[(i, j)] = orig;
            g[(i, j)] = (fp - fm) / (2.0 * eps);
        }
    }
    g
}

/// Asserts that the analytic gradient of `build` w.r.t. its single leaf
/// matches finite differences to a relative/absolute tolerance.
///
/// `build` receives a tape and the leaf [`Var`] for `input` and must return
/// the scalar loss node.
///
/// # Panics
/// Panics with a diagnostic message if any element disagrees.
pub fn assert_grad_close(
    input: &Matrix,
    build: impl Fn(&Tape, Var) -> Var,
    eps: f64,
    tol: f64,
) {
    let tape = Tape::new();
    let x = tape.leaf(input.clone());
    let loss = build(&tape, x);
    let analytic = tape.backward(loss).grad(x);

    let numeric = finite_difference_grad(input, eps, |m| {
        let t = Tape::new();
        let v = t.leaf(m.clone());
        let l = build(&t, v);
        t.value(l)[(0, 0)]
    });

    for i in 0..input.rows() {
        for j in 0..input.cols() {
            let a = analytic[(i, j)];
            let n = numeric[(i, j)];
            let denom = 1.0f64.max(a.abs()).max(n.abs());
            assert!(
                (a - n).abs() / denom <= tol,
                "gradient mismatch at ({i},{j}): analytic={a}, numeric={n}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use tensor::random::{randn, rng};

    const EPS: f64 = 1e-5;
    const TOL: f64 = 1e-5;

    #[test]
    fn grad_check_elementwise_chain() {
        let x = randn(3, 4, &mut rng(1));
        assert_grad_close(
            &x,
            |t, v| {
                let y = t.tanh(t.scale(v, 0.7));
                let z = t.sigmoid(t.add_scalar(y, 0.1));
                t.mean(t.square(z))
            },
            EPS,
            TOL,
        );
    }

    #[test]
    fn grad_check_relu() {
        // Shift away from 0 to avoid the kink.
        let mut x = randn(3, 3, &mut rng(2));
        x.map_inplace(|v| if v.abs() < 0.1 { v + 0.5 } else { v });
        assert_grad_close(&x, |t, v| t.sum(t.relu(v)), EPS, TOL);
    }

    #[test]
    fn grad_check_matmul_both_sides() {
        let a = randn(3, 4, &mut rng(3));
        let b = randn(4, 2, &mut rng(4));
        // w.r.t. A with B fixed
        assert_grad_close(
            &a,
            |t, v| {
                let bv = t.constant(b.clone());
                t.sum(t.square(t.matmul(v, bv)))
            },
            EPS,
            TOL,
        );
        // w.r.t. B with A fixed
        assert_grad_close(
            &b,
            |t, v| {
                let av = t.constant(a.clone());
                t.sum(t.square(t.matmul(av, v)))
            },
            EPS,
            TOL,
        );
    }

    #[test]
    fn grad_check_softmax_kl_like() {
        // A KL(p‖softmax(x))-shaped loss — the TableDC clustering loss core.
        let x = randn(4, 5, &mut rng(5));
        let mut p = randn(4, 5, &mut rng(6));
        p.map_inplace(|v| v.abs() + 0.1);
        let sums = p.row_sums();
        for (i, &s) in sums.iter().enumerate() {
            for v in p.row_mut(i) {
                *v /= s;
            }
        }
        assert_grad_close(
            &x,
            |t, v| {
                let m = t.softmax_rows(v);
                let pv = t.constant(p.clone());
                let log_m = t.ln(t.add_scalar(m, 1e-12));
                t.neg(t.sum(t.mul(pv, log_m)))
            },
            EPS,
            1e-4,
        );
    }

    #[test]
    fn grad_check_cdist_wrt_points_and_centers() {
        let x = randn(5, 3, &mut rng(7));
        let c = randn(2, 3, &mut rng(8));
        assert_grad_close(
            &x,
            |t, v| {
                let cv = t.constant(c.clone());
                t.mean(t.sq_dist_cdist(v, cv))
            },
            EPS,
            TOL,
        );
        assert_grad_close(
            &c,
            |t, v| {
                let xv = t.constant(x.clone());
                t.mean(t.sq_dist_cdist(xv, v))
            },
            EPS,
            TOL,
        );
    }

    #[test]
    fn grad_check_cauchy_assignment_pipeline() {
        // The full TableDC similarity head: Cauchy kernel over distances,
        // row-normalize, softmax, dot with a constant target.
        let z = randn(4, 3, &mut rng(9));
        let c = randn(3, 3, &mut rng(10));
        assert_grad_close(
            &z,
            |t, v| {
                let cv = t.constant(c.clone());
                let d2 = t.sq_dist_cdist(v, cv);
                let q = t.pow_scalar(t.add_scalar(t.scale(d2, 1.0 / 4.0), 1.0), -1.0);
                let s = t.add_scalar(t.row_sums(q), 1e-10);
                let qn = t.div_col_broadcast(q, s);
                let m = t.softmax_rows(qn);
                t.mean(t.square(m))
            },
            EPS,
            1e-4,
        );
    }

    #[test]
    fn grad_check_div_and_ln() {
        let mut x = randn(3, 3, &mut rng(11));
        x.map_inplace(|v| v.abs() + 0.5);
        let y = {
            let mut m = randn(3, 3, &mut rng(12));
            m.map_inplace(|v| v.abs() + 0.5);
            m
        };
        assert_grad_close(
            &x,
            |t, v| {
                let yv = t.constant(y.clone());
                t.sum(t.ln(t.div(v, yv)))
            },
            EPS,
            TOL,
        );
    }

    #[test]
    fn grad_check_transpose_and_row_sums() {
        let x = randn(3, 4, &mut rng(13));
        assert_grad_close(
            &x,
            |t, v| {
                let tt = t.transpose(v);
                let rs = t.row_sums(tt);
                t.sum(t.square(rs))
            },
            EPS,
            TOL,
        );
    }

    #[test]
    fn grad_check_sqrt_exp() {
        let mut x = randn(2, 3, &mut rng(14));
        x.map_inplace(|v| v.abs() + 0.3);
        assert_grad_close(&x, |t, v| t.sum(t.sqrt(t.exp(v))), EPS, TOL);
    }

    #[test]
    fn grad_check_bias_broadcast() {
        let b = randn(1, 4, &mut rng(15));
        let x = randn(3, 4, &mut rng(16));
        assert_grad_close(
            &b,
            |t, v| {
                let xv = t.constant(x.clone());
                t.sum(t.square(t.add_row_broadcast(xv, v)))
            },
            EPS,
            TOL,
        );
    }

    #[test]
    fn grad_check_random_composite_expressions() {
        // Light fuzzing: random small expressions mixing safe ops.
        let mut r = rng(99);
        for trial in 0..10 {
            let x = randn(3, 3, &mut r);
            let picks: Vec<u8> = (0..3).map(|_| r.gen_range(0..4u8)).collect();
            assert_grad_close(
                &x,
                |t, v| {
                    let mut cur = v;
                    for &p in &picks {
                        cur = match p {
                            0 => t.tanh(cur),
                            1 => t.sigmoid(cur),
                            2 => t.scale(cur, 1.3),
                            _ => t.add_scalar(cur, 0.2),
                        };
                    }
                    t.mean(t.square(cur))
                },
                EPS,
                1e-4,
            );
            let _ = trial;
        }
    }
}
