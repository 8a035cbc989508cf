//! The fused clustering head against the composed chain of elementwise
//! tape ops it replaces: TableDC's one-node head (`Tape::cluster_head`),
//! and the baselines' `Tape::soft_assign` with the fused KL node and the
//! row-parallel softmax backward. Every value and gradient must match bit
//! for bit, for every kernel, distance, row count around the block size,
//! and thread count.

use autograd::{Tape, Var};
use nn::loss::kl_div_value;
use runtime::ThreadPool;
use tabledc::{target_distribution, Covariance, Distance, Kernel};
use tensor::head::{rows_per_block, Head, HeadSpec};
use tensor::random::{randn, rng};
use tensor::Matrix;

const EPS: f64 = 1e-10;
const LOG_EPS: f64 = 1e-12;
const ALPHA: f64 = 0.9;

const KERNELS: [Kernel; 4] = [
    Kernel::Cauchy { gamma: 1.0 },
    Kernel::Cauchy { gamma: 0.7 },
    Kernel::StudentT { nu: 2.5 },
    Kernel::Normal { sigma: 1.5 },
];

/// The kernel as the pow/exp chain of elementwise tape ops.
fn composed_kernel(t: &Tape, d2: Var, kernel: Kernel) -> Var {
    match kernel {
        Kernel::Cauchy { gamma } => t.pow_scalar(t.add_scalar(t.scale(d2, 1.0 / (gamma * gamma)), 1.0), -1.0),
        Kernel::StudentT { nu } => t.pow_scalar(t.add_scalar(t.scale(d2, 1.0 / nu), 1.0), -(nu + 1.0) / 2.0),
        Kernel::Normal { sigma } => t.exp(t.scale(d2, -1.0 / (2.0 * sigma * sigma))),
    }
}

/// Eq. 8 as the row_sums / add_scalar / div_col_broadcast chain.
fn composed_q(t: &Tape, d2: Var, kernel: Kernel) -> Var {
    let u = composed_kernel(t, d2, kernel);
    let sums = t.add_scalar(t.row_sums(u), EPS);
    t.div_col_broadcast(u, sums)
}

/// `KL(p ‖ m)` as the chain of elementwise tape ops.
fn composed_kl(t: &Tape, p: &Matrix, m: Var) -> Var {
    let n = p.rows().max(1) as f64;
    let pv = t.constant(p.clone());
    let log_m = t.ln(t.add_scalar(m, LOG_EPS));
    let cross = t.scale(t.neg(t.sum(t.mul(pv, log_m))), 1.0 / n);
    let ent: f64 = p.as_slice().iter().map(|&x| if x > 0.0 { x * x.ln() } else { 0.0 }).sum::<f64>() / n;
    t.add_scalar(cross, ent)
}

/// The head's constants for `kernel` and a distance factor `scale`.
fn spec(kernel: Kernel, scale: Option<f64>) -> HeadSpec {
    HeadSpec { scale, kernel: kernel.soft_kernel(), eps: EPS, log_eps: LOG_EPS }
}

/// How [`run_head`] builds the head.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Path {
    /// Elementwise tape ops only.
    Composed,
    /// `Kernel::apply` (`Tape::soft_assign`), the softmax and the fused KL
    /// node against a target computed outside the tape.
    Fused,
    /// `Tape::cluster_head`.
    Node,
}

/// Everything one training epoch reads from the head.
struct HeadRun {
    q: Matrix,
    m: Matrix,
    loss: Matrix,
    kl_pq: f64,
    dz: Matrix,
    dc: Matrix,
}

/// One TableDC epoch's head on a fresh tape: another consumer of `z`
/// recorded first (as the decoder is), then distances, `q`, `m`, the target
/// `p` and `α·KL(p‖m)` plus that other term.
fn run_head(z: &Matrix, c: &Matrix, distance: Distance, kernel: Kernel, path: Path) -> HeadRun {
    let t = Tape::new();
    let (zv, cv) = (t.leaf(z.clone()), t.leaf(c.clone()));
    let other = t.mean(t.square(zv));
    let (q, m, kl, kl_pq) = if path == Path::Node {
        let (d2, scale) = distance.sq_cdist_unscaled(&t, zv, cv).expect("distance");
        let head = t.cluster_head(d2, spec(kernel, scale));
        // The node keeps `q` only; `m` is its row softmax.
        (head.q, t.softmax_rows(head.q), head.kl, head.kl_pq)
    } else {
        let d2 = distance.sq_cdist(&t, zv, cv).expect("distance");
        let q = if path == Path::Fused { kernel.apply(&t, d2, EPS) } else { composed_q(&t, d2, kernel) };
        let m = t.softmax_rows(q);
        let p = target_distribution(&t.value(q));
        let kl_pq = kl_div_value(&p, &t.value(q));
        let kl = if path == Path::Fused { nn::loss::kl_div(&t, t.constant(p), m) } else { composed_kl(&t, &p, m) };
        (q, m, kl, kl_pq)
    };
    let loss = t.add(t.scale(kl, ALPHA), other);
    let grads = t.backward(loss);
    HeadRun { q: t.value(q), m: t.value(m), loss: t.value(loss), kl_pq, dz: grads.grad(zv), dc: grads.grad(cv) }
}

fn assert_bits(got: &Matrix, want: &Matrix, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape");
    for (idx, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: entry {idx}: {g} vs {w}");
    }
}

/// Row counts around the block size of `k` columns: 1, block − 1,
/// block + 1 and several blocks.
fn row_counts(k: usize) -> Vec<usize> {
    let b = rows_per_block(k);
    let mut rows = vec![1, b - 1, b + 1];
    if k > 1 {
        rows.push(3 * b + 5);
    }
    rows
}

#[test]
fn fused_head_matches_composed_chain_bitwise() {
    let distances = [
        Distance::Euclidean,
        Distance::Mahalanobis(Covariance::ScaledIdentity(0.01)),
        Distance::Mahalanobis(Covariance::Empirical { shrinkage: 0.3 }),
        Distance::Cosine,
    ];
    let mut r = rng(7);
    for (k, latent) in [(300, 6), (1, 3)] {
        let c = randn(k, latent, &mut r);
        for n in row_counts(k) {
            let z = randn(n, latent, &mut r);
            for distance in distances {
                // One row has no covariance to estimate.
                if n == 1 && matches!(distance, Distance::Mahalanobis(Covariance::Empirical { .. })) {
                    continue;
                }
                for kernel in KERNELS {
                    let composed = run_head(&z, &c, distance, kernel, Path::Composed);
                    for path in [Path::Fused, Path::Node] {
                        let what = |x: &str| format!("{x}: {path:?}, n = {n}, k = {k}, {distance:?}, {kernel:?}");
                        let fused = run_head(&z, &c, distance, kernel, path);
                        assert_bits(&fused.q, &composed.q, &what("q"));
                        assert_bits(&fused.m, &composed.m, &what("m"));
                        assert_bits(&fused.loss, &composed.loss, &what("loss"));
                        assert_eq!(fused.kl_pq.to_bits(), composed.kl_pq.to_bits(), "{}", what("kl_pq"));
                        assert_bits(&fused.dz, &composed.dz, &what("dz"));
                        assert_bits(&fused.dc, &composed.dc, &what("dc"));
                    }
                }
            }
        }
    }
}

/// The fused kernels on explicit 1-, 2- and 4-thread pools against the
/// composed chain on the tape: `q`, `m` (the baselines' kernels only; the
/// one-node head does not store it), the loss, `KL(p‖q)` and the gradient
/// that reaches the squared distances, for the baselines' kernel sequence
/// and for the one-node head with and without a distance factor.
#[test]
fn fused_kernels_match_composed_chain_on_every_pool() {
    let pools: Vec<ThreadPool> = [1, 2, 4].into_iter().map(ThreadPool::new).collect();
    let mut r = rng(11);
    for k in [1, 5, 300] {
        for n in row_counts(k) {
            let mut d2v = randn(n, k, &mut r);
            d2v.map_inplace(|v| v * v * 3.0);
            for kernel in KERNELS {
                for scale in [None, Some(100.0)] {
                    let t = Tape::new();
                    let d2 = t.leaf(d2v.clone());
                    let scaled = scale.map_or(d2, |s| t.scale(d2, s));
                    let q = composed_q(&t, scaled, kernel);
                    let m = t.softmax_rows(q);
                    let p = target_distribution(&t.value(q));
                    let loss = t.scale(composed_kl(&t, &p, m), ALPHA);
                    let want_dd2 = t.backward(loss).grad(d2);
                    let (want_q, want_m, want_loss) = (t.value(q), t.value(m), t.value(loss)[(0, 0)]);
                    let want_kl_pq = kl_div_value(&p, &want_q);

                    let inv_n = 1.0 / n as f64;
                    for pool in &pools {
                        let what = |x: &str| {
                            format!("{x}: n = {n}, k = {k}, {kernel:?}, scale {scale:?}, {} threads", pool.threads())
                        };
                        let head = Head::on(pool);
                        if scale.is_none() {
                            let sa = head.soft_assign(&d2v, kernel.soft_kernel(), EPS);
                            let m = tensor::par::softmax_rows(pool, &sa.q);
                            let ce = -head.cross_sum(&p, &m, LOG_EPS) * inv_n + head.neg_entropy_sum(&p) / n as f64;
                            let dm = head.cross_backward(&p, &m, LOG_EPS, -(ALPHA * inv_n));
                            let dq = head.softmax_rows_backward(&m, &dm);
                            let dd2 = head.soft_assign_backward(&d2v, kernel.soft_kernel(), &sa.raw, &sa.denom, &dq);
                            assert_bits(&sa.q, &want_q, &what("q"));
                            assert_bits(&m, &want_m, &what("m"));
                            assert_eq!((ce * ALPHA).to_bits(), want_loss.to_bits(), "{}", what("loss"));
                            assert_bits(&dd2, &want_dd2, &what("dd2"));
                        }

                        let out = head.cluster_head(&d2v, spec(kernel, scale));
                        let dd2 = head.cluster_head_backward(spec(kernel, scale), &d2v, &out.q, &out.saved, ALPHA);
                        assert_bits(&out.q, &want_q, &what("node q"));
                        assert_eq!((out.loss * ALPHA).to_bits(), want_loss.to_bits(), "{}", what("node loss"));
                        assert_eq!(out.kl_pq.to_bits(), want_kl_pq.to_bits(), "{}", what("node kl_pq"));
                        assert_bits(&dd2, &want_dd2, &what("node dd2"));
                    }
                }
            }
        }
    }
}

#[test]
fn fused_head_gradients_match_finite_differences() {
    let z = randn(5, 3, &mut rng(21));
    let c = randn(4, 3, &mut rng(22));
    let p = target_distribution(&randn(5, 4, &mut rng(23)).softmax_rows());
    for distance in [Distance::Euclidean, Distance::PAPER, Distance::Cosine] {
        for kernel in KERNELS {
            let loss = |t: &Tape, zv: Var, cv: Var| {
                let d2 = distance.sq_cdist(t, zv, cv).expect("distance");
                let m = t.softmax_rows(kernel.apply(t, d2, EPS));
                nn::loss::kl_div(t, t.constant(p.clone()), m)
            };
            autograd::check::assert_grad_close(&z, |t, zv| loss(t, zv, t.constant(c.clone())), 1e-6, 1e-4);
            autograd::check::assert_grad_close(&c, |t, cv| loss(t, t.constant(z.clone()), cv), 1e-6, 1e-4);
        }
    }
}

/// The one-node head's gradients against central differences of its loss
/// with the target held at its value there: like DEC, the head treats `p`
/// as a constant within an epoch.
#[test]
fn cluster_head_gradients_match_finite_differences() {
    let z = randn(5, 3, &mut rng(24));
    let c = randn(4, 3, &mut rng(25));
    for distance in [Distance::Euclidean, Distance::PAPER, Distance::Cosine] {
        for kernel in KERNELS {
            let t = Tape::new();
            let (zv, cv) = (t.leaf(z.clone()), t.leaf(c.clone()));
            let (d2, scale) = distance.sq_cdist_unscaled(&t, zv, cv).expect("distance");
            let head = t.cluster_head(d2, spec(kernel, scale));
            let p = target_distribution(&t.value(head.q));
            let grads = t.backward(head.kl);
            let fixed_target_loss = |zm: &Matrix, cm: &Matrix| {
                let t = Tape::new();
                let d2 = distance.sq_cdist(&t, t.constant(zm.clone()), t.constant(cm.clone())).expect("distance");
                let m = t.softmax_rows(kernel.apply(&t, d2, EPS));
                t.value(nn::loss::kl_div(&t, t.constant(p.clone()), m))[(0, 0)]
            };
            let numeric = [
                autograd::check::finite_difference_grad(&z, 1e-6, |zm| fixed_target_loss(zm, &c)),
                autograd::check::finite_difference_grad(&c, 1e-6, |cm| fixed_target_loss(&z, cm)),
            ];
            for (analytic, numeric) in [grads.grad(zv), grads.grad(cv)].iter().zip(&numeric) {
                for (&a, &n) in analytic.as_slice().iter().zip(numeric.as_slice()) {
                    let denom = 1.0f64.max(a.abs()).max(n.abs());
                    assert!((a - n).abs() / denom <= 1e-4, "{distance:?}, {kernel:?}: analytic {a}, numeric {n}");
                }
            }
        }
    }
}
