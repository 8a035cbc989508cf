//! The fused clustering head (`Kernel::apply`, `Tape::soft_assign`, the
//! fused KL node and the row-parallel softmax backward) against the
//! composed chain of elementwise tape ops it replaces: every value and
//! gradient must match bit for bit, for every kernel, distance, row count
//! around the block size, and thread count.

use autograd::{Tape, Var};
use runtime::ThreadPool;
use tabledc::{target_distribution, Covariance, Distance, Kernel};
use tensor::head::{rows_per_block, Head};
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

/// Everything one training epoch reads from the head.
struct HeadRun {
    q: Matrix,
    m: Matrix,
    loss: Matrix,
    dz: Matrix,
    dc: Matrix,
}

/// One TableDC epoch's head on a fresh tape: another consumer of `z`
/// recorded first (as the decoder is), then distances, `q`, `m`, the target
/// `p` and `α·KL(p‖m)` plus that other term.
fn run_head(z: &Matrix, c: &Matrix, distance: Distance, kernel: Kernel, fused: bool) -> HeadRun {
    let t = Tape::new();
    let (zv, cv) = (t.leaf(z.clone()), t.leaf(c.clone()));
    let other = t.mean(t.square(zv));
    let d2 = distance.sq_cdist(&t, zv, cv).expect("distance");
    let q = if fused { kernel.apply(&t, d2, EPS) } else { composed_q(&t, d2, kernel) };
    let m = t.softmax_rows(q);
    let p = target_distribution(&t.value(q));
    let kl = if fused { nn::loss::kl_div(&t, &p, m) } else { composed_kl(&t, &p, m) };
    let loss = t.add(t.scale(kl, ALPHA), other);
    let grads = t.backward(loss);
    HeadRun { q: t.value(q), m: t.value(m), loss: t.value(loss), dz: grads.grad(zv), dc: grads.grad(cv) }
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
                    let what = |x: &str| format!("{x}: n = {n}, k = {k}, {distance:?}, {kernel:?}");
                    let fused = run_head(&z, &c, distance, kernel, true);
                    let composed = run_head(&z, &c, distance, kernel, false);
                    assert_bits(&fused.q, &composed.q, &what("q"));
                    assert_bits(&fused.m, &composed.m, &what("m"));
                    assert_bits(&fused.loss, &composed.loss, &what("loss"));
                    assert_bits(&fused.dz, &composed.dz, &what("dz"));
                    assert_bits(&fused.dc, &composed.dc, &what("dc"));
                }
            }
        }
    }
}

/// The fused kernels on explicit 1-, 2- and 4-thread pools against the
/// composed chain on the tape: `q`, `m`, the loss and the gradient that
/// reaches the squared distances.
#[test]
fn fused_kernels_match_composed_chain_on_every_pool() {
    let pools: Vec<ThreadPool> = [1, 2, 4].into_iter().map(ThreadPool::new).collect();
    let mut r = rng(11);
    for k in [1, 5, 300] {
        for n in row_counts(k) {
            let mut d2v = randn(n, k, &mut r);
            d2v.map_inplace(|v| v * v * 3.0);
            for kernel in KERNELS {
                let t = Tape::new();
                let d2 = t.leaf(d2v.clone());
                let q = composed_q(&t, d2, kernel);
                let m = t.softmax_rows(q);
                let p = target_distribution(&t.value(q));
                let loss = t.scale(composed_kl(&t, &p, m), ALPHA);
                let want_dd2 = t.backward(loss).grad(d2);
                let (want_q, want_m, want_loss) = (t.value(q), t.value(m), t.value(loss)[(0, 0)]);

                let inv_n = 1.0 / n as f64;
                for pool in &pools {
                    let what =
                        |x: &str| format!("{x}: n = {n}, k = {k}, {kernel:?}, {} threads", pool.threads());
                    let head = Head::on(pool);
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
                nn::loss::kl_div(t, &p, m)
            };
            autograd::check::assert_grad_close(&z, |t, zv| loss(t, zv, t.constant(c.clone())), 1e-6, 1e-4);
            autograd::check::assert_grad_close(&c, |t, cv| loss(t, t.constant(z.clone()), cv), 1e-6, 1e-4);
        }
    }
}
