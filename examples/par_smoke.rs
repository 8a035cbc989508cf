//! Parallel-runtime smoke check: times `sq_euclidean_cdist` on a
//! 2000×128 matrix, the matmul kernel at the fit-tall forward shape
//! (4248×160 · 160×256) and its transposed-left backward shape
//! (160×4248 · 4248×256, via `matmul_tn`), the fused dense layer at the
//! fit-tall first layer (4248×160 → 256, ReLU): its forward (product, bias
//! and activation in one pass) and its backward (activation gradient,
//! bias, weight and input gradients), the fused clustering head
//! at the fit-wide shape (2050 latent rows, 684 centers): its forward
//! (soft assignment, softmax, KL loss) and its backward (KL, softmax and
//! soft-assignment gradients), one 64-row request to a frozen TableDC
//! model at the assign shape (d = 160, hidden `[256, 128]`, latent 48,
//! k = 684), and Birch's global step at the fit-wide shape (weighted
//! K-means, 8 restarts, over 1950 subclusters of 48 features, k = 684),
//! each with a serial pool and with the full machine. It
//! verifies every pair of outputs is bit-identical and exits non-zero if
//! any parallel run is more than 1.5× slower than serial (a regression
//! guard, not a benchmark). Its header names the compiled copy of the
//! matmul kernel that CPU detection picked (`plain`, `avx2` or `avx512`),
//! so a log records which kernel the checks measured.
//!
//! ```sh
//! cargo run --release -p bench --example par_smoke
//! ```

use std::time::{Duration, Instant};

use clustering::KMeans;
use runtime::ThreadPool;
use tabledc::{Init, TableDc, TableDcConfig};
use tensor::head::{Head, SoftKernel};
use tensor::layer::{Activation, Dense};
use tensor::random::{randn, rng};
use tensor::par;

/// Best-of-`reps` wall time for one kernel call on the given pool, and the
/// last call's output.
fn time_kernel<T>(pool: &ThreadPool, reps: usize, kernel: impl Fn(&ThreadPool) -> T) -> (Duration, T) {
    let started = Instant::now();
    let mut out = kernel(pool);
    let mut best = started.elapsed();
    for _ in 1..reps {
        let started = Instant::now();
        out = kernel(pool);
        best = best.min(started.elapsed());
    }
    (best, out)
}

/// Times `kernel` on both pools, asserts bit-identical outputs, and
/// returns whether the parallel run stayed within 1.5× of serial.
fn check<T: PartialEq>(
    name: &str,
    serial: &ThreadPool,
    parallel: &ThreadPool,
    kernel: impl Fn(&ThreadPool) -> T,
) -> bool {
    // Warm-up outside the timed region.
    let _ = time_kernel(serial, 1, &kernel);
    let _ = time_kernel(parallel, 1, &kernel);

    let (t_serial, d_serial) = time_kernel(serial, 5, &kernel);
    let (t_parallel, d_parallel) = time_kernel(parallel, 5, &kernel);
    println!("{name}:");
    println!("  serial   {t_serial:?}");
    println!("  parallel {t_parallel:?}");

    assert!(d_serial == d_parallel, "{name}: serial and parallel outputs differ");
    println!("  outputs bit-identical: ok");

    // With one worker the "parallel" pool *is* the serial pool; only apply
    // the slowdown gate when there is real parallelism to exercise.
    if parallel.threads() == 1 {
        return true;
    }
    let limit = t_serial.as_secs_f64() * 1.5;
    if t_parallel.as_secs_f64() > limit {
        eprintln!("FAIL: parallel {name} {t_parallel:?} is more than 1.5x serial {t_serial:?}");
        return false;
    }
    println!(
        "  speedup {:.2}x (gate: parallel must be <= 1.5x serial)",
        t_serial.as_secs_f64() / t_parallel.as_secs_f64()
    );
    true
}

fn main() {
    let mut r = rng(42);
    let x = randn(2000, 128, &mut r);
    let y = randn(256, 128, &mut r);
    // Fit-tall first autoencoder layer: activations and weights forward,
    // and the weight-gradient product Xᵀ·G of its backward pass.
    let act = randn(4248, 160, &mut r);
    let w = randn(160, 256, &mut r);
    let grad = randn(4248, 256, &mut r);
    let bias = randn(1, 256, &mut r);
    // Fit-wide clustering head: squared Mahalanobis distances (Σ = 0.01·I)
    // from 2050 latent rows to 684 centers, the Cauchy kernel, and a
    // target distribution from a sharper softmax of the same distances.
    let latent = randn(2050, 48, &mut r);
    let centers = randn(684, 48, &mut r);
    let d2 = &par::sq_euclidean_cdist(&ThreadPool::new(1), &latent, &centers) * 100.0;
    let cauchy = SoftKernel::Power { scale: 1.0, exponent: -1.0 };
    let (eps, log_eps, inv_n) = (1e-10, 1e-12, 1.0 / 2050.0);
    let target = (&d2 * -0.01).softmax_rows();
    // Assign-shaped model: untrained weights and random-row centers are
    // enough to time the frozen plan and check its bits.
    let config = TableDcConfig {
        latent_dim: 48,
        hidden_dims: vec![256, 128],
        init: Init::Random,
        pretrain_epochs: 0,
        epochs: 0,
        ..TableDcConfig::new(684)
    };
    let (model, _) = TableDc::fit(config, &randn(700, 160, &mut r), &mut rng(7));
    let request = randn(64, 160, &mut r);
    // Birch's global step on fit-wide: CF subcluster centroids, about
    // three per cluster, weighted by their point counts.
    let clusters = randn(684, 48, &mut r);
    let spread = randn(1950, 48, &mut r);
    let subclusters = tensor::Matrix::from_fn(1950, 48, |i, j| 3.0 * clusters[(i % 684, j)] + spread[(i, j)]);
    let counts: Vec<f64> = (0..1950).map(|i| (1 + i % 3) as f64).collect();

    let serial = ThreadPool::new(1);
    let parallel = runtime::global();
    println!(
        "pools: serial = 1 thread, parallel = {} threads ({}={:?})",
        parallel.threads(),
        runtime::THREADS_ENV,
        std::env::var(runtime::THREADS_ENV).ok()
    );
    println!("kernel copy: {} (picked by CPU detection; every check below runs it)", par::kernel_copy());

    let mut ok = check("sq_euclidean_cdist 2000x128 · 256x128", &serial, parallel, |pool| {
        par::sq_euclidean_cdist(pool, &x, &y)
    });
    ok &= check("matmul 4248x160 · 160x256", &serial, parallel, |pool| par::matmul(pool, &act, &w));
    ok &= check("matmul_tn 160x4248 · 4248x256", &serial, parallel, |pool| {
        par::matmul_tn(pool, &act, &grad)
    });
    ok &= check("fused linear forward 4248x160 -> 256 relu", &serial, parallel, |pool| {
        Dense::on(pool).forward(&act, &w, bias.row(0), Activation::Relu)
    });
    let layer_out = Dense::on(&serial).forward(&act, &w, bias.row(0), Activation::Relu);
    ok &= check("fused linear backward 4248x160 -> 256 relu", &serial, parallel, |pool| {
        let grads = Dense::on(pool).backward(&act, &w, &layer_out, grad.clone(), Activation::Relu, (true, true, true));
        (grads.dx, grads.dw, grads.db)
    });
    let forward = |pool: &ThreadPool| {
        let head = Head::on(pool);
        let sa = head.soft_assign(&d2, cauchy, eps);
        let m = par::softmax_rows(pool, &sa.q);
        let loss = -head.cross_sum(&target, &m, log_eps) * inv_n + head.neg_entropy_sum(&target) * inv_n;
        (sa, m, loss.to_bits())
    };
    ok &= check("fused head forward 2050x684", &serial, parallel, |pool| {
        let (sa, m, loss) = forward(pool);
        (sa.q, sa.raw, sa.denom, m, loss)
    });
    let (sa, m, _) = forward(&serial);
    ok &= check("fused head backward 2050x684", &serial, parallel, |pool| {
        let head = Head::on(pool);
        let dm = head.cross_backward(&target, &m, log_eps, -(0.9 * inv_n));
        let dq = head.softmax_rows_backward(&m, &dm);
        head.soft_assign_backward(&d2, cauchy, &sa.raw, &sa.denom, &dq)
    });

    ok &= check("frozen request 64x160 -> k=684", &serial, parallel, |pool| {
        model.soft_assignments_on(pool, &request)
    });

    ok &= check("birch global step: weighted k-means 1950x48 -> k=684, 8 restarts", &serial, parallel, |pool| {
        let birch = KMeans { n_init: 8, ..KMeans::new(684) };
        let global = birch.fit_weighted_on(pool, &subclusters, &counts, &mut rng(3));
        (global.labels, global.centroids, global.inertia.to_bits(), global.n_iter)
    });

    let stats = parallel.stats();
    println!(
        "pool stats: {} tasks, {} steals, busy {:?}",
        stats.tasks_executed, stats.steals, stats.busy
    );
    if !ok {
        std::process::exit(1);
    }
    println!("par_smoke: ok");
}
