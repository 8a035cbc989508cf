//! Parallel-runtime smoke check: times `sq_euclidean_cdist` on a
//! 2000×128 matrix, plus the matmul kernel at the fit-tall forward shape
//! (4248×160 · 160×256) and its transposed-left backward shape
//! (160×4248 · 4248×256, via `matmul_tn`), each with a serial pool and
//! with the full machine. It verifies every pair of outputs is
//! bit-identical and exits non-zero if any parallel run is more than 1.5×
//! slower than serial (a regression guard, not a benchmark).
//!
//! ```sh
//! cargo run --release -p bench --example par_smoke
//! ```

use std::time::{Duration, Instant};

use runtime::ThreadPool;
use tensor::random::{randn, rng};
use tensor::{par, Matrix};

/// Best-of-`reps` wall time for one kernel call on the given pool.
fn time_kernel(
    pool: &ThreadPool,
    reps: usize,
    kernel: impl Fn(&ThreadPool) -> Matrix,
) -> (Duration, Matrix) {
    let mut best = Duration::MAX;
    let mut out = Matrix::zeros(0, 0);
    for _ in 0..reps {
        let started = Instant::now();
        let d = kernel(pool);
        best = best.min(started.elapsed());
        out = d;
    }
    (best, out)
}

/// Times `kernel` on both pools, asserts bit-identical outputs, and
/// returns whether the parallel run stayed within 1.5× of serial.
fn check(name: &str, serial: &ThreadPool, parallel: &ThreadPool, kernel: impl Fn(&ThreadPool) -> Matrix) -> bool {
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

    let serial = ThreadPool::new(1);
    let parallel = runtime::global();
    println!(
        "pools: serial = 1 thread, parallel = {} threads ({}={:?})",
        parallel.threads(),
        runtime::THREADS_ENV,
        std::env::var(runtime::THREADS_ENV).ok()
    );

    let mut ok = check("sq_euclidean_cdist 2000x128 · 256x128", &serial, parallel, |pool| {
        par::sq_euclidean_cdist(pool, &x, &y)
    });
    ok &= check("matmul 4248x160 · 160x256", &serial, parallel, |pool| par::matmul(pool, &act, &w));
    ok &= check("matmul_tn 160x4248 · 4248x256", &serial, parallel, |pool| {
        par::matmul_tn(pool, &act, &grad)
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
