//! Seeded random matrix construction.
//!
//! Every stochastic component in the workspace (weight init, data
//! generation, sampling) threads an explicit [`rand::rngs::StdRng`] so whole
//! experiments are reproducible from a single seed — a hard requirement for
//! the regeneration harness in `crates/bench`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::matrix::Matrix;

/// Creates a deterministically seeded RNG.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Standard-normal sample via Box–Muller. `rand 0.8` without `rand_distr`
/// only gives uniforms, so we transform two of them.
pub fn randn_scalar(rng: &mut StdRng) -> f64 {
    // Guard against ln(0).
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// `rows×cols` matrix of i.i.d. `N(0, 1)` samples.
pub fn randn(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| randn_scalar(rng)).collect())
}

/// `rows×cols` matrix of i.i.d. `U(lo, hi)` samples.
pub fn uniform(rows: usize, cols: usize, lo: f64, hi: f64, rng: &mut StdRng) -> Matrix {
    assert!(lo < hi, "uniform: empty range [{lo}, {hi})");
    Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| rng.gen_range(lo..hi)).collect())
}

/// Xavier/Glorot-uniform initialization for a `fan_in → fan_out` linear
/// layer: `U(−a, a)` with `a = sqrt(6 / (fan_in + fan_out))`. This is the
/// standard initialization for the sigmoid/ReLU autoencoders used by all
/// deep-clustering methods here.
pub fn xavier_uniform(fan_in: usize, fan_out: usize, rng: &mut StdRng) -> Matrix {
    let a = (6.0 / (fan_in + fan_out) as f64).sqrt();
    uniform(fan_in, fan_out, -a, a, rng)
}

/// Fisher–Yates shuffle of `0..n`, used for minibatching and subsampling.
pub fn permutation(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        idx.swap(i, j);
    }
    idx
}

/// Samples `k` distinct indices from `0..n` (reservoir-free: shuffles a
/// prefix). Panics if `k > n`.
pub fn sample_without_replacement(n: usize, k: usize, rng: &mut StdRng) -> Vec<usize> {
    assert!(k <= n, "cannot sample {k} distinct items from {n}");
    let mut idx: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = rng.gen_range(i..n);
        idx.swap(i, j);
    }
    idx.truncate(k);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_rng_is_deterministic() {
        let a = randn(3, 4, &mut rng(7));
        let b = randn(3, 4, &mut rng(7));
        assert_eq!(a, b);
        let c = randn(3, 4, &mut rng(8));
        assert_ne!(a, c);
    }

    #[test]
    fn randn_moments_are_plausible() {
        let m = randn(200, 50, &mut rng(42));
        let mean = m.mean();
        let var = m.map(|x| (x - mean) * (x - mean)).mean();
        assert!(mean.abs() < 0.05, "mean {mean} too far from 0");
        assert!((var - 1.0).abs() < 0.05, "variance {var} too far from 1");
    }

    #[test]
    fn uniform_respects_bounds() {
        let m = uniform(50, 50, -2.0, 3.0, &mut rng(1));
        assert!(m.as_slice().iter().all(|&x| (-2.0..3.0).contains(&x)));
    }

    #[test]
    fn xavier_bound_is_correct() {
        let m = xavier_uniform(100, 44, &mut rng(5));
        let a = (6.0 / 144.0_f64).sqrt();
        assert!(m.as_slice().iter().all(|&x| x.abs() <= a));
    }

    #[test]
    fn permutation_is_a_bijection() {
        let mut p = permutation(100, &mut rng(3));
        p.sort_unstable();
        assert_eq!(p, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn sampling_yields_distinct_indices() {
        let s = sample_without_replacement(50, 20, &mut rng(9));
        assert_eq!(s.len(), 20);
        let mut t = s.clone();
        t.sort_unstable();
        t.dedup();
        assert_eq!(t.len(), 20);
        assert!(t.iter().all(|&i| i < 50));
    }

    #[test]
    #[should_panic(expected = "cannot sample")]
    fn oversampling_panics() {
        let _ = sample_without_replacement(3, 4, &mut rng(0));
    }
}
