//! Criterion bench for Table 5 (distance × kernel ablation): times the
//! distance/kernel pipeline combinations on one latent batch. The quality
//! grid is regenerated by `repro table5`.

use autograd::Tape;
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tabledc::{Covariance, Distance, Kernel};
use tensor::random::randn;

fn bench_table5(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let z = randn(500, 32, &mut rng);
    let centers = randn(20, 32, &mut rng);
    let mut group = c.benchmark_group("table5_distance_kernel");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(5));
    let combos: [(&str, Distance, Kernel); 4] = [
        ("euclidean+cauchy", Distance::Euclidean, Kernel::PAPER),
        ("cosine+cauchy", Distance::Cosine, Kernel::PAPER),
        ("mahalanobis+cauchy", Distance::PAPER, Kernel::PAPER),
        (
            "mahalanobis_empirical+student_t",
            Distance::Mahalanobis(Covariance::Empirical { shrinkage: 0.5 }),
            Kernel::StudentT { nu: 1.0 },
        ),
    ];
    for (name, dist, kernel) in combos {
        group.bench_function(name, |b| {
            b.iter(|| {
                let t = Tape::new();
                let zv = t.leaf(z.clone());
                let cv = t.leaf(centers.clone());
                let d2 = dist.sq_cdist(&t, zv, cv).unwrap();
                let q = kernel.apply(&t, d2, 1e-10);
                let loss = t.mean(q);
                t.backward(loss)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_table5);
criterion_main!(benches);
