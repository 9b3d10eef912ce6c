//! Adaptive-feature-fusion overhead: candidate generation, weight
//! assignment and the two-stage composition. The paper's fusion is meant
//! to be a negligible cost next to feature generation — this bench
//! quantifies that.

use ceaff::fusion::{adaptive_fuse_store, two_stage_fuse_store, FusionConfig};
use ceaff::sim::{SimStore, SimilarityMatrix};
use ceaff::tensor::Matrix;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn random_matrix(n: usize, seed: u64) -> SimStore {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let data: Vec<f32> = (0..n * n).map(|_| rng.gen_range(0.0..1.0)).collect();
    SimStore::Dense(SimilarityMatrix::new(Matrix::from_vec(n, n, data)))
}

fn bench_fusion(c: &mut Criterion) {
    let mut group = c.benchmark_group("fusion");
    for n in [100usize, 300, 600] {
        let ms = random_matrix(n, 1);
        let mn = random_matrix(n, 2);
        let ml = random_matrix(n, 3);
        let cfg = FusionConfig::default();
        group.bench_with_input(BenchmarkId::new("adaptive-3", n), &n, |b, _| {
            b.iter(|| adaptive_fuse_store(std::hint::black_box(&[&ms, &mn, &ml]), &cfg))
        });
        group.bench_with_input(BenchmarkId::new("two-stage", n), &n, |b, _| {
            b.iter(|| {
                two_stage_fuse_store(std::hint::black_box(Some(&ms)), Some(&mn), Some(&ml), &cfg)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fusion);
criterion_main!(benches);
