//! Matching-strategy scaling: deferred acceptance vs Hungarian vs greedy —
//! the measurable form of the paper's §VI efficiency discussion.

use ceaff::matching::{Greedy, Hungarian, Matcher, StableMarriage};
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

fn bench_matchers(c: &mut Criterion) {
    let mut group = c.benchmark_group("matching");
    group.sample_size(10);
    for n in [100usize, 200, 400] {
        let m = random_matrix(n, 42);
        group.bench_with_input(BenchmarkId::new("greedy", n), &m, |b, m| {
            b.iter(|| Greedy.matching_store(std::hint::black_box(m)))
        });
        group.bench_with_input(BenchmarkId::new("deferred-acceptance", n), &m, |b, m| {
            b.iter(|| StableMarriage.matching_store(std::hint::black_box(m)))
        });
        group.bench_with_input(BenchmarkId::new("hungarian", n), &m, |b, m| {
            b.iter(|| Hungarian.matching_store(std::hint::black_box(m)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_matchers);
criterion_main!(benches);
