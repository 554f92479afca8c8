//! Micro-benchmarks of the core numerical kernels: the orthogonalization
//! of a column pair (the orth-AIE's unit of work, Eq. 3–5) and the
//! supporting primitives, across the paper's column lengths — plus the
//! eviction cost of the LRU primitive under every serving cache.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use svd_kernels::lru::ByteLru;
use svd_kernels::rotation::{
    column_products, column_products_scalar, compute_rotation, orthogonalize_pair,
    orthogonalize_pair_gated, orthogonalize_pair_gated_scalar,
};

fn bench_orthogonalize_pair(c: &mut Criterion) {
    let mut group = c.benchmark_group("orthogonalize_pair");
    for m in [128usize, 256, 512, 1024] {
        let x: Vec<f32> = (0..m).map(|i| (i as f32 * 0.37).sin()).collect();
        let y: Vec<f32> = (0..m).map(|i| (i as f32 * 0.73).cos()).collect();
        group.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, _| {
            b.iter(|| {
                let mut xs = x.clone();
                let mut ys = y.clone();
                black_box(orthogonalize_pair(&mut xs, &mut ys))
            })
        });
    }
    group.finish();
}

fn bench_rotation_factors(c: &mut Criterion) {
    c.bench_function("compute_rotation", |b| {
        b.iter(|| {
            black_box(compute_rotation(
                black_box(3.7),
                black_box(5.1),
                black_box(1.3),
            ))
        })
    });
}

fn bench_column_products(c: &mut Criterion) {
    let mut group = c.benchmark_group("column_products");
    for m in [128usize, 1024] {
        let x: Vec<f64> = (0..m).map(|i| (i as f64 * 0.37).sin()).collect();
        let y: Vec<f64> = (0..m).map(|i| (i as f64 * 0.73).cos()).collect();
        group.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, _| {
            b.iter(|| black_box(column_products(&x, &y)))
        });
    }
    group.finish();
}

fn bench_column_products_f32_chunked_vs_scalar(c: &mut Criterion) {
    let mut group = c.benchmark_group("column_products_f32");
    for m in [256usize, 1024] {
        let x: Vec<f32> = (0..m).map(|i| (i as f32 * 0.37).sin()).collect();
        let y: Vec<f32> = (0..m).map(|i| (i as f32 * 0.73).cos()).collect();
        group.bench_with_input(BenchmarkId::new("chunked", m), &m, |b, _| {
            b.iter(|| black_box(column_products(&x, &y)))
        });
        group.bench_with_input(BenchmarkId::new("scalar", m), &m, |b, _| {
            b.iter(|| black_box(column_products_scalar(&x, &y)))
        });
    }
    group.finish();
}

fn bench_orthogonalize_f32_chunked_vs_scalar(c: &mut Criterion) {
    let mut group = c.benchmark_group("orthogonalize_pair_f32");
    let m = 256usize;
    let x: Vec<f32> = (0..m).map(|i| (i as f32 * 0.37).sin()).collect();
    let y: Vec<f32> = (0..m).map(|i| (i as f32 * 0.73).cos()).collect();
    group.bench_function("chunked", |b| {
        b.iter(|| {
            let mut xs = x.clone();
            let mut ys = y.clone();
            black_box(orthogonalize_pair_gated(&mut xs, &mut ys, 0.0))
        })
    });
    group.bench_function("scalar", |b| {
        b.iter(|| {
            let mut xs = x.clone();
            let mut ys = y.clone();
            black_box(orthogonalize_pair_gated_scalar(&mut xs, &mut ys, 0.0))
        })
    });
    group.finish();
}

/// Inserts per timed iteration of `lru_evict`: divide `ns/iter` by this
/// for the cost of one insert-with-eviction.
const LRU_INSERTS_PER_ITER: u64 = 1000;

/// Insert-with-eviction cost at 10² … 10⁵ resident entries: the cache is
/// full, so every insert of a fresh key evicts the least-recently-used
/// one. Flat across sizes means eviction does not scan the residents.
fn bench_lru_evict(c: &mut Criterion) {
    let mut group = c.benchmark_group("lru_evict");
    for resident in [100u64, 1_000, 10_000, 100_000] {
        let lru = ByteLru::new(resident as usize);
        for key in 0..resident {
            lru.insert_with(key, |seq| (seq, 1));
        }
        let mut next = resident;
        group.bench_with_input(BenchmarkId::from_parameter(resident), &resident, |b, _| {
            b.iter(|| {
                for _ in 0..LRU_INSERTS_PER_ITER {
                    black_box(lru.insert_with(next, |seq| (seq, 1)));
                    next += 1;
                }
            })
        });
        assert_eq!(lru.len() as u64, resident);
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_orthogonalize_pair,
    bench_rotation_factors,
    bench_column_products,
    bench_column_products_f32_chunked_vs_scalar,
    bench_orthogonalize_f32_chunked_vs_scalar,
    bench_lru_evict
);
criterion_main!(benches);
